"""Flop-counted dense linear-algebra substrate.

This subpackage plays the role MKL/ACML/LAPACK play in the paper: it is
the sequential kernel layer every algorithm (communication-avoiding or
baseline) is built from.  As in the paper, the panel and solve kernels
are the vendor library's: ``rgetf2``, ``getf2_nopiv``, ``trsm_llnu``,
``trsm_runn``, ``geqr3`` and ``tpqrt`` call LAPACK/BLAS (``dgetrf``,
``dtrsm``, ``dgeqrt``, ``dtpqrt``) through :mod:`scipy.linalg.lapack`,
and ``gemm``/``larfb``/``tpmqrt`` are NumPy matrix products (BLAS3).
The BLAS2 baselines the paper measures against (``getf2``, ``geqr2``,
``larft``) and PLASMA's ``tstrf``/``ssssm`` are written out on NumPy
array primitives.  Each kernel reports its flop count to
:mod:`repro.counters`; the LAPACK-backed ones report the closed forms
of :mod:`repro.analysis.flops`.

Naming follows LAPACK so the correspondence with the paper's Algorithm
listings is direct: ``getf2`` (BLAS2 LU), ``rgetf2`` (recursive LU, the
paper's panel kernel), ``geqr2`` (BLAS2 QR), ``geqr3`` (recursive QR),
``larfg/larft/larfb`` (compact-WY Householder), ``tpqrt/tpmqrt``
(structured triangular-pentagonal QR, the TSQR tree kernel) and
``tstrf/ssssm`` (PLASMA's incremental-pivoting LU kernels).
"""

from repro.kernels.blas import gemm, ger, laswp, scal_axpy_col, trsm_llnu, trsm_runn
from repro.kernels.lu import getf2, getf2_nopiv, getrf, rgetf2
from repro.kernels.qr import (
    apply_wy_q,
    apply_wy_qt,
    extract_r,
    extract_v,
    geqr2,
    geqr3,
    geqrf,
    larfb_left_t,
    larfg,
    larft,
)
from repro.kernels.structured import TstrfOps, ssssm_apply, tpmqrt_left_t, tpqrt, tstrf

__all__ = [
    "TstrfOps",
    "apply_wy_q",
    "apply_wy_qt",
    "extract_r",
    "extract_v",
    "gemm",
    "geqr2",
    "geqr3",
    "geqrf",
    "ger",
    "getf2",
    "getf2_nopiv",
    "getrf",
    "larfb_left_t",
    "larfg",
    "larft",
    "laswp",
    "rgetf2",
    "scal_axpy_col",
    "ssssm_apply",
    "tpmqrt_left_t",
    "tpqrt",
    "trsm_llnu",
    "trsm_runn",
    "tstrf",
]
