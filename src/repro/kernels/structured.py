"""Structured kernels for reduction trees and tiled algorithms.

Two families:

Triangular-pentagonal QR (``tpqrt`` / ``tpmqrt_left_t``)
    QR of a ``b x b`` upper-triangular tile stacked on top of an
    ``m x b`` block, exploiting the identity structure of the top part
    of the Householder vectors (``V = [I; V_b]``).  With a dense bottom
    block this is PLASMA's ``DTSQRT``; with a triangular bottom block
    (``bottom_triangular=True``) it is the ``[R_i; R_j]`` merge kernel
    of the TSQR reduction tree (PLASMA's ``DTTQRT``).  Both run as
    LAPACK ``dtpqrt``.

Incremental-pivoting LU (``tstrf`` / ``ssssm_apply``)
    LU of a ``b x b`` upper-triangular tile stacked on an ``m x b``
    block with row pivoting *across the two tiles* — PLASMA's
    ``DTSTRF``; the recorded elimination is replayed on right-hand-side
    tile pairs by ``ssssm_apply`` (PLASMA's ``DSSSSM``).  This is the
    pivoting scheme whose weaker stability (growth factor grows with
    the number of tiles) the paper contrasts with CALU's ca-pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.flops import tpqrt_ts_flops, tpqrt_tt_flops
from repro.counters import add_call, add_comparisons, add_flops
from repro.kernels._lapack import dtpqrt, fortran_work, write_back

__all__ = ["tpqrt", "tpmqrt_left_t", "tstrf", "ssssm_apply", "TstrfOps"]


def tpqrt(R: np.ndarray, B: np.ndarray, bottom_triangular: bool = False) -> np.ndarray:
    """QR of ``[R; B]`` with ``R`` upper triangular, in place. Returns ``T``.

    On exit ``R`` holds the new ``R`` factor and ``B`` holds the bottom
    parts ``V_b`` of the Householder vectors (the top parts form the
    identity and are implicit).  ``Q = I - [I; V_b] T [I; V_b]^T``.
    LAPACK ``dtpqrt`` with one block of all ``b`` columns, so ``T`` is
    the full ``b x b`` compact-WY factor (C-contiguous).

    Only the upper triangle of ``R`` is read or written — below it the
    tile may hold another task's Householder vectors — and likewise only
    the upper trapezoid of a triangular ``B``.

    Parameters
    ----------
    R : (b, b) upper triangular, overwritten with the merged ``R``.
    B : (m, b); dense (``DTSQRT``, ``l = 0``) or upper triangular
        (``bottom_triangular=True``, the TSQR tree-node ``DTTQRT``
        case, ``l = b``, where column ``j`` of ``B`` only has rows
        ``0..j``).
    """
    b = R.shape[0]
    m = B.shape[0]
    if R.shape != (b, b) or B.shape[1] != b:
        raise ValueError(f"tpqrt shape mismatch: R{R.shape}, B{B.shape}")
    if bottom_triangular:
        add_call("tpqrt_tt")
        add_flops(tpqrt_tt_flops(b))
        # Rows at and below b are structurally zero: leave them alone.
        B = B[: min(m, b)]
        m = l = B.shape[0]
    else:
        add_call("tpqrt_ts")
        add_flops(tpqrt_ts_flops(m, b))
        l = 0
    if b == 0 or m == 0:
        return np.zeros((b, b))
    r, v, T, info = dtpqrt(l, b, fortran_work(R), fortran_work(B), overwrite_a=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"dtpqrt: illegal value in argument {-info}")
    iu = np.triu_indices(b)
    R[iu] = r[iu]
    if bottom_triangular:
        iu = np.triu_indices(m, 0, b)
        B[iu] = v[iu]
    else:
        write_back(B, v)
    return np.ascontiguousarray(T)


def tpmqrt_left_t(
    Vb: np.ndarray,
    T: np.ndarray,
    Ctop: np.ndarray,
    Cbot: np.ndarray,
    transpose: bool = True,
) -> None:
    """Apply ``Q^T`` (or ``Q`` with ``transpose=False``) of a :func:`tpqrt`
    factorization to ``[Ctop; Cbot]`` in place.

    With ``V = [I; V_b]``: ``W = T^T (Ctop + V_b^T Cbot)`` (or ``T W``
    for ``Q``), then ``Ctop -= W`` and ``Cbot -= V_b W``.  This is the
    task-S kernel of the TSQR tree levels in Algorithm 2 and PLASMA's
    ``DTSMQR``.
    """
    m, b = Vb.shape
    n = Ctop.shape[1]
    if Ctop.shape != (b, n) or Cbot.shape != (m, n) or T.shape != (b, b):
        raise ValueError(
            f"tpmqrt shape mismatch: Vb{Vb.shape}, T{T.shape}, Ctop{Ctop.shape}, Cbot{Cbot.shape}"
        )
    add_call("tpmqrt")
    add_flops(4 * m * n * b + b * b * n + b * n)
    W = Ctop + Vb.T @ Cbot
    W = (T.T @ W) if transpose else (T @ W)
    Ctop -= W
    Cbot -= Vb @ W


@dataclass
class TstrfOps:
    """Recorded elimination of one :func:`tstrf` call.

    ``swaps[j]`` is the row of the bottom tile swapped with row ``j`` of
    the top tile before step ``j`` (or ``-1`` for no swap); ``L[:, j]``
    is the multiplier column applied at step ``j``, captured at the time
    of the step so replay on right-hand sides is exact.
    """

    swaps: np.ndarray
    L: np.ndarray
    pivot_rows: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def width(self) -> int:
        return len(self.swaps)


def tstrf(U: np.ndarray, A: np.ndarray) -> TstrfOps:
    """Incremental-pivoting LU of ``[U; A]`` with ``U`` upper triangular, in place.

    At step ``j`` the pivot is chosen among ``U[j, j]`` and column ``j``
    of ``A`` (rows of ``U`` below the diagonal are structurally zero in
    column ``j`` and never participate).  If the winner lives in ``A``,
    the full rows are swapped across the two tiles.  On exit the
    *upper triangle* of ``U`` holds the updated factor (below the
    diagonal, rows swapped in from ``A`` carry stale multiplier values,
    so only ``triu(U)`` is meaningful) and ``A`` holds the multiplier
    columns; the returned :class:`TstrfOps` replays the elimination on
    right-hand sides via :func:`ssssm_apply`.
    """
    b = U.shape[0]
    m = A.shape[0]
    if U.shape != (b, b) or A.shape[1] != b:
        raise ValueError(f"tstrf shape mismatch: U{U.shape}, A{A.shape}")
    add_call("tstrf")
    swaps = np.full(b, -1, dtype=np.int64)
    L = np.zeros((m, b))
    for j in range(b):
        add_comparisons(m)
        col = A[:, j]
        i = int(np.argmax(np.abs(col))) if m else 0
        if m and abs(col[i]) > abs(U[j, j]):
            swaps[j] = i
            tmp = U[j].copy()
            U[j] = A[i]
            A[i] = tmp
        piv = U[j, j]
        if piv == 0.0:
            if np.any(A[:, j] != 0.0):
                raise ZeroDivisionError(f"tstrf: zero pivot at step {j}")
            continue
        add_flops(m + 2 * m * (b - j - 1))
        A[:, j] /= piv
        L[:, j] = A[:, j]
        if j + 1 < b:
            A[:, j + 1 :] -= np.outer(A[:, j], U[j, j + 1 :])
    return TstrfOps(swaps=swaps, L=L)


def ssssm_apply(ops: TstrfOps, Ctop: np.ndarray, Cbot: np.ndarray) -> None:
    """Replay a :func:`tstrf` elimination on the tile pair ``[Ctop; Cbot]``.

    PLASMA's ``DSSSSM``: interleaved row swaps (across the two tiles)
    and rank-1 Schur updates.  In place.
    """
    b = ops.width
    m, n = Cbot.shape
    if Ctop.shape[0] != b or Ctop.shape[1] != n:
        raise ValueError(f"ssssm shape mismatch: ops width {b}, Ctop{Ctop.shape}, Cbot{Cbot.shape}")
    add_call("ssssm")
    add_flops(2 * m * n * b)
    for j in range(b):
        i = int(ops.swaps[j])
        if i >= 0:
            tmp = Ctop[j].copy()
            Ctop[j] = Cbot[i]
            Cbot[i] = tmp
        Cbot -= np.outer(ops.L[:, j], Ctop[j])
