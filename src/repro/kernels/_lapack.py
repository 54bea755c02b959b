"""Layout glue between row-major NumPy views and column-major LAPACK.

scipy's f2py wrappers overwrite an argument in place only when it is a
Fortran-contiguous ``float64`` array; anything else they copy, and hand
the result back in a new array.  The kernels here receive row-major
views — often strided windows of a larger matrix, or views into shared
memory or a memory map — and must leave their results in exactly those
views.  :func:`fortran_work` makes the Fortran-ordered working array
(the argument itself when possible, so no copy is made) and
:func:`write_back` stores the routine's result into the caller's view
when it did not already land there.

Every kernel copies into a fresh Fortran array with the same leading
dimension whatever the caller's strides, so LAPACK sees bitwise the same
input for a contiguous array, a strided view or a shared-memory view,
and the factors cannot depend on where the data lives.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dgeqrt, dgetrf, dtpqrt

__all__ = ["dgeqrt", "dgetrf", "dtpqrt", "dtrsm", "fortran_work", "write_back"]


def fortran_work(X: np.ndarray) -> np.ndarray:
    """``X`` itself if LAPACK can overwrite it in place, else a Fortran-ordered copy."""
    if X.dtype == np.float64 and X.flags.f_contiguous and X.flags.writeable:
        return X
    return np.array(X, dtype=np.float64, order="F")


def write_back(X: np.ndarray, result: np.ndarray) -> None:
    """Store a routine's *result* into the caller's view *X* unless it is already there."""
    if result is not X:
        X[...] = result
