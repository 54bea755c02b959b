"""NumPy reference bodies of the kernels that now call LAPACK.

``rgetf2``, ``getf2_nopiv``, ``trsm_llnu``, ``trsm_runn``, ``geqr3`` and
``tpqrt`` in :mod:`repro.kernels` run ``dgetrf``, ``dtrsm``, ``dgeqrt``
and ``dtpqrt``.  The hand-written NumPy versions they replaced live on
here, unchanged apart from calling each other, as a differential
oracle: the native kernels must pick the same pivots and produce
factors ``allclose`` to these.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.counters import add_call, add_flops
from repro.kernels.blas import gemm, ger, laswp
from repro.kernels.lu import _unit_lower, getf2
from repro.kernels.qr import extract_v, geqr2, larfb_left_t, larft

__all__ = ["geqr3", "getf2_nopiv", "rgetf2", "tpqrt", "trsm_llnu", "trsm_runn"]


def getf2_nopiv(A: np.ndarray) -> None:
    """Unblocked LU *without* pivoting, in place.

    Used on a panel whose tournament-selected pivot rows have already
    been swapped to the top: CALU's second TSLU step.
    """
    m, n = A.shape
    add_call("getf2_nopiv")
    for j in range(min(m, n)):
        if A[j, j] == 0.0:
            raise ZeroDivisionError(f"zero pivot at {j} in no-pivoting LU")
        add_flops(m - j - 1)
        A[j + 1 :, j] /= A[j, j]
        if j + 1 < n:
            ger(A[j + 1 :, j + 1 :], A[j + 1 :, j], A[j, j + 1 :])


def rgetf2(A: np.ndarray, threshold: int = 16) -> np.ndarray:
    """Recursive LU with partial pivoting (Toledo), in place. Returns ``piv``.

    Splits the columns in half, factors the left half recursively,
    applies pivots and a triangular solve to the right half, updates,
    and factors the trailing part recursively.  Recursion turns almost
    all the work into ``gemm`` calls, giving BLAS3 cache behaviour
    without an explicit block size — the property the paper exploits to
    make each TSLU leaf task fast.

    Parameters
    ----------
    A : (m, n) array with ``m >= n``.
    threshold : column count below which to fall back to ``getf2``.
    """
    m, n = A.shape
    if m < n:
        raise ValueError(f"rgetf2 requires m >= n, got {A.shape}")
    add_call("rgetf2")
    if n <= threshold:
        return getf2(A)
    n1 = n // 2
    left, right = A[:, :n1], A[:, n1:]
    piv1 = rgetf2(left, threshold)
    laswp(right, piv1)
    trsm_llnu(_unit_lower(left[:n1]), right[:n1])
    gemm(right[n1:], left[n1:], right[:n1])
    piv2 = rgetf2(right[n1:], threshold)
    laswp(left[n1:], piv2)
    return np.concatenate([piv1, piv2 + n1])


def trsm_llnu(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` in place in ``B`` — Left, Lower, No-transpose, Unit diagonal.

    Used for computing a block row of U (``task U``):
    ``U_{K,J} = L_{KK}^{-1} A_{K,J}``.

    Implemented by forward substitution over rows, each step a
    vectorized rank-update of the remaining rows.
    """
    k = L.shape[0]
    if L.shape != (k, k) or B.shape[0] != k:
        raise ValueError(f"trsm_llnu shape mismatch: L{L.shape}, B{B.shape}")
    n = B.shape[1]
    add_call("trsm_llnu")
    add_flops(k * (k - 1) * n)  # k-1 axpy rows of length n, twice per flop pair
    for i in range(1, k):
        # B[i] -= L[i, :i] @ B[:i]  (unit diagonal, no division)
        B[i] -= L[i, :i] @ B[:i]
    return B


def trsm_runn(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``X U = B`` in place in ``B`` — Right, Upper, No-transpose, Non-unit.

    Used for computing a block column of L (``task L``):
    ``L_{I,K} = A_{I,K} U_{KK}^{-1}``.
    """
    k = U.shape[0]
    if U.shape != (k, k) or B.shape[1] != k:
        raise ValueError(f"trsm_runn shape mismatch: U{U.shape}, B{B.shape}")
    m = B.shape[0]
    add_call("trsm_runn")
    add_flops(m * k * k)  # m·k divisions + m·k·(k-1) mul-adds
    for j in range(k):
        if j:
            B[:, j] -= B[:, :j] @ U[:j, j]
        B[:, j] /= U[j, j]
    return B


def geqr3(A: np.ndarray, threshold: int = 8) -> np.ndarray:
    """Recursive QR (Elmroth-Gustavson), in place. Returns the ``n x n`` ``T``.

    Splits the columns in half, factors the left half recursively,
    applies its block reflector to the right half, factors the trailing
    part, and merges the two ``T`` factors:
    ``T_12 = -T_1 (V_1^T V_2) T_2``.  Almost all flops become BLAS3,
    which is why the paper picks it ("the best results are obtained by
    using recursive ... QR [10]").
    """
    m, n = A.shape
    if m < n:
        raise ValueError(f"geqr3 requires m >= n, got {A.shape}")
    add_call("geqr3")
    if n <= threshold:
        tau = geqr2(A)
        return larft(extract_v(A), tau)
    n1 = n // 2
    T1 = geqr3(A[:, :n1], threshold)
    V1 = extract_v(A[:, :n1])
    larfb_left_t(V1, T1, A[:, n1:])
    T2 = geqr3(A[n1:, n1:], threshold)
    V2 = extract_v(A[n1:, n1:])
    n2 = n - n1
    # T12 = -T1 (V1^T V2) T2, using only the rows where V2 is nonzero.
    add_flops(2 * (m - n1) * n1 * n2 + 2 * n1 * n1 * n2 + 2 * n1 * n2 * n2)
    T12 = -T1 @ (V1[n1:].T @ V2) @ T2
    T = np.zeros((n, n))
    T[:n1, :n1] = T1
    T[:n1, n1:] = T12
    T[n1:, n1:] = T2
    return T


def tpqrt(R: np.ndarray, B: np.ndarray, bottom_triangular: bool = False) -> np.ndarray:
    """QR of ``[R; B]`` with ``R`` upper triangular, in place. Returns ``T``.

    On exit ``R`` holds the new ``R`` factor and ``B`` holds the bottom
    parts ``V_b`` of the Householder vectors (the top parts form the
    identity and are implicit).  ``Q = I - [I; V_b] T [I; V_b]^T``.

    Parameters
    ----------
    R : (b, b) upper triangular, overwritten with the merged ``R``.
    B : (m, b); dense (``DTSQRT``) or upper triangular
        (``bottom_triangular=True``, the TSQR tree-node ``DTTQRT``
        case, where column ``j`` of ``B`` only has rows ``0..j``).
    """
    b = R.shape[0]
    m = B.shape[0]
    if R.shape != (b, b) or B.shape[1] != b:
        raise ValueError(f"tpqrt shape mismatch: R{R.shape}, B{B.shape}")
    add_call("tpqrt_tt" if bottom_triangular else "tpqrt_ts")
    tau = np.zeros(b)
    T = np.zeros((b, b))
    for j in range(b):
        nr = min(j + 1, m) if bottom_triangular else m
        alpha = float(R[j, j])
        u = B[:nr, j]
        xnorm = float(np.linalg.norm(u))
        add_flops(2 * nr)
        if xnorm == 0.0:
            T[j, j] = 0.0
            continue
        beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
        tau[j] = (beta - alpha) / beta
        u /= alpha - beta
        R[j, j] = beta
        if j + 1 < b:
            # w = R[j, j+1:] + u^T B[:nr, j+1:]; reflect row j of R and B.
            w = R[j, j + 1 :] + u @ B[:nr, j + 1 :]
            add_flops(4 * nr * (b - j - 1))
            R[j, j + 1 :] -= tau[j] * w
            B[:nr, j + 1 :] -= tau[j] * np.outer(u, w)
        # Accumulate column j of T: T[:j, j] = -tau_j T[:j, :j] (V_b[:, :j]^T v_j)
        if j > 0 and tau[j] != 0.0:
            prev = B[:nr, :j]
            if bottom_triangular:
                # Reflector i has a tail of length i+1; entries of the
                # storage below that (strictly lower triangular) are not
                # part of V_b and may hold unrelated data when operating
                # on in-place views — mask them out.
                prev = np.triu(prev)
            w = prev.T @ u
            add_flops(2 * nr * j + j * j)
            T[:j, j] = -tau[j] * (T[:j, :j] @ w)
        T[j, j] = tau[j]
    return T
