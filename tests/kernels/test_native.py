"""The LAPACK-backed kernels against their NumPy oracle, LAPACK-style
error bounds, and the storage contract every task body relies on.

``rgetf2``, ``getf2_nopiv``, ``trsm_runn``, ``trsm_llnu``, ``geqr3`` and
``tpqrt`` call ``dgetrf``/``dtrsm``/``dgeqrt``/``dtpqrt``.  They must pick
the pivots the NumPy bodies in :mod:`tests.kernels.oracle` pick, produce
factors ``allclose`` to theirs, report the closed-form flop counts, and
leave bitwise-identical results in the caller's view whatever its
storage: a contiguous array, a strided window, a Fortran-ordered array,
shared memory or a memory map.
"""

import numpy as np
import pytest

from repro.analysis import flops as F
from repro.analysis.errors import (
    growth_factor,
    lu_backward_error,
    orthogonality_error,
    qr_backward_error,
)
from repro.counters import counting
from repro.kernels.blas import trsm_llnu, trsm_runn
from repro.kernels.lu import getf2, getf2_nopiv, piv_to_perm, rgetf2
from repro.kernels.qr import apply_wy_q, extract_r, geqr3
from repro.kernels.structured import tpqrt
from repro.runtime.shm import SharedArena
from repro.runtime.tilestore import MmapTileStore
from tests.conftest import make_rng
from tests.kernels import oracle

EPS = np.finfo(np.float64).eps


def _lu_factors(lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = lu.shape[1]
    L = np.tril(lu, -1)
    np.fill_diagonal(L, 1.0)
    return L, np.triu(lu[:n])


def _dominant(rng, m: int, n: int) -> np.ndarray:
    """Random ``m x n`` matrix that LU factors stably without pivoting."""
    A = rng.standard_normal((m, n))
    A[: min(m, n), : min(m, n)] += 2.0 * max(m, n) * np.eye(min(m, n))
    return A


def _upper_with_garbage(rng, m: int, b: int) -> np.ndarray:
    """Upper-trapezoidal ``m x b`` tile whose strict lower part holds
    unrelated data (another task's Householder vectors, in CAQR)."""
    return np.triu(rng.standard_normal((m, b))) + np.tril(rng.standard_normal((m, b)) * 1e3, -1)


# ---------------------------------------------------------------------------
# Differential tests against the NumPy oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 1), (7, 1), (40, 17), (100, 64), (200, 100)])
def test_rgetf2_matches_oracle(m, n):
    A0 = make_rng(m + 3 * n).standard_normal((m, n))
    A, R = A0.copy(), A0.copy()
    piv = rgetf2(A)
    np.testing.assert_array_equal(piv, oracle.rgetf2(R))
    np.testing.assert_allclose(A, R, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("m,n", [(1, 1), (5, 1), (1, 5), (12, 12), (100, 100), (150, 40), (40, 150)])
def test_getf2_nopiv_matches_oracle(m, n):
    A0 = _dominant(make_rng(m * 7 + n), m, n)
    A, R = A0.copy(), A0.copy()
    getf2_nopiv(A)
    oracle.getf2_nopiv(R)
    np.testing.assert_allclose(A, R, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("m,k", [(1, 1), (9, 1), (1, 6), (300, 40)])
def test_trsm_runn_matches_oracle(m, k):
    rng = make_rng(m + k)
    U = np.triu(rng.standard_normal((k, k))) + k * np.eye(k) + np.tril(rng.standard_normal((k, k)), -1)
    B0 = rng.standard_normal((m, k))
    B, R = B0.copy(), B0.copy()
    trsm_runn(U, B)
    oracle.trsm_runn(U, R)
    np.testing.assert_allclose(B, R, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 9), (6, 1), (40, 300)])
def test_trsm_llnu_matches_oracle(k, n):
    rng = make_rng(k * 5 + n)
    L = np.tril(rng.standard_normal((k, k)), -1) / k + np.triu(rng.standard_normal((k, k)))
    B0 = rng.standard_normal((k, n))
    B, R = B0.copy(), B0.copy()
    trsm_llnu(L, B)
    oracle.trsm_llnu(L, R)
    np.testing.assert_allclose(B, R, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("m,n", [(1, 1), (9, 1), (40, 17), (300, 40)])
def test_geqr3_matches_oracle(m, n):
    A0 = make_rng(m * 11 + n).standard_normal((m, n))
    A, R = A0.copy(), A0.copy()
    T = geqr3(A)
    np.testing.assert_allclose(T, oracle.geqr3(R), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(A, R, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "b,m,triangular",
    [(1, 1, True), (5, 5, True), (40, 40, True), (10, 6, True), (6, 10, True),
     (1, 1, False), (5, 20, False), (40, 300, False)],
)
def test_tpqrt_matches_oracle(b, m, triangular):
    rng = make_rng(b * 13 + m + triangular)
    R0 = _upper_with_garbage(rng, b, b)
    B0 = _upper_with_garbage(rng, m, b) if triangular else rng.standard_normal((m, b))
    R, B, Ro, Bo = R0.copy(), B0.copy(), R0.copy(), B0.copy()
    T = tpqrt(R, B, bottom_triangular=triangular)
    np.testing.assert_allclose(T, oracle.tpqrt(Ro, Bo, bottom_triangular=triangular), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(R, Ro, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(B, Bo, rtol=1e-10, atol=1e-12)
    # Storage below the triangles belongs to other tasks: never written.
    np.testing.assert_array_equal(np.tril(R, -1), np.tril(R0, -1))
    if triangular:
        np.testing.assert_array_equal(np.tril(B, -1), np.tril(B0, -1))


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


def test_rgetf2_zero_column_does_not_raise():
    """``dgetrf`` reports an exactly zero pivot column with ``info > 0``;
    like ``getf2`` the kernel leaves it in place and carries on."""
    A0 = make_rng(21).standard_normal((60, 12))
    A0[:, 4] = 0.0
    A, G = A0.copy(), A0.copy()
    piv = rgetf2(A)
    np.testing.assert_array_equal(piv, getf2(G))
    np.testing.assert_allclose(A, G, rtol=1e-12, atol=1e-14)
    assert np.isfinite(A).all()


def test_rgetf2_zero_matrix():
    A = np.zeros((8, 3))
    np.testing.assert_array_equal(rgetf2(A), [0, 1, 2])
    np.testing.assert_array_equal(A, 0.0)


def test_rgetf2_rejects_wide_before_touching_data():
    A = make_rng(22).standard_normal((3, 5))
    A0 = A.copy()
    with pytest.raises(ValueError, match="m >= n"):
        rgetf2(A)
    np.testing.assert_array_equal(A, A0)


def test_getf2_nopiv_zero_pivot_names_its_column():
    A = _dominant(make_rng(23), 10, 10)
    A[6, :] = A[5, :]  # rows 5 and 6 equal: the pivot of column 6 cancels to 0
    A[:, 6] = A[:, 5]
    with pytest.raises(ZeroDivisionError, match="zero pivot at 6"):
        getf2_nopiv(A)


# ---------------------------------------------------------------------------
# LAPACK backward error and growth at the benchmark's block shapes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,n", [(6250, 100), (200, 100), (1000, 100)])
def test_rgetf2_backward_error_and_growth(m, n):
    A0 = make_rng(m).standard_normal((m, n))
    A, R = A0.copy(), A0.copy()
    piv = rgetf2(A)
    np.testing.assert_array_equal(piv, oracle.rgetf2(R))
    L, U = _lu_factors(A)
    assert lu_backward_error(A0, piv_to_perm(piv, m), L, U) < n * EPS
    assert np.abs(L).max() <= 1.0
    assert growth_factor(A0, U) == pytest.approx(growth_factor(A0, _lu_factors(R)[1]), rel=1e-12)


@pytest.mark.parametrize("m,n", [(6250, 100), (200, 100), (1000, 100)])
def test_geqr3_backward_error(m, n):
    A0 = make_rng(m + 1).standard_normal((m, n))
    A = A0.copy()
    T = geqr3(A)
    Q = apply_wy_q(A, T, np.eye(m, n))
    assert qr_backward_error(A0, Q, extract_r(A)) < n * EPS
    assert orthogonality_error(Q) < n * EPS


def test_tpqrt_backward_error_rr():
    """The ``[R; R]`` TSQR tree node at ``b = 100``."""
    b = 100
    rng = make_rng(24)
    R1, R2 = np.triu(rng.standard_normal((b, b))), np.triu(rng.standard_normal((b, b)))
    S0 = np.vstack([R1, R2])
    T = tpqrt(R1, R2, bottom_triangular=True)
    V = np.vstack([np.eye(b), np.triu(R2)])
    Q = np.eye(2 * b, b) - V @ (T @ V[:b].T)
    assert qr_backward_error(S0, Q, np.triu(R1)) < b * EPS
    assert orthogonality_error(Q) < b * EPS


def test_trsm_runn_residual_at_leaf_shape():
    m, k = 6250, 100
    rng = make_rng(25)
    U = np.triu(rng.standard_normal((k, k))) + k * np.eye(k)
    B0 = rng.standard_normal((m, k))
    X, R = B0.copy(), B0.copy()
    trsm_runn(U, X)
    oracle.trsm_runn(U, R)
    np.testing.assert_allclose(X, R, rtol=1e-12, atol=1e-15)
    res = np.linalg.norm(X @ U - B0) / (np.linalg.norm(U) * np.linalg.norm(X))
    assert res < k * EPS


# ---------------------------------------------------------------------------
# Closed-form flop counts
# ---------------------------------------------------------------------------


def test_native_kernels_report_closed_form_flops():
    rng = make_rng(26)
    m, n, b = 90, 20, 16
    cases = [
        (lambda: rgetf2(rng.standard_normal((m, n))), F.lu_panel_flops(m, n)),
        (lambda: getf2_nopiv(_dominant(rng, m, n)), F.lu_panel_flops(m, n)),
        (lambda: trsm_runn(np.eye(n), rng.standard_normal((m, n))), F.trsm_right_flops(m, n)),
        (lambda: trsm_llnu(np.eye(n), rng.standard_normal((n, m))), F.trsm_left_flops(n, m)),
        (lambda: geqr3(rng.standard_normal((m, n))), F.qr_panel_flops(m, n)),
        (lambda: tpqrt(np.triu(rng.standard_normal((b, b))), np.triu(rng.standard_normal((b, b))), True),
         F.tpqrt_tt_flops(b)),
        (lambda: tpqrt(np.triu(rng.standard_normal((b, b))), rng.standard_normal((m, b))), F.tpqrt_ts_flops(m, b)),
    ]
    for run, expected in cases:
        with counting() as c:
            run()
        assert c.flops == int(expected)


# ---------------------------------------------------------------------------
# Storage contract: results land in the caller's view, bit for bit
# ---------------------------------------------------------------------------

SENTINEL = 7.0


def _kernel_cases():
    """name -> (inputs, call); *call* returns the kernel's return value."""
    rng = make_rng(27)
    m, k = 300, 40
    U = np.triu(rng.standard_normal((k, k))) + k * np.eye(k) + np.tril(rng.standard_normal((k, k)), -1)
    L = np.tril(rng.standard_normal((k, k)), -1) / k + np.triu(rng.standard_normal((k, k)))
    return {
        "rgetf2": ((rng.standard_normal((m, k)),), rgetf2),
        "getf2_nopiv": ((_dominant(rng, k, k),), getf2_nopiv),
        "trsm_runn": ((U, rng.standard_normal((m, k))), trsm_runn),
        "trsm_llnu": ((L, rng.standard_normal((k, m))), trsm_llnu),
        "geqr3": ((rng.standard_normal((m, k)),), geqr3),
        "tpqrt_tt": ((_upper_with_garbage(rng, k, k), _upper_with_garbage(rng, k, k)),
                     lambda R, B: tpqrt(R, B, bottom_triangular=True)),
        "tpqrt_ts": ((_upper_with_garbage(rng, k, k), rng.standard_normal((m, k))), tpqrt),
    }


KERNEL_CASES = _kernel_cases()


@pytest.fixture
def storage():
    arena, store = SharedArena(), MmapTileStore()
    yield {"arena": arena.alloc, "mmap": store.alloc}
    arena.destroy()
    store.destroy()


def _place(layout: str, X: np.ndarray, storage) -> tuple[np.ndarray, np.ndarray]:
    """``(base, view)``: *view* holds a copy of *X* in *layout*'s storage.

    The windowed layouts sit inside a larger sentinel-filled base, so a
    kernel writing outside its view shows up as a changed sentinel.
    """
    if layout in ("contiguous", "fortran"):
        view = X.copy(order="C" if layout == "contiguous" else "F")
        return view, view
    m, n = X.shape
    alloc = storage.get(layout, np.empty)
    base = alloc((m + 2, n + 3))
    base[...] = SENTINEL
    view = base[1 : m + 1, 2 : n + 2]
    view[...] = X
    return base, view


@pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran", "arena", "mmap"])
@pytest.mark.parametrize("kernel", sorted(KERNEL_CASES))
def test_results_land_in_the_callers_view_bitwise(kernel, layout, storage):
    inputs, call = KERNEL_CASES[kernel]
    ref_views = [X.copy() for X in inputs]
    ref_out = call(*ref_views)
    placed = [_place(layout, X, storage) for X in inputs]
    out = call(*(view for _, view in placed))
    for (base, view), ref in zip(placed, ref_views):
        assert np.array_equal(view, ref)
        if view is not base:
            border = np.ones(base.shape, dtype=bool)
            border[1:-1, 2:-1] = False
            assert (base[border] == SENTINEL).all()
    if kernel.startswith("trsm"):
        assert out is placed[1][1]  # the solve returns its right-hand side
        return
    if ref_out is None:
        assert out is None
        return
    assert out.dtype == (np.int64 if kernel == "rgetf2" else np.float64)
    assert out.flags.c_contiguous
    assert np.array_equal(out, ref_out)
