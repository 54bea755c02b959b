"""The benchmark's workloads: seeded inputs, set-up, rounds of operations
and the checks that decide whether each output is correct.

Every workload reports an ``lu`` and a ``qr`` operation.  Its
:meth:`round` returns a fixed, seeded list of operations; the runner
repeats rounds with one closed-loop client (the next operation starts
when the previous one returned and was checked).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg

from repro import FactorizationService, ServiceConfig, ThreadedExecutor, calu, caqr
from repro.analysis.errors import (
    growth_factor,
    lu_backward_error,
    orthogonality_error,
    qr_backward_error,
    residual_norm,
)
from repro.core.autotune import recommend_params
from repro.core.trees import TreeKind
from repro.machine import autotune as machine_autotune

# Tolerances of the output checks.  At the benchmark's shapes the
# observed values are ~1e-15 (backward errors, orthogonality, residuals)
# and 4-30 (growth factor), so a failure means a wrong result, not noise.
BACKWARD_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-12
RESIDUAL_TOL = 1e-12
GROWTH_TOL = 1e3


def check_lu(A, f) -> dict[str, tuple[float, float]]:
    return {
        "lu_backward_error": (lu_backward_error(A, f.perm, f.L, f.U), BACKWARD_TOL),
        "lu_growth_factor": (growth_factor(A, f.U), GROWTH_TOL),
    }


def check_qr(A, f) -> dict[str, tuple[float, float]]:
    Q = f.q_explicit()
    return {
        "qr_backward_error": (qr_backward_error(A, Q, f.R), BACKWARD_TOL),
        "qr_orthogonality": (orthogonality_error(Q), ORTHOGONALITY_TOL),
    }


def check_residual(name, A, rhs, x) -> dict[str, tuple[float, float]]:
    return {name: (residual_norm(A, x, rhs), RESIDUAL_TOL)}


class Verifier:
    """Checks each distinct output of each input in full, once.

    ``calu`` and ``caqr`` are deterministic: one input gives bitwise the
    same factors whatever the schedule.  An output whose digest equals
    one already checked in full for the same input is that output, and
    gets its figures; any other output is checked in full.  This keeps
    the check off most of a run's wall time without skipping any output.
    """

    def __init__(self) -> None:
        self._figures: dict[tuple, dict] = {}
        self.full = 0
        self.by_identity = 0

    def __call__(self, key, arrays, check) -> dict[str, tuple[float, float]]:
        h = hashlib.sha1()
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.shape}{a.dtype.str}".encode())
            h.update(a.data)
        seen = (key, h.hexdigest())
        if seen in self._figures:
            self.by_identity += 1
        else:
            self.full += 1
            self._figures[seen] = check()
        return self._figures[seen]


def _factor_arrays(f) -> list:
    if hasattr(f, "piv"):
        return [f.lu, f.piv]
    # Sorted by name: a store's leaves are keyed in completion order.
    return [f.packed] + [a for store in f.panels for _, a in sorted(store.to_arrays().items())]


@dataclass
class Op:
    kind: str  # "lu" or "qr": which end-to-end timing it feeds
    span: str  # "<layer>.<call>" of the call it makes into repro
    call: Callable[[], object]
    check: Callable[[object], dict[str, tuple[float, float]]]


@dataclass(frozen=True)
class GraphParams:
    """One factorization as the task graph sees it."""

    kind: str  # "lu" (calu graph) or "qr" (caqr graph)
    m: int
    n: int
    b: int
    tr: int
    tree: TreeKind


def factor(g: GraphParams, A, executor, guards: bool = True):
    """``calu`` or ``caqr`` as *g* describes; the result carries its trace."""
    fn = calu if g.kind == "lu" else caqr
    return fn(A, b=g.b, tr=g.tr, tree=g.tree, executor=executor, guards=guards)


class Direct:
    """``calu`` (binary tree) and ``caqr`` (flat tree) on one shape,
    run on a ``ThreadedExecutor(workers)`` made once in set-up."""

    backend = "threaded"
    last_miss = False
    MIN_ROUNDS = 11  # one lu and one qr per round; a tail needs 11 samples

    def __init__(self, shape, b: int, tr: int, workers: int, seed: int, ooc: bool = False) -> None:
        rng = np.random.default_rng(seed)
        self.inputs = [rng.standard_normal(shape) for _ in range(2)]
        self._pick = rng
        self.workers = workers
        self.graphs = {
            "lu": GraphParams("lu", *shape, b, tr, TreeKind.BINARY),
            "qr": GraphParams("qr", *shape, b, tr, TreeKind.FLAT),
        }
        self.ooc = ooc  # the traced run also measures the out-of-core tile plane
        self.executor = None
        self.verifier = Verifier()

    def setup(self) -> None:
        self.executor = ThreadedExecutor(self.workers)
        for g in self.graphs.values():
            factor(g, self.inputs[0], self.executor)

    def close(self) -> None:
        self.executor = None

    def probe_inputs(self):
        return {"lu": self.inputs[0], "qr": self.inputs[0]}

    def ref(self, kind: str, A):
        if kind == "lu":
            return scipy.linalg.lu_factor(A)
        return scipy.linalg.qr(A, mode="raw")

    def _check(self, kind: str, j: int, f) -> dict[str, tuple[float, float]]:
        A = self.inputs[j]
        check = check_lu if kind == "lu" else check_qr
        return self.verifier((kind, j), _factor_arrays(f), partial(check, A, f))

    def round(self, i: int) -> list[Op]:
        ops = []
        for kind, span in (("lu", "core.calu"), ("qr", "core.caqr")):
            j = int(self._pick.integers(len(self.inputs)))
            call = partial(factor, self.graphs[kind], self.inputs[j], self.executor)
            ops.append(Op(kind, span, call, partial(self._check, kind, j)))
        return ops


class ServiceMix:
    """A ``FactorizationService`` on the process backend with one client.

    Each round is ``ROUND`` requests in seeded order, half ``solve`` on
    ``LU_N``² and half ``lstsq`` on ``QR_SHAPE`` (plan-cache hits).  In
    each of the first ``MISS_ROUNDS`` rounds one request has a shape the
    service has not seen (a plan miss), alternating between the two
    kinds.  A fixed number of misses per run keeps them out of the tail
    percentile, and keeps the workers' resident memory, which grows
    with every plan they have run, comparable between runs.
    """

    backend = "process"
    ooc = False
    LU_N = 384
    QR_SHAPE = (16384, 64)
    ROUND = 40
    MIN_ROUNDS = 1
    MISS_ROUNDS = 6  # with the two hot plans, fills the default plan cache of 8

    def __init__(self, workers: int, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.workers = workers
        self.lu_inputs = [self._square(self.LU_N) for _ in range(2)]
        self.qr_inputs = [self._tall(self.QR_SHAPE[0]) for _ in range(2)]
        self.graphs = {}
        for kind, (m, n) in (("lu", (self.LU_N, self.LU_N)), ("qr", self.QR_SHAPE)):
            p = recommend_params(m, n, cores=workers, kind=kind)
            self.graphs[kind] = GraphParams(kind, m, n, p.b, p.tr, p.tree)
        self._misses = 0
        self.last_miss = False
        self.svc = None

    def _square(self, n):
        A = self._rng.standard_normal((n, n))
        return A, self._rng.standard_normal(n)

    def _tall(self, m):
        A = self._rng.standard_normal((m, self.QR_SHAPE[1]))
        return A, A @ self._rng.standard_normal(self.QR_SHAPE[1])  # consistent: residual ~ eps

    def setup(self) -> None:
        # Cold machine model: the service's fusion autotuner calibrates
        # the worker pipe again, as a fresh process would.
        machine_autotune.clear_cache()
        self.svc = FactorizationService(ServiceConfig(cores=self.workers, backend="process"))
        self._request(self.svc.solve, *self.lu_inputs[0])
        self._request(self.svc.lstsq, *self.qr_inputs[0])

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    def _request(self, method, A, rhs):
        before = self.svc.plan_builds
        x = method(A, rhs)
        self.last_miss = self.svc.plan_builds > before
        return x

    def probe_inputs(self):
        return {"lu": self.lu_inputs[0][0], "qr": self.qr_inputs[0][0]}

    def ref(self, kind: str, A):
        rhs = np.ones(A.shape[0])
        if kind == "lu":
            return scipy.linalg.solve(A, rhs)
        return scipy.linalg.lstsq(A, rhs)

    def _op(self, kind, A, rhs) -> Op:
        if kind == "lu":
            return Op("lu", "service.solve", partial(self._request, self.svc.solve, A, rhs),
                      partial(check_residual, "solve_residual", A, rhs))
        return Op("qr", "service.lstsq", partial(self._request, self.svc.lstsq, A, rhs),
                  partial(check_residual, "lstsq_residual", A, rhs))

    def round(self, i: int) -> list[Op]:
        kinds = np.array(["lu", "qr"] * (self.ROUND // 2))
        self._rng.shuffle(kinds)
        miss_kind = "lu" if i % 2 == 0 else "qr"
        miss_at = self._rng.choice(np.flatnonzero(kinds == miss_kind)) if i < self.MISS_ROUNDS else -1
        ops = []
        for j, kind in enumerate(kinds):
            if j == miss_at:
                # Fresh shapes never repeat within a run: a distinct
                # (op, shape) plan-cache key per miss.
                k = self._misses
                self._misses += 1
                A, rhs = self._square(320 + k) if kind == "lu" else self._tall(self.QR_SHAPE[0] - 64 * (k + 1))
            else:
                pool = self.lu_inputs if kind == "lu" else self.qr_inputs
                A, rhs = pool[self._rng.integers(len(pool))]
            ops.append(self._op(str(kind), A, rhs))
        return ops


WORKLOADS = {
    "tall_panel": lambda workers, seed: Direct((50000, 100), 100, 8, workers, seed, ooc=True),
    "square_update": lambda workers, seed: Direct((1000, 1000), 100, 4, workers, seed),
    "service_mix": ServiceMix,
}


@dataclass
class Tally:
    """What a sequence of operations produced."""

    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.samples: dict[str, list[float]] = {"lu": [], "qr": []}
        self.misses: dict[str, list[bool]] = {"lu": [], "qr": []}
        self.worst: dict[str, float] = {}
        self.errors: list[str] = []

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        for k in ("lu", "qr"):
            self.samples[k] += other.samples[k]
            self.misses[k] += other.misses[k]
        for name, value in other.worst.items():
            self.worst[name] = max(self.worst.get(name, 0.0), value)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def run_ops(wl, ops: list[Op], tracer, tally: Tally) -> None:
    """Run *ops* in order, timing each call and checking its output
    outside the timed region.  A raised error or a failed check counts
    against ``ok_frac``; only calls that returned are timed samples."""
    for op in ops:
        tally.attempted += 1
        with tracer.span("bench.op", tracer.new_rid()):
            t0 = time.perf_counter()
            try:
                with tracer.span(op.span):
                    out = op.call()
            except Exception as exc:  # noqa: BLE001 - the run goes on; the op counts as failed
                tally.fail(f"{op.span}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            tally.samples[op.kind].append(dt)
            tally.misses[op.kind].append(wl.last_miss)
            with tracer.span("analysis.check"):
                figures = op.check(out)
        bad = []
        for name, (value, tol) in figures.items():
            tally.worst[name] = max(tally.worst.get(name, 0.0), value)
            if not value <= tol:  # NaN fails too
                bad.append(f"{name}={value:.3g} > {tol:g}")
        if bad:
            tally.fail(f"{op.span}: " + ", ".join(bad))
