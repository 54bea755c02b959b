"""Per-layer metrics of the traced run.

Each probe calls one layer's public functions at the workload's shapes
and times those calls from outside; nothing inside ``repro`` is
instrumented.  Timings are medians over ``REPS`` calls.  Where a
workload does not exercise a layer, its metrics read 0 and the run
notes why.  "Pair" means one ``lu`` plus one ``qr`` operation.
"""

from __future__ import annotations

import shutil
import time
from collections import Counter
from functools import partial

import numpy as np
import scipy.linalg.blas as sblas
import scipy.linalg.lapack as slapack

from repro import ProcessExecutor, ThreadedExecutor, lstsq, solve, tslu, tsqr
from repro.analysis.communication import factorization_messages_ca
from repro.analysis.io_model import predicted_panel_io
from repro.core.calu import build_calu_graph
from repro.core.caqr import build_caqr_graph
from repro.core.layout import BlockLayout
from repro.counters import counting
from repro.kernels.blas import gemm, trsm_runn
from repro.kernels.lu import rgetf2
from repro.kernels.qr import extract_v, geqr3, larfb_left_t
from repro.kernels.structured import tpmqrt_left_t, tpqrt
from repro.machine.autotune import autotune, calibrate_pipe, clear_cache
from repro.runtime.shm import SharedArena
from spans import median
from workloads import factor

REPS = 5
PAIR_REPS = 3
MIB = float(1 << 20)
# Out-of-core panel of the tile-store probe: 200000 x 64 doubles
# (98 MiB) streamed under a 16 MiB fast-memory budget.
OOC_SHAPE = (200_000, 64)
OOC_BUDGET = 16 << 20
_FACTOR_NAME = {"lu": "calu", "qr": "caqr"}
SELF_TIME_LAYERS = ("bench", "analysis", "core", "kernels", "linalg", "machine", "ref", "runtime", "service")


class Probe:
    """Collects metrics for one traced run."""

    def __init__(self, wl, tracer, rng, scratch) -> None:
        self.wl = wl
        self.tracer = tracer
        self.rng = rng
        self.scratch = scratch
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self._pools: dict = {}

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def zero(self, names_units, why: str) -> None:
        for name, unit in names_units:
            self.put(name, 0.0, unit)
        self.notes.append(f"{', '.join(n for n, _ in names_units)}: 0, {why}")

    def timed(self, span: str, fn, setup=None, reps: int = REPS) -> float:
        """Median seconds of ``fn(*setup())``; *setup* runs untimed."""
        times = []
        for _ in range(reps):
            args = setup() if setup is not None else ()
            with self.tracer.span(span):
                t0 = time.perf_counter()
                fn(*args)
                times.append(time.perf_counter() - t0)
        return median(times)

    # ------------------------------------------------------------------
    def kernels(self, lu_s: float, qr_s: float) -> None:
        """Repro kernels against LAPACK/BLAS at the graphs' modal task shapes."""
        graphs = {kind: _graph(p) for kind, p in self.wl.graphs.items()}
        shapes = {kind: _modal_shapes(g) for kind, g in graphs.items()}
        rand = self.rng.standard_normal

        def pair(metric, ours, lapack):
            ours_s = sum(self.timed(f"kernels.{name}", fn, setup) for name, fn, setup in ours)
            ref_s = sum(self.timed(f"ref.{name}", fn, setup) for name, fn, setup in lapack)
            self.put(f"kernels.{metric}_s", ours_s, "s")
            self.put(f"kernels.{metric}_vs_lapack", ours_s / ref_s, "ratio")

        m, n, _ = shapes["lu"]["rgetf2"]
        A = rand((m, n))
        pair("leaf_lu", [("rgetf2", rgetf2, lambda: (A.copy(),))],
             [("dgetrf", lambda X: slapack.dgetrf(X, overwrite_a=1), lambda: (A.copy(),))])

        m, n, _ = shapes["qr"]["geqr3"]
        A = rand((m, n))
        pair("leaf_qr", [("geqr3", geqr3, lambda: (A.copy(),))],
             [("dgeqrf", lambda X: slapack.dgeqrf(X, overwrite_a=1), lambda: (A.copy(),))])

        b = self.wl.graphs["qr"].b
        R, Rb = np.triu(rand((b, b))), np.triu(rand((b, b)))
        pair("merge_qr",
             [("tpqrt", lambda X, Y: tpqrt(X, Y, bottom_triangular=True), lambda: (R.copy(), Rb.copy()))],
             [("dtpqrt", lambda X, Y: slapack.dtpqrt(b, b, X, Y, overwrite_a=1, overwrite_b=1),
               lambda: (R.copy(), Rb.copy()))])

        m, _, k = shapes["lu"]["trsm_runn"]
        U = np.triu(rand((k, k))) + k * np.eye(k)
        B = rand((m, k))
        pair("trsm", [("trsm_runn", trsm_runn, lambda: (U, B.copy()))],
             [("dtrsm", lambda X, Y: sblas.dtrsm(1.0, X, Y, side=1, overwrite_b=1), lambda: (U, B.copy()))])

        if "gemm" in shapes["lu"]:
            m, n, k = shapes["lu"]["gemm"]
            A, B, C = rand((m, k)), rand((k, n)), rand((m, n))
            pair("update_lu", [("gemm", gemm, lambda: (C.copy(), A, B))],
                 [("dgemm", lambda Z, X, Y: sblas.dgemm(-1.0, X, Y, 1.0, Z, overwrite_c=1),
                   lambda: (C.copy(), A, B))])
        else:
            self.zero([("kernels.update_lu_s", "s"), ("kernels.update_lu_vs_lapack", "ratio")],
                      "the LU graph has no trailing update")

        ours, lapack = [], []
        if "larfb" in shapes["qr"]:
            m, n, k = shapes["qr"]["larfb"]
            P = rand((m, k))
            T = geqr3(P)
            V, Cl = extract_v(P), rand((m, n))
            Vl, Tl = slapack.dgeqrt(k, rand((m, k)))[:2]
            ours.append(("larfb_left_t", larfb_left_t, lambda: (V, T, Cl.copy())))
            lapack.append(("dgemqrt", lambda X, Y, Z: slapack.dgemqrt(X, Y, Z, side="L", trans="T", overwrite_c=1),
                           lambda: (Vl, Tl, Cl.copy())))
        if "tpmqrt" in shapes["qr"]:
            m, n, k = shapes["qr"]["tpmqrt"]
            Vb = rand((m, k))  # dense bottom block: both kernels do the dense update
            Tb = tpqrt(np.triu(rand((k, k))), Vb)
            Ct, Cb = rand((k, n)), rand((m, n))
            _, Vbl, Tbl, _ = slapack.dtpqrt(0, k, np.triu(rand((k, k))), rand((m, k)))
            ours.append(("tpmqrt_left_t", tpmqrt_left_t, lambda: (Vb, Tb, Ct.copy(), Cb.copy())))
            lapack.append(("dtpmqrt", lambda V_, T_, X, Y: slapack.dtpmqrt(
                0, V_, T_, X, Y, side="L", trans="T", overwrite_a=1, overwrite_b=1),
                lambda: (Vbl, Tbl, Ct.copy(), Cb.copy())))
        if ours:
            pair("update_qr", ours, lapack)
        else:
            self.zero([("kernels.update_qr_s", "s"), ("kernels.update_qr_vs_lapack", "ratio")],
                      "the QR graph has no trailing update")

        inputs = self.wl.probe_inputs()
        with counting() as c:
            for kind in ("lu", "qr"):
                with self.tracer.span(f"core.{_FACTOR_NAME[kind]}"):
                    factor(self.wl.graphs[kind], inputs[kind], self._executor())
        self.put("kernels.flops", c.flops, "count")
        self.put("kernels.gflops", c.flops / (lu_s + qr_s) / 1e9, "GFLOP/s")

    # ------------------------------------------------------------------
    def core(self) -> None:
        """Symbolic graph build (no execution) and the graphs' exact counts."""
        times, tasks, edges, words, syncs = [], 0, 0, 0.0, 0
        for _ in range(REPS):
            t = 0.0
            for kind, p in self.wl.graphs.items():
                with self.tracer.span(f"core.build_{_FACTOR_NAME[kind]}_graph"):
                    t0 = time.perf_counter()
                    g = _graph(p)
                    t += time.perf_counter() - t0
            times.append(t)
        for p in self.wl.graphs.values():
            g = _graph(p)
            tasks += len(g.tasks)
            edges += sum(len(d) for d in g.preds)
            words += g.total_words()
            syncs += factorization_messages_ca(p.n, p.b, p.tr, p.tree)
        self.put("core.build_s", median(times), "s")
        self.put("core.tasks", tasks, "count")
        self.put("core.edges", edges, "count")
        self.put("core.syncs", syncs, "count")
        self.put("core.words", words, "count")

    # ------------------------------------------------------------------
    def _executor(self, workers=None):
        """An executor of the workload's backend; process pools are kept
        for the whole probe and closed by :meth:`close`."""
        workers = workers or self.wl.workers
        if self.wl.backend != "process":
            return ThreadedExecutor(workers)
        if workers not in self._pools:
            self._pools[workers] = ProcessExecutor(workers)
        return self._pools[workers]

    def runtime_and_guards(self) -> None:
        """Schedule figures from the returned traces, a single-worker
        baseline and the cost of the numerical health guards."""
        inputs = self.wl.probe_inputs()

        def run_pair(executor, guards=True):
            out, t0 = {}, time.perf_counter()
            for kind in ("lu", "qr"):
                with self.tracer.span(f"core.{_FACTOR_NAME[kind]}"):
                    out[kind] = factor(self.wl.graphs[kind], inputs[kind], executor, guards)
            return out, time.perf_counter() - t0

        rows, walls_off, walls_1w = [], [], []
        for _ in range(PAIR_REPS):
            with counting() as c:
                out, wall = run_pair(self._executor())
            traces = [f.trace for f in out.values()]
            makespan = sum(t.makespan for t in traces)
            busy = sum(t.busy_time() for t in traces)
            row = {
                "wall": wall,
                "makespan_s": makespan,
                "busy_s": busy,
                "idle_frac": 1.0 - busy / sum(t.makespan * t.n_cores for t in traces),
                "outside_s": wall - makespan,
                "emit_s": sum(t.stats.get("emit_seconds", 0.0) for t in traces),
                "peak_live_tasks": max(t.stats.get("peak_live_tasks", 0) for t in traces),
                "roundtrips": c.roundtrips,
                "events": sum(ev.kind != "autotune" for t in traces for ev in t.events),
            }
            for k in "PLUS":
                row[f"busy.{k}"] = sum(t.busy_by_kind().get(k, 0.0) for t in traces)
            rows.append(row)
            walls_off.append(run_pair(self._executor(), guards=False)[1])
            walls_1w.append(run_pair(self._executor(1))[1])

        units = {"idle_frac": "ratio", "peak_live_tasks": "count", "roundtrips": "count"}
        for key in rows[0]:
            if key not in ("wall", "events"):
                self.put(f"runtime.{key}", median([r[key] for r in rows]), units.get(key, "s"))
        wall_on = median([r["wall"] for r in rows])
        self.put("runtime.speedup_1w", median(walls_1w) / wall_on, "ratio")
        self.put("resilience.guard_s", wall_on - median(walls_off), "s")
        self.put("resilience.events", sum(r["events"] for r in rows), "count")
        if self.wl.backend == "process":
            def stage(X):
                arena = SharedArena()
                try:
                    np.array(arena.place(X))
                finally:
                    arena.destroy()
            stage_s = sum(self.timed("runtime.SharedArena.place", stage, partial(tuple, [inputs[k]]))
                          for k in ("lu", "qr"))
            self.put("runtime.stage_s", stage_s, "s")
        else:
            self.zero([("runtime.stage_s", "s")], "the threaded backend stages nothing")

    # ------------------------------------------------------------------
    def service(self, samples, misses) -> None:
        """Plan-cache hit/miss latency, the service's own overhead over the
        library call on an equal-size pool, and its failure counters."""
        names = [("service.hit_s.p50", "s"), ("service.miss_s.p50", "s"), ("service.hit_frac", "ratio"),
                 ("service.overhead_s", "s"), ("service.shed", "count"), ("service.retries", "count"),
                 ("service.respawns", "count")]
        svc = getattr(self.wl, "svc", None)
        if svc is None:
            self.zero(names, "no service in this workload")
            return
        hit = [s for k in samples for s, miss in zip(samples[k], misses[k], strict=True) if not miss]
        miss = [s for k in samples for s, miss in zip(samples[k], misses[k], strict=True) if miss]
        self.put("service.hit_s.p50", median(hit), "s")
        self.put("service.miss_s.p50", median(miss) if miss else 0.0, "s")
        self.put("service.hit_frac", len(hit) / (len(hit) + len(miss)), "ratio")
        (A, r), (B, rb) = self.wl.lu_inputs[0], self.wl.qr_inputs[0]
        g_lu, g_qr = self.wl.graphs["lu"], self.wl.graphs["qr"]
        ex = self._executor()
        via_svc, via_lib, retries = [], [], 0
        for _ in range(PAIR_REPS):
            t0 = time.perf_counter()
            with self.tracer.span("service.solve"):
                svc.solve(A, r)
            with self.tracer.span("service.lstsq"):
                svc.lstsq(B, rb)
            via_svc.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            with self.tracer.span("linalg.solve"):
                solve(A, r, b=g_lu.b, tr=g_lu.tr, tree=g_lu.tree, executor=ex)
            with self.tracer.span("linalg.lstsq"):
                lstsq(B, rb, b=g_qr.b, tr=g_qr.tr, tree=g_qr.tree, executor=ex)
            via_lib.append(time.perf_counter() - t0)
            with self.tracer.span("service.factor"):
                retries += svc.factor(A).trace.retries()
        self.put("service.overhead_s", median(via_svc) - median(via_lib), "s")
        stats = svc.stats()
        self.put("service.shed", stats["admission"]["shed"], "count")
        self.put("service.retries", retries, "count")
        self.put("service.respawns", stats.get("pool", {}).get("respawns", 0), "count")

    # ------------------------------------------------------------------
    def tilestore(self) -> None:
        """Store traffic of out-of-core ``tslu`` + ``tsqr`` against the
        I/O model's flat-tree prediction."""
        names = [("tilestore.read_mib", "MiB"), ("tilestore.write_mib", "MiB"), ("tilestore.io_ratio", "ratio")]
        if not self.wl.ooc:
            self.zero(names, "measured on tall_panel only")
            return
        A = self.rng.standard_normal(OOC_SHAPE)
        spill = self.scratch / "spill"
        spill.mkdir(parents=True, exist_ok=True)
        try:
            with counting() as c:
                with self.tracer.span("core.tslu_ooc"):
                    tslu(A, memory_budget=OOC_BUDGET, store="mmap", spill_dir=spill)
                with self.tracer.span("core.tsqr_ooc"):
                    tsqr(A, memory_budget=OOC_BUDGET, store="mmap", spill_dir=spill).destroy()
        finally:
            shutil.rmtree(spill, ignore_errors=True)
        predicted = 2 * predicted_panel_io("ca_flat", *OOC_SHAPE, OOC_BUDGET // 8)
        self.put("tilestore.read_mib", c.store_read_bytes / MIB, "MiB")
        self.put("tilestore.write_mib", c.store_write_bytes / MIB, "MiB")
        self.put("tilestore.io_ratio", (c.store_read_bytes + c.store_write_bytes) / 8 / predicted, "ratio")

    # ------------------------------------------------------------------
    def machine(self) -> None:
        """A cold pipe calibration plus the autotuner's decisions for the
        workload's two graphs.  Clears the autotuner's memo, so it runs
        after every probe that goes through the service."""
        persistent = self.wl.backend == "process"
        clear_cache()
        with self.tracer.span("machine.autotune"):
            t0 = time.perf_counter()
            calibrate_pipe(refresh=True)
            for kind, p in self.wl.graphs.items():
                autotune(kind, p.m, p.n, b=p.b, tr=p.tr, tree=p.tree, persistent_pool=persistent)
            self.put("machine.autotune_s", time.perf_counter() - t0, "s")

    def ref(self, lu_s: float, qr_s: float) -> None:
        """scipy on the same inputs: the paper's headline comparison."""
        inputs = self.wl.probe_inputs()
        for kind, ours in (("lu", lu_s), ("qr", qr_s)):
            ref_s = self.timed(f"ref.scipy_{kind}", self.wl.ref, lambda k=kind: (k, inputs[k]))
            self.put(f"ref.scipy_{kind}_s", ref_s, "s")
            self.put(f"ref.{kind}_vs_scipy", ours / ref_s, "ratio")

    def self_times(self) -> None:
        own = self.tracer.self_times()
        for layer in SELF_TIME_LAYERS:
            self.put(f"selftime.{layer}_s", own.get(layer, 0.0), "s")

    def close(self) -> None:
        for ex in self._pools.values():
            ex.close()
        self._pools.clear()


def _graph(p):
    build = build_calu_graph if p.kind == "lu" else build_caqr_graph
    return build(BlockLayout(p.m, p.n, p.b), p.tr, p.tree)[0]


def _modal_shapes(graph) -> dict[str, tuple[int, int, int]]:
    """The most common ``(m, n, k)`` per kernel over the graph's tasks."""
    by_kernel: dict[str, Counter] = {}
    for t in graph.tasks:
        c = t.cost
        by_kernel.setdefault(c.kernel, Counter())[(c.m, c.n, c.k)] += 1
    return {k: cnt.most_common(1)[0][0] for k, cnt in by_kernel.items()}
