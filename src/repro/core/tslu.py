"""TSLU — tall-skinny LU panel factorization with tournament pivoting.

The panel is split into ``Tr`` row chunks.  Each chunk elects ``b``
candidate pivot rows by Gaussian elimination with partial pivoting
(GEPP, task P at the tree leaves); candidate sets are merged by further
GEPP sweeps up a reduction tree (task P at inner nodes).  The winning
``b`` rows are swapped to the top of the panel and the pivot block is
factored without further pivoting (the *finalize* step); the remaining
panel rows become ``L`` via triangular solves (task L, emitted by the
caller — CALU — or by :func:`tslu` for a standalone panel).

This module provides both the task-graph builder used by CALU and a
standalone :func:`tslu` driver for factoring a single tall-skinny
panel, the operation the paper benchmarks against ``MKL_dgetf2``.

Resilience: leaf tasks are *idempotent* (they read the matrix and
overwrite only their own candidate slot), so the runtime may retry
them.  Health guards watch the tournament's candidate buffers; if a
fault corrupts them, the panel *degrades gracefully* — the finalize
task abandons the tournament and selects its pivots by classic GEPP
partial pivoting on the panel, which costs one extra panel sweep but
keeps the factorization correct (recorded as a ``degraded`` event).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.flops import lu_flops, lu_panel_flops, trsm_right_flops
from repro.core.layout import BlockLayout, Chunk
from repro.core.priorities import task_priority
from repro.core.trees import TreeKind, reduction_schedule
from repro.kernels.blas import laswp
from repro.kernels.lu import getf2, getf2_nopiv, perm_from_piv_rows, piv_to_perm, rgetf2
from repro.resilience.events import ResilienceEvent
from repro.resilience.health import DEFAULT_GROWTH_LIMIT, validate_matrix
from repro.runtime.graph import BlockTracker, TaskGraph
from repro.runtime.program import GraphProgram, supports_streaming
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor

__all__ = ["PanelWorkspace", "add_tslu_tasks", "tslu", "tslu_program"]


@dataclass
class PanelWorkspace:
    """Shared state of one panel's tournament.

    ``cand_rows[slot]`` / ``cand_gidx[slot]`` hold the candidate pivot
    rows (values, copied out of the matrix) and their row indices local
    to the panel; ``piv`` is the final LAPACK-style swap sequence set
    by the finalize task.  ``degraded`` is set when the tournament's
    candidates were found corrupted and the finalize task fell back to
    partial pivoting for this panel.
    """

    cand_rows: dict[int, np.ndarray] = field(default_factory=dict)
    cand_gidx: dict[int, np.ndarray] = field(default_factory=dict)
    piv: np.ndarray | None = None
    degraded: bool = False
    #: Set when the finalize task repaired a corrupted tournament by
    #: replaying the whole reduction from the (untouched) panel data —
    #: the first rung of the recovery ladder, yielding pivots identical
    #: to a fault-free run.
    recomputed: bool = False
    #: Permission for that replay; disabled, the finalize task degrades
    #: straight to partial pivoting (the historical behaviour).
    allow_recompute: bool = True


def _select_pivots(block: np.ndarray, leaf_kernel: str) -> np.ndarray:
    """GEPP a *copy* of *block*; return the selected pivot positions in order.

    The input is never modified — callers forward the original rows up
    the reduction tree, so the factored values must not leak into the
    candidate sets.

    A block holding a NaN or infinity is always selected by ``getf2``:
    its ``argmax`` elects the non-finite row, which puts it among the
    candidates where the health guards see it.  LAPACK's ``idamax``
    never elects a NaN, so ``dgetrf`` would return clean-looking
    candidates and the corruption would pass the tournament unseen.
    """
    rows, cols = block.shape
    if leaf_kernel == "rgetf2" and rows >= cols and np.isfinite(block).all():
        piv = rgetf2(np.array(block, order="F"))
    else:
        piv = getf2(block.copy())
    perm = piv_to_perm(piv, rows)
    return perm[: min(rows, cols)]


def _leaf_fn(A: np.ndarray, chunk: Chunk, c0: int, c1: int, k0: int, ws: PanelWorkspace, leaf_kernel: str):
    def fn() -> None:
        block = A[chunk.r0 : chunk.r1, c0:c1]
        sel = _select_pivots(block, leaf_kernel)
        ws.cand_rows[chunk.index] = block[sel].copy()
        ws.cand_gidx[chunk.index] = (chunk.r0 - k0) + sel

    return fn


def _merge_fn(ws: PanelWorkspace, dst: int, srcs: list[int], bk: int, leaf_kernel: str):
    def fn() -> None:
        rows = np.vstack([ws.cand_rows[s] for s in srcs])
        gidx = np.concatenate([ws.cand_gidx[s] for s in srcs])
        if not np.isfinite(rows).all():
            # Corrupted candidates: mark the panel degraded and stop
            # propagating poison up the tree.  The finalize task will
            # fall back to partial pivoting on the panel itself.
            ws.degraded = True
            ws.cand_rows[dst] = rows[: min(len(rows), bk)]
            ws.cand_gidx[dst] = gidx[: min(len(gidx), bk)]
            return
        sel = _select_pivots(rows, leaf_kernel)
        ws.cand_rows[dst] = rows[sel].copy()
        ws.cand_gidx[dst] = gidx[sel]

    return fn


def _candidate_guard(ws: PanelWorkspace, slot: int, K: int, name: str):
    """Health guard for a tournament task: non-finite candidates degrade the panel."""

    def guard() -> ResilienceEvent | None:
        cand = ws.cand_rows.get(slot)
        if cand is not None and not np.isfinite(cand).all():
            ws.degraded = True
            return ResilienceEvent(
                kind="health",
                task=name,
                detail=f"panel {K}: non-finite tournament candidates in slot {slot}",
            )
        return None

    return guard


def _corrupt_candidates(ws: PanelWorkspace, slot: int):
    """Corruption hook for fault injection: poison this slot's candidate rows."""

    def corrupt() -> bool:
        cand = ws.cand_rows.get(slot)
        if cand is None or cand.size == 0:
            return False
        cand.flat[cand.size // 2] = np.nan
        return True

    return corrupt


def _panel_guard(
    A: np.ndarray,
    k0: int,
    r: int,
    c0: int,
    c1: int,
    ws: PanelWorkspace,
    K: int,
    absmax: float | None,
    name: str,
    growth_limit: float = DEFAULT_GROWTH_LIMIT,
):
    """Health guard after finalize: fatal on non-finite factors, warn on growth."""

    def guard() -> ResilienceEvent | None:
        block = A[k0 : k0 + r, c0:c1]
        if not np.isfinite(block).all():
            return ResilienceEvent(
                kind="health",
                task=name,
                detail=f"panel {K}: non-finite values in factored pivot block",
                fatal=True,
            )
        if ws.recomputed:
            return ResilienceEvent(
                kind="recompute",
                task=name,
                detail=f"panel {K}: corrupted tournament replayed from clean panel data",
            )
        if ws.degraded:
            return ResilienceEvent(
                kind="degraded",
                task=name,
                detail=f"panel {K}: tournament corrupted, fell back to partial pivoting",
            )
        if absmax is not None and absmax > 0:
            growth = float(np.abs(block).max()) / absmax
            if growth > growth_limit:
                return ResilienceEvent(
                    kind="health",
                    task=name,
                    detail=f"panel {K}: pivot growth {growth:.3g} exceeds {growth_limit:.3g}",
                    value=growth,
                )
        return None

    return guard


def _recompute_tournament(
    A: np.ndarray,
    k0: int,
    c0: int,
    c1: int,
    chunks: list[Chunk],
    tree: TreeKind,
    arity: int,
    leaf_kernel: str,
) -> np.ndarray | None:
    """Replay a panel's whole tournament serially from the matrix.

    The tournament tasks only *read* the panel (candidates are copies),
    so after a corruption of the candidate buffers the reduction can be
    replayed from the untouched panel data.  The replay runs the exact
    leaf and merge selections of the task graph, so the returned root
    candidate indices — and hence the pivots — are identical to a
    fault-free run.  Returns None when the panel itself is unusable
    (non-finite entries), which sends the finalize task down the next
    rung of the ladder.
    """
    cand_rows: dict[int, np.ndarray] = {}
    cand_gidx: dict[int, np.ndarray] = {}
    for chunk in chunks:
        block = A[chunk.r0 : chunk.r1, c0:c1]
        if not np.isfinite(block).all():
            return None
        sel = _select_pivots(block, leaf_kernel)
        cand_rows[chunk.index] = block[sel].copy()
        cand_gidx[chunk.index] = (chunk.r0 - k0) + sel
    slots = [c.index for c in chunks]
    for level in reduction_schedule(len(slots), tree, arity):
        for dst_pos, src_pos in level:
            dst = slots[dst_pos]
            srcs = [slots[p] for p in src_pos]
            rows = np.vstack([cand_rows[s] for s in srcs])
            gidx = np.concatenate([cand_gidx[s] for s in srcs])
            sel = _select_pivots(rows, leaf_kernel)
            cand_rows[dst] = rows[sel].copy()
            cand_gidx[dst] = gidx[sel]
    return cand_gidx[slots[0]]


def _finalize_fn(
    A: np.ndarray,
    k0: int,
    m: int,
    c0: int,
    c1: int,
    ws: PanelWorkspace,
    root: int,
    chunks: list[Chunk] | None = None,
    tree: TreeKind = TreeKind.BINARY,
    arity: int = 4,
    leaf_kernel: str = "rgetf2",
):
    def fn() -> None:
        gidx = ws.cand_gidx.get(root)
        cand = ws.cand_rows.get(root)
        degraded = (
            ws.degraded
            or gidx is None
            or cand is None
            or not np.isfinite(cand).all()
        )
        if degraded and ws.allow_recompute and chunks is not None:
            # Recovery ladder, rung 1: the tournament tasks never wrote
            # the matrix, so replay the whole reduction from the clean
            # panel.  Success restores fault-free pivots bit for bit.
            replayed = _recompute_tournament(A, k0, c0, c1, chunks, tree, arity, leaf_kernel)
            if replayed is not None:
                gidx = replayed
                degraded = False
                ws.degraded = False
                ws.recomputed = True
        if degraded:
            # Rung 2 — graceful degradation: the tournament's candidates
            # are unusable, so select pivots by classic GEPP partial
            # pivoting on a *copy* of the panel (selection only — the
            # actual panel is then swapped and factored exactly as in
            # the tournament path, leaving the sub-pivot rows for the
            # L tasks).
            ws.degraded = True
            work = A[k0:m, c0:c1].copy()
            piv = getf2(work)
        else:
            piv = perm_from_piv_rows(gidx, m - k0)
        ws.piv = piv
        laswp(A[k0:m, c0:c1], piv)
        r = min(c1 - c0, m - k0)
        getf2_nopiv(A[k0 : k0 + r, c0:c1])

    return fn


def _mirror_degraded(guard, flags: np.ndarray):
    """Wrap a candidate guard so a parent-side degradation verdict is
    also visible to worker processes via the panel's shared flags."""

    def wrapped() -> ResilienceEvent | None:
        ev = guard()
        if ev is not None:
            flags[0] = 1
        return ev

    return wrapped


def _slot_sync(ws: PanelWorkspace, slot: int, rows, gidx, count, flags=None):
    """op_sync hook: mirror a worker-written candidate slot into the
    parent workspace as live shared-memory views (so parent-side guards
    and corruption hooks see — and touch — the worker's data)."""

    def sync() -> None:
        n = int(count[0])
        ws.cand_rows[slot] = rows[:n]
        ws.cand_gidx[slot] = gidx[:n]
        if flags is not None and flags[0]:
            ws.degraded = True

    return sync


def _finalize_sync(ws: PanelWorkspace, piv, flags):
    """op_sync hook: publish the worker-selected pivots and the panel's
    degraded/recomputed verdict into the parent workspace."""

    def sync() -> None:
        ws.piv = piv[1 : 1 + int(piv[0])]
        ws.degraded = bool(flags[0])
        ws.recomputed = bool(flags[1])

    return sync


def add_tslu_tasks(
    graph: TaskGraph,
    tracker: BlockTracker,
    layout: BlockLayout,
    K: int,
    chunks: list[Chunk],
    tree: TreeKind = TreeKind.BINARY,
    *,
    A: np.ndarray | None = None,
    ws: PanelWorkspace | None = None,
    lookahead: int = 1,
    library: str = "repro",
    leaf_kernel: str = "rgetf2",
    arity: int = 4,
    guards: bool = True,
    absmax: float | None = None,
    recompute: bool = True,
    shm=None,
) -> int:
    """Emit the TSLU tasks for panel *K*; returns the finalize task id.

    With ``A=None`` the tasks are symbolic (cost-only).  *chunks* is
    the row partition for this iteration (from
    :meth:`BlockLayout.panel_chunks`, possibly tail-merged).

    With *guards* (numeric runs only) the tournament tasks carry
    ``meta["health"]`` closures that detect corrupted candidate buffers
    and trigger the partial-pivoting fallback, plus ``meta["corrupt"]``
    hooks so a :class:`~repro.resilience.faults.FaultPlan` can target
    the workspace instead of the matrix.  *absmax* (the panel's
    pre-factorization magnitude) enables the pivot-growth monitor on
    the finalize task.  *recompute* lets the finalize task repair a
    corrupted tournament by replaying it from the clean panel data
    (identical pivots) before degrading to partial pivoting.

    With *shm* (a :class:`~repro.runtime.shm.ShmBinding`; numeric runs
    only), every task additionally carries a ``meta["op"]`` descriptor
    dispatchable to a :class:`~repro.runtime.process.ProcessExecutor`
    worker: candidate slots, the degradation flags and the pivot
    sequence live in arena buffers, and ``meta["op_sync"]`` mirrors them
    into the parent :class:`PanelWorkspace` after each completion.
    """
    c0, c1 = layout.col_range(K)
    c1 = min(c1, K * layout.b + layout.panel_width(K))
    bk = c1 - c0
    k0 = K * layout.b
    m = layout.m
    numeric = A is not None
    if numeric and ws is not None:
        ws.allow_recompute = bool(recompute)
    prio_p = task_priority("P", K, lookahead=lookahead, n_cols=layout.N)

    # Shared-memory workspace for descriptor dispatch: one candidate
    # buffer triple (rows, gidx, count) per tournament slot, a flags
    # pair [degraded, recomputed] and a length-prefixed pivot buffer.
    slot_bufs: dict[int, tuple] = {}  # slot -> ((views), (specs))
    flags = flags_spec = piv_buf = piv_spec = None
    if shm is not None and numeric:
        for chunk in chunks:
            rows_v, rows_s = shm.alloc((bk, bk))
            gidx_v, gidx_s = shm.alloc((bk,), np.int64)
            count_v, count_s = shm.alloc((1,), np.int64)
            slot_bufs[chunk.index] = ((rows_v, gidx_v, count_v), (rows_s, gidx_s, count_s))
        flags_view, flags_spec = shm.alloc((2,), np.int64)
        flags = flags_view
        piv_buf, piv_spec = shm.alloc((m - k0 + 1,), np.int64)
        shm.piv_specs[K] = (piv_buf, piv_spec)

    # Workspace footprint keys: candidate buffers live outside the
    # block grid, so the tournament's dataflow through them is tracked
    # with symbolic per-panel keys — ("cand", K, slot) for a slot of
    # PanelWorkspace.cand_rows/cand_gidx, ("piv", K) for ws.piv.  The
    # tracker then derives the tree edges (and the verify passes can
    # prove them sufficient) instead of the builder hand-wiring deps.
    def cand(slot: int) -> tuple:
        return ("cand", K, slot)

    producer: dict[int, int] = {}
    for chunk in chunks:
        cost = Cost(
            leaf_kernel if chunk.rows >= bk else "getf2",
            m=chunk.rows,
            n=bk,
            flops=lu_flops(chunk.rows, bk),
            words=2.0 * chunk.rows * bk,
            library=library,
        )
        fn = _leaf_fn(A, chunk, c0, c1, k0, ws, leaf_kernel) if numeric else None
        name = f"P[{K}]leaf{chunk.index}"
        meta = {}
        if numeric and guards:
            meta["health"] = _candidate_guard(ws, chunk.index, K, name)
            meta["corrupt"] = _corrupt_candidates(ws, chunk.index)
        if slot_bufs:
            (rows_v, gidx_v, count_v), (rows_s, gidx_s, count_s) = slot_bufs[chunk.index]
            meta["op"] = (
                "tslu_leaf",
                {
                    "a": shm.a_spec,
                    "r0": chunk.r0,
                    "r1": chunk.r1,
                    "c0": c0,
                    "c1": c1,
                    "k0": k0,
                    "leaf_kernel": leaf_kernel,
                    "rows": rows_s,
                    "gidx": gidx_s,
                    "count": count_s,
                },
            )
            meta["op_sync"] = _slot_sync(ws, chunk.index, rows_v, gidx_v, count_v)
            if "health" in meta:
                meta["health"] = _mirror_degraded(meta["health"], flags)
        producer[chunk.index] = tracker.add_task(
            graph,
            name,
            TaskKind.P,
            cost,
            fn=fn,
            reads=chunk.blocks(K),
            writes=[cand(chunk.index)],
            priority=prio_p,
            iteration=K,
            idempotent=numeric,
            **meta,
        )

    slots = [c.index for c in chunks]
    root = slots[0]
    cand_rows = {c.index: min(c.rows, bk) for c in chunks}
    for level in reduction_schedule(len(slots), tree, arity):
        for dst_pos, src_pos in level:
            dst = slots[dst_pos]
            srcs = [slots[p] for p in src_pos]
            stacked = sum(cand_rows[s] for s in srcs)
            cost = Cost(
                "gepp_merge",
                m=stacked,
                n=bk,
                flops=lu_panel_flops(stacked, min(stacked, bk)),
                words=2.0 * stacked * bk,
                library=library,
            )
            fn = _merge_fn(ws, dst, srcs, bk, leaf_kernel) if numeric else None
            name = f"P[{K}]merge{dst}<{','.join(map(str, srcs))}"
            meta = {}
            if numeric and guards:
                meta["health"] = _candidate_guard(ws, dst, K, name)
                meta["corrupt"] = _corrupt_candidates(ws, dst)
            if slot_bufs:
                (rows_v, gidx_v, count_v), dst_specs = slot_bufs[dst]
                meta["op"] = (
                    "tslu_merge",
                    {
                        "srcs": [slot_bufs[s][1] for s in srcs],
                        "dst": dst_specs,
                        "bk": bk,
                        "leaf_kernel": leaf_kernel,
                        "flags": flags_spec,
                    },
                )
                meta["op_sync"] = _slot_sync(ws, dst, rows_v, gidx_v, count_v, flags)
                if "health" in meta:
                    meta["health"] = _mirror_degraded(meta["health"], flags)
            # Dependencies are derived from the candidate-slot keys:
            # RAW on each source producer, WAW on the previous writer
            # of the destination slot — identical to the hand-wired
            # edge list this used to pass, but now verifiable.
            producer[dst] = tracker.add_task(
                graph,
                name,
                TaskKind.P,
                cost,
                fn=fn,
                reads=[cand(s) for s in srcs],
                writes=[cand(dst)],
                priority=prio_p,
                iteration=K,
                **meta,
            )
            cand_rows[dst] = min(stacked, bk)

    r = min(bk, m - k0)
    fin_cost = Cost(
        "getf2_nopiv",
        m=r,
        n=bk,
        flops=lu_panel_flops(r, r),
        words=2.0 * bk * bk + 2.0 * bk * bk,  # swaps across the panel + factor traffic
        library=library,
    )
    fn = (
        _finalize_fn(A, k0, m, c0, c1, ws, root, chunks, tree, arity, leaf_kernel)
        if numeric
        else None
    )
    name = f"F[{K}]"
    meta = {}
    if numeric and guards:
        meta["health"] = _panel_guard(A, k0, r, c0, c1, ws, K, absmax, name)
    if slot_bufs:
        meta["op"] = (
            "tslu_finalize",
            {
                "a": shm.a_spec,
                "k0": k0,
                "m": m,
                "c0": c0,
                "c1": c1,
                "root": slot_bufs[root][1],
                "flags": flags_spec,
                "piv": piv_spec,
                "chunks": [(c.index, c.r0, c.r1) for c in chunks],
                "tree": tree.value,
                "arity": arity,
                "leaf_kernel": leaf_kernel,
                "allow_recompute": bool(recompute),
            },
        )
        meta["op_sync"] = _finalize_sync(ws, piv_buf, flags)
    # The finalize swaps + factors the whole active panel column (its
    # declared writes), consumes the tournament winner and publishes
    # the pivot sequence the U tasks and the deferred left swaps read.
    panel_blocks = layout.active_blocks(K, K)
    finalize = tracker.add_task(
        graph,
        name,
        TaskKind.P,
        fin_cost,
        fn=fn,
        reads=[cand(root)] + panel_blocks,
        writes=panel_blocks + [("piv", K)],
        priority=task_priority("F", K, lookahead=lookahead, n_cols=layout.N),
        iteration=K,
        **meta,
    )
    return finalize


def tslu_program(
    A: np.ndarray,
    tr: int = 4,
    tree: TreeKind = TreeKind.BINARY,
    *,
    leaf_kernel: str = "rgetf2",
    shm=None,
) -> tuple[GraphProgram, PanelWorkspace]:
    """Streaming program for one standalone TSLU panel.

    Window 0 is the tournament (leaves + reduction tree + finalize),
    window 1 the ``L`` triangular solves below the pivot block — so the
    solves are not even created until the tournament is underway.
    *A* must already be a float C-ordered tall array (``m >= n``); it
    is factored in place.  Returns ``(program, panel workspace)``.
    """
    m, n = A.shape
    layout = BlockLayout(m, n, b=n)
    chunks = layout.panel_chunks(0, tr)
    ws = PanelWorkspace()
    from repro.kernels.blas import trsm_runn  # local to avoid cycle at import

    def _l_fn(r0: int, r1: int):
        def fn() -> None:
            trsm_runn(A[:n, :], A[r0:r1, :])

        return fn

    def emit(window: int, graph: TaskGraph, tracker: BlockTracker) -> None:
        if window == 0:
            add_tslu_tasks(
                graph,
                tracker,
                layout,
                0,
                chunks,
                tree,
                A=A,
                ws=ws,
                leaf_kernel=leaf_kernel,
                shm=shm,
            )
            return
        # L tasks: the rows below the pivot block, one trsm per chunk.
        for chunk in chunks:
            r0 = max(chunk.r0, n)
            if r0 >= chunk.r1:
                continue
            cost = Cost(
                "trsm_runn",
                m=chunk.r1 - r0,
                k=n,
                flops=trsm_right_flops(chunk.r1 - r0, n),
                words=2.0 * (chunk.r1 - r0) * n,
            )
            meta = {}
            if shm is not None:
                meta["op"] = (
                    "calu_l",
                    {"a": shm.a_spec, "k0": 0, "c0": 0, "c1": n, "r0": r0, "r1": chunk.r1},
                )
            tracker.add_task(
                graph,
                f"L[0]{chunk.index}",
                TaskKind.L,
                cost,
                fn=_l_fn(r0, chunk.r1),
                reads=[(0, 0)],
                writes=chunk.blocks(0),
                priority=task_priority("L", 0),
                **meta,
            )

    return GraphProgram(f"tslu{m}x{n}", 2, emit), ws


def tslu(
    A: np.ndarray,
    tr: int = 4,
    tree: TreeKind = TreeKind.BINARY,
    executor=None,
    leaf_kernel: str = "rgetf2",
    overwrite: bool = False,
    check_finite: bool = True,
    store=None,
    memory_budget: int | None = None,
    spill_dir=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Factor one tall-skinny panel with tournament pivoting.

    Returns ``(lu, piv)``: the packed in-place factorization (``L``
    strictly below the diagonal with unit diagonal implicit, ``U`` on
    and above) and the LAPACK-style swap sequence such that
    ``A[perm] = L @ U`` with ``perm = piv_to_perm(piv, m)``.

    This is the standalone panel operation the paper benchmarks against
    ``MKL_dgetf2``: GEPP-quality pivots with ``O(log2 Tr)``
    synchronizations instead of one per column.

    With *store* or *memory_budget* the panel streams through a tile
    store (see :func:`repro.core.outofcore.tslu_ooc`) and the packed
    factors are copied back into RAM to honour this contract — for
    results that should *stay* out of core, call ``tslu_ooc`` directly.

    Copy semantics: ``overwrite=True`` factors *A* in place only on the
    threaded path; the process backend stages the panel into a shared-
    memory arena (one copy in, one copy out) regardless.
    """
    if store is not None or memory_budget is not None:
        if executor is not None:
            raise ValueError(
                "tslu: out-of-core runs (store=/memory_budget=) manage their own executor"
            )
        from repro.core.outofcore import tslu_ooc

        res = tslu_ooc(
            A,
            tr=None if memory_budget is not None else tr,
            memory_budget=memory_budget,
            store="mmap" if store is None else store,
            spill_dir=spill_dir,
            tree=tree,
            leaf_kernel=leaf_kernel,
            check_finite=check_finite,
        )
        try:
            return res.lu(), np.array(res.piv)
        finally:
            res.destroy()
    A = validate_matrix(A, "A", require_finite=check_finite)
    dtype = A.dtype if A.dtype in (np.float32, np.float64) else np.float64
    m, n = A.shape
    if m < n:
        raise ValueError(f"tslu requires a tall panel (m >= n), got {A.shape}")
    from repro.runtime.process import ProcessExecutor, resolve_executor

    if executor is None:
        executor = ThreadedExecutor(min(tr, 4))
    executor, owned = resolve_executor(executor, min(tr, 4))
    use_shm = isinstance(executor, ProcessExecutor)
    arena = shm = None
    if use_shm:
        # Process backend: stage the panel straight onto the shared-
        # memory plane (one copy, converting dtype/layout on the way)
        # so worker processes factor it in place (see repro.runtime.shm).
        from repro.runtime.shm import SharedArena, ShmBinding

        arena = SharedArena()
        shared = arena.alloc(A.shape, dtype, zero=False)
        np.copyto(shared, A)
        A = shared
        shm = ShmBinding(arena, A)
    else:
        A = np.array(A, dtype=dtype, order="C", copy=not overwrite, subok=False)
    try:
        program, ws = tslu_program(A, tr, tree, leaf_kernel=leaf_kernel, shm=shm)
        source = program if supports_streaming(executor) else program.materialize()
        executor.run(source)
        assert ws.piv is not None
        piv = ws.piv
        if use_shm:
            A = np.array(A)
            piv = np.array(piv)
    finally:
        if arena is not None:
            arena.destroy()
        if owned and use_shm:
            executor.close()
    return A, piv
