"""Wall-clock benchmark of CALU/CAQR, end to end and split by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tall_panel --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: one closed-loop client
repeats the workload's seeded rounds of operations until ``--seconds``
have passed (whole rounds only), checks every output outside the timed
region, and reports each ``BENCHMARK.json`` end-to-end metric.
``--trace 1`` runs a fixed number of rounds with in-memory spans around
every call into ``repro``, then probes each layer and reports every
``per_layer`` metric, the tracing overhead and the self time per layer;
its spans are written to ``.perfbench_out/`` when it ends.

``--steady K`` instead runs the workload K times (seeds ``--seed`` ..
``--seed + K - 1``, one fresh process each) and prints, per end-to-end
metric, the median, the quartiles and the spread
``(q3 - q1) / median`` against the metric's bound.

BLAS is pinned to one thread before numpy is first imported, and
worker processes inherit the setting: the task graph is the only
source of parallelism.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
# Rounds of the traced run: half with spans on, half off (interleaved).
TRACED_ROUNDS = {"tall_panel": 10, "square_update": 10, "service_mix": 4}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _blas() -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": cfg.get("name"), "version": cfg.get("version"),
            "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def _cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def _peak_rss_mib() -> float:
    """Peak resident set of this process plus its live child processes."""
    def hwm(pid) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            return 0

    me = os.getpid()
    return (hwm(me) + sum(hwm(c) for c in _children(me))) / 1024.0


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker multiprocessing started for
    this process and wait for it, once no other child is alive (a live
    child would hold the tracker's pipe open)."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid = getattr(tracker, "_pid", None)
    if pid is None:
        return
    others = [c for c in _children(os.getpid()) if c != pid]
    if others:
        print(f"child processes still alive at exit: {others}", file=sys.stderr)
        return
    tracker._stop()


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid and fields[0] != "Z":
                out.append(int(entry))
    return out


def end_to_end(wl, tracer, tally, seconds, import_s, setup) -> tuple[dict, dict]:
    """Whole seeded rounds until *seconds* have passed, and at least enough
    for a tail percentile; every end-to-end metric."""
    from spans import median, tail
    from workloads import run_ops

    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.MIN_ROUNDS or time.perf_counter() < deadline:
        run_ops(wl, wl.round(i), tracer, tally)
        i += 1
    metrics = {"setup_s": (import_s + median(setup), "s")}
    tail_pct = {}
    for kind in ("lu", "qr"):
        xs = tally.samples[kind]
        value, tail_pct[f"{kind}_s"] = tail(xs)
        metrics[f"{kind}_s.p50"] = (median(xs), "s")
        metrics[f"{kind}_s.tail"] = (value, "s")
    metrics["ok_frac"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio")
    metrics["peak_rss_mib"] = (_peak_rss_mib(), "MiB")
    return metrics, {"rounds": i, "tail_percentile": tail_pct}


def per_layer(wl, tracer, tally, workload, seed) -> tuple[dict, dict]:
    """A fixed number of rounds, alternately traced and untraced, then one
    probe per layer; every per-layer metric."""
    import numpy as np

    import layers
    from spans import median
    from workloads import Tally, run_ops

    # Alternating rounds make the tracing overhead a paired difference
    # taken under the same machine conditions.
    traced = Tally()
    for i in range(TRACED_ROUNDS[workload]):
        tracer.enabled = i % 2 == 0
        run_ops(wl, wl.round(i), tracer, traced if tracer.enabled else tally)
    tracer.enabled = True
    lu_s, qr_s = median(tally.samples["lu"]), median(tally.samples["qr"])
    probe = layers.Probe(wl, tracer, np.random.default_rng(seed), OUT)
    samples = {k: tally.samples[k] + traced.samples[k] for k in ("lu", "qr")}
    misses = {k: tally.misses[k] + traced.misses[k] for k in ("lu", "qr")}
    try:
        for name, call in (
            ("kernels", lambda: probe.kernels(lu_s, qr_s)),
            ("core", probe.core),
            ("runtime", probe.runtime_and_guards),
            ("service", lambda: probe.service(samples, misses)),
            ("tilestore", probe.tilestore),
            ("ref", lambda: probe.ref(lu_s, qr_s)),
            # Last: it clears the autotuner memo the service relies on.
            ("machine", probe.machine),
        ):
            with tracer.span(f"bench.probe.{name}", tracer.new_rid()):
                call()
    finally:
        probe.close()
    for kind in ("lu", "qr"):
        overhead = median(traced.samples[kind]) - median(tally.samples[kind])
        probe.put(f"trace.overhead_{kind}_s", overhead, "s")
    probe.self_times()
    tally.merge(traced)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    tracer.dump(spans_path)
    probe.notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return probe.metrics, {"rounds": TRACED_ROUNDS[workload], "notes": probe.notes}


def measure(args) -> int:
    t_import = time.perf_counter()
    import numpy as np
    import scipy

    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - t_import
    workers = len(os.sched_getaffinity(0))
    spec = _spec()
    tracer = Tracer(enabled=bool(args.trace))
    tally = workloads.Tally()
    wl = workloads.WORKLOADS[args.workload](workers, args.seed)
    OUT.mkdir(exist_ok=True)
    setup = []
    try:
        for rep in range(SETUP_REPS):
            if rep:
                wl.close()
            with tracer.span("bench.setup", tracer.new_rid()):
                t0 = time.perf_counter()
                wl.setup()
                setup.append(time.perf_counter() - t0)
        cpu0 = _cpu_times()
        if args.trace:
            metrics, extra = per_layer(wl, tracer, tally, args.workload, args.seed)
        else:
            metrics, extra = end_to_end(wl, tracer, tally, args.seconds, import_s, setup)
        # Share of the machine's CPU time the hypervisor gave to others
        # while this run measured: high values explain slow runs.
        cpu = [b - a for a, b in zip(cpu0, _cpu_times(), strict=True)]
        extra["cpu_steal_frac"] = cpu[7] / max(1, sum(cpu))
        verifier = getattr(wl, "verifier", None)
        if verifier is not None:
            extra["checks"] = {"full": verifier.full, "by_identity": verifier.by_identity}
    finally:
        wl.close()
        _stop_resource_tracker()

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {k: u for k, (_, u) in metrics.items()} != declared:
        print(f"metric set differs from BENCHMARK.json: emitted {sorted(metrics)}", file=sys.stderr)
        return 1
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "workers": workers, "blas": _blas(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "git_sha": _git_sha(), "samples": {f"{k}_s": len(v) for k, v in tally.samples.items()},
        **extra, "setup_reps_s": setup, "import_s": import_s,
        "check_worst": tally.worst, "errors": tally.errors,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **result, "samples_s": tally.samples}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def steady(args) -> int:
    """Run the workload K times and report each end-to-end metric's
    spread against its bound."""
    spec = _spec()
    runs = []
    for seed in range(args.seed, args.seed + args.steady):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
              flush=True)
    report = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= m["bound"] else "unresolved"
        report[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": m["bound"], "verdict": verdict, "values": values}
        print(f"{m['name']:>14}  median {med:.5g} {m['unit']}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread:.3f} / bound {m['bound']}  {verdict}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.workload}-seed{args.seed}.json").write_text(json.dumps(report, indent=1))
    return 0 if all(r["verdict"] == "ok" for r in report.values()) else 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACED_ROUNDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="run the workload K times and report each metric's spread")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.steady:
        return steady(args)
    # Before numpy is first imported; worker processes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
