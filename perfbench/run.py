"""cycgraph benchmark: one workload per run, on one thread.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with tracing off, each
pass in a forked child that runs while the parent waits; with
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics.  Every output is checked against ``perfbench/expected``.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a wrong output makes the
exit code 1, a missing program 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread: pinned before numpy or cycgraph is imported
for _var in ("CYCGRAPH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPS = 5
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import REF_S, WORKLOADS, Wrong, reference_time  # noqa: E402


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def import_cycgraph():
    """Import the package from the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cycgraph.cli
    if Path(cycgraph.__file__).resolve().parent != SRC / "cycgraph":
        raise ImportError(f"cycgraph imported from {cycgraph.__file__}, not {SRC}")
    return cycgraph.cli


def set_up(workload, seed):
    """Set up SETUP_REPS times: a fresh interpreter loads the program (what every CLI
    call pays), then the workload's inputs are made.  Returns the cli module, the
    inputs and the median set-up time at reference speed (see ``end_to_end``)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPS):
        ref0 = reference_time()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cycgraph.cli"], env=env, cwd=ROOT, check=True)
        inputs = workload.setup(seed, WORKDIR / workload.name)
        dt = time.perf_counter() - t0
        times.append(dt * 2 * REF_S / (ref0 + reference_time()))
    return import_cycgraph(), inputs, statistics.median(times)


def forked_pass(workload, cli, inputs):
    """One pass in a child forked from the set-up process, so that every pass
    starts from the same state, as a fresh CLI call does.  Repeated calls in one
    process drift: after a few passes the order-512 table check of
    ``ingest-export`` settles ~40% slower, at a pass that differs from run to run.
    The child sends back its result or its exception; the parent waits for it."""
    sys.stdout.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: runs the pass, reports and exits, whatever happens
        try:
            os.close(r)
            try:
                payload = ("ok", workload.run_pass(cli, inputs))
            except Exception as exc:  # re-raised in the parent
                payload = ("raise", exc)
            with os.fdopen(w, "wb") as f:
                pickle.dump(payload, f)
        finally:
            os._exit(0)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as f:
            data = f.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("pass process ended without a result")
    kind, value = pickle.loads(data)
    if kind == "raise":
        raise value
    return value


def measure(workload, cli, inputs, seconds):
    """Passes until ``seconds`` have gone by, and at least MIN_PASSES."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(forked_pass(workload, cli, inputs))
    return passes


def peak_rss_kb() -> int:
    """Peak resident memory of this process or of any pass it forked."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def end_to_end(passes, setup_s) -> dict:
    # The host's speed drifts by tens of percent within seconds and by half over
    # minutes, for any code, so each call's time is scaled to the reference loop's
    # speed measured around it.  The program's work is fixed by its inputs (the
    # solvers count nodes, not seconds), so what remains is its own cost.  Each
    # item's latency is its median over the passes; a pass is the sum of them.
    scaled = [[dt * REF_S / ref for dt, ref in zip(p.latencies, p.refs)] for p in passes]
    latencies = [statistics.median(xs) for xs in zip(*scaled)]
    wall = sum(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (passes[0].items / wall, "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_p99_ms": (nearest_rank(latencies, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb() / 1024, "MB"),
    }


def traced(workload, cli, inputs):
    """One untraced pass, then one traced pass; per-layer metrics and both passes."""
    import cycgraph.groups as groups

    base = workload.run_pass(cli, inputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_pass = workload.run_pass(cli, inputs, tracer)
    finally:
        leftover = tracer.restore()
    if leftover:
        raise RuntimeError(f"traced run left patched attributes: {leftover}")
    consts = {k: getattr(groups, k, None) for k in ("TABLE_CAP", "DEFAULT_ASSOC_CAP")}
    metrics = tracing.layer_metrics(
        tracer.spans, tracer.family_layer, traced_pass.wall, base.wall, consts)
    return metrics, [base, traced_pass]


def run_one(name, seed, seconds, trace) -> dict:
    workload = WORKLOADS[name]
    cli, inputs, setup_s = set_up(workload, seed)
    if trace:
        metrics, passes = traced(workload, cli, inputs)
    else:
        passes = measure(workload, cli, inputs, seconds)
        metrics = end_to_end(passes, setup_s)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{name}: seed={seed} passes={len(passes)} attempted={attempted} failed={failed} "
          f"failed_share={failed / attempted:.4f} CYCGRAPH_THREADS=1 (pinned)")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (SRC / "cycgraph" / "__init__.py").is_file():
        print(f"error: no cycgraph source under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
    except Wrong as exc:
        print(f"WRONG: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": True,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
