"""Write the frozen expected outputs in ``perfbench/expected``.

    python3 perfbench/freeze.py

Run once, at the commit whose outputs the benchmark pins.  The domination
numbers of the analyze-worst inputs come from an exact MILP (scipy's HiGHS),
independent of the program's solver; where that solver decides gamma, the two
must agree.  Each relabeled ingest table must summarize like the spec built by
its constructor.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
import workloads as W


def milp_domination_number(n: int, adj: list[int]) -> int:
    """Exact domination number: min sum x_v with sum over N[v] of x_u >= 1, x binary."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    if n == 0:
        raise ValueError("domination number is undefined on the empty graph")
    closed = np.zeros((n, n))
    for v in range(n):
        closed[v, v] = 1
        for u in range(n):
            if adj[v] >> u & 1:
                closed[v, u] = 1
    res = milp(
        c=np.ones(n), integrality=np.ones(n), bounds=Bounds(0, 1),
        constraints=LinearConstraint(closed, lb=1, ub=np.inf),
        options={"mip_rel_gap": 0},
    )
    if not res.success:
        raise RuntimeError(f"MILP failed: {res.message}")
    chosen = np.round(res.x).astype(int)
    if not (closed @ chosen >= 1).all():
        raise RuntimeError("MILP solution does not dominate the graph")
    return int(chosen.sum())


def freeze_verify(cli, seed=1):
    rc, out, *_ = W.call_cli(cli, W.VERIFY_ARGV + ["--seed", str(seed)])
    if rc != 1:
        raise SystemExit(f"verify exit code {rc!r}")
    expected = W.project_verify(json.loads(out))
    # each verifier run on its own, as the benchmark runs it, must agree
    for i, r in enumerate(expected["results"]):
        rc, out, *_ = W.call_cli(cli, W.verifier_argv(r["theorem_id"], seed))
        W.check_verifier(expected, i, rc, out, seed)
    return expected


def freeze_catalog(cli):
    rc, out, *_ = W.call_cli(cli, W.CATALOG_ARGV)
    if rc != 0:
        raise SystemExit(f"catalog exit code {rc!r}")
    return out


def freeze_analyze(cli):
    from cycgraph.graphs import build
    from cycgraph.specs import parse_spec

    out_list = []
    for spec in W.ANALYZE_SPECS:
        rc, out, *_ = W.call_cli(cli, W.analyze_argv(spec))
        if rc != 0:
            raise SystemExit(f"analyze {spec}: exit code {rc!r}")
        report = json.loads(out)["report"]
        g = build(parse_spec(spec).realize()).graph
        gamma = milp_domination_number(g.n, g.adj)
        decided = report["domination_number"]
        if decided is not None and decided != gamma:
            raise SystemExit(f"{spec}: solver gamma {decided} != MILP gamma {gamma}")
        pinned = {k: report[k] for k in W.SKIPPABLE}
        if {k for k, v in pinned.items() if v is None} - {"domination_number"}:
            raise SystemExit(f"{spec}: a field other than gamma was skipped: {pinned}")
        pinned["domination_number"] = gamma
        out_list.append({
            "spec": spec,
            "projection": W.project_analyze(json.loads(out)),
            "pinned": pinned,
            "seed_solver_skipped_gamma": decided is None,
        })
        print(f"  {spec}: gamma={gamma} (solver {'skipped' if decided is None else decided})")
    return out_list


def freeze_ingest(cli, seed=1):
    import tempfile
    from pathlib import Path

    out_list = []
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for i, (spec, make) in enumerate(W.INGEST_TABLES):
            rc, out, *_ = W.call_cli(cli, W.export_argv(spec))
            if rc != 0:
                raise SystemExit(f"export {spec}: exit code {rc!r}")
            summary = W.export_summary(out)
            path = Path(tmp) / f"t{i}.txt"
            W.write_table(W.relabeled(make(), np.random.default_rng(seed)), path)
            rc, out, *_ = W.call_cli(cli, W.export_argv(f"file:cayley:{path}"))
            if rc != 0 or W.export_summary(out) != summary:
                raise SystemExit(f"{spec}: relabeled table does not match its constructor")
            out_list.append({"spec": spec, "order": len(make()), "summary": summary})
            print(f"  {spec}: {summary['vertices']} vertices, {summary['edges']} edges")
    return out_list


def main() -> int:
    cli = run.import_cycgraph()
    W.EXPECTED.mkdir(exist_ok=True)
    print("verify-sweep")
    (W.EXPECTED / "verify-sweep.json").write_text(
        json.dumps(freeze_verify(cli), indent=1, sort_keys=True) + "\n")
    print("catalog-build")
    (W.EXPECTED / "catalog-build.txt").write_text(freeze_catalog(cli))
    print("analyze-worst")
    (W.EXPECTED / "analyze-worst.json").write_text(
        json.dumps(freeze_analyze(cli), indent=1, sort_keys=True) + "\n")
    print("ingest-export")
    (W.EXPECTED / "ingest-export.json").write_text(
        json.dumps(freeze_ingest(cli), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
