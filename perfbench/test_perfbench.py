"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import itertools
import json
import sys

import pytest

import freeze
import run
import tracing
import workloads as W

CLI = run.import_cycgraph()


def _span(family, start, end, parent, status="ok", data=None):
    return [family, start, end, parent, None, status, data]


# --- span arithmetic -----------------------------------------------------------

def test_self_time_subtracts_child_coverage():
    spans = [
        _span("main", 0.0, 10.0, -1),
        _span("realize", 1.0, 4.0, 0),
        _span("realize", 2.0, 3.0, 1),       # nested inside its parent
        _span("build", 5.0, 9.0, 0),
        _span("enumerate", 5.5, 7.0, 3),
        _span("enumerate", 6.5, 8.0, 3),     # overlaps its sibling: union counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.5])
    # self times and uncovered time add up to the wall time
    assert sum(tracing.self_times(spans[:4])) == pytest.approx(10.0)


def test_covered_merges_overlapping_intervals():
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert tracing.covered([]) == 0.0


def test_layer_metrics_count_nested_realize_once():
    family_layer = tracing.Tracer().family_layer
    spans = [
        _span("main", 0.0, 10.0, -1),
        _span("realize", 1.0, 4.0, 0, data=("Z(2)xZ(2)", 4)),
        _span("realize", 1.5, 2.0, 1, data=("Z(2)", 2)),
        _span("realize", 4.0, 5.0, 0, data=("Z(2)xZ(2)", 4)),
        _span("gamma", 5.0, 7.0, 0, status="skip"),
        _span("gamma", 7.0, 8.0, 0),
    ]
    m = tracing.layer_metrics(spans, family_layer, 10.5, 10.0, {"TABLE_CAP": 512})
    assert m["groups.realize_calls"][0] == 2
    assert m["groups.realize_distinct"][0] == 1
    assert m["groups.realize_reuse"][0] == pytest.approx(0.5)
    assert m["groups.table_entries"][0] == 32
    assert m["groups.realize_s"][0] == pytest.approx(4.0)
    assert m["invariants.skips"][0] == 1
    assert m["invariants.skip_s"][0] == pytest.approx(2.0)
    assert m["invariants.decided_ratio"][0] == pytest.approx(0.5)
    assert m["trace.overhead_share"][0] == pytest.approx(0.05)
    assert m["trace.unattributed_s"][0] == pytest.approx(0.5)


# --- statistics ------------------------------------------------------------------

def test_nearest_rank_p99():
    assert run.nearest_rank(list(range(1, 101)), 0.99) == 99
    assert run.nearest_rank(list(range(1, 11)), 0.99) == 10   # the slowest of few samples
    assert run.nearest_rank([5.0], 0.99) == 5.0
    assert run.nearest_rank([3, 1, 2], 0.5) == 2


def _pass(latencies, refs):
    p = W.PassResult()
    p.items, p.latencies, p.refs = len(latencies), latencies, refs
    return p


def test_end_to_end_scales_calls_to_reference_speed_and_takes_item_medians():
    r = W.REF_S
    passes = [
        _pass([1.0, 2.0], [r, r]),
        _pass([2.0, 4.0], [2 * r, 2 * r]),     # the host ran at half speed
        _pass([9.0, 9.0], [r, r]),             # an outlier pass
    ]
    m = run.end_to_end(passes, 0.1)
    assert m["wall_s"][0] == pytest.approx(3.0)
    assert m["items_per_s"][0] == pytest.approx(2 / 3)
    assert m["item_p50_ms"][0] == pytest.approx(1500)
    assert m["item_p99_ms"][0] == pytest.approx(2000)


class _FakeWorkload:
    def run_pass(self, cli, inputs):
        if inputs == "wrong":
            raise W.Wrong("a corrupted output")
        return _pass([0.5], [W.REF_S])


def test_forked_pass_returns_the_result_and_reraises_a_wrong_output():
    assert run.forked_pass(_FakeWorkload(), None, "ok").latencies == [0.5]
    with pytest.raises(W.Wrong, match="corrupted"):
        run.forked_pass(_FakeWorkload(), None, "wrong")


def test_failed_share_counts_skips_and_errors_not_wrong_answers():
    expected = W._load("analyze-worst.json")
    by_spec = {e["spec"]: e for e in expected}
    dic = by_spec["Dic(48)"]
    rc, out, *_ = W.call_cli(CLI, W.analyze_argv("Dic(48)"))
    assert W.check_analyze(dic, rc, out) is False              # decided
    payload = json.loads(out)
    payload["report"]["domination_number"] = None
    payload["report"]["notes"]["domination_number"] = "solver node budget exhausted"
    assert W.check_analyze(dic, 0, json.dumps(payload)) is True   # skip: failed
    assert W.check_analyze(dic, 2, "") is True                    # error: failed


def _verifier_report(expected, index, seed, **changes):
    r = {**expected["results"][index], "skipped": [], "elapsed_s": 0.1, **changes}
    return json.dumps({"seed": seed, "max_order": expected["max_order"],
                       "max_n": expected["max_n"], "all_passed": r["passed"], "results": [r]})


def test_verify_skips_are_failures_with_the_same_coverage():
    expected = W._load("verify-sweep.json")
    e = expected["results"][1]
    out = _verifier_report(expected, 1, 7, groups_tested=e["groups_tested"] - 2,
                           skipped=["a: cap", "b: cap"])
    attempted, failed = W.check_verifier(expected, 1, 0 if e["passed"] else 1, out, 7)
    assert failed == 2
    assert attempted == e["groups_tested"] + e["skipped"]


# --- the gate ----------------------------------------------------------------------

def test_gate_rejects_corrupted_analyze_expectation():
    dic = next(e for e in W._load("analyze-worst.json") if e["spec"] == "Dic(48)")
    rc, out, *_ = W.call_cli(CLI, W.analyze_argv("Dic(48)"))
    bad_gamma = copy.deepcopy(dic)
    bad_gamma["pinned"]["domination_number"] += 1
    with pytest.raises(W.Wrong):
        W.check_analyze(bad_gamma, rc, out)
    bad_report = copy.deepcopy(dic)
    bad_report["projection"]["report"]["girth"] = 4
    with pytest.raises(W.Wrong):
        W.check_analyze(bad_report, rc, out)


def test_gate_rejects_corrupted_verify_expectation():
    expected = W._load("verify-sweep.json")
    thm14 = 1
    assert expected["results"][thm14]["theorem_id"] == "thm14-totally-disconnected"
    out = _verifier_report(expected, thm14, 0)
    assert W.check_verifier(expected, thm14, 1, out, 0) == (
        expected["results"][thm14]["groups_tested"], 0)
    bad = copy.deepcopy(expected)
    bad["results"][thm14]["counterexamples"].pop()       # thm14 loses one counterexample
    with pytest.raises(W.Wrong):
        W.check_verifier(bad, thm14, 1, out, 0)
    with pytest.raises(W.Wrong):
        W.check_verifier(expected, thm14, 0, out, 0)   # the known failures must fail
    with pytest.raises(W.Wrong):
        W.check_verifier(expected, thm14 + 1, 1, out, 0)   # another verifier's report


def test_expected_values_keep_the_known_counterexamples():
    results = {r["theorem_id"]: r for r in W._load("verify-sweep.json")["results"]}
    assert len(results["thm14-totally-disconnected"]["counterexamples"]) == 30
    assert len(results["t24-regular-zn"]["counterexamples"]) == 563
    analyze = W._load("analyze-worst.json")
    assert sum(e["seed_solver_skipped_gamma"] for e in analyze) == 4


def test_relabeled_table_matches_its_constructor(tmp_path):
    import numpy as np

    spec, make = W.INGEST_TABLES[0]
    exp = W._load("ingest-export.json")[0]
    assert exp["spec"] == spec
    path = tmp_path / "t.txt"
    W.write_table(W.relabeled(make(), np.random.default_rng(5)), path)
    rc, out, *_ = W.call_cli(CLI, W.export_argv(f"file:cayley:{path}"))
    assert rc == 0 and W.export_summary(out) == exp["summary"]
    bad = copy.deepcopy(exp["summary"])
    bad["edges"] += 1
    assert W.export_summary(out) != bad


# --- the gamma oracle ----------------------------------------------------------------

def _brute_domination(n, adj):
    closed = [adj[v] | 1 << v for v in range(n)]
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover == (1 << n) - 1:
                return k
    raise AssertionError


@pytest.mark.parametrize("seed", range(6))
def test_milp_domination_matches_subset_enumeration(seed):
    import random

    rng = random.Random(seed)
    n = 8
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.3:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    assert freeze.milp_domination_number(n, adj) == _brute_domination(n, adj)


def test_pinned_gamma_of_the_skipped_inputs_is_the_milp_value():
    from cycgraph.graphs import build
    from cycgraph.specs import parse_spec

    for e in W._load("analyze-worst.json"):
        if e["seed_solver_skipped_gamma"]:
            g = build(parse_spec(e["spec"]).realize()).graph
            assert freeze.milp_domination_number(g.n, g.adj) == e["pinned"]["domination_number"]


# --- the traced run ------------------------------------------------------------------

def _cycgraph_attributes():
    mods = {n: m for n, m in sys.modules.items() if n == "cycgraph" or n.startswith("cycgraph.")}
    snap = {(n, a): v for n, m in mods.items() for a, v in vars(m).items() if callable(v)}
    snap[("GroupSpec", "realize")] = vars(mods["cycgraph.specs"].GroupSpec)["realize"]
    return snap


def test_traced_run_restores_every_cycgraph_function():
    before = _cycgraph_attributes()
    inputs = {"expected": [e for e in W._load("analyze-worst.json") if e["spec"] == "Dic(48)"]}
    import cycgraph.cli as cli_mod
    import cycgraph.theorems as th

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli_mod.build is th.build
        assert cli_mod.build is not before[("cycgraph.graphs", "build")]
        W.AnalyzeWorst().run_pass(CLI, inputs, tracer)
    finally:
        leftover = tracer.restore()
    assert leftover == []
    after = _cycgraph_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    families = {s[0] for s in tracer.spans}
    assert {"main", "parse", "realize", "enumerate", "build", "gamma", "is_planar"} <= families


def test_missing_wrap_target_fails_loudly_and_restores(monkeypatch):
    before = _cycgraph_attributes()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("graphs", "graphs", "no_such_function", "build"),))
    with pytest.raises(tracing.TraceTargetMissing):
        tracing.Tracer().install()
    after = _cycgraph_attributes()
    assert all(after[k] is before[k] for k in before)
