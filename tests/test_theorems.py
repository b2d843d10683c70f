import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import distinct_prime_pairs
from cycgraph import theorems
from cycgraph.errors import UnknownTheoremId
from cycgraph.invariants import graph_isomorphic
from cycgraph.groups import alternating, cyclic, relabel
from cycgraph.specs import GroupSpec, abelian_groups_of_order, is_cyclic_spec, parse_spec
from cycgraph.theorems import (
    THEOREM_IDS,
    ZnGraphs,
    default_catalog,
    run_verifiers,
    subgroup_condition,
    verify_acyclic_equivalences,
    verify_alpha_theta,
    verify_complete,
    verify_degree_formula_zn,
    verify_domination_zn,
    verify_girth,
    verify_planarity_classification,
    verify_regular_zn,
    verify_star_path_cycle,
    verify_totally_disconnected,
    zn_expected_degree,
)
from cycgraph.graphs import IntersectionGraph, build, zn_divisor_graph

# squarefree products of exactly two primes: the graphs are K̄2 yet the group
# has an element of composite order, so several statements break on them
SEMIPRIMES_60 = {6, 10, 14, 15, 21, 22, 26, 33, 34, 35, 38, 39, 46, 51, 55, 57, 58}


def test_distinct_prime_pairs_oracle_matches_semiprimes_60():
    # anchors the trial-division oracle the acceptance criteria derive from
    assert distinct_prime_pairs(60) == SEMIPRIMES_60


class TestCatalog:
    def test_small(self):
        descs = [s.descriptor for s in default_catalog(8)]
        assert "Z(8)" in descs
        assert "Z(4)xZ(2)" in descs
        assert "Z(2)xZ(2)xZ(2)" in descs
        assert "D(3)" in descs and "D(4)" in descs
        assert "Dic(2)" in descs
        assert "S(3)" in descs
        assert "A(4)" not in descs  # order 12 > 8

    def test_tiny(self):
        assert [s.descriptor for s in default_catalog(2)] == ["Z(2)"]

    def test_sixty_includes_a5(self):
        descs = [s.descriptor for s in default_catalog(60)]
        assert "A(5)" in descs and "S(4)" in descs and "Dic(15)" in descs

    def test_no_duplicates_and_order_bound(self):
        cat = default_catalog(400)
        descs = [s.descriptor for s in cat]
        assert len(descs) == len(set(descs))
        assert all(s.order() <= 400 for s in cat)

    def test_deterministic(self):
        a = [s.descriptor for s in default_catalog(50)]
        b = [s.descriptor for s in default_catalog(50)]
        assert a == b

    def test_rejects_trivial_bound(self):
        with pytest.raises(ValueError):
            default_catalog(1)


class TestVerifiers:
    def test_iso_invariance_checks_the_induced_map(self):
        # the same graph with its vertex list reversed: some isomorphism exists,
        # but the relabeling's own vertex map is not one
        group = cyclic(24)
        base = build(group)
        mislabeled = IntersectionGraph(base.vertices[::-1], base.graph, base.source_descriptor)
        trials = theorems.ISO_TRIALS
        assert len(theorems._relabelings_isomorphic(group, mislabeled, trials, seed=1)) == trials
        other = build(relabel(group, list(reversed(range(group.order)))))
        assert graph_isomorphic(mislabeled.graph, other.graph)
        assert theorems._relabelings_isomorphic(group, base, trials, seed=1) == []

    def test_totally_disconnected_counterexamples_are_semiprimes(self):
        res = verify_totally_disconnected(default_catalog(60))
        assert not res.passed
        bad = {c[0] for c in res.counterexamples}
        assert bad == {f"Z({n})" for n in SEMIPRIMES_60}

    def test_totally_disconnected_a5_ok(self):
        res = verify_totally_disconnected(default_catalog(60))
        assert "A(5)" not in {c[0] for c in res.counterexamples}
        ig = build(alternating(5))
        assert ig.n == 31 and ig.graph.edge_count() == 0

    def test_complete(self):
        res = verify_complete(default_catalog(64))
        assert res.passed, res.counterexamples

    def test_star_path_cycle(self):
        res = verify_star_path_cycle(default_catalog(100))
        assert res.passed, res.counterexamples

    def test_girth(self):
        res = verify_girth(default_catalog(60))
        assert res.passed, res.counterexamples

    def test_acyclic_equivalences(self):
        res = verify_acyclic_equivalences(default_catalog(60))
        assert res.passed, res.counterexamples
        assert "reading 'every' matches acyclicity on" in res.notes
        # the 'some' reading fails on groups of prime order, the 'every'
        # reading matches everywhere we have looked
        n = res.groups_tested
        assert f"'every' matches acyclicity on {n}/{n}" in res.notes

    def test_subgroup_condition_readings(self):
        ig = build(cyclic(7))
        assert subgroup_condition(ig, "every")  # vacuously true
        assert not subgroup_condition(ig, "some")
        with pytest.raises(ValueError):
            subgroup_condition(ig, "most")

    def test_alpha_theta(self):
        res = verify_alpha_theta(default_catalog(60))
        assert res.passed, res.counterexamples
        assert res.groups_tested > 40

    def test_planarity_classification_counterexample(self):
        # Z9 x Z9 falls outside the claimed planar list yet its graph is 4*K4
        res = verify_planarity_classification(default_catalog(80))
        assert res.passed
        res = verify_planarity_classification(default_catalog(150))
        assert not res.passed
        assert [c[0] for c in res.counterexamples] == ["Z(9)xZ(9)"]

    def test_regular_zn_counterexamples_are_semiprimes(self):
        res = verify_regular_zn(ZnGraphs(60))
        assert not res.passed
        bad = {c[0] for c in res.counterexamples}
        assert bad == {f"Z({n})" for n in SEMIPRIMES_60}

    def test_degree_formula(self):
        res = verify_degree_formula_zn(ZnGraphs(300))
        assert res.passed, res.counterexamples

    def test_degree_formula_values(self):
        # full-support divisor: tau(n) - 3
        assert zn_expected_degree(12, 6) == 6 - 3
        assert zn_expected_degree(12, 2) == 6 - 2 - 2  # misses prime 3
        assert zn_expected_degree(30, 2) == 8 - 2 - 4

    def test_domination(self):
        res = verify_domination_zn(ZnGraphs(300))
        assert res.passed, res.counterexamples


class TestRunVerifiers:
    def test_unknown_id(self):
        with pytest.raises(UnknownTheoremId):
            run_verifiers(["no-such-theorem"], max_order=10)

    def test_subset_keeps_order(self):
        ids = ["cor-c1-girth", "thm15-complete"]
        results = run_verifiers(ids, max_order=30)
        assert [r.theorem_id for r in results] == ids

    def test_all_ids_covered(self):
        results = run_verifiers("all", max_order=20, max_n=100)
        assert [r.theorem_id for r in results] == list(THEOREM_IDS)

    def test_deterministic(self):
        a = _without_timings(run_verifiers("all", max_order=30, max_n=200, seed=4))
        b = _without_timings(run_verifiers("all", max_order=30, max_n=200, seed=4))
        assert a == b

    def test_zn_graphs_are_built_once_per_run(self, monkeypatch):
        built = []

        def counted(n):
            built.append(n)
            return zn_divisor_graph(n)

        monkeypatch.setattr(theorems, "zn_divisor_graph", counted)
        zn_ids = ["t24-regular-zn", "t24-degree-formula-zn", "t22-domination-zn"]
        shared = _without_timings(run_verifiers(zn_ids, max_n=300))
        assert built == list(range(2, 301))
        built.clear()
        run_verifiers(["cor-c1-girth"], max_order=20, max_n=300)
        assert built == []
        alone = [_without_timings(run_verifiers([tid], max_n=300))[0] for tid in zn_ids]
        assert shared == alone

    def test_one_zn_reader_keeps_no_list(self, monkeypatch):
        made = []

        def recorded(*args, **kwargs):
            made.append(ZnGraphs(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(theorems, "ZnGraphs", recorded)
        run_verifiers(["t24-regular-zn"], max_n=200)
        run_verifiers(["t24-regular-zn", "cor-c1-girth"], max_order=20, max_n=200)
        assert [zn._built for zn in made] == [None, None]
        run_verifiers(["t24-regular-zn", "t22-domination-zn"], max_n=200)
        assert len(made[-1]._built) == 199

    def test_verify_all_builds_each_zn_graph_once(self, monkeypatch):
        built = []

        def counted(n):
            built.append(n)
            return zn_divisor_graph(n)

        monkeypatch.setattr(theorems, "zn_divisor_graph", counted)
        run_verifiers("all", max_order=20, max_n=200)
        assert built == list(range(2, 201))

    def test_kept_and_streamed_zn_graphs_give_one_report(self):
        for verifier in (verify_regular_zn, verify_degree_formula_zn, verify_domination_zn):
            kept, streamed = ZnGraphs(200, keep=True), ZnGraphs(200)
            assert _without_timings([verifier(kept), verifier(kept)]) == \
                _without_timings([verifier(streamed), verifier(streamed)])
            assert kept._built is not None and streamed._built is None

    def test_counterexamples_are_realizable(self):
        for r in run_verifiers(["thm14-totally-disconnected"], max_order=40):
            for desc, _, _ in r.counterexamples:
                assert parse_spec(desc).realize().order <= 40

    def test_to_dict_shape(self):
        (r,) = run_verifiers(["cor-c1-girth"], max_order=20)
        d = r.to_dict()
        assert set(d) == {
            "theorem_id", "domain", "groups_tested", "passed",
            "counterexamples", "skipped", "elapsed_s", "notes",
        }


class TestRegistry:
    def test_theorem_ids_in_report_order(self):
        assert THEOREM_IDS == (
            "thm13-iso-invariance",
            "thm14-totally-disconnected",
            "thm15-complete",
            "thm16-planarity",
            "thm345-star-path-cycle",
            "cor-c1-girth",
            "thm7-acyclic-equivalences",
            "thm8-300-alpha-theta",
            "t24-regular-zn",
            "t24-degree-formula-zn",
            "t22-domination-zn",
        )

    def test_every_verifier_is_registered_once(self):
        defined = {
            name: obj for name, obj in vars(theorems).items()
            if name.startswith("verify_") and callable(obj)
        }
        registered = [run.__name__ for run, _ in theorems.VERIFIERS.values()]
        assert sorted(registered) == sorted(defined)  # each name once, none missing
        assert all(defined[run.__name__] is run for run, _ in theorems.VERIFIERS.values())

    def test_inputs_are_the_run_inputs(self, monkeypatch):
        registry = dict(theorems.VERIFIERS)
        for tid, (run, names) in registry.items():
            assert set(names) <= {"catalog", "zn", "seed", "node_budget"}
            assert tuple(inspect.signature(run).parameters) == names
        got = {}

        def stub(tid):
            def run(**kwargs):
                got[tid] = kwargs
                return theorems.VerificationResult(tid, "")
            return run

        monkeypatch.setattr(
            theorems, "VERIFIERS", {tid: (stub(tid), names) for tid, (_, names) in registry.items()}
        )
        run_verifiers("all", max_order=10, max_n=20, seed=3, node_budget=7)
        assert {tid: tuple(kw) for tid, kw in got.items()} == {
            tid: names for tid, (_, names) in registry.items()
        }
        supplied = {k: v for kw in got.values() for k, v in kw.items()}
        assert supplied["catalog"].max_order == 10 and supplied["zn"].max_n == 20
        assert (supplied["seed"], supplied["node_budget"]) == (3, 7)

    def test_inputs_are_made_only_for_their_readers(self, monkeypatch):
        def no_catalog(*args):
            raise AssertionError("a Z_n-only run built the catalog")

        monkeypatch.setattr(theorems, "default_catalog", no_catalog)
        zn_ids = [tid for tid, (_, names) in theorems.VERIFIERS.items() if "zn" in names]
        results = run_verifiers(zn_ids, max_n=30)
        assert [r.theorem_id for r in results] == zn_ids and all(r.groups_tested for r in results)
        with pytest.raises(AssertionError, match="built the catalog"):
            run_verifiers(["thm15-complete"], max_n=30)

    def test_direct_call_reports_its_own_id(self):
        inputs = {"catalog": default_catalog(12), "zn": ZnGraphs(30), "seed": 0, "node_budget": 1000}
        for tid, (run, names) in theorems.VERIFIERS.items():
            res = run(*(inputs[name] for name in names))
            assert res.theorem_id == tid and res.domain
            assert res.elapsed > 0 and res.passed == (not res.counterexamples)


def _without_timings(results):
    out = []
    for r in results:
        d = r.to_dict()
        d.pop("elapsed_s")
        out.append(d)
    return out


@pytest.fixture
def built(monkeypatch):
    """Count realizations and builds per descriptor, in call order.

    Only the outermost realize of a spec counts: a product realizes its
    factors on the way, which is not a catalog realization."""
    record = {"realize": Counter(), "build": [], "depth": 0}
    realize, build_ = GroupSpec.realize, theorems.build

    def counting_realize(spec, *args, **kwargs):
        if record["depth"] == 0:
            record["realize"][spec.descriptor] += 1
        record["depth"] += 1
        try:
            return realize(spec, *args, **kwargs)
        finally:
            record["depth"] -= 1

    def counting_build(group, *args, **kwargs):
        ig = build_(group, *args, **kwargs)
        record["build"].append((group.descriptor, ig.n))
        return ig

    monkeypatch.setattr(GroupSpec, "realize", counting_realize)
    monkeypatch.setattr(theorems, "build", counting_build)
    return record


class TestSharedPass:
    CATALOG_IDS = [
        tid for tid, (_, inputs) in theorems.VERIFIERS.items() if "catalog" in inputs
    ]

    def test_all_equals_each_alone(self):
        together = _without_timings(run_verifiers("all", max_order=60, max_n=300, seed=2))
        alone = [
            d
            for tid in THEOREM_IDS
            for d in _without_timings(run_verifiers([tid], max_order=60, max_n=300, seed=2))
        ]
        assert together == alone

    def test_each_catalog_group_realized_and_built_once(self, built):
        ids = [tid for tid in self.CATALOG_IDS if tid != "thm13-iso-invariance"]
        assert len(ids) == 7
        run_verifiers(ids, max_order=60)
        once = {s.descriptor: 1 for s in default_catalog(60)}
        assert built["realize"] == once
        assert Counter(d for d, _ in built["build"]) == once

    def test_iso_invariance_alone_builds_up_to_its_last_pick(self, built):
        run_verifiers(["thm13-iso-invariance"], max_order=100)
        descs = [s.descriptor for s in default_catalog(100)]
        # the catalog builds come first in each pick, then 20 relabelings
        # inside the per-group check
        catalog_builds = [(d, n) for d, n in built["build"] if d in descs]
        first = list(dict.fromkeys(d for d, _ in catalog_builds))
        assert first == descs[: len(first)]
        picks = [d for d, n in dict(catalog_builds).items() if 2 <= n <= theorems.ISO_PICK_MAX_VERTICES]
        assert len(picks) == 10 and first[-1] == picks[-1]
        assert set(built["realize"]) == set(first)
        # each pick reuses its catalog graph as the base: only the relabelings build again
        assert len(built["build"]) == len(first) + 10 * 20 == 216

    def test_verify_all_build_count(self, built):
        run_verifiers("all", max_order=200)
        # 540 catalog groups once each, plus thm13's 20 relabelings of 10 picks
        assert len(default_catalog(200)) == 540
        assert len(built["build"]) == 540 + 10 * 20 == 740

    def test_planarity_alone_builds_only_noncyclic_abelian(self, built):
        run_verifiers(["thm16-planarity"], max_order=100)
        want = Counter(
            s.descriptor
            for n in range(4, 101)
            for s in abelian_groups_of_order(n)
            if not is_cyclic_spec(s)
        )
        assert Counter(d for d, _ in built["build"]) == want
        assert built["realize"] == want


def test_verify_all_matches_frozen_sweep_report():
    """The multi-verifier path against the frozen single-verifier benchmark
    report: everything but timings, with skips as counts."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify-sweep.json"
    expected = json.loads(path.read_text())
    results = run_verifiers("all", max_order=100, max_n=2000, seed=1)
    got = []
    for d in _without_timings(results):
        d["skipped"] = len(d["skipped"])
        got.append(d)
    assert got == expected["results"]
    assert all(r.passed for r in results) == expected["all_passed"]
    assert (expected["max_order"], expected["max_n"]) == (100, 2000)
