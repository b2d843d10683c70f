import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import distinct_prime_pairs
from cycgraph import theorems
from cycgraph.errors import UnknownTheoremId
from cycgraph.invariants import DEFAULT_ISO_SIZE_CAP
from cycgraph.groups import alternating, cyclic
from cycgraph.specs import GroupSpec, abelian_groups_of_order, is_cyclic_spec, parse_spec
from cycgraph.theorems import (
    THEOREM_IDS,
    default_catalog,
    run_verifiers,
    subgroup_condition,
    verify_acyclic_equivalences,
    verify_alpha_theta,
    verify_complete,
    verify_degree_formula_zn,
    verify_domination_zn,
    verify_girth,
    verify_iso_invariance,
    verify_planarity_classification,
    verify_regular_zn,
    verify_star_path_cycle,
    verify_totally_disconnected,
    zn_expected_degree,
)
from cycgraph.graphs import build

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
        cat = default_catalog(40)
        descs = [s.descriptor for s in cat]
        assert len(descs) == len(set(descs))
        assert all(s.order() <= 40 for s in cat)

    def test_deterministic(self):
        a = [s.descriptor for s in default_catalog(50)]
        b = [s.descriptor for s in default_catalog(50)]
        assert a == b

    def test_rejects_trivial_bound(self):
        with pytest.raises(ValueError):
            default_catalog(1)


class TestVerifiers:
    def test_iso_invariance(self):
        res = verify_iso_invariance(cyclic(24), trials=5, seed=1)
        assert res.passed and not res.counterexamples

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
        res = verify_regular_zn(60)
        assert not res.passed
        bad = {c[0] for c in res.counterexamples}
        assert bad == {f"Z({n})" for n in SEMIPRIMES_60}

    def test_degree_formula(self):
        res = verify_degree_formula_zn(300)
        assert res.passed, res.counterexamples

    def test_degree_formula_values(self):
        # full-support divisor: tau(n) - 3
        assert zn_expected_degree(12, 6) == 6 - 3
        assert zn_expected_degree(12, 2) == 6 - 2 - 2  # misses prime 3
        assert zn_expected_degree(30, 2) == 8 - 2 - 4

    def test_domination(self):
        res = verify_domination_zn(300)
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
        picks = [d for d, n in dict(catalog_builds).items() if 2 <= n <= DEFAULT_ISO_SIZE_CAP]
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
