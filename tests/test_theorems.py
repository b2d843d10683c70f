import dataclasses
import inspect
import json
import random
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import by_divisor, distinct_prime_pairs, divisor_gcd_graph
from cycgraph import arith, graphs, groups, theorems
from cycgraph.errors import SkippedSizeCap, UnknownTheoremId, VertexCapExceeded
from cycgraph.invariants import DEFAULT_NODE_BUDGET, domination_number, graph_isomorphic
from cycgraph.groups import alternating, cyclic, relabel
from cycgraph.specs import GroupSpec, abelian_groups_of_order, is_cyclic_spec, parse_spec
from cycgraph.theorems import THEOREM_IDS, default_catalog, run_verifiers, zn_expected_degrees
from cycgraph.graphs import Graph, IntersectionGraph, build, zn_divisor_graph
from cycgraph.subgroups import maximal_among


class _WeakGraph(Graph):
    """A Graph that a weak reference can point at."""

    __slots__ = ("__weakref__",)

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

    def test_family_rules(self):
        # each order's abelian classes, then D(n/2), Dic(n/4), S(k) at k! and
        # A(k) at k!/2 where those are groups of order n outside the abelian ones
        factorial = {1: 1}
        for k in range(2, 10):
            factorial[k] = k * factorial[k - 1]
        for max_order in [*range(2, 121), 240, 720, 2000]:
            expected = []
            for n in range(2, max_order + 1):
                expected += abelian_groups_of_order(n)
                if n % 2 == 0 and n >= 6:
                    expected.append(GroupSpec("dihedral", (n // 2,)))
                if n % 4 == 0 and n >= 8:
                    expected.append(GroupSpec("dicyclic", (n // 4,)))
                expected += [GroupSpec("symmetric", (k,)) for k, f in factorial.items() if k >= 3 and f == n]
                expected += [GroupSpec("alternating", (k,)) for k, f in factorial.items() if k >= 4 and f == 2 * n]
            assert default_catalog(max_order).specs == expected, max_order

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

    def test_rejects_bound_past_order_cap(self, monkeypatch):
        monkeypatch.setattr(groups, "ORDER_CAP", 60)
        assert max(s.order() for s in default_catalog(60)) == 60
        with pytest.raises(ValueError, match="order cap 60"):
            default_catalog(61)


class TestVerifiers:
    def test_iso_invariance_checks_the_induced_map(self):
        # the same graph with its vertex list reversed: some isomorphism exists,
        # but the relabeling's own vertex map is not one
        group = cyclic(24)
        base = build(group)
        mislabeled = IntersectionGraph(base.vertices[::-1], base.graph, base.source_descriptor,
                                       base.primes)
        trials = theorems.ISO_TRIALS
        assert len(theorems._relabelings_isomorphic(group, mislabeled, trials, seed=1)) == trials
        other = build(relabel(group, list(reversed(range(group.order)))))
        assert graph_isomorphic(mislabeled.graph, other.graph)
        assert theorems._relabelings_isomorphic(group, base, trials, seed=1) == []

    def test_totally_disconnected_counterexamples_are_semiprimes(self):
        res = run_verifiers(["thm14-totally-disconnected"], max_order=60)[0]
        assert not res.passed
        bad = {c[0] for c in res.counterexamples}
        assert bad == {f"Z({n})" for n in SEMIPRIMES_60}

    def test_totally_disconnected_a5_ok(self):
        res = run_verifiers(["thm14-totally-disconnected"], max_order=60)[0]
        assert "A(5)" not in {c[0] for c in res.counterexamples}
        ig = build(alternating(5))
        assert ig.n == 31 and ig.graph.edge_count() == 0

    def test_complete(self):
        res = run_verifiers(["thm15-complete"], max_order=64)[0]
        assert res.passed, res.counterexamples

    def test_complete_vertex_count_counterexamples(self, monkeypatch):
        # with no graph complete, every Z(p^a), a >= 2, and Dic(2^b) = Q(2^(b+2)) fails
        # its count formula: K_(a-1) and K_(2^b+b+1), whose vertex counts do hold
        monkeypatch.setattr(theorems, "is_complete", lambda g: False)
        res = run_verifiers(["thm15-complete"], max_order=64)[0]
        k = {f"Z({p ** a})": a - 1 for p in (2, 3, 5, 7) for a in range(2, 7) if p ** a <= 64}
        k.update({f"Dic({2 ** b})": 2 ** b + b + 1 for b in range(1, 5)})
        want = [(s.descriptor, f"complete K_{k[s.descriptor]}",
                 f"complete=False, vertices={k[s.descriptor]}")
                for s in default_catalog(64) if s.descriptor in k]
        found = [c for c in res.counterexamples if c[1].startswith("complete K_")]
        assert found == want
        assert len(want) == 13
        assert want[0] == ("Z(4)", "complete K_1", "complete=False, vertices=1")
        assert want[-1] == ("Dic(16)", "complete K_21", "complete=False, vertices=21")

    @pytest.mark.parametrize("theorem_id, descriptor", [
        ("thm8-300-alpha-theta", "Z(2)xZ(2)"),
        ("thm14-totally-disconnected", "Z(2)xZ(2)"),
        ("thm15-complete", "Dic(2)"),
    ])
    def test_prime_order_checks_read_the_graphs_primes(self, monkeypatch, theorem_id, descriptor):
        # with one prime-order vertex dropped from each graph's primes, the check
        # refutes itself on a group it holds for
        def drop_a_prime(group, vertex_cap):
            ig = build(group, vertex_cap)
            return dataclasses.replace(ig, primes=ig.primes[1:])

        def refuted():
            return {c[0] for c in run_verifiers([theorem_id], max_order=8)[0].counterexamples}

        assert descriptor not in refuted()
        monkeypatch.setattr(theorems, "build", drop_a_prime)
        assert descriptor in refuted()

    def test_star_path_cycle(self):
        res = run_verifiers(["thm345-star-path-cycle"], max_order=100)[0]
        assert res.passed, res.counterexamples

    def test_girth(self):
        res = run_verifiers(["cor-c1-girth"], max_order=60)[0]
        assert res.passed, res.counterexamples

    def test_acyclic_equivalences(self):
        res = run_verifiers(["thm7-acyclic-equivalences"], max_order=60)[0]
        assert res.passed, res.counterexamples
        assert "reading 'every' matches acyclicity on" in res.notes
        # the 'some' reading fails on groups of prime order, the 'every'
        # reading matches everywhere we have looked
        n = res.groups_tested
        assert f"'every' matches acyclicity on {n}/{n}" in res.notes

    def test_subgroup_condition_readings(self):
        conditions = theorems._subgroup_conditions(build(cyclic(7)), {})
        assert conditions == {"every": True, "some": False}  # 'every' holds vacuously

    def test_subgroup_conditions_equal_the_pairwise_oracle(self, catalog_240_and_products):
        group = parse_spec("S(4)xZ(3)").realize()
        perm = list(range(group.order))
        random.Random(5).shuffle(perm)
        relabeled = ("S(4)xZ(3) relabeled", None, build(relabel(group, perm)))
        small = {}
        for descriptor, _, ig in [*catalog_240_and_products, relabeled]:
            assert theorems._subgroup_conditions(ig, small) == _pairwise_subgroup_conditions(ig), \
                descriptor
        assert small == {d: theorems._order_in_small_set(d) for d in small}

    def test_acyclic_equivalences_classify_each_order_once(self, monkeypatch,
                                                           catalog_240_and_products):
        calls = Counter()
        in_small_set = theorems._order_in_small_set

        def counted(m):
            calls[m] += 1
            return in_small_set(m)

        monkeypatch.setattr(theorems, "_order_in_small_set", counted)
        (res,) = run_verifiers(["thm7-acyclic-equivalences"], max_order=200)
        # default_catalog lists its groups by order, so catalog(200) comes first
        catalog = catalog_240_and_products[:len(default_catalog(200))]
        assert max(group.order for _, group, _ in catalog) == 200
        orders = {v.order for _, _, ig in catalog for v in ig.vertices}
        assert res.groups_tested == len(catalog)
        assert set(calls) == orders and set(calls.values()) == {1}

    def test_alpha_theta(self):
        res = run_verifiers(["thm8-300-alpha-theta"], max_order=60)[0]
        assert res.passed, res.counterexamples
        assert res.groups_tested > 40

    def test_alpha_theta_without_a_cover_is_a_counterexample(self, monkeypatch):
        # every intersection graph has the cover, so a graph without one refutes
        # simplicial_cover's lemma: it is a counterexample, never a skip
        monkeypatch.setattr(theorems, "simplicial_cover", lambda g: None)
        res = run_verifiers(["thm8-300-alpha-theta"], max_order=60)[0]
        assert res.skipped == []
        assert res.groups_tested == len(default_catalog(60)) == len(res.counterexamples)
        assert all(found == "no simplicial-cover certificate" for _, _, found in res.counterexamples)

    def test_planarity_classification_counterexample(self):
        # Z9 x Z9 falls outside the claimed planar list yet its graph is 4*K4
        res = run_verifiers(["thm16-planarity"], max_order=80)[0]
        assert res.passed
        res = run_verifiers(["thm16-planarity"], max_order=150)[0]
        assert not res.passed
        assert [c[0] for c in res.counterexamples] == ["Z(9)xZ(9)"]

    def test_regular_zn_counterexamples_are_semiprimes(self):
        res = run_verifiers(["t24-regular-zn"], max_n=60)[0]
        assert not res.passed
        bad = {c[0] for c in res.counterexamples}
        assert bad == {f"Z({n})" for n in SEMIPRIMES_60}

    def test_degree_formula(self):
        res = run_verifiers(["t24-degree-formula-zn"], max_n=300)[0]
        assert res.passed, res.counterexamples

    def test_degree_formula_values(self):
        # full-support divisor: tau(n) - 3
        assert zn_expected_degrees(((2, 2), (3, 1)), [6, 2]) == [6 - 3, 6 - 2 - 2]  # 2 misses 3
        assert zn_expected_degrees(((2, 1), (3, 1), (5, 1)), [2]) == [8 - 2 - 4]

    def test_domination(self):
        res = run_verifiers(["t22-domination-zn"], max_n=300)[0]
        assert res.passed, res.counterexamples

    def test_domination_budget_skip_is_not_counted_as_tested(self):
        # 27 composite n <= 40; at one solver node only Z(30) needs a search
        composite = [n for n in range(2, 41) if zn_divisor_graph(n)[1].n]
        assert len(composite) == 27
        (res,) = run_verifiers(["t22-domination-zn"], max_n=40, node_budget=1)
        assert res.skipped == ["Z(30): solver node budget exhausted"]
        assert res.groups_tested == 26 and res.passed

    def test_domination_searches_each_distinct_graph_once(self, monkeypatch):
        searched = []
        search = theorems.domination_number

        def counted(g, node_budget):
            searched.append(tuple(g.adj))
            return search(g, node_budget)

        monkeypatch.setattr(theorems, "domination_number", counted)
        (res,) = run_verifiers(["t22-domination-zn"], max_n=2000)
        rows = [tuple(g.adj) for n in range(2, 2001) if (g := zn_divisor_graph(n)[1]).n]
        assert res.groups_tested == len(rows) and res.passed
        assert sorted(searched) == sorted(set(rows))

    @pytest.mark.parametrize("node_budget", [DEFAULT_NODE_BUDGET, 1])
    def test_domination_equals_a_search_per_n(self, node_budget):
        tested, counterexamples, skipped = 0, [], []
        for n in range(2, 601):
            _, g = zn_divisor_graph(n)
            if not g.n:
                continue
            expect = 1 if any(a > 1 for _, a in arith.factorize(n)) else 2
            try:
                gamma = domination_number(g, node_budget)
            except SkippedSizeCap as exc:
                skipped.append(f"Z({n}): {exc}")
                continue
            tested += 1
            if gamma != expect:
                counterexamples.append((f"Z({n})", f"gamma={expect}", f"gamma={gamma}"))
        (res,) = run_verifiers(["t22-domination-zn"], max_n=600, node_budget=node_budget)
        assert (res.groups_tested, res.counterexamples, res.skipped) == (
            tested, counterexamples, skipped)
        assert bool(skipped) == (node_budget == 1)

    def test_zn_items_come_from_the_sieve(self, monkeypatch):
        # at 7 numbers a sieve block, the items cross 714 block boundaries
        monkeypatch.setattr(arith, "SIEVE_BLOCK", 7)
        zn = theorems.ZnGraphs(5000)
        items = [zn.item(row) for row in zn]
        assert [n for n, *_ in items] == list(range(2, 5001))
        for n, factors, g in items:
            assert factors == arith.factorize(n), n
            ds = arith.exponent_divisors(factors)[1:-1]
            assert by_divisor(ds, g) == divisor_gcd_graph(n), n

    def test_zn_graphs_are_shared_per_exponent_signature(self):
        # the first n of each signature up to 100,000 gets a graph equal to its
        # gcd oracle under d -> d; every later n of that signature gets the same object
        zn = theorems.ZnGraphs(100_000)
        first = {}
        for row in zn:
            n, factors, g = zn.item(row)
            signature = tuple(a for _, a in factors)
            if signature in first:
                assert g is first[signature], n
                continue
            first[signature] = g
            assert zn.graphs.keys() == first.keys(), n
            ds = arith.exponent_divisors(factors)[1:-1]
            assert by_divisor(ds, g) == divisor_gcd_graph(n), n
        assert len(first) == 350
        assert zn.graphs.keys() == first.keys()
        assert all(zn.graphs[s] is g for s, g in first.items())

    def test_zn_verifiers_factor_no_streamed_n(self, monkeypatch):
        # above arith.FACTOR_CACHE_SIZE, where factoring n again would miss the cache
        max_n = 6000
        assert max_n > arith.FACTOR_CACHE_SIZE
        zn_ids = ["t24-regular-zn", "t24-degree-formula-zn", "t22-domination-zn"]
        alone = [_without_timings(run_verifiers([tid], max_n=max_n))[0] for tid in zn_ids]
        factored = []
        factorize = arith.factorize

        def recorded(n):
            factored.append(n)
            return factorize(n)

        for module in (arith, graphs, theorems):
            monkeypatch.setattr(module, "factorize", recorded)
        shared = _without_timings(run_verifiers(zn_ids, max_n=max_n))
        assert factored == []
        assert shared == alone
        assert [r["groups_tested"] for r in shared] == [max_n - 1 - 783] * 3  # 783 primes <= 6000

    def test_iso_invariance_seeds_come_from_the_catalog(self, monkeypatch):
        seeds = []
        relabelings_isomorphic = theorems._relabelings_isomorphic

        def recorded(group, base, trials, seed):
            seeds.append(seed)
            return relabelings_isomorphic(group, base, trials, seed)

        monkeypatch.setattr(theorems, "_relabelings_isomorphic", recorded)
        (res,) = run_verifiers(["thm13-iso-invariance"], max_order=100, seed=5)
        assert seeds == list(range(6, 16)) and res.groups_tested == 10


class TestRunVerifiers:
    def test_unknown_id(self):
        with pytest.raises(UnknownTheoremId, match="^unknown theorem id no-such-theorem$"):
            run_verifiers(["no-such-theorem"], max_order=10)

    def test_single_id_string_is_one_id(self):
        # a string other than "all" names one verifier; it is not split into characters
        tid = "thm14-totally-disconnected"
        results = run_verifiers(tid, max_order=10)
        assert [r.theorem_id for r in results] == [tid]
        assert _without_timings(results) == _without_timings(run_verifiers([tid], max_order=10))

    def test_unknown_single_id_string(self):
        with pytest.raises(UnknownTheoremId, match="^unknown theorem id nope$"):
            run_verifiers("nope")

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

        def counted(n, *args):
            built.append(n)
            return zn_divisor_graph(n, *args)

        monkeypatch.setattr(theorems, "zn_divisor_graph", counted)
        zn_ids = ["t24-regular-zn", "t24-degree-formula-zn", "t22-domination-zn"]
        shared = _without_timings(run_verifiers(zn_ids, max_n=300))
        assert built == _first_of_each_signature(300)
        built.clear()
        run_verifiers(["cor-c1-girth"], max_order=20, max_n=300)
        assert built == []
        alone = [_without_timings(run_verifiers([tid], max_n=300))[0] for tid in zn_ids]
        assert shared == alone
        # each run starts with no graph: a graph kept across runs would not be built again
        assert built == _first_of_each_signature(300) * len(zn_ids)

    def test_verify_all_builds_each_zn_graph_once(self, monkeypatch):
        built = []

        def counted(n, *args):
            built.append(n)
            return zn_divisor_graph(n, *args)

        monkeypatch.setattr(theorems, "zn_divisor_graph", counted)
        run_verifiers("all", max_order=20, max_n=200)
        assert built == _first_of_each_signature(200)

    def test_each_item_is_dropped_once_the_next_is_sent(self, monkeypatch):
        # a weak reference to each item's graph, taken as its source builds it.
        # A check holds the item it was sent last until it is sent the next, so
        # when a source builds an item, its only older items still alive are the
        # one sent last and, for thm16, the last non-cyclic abelian group it took
        thm16_takes = theorems.VERIFIERS["thm16-planarity"][2]
        catalog_item, zn_item = theorems.Catalog.item, theorems.ZnGraphs.item

        def weak_zn_item(self, row):
            *head, g = zn_item(self, row)
            weak = _WeakGraph(g.n)
            weak.adj = g.adj
            return (*head, weak)

        def watch(source, make, taken_by_thm16):
            older = []

            def item(self, key):
                held = {len(older) - 1}
                held.update([i for i, (k, _) in enumerate(older) if taken_by_thm16(k)][-1:])
                assert [k for i, (k, r) in enumerate(older) if i not in held and r()] == []
                made = make(self, key)
                older.append((key, weakref.ref(made[-1])))
                return made

            monkeypatch.setattr(source, "item", item)
            return older

        catalog = watch(theorems.Catalog, catalog_item, thm16_takes)
        zn = watch(theorems.ZnGraphs, weak_zn_item, lambda n: False)
        results = run_verifiers("all", max_order=40, max_n=60)
        assert [r.theorem_id for r in results] == list(THEOREM_IDS)
        assert len(catalog) == len(default_catalog(40)) and len(zn) == 59
        assert [k for k, r in catalog + zn if r()] == []

    def test_a_vertex_cap_skip_goes_to_each_taker_and_to_no_check(self):
        # key 2's item raises: each check that takes 2 lists the message and
        # is sent the other keys it takes; a check that does not take 2 lists nothing
        message = "G: 9 vertices exceeds cap 3"

        class Source:
            def __iter__(self):
                return iter(range(5))

            def item(self, key):
                if key == 2:
                    raise VertexCapExceeded(message)
                return key

        def check(seen):
            while (item := (yield)) is not None:
                seen.append(item)

        takes = [None, lambda k: k % 2 == 0, lambda k: k != 2]
        seen = [[] for _ in takes]
        results = [theorems.VerificationResult(str(i), "") for i in range(len(takes))]
        theorems._stream(Source(), [(r, check(s), t) for r, s, t in zip(results, seen, takes)])
        assert seen == [[0, 1, 3, 4], [0, 4], [0, 1, 3, 4]]
        assert [r.skipped for r in results] == [[message], [message], []]
        assert all(r.passed for r in results)

    def test_elapsed_leaves_out_the_builds(self, monkeypatch):
        # each build sleeps 2 ms; the checks' own time is far less than the builds'
        builds = []
        build_ = theorems.build

        def slow_build(group, *args, **kwargs):
            builds.append(group.descriptor)
            time.sleep(0.002)
            return build_(group, *args, **kwargs)

        monkeypatch.setattr(theorems, "build", slow_build)
        ids = [tid for tid in TestSharedPass.CATALOG_IDS if tid != "thm13-iso-invariance"]
        assert len(ids) == 7
        results = run_verifiers(ids, max_order=30)
        assert len(builds) == len(default_catalog(30))
        assert sum(r.elapsed for r in results) < len(builds) * 0.002 / 2

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
        registered = [check.__name__ for check, _, _ in theorems.VERIFIERS.values()]
        assert sorted(registered) == sorted(defined)  # each name once, none missing
        for check, source, _ in theorems.VERIFIERS.values():
            assert defined[check.__name__] is check and inspect.isgeneratorfunction(check)
            assert source in ("catalog", "zn")

    def test_inputs_are_the_run_inputs(self, monkeypatch):
        registry = dict(theorems.VERIFIERS)
        got = {}

        def stub(tid):
            def check(res, source):
                got[tid] = source
                res.domain = tid
                while (yield):
                    res.groups_tested += 1
            return check

        monkeypatch.setattr(
            theorems, "VERIFIERS",
            {tid: (stub(tid), source, takes) for tid, (_, source, takes) in registry.items()},
        )
        results = run_verifiers("all", max_order=10, max_n=20, seed=3, vertex_cap=50, node_budget=7)
        catalog, zn = (
            next(got[tid] for tid, (_, source, _) in registry.items() if source == name)
            for name in ("catalog", "zn")
        )
        # each source is made once, carries the run options, and reaches each of its readers
        assert {tid: got[tid] for tid in got} == {
            tid: catalog if source == "catalog" else zn for tid, (_, source, _) in registry.items()
        }
        assert (catalog.max_order, catalog.vertex_cap, catalog.seed) == (10, 50, 3)
        assert (zn.max_n, zn.node_budget) == (20, 7)
        # every stub was sent the items of its own source
        tested = {r.theorem_id: r.groups_tested for r in results}
        assert tested["t24-regular-zn"] == 19 and tested["cor-c1-girth"] == len(default_catalog(10))

    def test_inputs_are_made_only_for_their_readers(self, monkeypatch):
        def no_catalog(*args):
            raise AssertionError("a Z_n-only run built the catalog")

        monkeypatch.setattr(theorems, "default_catalog", no_catalog)
        zn_ids = [tid for tid, (_, source, _) in theorems.VERIFIERS.items() if source == "zn"]
        results = run_verifiers(zn_ids, max_n=30)
        assert [r.theorem_id for r in results] == zn_ids and all(r.groups_tested for r in results)
        with pytest.raises(AssertionError, match="built the catalog"):
            run_verifiers(["thm15-complete"], max_n=30)

    def test_each_id_alone_reports_its_own_id(self):
        for tid in THEOREM_IDS:
            (res,) = run_verifiers([tid], max_order=12, max_n=30, node_budget=1000)
            assert res.theorem_id == tid and res.domain
            assert res.elapsed > 0 and res.passed == (not res.counterexamples)


def _pairwise_subgroup_conditions(ig: IntersectionGraph) -> dict[str, bool]:
    """thm7's subgroup-side condition as first written: each order classified
    per vertex, every vertex walked for maximality, every special pair tested."""
    small = [theorems._order_in_small_set(s.order) for s in maximal_among(ig.vertices)]
    primes = set(ig.primes)
    special = [
        v for v, s in enumerate(ig.vertices)
        if v not in primes and theorems._order_in_small_set(s.order)
    ]
    clause_b = all(
        not (ig.graph.adj[u] >> v & 1)
        for i, u in enumerate(special)
        for v in special[i + 1:]
    )
    return {"some": any(small) and clause_b, "every": all(small) and clause_b}


def _first_of_each_signature(max_n):
    """The least n of each exponent signature over 2 <= n <= max_n, ascending."""
    first = {}
    for n in range(2, max_n + 1):
        first.setdefault(tuple(a for _, a in arith.factorize(n)), n)
    return list(first.values())


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
        tid for tid, (_, source, _) in theorems.VERIFIERS.items() if source == "catalog"
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
