import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_clique_cover_number,
    brute_domination_number,
    brute_girth,
    brute_independence_number,
)
from cycgraph.errors import EmptyGraphError, SkippedSizeCap
from cycgraph.graphs import (
    Graph,
    build,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from cycgraph.groups import cyclic, dicyclic, direct_product
from cycgraph.specs import parse_spec
from cycgraph.invariants import (
    DEFAULT_NODE_BUDGET,
    INFINITY,
    _two_packing,
    clique_cover_number,
    component_structure,
    compute_report,
    domination_certificate,
    domination_number,
    girth,
    graph_isomorphic,
    has_triangle,
    independence_number,
    is_acyclic,
    is_bipartite,
    is_complete,
    is_connected,
    is_cycle,
    is_path,
    is_regular,
    is_star,
    is_totally_disconnected,
    shape_checks,
    simplicial_cover,
)
from cycgraph.subgroups import prime_order_subgroup_count
from cycgraph.theorems import default_catalog

INF = INFINITY

#: non-abelian products outside the default catalog
PRODUCTS = (
    "D(4)xZ(2)", "S(3)xS(3)", "Dic(3)xZ(3)", "A(4)xZ(2)",
    "Q(16)xZ(3)", "D(6)xD(3)", "S(4)xZ(3)", "A(5)xZ(2)",
)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def assert_alpha_theta_exact_or_skip(g: Graph, msg=None) -> bool:
    """alpha and theta equal brute force when the simplicial-cover certificate
    exists, and both raise SkippedSizeCap otherwise; returns whether it exists."""
    if simplicial_cover(g) is None:
        for solver in (independence_number, clique_cover_number):
            with pytest.raises(SkippedSizeCap, match="no simplicial-cover certificate"):
                solver(g)
        return False
    assert independence_number(g) == brute_independence_number(g), msg
    assert clique_cover_number(g) == brute_clique_cover_number(g), msg
    return True


def alpha_or_skip(g: Graph) -> int | None:
    try:
        return independence_number(g)
    except SkippedSizeCap:
        return None


@pytest.fixture(scope="module")
def catalog_240_and_products():
    """(descriptor, group, graph) for default_catalog(240) plus PRODUCTS."""
    out = []
    for spec in [*default_catalog(240), *map(parse_spec, PRODUCTS)]:
        group = spec.realize()
        out.append((spec.descriptor, group, build(group)))
    return out


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v)
    return g


@st.composite
def triangle_free_graphs(draw, max_n=12):
    """Drawn edges are kept only when they close no triangle."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()) and not g.adj[u] & g.adj[v]:
                g.add_edge(u, v)
    return g


class TestShapes:
    def test_group_shapes(self):
        # Z(p^3) gives K2: both a star and a path; Z(p^4) gives K3: a cycle
        for p in (2, 3, 5):
            cube = build(cyclic(p**3)).graph
            assert is_star(cube) and is_path(cube)
            fourth = build(cyclic(p**4)).graph
            assert is_cycle(fourth) and not is_star(fourth)

    def test_star(self):
        assert is_star(complete_bipartite(1, 5))
        assert is_star(path_graph(2))
        assert not is_star(Graph(1))  # a single vertex is not K_{1,m}
        assert not is_star(path_graph(4))
        assert not is_star(disjoint_union(path_graph(2), Graph(1)))

    def test_path(self):
        assert is_path(path_graph(2))
        assert is_path(path_graph(7))
        assert not is_path(Graph(1))
        assert not is_path(cycle_graph(4))
        assert not is_path(disjoint_union(path_graph(3), path_graph(3)))

    def test_cycle(self):
        assert is_cycle(cycle_graph(3))
        assert is_cycle(cycle_graph(9))
        assert not is_cycle(path_graph(3))
        assert not is_cycle(disjoint_union(cycle_graph(3), cycle_graph(3)))

    def test_complete(self):
        assert is_complete(Graph(0))
        assert is_complete(Graph(1))
        assert is_complete(complete_graph(6))
        assert not is_complete(cycle_graph(4))

    def test_totally_disconnected(self):
        assert is_totally_disconnected(Graph(5))
        assert is_totally_disconnected(Graph(0))
        assert not is_totally_disconnected(path_graph(2))

    def test_connected_acyclic_bipartite(self):
        assert is_connected(path_graph(5))
        assert not is_connected(disjoint_union(Graph(1), Graph(1)))
        assert is_acyclic(path_graph(5))
        assert not is_acyclic(cycle_graph(4))
        assert is_bipartite(cycle_graph(4))
        assert not is_bipartite(cycle_graph(5))
        assert has_triangle(complete_graph(3))
        assert not has_triangle(complete_bipartite(3, 3))

    def test_regular(self):
        assert is_regular(cycle_graph(5))
        assert is_regular(Graph(3))
        assert not is_regular(path_graph(3))
        with pytest.raises(EmptyGraphError):
            is_regular(Graph(0))

    def test_shape_checks_keys(self):
        d = shape_checks(cycle_graph(3))
        assert d["cycle"] and d["complete"] and not d["path"]


class TestGirth:
    def test_values(self):
        assert girth(complete_graph(4)) == 3
        assert girth(cycle_graph(5)) == 5
        assert girth(cycle_graph(8)) == 8
        assert girth(complete_bipartite(2, 3)) == 4
        assert girth(path_graph(6)) == INF
        assert girth(Graph(0)) == INF

    def test_petersen(self):
        assert girth(petersen()) == 5

    def test_mixed_components(self):
        g = disjoint_union(path_graph(4), cycle_graph(6))
        assert girth(g) == 6

    @settings(max_examples=60, deadline=None)
    @given(triangle_free_graphs())
    def test_triangle_free_matches_bfs_reference(self, g):
        assert girth(g) == brute_girth(g)


class TestComponentStructure:
    def test_z9_x_z3(self):
        ig = build(direct_product(cyclic(9), cyclic(3)))
        # one K4 (the order-9 subgroups around <3> x 0... their common order-3
        # core) plus three isolated vertices
        assert component_structure(ig.graph) == ((1, True), (1, True), (1, True), (4, True))

    def test_non_clique_component(self):
        assert component_structure(path_graph(3)) == ((3, False),)


class TestSolvers:
    def test_known_values(self):
        assert independence_number(complete_graph(6)) == 1
        assert independence_number(Graph(7)) == 7
        assert clique_cover_number(complete_graph(6)) == 1
        assert clique_cover_number(Graph(7)) == 7
        # C7 (alpha 3, theta 4) has no simplicial vertex: skipped, not searched
        assert not assert_alpha_theta_exact_or_skip(cycle_graph(7))
        assert domination_number(complete_graph(6)) == 1
        assert domination_number(Graph(7)) == 7
        assert domination_number(cycle_graph(7)) == 3
        # theta of a complement is the chromatic number: 5, 2, and C5 skipped
        assert clique_cover_number(complete_graph(5).complement()) == 5
        assert clique_cover_number(complete_bipartite(4, 4).complement()) == 2
        with pytest.raises(SkippedSizeCap):
            clique_cover_number(cycle_graph(5).complement())

    def test_group_values(self):
        g = build(cyclic(30)).graph
        assert independence_number(g) == 3
        assert clique_cover_number(g) == 3
        assert domination_number(g) == 2
        h = build(direct_product(cyclic(4), cyclic(2))).graph
        assert independence_number(h) == 3
        assert clique_cover_number(h) == 3
        k = build(cyclic(36)).graph
        assert domination_number(k) == 1

    def test_empty_graph(self):
        assert independence_number(Graph(0)) == 0
        assert clique_cover_number(Graph(0)) == 0
        with pytest.raises(EmptyGraphError):
            domination_number(Graph(0))

    def test_budget_exhaustion_raises(self):
        # without a certificate alpha and theta skip at once; no budget is spent
        g = random_graph(40, 0.5, seed=1)
        assert not assert_alpha_theta_exact_or_skip(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_against_brute_force(self, seed):
        n = 4 + seed % 8
        g = random_graph(n, 0.15 + (seed % 5) * 0.18, seed)
        assert_alpha_theta_exact_or_skip(g)
        assert domination_number(g) == brute_domination_number(g)

    def test_catalog_against_brute_force(self, small_catalog_graphs):
        checked = 0
        for desc, ig in small_catalog_graphs:
            g = ig.graph
            if not 0 < g.n <= 16:
                continue
            assert independence_number(g) == brute_independence_number(g), desc
            assert clique_cover_number(g) == brute_clique_cover_number(g), desc
            assert domination_number(g) == brute_domination_number(g), desc
            checked += 1
        assert checked >= 20


class TestSimplicialCover:
    """The certificate, and the skip it leaves for graphs without one."""

    def test_known_values(self):
        assert simplicial_cover(Graph(0)) == 0
        assert simplicial_cover(Graph(4)) == 4
        assert simplicial_cover(complete_graph(5)) == 1
        assert simplicial_cover(path_graph(4)) == 2
        assert simplicial_cover(cycle_graph(4)) is None
        # P5 is chordal, but the ends' cliques leave the middle vertex uncovered
        assert simplicial_cover(path_graph(5)) is None
        with pytest.raises(SkippedSizeCap):
            independence_number(path_graph(5))

    def test_decides_every_catalog_graph(self, catalog_240_and_products):
        # alpha = theta = number of prime-order subgroups; a graph without the
        # certificate would have alpha and theta skipped, so make it fail
        for desc, group, ig in catalog_240_and_products:
            assert simplicial_cover(ig.graph) == prime_order_subgroup_count(group), desc

    def test_simplicial_iff_one_prime_order_subgroup(self, catalog_240_and_products):
        """The fact the certificate rests on, checked vertex by vertex."""
        def prime(m):
            return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))

        for desc, _, ig in catalog_240_and_products:
            g = ig.graph
            primes = [p.mask for p in ig.vertices if prime(p.order)]
            for v, h in enumerate(ig.vertices):
                simplicial = g.is_clique_mask(g.adj[v] | 1 << v)
                below = sum(1 for p in primes if p | h.mask == h.mask)
                assert simplicial == (below == 1), (desc, h.generator)

    @pytest.mark.parametrize(
        "g", [cycle_graph(5), cycle_graph(7), petersen()], ids=["C5", "C7", "Petersen"]
    )
    def test_fallback_without_certificate(self, g):
        # alpha and theta are skipped with a note; gamma is still decided
        assert not assert_alpha_theta_exact_or_skip(g)
        r = compute_report(g)
        assert r.independence_number is None and r.clique_cover_number is None
        assert r.notes["independence_number"] == "no simplicial-cover certificate"
        assert r.notes["clique_cover_number"] == "no simplicial-cover certificate"
        assert r.weakly_alpha_perfect is None
        assert r.domination_number == brute_domination_number(g)
        assert "domination_number" not in r.notes

    def test_fallback_on_random_graphs(self):
        fell_back = 0
        for seed in range(60):
            g = random_graph(5 + seed % 8, 0.2 + (seed % 4) * 0.2, seed)
            fell_back += not assert_alpha_theta_exact_or_skip(g, seed)
        assert fell_back >= 20

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_certificate_is_exact(self, g):
        k = simplicial_cover(g)
        if k is not None:
            assert brute_independence_number(g) == brute_clique_cover_number(g) == k


class TestDominationCertificate:
    """The 2-packing certificate for gamma, and the search it leaves."""

    def test_known_values(self):
        assert domination_certificate(Graph(4)) == 4
        assert domination_certificate(complete_graph(5)) == 1
        assert domination_certificate(path_graph(4)) == 2
        assert domination_certificate(path_graph(5)) == 2
        assert domination_certificate(complete_bipartite(1, 6)) == 1

    def test_matches_brute_force_on_catalog(self, small_catalog_graphs):
        decided = 0
        for desc, ig in small_catalog_graphs:
            g = ig.graph
            if not 0 < g.n <= 16:
                continue
            k = domination_certificate(g)
            if k is not None:
                assert brute_domination_number(g) == k, desc
                decided += 1
        assert decided >= 20

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_certificate_is_exact(self, g):
        k = domination_certificate(g)
        if g.n and k is not None:
            assert brute_domination_number(g) == k

    def test_c7_falls_back_to_search(self):
        g = cycle_graph(7)
        closed = [a | 1 << v for v, a in enumerate(g.adj)]
        assert len(_two_packing(closed)) == 2
        assert domination_certificate(g) is None
        assert domination_number(g) == brute_domination_number(g) == 3

    def test_search_keeps_its_budget(self):
        g = random_graph(40, 0.5, seed=1)
        assert domination_certificate(g) is None
        with pytest.raises(SkippedSizeCap):
            domination_number(g, node_budget=10)

    @pytest.mark.parametrize(
        "spec, gamma",
        [
            ("Z(12)xZ(2)xZ(2)xZ(2)xZ(2)", 31),
            ("Z(6)xZ(6)xZ(2)xZ(2)", 15),
            ("S(5)", 31),
            ("Z(6)xZ(6)xZ(3)", 13),
        ],
    )
    def test_hard_groups_need_no_budget(self, spec, gamma):
        g = build(parse_spec(spec).realize()).graph
        assert domination_certificate(g) == gamma
        assert domination_number(g, node_budget=1) == gamma

    def test_no_skip_on_catalog_200(self):
        decided = 0
        for spec in default_catalog(200):
            g = build(spec.realize()).graph
            if g.n:
                domination_number(g, DEFAULT_NODE_BUDGET)  # SkippedSizeCap fails the test
                decided += 1
        assert decided == 494


class TestIsomorphism:
    def test_basic(self):
        assert graph_isomorphic(cycle_graph(5), cycle_graph(5))
        assert not graph_isomorphic(cycle_graph(5), path_graph(5))
        assert not graph_isomorphic(cycle_graph(5), cycle_graph(6))
        assert graph_isomorphic(complete_bipartite(3, 3), complete_bipartite(3, 3))

    def test_group_graphs(self):
        # Q8 and Z32 both give K4
        assert graph_isomorphic(build(dicyclic(2)).graph, build(cyclic(32)).graph)

    def test_same_degree_sequence_not_isomorphic(self):
        # C6 vs 2*C3: both 2-regular on six vertices
        g = cycle_graph(6)
        h = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert not graph_isomorphic(g, h)

    def test_shuffled_copy(self):
        rng = random.Random(3)
        g = random_graph(9, 0.4, seed=5)
        perm = list(range(9))
        rng.shuffle(perm)
        h = Graph(9, [(perm[u], perm[v]) for u, v in g.edges()])
        assert graph_isomorphic(g, h)

    def test_size_cap(self):
        g = Graph(40)
        with pytest.raises(SkippedSizeCap):
            graph_isomorphic(g, g, size_cap=32)


class TestReport:
    def test_complete_graph_report(self):
        r = compute_report(complete_graph(4))
        d = r.to_dict()
        assert d["vertex_count"] == 4 and d["edge_count"] == 6
        assert d["is_complete"] and d["is_regular"]
        assert d["girth"] == 3
        assert d["independence_number"] == 1
        assert d["weakly_alpha_perfect"] is True

    def test_empty_graph_report(self):
        r = compute_report(Graph(0))
        d = r.to_dict()
        assert d["girth"] == "inf"
        assert d["is_regular"] is None
        assert d["domination_number"] is None
        assert "undefined" in d["notes"]["is_regular"]

    def test_skip_notes(self):
        g = random_graph(45, 0.5, seed=2)
        r = compute_report(g, node_budget=10)
        assert r.independence_number is None
        assert r.notes["independence_number"] == "no simplicial-cover certificate"
        assert r.notes["domination_number"] == "solver node budget exhausted"


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_alpha_le_theta_and_brute(self, g):
        assert brute_independence_number(g) <= brute_clique_cover_number(g)
        assert_alpha_theta_exact_or_skip(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_girth_infinite_iff_acyclic(self, g):
        assert (girth(g) == INF) == is_acyclic(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_shape_consistency(self, g):
        if is_cycle(g):
            assert not is_acyclic(g) and girth(g) == g.n
        if is_path(g):
            assert is_acyclic(g) and is_bipartite(g)
        if is_star(g):
            assert is_acyclic(g) and is_connected(g)
        if is_totally_disconnected(g) and g.n:
            assert is_acyclic(g) and not has_triangle(g)
        if has_triangle(g):
            assert girth(g) == 3

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=8), st.randoms(use_true_random=False))
    def test_iso_invariance_of_solvers(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert graph_isomorphic(g, h)
        # the certificate, and whether one exists, does not depend on labels
        assert alpha_or_skip(g) == alpha_or_skip(h)
        if g.n:
            assert domination_number(g) == domination_number(h)
