import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PRODUCTS,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    kuratowski_oracle,
    path_graph,
    petersen,
)
from cycgraph.errors import SkippedSizeCap
from cycgraph.graphs import Graph, build
from cycgraph.groups import cyclic, direct_product
from cycgraph.planarity import is_planar
from cycgraph.specs import parse_spec
from cycgraph.theorems import default_catalog


def octahedron() -> Graph:
    # K6 minus a perfect matching
    g = complete_graph(6)
    h = Graph(6)
    for u, v in g.edges():
        if (u, v) not in ((0, 1), (2, 3), (4, 5)):
            h.add_edge(u, v)
    return h


def wheel_on_odd_labels(with_k33: bool) -> Graph:
    """A 5-vertex wheel on the odd labels 1..9 (hub 1), beside a K3,3 on the
    even labels 0..10 when asked; vertex 11 is isolated.  Both components
    pass the Euler bound, so the embedding test sees their interleaved labels."""
    rim = [3, 5, 7, 9]
    edges = [(1, r) for r in rim] + [(r, rim[i - 1]) for i, r in enumerate(rim)]
    if with_k33:
        edges += [(u, v) for u in (0, 2, 4) for v in (6, 8, 10)]
    return Graph(12, edges)


def networkx_planar(g: Graph) -> bool:
    """networkx's left-right embedding test on the whole graph: a test-only oracle."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.check_planarity(h, counterexample=False)[0]


def random_triangulation(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """The edges of a random maximal planar graph on n >= 3 vertices: each new
    vertex goes into a random triangle, then 2n random edge flips mix it."""
    third: dict[tuple[int, int], int] = {}  # directed edge -> the rest of its face

    def face(a, b, c, add=True):
        for e, x in (((a, b), c), ((b, c), a), ((c, a), b)):
            if add:
                third[e] = x
            else:
                del third[e]

    face(0, 1, 2)
    face(0, 2, 1)
    for v in range(3, n):
        a, b = rng.choice(list(third))
        c = third[a, b]
        face(a, b, c, add=False)
        face(a, b, v)
        face(b, c, v)
        face(c, a, v)
    for _ in range(2 * n):
        a, b = rng.choice(list(third))
        c, d = third[a, b], third[b, a]
        if c == d or (c, d) in third:
            continue
        face(a, b, c, add=False)
        face(b, a, d, add=False)
        face(c, a, d)
        face(d, b, c)
    return {(a, b) for a, b in third if a < b}


def subdivided(g: Graph, times: int) -> Graph:
    """g with every edge replaced by a path through ``times`` new vertices."""
    edges, n = [], g.n
    for u, v in g.edges():
        path = [u, *range(n, n + times), v]
        n += times
        edges += zip(path, path[1:])
    return Graph(n, edges)


def with_attachments(g: Graph, paths: bool = True, tree: bool = True, isolated: int = 0) -> Graph:
    """g with a pendant path of 3 edges at vertex 0 and one of 1 edge at vertex
    1, a pendant binary tree of depth 2 at vertex 2, and isolated vertices, as
    asked; none of them changes planarity."""
    edges, n = g.edges(), g.n
    if paths:
        edges += [(0, n), (n, n + 1), (n + 1, n + 2), (1, n + 3)]
        n += 4
    if tree:
        edges += [(2, n), (n, n + 1), (n, n + 2), (n + 1, n + 3), (n + 1, n + 4), (n + 2, n + 5)]
        n += 6
    return Graph(n + isolated, edges)


def grid(rows: int, cols: int) -> Graph:
    return Graph(rows * cols, [
        (r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)
    ] + [
        (r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)
    ])


PLANAR = [
    Graph(0),
    Graph(1),
    complete_graph(4),
    complete_bipartite(2, 3),
    cycle_graph(9),
    path_graph(8),
    octahedron(),
    disjoint_union(complete_graph(4), complete_graph(4)),
    wheel_on_odd_labels(with_k33=False),
]
NONPLANAR = [
    complete_graph(5),
    complete_bipartite(3, 3),
    petersen(),
    disjoint_union(complete_graph(5), path_graph(3)),
    complete_graph(6),
    wheel_on_odd_labels(with_k33=True),
]


class TestIsPlanar:
    @pytest.mark.parametrize("g", PLANAR)
    def test_planar(self, g):
        assert is_planar(g)

    @pytest.mark.parametrize("g", NONPLANAR)
    def test_nonplanar(self, g):
        assert not is_planar(g)

    def test_large_sparse_components_are_decided(self):
        # single components past any Euler short-circuit go to the embedding test
        assert is_planar(cycle_graph(3000))
        k5_path = Graph(2505, complete_graph(5).edges())
        for v in range(4, 2504):
            k5_path.add_edge(v, v + 1)
        assert len(k5_path.component_masks()) == 1
        assert k5_path.edge_count() <= 3 * 2505 - 6
        assert not is_planar(k5_path)


class TestBlocksWithLowDegrees:
    """Blocks holding degree-2 vertices, and bridges and pendant trees, reach
    the block split and the path-addition test as they are; each verdict is
    checked against its known value and against networkx."""

    @pytest.mark.parametrize("times", [1, 2])
    @pytest.mark.parametrize("base", [complete_graph(5), complete_bipartite(3, 3)], ids=["K5", "K33"])
    @pytest.mark.parametrize("attach", [
        {"paths": False, "tree": False},
        {"paths": True, "tree": False},
        {"paths": False, "tree": True},
        {"paths": True, "tree": True, "isolated": 3},
    ], ids=["alone", "paths", "tree", "all"])
    def test_subdivided_kuratowski_graphs(self, base, times, attach):
        g = with_attachments(subdivided(base, times), **attach)
        assert not is_planar(g)
        assert not networkx_planar(g)

    @pytest.mark.parametrize("g", [
        subdivided(complete_graph(4), 1),
        subdivided(complete_graph(4), 2),
        subdivided(octahedron(), 1),
        with_attachments(subdivided(octahedron(), 2), isolated=2),
        with_attachments(grid(4, 4)),
    ], ids=["K4-1", "K4-2", "octahedron-1", "octahedron-2-attached", "grid-attached"])
    def test_planar(self, g):
        assert is_planar(g)
        assert networkx_planar(g)


class TestKuratowskiOracle:
    @pytest.mark.parametrize("g", [h for h in PLANAR if h.n <= 12])
    def test_planar(self, g):
        assert kuratowski_oracle(g)

    @pytest.mark.parametrize("g", [h for h in NONPLANAR if h.n <= 12])
    def test_nonplanar(self, g):
        assert not kuratowski_oracle(g)

    def test_subdivided_k5_is_caught(self):
        # subdivide one edge of K5: still nonplanar, now 6 vertices
        g = complete_graph(5)
        g.adj[0] &= ~(1 << 1)
        g.adj[1] &= ~(1 << 0)
        h = Graph(6, g.edges() + [(0, 5), (1, 5)])
        assert not kuratowski_oracle(h)

    def test_size_cap(self):
        with pytest.raises(SkippedSizeCap):
            kuratowski_oracle(complete_graph(13))

    def test_big_planar_components_escape_cap(self):
        # caps apply per component, so two 9-vertex cycles are fine at cap 12
        g = disjoint_union(cycle_graph(9), cycle_graph(9))
        assert kuratowski_oracle(g)


class TestDualRouteAgreement:
    def test_catalog(self, small_catalog_graphs):
        checked = 0
        for desc, ig in small_catalog_graphs:
            g = ig.graph
            if g.n > 12:
                continue
            assert is_planar(g) == kuratowski_oracle(g), desc
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("seed", range(60))
    def test_random(self, seed):
        rng = random.Random(seed)
        n = 5 + seed % 8
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    g.add_edge(u, v)
        assert is_planar(g) == kuratowski_oracle(g)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**36 - 1))
    def test_hypothesis_nine_vertices(self, edge_bits):
        pairs = [(u, v) for u in range(9) for v in range(u + 1, 9)]
        g = Graph(9, [p for i, p in enumerate(pairs) if edge_bits >> i & 1])
        assert is_planar(g) == kuratowski_oracle(g)


class TestNetworkxOracle:
    """is_planar against networkx's embedding test, on graphs that reach the
    path-addition test: those of the conftest products hold blocks of up to
    36 edges, and most are not planar."""

    def test_group_graphs(self):
        specs = [*default_catalog(400), *map(parse_spec, [*PRODUCTS, "S(6)", "A(7)", "D(6)xD(6)"])]
        verdicts = set()
        for spec in specs:
            g = build(spec.realize()).graph
            verdict = is_planar(g)
            assert verdict == networkx_planar(g), spec.descriptor
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_random_graphs(self):
        rng = random.Random(2015)
        verdicts = []
        for _ in range(400):
            n = rng.randint(5, 14)
            p = rng.uniform(0.15, 0.6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            verdicts.append(is_planar(g))
            assert verdicts[-1] == networkx_planar(g), g.edges()
        assert 100 <= sum(verdicts) <= 300

    def test_random_triangulations(self):
        # delete up to a third of the edges, add one or two, and relabel; nearly
        # all reach the path-addition test, and most of them are then not planar
        rng = random.Random(1964)
        verdicts = []
        for _ in range(150):
            n = rng.randint(5, 120)
            edges = sorted(random_triangulation(rng, n))
            assert len(edges) == 3 * n - 6
            rng.shuffle(edges)
            kept = set(edges[rng.randint(0, len(edges) // 3):])
            for _ in range(rng.randint(1, 2)):
                u, v = sorted(rng.sample(range(n), 2))
                kept.add((u, v))
            label = rng.sample(range(n), n)
            g = Graph(n, [(label[u], label[v]) for u, v in kept])
            verdicts.append(is_planar(g))
            assert verdicts[-1] == networkx_planar(g), g.edges()
        assert 10 <= sum(verdicts) <= 140


class TestGroupGraphs:
    def test_z4_x_z4_planar(self):
        g = build(direct_product(cyclic(4), cyclic(4))).graph
        assert is_planar(g) and kuratowski_oracle(g)

    def test_z25_x_z5_nonplanar(self):
        # contains K6 (six order-25 subgroups sharing an order-5 core)
        g = build(direct_product(cyclic(25), cyclic(5))).graph
        assert not is_planar(g)

    def test_z8_x_z2_nonplanar(self):
        g = build(direct_product(cyclic(8), cyclic(2))).graph
        assert not is_planar(g) and not kuratowski_oracle(g)

    def test_z9_x_z3_planar(self):
        g = build(direct_product(cyclic(9), cyclic(3))).graph
        assert is_planar(g) and kuratowski_oracle(g)
