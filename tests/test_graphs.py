import random

import pytest

from conftest import (
    PRODUCTS,
    by_divisor,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    divisor_gcd_graph,
    pairwise_adjacency,
    path_graph,
    petersen,
    write_table_file,
)
from cycgraph.arith import exponent_divisors, factorize, is_prime
from cycgraph.errors import VertexCapExceeded
from cycgraph.graphs import Graph, bits, build, zn_divisor_graph
from cycgraph.groups import (
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    read_cayley_file,
    read_permutation_file,
    relabel,
    symmetric,
)
from cycgraph.invariants import compute_report
from cycgraph.specs import parse_spec
from cycgraph.subgroups import prime_order_subgroup_count
from cycgraph.theorems import default_catalog


class TestGraph:
    def test_bits(self):
        assert list(bits(0b1011)) == [0, 1, 3]
        assert list(bits(0)) == []

    def test_edges_and_degrees(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert g.edge_count() == 2
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.degrees() == [1, 2, 1, 0]

    def test_edges_match_the_filtered_walk(self):
        # the upper-triangle walk lists the same pairs in the same order as
        # walking every row and keeping u < v
        def filtered(g):
            return [(u, v) for u in range(g.n) for v in bits(g.adj[u]) if u < v]

        rng = random.Random(7)
        graphs = [Graph(0), Graph(1), complete_graph(9), petersen()]
        for n in (2, 5, 17, 64, 65, 130):
            for p in (0.05, 0.3, 0.9):
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                graphs.append(Graph(n, pairs))
        graphs += [build(spec.realize()).graph for spec in default_catalog(60)]
        for g in graphs:
            assert g.edges() == filtered(g)

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    @pytest.mark.parametrize("u, v, bad", [(-1, 0, -1), (0, -1, -1), (0, 5, 5), (5, 0, 5), (3, 1, 3)])
    def test_out_of_range_edge_writes_nothing(self, u, v, bad):
        # both ends are checked before either row is written: no one-sided edge
        g = Graph(3, [(1, 2)])
        with pytest.raises(IndexError, match=f"^vertex {bad} out of range$"):
            g.add_edge(u, v)
        assert g.adj == [0, 0b100, 0b010]
        assert g.edges() == [(1, 2)] and g.degrees() == [0, 1, 1]
        assert compute_report(g).edge_count == 1

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(-2)
        assert Graph(0).adj == []

    def test_adjacency_symmetric(self):
        g = cycle_graph(7)
        for u in range(7):
            for v in bits(g.adj[u]):
                assert g.adj[v] >> u & 1

    def test_complement(self):
        g = complement(path_graph(4))
        assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 3)]
        k = complement(complete_graph(5))
        assert k.edge_count() == 0

    def test_components_and_subgraph(self):
        g = disjoint_union(complete_graph(3), path_graph(2))
        masks = g.component_masks()
        assert sorted(bin(m).count("1") for m in masks) == [2, 3]

    def test_is_clique_mask(self):
        g = complete_graph(4)
        assert g.is_clique_mask(0b1111)
        h = path_graph(3)
        assert h.is_clique_mask(0b011)
        assert not h.is_clique_mask(0b101)

    def test_constructors(self):
        assert complete_graph(5).edge_count() == 10
        assert complete_bipartite(3, 3).edge_count() == 9
        assert cycle_graph(6).edge_count() == 6
        assert path_graph(6).edge_count() == 5

    def test_equality_and_hash(self):
        assert cycle_graph(4) == cycle_graph(4)
        assert cycle_graph(4) != path_graph(4)
        with pytest.raises(TypeError):  # add_edge changes a Graph, so it is unhashable
            hash(Graph(2))


class TestBuild:
    def test_q8_is_k4(self):
        ig = build(dicyclic(2))
        assert ig.n == 4
        assert ig.graph == complete_graph(4)

    def test_prime_group_is_empty(self):
        assert build(cyclic(5)).n == 0

    def test_elementary_abelian_edgeless(self):
        ig = build(parse_spec("Z(3)xZ(3)").realize())
        assert ig.n == 4
        assert ig.graph.edge_count() == 0

    def test_z30_degrees(self):
        ig = build(cyclic(30))
        by_order = {v.order: i for i, v in enumerate(ig.vertices)}
        # <5> has order 6 and meets <15>, <10>, <3>, <1 of order 15>... i.e.
        # every vertex sharing a prime with 6 except itself: degree 4
        degrees = ig.graph.degrees()
        assert degrees[by_order[6]] == 4
        assert degrees[by_order[2]] == 2

    def test_determinism(self):
        a = build(cyclic(360))
        b = build(cyclic(360))
        assert a.vertices == b.vertices
        assert a.graph == b.graph

    def test_vertex_cap(self):
        with pytest.raises(VertexCapExceeded):
            build(cyclic(360), vertex_cap=5)

    def test_source_descriptor(self):
        assert build(dicyclic(2)).source_descriptor == "Dic(2)"

    def test_primes_are_the_prime_order_vertices(self, tmp_path):
        perm = list(range(24))
        random.Random(5).shuffle(perm)
        table = tmp_path / "dic3xz2.txt"
        write_table_file(direct_product(dicyclic(3), cyclic(2)), table)
        gens = tmp_path / "d5.txt"
        gens.write_text("5\n(0 1 2 3 4)\n(1 4)(2 3)\n")
        specs = [*default_catalog(400), *map(parse_spec, PRODUCTS)]
        others = [relabel(direct_product(dihedral(6), cyclic(2)), perm),
                  read_cayley_file(str(table)), read_permutation_file(str(gens))]
        for group in [spec.realize() for spec in specs] + others:
            ig = build(group)
            want = tuple(v for v, s in enumerate(ig.vertices) if is_prime(s.order))
            assert ig.primes == want, group.descriptor
            assert len(ig.primes) == prime_order_subgroup_count(group), group.descriptor

    def test_matches_pairwise_oracle(self, catalog_240_and_products):
        graphs = [(desc, ig) for desc, _, ig in catalog_240_and_products]
        graphs += [("S(6)", build(symmetric(6))),
                   ("Z(2)^9", build(parse_spec("x".join(["Z(2)"] * 9)).realize()))]
        for desc, ig in graphs:
            assert ig.graph == pairwise_adjacency(ig.vertices), desc


class TestDivisorOracle:
    def test_vertices(self):
        # exponent order: 12 = 2^2 * 3, so 3 = (0, 1), 2 = (1, 0), 6 = (1, 1), 4 = (2, 0)
        divs, g = zn_divisor_graph(12)
        assert divs == [3, 2, 6, 4]
        assert g.n == 4
        assert by_divisor(divs, g) == divisor_gcd_graph(12)
        for n in range(1, 3001):
            divs, _ = zn_divisor_graph(n)
            assert divs == exponent_divisors(factorize(n))[1:-1], n

    def test_adjacency_is_gcd(self):
        # divisors and every row under d -> d, against the pairwise gcd definition
        for n in range(1, 3001):
            assert by_divisor(*zn_divisor_graph(n)) == divisor_gcd_graph(n), n

    @pytest.mark.parametrize("n", list(range(2, 200)) + [512, 1024, 1800])
    def test_matches_element_level_build(self, n):
        divs, oracle = zn_divisor_graph(n)
        ig = build(cyclic(n))
        assert ig.n == oracle.n
        # the divisor label is the subgroup order: <n/d> has order d
        assert sorted(divs) == sorted(v.order for v in ig.vertices)
        perm = {i: divs.index(v.order) for i, v in enumerate(ig.vertices)}
        for u, v in ig.graph.edges():
            assert oracle.adj[perm[u]] >> perm[v] & 1
        assert ig.graph.edge_count() == oracle.edge_count()
