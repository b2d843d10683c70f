import random
from collections import Counter

import pytest

from conftest import PRODUCTS, write_table_file
from cycgraph import subgroups
from cycgraph.groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    from_permutation_generators,
    read_cayley_file,
    read_permutation_file,
    relabel,
    symmetric,
)
from cycgraph.graphs import build
from cycgraph.specs import parse_spec
from cycgraph.subgroups import (
    CyclicSubgroup,
    cyclic_subgroup_orders,
    cyclic_subgroups,
    maximal_among,
    maximal_cyclic_subgroups,
    prime_order_subgroup_count,
    vertex_count,
)
from cycgraph.theorems import default_catalog


def _walk_subgroups(group):
    """The oracle: the vertices read off ``group``'s own power walk, which
    multiplies by ``group.mul`` and shares no code with the family rows."""
    return subgroups._proper_subgroups(subgroups._walk_powers(group), group.order)


class TestEnumeration:
    def test_trivial_and_prime_groups_have_none(self):
        assert cyclic_subgroups(cyclic(1)) == []
        assert cyclic_subgroups(cyclic(7)) == []

    def test_z32(self):
        subs = cyclic_subgroups(cyclic(32))
        assert [s.order for s in subs] == [2, 4, 8, 16]

    def test_q8(self):
        subs = cyclic_subgroups(dicyclic(2))
        assert [s.order for s in subs] == [2, 4, 4, 4]

    def test_a5(self):
        subs = cyclic_subgroups(alternating(5))
        counts = {}
        for s in subs:
            counts[s.order] = counts.get(s.order, 0) + 1
        assert counts == {2: 15, 3: 10, 5: 6}
        assert len(subs) == 31

    @pytest.mark.parametrize("n", list(range(2, 120)) + [360, 1024, 1800])
    def test_cyclic_count_is_tau_minus_two(self, n):
        tau = sum(n % d == 0 for d in range(1, n + 1))  # divisors counted by trial
        assert len(cyclic_subgroups(cyclic(n))) == tau - 2

    @pytest.mark.parametrize("alpha", [3, 4, 5])
    def test_dicyclic_count(self, alpha):
        g = dicyclic(2 ** (alpha - 2))
        assert len(cyclic_subgroups(g)) == 2 ** (alpha - 2) + alpha - 1

    def test_subgroups_are_closed_and_distinct(self):
        for group in (cyclic(24), dicyclic(3), parse_spec("Z(3)xZ(3)").realize()):
            subs = cyclic_subgroups(group)
            assert len({s.elements for s in subs}) == len(subs)
            for s in subs:
                assert 1 < s.order < group.order
                assert group.identity in s.elements
                els = set(s.elements)
                assert all(group.mul(a, b) in els for a in els for b in els)

    def test_canonical_generator_is_smallest(self):
        for s in cyclic_subgroups(cyclic(36)):
            # in Z_n the subgroup of order m is generated by n/m, its
            # smallest non-identity element
            assert s.generator == 36 // s.order
            assert s.generator == sorted(s.elements)[1]

    def test_deterministic_ordering(self):
        g = direct_product(cyclic(4), cyclic(4))
        a = cyclic_subgroups(g)
        b = cyclic_subgroups(g)
        assert a == b
        assert [s.order for s in a] == sorted(s.order for s in a)

    def test_containment_helper(self):
        subs = cyclic_subgroups(cyclic(16))
        by_order = {s.order: s for s in subs}
        assert set(by_order[2].elements) <= set(by_order[8].elements)
        assert not set(by_order[8].elements) <= set(by_order[2].elements)


class TestVertexRecord:
    """A vertex is an immutable value: its fields are fixed, and equality, hash
    and repr are those of (generator, elements, order)."""

    def test_fields_cannot_be_assigned(self):
        s = CyclicSubgroup(1, (0, 1), 2)
        for name in ("generator", "elements", "order"):
            with pytest.raises(AttributeError):
                setattr(s, name, 0)
        with pytest.raises(AttributeError):
            s.extra = 0  # no per-instance attributes either
        assert s == CyclicSubgroup(1, (0, 1), 2)

    def test_repr_eq_and_hash(self):
        s = cyclic_subgroups(cyclic(12))[1]
        assert repr(s) == "CyclicSubgroup(generator=4, elements=(0, 4, 8), order=3)"
        assert s == CyclicSubgroup(generator=4, elements=(0, 4, 8), order=3)
        assert s != CyclicSubgroup(4, (0, 4, 8), 6)
        assert hash(s) == hash(CyclicSubgroup(4, (0, 4, 8), 3)) == hash((4, (0, 4, 8), 3))
        assert len({s, CyclicSubgroup(4, (0, 4, 8), 3)}) == 1


class TestClosedForms:
    """The family closed forms against the power walk, which shares none of their code."""

    def test_catalog_families_match_the_walk(self):
        families = 0
        for spec in default_catalog(400):
            if spec.kind in ("cyclic", "dihedral", "dicyclic"):
                group = spec.realize()
                assert group.family == (spec.kind, spec.params[0]), spec.descriptor
                assert cyclic_subgroups(group) == _walk_subgroups(group), spec.descriptor
                families += 1
        assert families == 696  # 399 Z(n), 198 D(n), 99 Dic(m)

    @pytest.mark.parametrize("group", [
        cyclic(1), cyclic(2), cyclic(13), cyclic(64), cyclic(81),
        dihedral(1), dihedral(2), dicyclic(2), dicyclic(3),
    ], ids=repr)
    def test_edge_parameters_match_the_walk(self, group):
        assert cyclic_subgroups(group) == _walk_subgroups(group)

    def test_edge_parameter_counts(self):
        assert cyclic_subgroups(dihedral(1)) == []             # D(1) = Z(2)
        assert [s.elements for s in cyclic_subgroups(dihedral(2))] == [(0, 1), (0, 2), (0, 3)]
        assert len(cyclic_subgroups(dicyclic(3))) == 3 + 3     # <a> of order 2, 3, 6; three <a^i b>

    def test_other_groups_take_the_walk(self, monkeypatch):
        walked = []
        walk_powers = subgroups._walk_powers

        def walk(group):
            walked.append(group)
            return walk_powers(group)

        monkeypatch.setattr(subgroups, "_walk_powers", walk)
        perm = list(range(12))
        random.Random(6).shuffle(perm)
        others = [
            relabel(dihedral(6), perm),
            # a descriptor string never picks a closed form
            FiniteGroup(12, lambda a, b: (a + b) % 12, 0, "Z(12)"),
        ]
        for group in others:
            assert group.family is None
            cyclic_subgroups(group)
        product = direct_product(cyclic(4), cyclic(2))
        assert product.family[0] == "product"
        cyclic_subgroups(product)
        assert walked == others


def _cyclic_permutation_group(n):
    """Z(n) as the closure of one n-cycle: cyclic, with no family."""
    return from_permutation_generators(n, [tuple(range(1, n)) + (0,)], "perm:Z")


PRODUCT_GROUPS = [
    # non-abelian factors
    direct_product(dihedral(3), cyclic(2)),
    direct_product(dihedral(4), dihedral(3)),
    direct_product(dicyclic(2), cyclic(4)),
    direct_product(symmetric(4), cyclic(3)),
    direct_product(alternating(4), alternating(4)),
    direct_product(dicyclic(3), dihedral(5)),
    direct_product(cyclic(6), dicyclic(2)),
    # cyclic as a whole, so G itself is no vertex
    direct_product(cyclic(2), cyclic(3)),
    # nested on the right
    direct_product(cyclic(2), direct_product(cyclic(3), cyclic(2))),
    # cyclic factors not made by cyclic(): their whole group is still a subgroup
    direct_product(dihedral(1), cyclic(2)),
    direct_product(relabel(cyclic(4), [2, 0, 3, 1]), cyclic(2)),
    direct_product(_cyclic_permutation_group(5), cyclic(2)),
]


class TestProductClosedForm:
    """The direct-product closed form against the power walk on the product's own rule."""

    def test_catalog_products_match_the_walk(self):
        products = 0
        for spec in default_catalog(400):
            if spec.kind == "product":
                group = spec.realize()
                assert group.family[0] == "product", spec.descriptor
                assert cyclic_subgroups(group) == _walk_subgroups(group), spec.descriptor
                products += 1
        assert products == 410

    @pytest.mark.parametrize("group", PRODUCT_GROUPS, ids=repr)
    def test_products_match_the_walk(self, group):
        assert cyclic_subgroups(group) == _walk_subgroups(group)

    def test_family_factors_are_never_multiplied(self):
        group = direct_product(direct_product(cyclic(12), dihedral(3)), dicyclic(2))
        expected = _walk_subgroups(group)
        calls = []
        mul = group.mul

        def counted(a, b):
            calls.append((a, b))
            return mul(a, b)

        group.mul = counted
        assert cyclic_subgroups(group) == expected
        assert calls == []


def assert_count_matches_enumeration(group):
    """The count by order against the listing of every subgroup: the vertex
    count and the vertices' orders against ``cyclic_subgroups``, and every
    order, the trivial subgroup and G included, against the group's own walk."""
    counts = cyclic_subgroup_orders(group)
    listed = cyclic_subgroups(group)
    assert vertex_count(group) == len(listed), group.descriptor
    proper = Counter({d: k for d, k in counts.items() if 1 < d < group.order})
    assert proper == Counter(s.order for s in listed), group.descriptor
    walked = Counter(len(p) for p in subgroups._walk_powers(group))
    assert sum(counts.values()) == sum(walked.values()), group.descriptor
    assert counts == walked, group.descriptor


class TestOrderCounts:
    """``cyclic_subgroup_orders`` and ``vertex_count`` count what the enumeration lists."""

    def test_catalog(self):
        for spec in default_catalog(720):
            assert_count_matches_enumeration(spec.realize())

    @pytest.mark.parametrize("spec", PRODUCTS)
    def test_conftest_products(self, spec):
        assert_count_matches_enumeration(parse_spec(spec).realize())

    @pytest.mark.parametrize("group", PRODUCT_GROUPS, ids=repr)
    def test_products(self, group):
        assert_count_matches_enumeration(group)

    @pytest.mark.parametrize("group", [
        # the trivial group's one cyclic subgroup is both the trivial one and G
        cyclic(1), symmetric(1), alternating(2), dihedral(1), dihedral(2), dicyclic(2),
    ], ids=repr)
    def test_edge_cases(self, group):
        assert_count_matches_enumeration(group)

    def test_groups_without_a_family(self, tmp_path):
        perm = list(range(24))
        random.Random(3).shuffle(perm)
        table = tmp_path / "dic3xz2.txt"
        write_table_file(direct_product(dicyclic(3), cyclic(2)), table)
        gens = tmp_path / "d5.txt"
        gens.write_text("5\n(0 1 2 3 4)\n(1 4)(2 3)\n")
        others = [relabel(direct_product(dihedral(6), cyclic(2)), perm),
                  read_cayley_file(str(table)), read_permutation_file(str(gens))]
        for group in others:
            assert group.family is None
            assert_count_matches_enumeration(group)

    def test_a_family_needs_only_its_powers_row(self, monkeypatch):
        # a kind whose _FAMILIES row has only its powers is listed and counted
        # off them, alone and as a factor, as the same rule walked with no family
        monkeypatch.setitem(subgroups._FAMILIES, "reflections",
                            subgroups._Family(subgroups._dihedral_powers))
        d = dihedral(6)
        row = FiniteGroup(d.order, d.mul, d.identity, "R(6)", ("reflections", 6))
        for group in (row, direct_product(row, cyclic(2)), direct_product(row, dihedral(3))):
            walked = FiniteGroup(group.order, group.mul, group.identity, group.descriptor)
            for f in (cyclic_subgroups, cyclic_subgroup_orders, vertex_count):
                assert f(group) == f(walked), (group.descriptor, f.__name__)


class TestFamilyRows:
    """Each ``_FAMILIES`` row's optional fast paths against its own powers."""

    def test_fast_paths_equal_the_rows_powers(self):
        groups = [spec.realize() for spec in default_catalog(400)]
        groups += [parse_spec(spec).realize() for spec in PRODUCTS]
        met = set()
        for group in groups:
            if group.family is None:
                continue
            kind, p = group.family
            row = subgroups._FAMILIES[kind]
            if row.listed is not None:
                listed = subgroups._proper_subgroups(row.powers(p), group.order)
                assert row.listed(p) == listed, group.descriptor
            if row.counted is not None:
                assert row.counted(p) == Counter(map(len, row.powers(p))), group.descriptor
            met.add(kind)
        assert met == set(subgroups._FAMILIES)


class TestPrimeOrderCount:
    def test_prime_power_cyclic(self):
        for p in (2, 3, 5):
            for alpha in (2, 3, 4):
                assert prime_order_subgroup_count(cyclic(p**alpha)) == 1

    def test_elementary_abelian_rank_two(self):
        for p in (2, 3, 5):
            assert prime_order_subgroup_count(parse_spec(f"Z({p})xZ({p})").realize()) == p + 1

    def test_z30(self):
        assert prime_order_subgroup_count(cyclic(30)) == 3

    def test_prime_group(self):
        # Z_p itself has no proper nontrivial subgroup at all
        assert prime_order_subgroup_count(cyclic(7)) == 0

    def test_matches_element_count_identity(self):
        # m = sum over primes p of (#elements of order p) / (p - 1)
        for group in (cyclic(60), dicyclic(4), alternating(5)):
            mul = group.mul
            per_prime = {}
            for g in range(group.order):
                k, x = 1, g
                while x != group.identity:
                    x = mul(x, g)
                    k += 1
                if k > 1 and all(k % d for d in range(2, k)):
                    per_prime[k] = per_prime.get(k, 0) + 1
            expected = sum(c // (p - 1) for p, c in per_prime.items())
            assert prime_order_subgroup_count(group) == expected


class TestMaximal:
    def test_q8(self):
        maxs = maximal_cyclic_subgroups(dicyclic(2))
        assert [s.order for s in maxs] == [4, 4, 4]

    def test_klein(self):
        maxs = maximal_cyclic_subgroups(parse_spec("Z(2)xZ(2)").realize())
        assert [s.order for s in maxs] == [2, 2, 2]

    def test_z12(self):
        assert sorted(s.order for s in maximal_cyclic_subgroups(cyclic(12))) == [4, 6]

    def test_prime_group_has_none(self):
        assert maximal_cyclic_subgroups(cyclic(5)) == []

    def test_maximality(self):
        for group in (cyclic(48), dicyclic(3), alternating(4)):
            subs = cyclic_subgroups(group)
            maxs = maximal_cyclic_subgroups(group)
            for m in maxs:
                assert not any(s != m and set(m.elements) <= set(s.elements) for s in subs)
            for s in subs:
                if s not in maxs:
                    assert any(set(s.elements) <= set(m.elements) for m in maxs)

    def test_maximal_among_graph_vertices(self):
        # the graph's vertices are the same subgroups, so no second enumeration
        for group in (cyclic(48), dicyclic(3), alternating(4), direct_product(cyclic(4), cyclic(2))):
            assert maximal_among(build(group).vertices) == maximal_cyclic_subgroups(group)

    def test_maximal_among_matches_pairwise_definition(self):
        for spec in default_catalog(120):
            subs = build(spec.realize()).vertices
            pairwise = [s for s in subs
                        if not any(t is not s and set(s.elements) <= set(t.elements) for t in subs)]
            assert maximal_among(subs) == pairwise, spec.descriptor
