import random

import pytest

from cycgraph import subgroups
from cycgraph.arith import tau
from cycgraph.groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    relabel,
)
from cycgraph.graphs import build
from cycgraph.subgroups import (
    CyclicSubgroup,
    _walk_subgroups,
    cyclic_subgroups,
    maximal_among,
    maximal_cyclic_subgroups,
    prime_order_subgroup_count,
)
from cycgraph.theorems import default_catalog


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
        assert len(cyclic_subgroups(cyclic(n))) == tau(n) - 2

    @pytest.mark.parametrize("alpha", [3, 4, 5])
    def test_dicyclic_count(self, alpha):
        g = dicyclic(2 ** (alpha - 2))
        assert len(cyclic_subgroups(g)) == 2 ** (alpha - 2) + alpha - 1

    def test_subgroups_are_closed_and_distinct(self):
        for group in (cyclic(24), dicyclic(3), elementary_abelian(3, 2)):
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
        assert by_order[8].contains(by_order[2])
        assert not by_order[2].contains(by_order[8])


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

        def walk(group):
            walked.append(group)
            return _walk_subgroups(group)

        monkeypatch.setattr(subgroups, "_walk_subgroups", walk)
        perm = list(range(12))
        random.Random(6).shuffle(perm)
        others = [
            relabel(dihedral(6), perm),
            direct_product(cyclic(4), cyclic(2)),
            # a descriptor string never picks a closed form
            FiniteGroup(12, lambda a, b: (a + b) % 12, 0, "Z(12)"),
        ]
        for group in others:
            assert group.family is None
            cyclic_subgroups(group)
        assert walked == others


class TestPrimeOrderCount:
    def test_prime_power_cyclic(self):
        for p in (2, 3, 5):
            for alpha in (2, 3, 4):
                assert prime_order_subgroup_count(cyclic(p**alpha)) == 1

    def test_elementary_abelian_rank_two(self):
        for p in (2, 3, 5):
            assert prime_order_subgroup_count(elementary_abelian(p, 2)) == p + 1

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
        maxs = maximal_cyclic_subgroups(elementary_abelian(2, 2))
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
                assert not any(s != m and s.contains(m) for s in subs)
            for s in subs:
                if s not in maxs:
                    assert any(m.contains(s) for m in maxs)

    def test_maximal_among_graph_vertices(self):
        # the graph's vertices are the same subgroups, so no second enumeration
        for group in (cyclic(48), dicyclic(3), alternating(4), direct_product(cyclic(4), cyclic(2))):
            assert maximal_among(build(group).vertices) == maximal_cyclic_subgroups(group)

    def test_maximal_among_matches_pairwise_definition(self):
        for spec in default_catalog(120):
            subs = build(spec.realize()).vertices
            pairwise = [s for s in subs if not any(t is not s and t.contains(s) for t in subs)]
            assert maximal_among(subs) == pairwise, spec.descriptor
