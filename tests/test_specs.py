import math
from functools import lru_cache

import pytest

from conftest import element_orders
from cycgraph import groups
from cycgraph.errors import OrderCapExceeded, SpecParseError
from cycgraph.specs import (
    GroupSpec,
    Zs,
    abelian_groups_of_order,
    abelian_prime_signature,
    in_planar_classification,
    is_cyclic_spec,
    parse_spec,
)


class TestParsing:
    def test_atoms(self):
        assert parse_spec("Z(6)") == GroupSpec("cyclic", (6,))
        assert parse_spec("D(4)") == GroupSpec("dihedral", (4,))
        assert parse_spec("S(4)") == GroupSpec("symmetric", (4,))
        assert parse_spec("A(5)") == GroupSpec("alternating", (5,))
        assert parse_spec("Dic(3)") == GroupSpec("dicyclic", (3,))

    def test_quaternion_sugar(self):
        assert parse_spec("Q(8)") == GroupSpec("dicyclic", (2,))
        assert parse_spec("Q(16)") == GroupSpec("dicyclic", (4,))
        assert parse_spec("Q(2^5)") == GroupSpec("dicyclic", (8,))

    def test_caret_exponent(self):
        assert parse_spec("Z(2^5)") == GroupSpec("cyclic", (32,))

    def test_product(self):
        assert parse_spec("Z(4)xZ(2)") == Zs(4, 2)
        assert parse_spec(" Z(2) x Z(2) x Z(3) ") == Zs(2, 2, 3)

    @pytest.mark.parametrize(
        "bad", ["", "Z()", "Z(0)", "Q(12)", "Q(4)", "W(3)", "Z(4)x", "Z(4)y(2)", "Dic(1)"]
    )
    def test_rejects(self, bad):
        with pytest.raises(SpecParseError):
            parse_spec(bad)

    def test_argument_order_cap(self):
        cap = groups.ORDER_CAP
        assert parse_spec(f"Z({cap})") == GroupSpec("cyclic", (cap,))
        bits = cap.bit_length()  # 2^(bits - 1) <= cap < 2^bits
        assert parse_spec(f"Z(2^{bits - 1})") == GroupSpec("cyclic", (2 ** (bits - 1),))
        assert parse_spec("Z(0007)") == GroupSpec("cyclic", (7,))
        assert parse_spec("Z(1^" + "9" * 5000 + ")") == GroupSpec("cyclic", (1,))
        assert parse_spec("Z(7^0)") == GroupSpec("cyclic", (1,))
        for bad in (f"Z({cap + 1})", f"Z(2^{bits})", f"D(3^{bits})",
                    "S(0" + "9" * 5000 + ")", "Dic(2^" + "9" * 5000 + ")"):
            with pytest.raises(OrderCapExceeded, match=r"argument exceeds order cap"):
                parse_spec(bad)
        # an argument under the cap whose group order is over it
        assert parse_spec("A(7)").order() == 2520
        for bad in ("S(8)", "A(8)", f"S({cap})", f"D({cap // 2 + 1})", f"Dic({cap // 4 + 1})"):
            with pytest.raises(OrderCapExceeded, match=r"order exceeds cap"):
                parse_spec(bad)

    def test_descriptor_round_trip(self):
        for text in ("Z(12)", "Z(4)xZ(2)", "D(5)", "Dic(4)", "S(4)", "A(5)"):
            spec = parse_spec(text)
            assert parse_spec(spec.descriptor) == spec

    def test_orders(self):
        assert parse_spec("Z(4)xZ(2)").order() == 8
        assert parse_spec("Q(16)").order() == 16
        assert parse_spec("S(5)").order() == 120
        assert parse_spec("A(5)").order() == 60
        assert parse_spec("file:cayley:whatever.txt").order() is None

    def test_realize_matches_order(self):
        for text in ("Z(12)", "Z(4)xZ(2)", "D(6)", "Dic(3)", "S(4)", "A(4)"):
            spec = parse_spec(text)
            assert spec.realize().order == spec.order()


class TestAbelianEnumeration:
    def test_counts(self):
        # number of abelian groups of order n = product of partition counts
        assert len(abelian_groups_of_order(1)) == 1
        assert len(abelian_groups_of_order(7)) == 1
        assert len(abelian_groups_of_order(16)) == 5
        assert len(abelian_groups_of_order(36)) == 4
        assert len(abelian_groups_of_order(64)) == 11
        assert len(abelian_groups_of_order(72)) == 6

    def test_invariant_factor_form(self):
        descs = {s.descriptor for s in abelian_groups_of_order(36)}
        assert descs == {"Z(36)", "Z(18)xZ(2)", "Z(12)xZ(3)", "Z(6)xZ(6)"}

    def test_pairwise_non_isomorphic(self):
        # distinct invariant-factor decompositions give distinct order multisets
        for n in (16, 24, 36):
            seen = set()
            for spec in abelian_groups_of_order(n):
                key = tuple(sorted(element_orders(spec.realize())))
                assert key not in seen
                seen.add(key)

    def test_every_order_up_to_2000(self):
        # prod_p p(a_p) classes over n = prod_p p^a_p, with n factored by trial
        # division and p(a) counted here, by the largest part
        @lru_cache(maxsize=None)
        def count(a: int, largest: int) -> int:
            return 1 if a == 0 else sum(count(a - k, k) for k in range(1, min(a, largest) + 1))

        for n in range(1, 2001):
            m, d, expected = n, 2, 1
            while d * d <= m:
                a = 0
                while m % d == 0:
                    m, a = m // d, a + 1
                expected *= count(a, a)
                d += 1
            specs = abelian_groups_of_order(n)
            assert len({s.descriptor for s in specs}) == len(specs) == expected, n
            for spec in specs:
                factors = [c.params[0] for c in spec.params] if spec.kind == "product" else [spec.params[0]]
                assert math.prod(factors) == n and (factors == [1] or min(factors) > 1), spec.descriptor
                assert all(a >= b and a % b == 0 for a, b in zip(factors, factors[1:])), spec.descriptor


class TestClassifiers:
    def test_is_cyclic_spec(self):
        assert is_cyclic_spec(parse_spec("Z(12)"))
        assert is_cyclic_spec(parse_spec("Z(3)xZ(4)"))
        assert not is_cyclic_spec(parse_spec("Z(2)xZ(2)"))
        assert not is_cyclic_spec(parse_spec("Z(6)xZ(10)"))

    def test_prime_signature(self):
        assert abelian_prime_signature(parse_spec("Z(12)")) == ((2, 2), (3, 1))
        assert abelian_prime_signature(parse_spec("Z(2)xZ(2)")) == ((2, 1), (2, 1))
        assert abelian_prime_signature(parse_spec("D(4)")) is None

    def test_planar_classification_membership(self):
        yes = ["Z(2)xZ(2)", "Z(3)xZ(3)xZ(3)", "Z(4)xZ(2)", "Z(9)xZ(3)", "Z(4)xZ(4)",
               "Z(6)xZ(2)", "Z(10)xZ(2)", "Z(14)xZ(2)"]
        no = ["Z(8)xZ(2)", "Z(25)xZ(5)", "Z(4)xZ(2)xZ(2)", "Z(6)xZ(6)", "Z(9)xZ(9)"]
        for text in yes:
            assert in_planar_classification(parse_spec(text)), text
        for text in no:
            assert not in_planar_classification(parse_spec(text)), text
