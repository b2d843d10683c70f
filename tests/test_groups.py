import json
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import element_orders, pairwise_adjacency, table_of, write_table_file
from cycgraph import groups
from cycgraph.cli import main as cli_main
from cycgraph.errors import (
    InvalidPermutation,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    OrderCapExceeded,
)
from cycgraph.groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    element_order,
    from_cayley_table,
    from_permutation_generators,
    read_cayley_file,
    read_permutation_file,
    relabel,
    symmetric,
    validate_table,
)
from cycgraph.graphs import build
from cycgraph.specs import parse_spec
from cycgraph.subgroups import cyclic_subgroups
from cycgraph.theorems import default_catalog

# A Latin square with identity 0 that fails associativity: (1*1)*2 != 1*(1*2).
NONASSOC_LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


class TestValidation:
    def test_trivial_group(self):
        assert validate_table([[0]]) == 0

    def test_z2(self):
        assert validate_table([[0, 1], [1, 0]]) == 0

    def test_repeated_entry_is_latin_failure(self):
        # Row 2 is a permutation but column 1 repeats the value 1, so the
        # Latin-square check fires before anything else.
        bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(NotLatinSquare):
            validate_table(bad)

    def test_ragged_table(self):
        with pytest.raises(NotLatinSquare):
            validate_table([[0, 1], [1]])

    def test_out_of_range_entry(self):
        with pytest.raises(NotLatinSquare):
            validate_table([[0, 2], [2, 0]])

    def test_no_identity(self):
        # subtraction mod 3: a Latin square with no two-sided identity
        bad = [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
        with pytest.raises(NoIdentity):
            validate_table(bad)

    def test_nonassociative_loop(self):
        t = NONASSOC_LOOP5
        assert t[t[1][1]][2] != t[1][t[1][2]]
        with pytest.raises(NotAssociative):
            validate_table(t)

    def test_from_cayley_table_accepts_valid(self):
        g = from_cayley_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]], "triple")
        assert g.order == 3
        assert g.identity == 0
        assert g.mul(1, 2) == 0

    def test_constructed_families_are_groups(self):
        for group in (dihedral(6), dicyclic(3), symmetric(4), cyclic(9)):
            assert validate_table(table_of(group)) == group.identity

    def test_group_is_its_rule(self):
        g = FiniteGroup(2, lambda a, b: (a + b) % 2, 0, "z2")
        assert g.mul(1, 1) == 0
        assert g.__slots__ == ("order", "identity", "descriptor", "mul", "family")  # no table is kept
        # family is at most a (kind, param) pair, never a table
        assert g.family is None
        assert [h.family for h in (cyclic(6), dihedral(6), dicyclic(6))] == [
            ("cyclic", 6), ("dihedral", 6), ("dicyclic", 6)]
        z2, s3 = cyclic(2), symmetric(3)
        assert direct_product(z2, s3).family == ("product", (z2, s3))


class TestFamilies:
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 60])
    def test_cyclic_order_and_structure(self, n):
        g = cyclic(n)
        assert g.order == n
        assert n in element_orders(g)

    def test_dihedral(self):
        for n in (3, 4, 6, 10):
            g = dihedral(n)
            assert g.order == 2 * n
            orders = element_orders(g)
            assert orders.count(2) >= n  # the n reflections

    def test_dihedral_not_abelian(self):
        g = dihedral(3)
        assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))

    @pytest.mark.parametrize("alpha", [3, 4, 5])
    def test_dicyclic_unique_involution(self, alpha):
        g = dicyclic(2 ** (alpha - 2))
        assert g.order == 2**alpha
        assert element_orders(g).count(2) == 1

    def test_dicyclic_q8_orders(self):
        # Q8: one identity, one involution, six elements of order 4
        assert sorted(element_orders(dicyclic(2))) == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_symmetric_alternating(self):
        assert symmetric(3).order == 6
        assert symmetric(4).order == 24
        assert alternating(4).order == 12
        assert alternating(5).order == 60

    def test_a5_element_orders(self):
        counts = {}
        for m in element_orders(alternating(5)):
            counts[m] = counts.get(m, 0) + 1
        assert counts == {1: 1, 2: 15, 3: 20, 5: 24}

    def test_direct_product(self):
        g = direct_product(cyclic(4), cyclic(2))
        assert g.order == 8
        assert 8 not in element_orders(g)
        assert 12 in element_orders(direct_product(cyclic(3), cyclic(4)))

    def test_elementary_abelian(self):
        g = parse_spec("Z(3)xZ(3)").realize()
        assert g.order == 9
        assert all(m in (1, 3) for m in element_orders(g))

    def test_order_cap(self, monkeypatch):
        with pytest.raises(OrderCapExceeded):
            cyclic(groups.ORDER_CAP + 1)
        monkeypatch.setattr(groups, "ORDER_CAP", 99)
        assert cyclic(99).order == 99
        for make in (lambda: cyclic(100), lambda: dihedral(50), lambda: dicyclic(25),
                     lambda: direct_product(cyclic(10), cyclic(10)), lambda: symmetric(5),
                     lambda: from_cayley_table(closed_form_table(parse_spec("Z(100)")))):
            with pytest.raises(OrderCapExceeded):
                make()


class TestElementOrder:
    def test_identity(self):
        assert element_order(cyclic(12), 0) == 1

    def test_cyclic_orders(self):
        g = cyclic(12)
        assert element_order(g, 1) == 12
        assert element_order(g, 2) == 6
        assert element_order(g, 8) == 3

    def test_lagrange(self):
        for group in (dihedral(6), dicyclic(3), symmetric(4)):
            assert all(group.order % m == 0 for m in element_orders(group))


class TestPermutationGroups:
    def test_single_cycle(self):
        g = from_permutation_generators(3, [(1, 2, 0)], "c3")
        assert g.order == 3

    def test_no_generators_gives_trivial(self):
        assert from_permutation_generators(4, [], "t").order == 1

    def test_invalid_permutation(self):
        with pytest.raises(InvalidPermutation):
            from_permutation_generators(3, [(0, 0, 1)], "bad")

    def test_closure_cap(self, monkeypatch):
        # the closure stops as it passes the cap, before the group is made
        monkeypatch.setattr(groups, "ORDER_CAP", 100)
        gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]  # generate S5
        with pytest.raises(OrderCapExceeded, match="closure exceeds order cap 100"):
            from_permutation_generators(5, gens, "s5")

    def test_parse_cycle_notation(self):
        assert groups._cycle_map("(0 1 2)", 4) == {0: 1, 1: 2, 2: 0}
        assert groups._cycle_map("(0 1)(2 3)", 4) == {0: 1, 1: 0, 2: 3, 3: 2}
        assert groups._cycle_map("()", 3) == {}

    def test_parse_cycle_notation_rejects_repeats(self):
        with pytest.raises(InvalidPermutation):
            groups._cycle_map("(0 1)(1 2)", 3)

    def test_parse_cycle_notation_rejects_out_of_range(self):
        with pytest.raises(InvalidPermutation):
            groups._cycle_map("(0 5)", 3)

    def test_parse_cycle_notation_rejects_garbage(self):
        with pytest.raises(InvalidPermutation):
            groups._cycle_map("(0 1", 3)


class TestRelabel:
    def test_identity_permutation(self):
        g = cyclic(6)
        h = relabel(g, list(range(6)))
        assert table_of(h) == table_of(g)

    def test_preserves_order_multiset(self):
        rng = random.Random(7)
        for group in (cyclic(8), dihedral(4), dicyclic(2)):
            perm = list(range(group.order))
            rng.shuffle(perm)
            h = relabel(group, perm)
            assert sorted(element_orders(h)) == sorted(element_orders(group))
            assert validate_table(table_of(h)) == h.identity

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidPermutation):
            relabel(cyclic(3), [0, 0, 1])


class TestFiles:
    def test_cayley_round_trip(self, tmp_path):
        g = dicyclic(3)
        path = str(tmp_path / "dic3.txt")
        write_table_file(g, path)
        h = read_cayley_file(path)
        assert h.order == g.order
        assert table_of(h) == table_of(g)

    def test_cayley_rejects_bad_table(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n0 1\n")
        with pytest.raises(NotLatinSquare):
            read_cayley_file(str(path))

    @pytest.mark.parametrize(
        "text",
        ["", "x\n0\n", "2 2\n0 1\n1 0\n", "0\n", "2\n", "2\n0 x\n1 0\n", "2\n0 1\n1\n",
         "2\n0 1\n1 0\n0 1\n", "2\n0 1 1 0\n", "2\n0\n1\n1\n0\n"],
    )
    def test_cayley_rejects_malformed_file(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(NotLatinSquare, match=re.escape(str(path))):
            read_cayley_file(str(path))

    def test_cayley_order_above_cap_is_refused_before_rows(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "big.txt"
        path.write_text(f"{groups.ORDER_CAP + 1}\n0 1\n1 0\n")

        def refuse(*args, **kwargs):
            raise AssertionError("rows were read")

        monkeypatch.setattr(np, "loadtxt", refuse)  # the object read_cayley_file imports
        with pytest.raises(OrderCapExceeded, match=re.escape(f"cayley-file:{path}: order {groups.ORDER_CAP + 1} exceeds cap")):
            read_cayley_file(str(path))
        assert cli_main(["export", f"file:cayley:{path}"]) == 2
        assert str(path) in capsys.readouterr().err

    def test_permutation_file(self, tmp_path):
        path = tmp_path / "s3.txt"
        path.write_text("3\n(0 1 2)\n(0 1)\n")
        g = read_permutation_file(str(path))
        assert g.order == 6

    def test_high_degree_permutation_file(self, tmp_path):
        # D(16) on points 0..15 times Z(8) on 16..23: order 256.  On 1000 points
        # the extra ones are fixed, so the table must not change.  The closure
        # drops the fixed points: it keeps 256 permutations of 24 points, not
        # 256 of 1000 (~2 MB).
        gens = ["(" + " ".join(map(str, range(16))) + ")",
                "".join(f"({i} {16 - i})" for i in range(1, 8)),
                "(" + " ".join(map(str, range(16, 24))) + ")"]
        small, large = tmp_path / "deg24.txt", tmp_path / "deg1000.txt"
        small.write_text("24\n" + "\n".join(gens) + "\n")
        large.write_text("1000\n" + "\n".join(gens) + "\n")
        g = read_permutation_file(str(small))
        tracemalloc.start()
        try:
            h = read_permutation_file(str(large))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.order == g.order == 256
        t = table_of(h)
        assert t == table_of(g)
        assert validate_table(t) == h.identity == 0
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_permutation_file_cost_follows_the_named_points(self, tmp_path):
        # Z(2) declared on a million points: only the two named points are stored
        path = tmp_path / "z2.txt"
        path.write_text("1000000\n(0 1)\n")
        tracemalloc.start()
        try:
            g = read_permutation_file(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.order == 2 and table_of(g) == [[0, 1], [1, 0]]
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path, capsys):
        # a UTF-8 file may start with a byte-order mark; it is not part of line 1
        cayley = tmp_path / "dic3.txt"
        write_table_file(dicyclic(3), str(cayley))
        perm = tmp_path / "s3.txt"
        perm.write_text("3\n(0 1 2)\n(0 1)\n")
        for kind, plain in (("cayley", cayley), ("perm", perm)):
            marked = tmp_path / f"bom-{plain.name}"
            marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
            outputs = []
            for path in (plain, marked):
                assert cli_main(["export", f"file:{kind}:{path}", "--format", "csv"]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1] != ""

    def test_permutation_file_identity_only(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("4\n()\n")
        assert read_permutation_file(str(path)).order == 1

    def test_long_cycle_file_is_refused_at_the_entry_cap(self, tmp_path, capsys):
        # a 20,000-cycle is a legal Z(20000) but would store 20,000 x 20,000 entries
        path = tmp_path / "cycle.txt"
        path.write_text("20000\n(" + " ".join(map(str, range(20000))) + ")\n")
        t0 = time.perf_counter()
        with pytest.raises(OrderCapExceeded, match=re.escape(f"perm-file:{path}: closure exceeds")):
            read_permutation_file(str(path))
        assert time.perf_counter() - t0 < 1.0
        assert cli_main(["export", f"file:perm:{path}"]) == 2
        err = capsys.readouterr().err
        assert f"perm-file:{path}: closure exceeds {groups.PERM_ENTRY_CAP} stored entries" in err

    def test_entry_cap_bound(self, monkeypatch):
        # S(4) stores 24 elements of 4 moved points: 96 entries fit a cap of 96, not of 95
        assert symmetric(7).order == 5040 and alternating(7).order == 2520
        monkeypatch.setattr(groups, "PERM_ENTRY_CAP", 96)
        assert symmetric(4).order == 24
        monkeypatch.setattr(groups, "PERM_ENTRY_CAP", 95)
        with pytest.raises(OrderCapExceeded, match="S\\(4\\): closure exceeds 95 stored entries"):
            symmetric(4)


# --- associativity: Light's test against brute force ---------------------------

def brute_failing_triple(t):
    """First (a, b, c) with (a*b)*c != a*(b*c), by trying all n^3 triples."""
    n = len(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return a, b, c
    return None


def intercalates(t, identity):
    """2x2 Latin subsquares (r1, c1, r2, c2) off the identity's row and column."""
    n = len(t)
    return [
        (r1, c1, r2, c2)
        for r1 in range(n) for r2 in range(r1 + 1, n)
        for c1 in range(n) for c2 in range(c1 + 1, n)
        if identity not in (r1, r2, c1, c2)
        and t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]
    ]


def swap_intercalate(t, cells):
    """Copy of t with the two values of an intercalate exchanged: still a
    Latin square, with the same identity."""
    r1, c1, r2, c2 = cells
    t = [list(row) for row in t]
    for r in (r1, r2):
        t[r][c1], t[r][c2] = t[r][c2], t[r][c1]
    return t


def assert_named_triple_fails(t, message):
    """The triple in a NotAssociative message fails, with the values it states."""
    m = re.fullmatch(r"\((\d+)\*(\d+)\)\*(\d+) = (\d+) but \1\*\(\2\*\3\) = (\d+)", message)
    assert m, message
    x, a, y, left, right = map(int, m.groups())
    assert t[t[x][a]][y] == left
    assert t[x][t[a][y]] == right
    assert left != right


SMALL_GROUPS = [cyclic(n) for n in range(1, 9)] + [
    parse_spec("Z(2)xZ(2)").realize(),
    parse_spec("Z(2)xZ(2)xZ(2)").realize(),
    direct_product(cyclic(4), cyclic(2)),
    dihedral(3),
    dihedral(4),
    dicyclic(2),
]


@st.composite
def small_loops(draw):
    """A relabeled group table of order <= 8, with one intercalate swapped half the time."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    h = relabel(group, draw(st.permutations(range(group.order))))
    t = table_of(h)
    cells = intercalates(t, h.identity)
    if cells and draw(st.booleans()):
        t = swap_intercalate(t, draw(st.sampled_from(cells)))
    return t


class TestLightAssociativity:
    @settings(max_examples=200, deadline=None)
    @given(small_loops())
    def test_agrees_with_brute_force(self, t):
        if brute_failing_triple(t) is None:
            validate_table(t)
        else:
            with pytest.raises(NotAssociative) as exc:
                validate_table(t)
            assert_named_triple_fails(t, str(exc.value))

    def test_rejects_large_nonassociative_table(self):
        g = direct_product(cyclic(2), cyclic(300))
        assert g.order == 600
        # rows x, x*z and columns a, a*z for the involution z = (1, 0) form an
        # intercalate; none of them is the identity 0
        x, a, z = 1, 2, 300
        y, b = g.mul(x, z), g.mul(a, z)
        t = table_of(g)
        assert t[x][a] == t[y][b] and t[x][b] == t[y][a]
        bad = swap_intercalate(t, (x, a, y, b))
        with pytest.raises(NotAssociative) as exc:
            validate_table(bad)
        assert_named_triple_fails(bad, str(exc.value))

    def test_accepts_relabeled_order_900(self):
        g = dihedral(450)
        perm = list(range(g.order))
        random.Random(11).shuffle(perm)
        h = relabel(g, perm)
        assert validate_table(table_of(h)) == h.identity == perm[0]


def relabeled(spec):
    """The group of a spec with its elements renamed by a seeded random permutation."""
    g = parse_spec(spec).realize()
    perm = list(range(g.order))
    random.Random(3).shuffle(perm)
    return relabel(g, perm)


def cycle_switch(group):
    """The group's table with rows a and a*u exchanged on the columns u^k * a.

    u is an element of least order > 1 and a the least element outside <u>.
    Row a holds a*u^k*a there and row a*u holds a*u^(k+1)*a: the same values,
    so the copy is a Latin square, and as a, a*u and every u^k * a differ from
    the identity it keeps the identity.  For an involution u the switch swaps
    an intercalate; a group of odd order has no involution, so no intercalate.
    """
    mul, e = group.mul, group.identity
    u = min((g for g in range(group.order) if g != e), key=lambda g: (element_order(group, g), g))
    powers = {e}
    x = u
    while x != e:
        powers.add(x)
        x = mul(u, x)
    a = min(set(range(group.order)) - powers)
    cols = [mul(p, a) for p in powers]
    t = table_of(group)
    y = mul(a, u)
    for c in cols:
        t[a][c], t[y][c] = t[y][c], t[a][c]
    return t


def prolongation_257():
    """A loop of order 257 that is no group, built without a trade in Z(257).

    Every row-cycle switch of Z(257) runs through the identity's column, so
    this is the prolongation of Z(2)^8 along the transversal (x, phi(x)),
    where phi doubles x in GF(2^8) and x xor phi(x) is a bijection: each
    transversal cell gets the new symbol 256, and its old value moves to the
    new row and column.  Permuting rows and columns so that row and column 0
    read 0..256 turns the Latin square into a loop.
    """
    x = np.arange(256)
    phi = np.array([(v << 1) ^ (0x11B if v & 0x80 else 0) for v in range(256)])
    assert sorted(phi) == sorted(x ^ phi) == list(range(256))
    p = np.empty((257, 257), dtype=np.int64)
    p[:256, :256] = x[:, None] ^ x
    p[x, phi] = 256
    p[x, 256] = p[256, phi] = x ^ phi
    p[256, 256] = 256
    return p[np.ix_(np.argsort(p[:, 0]), np.argsort(p[0]))].tolist()


class TestCompactTables:
    """Tables are checked and kept as uint16 at every order."""

    @pytest.mark.parametrize("spec", ["Z(255)", "D(128)", "Z(257)", "S(6)"])
    def test_accepts_relabeled_tables_at_dtype_boundaries(self, spec):
        h = relabeled(spec)
        t = table_of(h)
        assert np.dtype(groups.TABLE_DTYPE) == np.uint16
        # uint16 holds every index 0..n-1 only while no order reaches 2**16
        assert groups.ORDER_CAP < 2**16
        assert validate_table(t) == h.identity
        mul = from_cayley_table(t).mul
        products = [[mul(a, b) for b in range(h.order)] for a in range(h.order)]
        assert products == t and {type(x) for row in products for x in row} == {int}

    @pytest.mark.parametrize("spec, switched", [("Z(255)", 6), ("D(128)", 4), ("S(6)", 4)])
    def test_rejects_cycle_switch_at_dtype_boundaries(self, spec, switched):
        h = relabeled(spec)
        t, bad = table_of(h), cycle_switch(h)
        assert sum(u != v for r, s in zip(t, bad) for u, v in zip(r, s)) == switched
        with pytest.raises(NotAssociative) as exc:
            validate_table(bad)
        assert_named_triple_fails(bad, str(exc.value))

    def test_rejects_loop_of_order_257(self):
        bad = prolongation_257()
        with pytest.raises(NotAssociative) as exc:
            validate_table(bad)
        assert_named_triple_fails(bad, str(exc.value))

    def test_group_keeps_its_own_copy(self):
        d = dihedral(150)
        t = np.array(table_of(d), dtype=np.int64)
        g = from_cayley_table(t)
        t[:] = 0
        assert [[g.mul(a, b) for b in range(d.order)] for a in range(d.order)] == table_of(d)

    def test_cyclic_subgroups_multiply_on_the_left_by_walk_starts(self):
        for group in (dihedral(12), symmetric(4), cyclic(12), from_cayley_table(table_of(relabeled("D(150)")))):
            lefts = set()
            mul = group.mul

            def rule(a, b):
                lefts.add(a)
                return mul(a, b)

            subs = cyclic_subgroups(FiniteGroup(group.order, rule, group.identity, group.descriptor))
            assert subs == cyclic_subgroups(group)
            assert len(lefts) <= len(subs) + 1, group

    @pytest.mark.parametrize("spec", ["S(5)", "D(150)", "Z(30)xZ(30)"])
    def test_file_table_builds_the_pairwise_graph(self, tmp_path, spec):
        path = str(tmp_path / "table.txt")
        write_table_file(relabeled(spec), path)
        ig = build(read_cayley_file(path))
        assert ig.graph == pairwise_adjacency(ig.vertices)
        assert ig.graph.edge_count() == build(parse_spec(spec).realize()).graph.edge_count()


# --- tables pinned to the family formulas ----------------------------------------

def perm_table(degree, cycles):
    """Closure of the cycles' permutations in BFS order from sorted generators;
    entry [a][b] is the index of x o y, (x o y)(i) = x(y(i))."""
    gens = []
    for cyc in cycles:
        p = list(range(degree))
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            p[u] = v
        gens.append(tuple(p))
    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    for x in elems:  # grows while it is walked: breadth-first
        for g in sorted(gens):
            y = tuple(x[i] for i in g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return [[index[tuple(x[i] for i in y)] for y in elems] for x in elems]


def closed_form_table(spec):
    """The family's table in plain Python, on the element indices the CLI prints."""
    kind, p = spec.kind, spec.params
    if kind == "cyclic":
        n = p[0]
        return [[(a + b) % n for b in range(n)] for a in range(n)]
    if kind == "product":  # element (g, h) is g * |H| + h
        t = [[0]]
        for child in p:
            h = closed_form_table(child)
            m, n = len(h), len(t) * len(h)
            t = [[t[a // m][b // m] * m + h[a % m][b % m] for b in range(n)] for a in range(n)]
        return t
    if kind == "dihedral":  # i + s*n is r^i s^s, and s r = r^-1 s
        n = p[0]
        return [
            [(i + (j if s == 0 else -j)) % n + ((s + u) % 2) * n
             for u in (0, 1) for j in range(n)]
            for s in (0, 1) for i in range(n)
        ]
    if kind == "dicyclic":  # i + s*2m is a^i b^s, with b^2 = a^m and b a = a^-1 b
        m = p[0]
        return [
            [(i + j) % (2 * m) + u * 2 * m if s == 0
             else (i - j) % (2 * m) + 2 * m if u == 0
             else (i - j + m) % (2 * m)
             for u in (0, 1) for j in range(2 * m)]
            for s in (0, 1) for i in range(2 * m)
        ]
    n = p[0]
    if kind == "symmetric":
        return perm_table(n, [[0, 1], list(range(n))])
    if kind == "alternating":
        return perm_table(n, [[0, 1, 2], list(range(n)) if n % 2 else list(range(1, n))])
    raise AssertionError(kind)


class TestClosedForms:
    def test_catalog_tables(self):
        specs = default_catalog(240)
        assert len(specs) == 644
        for spec in specs:
            # the closed-form rule, which the catalog multiplies by, on every pair
            assert table_of(spec.realize()) == closed_form_table(spec), spec.descriptor

    def test_catalog_builds_no_table(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a table was built")

        # the one table builder: validate_table and from_cayley_table both go through it
        monkeypatch.setattr(groups, "_square_table", refuse)
        specs = default_catalog(240)
        assert len(specs) == 644
        for spec in specs:
            build(spec.realize())
        assert cli_main(["catalog", "--max-order", "240"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 644
        # thm13 relabels groups, and a relabeled copy multiplies by the source rule;
        # the paper's counterexamples (thm14) make the run exit 1
        assert cli_main(["verify", "all", "--max-order", "100", "--format", "json"]) == 1
        results = {r["theorem_id"]: r for r in json.loads(capsys.readouterr().out)["results"]}
        assert len(results) == 11
        assert results["thm13-iso-invariance"]["passed"]
        assert results["thm13-iso-invariance"]["groups_tested"] == 10

    @pytest.mark.parametrize("text", ["Z(12)", "Z(6)xZ(2)", "D(7)", "Dic(5)", "S(4)", "A(5)"])
    def test_relabel(self, text):
        spec = parse_spec(text)
        base = closed_form_table(spec)
        perm = list(range(len(base)))
        random.Random(text).shuffle(perm)
        expected = [[0] * len(base) for _ in base]
        for a, row in enumerate(base):
            for b, v in enumerate(row):
                expected[perm[a]][perm[b]] = perm[v]
        h = relabel(spec.realize(), perm)
        assert table_of(h) == expected
