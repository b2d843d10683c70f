"""Concrete finite groups: multiplication rules, family constructors, file ingestion.

Elements are dense integer indices 0..n-1.  A group is its multiplication
rule.  Every family (cyclic, direct product, dihedral, dicyclic, permutation
closure) multiplies through its closed form, and a relabeled copy composes
the source rule with the renaming.  ``cyclic``, ``dihedral``, ``dicyclic``
and ``direct_product`` also record their ``family``, ``(kind, param)``, from
which :func:`cycgraph.subgroups.cyclic_subgroups` lists the cyclic subgroups
in closed form (a product's from its two factors); every other group, a
relabeled copy of one included, has none and is walked, and the walk is the
closed forms' test oracle.  Only a Cayley table given as input is stored: as
one ``TABLE_DTYPE`` array, which its rule reads in place through a 2-D
memoryview.
User tables are parsed into an int64 array and every group axiom is checked
with numpy at every order; associativity exactly, by Light's test on a
generating set (Clifford & Preston, *The Algebraic Theory of Semigroups* I,
section 1.2).  No group may exceed ``ORDER_CAP`` elements.  numpy is
imported only inside the functions that read or check a table, so a run
that never touches one does not load it.
"""

from __future__ import annotations

import re
import warnings
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

from .errors import (
    InvalidPermutation,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    OrderCapExceeded,
)

#: the largest group order any constructor accepts
ORDER_CAP = 20000
#: the most entries a permutation closure stores, moved points times elements: each
#: element is a tuple over the moved points, 8 bytes an entry on 64-bit CPython, so
#: ~34 MB at the cap (S(7) stores 35,280; a 20,000-cycle would store 4e8, ~3.2 GB)
PERM_ENTRY_CAP = 2**22
#: the dtype a table is checked and kept in: it holds every index, as ORDER_CAP < 2**16
TABLE_DTYPE = "uint16"


class FiniteGroup:
    """An immutable finite group on element indices 0..order-1, given by its rule.

    ``mul`` is a plain callable attribute so hot loops can bind it locally.
    The rule must be associative: every family is by construction, an input
    table is checked by Light's test, and a relabeled copy keeps it.
    ``family`` is ``(kind, param)`` for a group built by :func:`cyclic`,
    :func:`dihedral`, :func:`dicyclic` (param the integer argument) or
    :func:`direct_product` (param the factor pair), on whose own element
    labels :func:`cycgraph.subgroups.cyclic_subgroups` has a closed form; it
    is None for every other group, relabeled copies included.
    """

    __slots__ = ("order", "identity", "descriptor", "mul", "family")

    def __init__(
        self,
        order: int,
        mul: Callable[[int, int], int],
        identity: int,
        descriptor: str,
        family: tuple[str, int | tuple[FiniteGroup, FiniteGroup]] | None = None,
    ):
        if order > ORDER_CAP:
            raise OrderCapExceeded(f"{descriptor}: order {order} exceeds cap {ORDER_CAP}")
        self.order = order
        self.identity = identity
        self.descriptor = descriptor
        self.mul = mul
        self.family = family

    def __repr__(self):
        return f"FiniteGroup({self.descriptor}, order={self.order})"


# --- validation -------------------------------------------------------------

def validate_table(table: Sequence[Sequence[int]]) -> int:
    """Check the group axioms on a raw table; returns the identity index.

    Check order is fixed (shape, Latin square, identity, associativity) and
    only the first failure is reported.  Every element has an inverse once
    each row is a permutation, since then every row holds the identity.
    Past the range check, the checks run on a ``TABLE_DTYPE`` copy.
    Associativity is exact at every order: see :func:`_check_associative`.
    """
    import numpy as np

    t = _square_table(table)
    n = len(t)
    if t.min() < 0 or t.max() >= n:
        i, j = map(int, np.argwhere((t < 0) | (t >= n))[0])
        raise NotLatinSquare(f"entry ({i},{j}) = {int(t[i, j])} out of range 0..{n - 1}")
    t = t.astype(TABLE_DTYPE)
    ar = np.arange(n, dtype=t.dtype)
    bad = np.flatnonzero((np.sort(t, axis=1) != ar).any(axis=1))
    if len(bad):
        raise NotLatinSquare(f"row {bad[0]} is not a permutation of 0..{n - 1}")
    bad = np.flatnonzero((np.sort(np.ascontiguousarray(t.T), axis=1) != ar).any(axis=1))
    if len(bad):
        raise NotLatinSquare(f"column {bad[0]} is not a permutation of 0..{n - 1}")
    two_sided = (t == ar).all(axis=1) & (t == ar[:, None]).all(axis=0)
    if not two_sided.any():
        raise NoIdentity("no two-sided identity element")
    identity = int(np.argmax(two_sided))
    _check_associative(t, identity)
    return identity


def _square_table(table: Sequence[Sequence[int]]) -> np.ndarray:
    """The table as an n x n int64 array (no copy if it is one already)."""
    import numpy as np

    n = len(table)
    if n == 0:
        raise NotLatinSquare("table is empty")
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotLatinSquare(f"row {i} has length {len(row)}, expected {n}")
    try:
        return np.asarray(table, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise NotLatinSquare(f"entries are not integers in 0..{n - 1}: {exc}") from None


def _check_associative(t: np.ndarray, identity: int) -> None:
    """Light's associativity test on a Latin square with identity.

    Call ``a`` good when (x*a)*y = x*(a*y) for all x, y.  If a and b are good
    then so is a*b, so the good elements are closed under the product.  The
    test therefore checks a generating set, picked greedily as the least
    element not reached from the identity by right multiplication with those
    picked so far, and is exact: O(n^2) per generator, at most log2(n)
    generators for a group.  In a group, right multiplication from the
    identity reaches the whole subgroup the generators generate, and each
    new generator costs one list lookup per (reached element, generator)
    pair, not another n^2 pass.  The first failing (x, a, y) in row-major
    order is reported.
    """
    import numpy as np

    n = len(t)
    reached, seen, cols = [identity], bytearray(n), []
    seen[identity] = 1
    while len(reached) < n:
        a = seen.index(0)
        col = t[:, a]                           # col[x] = x*a
        left = t[col]                           # left[x, y] = (x*a)*y
        right = t[:, t[a]]                      # right[x, y] = x*(a*y)
        if not np.array_equal(left, right):
            x, y = map(int, np.argwhere(left != right)[0])
            raise NotAssociative(
                f"({x}*{a})*{y} = {int(left[x, y])} but {x}*({a}*{y}) = {int(right[x, y])}"
            )
        cols.append(col.tolist())
        for x in reached:                       # grows while it is walked
            for col in cols:
                y = col[x]
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)


def from_cayley_table(table: Sequence[Sequence[int]], descriptor: str = "cayley-table") -> FiniteGroup:
    """The group of a Cayley table, once :func:`validate_table` accepts it.

    The group keeps a ``TABLE_DTYPE`` copy of the table, never the caller's
    array, so changing ``table`` later leaves the group as it was.  Its rule
    reads that copy in place through a 2-D memoryview, whose ``cells[a, b]``
    is a plain int: no row is ever converted.
    """
    t = _square_table(table)                    # converted once; validate_table reuses it
    identity = validate_table(t)
    cells = memoryview(t.astype(TABLE_DTYPE))

    def rule(a, b):
        return cells[a, b]

    return FiniteGroup(len(t), rule, identity, descriptor)


# --- family constructors ----------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic(n) needs n >= 1")
    return FiniteGroup(n, lambda a, b: (a + b) % n, 0, f"Z({n})", ("cyclic", n))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H; element x*|H| + y is (x, y)."""
    m, gmul, hmul = h.order, g.mul, h.mul

    def rule(a, b):
        return gmul(a // m, b // m) * m + hmul(a % m, b % m)

    return FiniteGroup(
        g.order * m, rule, g.identity * m + h.identity, f"{g.descriptor}x{h.descriptor}",
        ("product", (g, h)),
    )


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element i + s*n is r^i s^s."""
    if n < 1:
        raise ValueError("dihedral(n) needs n >= 1")

    def rule(a, b):
        i, s = a % n, a // n
        j, t = b % n, b // n
        k = (i + j) % n if s == 0 else (i - j) % n
        return k + ((s + t) % 2) * n

    return FiniteGroup(2 * n, rule, 0, f"D({n})", ("dihedral", n))


def dicyclic(m: int) -> FiniteGroup:
    """Dicyclic group of order 4m (<a,b | a^{2m}=1, b^2=a^m, bab^-1=a^-1>).

    dicyclic(2^(a-2)) is the generalized quaternion group of order 2^a.
    """
    if m < 2:
        raise ValueError("dicyclic(m) needs m >= 2")
    n2 = 2 * m

    def rule(a, b):
        i, s = a % n2, a // n2
        j, t = b % n2, b // n2
        if s == 0:
            return (i + j) % n2 + t * n2
        if t == 0:
            return (i - j) % n2 + n2
        return (i - j + m) % n2

    return FiniteGroup(4 * m, rule, 0, f"Dic({m})", ("dicyclic", m))


def from_permutation_generators(
    degree: int,
    gens: Sequence[Sequence[int]],
    descriptor: str | None = None,
) -> FiniteGroup:
    """Closure of permutation generators; elements in BFS discovery order.

    Generators are sorted lexicographically first so runs are reproducible.
    The result is associative by construction and skips table validation.
    The closure stops before it stores more than ``ORDER_CAP`` elements or
    ``PERM_ENTRY_CAP`` entries.
    """
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidPermutation(f"{tuple(g)} is not a permutation of 0..{degree - 1}")
    # Points no generator moves are fixed by the group and never decide a sort:
    # dropping them keeps the generator order, the BFS order and every index.
    support = [i for i in range(degree) if any(g[i] != i for g in gens)]
    pos = {p: k for k, p in enumerate(support)}
    gens = sorted(tuple(pos[g[i]] for i in support) for g in gens)
    ident = tuple(range(len(support)))
    name = descriptor or f"perm-group:deg{degree}"
    elems = [ident]
    index = {ident: 0}
    head = 0
    while head < len(elems):
        x = elems[head]
        head += 1
        for g in gens:
            y = tuple(map(x.__getitem__, g))    # y(i) = x(g(i))
            if y not in index:
                if len(elems) >= ORDER_CAP:
                    raise OrderCapExceeded(f"{name}: closure exceeds order cap {ORDER_CAP}")
                if (len(elems) + 1) * len(support) > PERM_ENTRY_CAP:
                    raise OrderCapExceeded(
                        f"{name}: closure exceeds {PERM_ENTRY_CAP} stored entries "
                        f"({len(support)} moved points per element)"
                    )
                index[y] = len(elems)
                elems.append(y)
    n = len(elems)

    def rule(a, b, _e=elems, _i=index):
        return _i[tuple(map(_e[a].__getitem__, _e[b]))]

    desc = descriptor or f"perm-group:deg{degree}:order{n}"
    return FiniteGroup(n, rule, 0, desc)


def _cycle(points: Sequence[int], degree: int) -> tuple[int, ...]:
    p = list(range(degree))
    for a, b in zip(points, points[1:]):
        p[a] = b
    p[points[-1]] = points[0]
    return tuple(p)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("symmetric(n) needs n >= 1")
    if n == 1:
        return from_permutation_generators(1, [], descriptor="S(1)")
    gens = [_cycle([0, 1], n)]
    if n > 2:
        gens.append(_cycle(list(range(n)), n))
    return from_permutation_generators(n, gens, descriptor=f"S({n})")


def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("alternating(n) needs n >= 1")
    if n <= 2:
        return from_permutation_generators(max(n, 1), [], descriptor=f"A({n})")
    gens = [_cycle([0, 1, 2], n)]
    if n > 3:
        if n % 2 == 1:
            gens.append(_cycle(list(range(n)), n))
        else:
            gens.append(_cycle(list(range(1, n)), n))
    return from_permutation_generators(n, gens, descriptor=f"A({n})")


# --- element-level operations ----------------------------------------------

def element_order(group: FiniteGroup, g: int) -> int:
    """Least k >= 1 with g^k = identity."""
    if not (0 <= g < group.order):
        raise IndexError(f"element {g} out of range")
    mul, e = group.mul, group.identity
    k, x = 1, g
    while x != e:
        x = mul(x, g)
        k += 1
    return k


def relabel(group: FiniteGroup, perm: Sequence[int]) -> FiniteGroup:
    """Isomorphic copy of the group with elements renamed by ``perm``.

    perm maps old index -> new index.  The copy multiplies by the source rule,
    new[mul(old[a], old[b])], which is associative when the source's is.
    """
    n = group.order
    if sorted(perm) != list(range(n)):
        raise InvalidPermutation("relabel needs a permutation of 0..n-1")
    new = list(perm)
    old = [0] * n
    for x, y in enumerate(new):
        old[y] = x                              # old[new[x]] = x
    mul = group.mul

    def rule(a, b):
        return new[mul(old[a], old[b])]

    return FiniteGroup(n, rule, new[group.identity], f"relabel:{group.descriptor}")


# --- file formats -----------------------------------------------------------

def read_cayley_file(path: str) -> FiniteGroup:
    """Cayley-table file: line 1 is n, then n lines of n space-separated indices.

    An order above ``ORDER_CAP`` is refused before any row is read.  The file
    must be UTF-8 text; a leading byte-order mark is skipped.
    """
    import numpy as np

    descriptor = f"cayley-file:{path}"
    with open(path, encoding="utf-8-sig") as fh:
        try:
            header = fh.readline()              # decodes the first buffered chunk
        except UnicodeDecodeError as exc:
            raise NotLatinSquare(f"{path}: not UTF-8 text: {exc}") from None
        if not header:
            raise NotLatinSquare(f"{path}: empty file")
        try:
            (n,) = map(int, header.split())
        except ValueError:
            raise NotLatinSquare(f"{path}: line 1 must be the order n, found {header.strip()!r}") from None
        if n < 1:
            raise NotLatinSquare(f"{path}: order must be >= 1, found {n}")
        if n > ORDER_CAP:
            raise OrderCapExceeded(f"{descriptor}: order {n} exceeds cap {ORDER_CAP}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: reported below
                table = np.loadtxt(fh, dtype=np.int64, ndmin=2, comments=None)
        except ValueError as exc:                # a UnicodeDecodeError past that chunk too
            raise NotLatinSquare(f"{path}: rows must hold integers, equally many per line: {exc}") from None
    if table.shape != (n, n):
        found = f"a {table.shape[0]} x {table.shape[1]} table" if table.size else "no rows"
        raise NotLatinSquare(f"{path}: expected {n} lines of {n} entries, found {found}")
    return from_cayley_table(table, descriptor=descriptor)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _cycle_map(text: str, degree: int) -> dict[int, int]:
    """One permutation in cycle notation as a map from each point its cycles name
    to that point's image; every point it does not name is fixed."""
    if _CYCLE_RE.sub("", re.sub(r"\s", "", text)) != "":
        raise InvalidPermutation(f"malformed cycle notation: {text!r}")
    image: dict[int, int] = {}
    for cyc in _CYCLE_RE.findall(text):
        try:
            pts = [int(tok) for tok in cyc.split()]
        except ValueError:
            raise InvalidPermutation(f"non-integer point in {text!r}") from None
        if not pts:
            continue
        if any(not (0 <= p < degree) for p in pts):
            raise InvalidPermutation(f"bad cycle {cyc!r} for degree {degree}")
        if len(set(pts)) != len(pts) or not image.keys().isdisjoint(pts):
            raise InvalidPermutation(f"repeated point in {text!r}")
        image.update(zip(pts, pts[1:] + pts[:1]))
    return image


def read_permutation_file(path: str) -> FiniteGroup:
    """Permutation-generator file: line 1 is the degree, one generator per line after.

    The file must be UTF-8 text; a leading byte-order mark is skipped.  Only
    the points the cycles name are kept, renumbered in ascending order: every
    other point is fixed by the group, and the closure drops fixed points
    anyway, so every index is the same as on the full degree while the cost
    follows the named points, not the degree.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [ln.strip() for ln in fh.readlines()]
    except UnicodeDecodeError as exc:
        raise InvalidPermutation(f"{path}: not UTF-8 text: {exc}") from None
    lines = [ln for ln in lines if ln]
    if not lines:
        raise InvalidPermutation(f"{path}: empty file")
    try:
        degree = int(lines[0])
    except ValueError:
        raise InvalidPermutation(f"{path}: line 1 must be the degree, found {lines[0]!r}") from None
    if degree < 0:
        raise InvalidPermutation(f"{path}: degree must be >= 0, found {degree}")
    try:
        maps = [_cycle_map(ln, degree) for ln in lines[1:]]
    except InvalidPermutation as exc:
        raise InvalidPermutation(f"{path}: {exc}") from None
    points = sorted(set().union(*maps))
    pos = {p: k for k, p in enumerate(points)}
    gens = [tuple(pos[m.get(p, p)] for p in points) for m in maps]
    return from_permutation_generators(len(points), gens, descriptor=f"perm-file:{path}")
