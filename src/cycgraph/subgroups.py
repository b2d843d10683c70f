"""Enumeration of proper nontrivial cyclic subgroups: the graph's vertex set.

A group's list is read off the powers of one generator per cyclic subgroup:
a direct product's from its factors' powers (Goursat's lemma), without
multiplying, and a group of no family from walking its elements' powers.
Z(n), D(n) and Dic(m) have theirs written down already sorted instead, which
saves the sort.  The walk shares no code with the ``_FAMILIES`` rows: it is their oracle.
How many there are of each order is the lengths of the same powers, or a
family's optional count without listing an element; the listing is its oracle.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .arith import COPRIME_CACHE_SIZE, coprime_mask, divisors, is_prime, totient
from .groups import FiniteGroup


class CyclicSubgroup(NamedTuple):
    """One cyclic subgroup <g>: its canonical (smallest) generator, its
    element indices in ascending order, and its order.

    A named tuple, so immutable and hashable, and cheap to make: a graph
    holds one per vertex, and a sweep makes tens of thousands.
    """

    generator: int
    elements: tuple[int, ...]
    order: int


def cyclic_subgroups(group: FiniteGroup) -> list[CyclicSubgroup]:
    """All proper nontrivial cyclic subgroups, deduplicated and canonically
    ordered by (order, elements).

    A group built by ``groups.cyclic``, ``groups.dihedral`` or
    ``groups.dicyclic`` has its list written down already sorted on that
    constructor's element labels; every other group's is read off the powers
    of one generator per cyclic subgroup (:func:`_powers`): a direct product's
    from its factors', any other group's from its own power walk.
    """
    family = group.family
    if family is not None and (listed := _FAMILIES[family[0]].listed) is not None:
        return listed(family[1])
    return _proper_subgroups(_powers(group), group.order)


def _walk_powers(group: FiniteGroup) -> Iterator[list[int]]:
    """The powers [e, g, g^2, ...] of one generator g of each cyclic subgroup
    <g>, the trivial one ([e]) and G itself when cyclic included, each once.

    Walks every element once: generating <g> also identifies all phi(m) of its
    generators (the powers g^k with gcd(k, m) = 1, read off the cached
    ``coprime_mask(m)``), which are then skipped.
    Total cost is the sum of |H| over distinct cyclic subgroups H.  Powers
    step as g * x, which equals x * g since powers of g commute with g: every
    product is a left multiplication by a walk's start.
    """
    n = group.order
    mul, e = group.mul, group.identity
    done = bytearray(n)
    for g in range(n):
        if done[g]:
            continue
        powers = [e]
        x = g
        while x != e:
            powers.append(x)
            x = mul(g, x)
        for h in compress(powers, coprime_mask(len(powers))):
            done[h] = 1
        yield powers


def _subgroup(powers: Sequence[int]) -> CyclicSubgroup:
    """The cyclic subgroup whose elements are ``powers``, the powers g^0 .. g^(m-1)
    of one generator g: its least generator is the least g^k with gcd(k, m) = 1."""
    m = len(powers)
    return CyclicSubgroup(min(compress(powers, coprime_mask(m))), tuple(sorted(powers)), m)


def _canonical(s: CyclicSubgroup) -> tuple[int, tuple[int, ...]]:
    return s.order, s.elements


def _proper_subgroups(powers: Iterable[Sequence[int]], n: int) -> list[CyclicSubgroup]:
    """The subgroups of a group of order ``n`` listed by their ``powers`` that are
    vertices (neither trivial nor the whole group), in canonical order."""
    subs = [_subgroup(p) for p in powers if 1 < len(p) < n]
    subs.sort(key=_canonical)
    return subs


# --- closed forms, on the element labels of the family constructors -----------

def _rotation_subgroups(n: int) -> list[CyclicSubgroup]:
    """Every nontrivial subgroup of a cyclic group on 0..n-1 (a + b mod n), by order.

    The subgroup of order d is {0, n/d, 2n/d, ...}, the cached range of
    :func:`_cyclic_powers`; its least generator is the step n/d.
    """
    return [CyclicSubgroup(r.step, tuple(r), len(r)) for r in _cyclic_powers(n)[1:]]


def _after_order(
    rotations: list[CyclicSubgroup], others: list[CyclicSubgroup], order: int
) -> list[CyclicSubgroup]:
    """``rotations`` with ``others``, all of one order, placed after every rotation
    subgroup of at most that order.  Within their order they sort last: the rotation
    subgroup of order d in Z(k) has second-least element k/d, and each of ``others``
    has a larger one (n + i > n/2 in D(n), m > m/2 in Dic(m))."""
    k = sum(1 for s in rotations if s.order <= order)
    return rotations[:k] + others + rotations[k:]


def _cyclic_closed_form(n: int) -> list[CyclicSubgroup]:
    """Z(n): one subgroup per divisor 1 < d < n."""
    return _rotation_subgroups(n)[:-1]


def _dihedral_closed_form(n: int) -> list[CyclicSubgroup]:
    """D(n), element i + s*n = r^i s: the subgroups of <r>, all proper, and the
    n reflection subgroups {e, r^i s}."""
    if n == 1:  # D(1) is of order 2, generated by its one reflection
        return []
    reflections = [CyclicSubgroup(n + i, (0, n + i), 2) for i in range(n)]
    return _after_order(_rotation_subgroups(n), reflections, 2)


def _dicyclic_closed_form(m: int) -> list[CyclicSubgroup]:
    """Dic(m), element i + s*2m = a^i b^s: the subgroups of <a>, all proper, and
    the m subgroups <a^i b> = {e, a^m, a^i b, a^(i+m) b} of order 4, i < m."""
    n2 = 2 * m
    quaternions = [CyclicSubgroup(n2 + i, (0, m, n2 + i, n2 + m + i), 4) for i in range(m)]
    return _after_order(_rotation_subgroups(n2), quaternions, 4)


# --- every cyclic subgroup as the powers of one generator --------------------------

def _powers(group: FiniteGroup) -> Iterable[Sequence[int]]:
    """The powers (e, g, g^2, ...) of one generator g of every cyclic subgroup
    <g> of ``group``, the trivial subgroup included and G itself when cyclic.

    A family group's by its ``_FAMILIES`` row (a product's from its
    factors'), any other group's by its own power walk.
    """
    if group.family is None:
        return _walk_powers(group)
    kind, param = group.family
    return _FAMILIES[kind].powers(param)


@lru_cache(maxsize=COPRIME_CACHE_SIZE)
def _cyclic_powers(n: int) -> tuple[range, ...]:
    """Z(n): the powers of n/d, for each divisor d of n, as the range 0, n/d, 2n/d, ...

    A range holds no elements, so each cached entry is tau(n) small objects.
    """
    return tuple(range(0, n, n // d) for d in divisors(n))


def _dihedral_powers(n: int) -> list[Sequence[int]]:
    """D(n): the subgroups of <r>, and the n reflections (e, r^i s)."""
    return [*_cyclic_powers(n), *((0, n + i) for i in range(n))]


def _dicyclic_powers(m: int) -> list[Sequence[int]]:
    """Dic(m): the subgroups of <a>, and <a^i b> = (e, a^i b, a^m, a^(i+m) b) for i < m."""
    n2 = 2 * m
    return [*_cyclic_powers(n2), *((0, n2 + i, m, n2 + m + i) for i in range(m))]


def _product_powers(factors: tuple[FiniteGroup, FiniteGroup]) -> list[list[int]]:
    """G x H, element x*|H| + y = (x, y): every cyclic subgroup, by Goursat's lemma.

    A cyclic C <= G x H projects onto cyclic A = <a> <= G and B = <b> <= H, of
    orders alpha and beta; raising a generator of C to a unit power makes it
    (a, b^j) with j a unit mod beta.  <(a, b^j)> = <(a, b^k)> iff j = k mod
    gcd(alpha, beta), so one unit j per unit class mod that gcd lists each C
    once (Toth 2012; Hampejs, Holighaus, Toth & Wiesmeyr 2014).  Its k-th
    power is (a^k, b^(jk)), of order L = lcm(alpha, beta).
    """
    g, h = factors
    m = h.order
    hs = [(len(b), list(b)) for b in _powers(h)]
    out = []
    for a in _powers(g):
        alpha = len(a)
        am = [x * m for x in a]
        for beta, b in hs:
            d = gcd(alpha, beta)
            ta, tb = am * (beta // d), alpha // d     # each repeated to L = lcm terms
            for j in (_unit_lifts(beta, d) if d > 1 else (1,)):  # mod 1: one class
                bj = b if j == 1 else [b[j * k % beta] for k in range(beta)]
                out.append(list(map(add, ta, bj * tb)))
    return out


@lru_cache(maxsize=COPRIME_CACHE_SIZE)
def _unit_lifts(beta: int, d: int) -> tuple[int, ...]:
    """One unit j mod beta in each unit class mod d (d | beta): the least of each."""
    first: dict[int, int] = {}
    for j in compress(range(beta), coprime_mask(beta)):
        first.setdefault(j % d, j)
    return tuple(first.values())


# --- cyclic subgroups counted by order, with no element listed ---------------------

def cyclic_subgroup_orders(group: FiniteGroup) -> Counter[int]:
    """The order of every cyclic subgroup, the trivial one and G itself when
    cyclic included, as a multiset: order -> how many cyclic subgroups have it.

    Z(n) has one per divisor of n; D(n) adds its n reflections, of order 2;
    Dic(m) adds its m subgroups <a^i b>, of order 4.  A direct product G x H
    is counted from its factors' counts by Goursat's lemma, as
    :func:`_product_powers` lists it: each pair of cyclic A <= G and B <= H, of
    orders alpha and beta, gives phi(gcd(alpha, beta)) cyclic subgroups of order
    lcm(alpha, beta), those projecting onto both.  They are <(a, b^j)>, one
    per class mod d = gcd(alpha, beta) of units j mod beta.  Each of the phi(d)
    units u mod d lifts to a unit mod beta: u + d*t is prime to every prime of
    d, as u is, and t can make it 1 mod each other prime p of beta, since d is
    a unit mod p.  So there are phi(d) classes, each one subgroup.  Any other
    group is counted off :func:`_powers`, one length per subgroup.
    """
    family = group.family
    if family is not None and (counted := _FAMILIES[family[0]].counted) is not None:
        return counted(family[1])
    return Counter(map(len, _powers(group)))


def vertex_count(group: FiniteGroup) -> int:
    """``len(cyclic_subgroups(group))``, counted without listing one: the cyclic
    subgroups of order strictly between 1 and |G| (none in the trivial group)."""
    n = group.order
    return sum(k for d, k in cyclic_subgroup_orders(group).items() if 1 < d < n)


def _product_orders(factors: tuple[FiniteGroup, FiniteGroup]) -> Counter[int]:
    """G x H: phi(gcd(alpha, beta)) cyclic subgroups of order lcm(alpha, beta) per
    pair of cyclic subgroups of G and H, of orders alpha and beta."""
    g, h = factors
    hs = cyclic_subgroup_orders(h).items()
    out: Counter[int] = Counter()
    for alpha, a in cyclic_subgroup_orders(g).items():
        for beta, b in hs:
            d = gcd(alpha, beta)
            out[alpha // d * beta] += a * b * totient(d)
    return out


class _Family(NamedTuple):
    """One ``FiniteGroup.family`` kind, each field a function of its parameter: its
    :func:`_powers`, the one field a family needs, and two optional fast paths, its
    :func:`cyclic_subgroups` already sorted and its :func:`cyclic_subgroup_orders`."""

    powers: Callable
    listed: Callable | None = None
    counted: Callable | None = None


#: FiniteGroup.family kind -> its row
_FAMILIES = {
    "cyclic": _Family(_cyclic_powers, _cyclic_closed_form, lambda n: Counter(divisors(n))),
    "dihedral": _Family(_dihedral_powers, _dihedral_closed_form,
                        lambda n: Counter(divisors(n)) + Counter({2: n})),
    "dicyclic": _Family(_dicyclic_powers, _dicyclic_closed_form,
                        lambda m: Counter(divisors(2 * m)) + Counter({4: m})),
    "product": _Family(_product_powers, counted=_product_orders),
}


def prime_order_subgroup_count(group: FiniteGroup) -> int:
    """Number of proper subgroups of prime order (0 for G of prime order)."""
    return sum(1 for s in cyclic_subgroups(group) if is_prime(s.order))


def maximal_cyclic_subgroups(group: FiniteGroup) -> list[CyclicSubgroup]:
    """Maximal elements, under inclusion, among the proper cyclic subgroups.

    G itself is never listed, not even when G is cyclic: then the list holds
    G's maximal proper subgroups.
    """
    return maximal_among(cyclic_subgroups(group))


def maximal_among(
    subs: list[CyclicSubgroup] | tuple[CyclicSubgroup, ...],
) -> list[CyclicSubgroup]:
    """The subgroups of ``subs`` (all distinct) contained in no other one, in their given order.

    K lies in H exactly when K's canonical generator does, so one walk over
    each H's elements finds every K below it: O(sum of |H|), not O(|subs|^2).
    Passing an intersection graph's vertices gives the maximal proper cyclic
    subgroups without enumerating them again.
    """
    gens = {s.generator for s in subs}
    covered: set[int] = set()
    for h in subs:
        covered |= gens.intersection(h.elements) - {h.generator}
    return [s for s in subs if s.generator not in covered]
