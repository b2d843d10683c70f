"""Enumeration of proper nontrivial cyclic subgroups: the graph's vertex set.

Z(n), D(n) and Dic(m) are listed in closed form; every other group is
walked, and the walk is the closed forms' test oracle.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .arith import coprime_mask, divisors, is_prime
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

    def contains(self, other: "CyclicSubgroup") -> bool:
        return set(other.elements) <= set(self.elements)


def cyclic_subgroups(group: FiniteGroup) -> list[CyclicSubgroup]:
    """All proper nontrivial cyclic subgroups, deduplicated and canonically
    ordered by (order, elements).

    A group built by ``groups.cyclic``, ``groups.dihedral`` or
    ``groups.dicyclic`` carries its ``family``, and its list is written down
    in closed form on that constructor's element labels; every other group is
    walked element by element (:func:`_walk_subgroups`, which the tests hold
    the closed forms equal to).
    """
    if group.family is not None:
        kind, param = group.family
        return _CLOSED_FORMS[kind](param)
    return _walk_subgroups(group)


def _walk_subgroups(group: FiniteGroup) -> list[CyclicSubgroup]:
    """:func:`cyclic_subgroups` of any group, by walking the powers of its elements.

    Walks every element once: generating <g> also identifies all phi(m) of its
    generators (the powers g^k with gcd(k, m) = 1, read off the cached
    ``coprime_mask(m)``), which are then skipped.
    Total cost is the sum of |H| over distinct cyclic subgroups H.  Powers
    step as g * x, which equals x * g since powers of g commute with g: every
    product is a left multiplication by a walk's start, so a group that turns
    table rows into lists on first use converts one row per walk.
    """
    n = group.order
    mul, e = group.mul, group.identity
    done = bytearray(n)
    done[e] = 1
    subs: list[CyclicSubgroup] = []
    for g in range(n):
        if done[g]:
            continue
        powers = [e]
        x = g
        while x != e:
            powers.append(x)
            x = mul(g, x)
        m = len(powers)
        gens = list(compress(powers, coprime_mask(m)))
        for h in gens:
            done[h] = 1
        if m == n:  # <g> = G: not a proper subgroup
            continue
        subs.append(CyclicSubgroup(min(gens), tuple(sorted(powers)), m))
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


# --- closed forms, on the element labels of the family constructors -----------

def _rotation_subgroups(n: int, orders: list[int]) -> list[CyclicSubgroup]:
    """The subgroups of the given orders d | n of a cyclic group on 0..n-1 (a + b mod n).

    The subgroup of order d is {0, n/d, 2n/d, ...}; its least generator is n/d.
    """
    return [CyclicSubgroup(n // d, tuple(range(0, n, n // d)), d) for d in orders]


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
    return _rotation_subgroups(n, divisors(n)[1:-1])


def _dihedral_closed_form(n: int) -> list[CyclicSubgroup]:
    """D(n), element i + s*n = r^i s: the subgroups of <r>, all proper, and the
    n reflection subgroups {e, r^i s}."""
    if n == 1:  # D(1) is of order 2, generated by its one reflection
        return []
    reflections = [CyclicSubgroup(n + i, (0, n + i), 2) for i in range(n)]
    return _after_order(_rotation_subgroups(n, divisors(n)[1:]), reflections, 2)


def _dicyclic_closed_form(m: int) -> list[CyclicSubgroup]:
    """Dic(m), element i + s*2m = a^i b^s: the subgroups of <a>, all proper, and
    the m subgroups <a^i b> = {e, a^m, a^i b, a^(i+m) b} of order 4, i < m."""
    n2 = 2 * m
    quaternions = [CyclicSubgroup(n2 + i, (0, m, n2 + i, n2 + m + i), 4) for i in range(m)]
    return _after_order(_rotation_subgroups(n2, divisors(n2)[1:]), quaternions, 4)


#: FiniteGroup.family kind -> its closed-form cyclic_subgroups
_CLOSED_FORMS = {
    "cyclic": _cyclic_closed_form,
    "dihedral": _dihedral_closed_form,
    "dicyclic": _dicyclic_closed_form,
}


def prime_order_subgroup_count(group: FiniteGroup) -> int:
    """Number of proper subgroups of prime order (0 for G of prime order)."""
    return sum(1 for s in cyclic_subgroups(group) if is_prime(s.order))


def maximal_cyclic_subgroups(group: FiniteGroup) -> list[CyclicSubgroup]:
    """Maximal elements, under inclusion, among the proper cyclic subgroups.

    When G itself is cyclic the unique maximal cyclic subgroup of G is G,
    which is not a vertex; callers needing that case should also consult
    :func:`cycgraph.groups.is_cyclic_group`.
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
