"""Enumeration of proper nontrivial cyclic subgroups: the graph's vertex set."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .arith import coprime_mask, is_prime
from .groups import FiniteGroup


@dataclass(frozen=True)
class CyclicSubgroup:
    """One cyclic subgroup <g>: its canonical (smallest) generator, its
    element indices in ascending order, and its order."""

    generator: int
    elements: tuple[int, ...]
    order: int

    def contains(self, other: "CyclicSubgroup") -> bool:
        return set(other.elements) <= set(self.elements)


def cyclic_subgroups(group: FiniteGroup) -> list[CyclicSubgroup]:
    """All proper nontrivial cyclic subgroups, deduplicated and canonically ordered.

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
