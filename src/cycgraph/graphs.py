"""Undirected graphs over bitmask adjacency rows, and the intersection graph builder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .arith import exponent_divisors, factorize, is_prime
from .errors import VertexCapExceeded
from .groups import FiniteGroup
from .subgroups import CyclicSubgroup, cyclic_subgroups

DEFAULT_VERTEX_CAP = 5000


def bits(mask: int) -> Iterator[int]:
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class Graph:
    """Simple undirected graph; adj[v] is the neighbor set of v as a bitmask."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"a graph cannot have {n} vertices")
        self.n = n
        self.adj = [0] * n
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        """Add the edge uv; both ends are checked before either row is written."""
        if u == v:
            raise ValueError("self-loops are not allowed")
        for x in (u, v):
            if not (0 <= x < self.n):
                raise IndexError(f"vertex {x} out of range")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, in order of u, then v."""
        return [(u, v) for u, a in enumerate(self.adj) for v in bits(a >> (u + 1) << (u + 1))]

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def component_masks(self) -> list[int]:
        """Connected components as vertex bitmasks, ordered by smallest vertex.

        An isolated vertex is its own component and needs no search.
        """
        adj = self.adj
        seen = 0
        out = []
        for s in range(self.n):
            if not adj[s]:
                out.append(1 << s)
                continue
            if seen >> s & 1:
                continue
            comp = 1 << s
            frontier = 1 << s
            while frontier:
                nxt = 0
                for v in bits(frontier):
                    nxt |= adj[v]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            out.append(comp)
        return out

    def is_clique_mask(self, mask: int) -> bool:
        for v in bits(mask):
            if (self.adj[v] | 1 << v) & mask != mask:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


@dataclass(frozen=True)
class IntersectionGraph:
    """The intersection graph of cyclic subgroups of one finite group."""

    vertices: tuple[CyclicSubgroup, ...]
    graph: Graph
    source_descriptor: str
    primes: tuple[int, ...]  #: the prime-order vertices, ascending: one per clique C_P

    @property
    def n(self) -> int:
        return self.graph.n


def vertex_cap_message(descriptor: str, n: int, vertex_cap: int) -> str:
    """The skip message of a group whose graph has ``n`` vertices, over the cap."""
    return f"{descriptor}: {n} vertices exceeds cap {vertex_cap}"


def build(group: FiniteGroup, vertex_cap: int = DEFAULT_VERTEX_CAP) -> IntersectionGraph:
    """Vertices are the proper nontrivial cyclic subgroups in canonical order;
    two are adjacent iff they share a subgroup P of prime order (any nontrivial
    intersection holds one), so the graph is the union of the cliques
    C_P = {H : P <= H}.  P <= H iff H holds P's canonical generator, since that
    one element generates P.  Vertices come sorted by order, so P is met
    before every H > P: P opens C_P, and as P lies in no other prime-order
    subgroup, only the other vertices are tested.  A C_P of one member adds
    no edge.  The P that open the cliques are the graph's ``primes``."""
    subs = cyclic_subgroups(group)
    if len(subs) > vertex_cap:
        raise VertexCapExceeded(vertex_cap_message(group.descriptor, len(subs), vertex_cap))
    prime = {d: is_prime(d) for d in {s.order for s in subs}}
    cliques: dict[int, list[int]] = {}
    for v, s in enumerate(subs):
        if prime[s.order]:
            cliques[s.generator] = [v]
        else:
            for p in cliques.keys() & s.elements:
                cliques[p].append(v)
    g = _clique_union(len(subs), [c for c in cliques.values() if len(c) > 1])
    return IntersectionGraph(tuple(subs), g, group.descriptor, tuple(c[0] for c in cliques.values()))


def zn_divisor_graph(
    n: int, factors: tuple[tuple[int, int], ...] | None = None
) -> tuple[list[int], Graph]:
    """Intersection graph of Z_n in its divisor representation.

    Vertices are the divisors d of n with 1 < d < n (one cyclic subgroup per
    divisor, of order d), in :func:`~cycgraph.arith.exponent_divisors` order;
    d and e are adjacent iff gcd(d, e) > 1, that is iff some prime p | n
    divides both.  So, as in :func:`build`, the graph is the union over p | n
    of the cliques of divisors divisible by p, and no pair is tested.  As
    p_i | d iff d's i-th exponent is positive, the graph depends only on n's
    exponent signature.  A call without n's factorization factors n.
    """
    if factors is None:
        factors = factorize(n)
    ds = exponent_divisors(factors)[1:-1]
    cliques = ([v for v, d in enumerate(ds) if d % p == 0] for p, _ in factors)
    return ds, _clique_union(len(ds), cliques)


def _clique_union(n: int, cliques: Iterable[list[int]]) -> Graph:
    """The graph on n vertices whose edges are those of the given cliques, each
    given as the list of its member vertices.

    Each clique's mask is ORed into the row of each member, self bit included;
    the self bits are cleared once, at the end, so no mask is walked bit by bit.
    """
    adj = [0] * n
    for members in cliques:
        mask = 0
        for v in members:
            mask |= 1 << v
        for v in members:
            adj[v] |= mask
    g = Graph(n)
    g.adj = [a & ~(1 << v) for v, a in enumerate(adj)]
    return g
