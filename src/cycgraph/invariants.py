"""Exact graph invariants: shape predicates, girth, and certified solvers.

Every solver is exact-or-skip: it returns the exact value or raises
:class:`SkippedSizeCap`, never an approximation.  Independence and clique
cover numbers come from a simplicial-cover certificate alone: every
intersection graph of cyclic subgroups has one, since a vertex is simplicial
exactly when it contains one prime-order subgroup, and any other graph is
skipped, not searched.  The domination number is first tried with a
2-packing certificate and falls back to a node-budgeted search.  Each
certificate is checked against the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import networkx as nx

from .errors import EmptyGraphError, SkippedSizeCap
from .graphs import Graph, bits
from .planarity import is_planar

DEFAULT_NODE_BUDGET = 2_000_000

INFINITY = math.inf


# --- elementary predicates ---------------------------------------------------

def is_totally_disconnected(g: Graph) -> bool:
    return g.edge_count() == 0


def is_complete(g: Graph) -> bool:
    """Every pair adjacent; K0 and K1 count as complete."""
    full = (1 << g.n) - 1
    return all(a == full & ~(1 << v) for v, a in enumerate(g.adj))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(g.component_masks()) == 1


def is_acyclic(g: Graph) -> bool:
    """Forest check: every component has exactly size-1 edges."""
    return g.edge_count() == g.n - len(g.component_masks())


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in bits(g.adj[v]):
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def has_triangle(g: Graph) -> bool:
    for u in range(g.n):
        au = g.adj[u]
        for v in bits(au):
            if v > u and au & g.adj[v]:
                return True
    return False


def is_star(g: Graph) -> bool:
    """Isomorphic to K_{1,m} with m >= 1 (so K2 is the smallest star)."""
    if g.n < 2 or g.edge_count() != g.n - 1:
        return False
    degs = sorted(g.degrees())
    return degs[-1] == g.n - 1 and all(d == 1 for d in degs[:-1])


def is_path(g: Graph) -> bool:
    """A path with >= 1 edge: connected, acyclic, maximum degree <= 2."""
    return (
        g.n >= 2
        and is_connected(g)
        and is_acyclic(g)
        and max(g.degrees()) <= 2
    )


def is_cycle(g: Graph) -> bool:
    """Connected and 2-regular."""
    return g.n >= 3 and is_connected(g) and all(d == 2 for d in g.degrees())


def is_regular(g: Graph) -> bool:
    if g.n == 0:
        raise EmptyGraphError("regularity is undefined on the empty graph")
    degs = g.degrees()
    return all(d == degs[0] for d in degs)


def shape_checks(g: Graph) -> dict[str, bool]:
    return {
        "complete": is_complete(g),
        "star": is_star(g),
        "path": is_path(g),
        "cycle": is_cycle(g),
        "totally_disconnected": is_totally_disconnected(g),
    }


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; inf when acyclic.

    A triangle decides it at once; a triangle-free graph runs BFS from every vertex.
    """
    if has_triangle(g):
        return 3
    best = INFINITY
    for s in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            if dist[v] * 2 >= best:
                break
            for w in bits(g.adj[v]):
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def component_structure(g: Graph) -> tuple[tuple[int, bool], ...]:
    """Sorted multiset of (component size, component is a clique)."""
    out = []
    for mask in g.component_masks():
        out.append((mask.bit_count(), g.is_clique_mask(mask)))
    return tuple(sorted(out))


# --- exact solvers -----------------------------------------------------------

class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise SkippedSizeCap("solver node budget exhausted")


def simplicial_cover(g: Graph) -> int | None:
    """alpha = theta = k by a checked certificate, or None when none is found.

    Walks the vertices in ascending degree and takes each uncovered vertex
    whose closed neighbourhood is a clique (a simplicial vertex).  Each taken
    vertex lies outside the closed neighbourhoods taken before it, so the k
    taken vertices are independent (alpha >= k); when their k cliques cover
    every vertex, theta <= k.  As alpha <= theta on every graph, both equal k.

    In an intersection graph of cyclic subgroups two vertices meet iff they
    share a prime-order subgroup (a cyclic group has one of each prime order),
    so a vertex is simplicial iff it contains exactly one prime-order subgroup
    P, and then its closed neighbourhood is C_P = {H : P <= H}.  Each P is
    itself such a vertex, so the cover always exists there, with k the number
    of prime-order subgroups.
    """
    adj = g.adj
    covered = 0
    k = 0
    for v in sorted(range(g.n), key=lambda u: adj[u].bit_count()):
        closed = adj[v] | 1 << v
        if not covered >> v & 1 and g.is_clique_mask(closed):
            covered |= closed
            k += 1
    return k if covered == (1 << g.n) - 1 else None


def _certified_cover(g: Graph) -> int:
    k = simplicial_cover(g)
    if k is None:
        raise SkippedSizeCap("no simplicial-cover certificate")
    return k


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size, by the simplicial-cover certificate;
    raises SkippedSizeCap on a graph without one."""
    return _certified_cover(g)


def clique_cover_number(g: Graph) -> int:
    """Exact clique cover number, by the simplicial-cover certificate; raises
    SkippedSizeCap on a graph without one."""
    return _certified_cover(g)


def _two_packing(closed: list[int]) -> list[int]:
    """Greedy 2-packing: vertices with pairwise disjoint closed neighbourhoods.

    Walks the vertices in ascending closed-neighbourhood size and takes each
    one whose N[v] meets none taken before.  Each taken vertex is dominated
    only from its N[v], and no vertex lies in two of them, so gamma >= the
    number taken.
    """
    taken = 0
    packed = []
    for v in sorted(range(len(closed)), key=lambda u: closed[u].bit_count()):
        if not closed[v] & taken:
            taken |= closed[v]
            packed.append(v)
    return packed


def domination_certificate(g: Graph) -> int | None:
    """gamma = k by a checked certificate, or None when none is found.

    A greedy 2-packing of k vertices gives gamma >= k.  For each packed vertex
    the dominator in its N[v] covering the most still-uncovered vertices is
    picked; when the k picks dominate every vertex, gamma <= k.  In these
    graphs the subgroups of one prime order have disjoint N[v] (a cyclic group
    has one subgroup of each prime order), so the bound is usually tight.
    """
    closed = [a | 1 << v for v, a in enumerate(g.adj)]
    return _packing_certificate(closed, _two_packing(closed))


def _packing_certificate(closed: list[int], packed: list[int]) -> int | None:
    """len(packed) when the best dominator picked in each packed N[v]
    dominates every vertex, else None."""
    covered = 0
    for v in packed:
        covered |= max(
            (closed[w] for w in bits(closed[v])),
            key=lambda c: (c & ~covered).bit_count(),
        )
    return len(packed) if covered == (1 << len(closed)) - 1 else None


def domination_number(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact domination number: the 2-packing certificate when it exists, else
    iterative deepening over the set size from the packing lower bound."""
    n = g.n
    if n == 0:
        raise EmptyGraphError("domination number is undefined on the empty graph")
    closed = [a | 1 << v for v, a in enumerate(g.adj)]
    packed = _two_packing(closed)
    cert = _packing_certificate(closed, packed)
    if cert is not None:
        return cert
    full = (1 << n) - 1
    budget = _Budget(node_budget)

    def feasible(covered: int, k: int) -> bool:
        if covered == full:
            return True
        if k == 0:
            return False
        budget.spend()
        uncovered = full & ~covered
        maxgain = max((closed[v] & uncovered).bit_count() for v in range(n))
        if maxgain * k < uncovered.bit_count():
            return False
        # branch on the uncovered vertex with fewest possible dominators
        v = min(bits(uncovered), key=lambda u: closed[u].bit_count())
        for w in bits(closed[v]):
            if feasible(covered | closed[w], k - 1):
                return True
        return False

    for k in range(len(packed), n + 1):
        if feasible(0, k):
            return k
    return n  # unreachable: the full vertex set always dominates


# --- graph isomorphism --------------------------------------------------------

def graph_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test at any size: networkx's VF2 on every vertex, isolated ones included."""
    h1, h2 = (nx.Graph({v: list(bits(a)) for v, a in enumerate(g.adj)}) for g in (g1, g2))
    return nx.is_isomorphic(h1, h2)


# --- full report ---------------------------------------------------------------

@dataclass
class InvariantReport:
    """Every invariant of one graph; None means skipped/undefined (see notes)."""

    vertex_count: int
    edge_count: int
    is_totally_disconnected: bool
    is_complete: bool
    is_star: bool
    is_path: bool
    is_cycle: bool
    is_bipartite: bool
    is_acyclic: bool
    has_triangle: bool
    girth: int | float
    component_structure: tuple[tuple[int, bool], ...]
    is_planar: bool
    is_regular: bool | None = None
    independence_number: int | None = None
    clique_cover_number: int | None = None
    domination_number: int | None = None
    weakly_alpha_perfect: bool | None = None
    notes: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.girth == INFINITY:
            d["girth"] = "inf"
        d["component_structure"] = [list(c) for c in self.component_structure]
        d["notes"] = dict(sorted(self.notes.items()))
        return d


def compute_report(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> InvariantReport:
    """All invariants of one graph, with per-invariant skip markers; the node
    budget bounds the domination search."""
    report = InvariantReport(
        vertex_count=g.n,
        edge_count=g.edge_count(),
        is_totally_disconnected=is_totally_disconnected(g),
        is_complete=is_complete(g),
        is_star=is_star(g),
        is_path=is_path(g),
        is_cycle=is_cycle(g),
        is_bipartite=is_bipartite(g),
        is_acyclic=is_acyclic(g),
        has_triangle=has_triangle(g),
        girth=girth(g),
        component_structure=component_structure(g),
        is_planar=is_planar(g),
    )
    # alpha and theta share one certificate, so one solver call sets both fields
    for names, solver in (
        (("is_regular",), is_regular),
        (("independence_number", "clique_cover_number"), _certified_cover),
        (("domination_number",), lambda h: domination_number(h, node_budget)),
    ):
        try:
            value = solver(g)
        except EmptyGraphError:
            report.notes.update(dict.fromkeys(names, "undefined on the empty graph"))
        except SkippedSizeCap as exc:
            report.notes.update(dict.fromkeys(names, str(exc)))
        else:
            for name in names:
                setattr(report, name, value)
    if report.independence_number is not None:
        report.weakly_alpha_perfect = report.independence_number == report.clique_cover_number
    return report
