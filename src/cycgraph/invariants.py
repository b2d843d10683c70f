"""Exact graph invariants: shape predicates, girth, and certified solvers.

Every solver is exact-or-skip: it returns the exact value or raises
:class:`SkippedSizeCap`, never an approximation.  Independence and clique
cover numbers come from a simplicial-cover certificate alone: every
intersection graph of cyclic subgroups has one, since a vertex is simplicial
exactly when it contains one prime-order subgroup, and any other graph is
skipped, not searched.  The domination number is first tried with a
2-packing certificate and falls back to a node-budgeted search.  Each
certificate is checked against the graph.

The isolated vertices are counted in bulk, as one mask: each is its own
simplicial clique and its own only dominator, so the cover and the packing
start with all of them taken and the domination search with all of them
covered.  The shape predicates read the component masks, the degree list and
the edge count; :func:`compute_report` and :func:`shape_checks` compute these
once per graph and derive every shape field from them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from functools import reduce
from operator import or_

from .errors import EmptyGraphError, SkippedSizeCap
from .graphs import Graph, bits
from .planarity import is_planar

DEFAULT_NODE_BUDGET = 2_000_000

INFINITY = math.inf


# --- elementary predicates ---------------------------------------------------
#
# A public predicate computes only the facts it reads and passes them to its
# private helper; shape_checks and compute_report take all three facts from
# one _structure call and call the same helpers.

def _structure(g: Graph) -> tuple[list[int], list[int], int]:
    """(component masks, degree list, edge count) of g, from one pass each."""
    degs = g.degrees()
    return g.component_masks(), degs, sum(degs) // 2


def _complete(n: int, edges: int) -> bool:
    return edges == n * (n - 1) // 2


def _connected(n: int, masks: list[int]) -> bool:
    return n <= 1 or len(masks) == 1


def _acyclic(n: int, masks: list[int], edges: int) -> bool:
    return edges == n - len(masks)


def _star(n: int, degs: list[int], edges: int) -> bool:
    # a tree with a vertex of degree n - 1 leaves degree 1 to every other vertex
    return n >= 2 and edges == n - 1 and max(degs) == n - 1


def _path(n: int, masks: list[int], degs: list[int], edges: int) -> bool:
    return n >= 2 and _connected(n, masks) and _acyclic(n, masks, edges) and max(degs) <= 2


def _cycle(n: int, masks: list[int], degs: list[int]) -> bool:
    return n >= 3 and _connected(n, masks) and all(d == 2 for d in degs)


def _regular(degs: list[int]) -> bool:
    if not degs:
        raise EmptyGraphError("regularity is undefined on the empty graph")
    return all(d == degs[0] for d in degs)


def _shapes(n: int, masks: list[int], degs: list[int], edges: int) -> dict[str, bool]:
    return {
        "complete": _complete(n, edges),
        "star": _star(n, degs, edges),
        "path": _path(n, masks, degs, edges),
        "cycle": _cycle(n, masks, degs),
        "totally_disconnected": edges == 0,
    }


def _component_structure(g: Graph, masks: list[int]) -> tuple[tuple[int, bool], ...]:
    out = []
    for mask in masks:
        k = mask.bit_count()
        # a one-vertex component (an isolated vertex) is a clique without a check
        out.append((k, k == 1 or g.is_clique_mask(mask)))
    return tuple(sorted(out))


def is_totally_disconnected(g: Graph) -> bool:
    return g.edge_count() == 0


def is_complete(g: Graph) -> bool:
    """Every pair adjacent; K0 and K1 count as complete."""
    return _complete(g.n, g.edge_count())


def is_connected(g: Graph) -> bool:
    return _connected(g.n, g.component_masks())


def is_acyclic(g: Graph) -> bool:
    """Forest check: every component has exactly size-1 edges."""
    return _acyclic(g.n, g.component_masks(), g.edge_count())


def is_bipartite(g: Graph) -> bool:
    """Two-colouring by DFS; an isolated vertex needs no colour and is skipped."""
    adj = g.adj
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1 or not adj[s]:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in bits(adj[v]):
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
    degs = g.degrees()
    return _star(g.n, degs, sum(degs) // 2)


def is_path(g: Graph) -> bool:
    """A path with >= 1 edge: connected, acyclic, maximum degree <= 2."""
    return _path(g.n, *_structure(g))


def is_cycle(g: Graph) -> bool:
    """Connected and 2-regular."""
    return _cycle(g.n, g.component_masks(), g.degrees())


def is_regular(g: Graph) -> bool:
    return _regular(g.degrees())


def shape_checks(g: Graph) -> dict[str, bool]:
    return _shapes(g.n, *_structure(g))


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; inf when acyclic.

    A triangle decides it at once; a triangle-free graph runs BFS (Itai and
    Rodeh, 1978) from each vertex of degree >= 2, the only ones a cycle passes.
    The BFS from a vertex on a shortest cycle finds its length, and no BFS
    reports less.
    """
    if has_triangle(g):
        return 3
    adj = g.adj
    best = INFINITY
    for s in range(g.n):
        if adj[s].bit_count() < 2:
            continue
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        for v in queue:                 # reads the vertices appended below too
            if dist[v] * 2 >= best:
                break
            for w in bits(adj[v]):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def component_structure(g: Graph) -> tuple[tuple[int, bool], ...]:
    """Sorted multiset of (component size, component is a clique)."""
    return _component_structure(g, g.component_masks())


# --- exact solvers -----------------------------------------------------------

def _split_isolated(adj: list[int]) -> tuple[int, list[int]]:
    """The isolated vertices as one mask, and the other vertices ascending.

    A vertex has a neighbour exactly when it lies in some adjacency row, so
    the mask is the complement of the rows' union.
    """
    return (1 << len(adj)) - 1 & ~reduce(or_, adj, 0), [v for v, a in enumerate(adj) if a]


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

    An isolated vertex is its own simplicial clique and has the lowest degree,
    so all of them are taken first, as one mask, and only the rest are walked.
    """
    adj = g.adj
    covered, others = _split_isolated(adj)
    k = covered.bit_count()
    for v in sorted(others, key=lambda u: adj[u].bit_count()):
        closed = adj[v] | 1 << v
        if not covered >> v & 1 and g.is_clique_mask(closed):
            covered |= closed
            k += 1
    return k if covered == (1 << g.n) - 1 else None


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size, by the simplicial-cover certificate;
    raises SkippedSizeCap on a graph without one."""
    k = simplicial_cover(g)
    if k is None:
        raise SkippedSizeCap("no simplicial-cover certificate")
    return k


def clique_cover_number(g: Graph) -> int:
    """Exact clique cover number, equal to alpha by the same certificate; raises
    SkippedSizeCap on a graph without one."""
    return independence_number(g)


def _two_packing(closed: list[int], vertices: Iterable[int]) -> list[int]:
    """Greedy 2-packing: vertices with pairwise disjoint closed neighbourhoods.

    Walks the given vertices in ascending closed-neighbourhood size and takes
    each one whose N[v] meets none taken before.  Each taken vertex is
    dominated only from its N[v], and no vertex lies in two of them, so gamma
    >= the number taken.  An isolated vertex, N[v] = {v}, meets no other N[w]
    and would be taken first; the callers pack all of them at once and walk
    only the others.
    """
    taken = 0
    packed = []
    for v in sorted(vertices, key=lambda u: closed[u].bit_count()):
        if not closed[v] & taken:
            taken |= closed[v]
            packed.append(v)
    return packed


def _packing_certificate(closed: list[int], isolated: int, packed: list[int]) -> int | None:
    """The packing's size, the isolated vertices included, when they and the
    best dominator picked in each packed N[v] dominate every vertex, else None.
    An isolated vertex is its own only dominator, so all are picked at once."""
    covered = isolated
    for v in packed:
        best = -1
        for w in bits(closed[v]):  # ties keep the first best dominator
            gain = (closed[w] & ~covered).bit_count()
            if gain > best:
                best, pick = gain, closed[w]
        covered |= pick
    if covered == (1 << len(closed)) - 1:
        return isolated.bit_count() + len(packed)
    return None


def domination_number(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact domination number: the 2-packing certificate when it exists, else
    iterative deepening over the set size from the packing lower bound.

    Every isolated vertex must dominate itself, so the search starts with them
    covered, looks for k fewer dominators among the other vertices only, and
    adds their count back."""
    n = g.n
    if n == 0:
        raise EmptyGraphError("domination number is undefined on the empty graph")
    closed = [a | 1 << v for v, a in enumerate(g.adj)]
    isolated, others = _split_isolated(g.adj)
    packed = _two_packing(closed, others)
    cert = _packing_certificate(closed, isolated, packed)
    if cert is not None:
        return cert
    full = (1 << n) - 1
    forced = isolated.bit_count()
    left = node_budget

    def feasible(covered: int, k: int) -> bool:
        nonlocal left
        if covered == full:
            return True
        if k == 0:
            return False
        left -= 1
        if left < 0:
            raise SkippedSizeCap("solver node budget exhausted")
        uncovered = full & ~covered
        maxgain = max((closed[v] & uncovered).bit_count() for v in others)
        if maxgain * k < uncovered.bit_count():
            return False
        # branch on the uncovered vertex with fewest possible dominators
        v = min(bits(uncovered), key=lambda u: closed[u].bit_count())
        for w in bits(closed[v]):
            if feasible(covered | closed[w], k - 1):
                return True
        return False

    k = len(packed)   # the other vertices dominate the rest, so this ends or the budget raises
    while not feasible(isolated, k):
        k += 1
    return k + forced


# --- graph isomorphism --------------------------------------------------------

def graph_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test at any size: networkx's VF2 on every vertex, isolated ones included.

    networkx is imported here, on the first call, and not with the package:
    no CLI route calls this, so no CLI call loads it."""
    import networkx as nx

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
    budget bounds the domination search.

    The components, degrees and edge count are computed once and every shape
    field and acyclicity are read off them; bipartiteness and girth come from
    their public predicates, and a triangle is a girth of 3.
    """
    n = g.n
    masks, degs, edges = _structure(g)
    shapes = _shapes(n, masks, degs, edges)
    shortest = girth(g)
    report = InvariantReport(
        vertex_count=n,
        edge_count=edges,
        is_totally_disconnected=shapes["totally_disconnected"],
        is_complete=shapes["complete"],
        is_star=shapes["star"],
        is_path=shapes["path"],
        is_cycle=shapes["cycle"],
        is_bipartite=is_bipartite(g),
        is_acyclic=_acyclic(n, masks, edges),
        has_triangle=shortest == 3,
        girth=shortest,
        component_structure=_component_structure(g, masks),
        is_planar=is_planar(g),
    )
    # alpha and theta share one certificate, so one solver call sets both fields
    for names, solver in (
        (("is_regular",), lambda h: _regular(degs)),
        (("independence_number", "clique_cover_number"), independence_number),
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
