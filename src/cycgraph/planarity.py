"""Exact planarity: a fast per-component test plus an independent minor-search oracle.

``is_planar`` and ``kuratowski_oracle`` are deliberately separate routes; the
test suite cross-validates them on every small graph it sees.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

from .errors import SkippedSizeCap
from .graphs import Graph, bits

#: most vertices per component kuratowski_oracle searches; a larger one is skipped
KURATOWSKI_COMPONENT_CAP = 12


def is_planar(g: Graph) -> bool:
    """Exact planarity decision, per connected component, at any size.

    Components with <= 4 vertices are planar; components violating the Euler
    bound e <= 3v - 6 are not; the rest, with O(v) edges, go to networkx's
    linear-time left-right planarity test.
    """
    for mask in g.component_masks():
        k = mask.bit_count()
        if k <= 4:
            continue
        comp = g.subgraph(list(bits(mask)))
        e = comp.edge_count()
        if e > 3 * k - 6:
            return False
        nxg = nx.Graph()
        nxg.add_nodes_from(range(k))
        nxg.add_edges_from(comp.edges())
        if not nx.check_planarity(nxg, counterexample=False)[0]:
            return False
    return True


def kuratowski_oracle(g: Graph) -> bool:
    """True iff no K5 or K3,3 minor exists (so True means planar).

    Recursive deletion/contraction search over each component, with
    degree-<=2 reduction, Euler-bound pruning, and direct subgraph hits.
    Intended as an independent cross-check on small graphs only.
    """
    for mask in g.component_masks():
        k = mask.bit_count()
        if k > KURATOWSKI_COMPONENT_CAP:
            raise SkippedSizeCap(
                f"minor oracle capped at {KURATOWSKI_COMPONENT_CAP} vertices per component"
            )
        comp = g.subgraph(list(bits(mask)))
        adj = {v: set(bits(comp.adj[v])) for v in range(comp.n)}
        if _has_forbidden_minor(adj):
            return False
    return True


def _reduce(adj: dict[int, set[int]]) -> None:
    """Strip degree-0/1 vertices and suppress degree-2 vertices in place.

    These operations change neither planarity nor the existence of a
    K5/K3,3 minor.
    """
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            deg = len(adj[v])
            if deg <= 1:
                for w in adj[v]:
                    adj[w].discard(v)
                del adj[v]
                changed = True
            elif deg == 2:
                a, b = adj[v]
                adj[a].discard(v)
                adj[b].discard(v)
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
                del adj[v]
                changed = True


def _has_k5_subgraph(adj: dict[int, set[int]]) -> bool:
    hi = [v for v in adj if len(adj[v]) >= 4]
    for quint in combinations(hi, 5):
        if all(b in adj[a] for a, b in combinations(quint, 2)):
            return True
    return False


def _has_k33_subgraph(adj: dict[int, set[int]]) -> bool:
    hi = [v for v in adj if len(adj[v]) >= 3]
    for left in combinations(hi, 3):
        common = adj[left[0]] & adj[left[1]] & adj[left[2]]
        common -= set(left)
        if len(common) >= 3:
            return True
    return False


def _contract(adj: dict[int, set[int]], u: int, v: int) -> dict[int, set[int]]:
    """New adjacency dict with edge uv contracted into u."""
    out = {x: set(s) for x, s in adj.items() if x != v}
    for w in adj[v]:
        if w != u:
            out[w].discard(v)
            out[w].add(u)
            out[u].add(w)
    out[u].discard(v)
    out[u].discard(u)
    return out


def _has_forbidden_minor(adj: dict[int, set[int]], _seen: set | None = None) -> bool:
    """Minor search by contraction only.

    The subgraph checks ignore extra edges, so any K5/K3,3 minor model shows
    up as a plain subgraph once the branch sets are contracted; edge and
    vertex deletions never need their own branch.
    """
    if _seen is None:
        _seen = set()
    _reduce(adj)
    n = len(adj)
    e = sum(len(s) for s in adj.values()) // 2
    if n < 5 or e < 9:
        return False
    key = frozenset(frozenset((v, w)) for v in adj for w in adj[v])
    if key in _seen:
        return False
    _seen.add(key)
    if e > 3 * n - 6:
        return True  # non-planar by Euler's bound, hence has a forbidden minor
    if _has_k5_subgraph(adj) or _has_k33_subgraph(adj):
        return True
    for u in adj:
        for v in adj[u]:
            if u < v and _has_forbidden_minor(_contract(adj, u, v), _seen):
                return True
    return False
