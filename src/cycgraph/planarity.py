"""Exact planarity, decided per connected component.

``is_planar`` is the one planarity route.  The test suite cross-checks it
against an independent Kuratowski minor search, which lives with the other
test oracles in ``tests/conftest.py``.
"""

from __future__ import annotations

import networkx as nx

from .graphs import Graph, bits


def is_planar(g: Graph) -> bool:
    """Exact planarity decision, per connected component, at any size.

    Components with <= 4 vertices are planar; components violating the Euler
    bound e <= 3v - 6 are not; the rest, with O(v) edges, go to networkx's
    linear-time left-right planarity test on their original vertex labels.
    """
    adj = g.adj
    for mask in g.component_masks():
        k = mask.bit_count()
        if k <= 4:
            continue
        if sum(adj[v].bit_count() for v in bits(mask)) // 2 > 3 * k - 6:
            return False
        edges = [(u, v) for u in bits(mask) for v in bits(adj[u]) if u < v]
        if not nx.check_planarity(nx.Graph(edges), counterexample=False)[0]:
            return False
    return True
