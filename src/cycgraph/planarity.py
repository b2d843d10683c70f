"""Exact planarity, decided per connected component.

``is_planar`` is the one planarity route, with no size cap and no outside
library: a component that no shortcut decides is reduced, split into its
biconnected blocks, and each block large enough to hold a subdivided K5 or
K3,3 goes to the Demoucron–Malgrange–Pertuiset path-addition test
(Demoucron, Malgrange & Pertuiset 1964).  That test is polynomial, not
linear: it recomputes the fragments after each path it embeds.  The test
suite cross-checks the route against an independent Kuratowski minor search
and against networkx's embedding test, which live with the other test
oracles in ``tests/``.
"""

from __future__ import annotations

from .graphs import Graph, bits


def is_planar(g: Graph) -> bool:
    """Exact planarity decision, per connected component, at any size.

    Components with <= 4 vertices are planar; components violating the Euler
    bound e <= 3v - 6 are not.  The rest lose their vertices of degree <= 1,
    and each vertex of degree 2 is smoothed into an edge between its two
    neighbours (dropped if that edge is already there); neither step changes
    planarity.  What is left is planar iff each of its biconnected blocks is.
    A block of fewer than 9 edges is planar, since a subdivided K5 has 10 and
    a subdivided K3,3 has 9; every other block goes to :func:`_embeds`.  The
    cost is polynomial in the size of the largest such block, not linear.
    """
    adj = g.adj
    for mask in g.component_masks():
        k = mask.bit_count()
        if k <= 4:
            continue
        if sum(adj[v].bit_count() for v in bits(mask)) // 2 > 3 * k - 6:
            return False
        nbrs = _reduced({v: set(bits(adj[v])) for v in bits(mask)})
        if not all(_embeds(b) for b in _blocks(nbrs) if len(b) >= 9):
            return False
    return True


def _reduced(nbrs: dict[int, set[int]]) -> dict[int, set[int]]:
    """Delete vertices of degree <= 1 and smooth those of degree 2, in place,
    until every vertex left has degree >= 3."""
    stack = list(nbrs)
    while stack:
        v = stack.pop()
        vs = nbrs.get(v)
        if vs is None or len(vs) > 2:
            continue
        del nbrs[v]
        for u in vs:
            nbrs[u].discard(v)
        if len(vs) == 2:
            a, b = vs
            if b not in nbrs[a]:  # the smoothed edge: no degree changes
                nbrs[a].add(b)
                nbrs[b].add(a)
                continue
        stack.extend(vs)
    return nbrs


def _blocks(nbrs: dict[int, set[int]]) -> list[list[tuple[int, int]]]:
    """The edge lists of the biconnected blocks (Hopcroft–Tarjan, iterative)."""
    depth: dict[int, int] = {}
    low: dict[int, int] = {}
    out = []
    for root in nbrs:
        if root in depth:
            continue
        depth[root] = low[root] = 0
        edges: list[tuple[int, int]] = []
        stack = [(root, -1, iter(nbrs[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if w == parent:
                    continue
                if w not in depth:
                    depth[w] = low[w] = depth[v] + 1
                    edges.append((v, w))
                    stack.append((w, v, iter(nbrs[w])))
                    break
                if depth[w] < depth[v]:  # a back edge, met from its lower end
                    low[v] = min(low[v], depth[w])
                    edges.append((v, w))
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= depth[parent]:  # parent cuts v's subtree off
                    block = []
                    while not block or block[-1] != (parent, v):
                        block.append(edges.pop())
                    out.append(block)
    return out


def _embeds(block: list[tuple[int, int]]) -> bool:
    """Demoucron–Malgrange–Pertuiset path addition on one biconnected block.

    Embed a cycle; its two faces are kept as vertex lists in boundary order.
    Then, until every edge is embedded, take the fragments of the rest: each
    edge not embedded whose ends both are (a chord), and each component of
    the vertices not embedded together with its edges to those that are.  A
    fragment fits a face whose boundary holds all its attachments (its
    embedded vertices).  If some fragment fits no face the block is not
    planar.  Otherwise embed a path between two attachments of a fragment
    that fits exactly one face, or of any fragment if none does, in a face it
    fits, splitting that face in two.  On a biconnected graph this succeeds
    iff the graph is planar.
    """
    nbrs: dict[int, set[int]] = {}
    for u, v in block:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    # a cycle: walk on without stepping back (every degree is >= 2) to a repeat
    v, prev = block[0][0], None
    walk = {v: 0}
    while True:
        v, prev = next(w for w in nbrs[v] if w != prev), v
        if v in walk:
            cycle = list(walk)[walk[v]:]
            break
        walk[v] = len(walk)
    placed = {v: set() for v in nbrs}  # embedded neighbours; empty if not embedded
    faces = [cycle, cycle[::-1]]
    path = cycle + cycle[:1]
    while True:
        for u, w in zip(path, path[1:]):
            placed[u].add(w)
            placed[w].add(u)
        # fragments as (attachments, component), a chord's component being None
        fragments: list[tuple] = [
            ((u, w), None) for u in nbrs if placed[u] for w in nbrs[u]
            if u < w and placed[w] and w not in placed[u]
        ]
        rest = {v for v in nbrs if not placed[v]}
        while rest:
            comp, frontier = set(), [rest.pop()]
            while frontier:
                x = frontier.pop()
                comp.add(x)
                frontier += nbrs[x] & rest
                rest -= nbrs[x]
            fragments.append(({w for x in comp for w in nbrs[x] if placed[w]}, comp))
        if not fragments:
            return True
        bounds = [set(f) for f in faces]
        chosen = None
        for att, comp in fragments:
            fits = [i for i, f in enumerate(bounds) if f.issuperset(att)]
            if not fits:
                return False
            if chosen is None or len(fits) == 1:
                chosen = att, comp, fits[0]
                if len(fits) == 1:
                    break
        att, comp, i = chosen
        path = list(att) if comp is None else _fragment_path(nbrs, placed, comp)
        face = faces[i]
        m = len(face)
        s, t = face.index(path[0]), face.index(path[-1])
        if t < s:
            t += m
        twice = face + face
        # the two sides: a .. b along the face, then back along the path; and
        # b .. a along the face, then on along the path
        faces[i] = twice[s:t + 1] + path[-2:0:-1]
        faces.append(twice[t:s + m + 1] + path[1:-1])


def _fragment_path(
    nbrs: dict[int, set[int]], placed: dict[int, set[int]], comp: set[int]
) -> list[int]:
    """A path through ``comp`` between two distinct attachments: from one
    attachment a, breadth-first through the component to the first vertex
    with an attachment other than a.  One exists, as the block is
    biconnected."""
    start, a = next((x, w) for x in comp for w in nbrs[x] if placed[w])
    parent = {start: None}
    queue = [start]
    for x in queue:
        b = next((w for w in nbrs[x] if placed[w] and w != a), None)
        if b is not None:
            path = [b]
            while x is not None:
                path.append(x)
                x = parent[x]
            return path + [a]
        for w in nbrs[x] & comp:
            if w not in parent:
                parent[w] = x
                queue.append(w)
    raise AssertionError("a fragment of a biconnected block has two attachments")
