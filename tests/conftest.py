"""Shared fixtures, named graphs and independent oracles for the test suite.

The solvers in cycgraph.invariants are greedy certificates (and, for the
domination number, a bounded search behind one).  The oracles here
deliberately avoid all of that: they enumerate subsets (or colourings)
directly, so agreement between the two is meaningful evidence of
correctness.  Likewise the number-theoretic
oracle uses plain trial division rather than cycgraph.arith, the
intersection graph oracle intersects element sets pair by pair rather than
using prime-order subgroups, the Z_n divisor graph oracle tests gcd(d, e)
for every pair of divisors rather than taking prime cliques, and the
planarity oracle searches for a K5 or K3,3 minor rather than embedding
paths face by face as ``is_planar``'s path-addition test does.
"""

from itertools import combinations
from math import gcd, isqrt

import pytest

from cycgraph import invariants
from cycgraph.errors import SkippedSizeCap
from cycgraph.graphs import Graph, bits, build
from cycgraph.groups import element_order
from cycgraph.specs import parse_spec
from cycgraph.theorems import default_catalog

#: non-abelian products outside the default catalog
PRODUCTS = (
    "D(4)xZ(2)", "S(3)xS(3)", "Dic(3)xZ(3)", "A(4)xZ(2)",
    "Q(16)xZ(3)", "D(6)xD(3)", "S(4)xZ(3)", "A(5)xZ(2)",
)



# --- groups as tables ------------------------------------------------------------

def table_of(group) -> list[list[int]]:
    """The group's Cayley table read off its rule, one ``mul`` call per entry."""
    n, mul = group.order, group.mul
    return [[mul(a, b) for b in range(n)] for a in range(n)]


def write_table_file(group, path) -> None:
    """The group's table in the Cayley-table file format: n, then n rows."""
    with open(path, "w") as fh:
        fh.write(f"{group.order}\n")
        for row in table_of(group):
            fh.write(" ".join(map(str, row)) + "\n")


def element_orders(group) -> list[int]:
    """The order of each element, by ``groups.element_order``."""
    return [element_order(group, g) for g in range(group.order)]


# --- named graphs ---------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    g = Graph(n)
    full = (1 << n) - 1
    g.adj = [full & ~(1 << v) for v in range(n)]
    return g


def complete_bipartite(a: int, b: int) -> Graph:
    g = Graph(a + b)
    left = (1 << a) - 1
    right = ((1 << (a + b)) - 1) ^ left
    g.adj = [right] * a + [left] * b
    return g


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    out = Graph(g.n + h.n)
    out.adj[: g.n] = list(g.adj)
    out.adj[g.n:] = [a << g.n for a in h.adj]
    return out


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    out = Graph(g.n)
    out.adj = [(full ^ a) & ~(1 << v) for v, a in enumerate(g.adj)]
    return out


# --- oracles --------------------------------------------------------------------

def distinct_prime_pairs(limit: int) -> set[int]:
    """Every n <= limit of the form p*q with p != q prime, by trial division.

    For these n the Z_n graph is two isolated vertices (2K1): the only
    proper nontrivial subgroups have orders p and q and meet trivially.
    """
    def smallest_factor(k: int) -> int:
        return next((d for d in range(2, isqrt(k) + 1) if k % d == 0), k)

    out = set()
    for n in range(6, limit + 1):
        p = smallest_factor(n)
        q = n // p
        if q != p and q > 1 and smallest_factor(q) == q:
            out.add(n)
    return out


def divisor_gcd_graph(n: int) -> tuple[list[int], Graph]:
    """The Z_n graph by its definition: the divisors 1 < d < n ascending, found
    by trial division, with d and e adjacent iff gcd(d, e) > 1, tested for
    every pair."""
    ds = [d for d in range(2, n) if n % d == 0]
    g = Graph(len(ds))
    for i, d in enumerate(ds):
        for j in range(i + 1, len(ds)):
            if gcd(d, ds[j]) > 1:
                g.add_edge(i, j)
    return ds, g


def pairwise_adjacency(vertices) -> Graph:
    """Intersection graph of subgroups given by their element sets: H and K are
    adjacent iff they share at least two elements, tested for every pair."""
    sets = [set(h.elements) for h in vertices]
    g = Graph(len(sets))
    for i, h in enumerate(sets):
        for j in range(i + 1, len(sets)):
            if len(h & sets[j]) >= 2:
                g.add_edge(i, j)
    return g


def brute_independence_number(g: Graph) -> int:
    """Maximum independent set by checking every subset.  n <= ~18."""
    best = 0
    for mask in range(1 << g.n):
        if bin(mask).count("1") <= best:
            continue
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if g.adj[v] & mask:
                ok = False
                break
        if ok:
            best = bin(mask).count("1")
    return best


def brute_domination_number(g: Graph) -> int:
    """Minimum dominating set by trying all k-subsets, k ascending."""
    if g.n == 0:
        raise ValueError("undefined on the empty graph")
    full = (1 << g.n) - 1
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover == full:
                return k
    return g.n


def brute_clique_cover_number(g: Graph) -> int:
    """Minimum clique cover = chromatic number of the complement, found by
    plain backtracking over colour assignments in index order."""
    if g.n == 0:
        return 0
    comp = complement(g)

    def colourable(k: int) -> bool:
        colours = [-1] * comp.n

        def rec(v: int) -> bool:
            if v == comp.n:
                return True
            used = set()
            m = comp.adj[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if colours[u] >= 0:
                    used.add(colours[u])
            for c in range(k):
                if c in used:
                    continue
                colours[v] = c
                if rec(v + 1):
                    return True
                colours[v] = -1
                if c not in used and all(x != c for x in colours):
                    break  # fresh colours are interchangeable
            return False

        return rec(0)

    for k in range(1, comp.n + 1):
        if colourable(k):
            return k
    return comp.n


def brute_girth(g: Graph) -> float:
    """Shortest cycle: for every edge uv, the BFS distance from u to v once
    that edge is removed, plus one.  inf when no edge lies on a cycle."""
    best = float("inf")
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adj[u] >> v & 1:
                continue
            dist = {u: 0}
            frontier = [u]
            while frontier and v not in dist:
                nxt = []
                for x in frontier:
                    for y in range(g.n):
                        if g.adj[x] >> y & 1 and y not in dist and {x, y} != {u, v}:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            if v in dist:
                best = min(best, dist[v] + 1)
    return best


def domination_certificate(g: Graph) -> int | None:
    """gamma = k by the 2-packing certificate that ``domination_number`` tries
    before its search, or None when it finds none.

    Not an oracle: it runs the solver's own private steps alone, so that tests
    can check the certificate against ``brute_domination_number``.
    """
    closed = [a | 1 << v for v, a in enumerate(g.adj)]
    isolated, others = invariants._split_isolated(g.adj)
    return invariants._packing_certificate(closed, isolated, invariants._two_packing(closed, others))


#: most vertices per component kuratowski_oracle searches; a larger one is skipped
KURATOWSKI_COMPONENT_CAP = 12


def kuratowski_oracle(g: Graph) -> bool:
    """True iff no K5 or K3,3 minor exists (so True means planar).

    Recursive contraction search over each component, with degree-<=2
    reduction, Euler-bound pruning, and direct subgraph hits.  Small graphs
    only: a component past KURATOWSKI_COMPONENT_CAP vertices is skipped.
    """
    for mask in g.component_masks():
        if mask.bit_count() > KURATOWSKI_COMPONENT_CAP:
            raise SkippedSizeCap(
                f"minor oracle capped at {KURATOWSKI_COMPONENT_CAP} vertices per component"
            )
        adj = {v: set(bits(g.adj[v])) for v in bits(mask)}
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

@pytest.fixture(scope="session")
def small_catalog_graphs():
    """Intersection graphs for every catalog group of order <= 64."""
    out = []
    for spec in default_catalog(64):
        ig = build(spec.realize())
        out.append((spec.descriptor, ig))
    return out


@pytest.fixture(scope="session")
def catalog_240_and_products():
    """(descriptor, group, graph) for default_catalog(240) plus PRODUCTS."""
    out = []
    for spec in [*default_catalog(240), *map(parse_spec, PRODUCTS)]:
        group = spec.realize()
        out.append((spec.descriptor, group, build(group)))
    return out
