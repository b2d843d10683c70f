"""Shared fixtures and independent brute-force oracles for the test suite.

The solvers in cycgraph.invariants are greedy certificates (and, for the
domination number, a bounded search behind one).  The oracles here
deliberately avoid all of that: they enumerate subsets (or colourings)
directly, so agreement between the two is meaningful evidence of
correctness.  Likewise the number-theoretic
oracle uses plain trial division rather than cycgraph.arith.
"""

from itertools import combinations
from math import isqrt

import pytest

from cycgraph.graphs import Graph, build
from cycgraph.theorems import default_catalog


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
    comp = g.complement()

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


@pytest.fixture(scope="session")
def small_catalog_graphs():
    """Intersection graphs for every catalog group of order <= 64."""
    out = []
    for spec in default_catalog(64):
        ig = build(spec.realize())
        out.append((spec.descriptor, ig))
    return out
