"""Executable checks for each classification result, over a generated group catalog.

Every verifier tests its statement as a biconditional over concrete groups and
reports counterexamples instead of failing silently; a counterexample can be
reproduced in isolation with the CLI ``analyze`` command.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import prod
from typing import Callable, Generator

from . import groups
from .arith import exponent_divisors, factor_sieve, factorize, prime_power
from .errors import RepeatedTheoremId, SkippedSizeCap, UnknownTheoremId, VertexCapExceeded
from .graphs import DEFAULT_VERTEX_CAP, Graph, IntersectionGraph, bits, build, zn_divisor_graph
from .groups import FiniteGroup, relabel
from .invariants import (
    DEFAULT_NODE_BUDGET,
    INFINITY,
    domination_number,
    girth,
    has_triangle,
    is_acyclic,
    is_bipartite,
    is_complete,
    is_regular,
    shape_checks,
    simplicial_cover,
)
from .planarity import is_planar
from .specs import (
    GroupSpec,
    abelian_groups_of_order,
    abelian_prime_signature,
    in_planar_classification,
    is_cyclic_spec,
)
from .subgroups import maximal_among

#: thm13 relabels ISO_TRIALS times the first ISO_GROUPS catalog groups with 2..this many vertices
ISO_PICK_MAX_VERTICES = 32
ISO_GROUPS = 10
ISO_TRIALS = 20


@dataclass
class VerificationResult:
    theorem_id: str
    domain: str
    groups_tested: int = 0
    passed: bool = True
    counterexamples: list[tuple[str, str, str]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "domain": self.domain,
            "groups_tested": self.groups_tested,
            "passed": self.passed,
            "counterexamples": [
                {"group": g, "expected": e, "observed": o}
                for g, e, o in self.counterexamples
            ],
            "skipped": list(self.skipped),
            "elapsed_s": round(self.elapsed, 6),
            "notes": self.notes,
        }


@dataclass
class Catalog:
    """The catalog specs, with the run options its checks read (the vertex cap
    of every build, and thm13's relabeling seed): a source of (spec, group,
    graph) items keyed by spec, in catalog order."""

    specs: list[GroupSpec]
    max_order: int
    vertex_cap: int = DEFAULT_VERTEX_CAP
    seed: int = 0

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def item(self, spec: GroupSpec) -> tuple[GroupSpec, FiniteGroup, IntersectionGraph]:
        """Realize and build ``spec``: (spec, group, graph); raises
        :class:`VertexCapExceeded` over the vertex cap."""
        group = spec.realize()
        return spec, group, build(group, self.vertex_cap)


@dataclass
class ZnGraphs:
    """A source of the Z(n) graphs for 2 <= n <= max_n in divisor
    representation: its keys are the rows (n, factorization) of one
    :func:`~cycgraph.arith.factor_sieve` pass, n ascending, and its items
    (n, factorization, graph), so nothing factors n again.  The graph depends
    only on n's exponent signature, so ``graphs`` holds one per signature met
    in this run, shared by its n.  It carries t22's solver node budget."""

    max_n: int
    node_budget: int = DEFAULT_NODE_BUDGET
    graphs: dict[tuple[int, ...], Graph] = field(default_factory=dict, init=False, repr=False)

    def __iter__(self):
        return factor_sieve(2, self.max_n + 1)

    def item(self, row: tuple) -> tuple[int, tuple, Graph]:
        n, factors = row
        signature = tuple(a for _, a in factors)
        if signature not in self.graphs:
            self.graphs[signature] = zn_divisor_graph(n, factors)[1]
        return n, factors, self.graphs[signature]


#: (kind, first parameter whose group is not abelian) of each non-abelian catalog
#: family, in the order the members of one group order are listed
_CATALOG_FAMILIES = (("dihedral", 3), ("dicyclic", 2), ("symmetric", 3), ("alternating", 4))


def default_catalog(max_order: int, vertex_cap: int = DEFAULT_VERTEX_CAP, seed: int = 0) -> Catalog:
    """For each order n from 2 up to the bound, the abelian classes of n in
    invariant-factor form, then the members of order n of each family in
    ``_CATALOG_FAMILIES``, each spec once; builds obey ``vertex_cap``."""
    if not 2 <= max_order <= groups.ORDER_CAP:
        raise ValueError(f"max_order must be between 2 and the order cap {groups.ORDER_CAP}")
    by_order: dict[int, list[GroupSpec]] = {}
    for kind, k in _CATALOG_FAMILIES:   # each family's order grows with its parameter
        while (spec := GroupSpec(kind, (k,))).order() <= max_order:
            by_order.setdefault(spec.order(), []).append(spec)
            k += 1
    specs = [s for n in range(2, max_order + 1)
             for s in abelian_groups_of_order(n) + by_order.get(n, [])]
    return Catalog(specs, max_order, vertex_cap, seed)


#: theorem id -> (check, its source "catalog" or "zn", the keys it takes or
#: None for all), in report order; filled in by ``_verifier`` as each check is defined
VERIFIERS: dict[str, tuple[Callable[..., Generator], str, Callable | None]] = {}


def _verifier(theorem_id: str, source: str, takes: Callable[[GroupSpec], bool] | None = None):
    """Register a check as the verifier of ``theorem_id``, reading ``source``,
    and return the check unchanged.

    The check is a generator.  It takes a fresh result for that id and the
    run's source, a :class:`Catalog` (``"catalog"``) or :class:`ZnGraphs`
    (``"zn"``), which also carries the run options it reads, and sets the
    domain; it is then sent each item whose key ``takes`` accepts (all if
    None), and None once they run out.  :func:`run_verifiers` runs it.
    """

    def register(check):
        VERIFIERS[theorem_id] = (check, source, takes)
        return check

    return register


def _send(res: VerificationResult, check: Generator, item) -> bool:
    """Send ``item`` to ``check``, adding the time to ``res.elapsed``; False once it has returned."""
    t0 = time.perf_counter()
    try:
        check.send(item)
        return True
    except StopIteration:
        return False
    finally:
        res.elapsed += time.perf_counter() - t0


def _stream(source, checks: list[tuple[VerificationResult, Generator, Callable | None]]) -> None:
    """One pass over ``source`` for every (result, check, takes) in ``checks``.

    A key's item is built once, only if some live check takes the key, sent to
    each such check and dropped.  A key whose build exceeds the vertex cap is
    sent to no check; its message goes to each such check's ``skipped``.  The
    pass stops once no check is live, closes the rest by sending None, and
    marks each result passed iff it has no counterexample.
    """
    live = [c for c in checks if _send(c[0], c[1], None)]
    for key in source:
        if not live:
            break
        takers = [c for c in live if c[2] is None or c[2](key)]
        if not takers:
            continue
        try:
            item = source.item(key)
        except VertexCapExceeded as exc:
            for c in takers:
                c[0].skipped.append(str(exc))
            continue
        for c in takers:
            if not _send(c[0], c[1], item):
                live = [d for d in live if d is not c]
    for res, check, _ in live:
        _send(res, check, None)
    for res, _, _ in checks:
        res.passed = not res.counterexamples


# --- individual theorem checks ------------------------------------------------

def _relabelings_isomorphic(
    group: FiniteGroup, base: IntersectionGraph, trials: int, seed: int
) -> list[tuple[str, str, str]]:
    """Each seeded relabeling ``perm`` must induce an isomorphism of the graphs;
    returns one counterexample per trial where it does not.

    sigma sends each vertex of ``base`` to the relabeled graph's vertex whose
    element set is its image under ``perm``.  Defined on every vertex, with
    equal vertex counts, sigma is a bijection; it must map every adjacency row
    onto the matching row.  Exact at any size, and stricter than "some
    isomorphism exists"; there is no search and so no cap.
    """
    counterexamples = []
    rng = random.Random(seed)
    n = group.order
    for t in range(trials):
        perm = list(range(n))
        rng.shuffle(perm)
        other = build(relabel(group, perm))
        index = {v.elements: i for i, v in enumerate(other.vertices)}
        sigma = [index.get(tuple(sorted(perm[x] for x in v.elements))) for v in base.vertices]
        ok = None not in sigma and base.n == other.n and all(
            other.graph.adj[sigma[v]] == sum(1 << sigma[w] for w in bits(row))
            for v, row in enumerate(base.graph.adj)
        )
        if not ok:
            counterexamples.append(
                (group.descriptor, "isomorphic graphs", f"trial {t} not isomorphic")
            )
    return counterexamples


@_verifier("thm13-iso-invariance", "catalog")
def verify_iso_invariance_catalog(res: VerificationResult, catalog: Catalog) -> Generator:
    res.domain = (
        f"first {ISO_GROUPS} catalog groups with 2..{ISO_PICK_MAX_VERTICES} vertices, "
        f"{ISO_TRIALS} relabelings each (catalog max order {catalog.max_order})"
    )
    while item := (yield):
        _, group, ig = item
        if not (2 <= ig.n <= ISO_PICK_MAX_VERTICES):
            continue
        res.groups_tested += 1
        seed = catalog.seed + res.groups_tested
        res.counterexamples += _relabelings_isomorphic(group, ig, ISO_TRIALS, seed)
        if res.groups_tested == ISO_GROUPS:
            return  # the pass builds nothing beyond the last pick for this check


@_verifier("thm14-totally-disconnected", "catalog")
def verify_totally_disconnected(res: VerificationResult, catalog: Catalog) -> Generator:
    """Edge-free graph <-> every non-identity element has prime order.

    Groups whose graph has fewer than 2 vertices are excluded (the forward
    direction silently assumes two subgroups exist); exclusions are counted.
    """
    res.domain = f"default catalog, order <= {catalog.max_order}, graphs with >= 2 vertices"
    excluded = 0
    while item := (yield):
        spec, group, ig = item
        if ig.n < 2:
            excluded += 1
            continue
        res.groups_tested += 1
        disconnected = ig.graph.edge_count() == 0
        # x != 1 generates a vertex, or G itself when G is cyclic (of composite order, as it
        # has vertices); prime-order vertices meet trivially, so they hold every x != 1
        # exactly when their non-identity elements number |G| - 1
        orders = [v.order for v in ig.vertices]
        all_prime = len(ig.primes) == ig.n and 1 + sum(orders) - len(orders) == group.order
        if disconnected != all_prime:
            res.counterexamples.append(
                (
                    spec.descriptor,
                    f"totally_disconnected == all_elements_prime_order ({all_prime})",
                    f"totally_disconnected={disconnected}",
                )
            )
    res.notes = f"excluded {excluded} groups with < 2 vertices"


@_verifier("thm15-complete", "catalog")
def verify_complete(res: VerificationResult, catalog: Catalog) -> Generator:
    """Complete graph <-> unique proper subgroup of prime order (nonempty graphs);
    plus the exact vertex-count formulas for cyclic p-power and quaternion groups."""
    res.domain = f"default catalog, order <= {catalog.max_order}, nonempty graphs"
    while item := (yield):
        spec, _, ig = item
        if ig.n == 0:
            continue
        res.groups_tested += 1
        complete = is_complete(ig.graph)
        m = len(ig.primes)
        if complete != (m == 1):
            res.counterexamples.append(
                (spec.descriptor, f"complete <-> m==1 (m={m})", f"complete={complete}")
            )
        # Z(p^a), a >= 2, is K_(a-1); Dic(2^b) = Q(2^alpha), alpha = b + 2, is
        # K_(2^(alpha-2) + alpha - 1)
        pp = prime_power(spec.params[0]) if spec.kind in ("cyclic", "dicyclic") else None
        want = None
        if pp is not None and spec.kind == "cyclic" and pp[1] >= 2:
            want = pp[1] - 1
        elif pp is not None and spec.kind == "dicyclic" and pp[0] == 2:
            want = 2 ** pp[1] + pp[1] + 1
        if want is not None and not (complete and ig.n == want):
            res.counterexamples.append(
                (spec.descriptor, f"complete K_{want}", f"complete={complete}, vertices={ig.n}")
            )


@_verifier("thm16-planarity", "catalog",
           takes=lambda s: abelian_prime_signature(s) is not None and not is_cyclic_spec(s))
def verify_planarity_classification(res: VerificationResult, catalog: Catalog) -> Generator:
    """Planar graph <-> the group is one of the five listed abelian families,
    over every non-cyclic abelian group of the catalog."""
    res.domain = f"all non-cyclic abelian groups of order <= {catalog.max_order}"
    while item := (yield):
        spec, _, ig = item
        planar = is_planar(ig.graph)
        res.groups_tested += 1
        listed = in_planar_classification(spec)
        if planar != listed:
            res.counterexamples.append(
                (spec.descriptor, f"planar <-> in classification ({listed})", f"planar={planar}")
            )


@_verifier("thm345-star-path-cycle", "catalog")
def verify_star_path_cycle(res: VerificationResult, catalog: Catalog) -> Generator:
    """Star and path graphs occur exactly for cyclic p^3; a cycle exactly for cyclic p^4."""
    res.domain = f"default catalog, order <= {catalog.max_order}"
    while item := (yield):
        spec, _, ig = item
        res.groups_tested += 1
        shapes = shape_checks(ig.graph)
        pp = prime_power(spec.params[0]) if spec.kind == "cyclic" else None
        is_p3 = pp is not None and pp[1] == 3
        is_p4 = pp is not None and pp[1] == 4
        for shape, expect in (("star", is_p3), ("path", is_p3), ("cycle", is_p4)):
            if shapes[shape] != expect:
                res.counterexamples.append(
                    (spec.descriptor, f"{shape}={expect}", f"{shape}={shapes[shape]}")
                )


@_verifier("cor-c1-girth", "catalog")
def verify_girth(res: VerificationResult, catalog: Catalog) -> Generator:
    """girth is always 3 or infinity."""
    res.domain = f"default catalog, order <= {catalog.max_order}"
    while item := (yield):
        spec, _, ig = item
        res.groups_tested += 1
        gv = girth(ig.graph)
        if gv != 3 and gv != INFINITY:
            res.counterexamples.append((spec.descriptor, "girth in {3, inf}", f"girth={gv}"))


def _order_in_small_set(m: int) -> bool:
    """Order is p, p^2, or pq for primes p != q."""
    f = factorize(m) if m >= 2 else ()
    if len(f) == 1:
        return f[0][1] <= 2
    if len(f) == 2:
        return f[0][1] == 1 and f[1][1] == 1
    return False


def _subgroup_conditions(ig: IntersectionGraph, small: dict[int, bool]) -> dict[str, bool]:
    """The subgroup-side condition of the acyclicity equivalence under both
    quantifier readings ('some' or 'every' maximal proper cyclic subgroup has
    order p, p^2 or pq), plus the pairwise-trivial-intersection clause.

    ``small`` maps each order already classified by :func:`_order_in_small_set`
    to its answer; orders first met here are added.  Only the non-prime
    vertices are walked for maximality: a prime-order vertex P is maximal iff
    it has no neighbour, as P <= H != P iff H lies in C_P.  The clause holds
    iff no special vertex (non-prime, of small order) meets another, tested
    against one mask of them all.
    """
    for d in {s.order for s in ig.vertices} - small.keys():
        small[d] = _order_in_small_set(d)
    adj = ig.graph.adj
    primes = set(ig.primes)
    others = [s for v, s in enumerate(ig.vertices) if v not in primes]
    maximal = [small[s.order] for s in maximal_among(others)]
    maximal += [small[ig.vertices[p].order] for p in ig.primes if not adj[p]]
    special = [v for v, s in enumerate(ig.vertices) if v not in primes and small[s.order]]
    mask = sum(1 << v for v in special)
    clause_b = not any(adj[u] & mask for u in special)
    return {"some": any(maximal) and clause_b, "every": all(maximal) and clause_b}


@_verifier("thm7-acyclic-equivalences", "catalog")
def verify_acyclic_equivalences(res: VerificationResult, catalog: Catalog) -> Generator:
    """acyclic <-> bipartite <-> triangle-free on every catalog graph.

    The subgroup-side condition is reported under both quantifier readings
    (notes field) without being part of the pass criterion.
    """
    res.domain = f"default catalog, order <= {catalog.max_order}"
    match = {"some": 0, "every": 0}
    small: dict[int, bool] = {}  # order -> p, p^2 or pq; at most max_order entries
    mismatch_examples = {"some": [], "every": []}
    while item := (yield):
        spec, _, ig = item
        res.groups_tested += 1
        acyclic = is_acyclic(ig.graph)
        bipartite = is_bipartite(ig.graph)
        tri_free = not has_triangle(ig.graph)
        if not (acyclic == bipartite == tri_free):
            res.counterexamples.append(
                (
                    spec.descriptor,
                    "acyclic == bipartite == triangle-free",
                    f"acyclic={acyclic}, bipartite={bipartite}, triangle_free={tri_free}",
                )
            )
        for reading, holds in _subgroup_conditions(ig, small).items():
            if holds == acyclic:
                match[reading] += 1
            elif len(mismatch_examples[reading]) < 5:
                mismatch_examples[reading].append(spec.descriptor)
    parts = []
    for reading in ("some", "every"):
        s = f"reading '{reading}' matches acyclicity on {match[reading]}/{res.groups_tested} groups"
        if mismatch_examples[reading]:
            s += f" (first mismatches: {', '.join(mismatch_examples[reading])})"
        parts.append(s)
    res.notes = "; ".join(parts)


@_verifier("thm8-300-alpha-theta", "catalog")
def verify_alpha_theta(res: VerificationResult, catalog: Catalog) -> Generator:
    """independence number = clique cover number = number of prime-order subgroups."""
    res.domain = f"default catalog, order <= {catalog.max_order}, within solver caps"
    while item := (yield):
        spec, _, ig = item
        m = len(ig.primes)
        # one certificate gives alpha = theta = k; it exists on every such graph
        # (see simplicial_cover), so a graph without one refutes that lemma
        k = simplicial_cover(ig.graph)
        res.groups_tested += 1
        if k != m:
            found = "no simplicial-cover certificate" if k is None else f"alpha={k}, theta={k}"
            res.counterexamples.append((spec.descriptor, f"alpha == theta == m ({m})", found))


@_verifier("t24-regular-zn", "zn")
def verify_regular_zn(res: VerificationResult, zn: ZnGraphs) -> Generator:
    """Regular graph <-> n is p^alpha with alpha >= 2, over nonempty Z_n graphs.

    Uses the divisor representation of the Z_n graph (validated against
    the element-level build elsewhere in the suite).
    """
    res.domain = f"Z(n) for n <= {zn.max_n} with nonempty graph"
    while item := (yield):
        n, factors, g = item
        if g.n == 0:
            continue
        res.groups_tested += 1
        regular = is_regular(g)
        expect = len(factors) == 1 and factors[0][1] >= 2
        if regular != expect:
            res.counterexamples.append(
                (f"Z({n})", f"regular <-> prime power ({expect})", f"regular={regular}")
            )


def zn_expected_degrees(factors: tuple[tuple[int, int], ...], ds: list[int]) -> list[int]:
    """Degree of each order-d vertex, d in ``ds``, of the Z_n graph, n given by
    its ``factors``: tau(n) - 2 minus the count of divisors coprime to d
    (full-support divisors give tau(n) - 3)."""
    tau = prod(a + 1 for _, a in factors)
    out = []
    for d in ds:
        coprime = 1
        for p, a in factors:
            if d % p:
                coprime *= a + 1
        out.append(tau - 2 - coprime)
    return out


@_verifier("t24-degree-formula-zn", "zn")
def verify_degree_formula_zn(res: VerificationResult, zn: ZnGraphs) -> Generator:
    res.domain = f"Z(n) for n <= {zn.max_n}, every vertex"
    while item := (yield):
        n, factors, g = item
        if g.n == 0:
            continue
        res.groups_tested += 1
        ds = exponent_divisors(factors)[1:-1]
        for d, want, got in zip(ds, zn_expected_degrees(factors, ds), g.degrees()):
            if got != want:
                res.counterexamples.append(
                    (f"Z({n})", f"deg(order-{d} vertex) = {want}", f"deg={got}")
                )


@_verifier("t22-domination-zn", "zn")
def verify_domination_zn(res: VerificationResult, zn: ZnGraphs) -> Generator:
    """Domination number of the Z_n graph: 1 when some exponent exceeds 1,
    2 when n is squarefree with >= 2 prime factors; primes are skipped.

    Many n share one labeled graph (the divisor graph depends only on n's
    exponent signature): the 1,696 composite n <= 2000 give 75 distinct
    adjacency lists.  So gamma is searched once per distinct row tuple, the
    key being the rows themselves, and each n is still compared with its own
    expected value.  A skip is never stored: every n whose search skips is
    searched again, and listed.
    """
    res.domain = f"Z(n) for composite n <= {zn.max_n}"
    gammas: dict[tuple[int, ...], int] = {}
    while item := (yield):
        n, factors, g = item
        if g.n == 0:
            continue  # n prime
        expect = 1 if any(a > 1 for _, a in factors) else 2
        key = tuple(g.adj)
        if key not in gammas:
            try:
                gammas[key] = domination_number(g, zn.node_budget)
            except SkippedSizeCap as exc:
                res.skipped.append(f"Z({n}): {exc}")
                continue
        gamma = gammas[key]
        res.groups_tested += 1
        if gamma != expect:
            res.counterexamples.append((f"Z({n})", f"gamma={expect}", f"gamma={gamma}"))


# --- registry -------------------------------------------------------------------

THEOREM_IDS = tuple(VERIFIERS)


def run_verifiers(
    theorem_ids: list[str] | str = "all",
    max_order: int = 100,
    max_n: int = 2000,
    seed: int = 0,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[VerificationResult]:
    if theorem_ids == "all":
        ids = list(THEOREM_IDS)
    else:
        ids = [theorem_ids] if isinstance(theorem_ids, str) else list(theorem_ids)
        for i, tid in enumerate(ids):
            if tid not in THEOREM_IDS:
                raise UnknownTheoremId(f"unknown theorem id {tid}")
            if tid in ids[:i]:
                raise RepeatedTheoremId(f"theorem id {tid} named more than once")
    # one catalog and one source of Z_n graphs, each made when the first check
    # that reads it is seen and streamed in one pass; each id gets its own result
    results, passes = [], {}
    for tid in ids:
        check, name, takes = VERIFIERS[tid]
        if name not in passes:
            source = (default_catalog(max_order, vertex_cap, seed) if name == "catalog"
                      else ZnGraphs(max_n, node_budget))
            passes[name] = (source, [])
        source, checks = passes[name]
        res = VerificationResult(tid, "")
        results.append(res)
        checks.append((res, check(res, source), takes))
    for source, checks in passes.values():
        _stream(source, checks)
    return results
