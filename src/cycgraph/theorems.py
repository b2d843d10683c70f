"""Executable checks for each classification result, over a generated group catalog.

Every verifier tests its statement as a biconditional over concrete groups and
reports counterexamples instead of failing silently; a counterexample can be
reproduced in isolation with the CLI ``analyze`` command.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .arith import factorize, is_prime, prime_power, tau
from .errors import SkippedSizeCap, UnknownTheoremId, VertexCapExceeded
from .graphs import IntersectionGraph, build, zn_divisor_graph
from .groups import FiniteGroup, element_order, relabel
from .invariants import (
    DEFAULT_ISO_SIZE_CAP,
    DEFAULT_NODE_BUDGET,
    INFINITY,
    clique_cover_number,
    domination_number,
    girth,
    graph_isomorphic,
    has_triangle,
    independence_number,
    is_acyclic,
    is_bipartite,
    is_complete,
    is_regular,
    shape_checks,
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
    """Catalog specs plus a memo of their builds, so that every verifier run
    over one catalog realizes and builds each group at most once."""

    specs: list[GroupSpec]
    max_order: int
    # (spec, vertex_cap) -> (group, graph), or the vertex-cap skip message
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def graphs(self, result: VerificationResult, vertex_cap: int, specs=None):
        """Yield (spec, group, graph) lazily in catalog order (or over `specs`),
        building on first use; vertex-cap hits go to ``result.skipped``."""
        for spec in self.specs if specs is None else specs:
            key = (spec, vertex_cap)
            if key not in self._built:
                group = spec.realize()
                try:
                    self._built[key] = (group, build(group, vertex_cap))
                except VertexCapExceeded as exc:
                    self._built[key] = str(exc)
            entry = self._built[key]
            if isinstance(entry, str):
                result.skipped.append(entry)
            else:
                yield (spec, *entry)


def default_catalog(max_order: int) -> Catalog:
    """All abelian groups plus the dihedral/dicyclic/symmetric/alternating
    families up to the order bound, deduplicated by descriptor."""
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    specs: list[GroupSpec] = []
    factorials = {}
    k, f = 1, 1
    while f <= 2 * max_order:
        factorials[f] = k
        k += 1
        f *= k
    for n in range(2, max_order + 1):
        specs.extend(abelian_groups_of_order(n))
        if n % 2 == 0 and n >= 6:
            specs.append(GroupSpec("dihedral", (n // 2,)))
        if n % 4 == 0 and n >= 8:
            specs.append(GroupSpec("dicyclic", (n // 4,)))
        if n in factorials and factorials[n] >= 3:
            specs.append(GroupSpec("symmetric", (factorials[n],)))
        if 2 * n in factorials and factorials[2 * n] >= 4:
            specs.append(GroupSpec("alternating", (factorials[2 * n],)))
    seen = set()
    unique = []
    for s in specs:
        if s.descriptor not in seen:
            seen.add(s.descriptor)
            unique.append(s)
    return Catalog(unique, max_order)


def _timed(verifier):
    """Time a verifier and mark its result passed iff it found no counterexample."""

    @functools.wraps(verifier)
    def run(*args, **kwargs) -> VerificationResult:
        t0 = time.perf_counter()
        result = verifier(*args, **kwargs)
        result.elapsed = time.perf_counter() - t0
        result.passed = not result.counterexamples
        return result

    return run


# --- individual theorem checks ------------------------------------------------

@_timed
def verify_iso_invariance(
    group: FiniteGroup,
    trials: int,
    seed: int = 0,
    iso_size_cap: int = DEFAULT_ISO_SIZE_CAP,
) -> VerificationResult:
    """Random relabelings of a group must yield isomorphic intersection graphs."""
    return _relabelings_isomorphic(group, build(group), trials, seed, iso_size_cap)


def _relabelings_isomorphic(
    group: FiniteGroup, base: IntersectionGraph, trials: int, seed: int, iso_size_cap: int
) -> VerificationResult:
    res = VerificationResult(
        "thm13-iso-invariance",
        f"{group.descriptor}, {trials} seeded relabelings",
        groups_tested=trials,
    )
    rng = random.Random(seed)
    n = group.order
    for t in range(trials):
        perm = list(range(n))
        rng.shuffle(perm)
        other = build(relabel(group, perm))
        try:
            ok = graph_isomorphic(base.graph, other.graph, iso_size_cap)
        except SkippedSizeCap as exc:
            res.skipped.append(f"{group.descriptor} trial {t}: {exc}")
            continue
        if not ok:
            res.counterexamples.append(
                (group.descriptor, "isomorphic graphs", f"trial {t} not isomorphic")
            )
    return res


@_timed
def verify_iso_invariance_catalog(
    catalog: Catalog,
    trials: int = 20,
    groups: int = 10,
    seed: int = 0,
    iso_size_cap: int = DEFAULT_ISO_SIZE_CAP,
    vertex_cap: int = 5000,
) -> VerificationResult:
    res = VerificationResult(
        "thm13-iso-invariance",
        f"first {groups} catalog groups with 2..{iso_size_cap} vertices, "
        f"{trials} relabelings each (catalog max order {catalog.max_order})",
    )
    # stop at the last pick: the lazy pass builds nothing beyond it
    for spec, group, ig in catalog.graphs(res, vertex_cap) if groups > 0 else ():
        if not (2 <= ig.n <= iso_size_cap):
            continue
        res.groups_tested += 1
        sub = _relabelings_isomorphic(group, ig, trials, seed + res.groups_tested, iso_size_cap)
        res.counterexamples.extend(sub.counterexamples)
        res.skipped.extend(sub.skipped)
        if res.groups_tested == groups:
            break
    return res


@_timed
def verify_totally_disconnected(catalog: Catalog, vertex_cap: int = 5000) -> VerificationResult:
    """Edge-free graph <-> every non-identity element has prime order.

    Groups whose graph has fewer than 2 vertices are excluded (the forward
    direction silently assumes two subgroups exist); exclusions are counted.
    """
    res = VerificationResult(
        "thm14-totally-disconnected",
        f"default catalog, order <= {catalog.max_order}, graphs with >= 2 vertices",
    )
    excluded = 0
    for spec, group, ig in catalog.graphs(res, vertex_cap):
        if ig.n < 2:
            excluded += 1
            continue
        res.groups_tested += 1
        disconnected = ig.graph.edge_count() == 0
        all_prime = all(
            is_prime(element_order(group, g))
            for g in range(group.order)
            if g != group.identity
        )
        if disconnected != all_prime:
            res.counterexamples.append(
                (
                    spec.descriptor,
                    f"totally_disconnected == all_elements_prime_order ({all_prime})",
                    f"totally_disconnected={disconnected}",
                )
            )
    res.notes = f"excluded {excluded} groups with < 2 vertices"
    return res


@_timed
def verify_complete(catalog: Catalog, vertex_cap: int = 5000) -> VerificationResult:
    """Complete graph <-> unique proper subgroup of prime order (nonempty graphs);
    plus the exact vertex-count formulas for cyclic p-power and quaternion groups."""
    res = VerificationResult(
        "thm15-complete",
        f"default catalog, order <= {catalog.max_order}, nonempty graphs",
    )
    for spec, group, ig in catalog.graphs(res, vertex_cap):
        if ig.n == 0:
            continue
        res.groups_tested += 1
        complete = is_complete(ig.graph)
        m = sum(1 for v in ig.vertices if is_prime(v.order))
        if complete != (m == 1):
            res.counterexamples.append(
                (spec.descriptor, f"complete <-> m==1 (m={m})", f"complete={complete}")
            )
        if spec.kind == "cyclic":
            pp = prime_power(spec.params[0])
            if pp is not None and pp[1] >= 2:
                alpha = pp[1]
                if not (complete and ig.n == alpha - 1):
                    res.counterexamples.append(
                        (spec.descriptor, f"complete K_{alpha - 1}",
                         f"complete={complete}, vertices={ig.n}")
                    )
        if spec.kind == "dicyclic":
            pp = prime_power(spec.params[0])
            if pp is not None and pp[0] == 2:
                alpha = pp[1] + 2
                want = 2 ** (alpha - 2) + alpha - 1
                if not (complete and ig.n == want):
                    res.counterexamples.append(
                        (spec.descriptor, f"complete K_{want}",
                         f"complete={complete}, vertices={ig.n}")
                    )
    return res


@_timed
def verify_planarity_classification(catalog: Catalog, vertex_cap: int = 5000) -> VerificationResult:
    """Planar graph <-> the group is one of the five listed abelian families,
    over every non-cyclic abelian group of the catalog."""
    res = VerificationResult(
        "thm16-planarity",
        f"all non-cyclic abelian groups of order <= {catalog.max_order}",
    )
    specs = [
        s for s in catalog if abelian_prime_signature(s) is not None and not is_cyclic_spec(s)
    ]
    for spec, _, ig in catalog.graphs(res, vertex_cap, specs):
        try:
            planar = is_planar(ig.graph)
        except SkippedSizeCap as exc:
            res.skipped.append(f"{spec.descriptor}: {exc}")
            continue
        res.groups_tested += 1
        listed = in_planar_classification(spec)
        if planar != listed:
            res.counterexamples.append(
                (spec.descriptor, f"planar <-> in classification ({listed})", f"planar={planar}")
            )
    return res


@_timed
def verify_star_path_cycle(catalog: Catalog, vertex_cap: int = 5000) -> VerificationResult:
    """Star and path graphs occur exactly for cyclic p^3; a cycle exactly for cyclic p^4."""
    res = VerificationResult(
        "thm345-star-path-cycle",
        f"default catalog, order <= {catalog.max_order}",
    )
    for spec, group, ig in catalog.graphs(res, vertex_cap):
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
    return res


@_timed
def verify_girth(catalog: Catalog, vertex_cap: int = 5000) -> VerificationResult:
    """girth is always 3 or infinity."""
    res = VerificationResult(
        "cor-c1-girth",
        f"default catalog, order <= {catalog.max_order}",
    )
    for spec, group, ig in catalog.graphs(res, vertex_cap):
        res.groups_tested += 1
        gv = girth(ig.graph)
        if gv != 3 and gv != INFINITY:
            res.counterexamples.append((spec.descriptor, "girth in {3, inf}", f"girth={gv}"))
    return res


def _order_in_small_set(m: int) -> bool:
    """Order is p, p^2, or pq for primes p != q."""
    f = factorize(m) if m >= 2 else []
    if len(f) == 1:
        return f[0][1] <= 2
    if len(f) == 2:
        return f[0][1] == 1 and f[1][1] == 1
    return False


def subgroup_condition(ig: IntersectionGraph, reading: str) -> bool:
    """The subgroup-side condition of the acyclicity equivalence, under one
    quantifier reading ('some' or 'every' maximal proper cyclic subgroup has
    order p, p^2 or pq), plus the pairwise-trivial-intersection clause."""
    maximals = maximal_among(ig.vertices)
    orders = [s.order for s in maximals]
    if reading == "some":
        clause_a = any(_order_in_small_set(m) for m in orders)
    elif reading == "every":
        clause_a = all(_order_in_small_set(m) for m in orders)
    else:
        raise ValueError(f"unknown reading {reading!r}")
    special = [
        v for v, s in enumerate(ig.vertices)
        if _order_in_small_set(s.order) and not is_prime(s.order)
    ]
    clause_b = all(
        not (ig.graph.adj[u] >> v & 1)
        for i, u in enumerate(special)
        for v in special[i + 1:]
    )
    return clause_a and clause_b


@_timed
def verify_acyclic_equivalences(catalog: Catalog, vertex_cap: int = 5000) -> VerificationResult:
    """acyclic <-> bipartite <-> triangle-free on every catalog graph.

    The subgroup-side condition is reported under both quantifier readings
    (notes field) without being part of the pass criterion.
    """
    res = VerificationResult(
        "thm7-acyclic-equivalences",
        f"default catalog, order <= {catalog.max_order}",
    )
    match = {"some": 0, "every": 0}
    mismatch_examples = {"some": [], "every": []}
    for spec, _, ig in catalog.graphs(res, vertex_cap):
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
        for reading in ("some", "every"):
            if subgroup_condition(ig, reading) == acyclic:
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
    return res


@_timed
def verify_alpha_theta(catalog: Catalog, vertex_cap: int = 5000) -> VerificationResult:
    """independence number = clique cover number = number of prime-order subgroups."""
    res = VerificationResult(
        "thm8-300-alpha-theta",
        f"default catalog, order <= {catalog.max_order}, within solver caps",
    )
    for spec, group, ig in catalog.graphs(res, vertex_cap):
        m = sum(1 for v in ig.vertices if is_prime(v.order))
        try:
            alpha = independence_number(ig.graph)
            theta = clique_cover_number(ig.graph)
        except SkippedSizeCap as exc:
            res.skipped.append(f"{spec.descriptor}: {exc}")
            continue
        res.groups_tested += 1
        if not (alpha == theta == m):
            res.counterexamples.append(
                (spec.descriptor, f"alpha == theta == m ({m})", f"alpha={alpha}, theta={theta}")
            )
    return res


@_timed
def verify_regular_zn(max_n: int) -> VerificationResult:
    """Regular graph <-> n is p^alpha with alpha >= 2, over nonempty Z_n graphs.

    Uses the divisor-gcd representation of the Z_n graph (validated against
    the element-level build elsewhere in the suite).
    """
    res = VerificationResult(
        "t24-regular-zn",
        f"Z(n) for n <= {max_n} with nonempty graph",
    )
    for n in range(2, max_n + 1):
        ds, g = zn_divisor_graph(n)
        if g.n == 0:
            continue
        res.groups_tested += 1
        regular = is_regular(g)
        pp = prime_power(n)
        expect = pp is not None and pp[1] >= 2
        if regular != expect:
            res.counterexamples.append(
                (f"Z({n})", f"regular <-> prime power ({expect})", f"regular={regular}")
            )
    return res


def zn_expected_degree(n: int, d: int) -> int:
    """Degree of the order-d vertex of the Z_n graph: tau(n) - 2 minus the
    count of divisors coprime to d (full-support divisors give tau(n) - 3)."""
    coprime = 1
    for p, a in factorize(n):
        if d % p != 0:
            coprime *= a + 1
    return tau(n) - 2 - coprime


@_timed
def verify_degree_formula_zn(max_n: int) -> VerificationResult:
    res = VerificationResult(
        "t24-degree-formula-zn",
        f"Z(n) for n <= {max_n}, every vertex",
    )
    for n in range(2, max_n + 1):
        ds, g = zn_divisor_graph(n)
        if g.n == 0:
            continue
        res.groups_tested += 1
        for i, d in enumerate(ds):
            want = zn_expected_degree(n, d)
            got = g.degree(i)
            if got != want:
                res.counterexamples.append(
                    (f"Z({n})", f"deg(order-{d} vertex) = {want}", f"deg={got}")
                )
    return res


@_timed
def verify_domination_zn(max_n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> VerificationResult:
    """Domination number of the Z_n graph: 1 when some exponent exceeds 1,
    2 when n is squarefree with >= 2 prime factors; primes are skipped."""
    res = VerificationResult(
        "t22-domination-zn",
        f"Z(n) for composite n <= {max_n}",
    )
    for n in range(4, max_n + 1):
        fact = factorize(n)
        if len(fact) == 1 and fact[0][1] == 1:
            continue  # prime: empty graph
        ds, g = zn_divisor_graph(n)
        if g.n == 0:
            continue
        res.groups_tested += 1
        expect = 1 if any(a > 1 for _, a in fact) else 2
        try:
            gamma = domination_number(g, node_budget)
        except SkippedSizeCap as exc:
            res.skipped.append(f"Z({n}): {exc}")
            continue
        if gamma != expect:
            res.counterexamples.append((f"Z({n})", f"gamma={expect}", f"gamma={gamma}"))
    return res


# --- registry -------------------------------------------------------------------

#: theorem id -> (verifier, the run inputs it takes by name), in report order
VERIFIERS: dict[str, tuple[Callable[..., VerificationResult], tuple[str, ...]]] = {
    "thm13-iso-invariance": (
        verify_iso_invariance_catalog, ("catalog", "seed", "iso_size_cap", "vertex_cap")
    ),
    "thm14-totally-disconnected": (verify_totally_disconnected, ("catalog", "vertex_cap")),
    "thm15-complete": (verify_complete, ("catalog", "vertex_cap")),
    "thm16-planarity": (verify_planarity_classification, ("catalog", "vertex_cap")),
    "thm345-star-path-cycle": (verify_star_path_cycle, ("catalog", "vertex_cap")),
    "cor-c1-girth": (verify_girth, ("catalog", "vertex_cap")),
    "thm7-acyclic-equivalences": (verify_acyclic_equivalences, ("catalog", "vertex_cap")),
    "thm8-300-alpha-theta": (verify_alpha_theta, ("catalog", "vertex_cap")),
    "t24-regular-zn": (verify_regular_zn, ("max_n",)),
    "t24-degree-formula-zn": (verify_degree_formula_zn, ("max_n",)),
    "t22-domination-zn": (verify_domination_zn, ("max_n", "node_budget")),
}
THEOREM_IDS = tuple(VERIFIERS)


def run_verifiers(
    theorem_ids: list[str] | str = "all",
    max_order: int = 100,
    max_n: int = 2000,
    seed: int = 0,
    vertex_cap: int = 5000,
    node_budget: int = DEFAULT_NODE_BUDGET,
    iso_size_cap: int = DEFAULT_ISO_SIZE_CAP,
) -> list[VerificationResult]:
    if theorem_ids == "all":
        ids = list(THEOREM_IDS)
    else:
        ids = list(theorem_ids)
        for tid in ids:
            if tid not in THEOREM_IDS:
                raise UnknownTheoremId(tid)
    # one catalog, and so one memo of builds, is shared by every verifier of the run
    inputs = {
        "catalog": default_catalog(max_order),
        "max_n": max_n,
        "seed": seed,
        "vertex_cap": vertex_cap,
        "node_budget": node_budget,
        "iso_size_cap": iso_size_cap,
    }
    return [
        verifier(**{name: inputs[name] for name in names})
        for verifier, names in (VERIFIERS[tid] for tid in ids)
    ]
