"""Executable checks for each classification result, over a generated group catalog.

Every verifier tests its statement as a biconditional over concrete groups and
reports counterexamples instead of failing silently; a counterexample can be
reproduced in isolation with the CLI ``analyze`` command.
"""

from __future__ import annotations

import functools
import inspect
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .arith import factorize, is_prime, prime_power, tau
from .errors import SkippedSizeCap, UnknownTheoremId, VertexCapExceeded
from .graphs import DEFAULT_VERTEX_CAP, IntersectionGraph, bits, build, zn_divisor_graph
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
    """Catalog specs, the run's vertex cap and a memo of their builds, so that
    every verifier run over one catalog realizes and builds each group at most once."""

    specs: list[GroupSpec]
    max_order: int
    vertex_cap: int = DEFAULT_VERTEX_CAP
    # spec -> (group, graph), or the vertex-cap skip message
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def graphs(self, result: VerificationResult, specs=None):
        """Yield (spec, group, graph) lazily in catalog order (or over `specs`),
        building on first use; vertex-cap hits go to ``result.skipped``."""
        for spec in self.specs if specs is None else specs:
            if spec not in self._built:
                self._built[spec] = build_or_skip(spec, self.vertex_cap)
            entry = self._built[spec]
            if isinstance(entry, str):
                result.skipped.append(entry)
            else:
                yield (spec, *entry)


@dataclass
class ZnGraphs:
    """The Z(n) graphs for 2 <= n <= max_n in divisor representation, as
    (n, divisors, graph) in ascending n, built by ``zn_divisor_graph``.  With
    ``keep`` the first read stores them, so that every Z_n verifier of a run
    reads one list; without it each read builds them one at a time and keeps none."""

    max_n: int
    keep: bool = False
    _built: list | None = field(default=None, init=False, repr=False, compare=False)

    def __iter__(self):
        if self._built is not None:
            return iter(self._built)
        graphs = ((n, *zn_divisor_graph(n)) for n in range(2, self.max_n + 1))
        if not self.keep:
            return graphs
        self._built = list(graphs)
        return iter(self._built)


def default_catalog(max_order: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Catalog:
    """All abelian groups plus the dihedral/dicyclic/symmetric/alternating
    families up to the order bound, each spec once; builds obey ``vertex_cap``."""
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
    return Catalog(specs, max_order, vertex_cap)


def build_or_skip(spec: GroupSpec, vertex_cap: int) -> tuple[FiniteGroup, IntersectionGraph] | str:
    """Realize and build ``spec``: (group, graph), or the message of the vertex-cap skip."""
    group = spec.realize()
    try:
        return group, build(group, vertex_cap)
    except VertexCapExceeded as exc:
        return str(exc)


#: theorem id -> (verifier, the run inputs it takes by name), in report order;
#: filled in by ``_verifier`` as each check is defined
VERIFIERS: dict[str, tuple[Callable[..., VerificationResult], tuple[str, ...]]] = {}


def _verifier(theorem_id: str):
    """Register a check as the verifier of ``theorem_id``.

    The check takes a fresh result for that id, then the run inputs it reads by
    name; it sets the domain and fills in the result.  The registered verifier
    takes the inputs alone, times the check and marks the result passed iff it
    found no counterexample.
    """

    def register(check):
        sig = inspect.signature(check)
        params = list(sig.parameters.values())[1:]

        @functools.wraps(check)
        def run(*args, **kwargs) -> VerificationResult:
            t0 = time.perf_counter()
            res = VerificationResult(theorem_id, "")
            check(res, *args, **kwargs)
            res.elapsed = time.perf_counter() - t0
            res.passed = not res.counterexamples
            return res

        run.__signature__ = sig.replace(parameters=params, return_annotation=VerificationResult)
        VERIFIERS[theorem_id] = (run, tuple(p.name for p in params))
        return run

    return register


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


@_verifier("thm13-iso-invariance")
def verify_iso_invariance_catalog(res: VerificationResult, catalog: Catalog, seed: int = 0) -> None:
    res.domain = (
        f"first {ISO_GROUPS} catalog groups with 2..{ISO_PICK_MAX_VERTICES} vertices, "
        f"{ISO_TRIALS} relabelings each (catalog max order {catalog.max_order})"
    )
    # stop at the last pick: the lazy pass builds nothing beyond it
    for spec, group, ig in catalog.graphs(res):
        if not (2 <= ig.n <= ISO_PICK_MAX_VERTICES):
            continue
        res.groups_tested += 1
        res.counterexamples += _relabelings_isomorphic(group, ig, ISO_TRIALS, seed + res.groups_tested)
        if res.groups_tested == ISO_GROUPS:
            break


@_verifier("thm14-totally-disconnected")
def verify_totally_disconnected(res: VerificationResult, catalog: Catalog) -> None:
    """Edge-free graph <-> every non-identity element has prime order.

    Groups whose graph has fewer than 2 vertices are excluded (the forward
    direction silently assumes two subgroups exist); exclusions are counted.
    """
    res.domain = f"default catalog, order <= {catalog.max_order}, graphs with >= 2 vertices"
    excluded = 0
    for spec, group, ig in catalog.graphs(res):
        if ig.n < 2:
            excluded += 1
            continue
        res.groups_tested += 1
        disconnected = ig.graph.edge_count() == 0
        # x != 1 generates a vertex, or G itself when G is cyclic (of composite order, as it
        # has vertices); prime-order vertices meet trivially, so they hold every x != 1
        # exactly when their non-identity elements number |G| - 1
        orders = [v.order for v in ig.vertices]
        all_prime = all(map(is_prime, orders)) and 1 + sum(orders) - len(orders) == group.order
        if disconnected != all_prime:
            res.counterexamples.append(
                (
                    spec.descriptor,
                    f"totally_disconnected == all_elements_prime_order ({all_prime})",
                    f"totally_disconnected={disconnected}",
                )
            )
    res.notes = f"excluded {excluded} groups with < 2 vertices"


@_verifier("thm15-complete")
def verify_complete(res: VerificationResult, catalog: Catalog) -> None:
    """Complete graph <-> unique proper subgroup of prime order (nonempty graphs);
    plus the exact vertex-count formulas for cyclic p-power and quaternion groups."""
    res.domain = f"default catalog, order <= {catalog.max_order}, nonempty graphs"
    for spec, group, ig in catalog.graphs(res):
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


@_verifier("thm16-planarity")
def verify_planarity_classification(res: VerificationResult, catalog: Catalog) -> None:
    """Planar graph <-> the group is one of the five listed abelian families,
    over every non-cyclic abelian group of the catalog."""
    res.domain = f"all non-cyclic abelian groups of order <= {catalog.max_order}"
    specs = [
        s for s in catalog if abelian_prime_signature(s) is not None and not is_cyclic_spec(s)
    ]
    for spec, _, ig in catalog.graphs(res, specs):
        planar = is_planar(ig.graph)
        res.groups_tested += 1
        listed = in_planar_classification(spec)
        if planar != listed:
            res.counterexamples.append(
                (spec.descriptor, f"planar <-> in classification ({listed})", f"planar={planar}")
            )


@_verifier("thm345-star-path-cycle")
def verify_star_path_cycle(res: VerificationResult, catalog: Catalog) -> None:
    """Star and path graphs occur exactly for cyclic p^3; a cycle exactly for cyclic p^4."""
    res.domain = f"default catalog, order <= {catalog.max_order}"
    for spec, group, ig in catalog.graphs(res):
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


@_verifier("cor-c1-girth")
def verify_girth(res: VerificationResult, catalog: Catalog) -> None:
    """girth is always 3 or infinity."""
    res.domain = f"default catalog, order <= {catalog.max_order}"
    for spec, group, ig in catalog.graphs(res):
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


@_verifier("thm7-acyclic-equivalences")
def verify_acyclic_equivalences(res: VerificationResult, catalog: Catalog) -> None:
    """acyclic <-> bipartite <-> triangle-free on every catalog graph.

    The subgroup-side condition is reported under both quantifier readings
    (notes field) without being part of the pass criterion.
    """
    res.domain = f"default catalog, order <= {catalog.max_order}"
    match = {"some": 0, "every": 0}
    mismatch_examples = {"some": [], "every": []}
    for spec, _, ig in catalog.graphs(res):
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


@_verifier("thm8-300-alpha-theta")
def verify_alpha_theta(res: VerificationResult, catalog: Catalog) -> None:
    """independence number = clique cover number = number of prime-order subgroups."""
    res.domain = f"default catalog, order <= {catalog.max_order}, within solver caps"
    for spec, group, ig in catalog.graphs(res):
        m = sum(1 for v in ig.vertices if is_prime(v.order))
        # one certificate gives alpha = theta = k
        k = simplicial_cover(ig.graph)
        if k is None:
            res.skipped.append(f"{spec.descriptor}: no simplicial-cover certificate")
            continue
        res.groups_tested += 1
        if k != m:
            res.counterexamples.append(
                (spec.descriptor, f"alpha == theta == m ({m})", f"alpha={k}, theta={k}")
            )


@_verifier("t24-regular-zn")
def verify_regular_zn(res: VerificationResult, zn: ZnGraphs) -> None:
    """Regular graph <-> n is p^alpha with alpha >= 2, over nonempty Z_n graphs.

    Uses the divisor representation of the Z_n graph (validated against
    the element-level build elsewhere in the suite).
    """
    res.domain = f"Z(n) for n <= {zn.max_n} with nonempty graph"
    for n, ds, g in zn:
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


def zn_expected_degree(n: int, d: int) -> int:
    """Degree of the order-d vertex of the Z_n graph: tau(n) - 2 minus the
    count of divisors coprime to d (full-support divisors give tau(n) - 3)."""
    coprime = 1
    for p, a in factorize(n):
        if d % p != 0:
            coprime *= a + 1
    return tau(n) - 2 - coprime


@_verifier("t24-degree-formula-zn")
def verify_degree_formula_zn(res: VerificationResult, zn: ZnGraphs) -> None:
    res.domain = f"Z(n) for n <= {zn.max_n}, every vertex"
    for n, ds, g in zn:
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


@_verifier("t22-domination-zn")
def verify_domination_zn(
    res: VerificationResult, zn: ZnGraphs, node_budget: int = DEFAULT_NODE_BUDGET
) -> None:
    """Domination number of the Z_n graph: 1 when some exponent exceeds 1,
    2 when n is squarefree with >= 2 prime factors; primes are skipped."""
    res.domain = f"Z(n) for composite n <= {zn.max_n}"
    for n, ds, g in zn:
        if g.n == 0:
            continue  # n prime
        res.groups_tested += 1
        expect = 1 if any(a > 1 for _, a in factorize(n)) else 2
        try:
            gamma = domination_number(g, node_budget)
        except SkippedSizeCap as exc:
            res.skipped.append(f"Z({n}): {exc}")
            continue
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
        ids = list(theorem_ids)
        for tid in ids:
            if tid not in THEOREM_IDS:
                raise UnknownTheoremId(tid)
    # one catalog and one source of Z_n graphs are shared by every verifier of
    # the run; the Z_n graphs are kept only when more than one verifier reads them
    zn_readers = sum("zn" in VERIFIERS[tid][1] for tid in ids)
    inputs = {
        "catalog": default_catalog(max_order, vertex_cap),
        "zn": ZnGraphs(max_n, keep=zn_readers > 1),
        "seed": seed,
        "node_budget": node_budget,
    }
    return [
        verifier(**{name: inputs[name] for name in names})
        for verifier, names in (VERIFIERS[tid] for tid in ids)
    ]
