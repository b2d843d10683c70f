"""Acceptance gate: twelve criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
printed lines for passing criteria too).  Criteria 2, 3, 6 and 10 cover
statements that are false as printed; each pins its counterexample family
exactly, derived in the test from a closed form, so that a group gained or
lost by the verifier turns the criterion red:

- 02: Z(p^2)xZ(p^2) has graph (p+1)K_{p+1}, planar for p = 3, yet Z(9)xZ(9)
  is missing from the listed planar families.
- 03: Z(4)xZ(4) has nine proper nontrivial cyclic subgroups and graph 3K3,
  not the claimed 2K3+K2 (which has eight vertices).
- 06 and 10: for n = pq (p != q prime) the Z_n graph is 2K1, which is
  0-regular and edgeless although Z_n has an element of order pq.
"""

import time

from conftest import (
    brute_clique_cover_number,
    brute_domination_number,
    brute_independence_number,
    distinct_prime_pairs,
    kuratowski_oracle,
)
from cycgraph.graphs import build, zn_divisor_graph
from cycgraph.groups import alternating, cyclic, dicyclic
from cycgraph.invariants import (
    clique_cover_number,
    component_structure,
    domination_number,
    independence_number,
)
from cycgraph.planarity import is_planar
from cycgraph.specs import Zs
from cycgraph.theorems import ISO_GROUPS, ISO_TRIALS, run_verifiers


def report(num, ok, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {status}: {desc}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def pinned(res, predicted, observed):
    """Check that the counterexamples of `res` are exactly the groups named in
    `predicted`, each reporting `observed`; return (ok, detail).

    The detail names what moved: groups flagged beyond the prediction
    (unexpected) and predicted groups no longer flagged (missing).
    """
    names = [g for g, _, _ in res.counterexamples]
    want, got = set(predicted), set(names)
    unexpected = [g for g in names if g not in want]
    missing = [g for g in predicted if g not in got]
    off = [f"{g}: {o}" for g, _, o in res.counterexamples if o != observed]
    ok = sorted(names) == sorted(predicted) and not off
    detail = (f"{len(names)} counterexamples, {len(predicted)} predicted; "
              f"unexpected {unexpected[:3]}; missing {missing[:3]}; "
              f"not {observed!r}: {off[:3]}")
    return ok, detail


def test_criterion_01_complete_graph_formulas():
    t0 = time.perf_counter()
    ok = True
    for p in (2, 3, 5):
        for alpha in range(2, 7):
            ig = build(cyclic(p**alpha))
            full = ig.n * (ig.n - 1) // 2
            ok &= ig.n == alpha - 1 and ig.graph.edge_count() == full
    for alpha in (3, 4, 5):
        ig = build(dicyclic(2 ** (alpha - 2)))
        full = ig.n * (ig.n - 1) // 2
        ok &= ig.n == 2 ** (alpha - 2) + alpha - 1 and ig.graph.edge_count() == full
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1
    report(1, ok, f"complete-graph vertex formulas, {elapsed:.2f}s")


def test_criterion_02_planarity_classification():
    t0 = time.perf_counter()
    res = run_verifiers(["thm16-planarity"], max_order=200)[0]
    elapsed = time.perf_counter() - t0
    # Z(p^2)xZ(p^2) has p+1 subgroups of order p and p(p+1) cyclic subgroups
    # of order p^2, each containing exactly one of the former: the graph is
    # (p+1)K_{p+1}, planar iff p+1 <= 4.  The listed families hold Z(4)xZ(4)
    # (p = 2) but not p = 3, so that one is flagged as planar yet unlisted.
    planar_squares = [f"Z({p * p})xZ({p * p})" for p in (2, 3, 5, 7)
                      if p ** 4 <= 200 and p + 1 <= 4]
    predicted = [g for g in planar_squares if g != "Z(4)xZ(4)"]
    ok, detail = pinned(res, predicted, "planar=True")
    z99 = build(Zs(9, 9).realize()).graph
    ok &= component_structure(z99) == ((4, True),) * 4 and kuratowski_oracle(z99)
    ok &= not res.skipped and elapsed < 60
    report(2, ok, f"planarity classification, non-cyclic abelian <= 200, "
                  f"only Z(9)xZ(9) planar but unlisted, "
                  f"{res.groups_tested} groups, {elapsed:.1f}s", detail)


def test_criterion_03_structure_spot_checks():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for p in (2, 3, 5):
        comps = component_structure(build(Zs(p * p, p).realize()).graph)
        expected = tuple(sorted([(1, True)] * p + [(p + 1, True)]))
        ok &= comps == expected
    # Z(4)xZ(4): 3 involutions and 12 elements of order 4 in 6 cyclic
    # subgroups, so 9 vertices; each order-4 subgroup contains one involution,
    # giving (p+1)K_{p+1} = 3K3 for p = 2 (2K3+K2 would have only 8 vertices)
    z44 = component_structure(build(Zs(4, 4).realize()).graph)
    if z44 != ((3, True),) * 3:
        detail = f"Z(4)xZ(4) components are {z44}, not 3K3"
        ok = False
    ok &= time.perf_counter() - t0 < 1
    report(3, ok, "component-structure spot checks", detail)


def test_criterion_04_girth_dichotomy():
    t0 = time.perf_counter()
    res = run_verifiers(["cor-c1-girth"], max_order=200)[0]
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 60
    report(4, ok, f"girth in {{3, inf}} over catalog(200), "
                  f"{res.groups_tested} groups, {elapsed:.1f}s",
           "; ".join(f"{g}: {o}" for g, _, o in res.counterexamples[:3]))


def test_criterion_05_alpha_theta_m():
    t0 = time.perf_counter()
    res = run_verifiers(["thm8-300-alpha-theta"], max_order=150)[0]
    elapsed = time.perf_counter() - t0
    ok = res.passed and res.groups_tested > 0 and elapsed < 120
    report(5, ok, f"alpha = theta = m over catalog(150), "
                  f"{res.groups_tested} groups ({len(res.skipped)} skipped), {elapsed:.1f}s",
           "; ".join(f"{g}: {o}" for g, _, o in res.counterexamples[:3]))


def test_criterion_06_regularity_zn():
    t0 = time.perf_counter()
    res = run_verifiers(["t24-regular-zn"], max_n=5000)[0]
    elapsed = time.perf_counter() - t0
    # deg(d) = tau(n) - 2 - prod_{p not dividing d}(a_p + 1) (criterion 07):
    # if some a_i >= 2, deg(n/p_i) = tau(n) - 3 differs from deg(p_j); if n
    # is squarefree with >= 3 primes, deg(p1) != deg(p1 p2).  So n = pq, whose
    # graph 2K1 is 0-regular, is the only non-prime-power regular case.
    predicted = [f"Z({n})" for n in sorted(distinct_prime_pairs(5000))]
    ok, detail = pinned(res, predicted, "regular=True")
    ok &= elapsed < 30
    report(6, ok, f"regular iff n = p^alpha, except exactly n = pq, n <= 5000, "
                  f"{res.groups_tested} graphs, {elapsed:.1f}s", detail)


def test_criterion_07_degree_formula_zn():
    t0 = time.perf_counter()
    res = run_verifiers(["t24-degree-formula-zn"], max_n=2000)[0]
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 30
    report(7, ok, f"degree formula for Z_n, n <= 2000, "
                  f"{res.groups_tested} graphs, {elapsed:.1f}s",
           "; ".join(f"{g}: {o}" for g, _, o in res.counterexamples[:3]))


def test_criterion_08_domination_zn():
    t0 = time.perf_counter()
    res = run_verifiers(["t22-domination-zn"], max_n=2000)[0]
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 60
    report(8, ok, f"domination number of Z_n, composite n <= 2000, "
                  f"{res.groups_tested} graphs, {elapsed:.1f}s",
           "; ".join(f"{g}: {o}" for g, _, o in res.counterexamples[:3]))


def test_criterion_09_star_path_cycle():
    t0 = time.perf_counter()
    res = run_verifiers(["thm345-star-path-cycle"], max_order=200)[0]
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 60
    report(9, ok, f"star/path iff Z(p^3), cycle iff Z(p^4) over catalog(200), "
                  f"{res.groups_tested} groups, {elapsed:.1f}s",
           "; ".join(f"{g}: {o}" for g, _, o in res.counterexamples[:3]))


def test_criterion_10_totally_disconnected():
    t0 = time.perf_counter()
    ig = build(alternating(5))
    a5_ok = ig.n == 31 and ig.graph.edge_count() == 0
    res = run_verifiers(["thm14-totally-disconnected"], max_order=200)[0]
    elapsed = time.perf_counter() - t0
    # All orders prime: distinct prime-order subgroups meet trivially, so no
    # edges.  g of composite order with <g> != G: <g> and its prime-order
    # subgroup are adjacent.  G = Z_n itself is edgeless with >= 2 vertices
    # only for n = pq, where a generator has composite order pq.
    predicted = [f"Z({n})" for n in sorted(distinct_prime_pairs(200))]
    ok, detail = pinned(res, predicted, "totally_disconnected=True")
    ok &= a5_ok and not res.skipped and elapsed < 60
    report(10, ok, f"edgeless iff all element orders prime, except exactly Z(pq), "
                   f"catalog(200), {res.groups_tested} groups, {elapsed:.1f}s", detail)


def test_criterion_11a_divisor_oracle():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 2001):
        divs, oracle = zn_divisor_graph(n)
        ig = build(cyclic(n))
        if sorted(divs) != sorted(v.order for v in ig.vertices):
            bad.append(n)
            continue
        perm = {i: divs.index(v.order) for i, v in enumerate(ig.vertices)}
        edges = {(min(perm[u], perm[v]), max(perm[u], perm[v]))
                 for u, v in ig.graph.edges()}
        if edges != set(oracle.edges()):
            bad.append(n)
    elapsed = time.perf_counter() - t0
    report(11, not bad, f"element-level builds match the divisor-gcd oracle "
                        f"for all n <= 2000, {elapsed:.1f}s",
           f"mismatched n: {bad[:5]}")


def test_criterion_11b_planarity_dual_route(small_catalog_graphs):
    checked = 0
    bad = []
    for desc, ig in small_catalog_graphs:
        if ig.n > 12:
            continue
        checked += 1
        if is_planar(ig.graph) != kuratowski_oracle(ig.graph):
            bad.append(desc)
    report(11, not bad and checked >= 30,
           f"is_planar agrees with the minor oracle on {checked} corpus graphs <= 12 vertices",
           f"disagreements: {bad[:5]}")


def test_criterion_11c_solver_brute_force(small_catalog_graphs):
    checked = 0
    bad = []
    for desc, ig in small_catalog_graphs:
        g = ig.graph
        if not 0 < g.n <= 16:
            continue
        checked += 1
        if (independence_number(g) != brute_independence_number(g)
                or clique_cover_number(g) != brute_clique_cover_number(g)
                or domination_number(g) != brute_domination_number(g)):
            bad.append(desc)
    report(11, not bad and checked >= 20,
           f"alpha/theta/gamma solvers match subset enumeration on {checked} corpus graphs",
           f"disagreements: {bad[:5]}")


def test_criterion_12_isomorphism_invariance():
    t0 = time.perf_counter()
    res = run_verifiers(["thm13-iso-invariance"], max_order=100, seed=0)[0]
    elapsed = time.perf_counter() - t0
    ok = (ISO_TRIALS == 20 and ISO_GROUPS == 10
          and res.passed and res.groups_tested == 10 and not res.skipped and elapsed < 10)
    report(12, ok, f"20 seeded relabelings of {res.groups_tested} groups give "
                   f"isomorphic graphs, {elapsed:.1f}s",
           "; ".join(f"{g}: {o}" for g, _, o in res.counterexamples[:3]))
