"""Traced run: spans around the public entry points of each cycgraph module.

The benchmark wraps the entry points from its own files; the program is not
changed.  Every ``cycgraph.*`` module attribute that is the original function
object is replaced by the wrapper (so names imported elsewhere, such as
``theorems.build`` or ``cli.run_verifiers``, are covered), and so is
``GroupSpec.realize``.  Spans are kept in memory as
``[family, start, end, parent, item, status, data]`` and turned into
per-layer self times when the run ends.  The layers are the package modules;
``arith`` and ``errors`` are helpers and are not timed.  ``Tracer.restore``
puts every patched attribute back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

THEOREM_IDS = (
    "thm13-iso-invariance",
    "thm14-totally-disconnected",
    "thm15-complete",
    "thm16-planarity",
    "thm345-star-path-cycle",
    "cor-c1-girth",
    "thm7-acyclic-equivalences",
    "thm8-300-alpha-theta",
    "t24-regular-zn",
    "t24-degree-formula-zn",
    "t22-domination-zn",
)

_SHAPES = (
    "shape_checks", "is_complete", "is_star", "is_path", "is_cycle", "is_totally_disconnected",
    "is_connected", "is_acyclic", "is_bipartite", "has_triangle", "is_regular",
    "component_structure",
)

#: (layer, module, attribute, family).  The family names the metric a span feeds.
TARGETS = (
    ("specs", "specs", "parse_spec", "parse"),
    ("groups", "specs", "GroupSpec.realize", "realize"),
    ("groups", "groups", "read_cayley_file", "file_parse"),
    ("groups", "groups", "validate_table", "validate"),
    ("groups", "groups", "relabel", "relabel"),
    ("groups", "groups", "element_order", "element_order"),
    ("subgroups", "subgroups", "cyclic_subgroups", "enumerate"),
    ("subgroups", "subgroups", "maximal_cyclic_subgroups", "maximal"),
    ("subgroups", "subgroups", "prime_order_subgroup_count", "prime_count"),
    ("graphs", "graphs", "build", "build"),
    ("graphs", "graphs", "zn_divisor_graph", "zn_divisor"),
    ("invariants", "invariants", "independence_number", "alpha"),
    ("invariants", "invariants", "clique_cover_number", "theta"),
    ("invariants", "invariants", "domination_number", "gamma"),
    ("invariants", "invariants", "girth", "girth"),
    *(("invariants", "invariants", name, "shapes") for name in _SHAPES),
    ("invariants", "invariants", "compute_report", "report"),
    ("invariants", "invariants", "graph_isomorphic", "iso"),
    ("planarity", "planarity", "is_planar", "is_planar"),
    ("theorems", "theorems", "default_catalog", "catalog"),
    ("theorems", "theorems", "run_verifiers", "run"),
    ("cli", "cli", "main", "main"),
)

_SOLVERS = ("alpha", "theta", "gamma")
_INVARIANT_FAMILIES = ("alpha", "theta", "gamma", "girth", "shapes", "report", "iso")


class TraceTargetMissing(RuntimeError):
    """A wrap target named in TARGETS no longer exists in the program."""


# --- what a span keeps from its call's result ---------------------------------

def _observe(family, args, result):
    if family == "realize":
        return (args[0].descriptor, result.order)
    if family == "file_parse":
        return result.order
    if family == "enumerate":
        return len(result)
    if family == "build":
        return (result.graph.n, result.graph.edge_count())
    if family == "run":
        return [(r.theorem_id, r.elapsed, r.groups_tested, len(r.skipped)) for r in result]
    return None


class Tracer:
    """Patches the wrap targets of the live cycgraph modules and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.family_layer = {fam: layer for layer, _, _, fam in TARGETS}

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "cycgraph" or name.startswith("cycgraph."))
        }
        skip_exc = modules["cycgraph.errors"].SkippedSizeCap
        for layer, modname, attr, family in TARGETS:
            mod = modules.get(f"cycgraph.{modname}")
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            original = vars(holder).get(name) if holder is not None else None
            if original is None or not callable(original):
                self.restore()
                raise TraceTargetMissing(f"cycgraph.{modname}.{attr} no longer exists")
            wrapper = self._wrap(original, family, skip_exc)
            if owner:
                self._patch(holder, name, original, wrapper)
            for mod_ in modules.values():
                for alias, value in list(vars(mod_).items()):
                    if value is original:
                        self._patch(mod_, alias, original, wrapper)

    def _patch(self, holder, name, original, wrapper) -> None:
        self._patched.append((holder, name, original))
        setattr(holder, name, wrapper)

    def restore(self) -> list[str]:
        """Put every patched attribute back; returns the names still not original."""
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        leftover = [
            f"{getattr(h, '__name__', h)}.{n}"
            for h, n, o in self._patched if getattr(h, n) is not o
        ]
        self._patched.clear()
        return leftover

    def _wrap(self, fn, family, skip_exc):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [family, 0.0, 0.0, stack[-1] if stack else -1, self.item, "ok", None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except skip_exc:
                span[5] = "skip"
                raise
            except BaseException:
                span[5] = "error"
                raise
            finally:
                span[2] = clock()
                stack.pop()
            span[6] = _observe(family, args, result)
            return result

        return wrapper


# --- span arithmetic ---------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s[1]), min(b, s[2])) for a, b in children.get(i, ())]
        out.append((s[2] - s[1]) - covered([k for k in kids if k[1] > k[0]]))
    return out


def layer_metrics(spans, family_layer, traced_wall, untraced_wall, consts) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``consts`` holds ``TABLE_CAP`` and ``DEFAULT_ASSOC_CAP`` read from the live
    ``cycgraph.groups`` (None where the program no longer has one).
    """
    selft = self_times(spans)
    fam_s = defaultdict(float)
    layer_s = defaultdict(float)
    calls = defaultdict(int)        # calls into a family from outside it
    outer = []                      # spans whose parent is of another family
    for i, s in enumerate(spans):
        fam_s[s[0]] += selft[i]
        layer_s[family_layer[s[0]]] += selft[i]
        if s[3] < 0 or spans[s[3]][0] != s[0]:
            calls[s[0]] += 1
            outer.append(s)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    # groups
    realizes = [s for s in outer if s[0] == "realize" and s[6] is not None]
    table_cap = consts.get("TABLE_CAP")
    assoc_cap = consts.get("DEFAULT_ASSOC_CAP")
    n_real = len(realizes)
    put("groups.self_s", layer_s["groups"], "s")
    put("groups.realize_s", fam_s["realize"], "s")
    put("groups.realize_calls", n_real, "count")
    put("groups.realize_distinct", len({s[6][0] for s in realizes}), "count")
    put("groups.realize_reuse", len({s[6][0] for s in realizes}) / n_real if n_real else 1.0, "ratio")
    put("groups.table_entries", sum(
        s[6][1] ** 2 for s in realizes if table_cap is None or s[6][1] <= table_cap), "count")
    put("groups.file_parse_s", fam_s["file_parse"], "s")
    put("groups.validate_s", fam_s["validate"], "s")
    put("groups.validate_calls", calls["validate"], "count")
    put("groups.assoc_unchecked", sum(
        1 for s in outer if s[0] == "file_parse" and s[6] is not None
        and assoc_cap is not None and s[6] > assoc_cap), "count")

    # subgroups
    enum = [s for s in spans if s[0] == "enumerate"]
    builds = [s for s in outer if s[0] == "build" and s[6] is not None]
    put("subgroups.self_s", layer_s["subgroups"], "s")
    put("subgroups.enumerate_s", fam_s["enumerate"], "s")
    put("subgroups.calls", len(enum), "count")
    put("subgroups.found", sum(s[6] for s in enum if s[6] is not None), "count")
    put("subgroups.calls_per_build", len(enum) / len(builds) if builds else 0.0, "ratio")

    # graphs
    put("graphs.self_s", layer_s["graphs"], "s")
    put("graphs.build_s", fam_s["build"], "s")
    put("graphs.build_calls", calls["build"], "count")
    put("graphs.vertices", sum(s[6][0] for s in builds), "count")
    put("graphs.edges", sum(s[6][1] for s in builds), "count")
    put("graphs.pair_tests", sum(s[6][0] * (s[6][0] - 1) // 2 for s in builds), "count")
    put("graphs.zn_divisor_s", fam_s["zn_divisor"], "s")

    # invariants
    put("invariants.self_s", layer_s["invariants"], "s")
    for fam in _INVARIANT_FAMILIES:
        put(f"invariants.{fam}_s", fam_s[fam], "s")
        put(f"invariants.{fam}_calls", calls[fam], "count")
    skipped = [s for s in outer if s[0] in _SOLVERS and s[5] == "skip"]
    solver_calls = sum(calls[f] for f in _SOLVERS)
    put("invariants.skips", len(skipped), "count")
    put("invariants.skip_s", sum((s[2] - s[1] for s in skipped), 0.0), "s")
    put("invariants.decided_ratio",
        (solver_calls - len(skipped)) / solver_calls if solver_calls else 1.0, "ratio")

    # planarity
    put("planarity.is_planar_s", fam_s["is_planar"], "s")
    put("planarity.calls", calls["is_planar"], "count")

    # theorems: per-verifier time is the elapsed time each result reports
    results = [r for s in outer if s[0] == "run" and s[6] is not None for r in s[6]]
    elapsed = defaultdict(float)
    for tid, dt, _, _ in results:
        elapsed[tid] += dt
    put("theorems.self_s", layer_s["theorems"], "s")
    for tid in THEOREM_IDS:
        put(f"theorems.{tid}_s", elapsed[tid], "s")
    put("theorems.catalog_s", fam_s["catalog"], "s")
    put("theorems.checks", sum(r[2] for r in results), "count")
    put("theorems.skips", sum(r[3] for r in results), "count")

    put("specs.parse_s", fam_s["parse"], "s")
    put("cli.self_s", layer_s["cli"], "s")

    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    put("trace.overhead_share", (traced_wall - untraced_wall) / untraced_wall, "ratio")
    put("trace.unattributed_s", traced_wall - covered(roots), "s")
    put("trace.spans", len(spans), "count")
    return m
