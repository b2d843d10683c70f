"""Command-line front end: analyze one group, verify theorems, export graphs.

The JSON of ``export`` and ``analyze`` is rendered as text straight from the
graph, not built as a payload of records first; its bytes are exactly those
of ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``.

Exit codes: 0 everything passed; 1 at least one theorem check failed;
2 usage error; 3 nothing was verified (all work skipped by caps).
"""

from __future__ import annotations

import argparse
import gc
import json
import locale  # noqa: F401  (see below)
import sys
from typing import Iterable

from . import __version__, groups
from .errors import CycgraphError, UnknownTheoremId
from .graphs import DEFAULT_VERTEX_CAP, IntersectionGraph, build
from .invariants import DEFAULT_NODE_BUDGET, compute_report
from .specs import parse_spec
from .subgroups import CyclicSubgroup
from .theorems import THEOREM_IDS, default_catalog, run_verifiers

# What the imports made (argparse, json, this package) lives as long as the
# process: move it out of the collector's view once, here, so that no full
# collection walks it again.  Not per ``main`` call, which would freeze what each
# call leaves behind.  ``locale`` is among them because argparse's gettext
# imports it on the first parser build, which every call makes; imported here,
# a process forked after this import does not import it again (~2 ms).  Neither
# numpy nor networkx is among them: numpy is imported on the first Cayley-table
# read, networkx on the first ``graph_isomorphic`` call, and no CLI call makes
# that one.
gc.freeze()

EXIT_OK = 0
EXIT_THEOREM_FAILURE = 1
EXIT_USAGE = 2
EXIT_SKIP_ONLY = 3


def _write_out(text: str, out: str | None) -> None:
    """Write UTF-8, to ``out`` or to stdout whatever the locale's encoding; a
    stdout with no byte buffer (an ``io.StringIO``) takes the text as it is."""
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()  # text already written goes first
        buffer.write(text.encode("utf-8"))


def _build_from_spec(text: str, vertex_cap: int) -> IntersectionGraph:
    spec = parse_spec(text)
    group = spec.realize()
    return build(group, vertex_cap)


# --- analyze ----------------------------------------------------------------

# JSON is laid out as json.dumps(indent=2, sort_keys=True) lays it out.  `pad` is
# a newline plus the indent of the line that closes a container; a nested dump
# is re-indented by replacing its newlines, which JSON strings never hold raw.

def _json_array(items: Iterable[str], pad: str) -> str:
    """A JSON list of items already rendered, closing at indent ``pad``."""
    inner = pad + "  "
    body = ("," + inner).join(items)
    return f"[{inner}{body}{pad}]" if body else "[]"


def _vertices_json(vertices: Iterable[CyclicSubgroup], pad: str) -> str:
    """The vertex list of analyze's and export's JSON output."""
    obj = pad + "  "
    key = obj + "  "
    elem = key + "  "
    sep = "," + elem
    return _json_array(
        (f'{{{key}"elements": [{elem}{sep.join(map(str, v.elements))}{key}],'
         f'{key}"generator": {v.generator},{key}"order": {v.order}{obj}}}'
         for v in vertices),
        pad,
    )


def _edges_json(edges: Iterable[tuple[int, int]], pad: str) -> str:
    item = pad + "  "
    num = item + "  "
    return _json_array((f"[{num}{u},{num}{v}{item}]" for u, v in edges), pad)


def _render_report_text(ig: IntersectionGraph, report) -> str:
    lines = [f"group: {ig.source_descriptor}"]
    d = report.to_dict()
    notes = d.pop("notes")
    comp = d.pop("component_structure")
    for key, val in d.items():
        if val is None:
            reason = notes.get(key, "skipped")
            lines.append(f"{key}: undefined ({reason})")
        else:
            lines.append(f"{key}: {val}")
    lines.append(
        "component_structure: "
        + (", ".join(f"(size={s}, clique={c})" for s, c in comp) or "(empty)")
    )
    lines.append(f"vertices ({ig.n}):")
    for i, v in enumerate(ig.vertices):
        lines.append(f"  {i}: gen={v.generator} order={v.order}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    ig = _build_from_spec(args.spec, args.vertex_cap)
    report = compute_report(ig.graph, args.node_budget)
    if args.format == "json":
        pad = "\n  "
        fields = json.dumps(report.to_dict(), indent=2, sort_keys=True).replace("\n", pad)
        _write_out(
            f'{{{pad}"group": {json.dumps(ig.source_descriptor)},{pad}"report": {fields},'
            f'{pad}"vertices": {_vertices_json(ig.vertices, pad)}\n}}\n',
            args.out,
        )
    else:
        _write_out(_render_report_text(ig, report), args.out)
    return EXIT_OK


# --- export -----------------------------------------------------------------

def render_dot(ig: IntersectionGraph) -> str:
    # in a quoted DOT ID a backslash escapes what follows it: double each one, then escape '"'
    name = ig.source_descriptor.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{name}" {{']
    for i, v in enumerate(ig.vertices):
        lines.append(f'  {i} [label="⟨{v.generator}⟩ ord={v.order}"];')
    for u, v in ig.graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_csv(ig: IntersectionGraph) -> str:
    rows = ["u,v"] + [f"{u},{v}" for u, v in ig.graph.edges()]
    return "\n".join(rows) + "\n"


def render_json(ig: IntersectionGraph) -> str:
    pad = "\n  "
    return (
        f'{{{pad}"descriptor": {json.dumps(ig.source_descriptor)},'
        f'{pad}"edges": {_edges_json(ig.graph.edges(), pad)},'
        f'{pad}"vertices": {_vertices_json(ig.vertices, pad)}\n}}\n'
    )


def cmd_export(args) -> int:
    ig = _build_from_spec(args.spec, args.vertex_cap)
    renderers = {"dot": render_dot, "csv": render_csv, "json": render_json}
    _write_out(renderers[args.format](ig), args.out)
    return EXIT_OK


# --- verify -----------------------------------------------------------------

def cmd_verify(args) -> int:
    ids = "all" if args.theorems == ["all"] else args.theorems
    results = run_verifiers(
        ids,
        max_order=args.max_order,
        max_n=args.max_n,
        seed=args.seed,
        vertex_cap=args.vertex_cap,
        node_budget=args.node_budget,
    )
    report = {
        "version": __version__,
        "seed": args.seed,
        "max_order": args.max_order,
        "max_n": args.max_n,
        "all_passed": all(r.passed for r in results),
        "results": [r.to_dict() for r in results],
    }
    if args.format == "json":
        _write_out(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status} {r.theorem_id}: {r.groups_tested} groups, "
                f"{len(r.counterexamples)} counterexamples, "
                f"{len(r.skipped)} skipped [{r.elapsed:.2f}s]"
            )
            for g, e, o in r.counterexamples[:10]:
                lines.append(f"    counterexample {g}: expected {e}, observed {o}")
            if r.notes:
                lines.append(f"    note: {r.notes}")
        _write_out("\n".join(lines) + "\n", args.out)
    if not any(r.groups_tested for r in results):
        return EXIT_SKIP_ONLY
    if not report["all_passed"]:
        return EXIT_THEOREM_FAILURE
    return EXIT_OK


# --- catalog ----------------------------------------------------------------

def cmd_catalog(args) -> int:
    """One line per catalog group; a group over the vertex cap gets the skip
    message ``verify`` records in place of its vertex count."""
    lines = []
    catalog = default_catalog(args.max_order, args.vertex_cap)
    for spec in catalog:
        item = catalog.item(spec)
        size = item if isinstance(item, str) else f"vertices={item[2].n}"
        lines.append(f"{spec.descriptor}\torder={spec.order()}\tfamily={spec.kind}\t{size}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- entry point --------------------------------------------------------------

def _at_least(lo: int, hi: int | None = None):
    """argparse type: an integer >= lo (and <= hi when given), else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= the order cap {hi}, got {value}")
        return value

    return parse


def _add_common(p: argparse.ArgumentParser, node_budget: bool = False) -> None:
    p.add_argument("--vertex-cap", type=_at_least(1), default=DEFAULT_VERTEX_CAP)
    if node_budget:
        p.add_argument("--node-budget", type=_at_least(1), default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycgraph",
        description="Intersection graphs of cyclic subgroups: invariants and theorem checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full invariant report for one group")
    p.add_argument("spec", help='group spec, e.g. "Z(4)xZ(2)", "Q(8)", "file:cayley:g.txt"')
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_common(p, node_budget=True)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("verify", help="run theorem verifiers over the group catalog")
    p.add_argument("theorems", nargs="+", help=f'"all" or ids from: {", ".join(THEOREM_IDS)}')
    p.add_argument("--max-order", type=_at_least(2, groups.ORDER_CAP), default=100)
    p.add_argument("--max-n", type=_at_least(2), default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_common(p, node_budget=True)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("export", help="export the intersection graph of one group")
    p.add_argument("spec")
    p.add_argument("--format", choices=["dot", "csv", "json"], default="dot")
    _add_common(p)
    p.set_defaults(func=cmd_export)

    p = subs.add_parser("catalog", help="list the default group catalog")
    p.add_argument("--max-order", type=_at_least(2, groups.ORDER_CAP), default=100)
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownTheoremId as exc:
        print(f"error: unknown theorem id {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CycgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
