"""Command-line front end: analyze one group, verify theorems, export graphs.

Exit codes: 0 everything passed; 1 at least one theorem check failed;
2 usage error; 3 nothing was verified (all work skipped by caps).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import CycgraphError, SpecParseError, UnknownTheoremId
from .graphs import DEFAULT_VERTEX_CAP, IntersectionGraph, build
from .invariants import DEFAULT_NODE_BUDGET, compute_report
from .specs import parse_spec
from .theorems import THEOREM_IDS, default_catalog, run_verifiers

EXIT_OK = 0
EXIT_THEOREM_FAILURE = 1
EXIT_USAGE = 2
EXIT_SKIP_ONLY = 3


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _build_from_spec(text: str, vertex_cap: int) -> IntersectionGraph:
    spec = parse_spec(text)
    group = spec.realize()
    return build(group, vertex_cap)


# --- analyze ----------------------------------------------------------------

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
        payload = {
            "group": ig.source_descriptor,
            "report": report.to_dict(),
            "vertices": [
                {"generator": v.generator, "order": v.order, "elements": list(v.elements)}
                for v in ig.vertices
            ],
        }
        _write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_out(_render_report_text(ig, report), args.out)
    return EXIT_OK


# --- export -----------------------------------------------------------------

def render_dot(ig: IntersectionGraph) -> str:
    lines = [f'graph "{ig.source_descriptor}" {{']
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
    payload = {
        "descriptor": ig.source_descriptor,
        "vertices": [
            {"generator": v.generator, "order": v.order, "elements": list(v.elements)}
            for v in ig.vertices
        ],
        "edges": [list(e) for e in ig.graph.edges()],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
    catalog = default_catalog(args.max_order)
    lines = []
    for spec in catalog:
        group = spec.realize()
        ig = build(group, args.vertex_cap)
        lines.append(f"{spec.descriptor}\torder={group.order}\tfamily={spec.kind}\tvertices={ig.n}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- entry point --------------------------------------------------------------

def _at_least(lo: int):
    """argparse type: an integer >= lo, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
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
    p.add_argument("--max-order", type=_at_least(2), default=100)
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
    p.add_argument("--max-order", type=_at_least(2), default=100)
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
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CycgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
