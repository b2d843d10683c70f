"""Command-line front end: analyze one group, verify theorems, export graphs.

The JSON of ``export``, ``analyze`` and ``verify`` is rendered as text
straight from the graph or the results, not built as a payload of records
first, and ``verify``'s is written a counterexample at a time; its bytes are
exactly those of ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``.

Exit codes: 0 everything passed; 1 at least one theorem check failed;
2 usage error; 3 no verifier tested a group, because every group was skipped
by a cap or the domain held none (``verify thm16-planarity --max-order 3``).
``verify``'s text labels a verifier that tested no group ``UNTESTED``, not PASS.
"""

from __future__ import annotations

import argparse
import gc
import json
import locale  # noqa: F401  (see below)
import sys
from typing import Iterable, Iterator

from . import __version__, groups
from .errors import CycgraphError
from .graphs import DEFAULT_VERTEX_CAP, IntersectionGraph, build, vertex_cap_message
from .invariants import DEFAULT_NODE_BUDGET, compute_report
from .specs import parse_spec
from .subgroups import CyclicSubgroup, vertex_count
from .theorems import THEOREM_IDS, VerificationResult, default_catalog, run_verifiers

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


def _write_out(text: str | Iterable[str], out: str | None) -> None:
    """Write UTF-8, to ``out`` or to stdout whatever the locale's encoding; a
    stdout with no byte buffer (an ``io.StringIO``) takes the text as it is.
    ``text`` may come as an iterable of chunks, each written as it is made."""
    chunks = (text,) if isinstance(text, str) else text
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.writelines(chunks)
    else:
        sys.stdout.flush()  # text already written goes first
        for chunk in chunks:
            buffer.write(chunk.encode("utf-8"))


# --- analyze ----------------------------------------------------------------

# JSON is laid out as json.dumps(indent=2, sort_keys=True) lays it out.  `pad` is
# a newline plus the indent of the line that closes a container; a nested dump
# is re-indented by replacing its newlines, which JSON strings never hold raw.

def _json_array(items: Iterable[str], pad: str) -> str:
    """A JSON list of items already rendered, closing at indent ``pad``."""
    inner = pad + "  "
    body = ("," + inner).join(items)
    return f"[{inner}{body}{pad}]" if body else "[]"


def _json_array_chunks(items: Iterable[str], pad: str) -> Iterator[str]:
    """:func:`_json_array` one item at a time, so a long list is never held
    whole (one join is faster where the list is held anyway)."""
    inner = pad + "  "
    sep = "[" + inner
    for item in items:
        yield sep + item
        sep = "," + inner
    yield "[]" if sep[0] == "[" else pad + "]"


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
    ig = build(parse_spec(args.spec).realize(), args.vertex_cap)
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
    ig = build(parse_spec(args.spec).realize(), args.vertex_cap)
    renderers = {"dot": render_dot, "csv": render_csv, "json": render_json}
    _write_out(renderers[args.format](ig), args.out)
    return EXIT_OK


# --- verify -----------------------------------------------------------------

def _result_json(r: VerificationResult, pad: str) -> Iterator[str]:
    """One result of verify's JSON report, ``r.to_dict()`` with its keys
    sorted, closing at indent ``pad``: a chunk per counterexample and per skip."""
    key, item = pad + "  ", pad + "    "
    field = item + "  "
    yield f'{{{key}"counterexamples": '
    yield from _json_array_chunks(
        (f'{{{field}"expected": {json.dumps(e)},{field}"group": {json.dumps(g)},'
         f'{field}"observed": {json.dumps(o)}{item}}}' for g, e, o in r.counterexamples),
        key,
    )
    yield (f',{key}"domain": {json.dumps(r.domain)},'
           f'{key}"elapsed_s": {json.dumps(round(r.elapsed, 6))},'
           f'{key}"groups_tested": {r.groups_tested},{key}"notes": {json.dumps(r.notes)},'
           f'{key}"passed": {json.dumps(r.passed)},{key}"skipped": ')
    yield from _json_array_chunks(map(json.dumps, r.skipped), key)
    yield f',{key}"theorem_id": {json.dumps(r.theorem_id)}{pad}}}'


def _verify_json(head: dict, results: list[VerificationResult]) -> Iterator[str]:
    """verify's JSON report: the fields of ``head`` and ``"results"``, rendered
    in chunks of at most one counterexample or skip, so that the whole report
    is never held as text."""
    pad, item = "\n  ", "\n    "
    fields = {k: f"{pad}{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(head.items())}
    yield "{" + "".join(f + "," for k, f in fields.items() if k < "results") + f'{pad}"results": '
    sep = "["
    for r in results:
        yield sep + item
        yield from _result_json(r, item)
        sep = ","
    yield "[]" if sep == "[" else pad + "]"
    yield "".join("," + f for k, f in fields.items() if k > "results") + "\n}\n"


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
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        head = {"version": __version__, "seed": args.seed, "max_order": args.max_order,
                "max_n": args.max_n, "all_passed": all_passed}
        _write_out(_verify_json(head, results), args.out)
    else:
        lines = []
        for r in results:
            status = "FAIL" if not r.passed else "PASS" if r.groups_tested else "UNTESTED"
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
    if not all_passed:
        return EXIT_THEOREM_FAILURE
    return EXIT_OK


# --- catalog ----------------------------------------------------------------

def cmd_catalog(args) -> int:
    """One line per catalog group; a group over the vertex cap gets the skip
    message ``verify`` records in place of its vertex count.  The count is
    read off the group's cyclic subgroups counted by order: no graph is built."""
    lines = []
    cap = args.vertex_cap
    for spec in default_catalog(args.max_order):
        group = spec.realize()
        n = vertex_count(group)
        size = f"vertices={n}" if n <= cap else vertex_cap_message(group.descriptor, n, cap)
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
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CycgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
