import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from math import gcd
from pathlib import Path

import jsonschema
import pytest

import cycgraph
from cycgraph.cli import (
    EXIT_OK,
    EXIT_SKIP_ONLY,
    EXIT_THEOREM_FAILURE,
    EXIT_USAGE,
    build_parser,
    main,
)
from cycgraph.cli import render_json
from cycgraph.graphs import bits, build
from cycgraph.groups import ORDER_CAP, dicyclic, write_cayley_file
from cycgraph.invariants import DEFAULT_NODE_BUDGET, compute_report
from cycgraph.specs import GroupSpec, parse_spec
from cycgraph.theorems import default_catalog

GOLDEN_Q8_DOT = """\
graph "Dic(2)" {
  0 [label="⟨2⟩ ord=2"];
  1 [label="⟨1⟩ ord=4"];
  2 [label="⟨4⟩ ord=4"];
  3 [label="⟨5⟩ ord=4"];
  0 -- 1;
  0 -- 2;
  0 -- 3;
  1 -- 2;
  1 -- 3;
  2 -- 3;
}
"""


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def vertex_records(ig):
    return [{"generator": v.generator, "order": v.order, "elements": list(v.elements)}
            for v in ig.vertices]


def dumped(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def export_oracle(ig):
    """export's JSON as a payload of records passed through json.dumps."""
    g = ig.graph
    edges = [[u, v] for u in range(g.n) for v in bits(g.adj[u]) if u < v]
    return dumped({"descriptor": ig.source_descriptor, "vertices": vertex_records(ig),
                   "edges": edges})


def analyze_oracle(ig, node_budget):
    report = compute_report(ig.graph, node_budget).to_dict()
    return dumped({"group": ig.source_descriptor, "report": report,
                   "vertices": vertex_records(ig)})


def without_timings(text):
    """A JSON verify report with each result's elapsed_s removed."""
    payload = json.loads(text)
    for r in payload["results"]:
        r.pop("elapsed_s")
    return payload


class TestAnalyze:
    def test_q8_text(self, capsys):
        rc, out = run(capsys, "analyze", "Q(8)")
        assert rc == EXIT_OK
        assert "group: Dic(2)" in out
        assert "is_complete: True" in out
        assert "girth: 3" in out
        assert "independence_number: 1" in out

    def test_z4_x_z2_text(self, capsys):
        rc, out = run(capsys, "analyze", "Z(4)xZ(2)")
        assert rc == EXIT_OK
        assert "vertex_count: 5" in out
        assert "independence_number: 3" in out

    def test_z2_undefined_fields(self, capsys):
        rc, out = run(capsys, "analyze", "Z(2)")
        assert rc == EXIT_OK
        assert "vertex_count: 0" in out
        assert "is_regular: undefined" in out
        assert "domination_number: undefined" in out
        assert "girth: inf" in out

    def test_json(self, capsys):
        rc, out = run(capsys, "analyze", "Q(8)", "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["group"] == "Dic(2)"
        assert payload["report"]["independence_number"] == 1
        assert len(payload["vertices"]) == 4

    def test_gamma_hard_group_is_decided(self, capsys):
        rc, out = run(
            capsys, "analyze", "Z(12)xZ(2)xZ(2)xZ(2)xZ(2)", "--format", "json",
            "--node-budget", "20000",
        )
        assert rc == EXIT_OK
        report = json.loads(out)["report"]
        assert report["domination_number"] == 31
        assert "domination_number" not in report["notes"]

    def test_bad_spec(self, capsys):
        rc, _ = run(capsys, "analyze", "W(3)")
        assert rc == EXIT_USAGE

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        rc, out = run(capsys, "analyze", "Z(12)", "--format", "json", "--out", str(path))
        assert rc == EXIT_OK and out == ""
        assert json.loads(path.read_text())["group"] == "Z(12)"


class TestExport:
    def test_q8_dot_golden(self, capsys):
        rc, out = run(capsys, "export", "Q(8)", "--format", "dot")
        assert rc == EXIT_OK
        assert out == GOLDEN_Q8_DOT

    def test_out_file_is_utf8_under_an_ascii_locale(self, tmp_path):
        # the DOT labels hold ⟨ ⟩, which the C locale's default encoding cannot write
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        src = str(Path(cycgraph.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = tmp_path / "q8.dot"
        proc = subprocess.run(
            [sys.executable, "-m", "cycgraph.cli", "export", "Q(8)", "--format", "dot",
             "--out", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert path.read_text(encoding="utf-8") == GOLDEN_Q8_DOT

    def test_stdout_is_utf8_under_an_ascii_locale(self, tmp_path):
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        src = str(Path(cycgraph.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = tmp_path / "q8.dot"
        argv = [sys.executable, "-m", "cycgraph.cli", "export", "Q(8)", "--format", "dot"]
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert subprocess.run([*argv, "--out", str(path)], env=env, timeout=120).returncode == EXIT_OK
        assert proc.stdout == path.read_bytes() == GOLDEN_Q8_DOT.encode("utf-8")

    def test_stdout_without_a_byte_buffer_takes_text(self):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert main(["export", "Q(8)", "--format", "dot"]) == EXIT_OK
        assert buf.getvalue() == GOLDEN_Q8_DOT

    def test_dot_graph_name_escapes_quotes(self, tmp_path, capsys):
        for folder, name in [
            ('q"d', "q8.txt"),
            ("b\\", "q8.txt"),
            ("b\\", 'q8"\\'),  # the descriptor ends in a backslash
        ]:
            (tmp_path / folder).mkdir(exist_ok=True)
            path = str(tmp_path / folder / name)
            write_cayley_file(dicyclic(2), path)
            rc, out = run(capsys, "export", f"file:cayley:{path}", "--format", "dot")
            assert rc == EXIT_OK
            header, *body = out.splitlines(keepends=True)
            # one DOT quoted ID: no quote or backslash inside it except as \" or \\
            m = re.fullmatch(r'graph "((?:[^"\\]|\\["\\])*)" \{\n', header)
            assert m and re.sub(r"\\(.)", r"\1", m.group(1)) == f"cayley-file:{path}"
            assert "".join(body) == GOLDEN_Q8_DOT.split("\n", 1)[1]

    def test_byte_stable(self, capsys):
        outs = set()
        for _ in range(3):
            for fmt in ("dot", "csv", "json"):
                outs.add(run(capsys, "export", "Z(36)", "--format", fmt))
        assert len(outs) == 3

    @pytest.mark.parametrize("spec, sha256", [
        ("D(6)", "484138464fb36d02ccf445a52eb123ff93a034761b9951fcf90ce0a884e35767"),
        ("D(12)", "a29657535ac0868d6f75d469c40ea81ce31111db8055cb4123e28d3d8044c4a2"),
        ("Dic(6)", "3f2e24263c958f5225a7bb69efce659fd2dd8fac802c05bdcd4813fb4672c5c6"),
        ("Z(60)", "e939ae193342ba6ad55583765e881cc8c9f00a9bc84b1e323fc68e8be001a2f0"),
    ])
    def test_family_json_golden(self, capsys, spec, sha256):
        # hashes of the output of the element power walk: the family closed forms
        # must give the same vertex order, generators and edges byte for byte
        rc, out = run(capsys, "export", spec, "--format", "json")
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_empty_graph(self, capsys):
        rc, out = run(capsys, "export", "Z(2)", "--format", "dot")
        assert rc == EXIT_OK
        assert out == 'graph "Z(2)" {\n}\n'

    def test_z30_csv_matches_gcd_oracle(self, capsys):
        rc, out = run(capsys, "export", "Z(30)", "--format", "csv")
        assert rc == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "u,v"
        rc, jout = run(capsys, "export", "Z(30)", "--format", "json")
        orders = [v["order"] for v in json.loads(jout)["vertices"]]
        for line in lines[1:]:
            u, v = map(int, line.split(","))
            assert gcd(orders[u], orders[v]) > 1

    def test_json_shape(self, capsys):
        rc, out = run(capsys, "export", "Z(4)xZ(2)", "--format", "json")
        payload = json.loads(out)
        assert payload["descriptor"] == "Z(4)xZ(2)"
        assert len(payload["vertices"]) == 5
        assert all(len(e) == 2 for e in payload["edges"])

    def test_cayley_file_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "q8.txt")
        write_cayley_file(dicyclic(2), path)
        rc, out = run(capsys, "export", f"file:cayley:{path}", "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert len(payload["vertices"]) == 4 and len(payload["edges"]) == 6

    def test_missing_file(self, capsys):
        rc, _ = run(capsys, "export", "file:cayley:/no/such/file.txt")
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("cayley", "2\n0 x\n1 0\n"),       # non-integer table entry
            ("perm", "three\n(0 1)\n"),          # non-integer degree header
            ("perm", "3\n(0 a)\n"),              # non-integer point in cycle notation
            ("perm", "-3\n()\n"),                # negative degree
            ("perm", "-3\n"),
            ("cayley", "\udcff\udcfe\n0 1\n1 0\n"),   # bytes 0xff 0xfe: not UTF-8
            ("cayley", "2\n0 1\n1 \udcff\n"),
            ("perm", "\udcff\udcfe\n0 1\n1 0\n"),
            ("perm", "2\n0 1\n1 \udcff\n"),
        ],
    )
    def test_malformed_file_is_usage_error(self, tmp_path, capsys, kind, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, errors="surrogateescape")
        rc = main(["export", f"file:{kind}:{path}"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("Z(^3)", "cannot parse group atom 'Z(^3)'"),
            ("Z(2^^3)", "cannot parse group atom 'Z(2^^3)'"),
            ("Z(2^3^2)", "cannot parse group atom 'Z(2^3^2)'"),
            ("Z(2^)", "cannot parse group atom 'Z(2^)'"),
            ("Q(^4)", "cannot parse group atom 'Q(^4)'"),
            ("Z(10^5000)", "Z(10^5000): argument exceeds order cap"),
            ("Z(2)xD(10^4400)", "D(10^4400): argument exceeds order cap"),
            ("Z(2^99999999)", "Z(2^99999999): argument exceeds order cap"),
            ("S(9)", "S(9): order exceeds cap"),
            ("Z(2)xA(8)", "A(8): order exceeds cap"),
            ("D(10001)", "D(10001): order exceeds cap"),
            pytest.param("Z(" + "7" * 5000 + ")", "7777777): argument exceeds order cap",
                         id="5000-digit-literal"),
            pytest.param("Z(" + "a" * 5000 + ")", "aaaaaaa)'", id="5000-char-unparseable"),
        ],
    )
    def test_bad_spec_argument_is_usage_error(self, capsys, spec, message):
        # refused while parsing: no power is computed and no long number converted
        rc = main(["export", spec])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        # a long atom is echoed as a bounded head...tail
        assert all(len(line) <= 200 for line in err.splitlines())


class TestJsonBytes:
    """export and analyze render their JSON directly; the bytes must be those
    of the payload of records dumped with indent=2 and sorted keys."""

    def test_export_every_catalog_group(self):
        for spec in default_catalog(120):
            ig = build(spec.realize())
            assert render_json(ig) == export_oracle(ig), spec.descriptor

    def test_analyze_catalog_subset(self, capsys):
        specs = list(default_catalog(120))[::9] + [parse_spec("Q(8)"), parse_spec("S(4)")]
        for spec in specs:
            rc, out = run(capsys, "analyze", spec.descriptor, "--format", "json",
                          "--node-budget", "2000")
            assert rc == EXIT_OK
            assert out == analyze_oracle(build(spec.realize()), 2000), spec.descriptor

    @pytest.mark.parametrize("spec, n, edges", [("Z(2)", 0, 0), ("Z(6)", 2, 0), ("Q(8)", 4, 6)])
    def test_small_graphs(self, capsys, spec, n, edges):
        ig = build(parse_spec(spec).realize())
        assert (ig.n, ig.graph.edge_count()) == (n, edges)
        rc, out = run(capsys, "export", spec, "--format", "json")
        assert rc == EXIT_OK and out == export_oracle(ig)
        rc, out = run(capsys, "analyze", spec, "--format", "json")
        assert rc == EXIT_OK and out == analyze_oracle(ig, DEFAULT_NODE_BUDGET)

    def test_descriptor_escaping(self, tmp_path, capsys):
        # a file table's descriptor holds its path: quote, backslash and a
        # non-ASCII character must be escaped as json.dumps escapes them
        folder = tmp_path / 'q"\\é'
        folder.mkdir()
        path = str(folder / "q8.txt")
        write_cayley_file(dicyclic(2), path)
        spec = f"file:cayley:{path}"
        ig = build(parse_spec(spec).realize())
        assert '"' in ig.source_descriptor and "\\" in ig.source_descriptor
        rc, out = run(capsys, "export", spec, "--format", "json")
        assert rc == EXIT_OK and out == export_oracle(ig)
        assert out.isascii() and json.loads(out)["descriptor"] == ig.source_descriptor
        rc, out = run(capsys, "analyze", spec, "--format", "json")
        assert rc == EXIT_OK and out == analyze_oracle(ig, DEFAULT_NODE_BUDGET)


class TestVerify:
    def test_passing_subset(self, capsys):
        rc, out = run(capsys, "verify", "thm15-complete", "--max-order", "30")
        assert rc == EXIT_OK
        assert out.startswith("PASS thm15-complete")

    def test_failing_subset(self, capsys):
        rc, out = run(capsys, "verify", "t24-regular-zn", "--max-n", "100")
        assert rc == EXIT_THEOREM_FAILURE
        assert out.startswith("FAIL t24-regular-zn")
        assert "counterexample Z(6)" in out

    def test_unknown_id(self, capsys):
        rc, _ = run(capsys, "verify", "bogus-id")
        assert rc == EXIT_USAGE

    def test_skip_only(self, capsys):
        # n <= 3 leaves no nonempty Z_n graph to test, so nothing is verified
        rc, _ = run(capsys, "verify", "t24-regular-zn", "--max-n", "3")
        assert rc == EXIT_SKIP_ONLY

    def test_iso_invariance_records_vertex_cap_skips(self, capsys):
        argv = ["--max-order", "20", "--vertex-cap", "3", "--format", "json"]
        rc, out = run(capsys, "verify", "thm13-iso-invariance", *argv)
        assert rc == EXIT_OK
        iso = json.loads(out)["results"][0]
        _, out = run(capsys, "verify", "cor-c1-girth", *argv)
        girth = json.loads(out)["results"][0]
        assert iso["groups_tested"] > 0 and len(iso["skipped"]) == 27
        assert iso["skipped"] == girth["skipped"]
        assert iso["skipped"][0].startswith("D(3): ")
        assert iso["skipped"][0] == "D(3): 4 vertices exceeds cap 3"

    def test_json_matches_schema(self, capsys):
        rc, out = run(
            capsys, "verify", "thm15-complete", "cor-c1-girth",
            "--max-order", "30", "--format", "json",
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        schema = json.loads(
            resources.files("cycgraph.schemas")
            .joinpath("verify_report.schema.json")
            .read_text()
        )
        jsonschema.validate(payload, schema)
        assert payload["all_passed"] is True
        assert [r["theorem_id"] for r in payload["results"]] == [
            "thm15-complete", "cor-c1-girth",
        ]

    def test_repeated_id_gets_its_own_result(self, capsys):
        # both share one pass over the catalog, yet each gets its own result
        rc, out = run(capsys, "verify", "thm15-complete", "thm15-complete",
                      "--max-order", "30", "--format", "json")
        assert rc == EXIT_OK
        first, again = without_timings(out)["results"]
        assert first["theorem_id"] == "thm15-complete" and first["groups_tested"] > 0
        assert first == again

    def test_json_deterministic(self, capsys):
        _, a = run(capsys, "verify", "thm345-star-path-cycle",
                   "--max-order", "40", "--format", "json", "--seed", "3")
        _, b = run(capsys, "verify", "thm345-star-path-cycle",
                   "--max-order", "40", "--format", "json", "--seed", "3")
        assert without_timings(a) == without_timings(b)

    def test_warm_caches_change_no_output(self, capsys):
        # arith's caches outlive a call: the second in-process run starts warm,
        # a fresh interpreter starts cold, and all three reports agree
        argv = ["verify", "all", "--max-order", "60", "--format", "json"]
        first, second = run(capsys, *argv), run(capsys, *argv)
        env = dict(os.environ)
        src = str(Path(cycgraph.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        fresh = subprocess.run([sys.executable, "-m", "cycgraph.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert first[0] == second[0] == fresh.returncode == EXIT_THEOREM_FAILURE
        assert without_timings(first[1]) == without_timings(second[1])
        assert without_timings(first[1]) == without_timings(fresh.stdout)


def fresh_calls(module: str, calls: list[str], after: str = "") -> list[str]:
    """In one fresh interpreter, import cycgraph.cli and make each CLI call in
    turn; the output has one line per step, the exit code (0 for the import)
    and whether ``module`` is loaded, then whatever the ``after`` code prints."""
    script = f"""
import contextlib, io, sys
import cycgraph.cli as cli
print(0, {module!r} in sys.modules)
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv.split(" "))
    print(rc, {module!r} in sys.modules)
{after}
"""
    env = dict(os.environ)
    src = str(Path(cycgraph.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *calls],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")


class TestStartup:
    def test_numpy_is_imported_only_for_a_cayley_table(self, tmp_path):
        # one fresh interpreter: the import and every built-in call leave numpy
        # unloaded (the verify call relabels groups); the first table read loads it
        path = tmp_path / "dic3.txt"
        write_cayley_file(dicyclic(3), str(path))
        calls = ["verify thm13-iso-invariance --max-order 30", "analyze S(4)",
                 "export Z(4)xZ(2)", "catalog --max-order 30", f"export file:cayley:{path}"]
        assert fresh_calls("numpy", calls) == [
            "0 False", "0 False", "0 False", "0 False", "0 False", "0 True", ""]

    def test_networkx_is_imported_only_for_graph_isomorphic(self):
        # one fresh interpreter: planarity is decided in-house, so the import
        # and every built-in call (thm16 and analyze both decide planarity)
        # leave networkx unloaded; graph_isomorphic then loads it
        calls = ["verify thm16-planarity --max-order 60", "analyze S(5)", "analyze Z(30)",
                 "export Z(4)xZ(2)", "catalog --max-order 30"]
        after = """
from cycgraph.graphs import Graph
from cycgraph.invariants import graph_isomorphic
path, star = Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 1), (0, 2), (0, 3)])
print(graph_isomorphic(path, Graph(4, [(2, 0), (0, 3), (3, 1)])),
      graph_isomorphic(path, star), "networkx" in sys.modules)
"""
        assert fresh_calls("networkx", calls, after) == [
            "0 False", "0 False", "0 False", "0 False", "0 False", "0 False",
            "True False True", ""]


class TestCatalog:
    def test_listing(self, capsys):
        rc, out = run(capsys, "catalog", "--max-order", "60")
        assert rc == EXIT_OK
        lines = out.strip().splitlines()
        assert any(line.startswith("Dic(2)\torder=8") for line in lines)
        assert any(line.startswith("A(5)\torder=60") and "vertices=31" in line for line in lines)

    def test_vertex_cap_skips_are_listed(self, capsys):
        # every group still gets its line; one over the cap carries the skip
        # message verify records for it, in place of its vertex count
        rc, out = run(capsys, "catalog", "--max-order", "20", "--vertex-cap", "3")
        assert rc == EXIT_OK
        capped = out.splitlines()
        _, out = run(capsys, "catalog", "--max-order", "20")
        full = out.splitlines()
        assert len(capped) == len(full) == len(default_catalog(20))
        assert "D(3)\torder=6\tfamily=dihedral\tD(3): 4 vertices exceeds cap 3" in capped
        skips = [line.split("\t")[3] for line in capped if "vertices=" not in line]
        _, out = run(capsys, "verify", "cor-c1-girth", "--max-order", "20", "--vertex-cap", "3",
                     "--format", "json")
        assert skips == json.loads(out)["results"][0]["skipped"]
        for c, f in zip(capped, full):
            n = int(f.rsplit("vertices=", 1)[1])
            assert c == f if n <= 3 else c.split("\t")[:3] == f.split("\t")[:3]


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "Z(4)", "--format", "yaml"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [("--node-budget", "-1"), ("--vertex-cap", "0")])
    def test_budget_and_cap_below_one(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "Z(12)xZ(2)", flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert f"error: argument {flag}: must be >= 1, got {value}" in err

    @pytest.mark.parametrize("command", ["verify thm15-complete", "catalog"])
    def test_max_order_below_two(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--max-order", "1"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert "error: argument --max-order: must be >= 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify cor-c1-girth", "catalog"])
    def test_max_order_above_the_order_cap_realizes_nothing(self, capsys, monkeypatch, command):
        def no_realize(spec):
            raise AssertionError(f"realized {spec.descriptor}")

        monkeypatch.setattr(GroupSpec, "realize", no_realize)
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--max-order", str(ORDER_CAP + 1)])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and captured.out == ""
        assert (f"error: argument --max-order: must be <= the order cap {ORDER_CAP}, "
                f"got {ORDER_CAP + 1}") in captured.err

    @pytest.mark.parametrize("command", ["verify all", "catalog"])
    def test_max_order_at_the_order_cap_parses(self, command):
        args = build_parser().parse_args([*command.split(), "--max-order", str(ORDER_CAP)])
        assert args.max_order == ORDER_CAP == 20000

    @pytest.mark.parametrize("value", ["1", "-5"])
    def test_max_n_below_two(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "t24-regular-zn", "--max-n", value])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert f"error: argument --max-n: must be >= 2, got {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["export Z(12)", "catalog --max-order 30"])
    def test_node_budget_only_where_a_search_reads_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--node-budget", "5"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --node-budget 5" in capsys.readouterr().err


class TestFrozenImports:
    def test_main_calls_freeze_nothing(self, capsys):
        """The objects the imports made are frozen once, at import; the objects a
        ``main`` call leaves behind are not frozen after it."""
        before = gc.get_freeze_count()
        assert before > 0
        assert run(capsys, "analyze", "Z(12)")[0] == EXIT_OK
        assert run(capsys, "verify", "t24-degree-formula-zn", "--max-n", "30")[0] == EXIT_OK
        assert gc.get_freeze_count() == before
