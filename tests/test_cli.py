import json
from importlib import resources
from math import gcd

import jsonschema
import pytest

from cycgraph.cli import (
    EXIT_OK,
    EXIT_SKIP_ONLY,
    EXIT_THEOREM_FAILURE,
    EXIT_USAGE,
    main,
)
from cycgraph.groups import dicyclic, write_cayley_file

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

    def test_byte_stable(self, capsys):
        outs = set()
        for _ in range(3):
            for fmt in ("dot", "csv", "json"):
                outs.add(run(capsys, "export", "Z(36)", "--format", fmt))
        assert len(outs) == 3

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
        ],
    )
    def test_malformed_file_is_usage_error(self, tmp_path, capsys, kind, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        rc = main(["export", f"file:{kind}:{path}"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err


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

    def test_json_deterministic(self, capsys):
        def strip(text):
            payload = json.loads(text)
            for r in payload["results"]:
                r.pop("elapsed_s")
            return payload

        _, a = run(capsys, "verify", "thm345-star-path-cycle",
                   "--max-order", "40", "--format", "json", "--seed", "3")
        _, b = run(capsys, "verify", "thm345-star-path-cycle",
                   "--max-order", "40", "--format", "json", "--seed", "3")
        assert strip(a) == strip(b)


class TestCatalog:
    def test_listing(self, capsys):
        rc, out = run(capsys, "catalog", "--max-order", "60")
        assert rc == EXIT_OK
        lines = out.strip().splitlines()
        assert any(line.startswith("Dic(2)\torder=8") for line in lines)
        assert any(line.startswith("A(5)\torder=60") and "vertices=31" in line for line in lines)


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
