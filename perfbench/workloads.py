"""The four benchmark workloads: inputs, one pass, and the correctness gate.

Each workload calls the in-process ``cycgraph`` CLI (``cli.main``) with its
standard output captured, then checks every output against the frozen
expected values in ``perfbench/expected``.  A mismatch raises ``Wrong``; an
error or an exact-or-skip solver that skipped counts as a failed item.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"


class Wrong(Exception):
    """An output differs from its frozen expected value."""


#: iterations of the reference loop, and its time in seconds on the host at its
#: fastest (2-core sandbox, Python 3.11): timings are reported at that speed
REF_LOOPS = 100_000
REF_S = 0.007


def reference_time() -> float:
    """Seconds the reference loop takes now.  It is fixed integer arithmetic that
    allocates no tracked objects, so it measures the host's current speed and
    nothing of the program (not even the garbage collector's view of its heap)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def call_cli(cli, argv):
    """Run ``cycgraph <argv>`` in process; returns (exit code, stdout, seconds,
    reference seconds), the last the mean of reference loops just before and after."""
    ref0 = reference_time()
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # an error is a failed item, not a crash of the benchmark
        rc = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return rc, buf.getvalue(), dt, (ref0 + reference_time()) / 2


class PassResult:
    """Items done in one pass, their latencies and reference times (seconds) and
    their failure count."""

    def __init__(self):
        self.items = 0
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0


def _load(name):
    return json.loads((EXPECTED / name).read_text())


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --- verify-sweep --------------------------------------------------------------

VERIFY_OPTS = ["--max-order", "100", "--max-n", "2000", "--format", "json"]
VERIFY_ARGV = ["verify", "all", *VERIFY_OPTS]
_RESULT_KEYS = ("theorem_id", "domain", "passed", "counterexamples", "notes")


def verifier_argv(theorem_id, seed):
    return ["verify", theorem_id, *VERIFY_OPTS, "--seed", str(seed)]


def project_verify(report: dict) -> dict:
    """The parts of a verify report that must not change: everything but timings,
    with each result's groups split into tested and skipped counts."""
    return {
        "max_order": report["max_order"],
        "max_n": report["max_n"],
        "all_passed": report["all_passed"],
        "results": [
            {**{k: r[k] for k in _RESULT_KEYS},
             "groups_tested": r["groups_tested"], "skipped": len(r["skipped"])}
            for r in report["results"]
        ],
    }


def check_verifier(expected: dict, index: int, rc, out: str, seed: int) -> tuple[int, int]:
    """Gate for one ``verify <theorem_id>`` call against entry ``index`` of the frozen
    ``verify all`` report; returns (attempted, failed) checks."""
    e = expected["results"][index]
    tid = e["theorem_id"]
    if rc not in (0, 1, 3):
        raise Wrong(f"verify-sweep: {tid} exit code {rc!r}")
    report = json.loads(out)
    if report["seed"] != seed:
        raise Wrong(f"verify-sweep: {tid} report seed {report['seed']} != {seed}")
    got = project_verify(report)
    for k in ("max_order", "max_n"):
        if got[k] != expected[k]:
            raise Wrong(f"verify-sweep: {tid} {k} differs from expected")
    if [r["theorem_id"] for r in got["results"]] != [tid]:
        raise Wrong(f"verify-sweep: {tid} report holds {len(got['results'])} results")
    g = got["results"][0]
    # a skip is a failure, never a wrong answer: only the total must hold
    if g["groups_tested"] + g["skipped"] != e["groups_tested"] + e["skipped"]:
        raise Wrong(f"verify-sweep: {tid} covers a different group count")
    for k in _RESULT_KEYS:
        if g[k] != e[k]:
            raise Wrong(f"verify-sweep: {tid} {k} differs from expected")
    # the known counterexamples exit 1; a verifier that only skipped exits 3
    want = 3 if g["groups_tested"] == 0 else (0 if e["passed"] else 1)
    if rc != want:
        raise Wrong(f"verify-sweep: {tid} exit code {rc!r}, expected {want}")
    return g["groups_tested"] + g["skipped"], g["skipped"]


class VerifySweep:
    name = "verify-sweep"

    def setup(self, seed, workdir):
        expected = _load("verify-sweep.json")
        argvs = [verifier_argv(r["theorem_id"], seed) for r in expected["results"]]
        return {"argvs": argvs, "seed": seed, "expected": expected}

    def run_pass(self, cli, inputs, tracer=None) -> PassResult:
        res = PassResult()
        for i, argv in enumerate(inputs["argvs"]):
            if tracer is not None:
                tracer.item = argv[1]
            rc, out, dt, ref = call_cli(cli, argv)
            attempted, failed = check_verifier(inputs["expected"], i, rc, out, inputs["seed"])
            res.latencies.append(dt)
            res.refs.append(ref)
            res.attempted += attempted
            res.failed += failed
        res.items = len(res.latencies)
        res.wall = sum(res.latencies)
        return res


# --- catalog-build -------------------------------------------------------------

CATALOG_ARGV = ["catalog", "--max-order", "240"]


class CatalogBuild:
    name = "catalog-build"

    def setup(self, seed, workdir):
        return {"expected": (EXPECTED / "catalog-build.txt").read_text()}

    def run_pass(self, cli, inputs, tracer=None) -> PassResult:
        res = PassResult()
        if tracer is not None:
            tracer.item = "catalog"
        rc, out, dt, ref = call_cli(cli, CATALOG_ARGV)
        expected = inputs["expected"]
        res.wall = dt
        res.refs = [ref]
        res.latencies = [dt]  # one command per pass; its groups are not timed one by one
        res.attempted = res.items = expected.count("\n")
        if rc != 0:
            res.failed = res.attempted
        elif out != expected:
            raise Wrong("catalog-build: catalog lines differ from expected")
        return res


# --- analyze-worst -------------------------------------------------------------

ANALYZE_SPECS = (
    # gamma-hard
    "Z(12)xZ(2)xZ(2)xZ(2)xZ(2)",
    "Z(6)xZ(6)xZ(2)xZ(2)",
    "S(5)",
    "Z(6)xZ(6)xZ(3)",
    # theta-heavy
    "D(100)",
    "A(6)",
    "Z(2)xZ(2)xZ(2)xZ(2)xZ(2)xZ(2)xZ(2)",
    # girth-heavy
    "Z(6)xZ(2)xZ(2)xZ(2)xZ(2)xZ(2)",
    "Dic(48)",
)
ANALYZE_BUDGET = "20000"
#: report fields decided by an exact-or-skip solver (None plus a note = skipped)
SKIPPABLE = (
    "independence_number", "clique_cover_number", "domination_number",
    "weakly_alpha_perfect", "is_planar",
)


def analyze_argv(spec):
    return ["analyze", spec, "--format", "json", "--node-budget", ANALYZE_BUDGET]


def project_analyze(payload: dict) -> dict:
    """Report fields that are never skipped, plus a digest of the vertex list."""
    report = payload["report"]
    return {
        "group": payload["group"],
        "report": {k: v for k, v in report.items() if k not in SKIPPABLE and k != "notes"},
        "vertices_sha256": _digest(payload["vertices"]),
    }


def check_analyze(expected: dict, rc, out: str) -> bool:
    """Gate for one analyze call; returns True when the item failed (error or skip).

    ``expected`` holds the projection and ``pinned``: the exact value of each
    skippable field (gamma from the MILP oracle in freeze.py).
    """
    spec = expected["spec"]
    if rc != 0:
        return True
    payload = json.loads(out)
    if project_analyze(payload) != expected["projection"]:
        raise Wrong(f"analyze-worst: {spec} report differs from expected")
    report, skipped = payload["report"], False
    for field in SKIPPABLE:
        value = report[field]
        if value is None:
            # weakly_alpha_perfect is None exactly when alpha or theta was skipped
            derived = field == "weakly_alpha_perfect" and None in (
                report["independence_number"], report["clique_cover_number"])
            if field not in report["notes"] and not derived:
                raise Wrong(f"analyze-worst: {spec} {field} is missing without a skip note")
            skipped = True
        elif value != expected["pinned"][field]:
            raise Wrong(
                f"analyze-worst: {spec} {field}={value}, expected {expected['pinned'][field]}")
    return skipped


class AnalyzeWorst:
    name = "analyze-worst"

    def setup(self, seed, workdir):
        return {"expected": _load("analyze-worst.json")}

    def run_pass(self, cli, inputs, tracer=None) -> PassResult:
        res = PassResult()
        for exp in inputs["expected"]:
            if tracer is not None:
                tracer.item = exp["spec"]
            rc, out, dt, ref = call_cli(cli, analyze_argv(exp["spec"]))
            res.latencies.append(dt)
            res.refs.append(ref)
            res.attempted += 1
            res.failed += check_analyze(exp, rc, out)
        res.items = len(res.latencies)
        res.wall = sum(res.latencies)
        return res


# --- ingest-export -------------------------------------------------------------

def _cyclic_table(n):
    a = np.arange(n)
    return (a[:, None] + a[None, :]) % n


def _product_table(*tables):
    t = np.zeros((1, 1), dtype=np.int64)
    for h in tables:
        g, m = len(t), len(h)
        t = (t[:, None, :, None] * m + h[None, :, None, :]).reshape(g * m, g * m)
    return t


def _dihedral_table(n):
    a = np.arange(2 * n)
    i, s = a % n, a // n
    k = np.where(s[:, None] == 0, i[:, None] + i[None, :], i[:, None] - i[None, :]) % n
    return k + ((s[:, None] + s[None, :]) % 2) * n


def _dicyclic_table(m):
    n2 = 2 * m
    a = np.arange(4 * m)
    i, s = (a % n2)[:, None], (a // n2)[:, None]
    j, t = (a % n2)[None, :], (a // n2)[None, :]
    return np.where(
        s == 0, (i + j) % n2 + t * n2,
        np.where(t == 0, (i - j) % n2 + n2, (i - j + m) % n2),
    )


def _perm_table(n, even_only):
    p = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    if even_only:
        inversions = sum((p[:, i] > p[:, j]).astype(int) for i, j in itertools.combinations(range(n), 2))
        p = p[inversions % 2 == 0]
    weights = n ** np.arange(n)
    index = np.full(n ** n, -1, dtype=np.int64)
    index[p @ weights] = np.arange(len(p))
    return index[p[:, p] @ weights]      # (x*y)(i) = x(y(i))


#: (spec the table must match, base Cayley table) for orders 120..900, on both
#: sides of the 512 associativity cap
INGEST_TABLES = (
    ("S(5)", lambda: _perm_table(5, False)),
    ("Z(6)xZ(6)xZ(6)", lambda: _product_table(*[_cyclic_table(6)] * 3)),
    ("D(150)", lambda: _dihedral_table(150)),
    ("A(6)", lambda: _perm_table(6, True)),
    ("Dic(120)", lambda: _dicyclic_table(120)),
    ("Z(8)xZ(8)xZ(8)", lambda: _product_table(*[_cyclic_table(8)] * 3)),
    ("Z(10)xZ(60)", lambda: _product_table(_cyclic_table(10), _cyclic_table(60))),
    ("S(6)", lambda: _perm_table(6, False)),
    ("D(400)", lambda: _dihedral_table(400)),
    ("Z(30)xZ(30)", lambda: _product_table(_cyclic_table(30), _cyclic_table(30))),
)


def relabeled(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Isomorphic table with elements renamed by a random permutation."""
    perm = rng.permutation(len(table))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def write_table(table: np.ndarray, path: Path) -> None:
    rows = "\n".join(" ".join(map(str, row)) for row in table.tolist())
    path.write_text(f"{len(table)}\n{rows}\n")


def export_summary(out: str) -> dict:
    """Seed-independent summary of an export: sizes and (order, degree) pairs."""
    payload = json.loads(out)
    degree = Counter()
    for u, v in payload["edges"]:
        degree[u] += 1
        degree[v] += 1
    pairs = Counter((v["order"], degree[i]) for i, v in enumerate(payload["vertices"]))
    return {
        "vertices": len(payload["vertices"]),
        "edges": len(payload["edges"]),
        "order_degree_count": sorted([o, d, c] for (o, d), c in pairs.items()),
    }


def export_argv(spec):
    return ["export", spec, "--format", "json"]


class IngestExport:
    name = "ingest-export"

    def setup(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        expected = _load("ingest-export.json")
        items = []
        for (spec, make), exp in zip(INGEST_TABLES, expected):
            if exp["spec"] != spec:
                raise Wrong(f"ingest-export: expected values are for {exp['spec']}, not {spec}")
            path = workdir / f"table_{len(items):02d}.txt"
            write_table(relabeled(make(), rng), path)
            items.append((f"file:cayley:{path}", exp))
        return {"items": items}

    def run_pass(self, cli, inputs, tracer=None) -> PassResult:
        res = PassResult()
        for spec, exp in inputs["items"]:
            if tracer is not None:
                tracer.item = exp["spec"]
            rc, out, dt, ref = call_cli(cli, export_argv(spec))
            res.latencies.append(dt)
            res.refs.append(ref)
            res.attempted += 1
            if rc != 0:
                res.failed += 1
            elif export_summary(out) != exp["summary"]:
                raise Wrong(f"ingest-export: table for {exp['spec']} differs from its constructor")
        res.items = len(res.latencies)
        res.wall = sum(res.latencies)
        return res


WORKLOADS = {w.name: w for w in (VerifySweep(), CatalogBuild(), AnalyzeWorst(), IngestExport())}
