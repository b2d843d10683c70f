"""The benchmark's correctness gates, run once in process on real output.

``perfbench/workloads.py`` checks each workload's output against the frozen
values in ``perfbench/expected``; a benchmark run is the only other place
these gates run.  One pass of each workload here makes a change to those
outputs fail the test suite too.  ``verify-sweep`` runs each verifier alone
through the CLI, with ``--seed``, and checks its exit code; the one in-process
``verify all`` pass of ``test_theorems.test_verify_all_matches_frozen_sweep_report``
runs every verifier in one pass over each source instead.
"""

import importlib.util
from pathlib import Path

import pytest

import cycgraph.cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


W = _load_workloads()


@pytest.mark.parametrize(
    "name", ["verify-sweep", "catalog-build", "analyze-worst", "ingest-export"]
)
def test_one_pass_meets_the_frozen_outputs(name, tmp_path):
    workload = W.WORKLOADS[name]
    inputs = workload.setup(1, tmp_path)
    res = workload.run_pass(cycgraph.cli, inputs)   # a wrong output raises W.Wrong
    assert res.attempted > 0
    assert res.failed == 0
