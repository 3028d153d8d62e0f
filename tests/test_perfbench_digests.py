"""The benchmark's first seed-1 outputs still match its recorded digests.

perfbench/run.py compares every output of a 36 s run with
perfbench/digests.json and only prints how many differ; this test reruns
the first items of each workload's seed-1 stream, in stream order after
the warm-up, and compares their outcome hashes.  Both files are read,
never written.
"""

import hashlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ITEMS = 120


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_seed1_outputs_match_recorded_digests(name):
    workload = WORKLOADS[name]
    workload.warm_up()
    items = itertools.islice(
        itertools.chain.from_iterable(workload.cycles(1)), ITEMS
    )
    got = [
        hashlib.sha256(item.outcome(item.run()).encode()).hexdigest()[:16]
        for item in items
    ]
    assert got == RECORDED[name]["1"][:ITEMS]
