"""The benchmark's first outputs still match its recorded digests.

perfbench/run.py compares every output of a 36 s run with
perfbench/digests.json and only prints how many differ; these tests
rerun the first items of each workload's seed-1 stream and of its
held-out seed-2 stream, in stream order after the warm-up, and compare
their outcome hashes.  Both files are read, never written.
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


def _first_outputs_match(name, seed):
    workload = WORKLOADS[name]
    workload.warm_up()
    items = itertools.islice(
        itertools.chain.from_iterable(workload.cycles(seed)), ITEMS
    )
    got = [
        hashlib.sha256(item.outcome(item.run()).encode()).hexdigest()[:16]
        for item in items
    ]
    assert got == RECORDED[name][str(seed)][:ITEMS]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_seed1_outputs_match_recorded_digests(name):
    _first_outputs_match(name, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_seed2_outputs_match_recorded_digests(name):
    _first_outputs_match(name, 2)
