"""Checks of the benchmark's own code; run with

    PYTHONPATH=src python3 -m pytest -q perfbench

The span call counts of the tracer must equal cProfile's ncalls for the
same functions, on one small item per workload, and item code must use
only the public API.
"""

import ast
import cProfile
import pstats
from pathlib import Path

import pytest

import tracer as tracing
import workloads
import wittram

# one cheap item per workload that still crosses most layers
SMALL_ITEMS = {
    "fpu_certify": "conjecture_roundtrip m=2",
    "fp_witt_law": "as_map (3,3)",
    "cli_session": "thm roundtrip",
}


def _first_item(workload, shape):
    for cycle in workload.cycles(seed=5):
        for item in cycle:
            if item.shape == shape:
                return item
    raise AssertionError("unreachable")


def _profiled_calls(run):
    profiler = cProfile.Profile()
    profiler.runcall(run)
    return {
        (path, line, name): stat[1]
        for (path, line, name), stat in pstats.Stats(profiler).stats.items()
    }


@pytest.mark.parametrize("name", sorted(SMALL_ITEMS))
def test_span_calls_match_cprofile(name):
    workload = workloads.WORKLOADS[name]
    workload.warm_up()
    item = _first_item(workload, SMALL_ITEMS[name])
    ncalls = _profiled_calls(item.run)

    tr = tracing.Tracer()
    tr.install()
    try:
        item.run()
    finally:
        tr.uninstall()
    assert not tr.missing

    seen = 0
    for span, (calls, _) in tr.stats.items():
        if span in tracing.TIME_ONLY:
            continue  # a cache hit is not a Python call under cProfile
        want = 0
        for fn in tr.originals[span]:
            code = fn.__code__
            want += ncalls.get(
                (code.co_filename, code.co_firstlineno, code.co_name), 0
            )
        assert calls == want, (span, calls, want)
        seen += calls > 0
    assert seen >= 5


def test_uninstall_restores_every_binding():
    before = (wittram.witt_add, wittram.extension.witt_add,
              wittram.LaurentElem.__mul__, workloads.witt_add)
    tr = tracing.Tracer()
    tr.install()
    assert wittram.extension.witt_add is not before[1]
    assert workloads.witt_add is not before[3]
    tr.uninstall()
    after = (wittram.witt_add, wittram.extension.witt_add,
             wittram.LaurentElem.__mul__, workloads.witt_add)
    assert all(a is b for a, b in zip(before, after))


def test_item_code_uses_only_public_names():
    tree = ast.parse(Path(workloads.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "wittram":
            names = {alias.name for alias in node.names}
            assert names <= set(wittram.__all__), names - set(wittram.__all__)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("wittram."):
            assert node.module == "wittram.cli"
            assert [a.name for a in node.names] == ["run_command"]


def test_removed_internals_are_reported_missing(monkeypatch):
    for name in ("witt_reduce", "sum_polys", "neg_polys"):
        module = wittram.extension if name == "witt_reduce" else wittram.witt
        monkeypatch.delattr(module, name)
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert "wittram.extension.witt_reduce" in tr.missing
    assert "witt.law_build" not in tr.present
    metrics = tr.metrics()
    assert "witt.law_build_s" not in metrics
    assert "extension.reduce.calls" in metrics
