"""The in-process A/B harness, scripts/ab_inprocess.py: run A/A on a slice,
the working tree's package standing in for the exported revision, so no git
call is made; and its operations pinned to the benchmark worker's, which
must give the same answers on the same slice."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _module(name: str, path: Path):
    # Registered, as its dataclasses need; the worker puts its own directory
    # on sys.path to import its tracer, which is undone here.
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    path_before = sys.path[:]
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path_before
    return module


@pytest.fixture(scope="module")
def harness():
    return _module("ab_inprocess", ROOT / "scripts" / "ab_inprocess.py")


def test_a_slice_a_over_a(harness, capsys):
    out = harness.ab(ROOT / "src" / "tagsub", limit=3)
    # Two modes per query; per arity, two modes of t <: t and of a false query.
    assert {w: r["ops"] for w, r in out.items()} == {"queries": 6, "arity": 12}
    for r in out.values():
        for line in ("change/parent", "A/A"):
            assert list(r[line]) == ["mean", "p50", "p99", "p99.9"]
            assert all(math.isfinite(v) and v > 0 for v in r[line].values())
    harness.report(out)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[::3]] == ["queries", "arity"]
    assert all(line.split()[0] in ("change/parent", "A/A") for line in lines[1::3] + lines[2::3])


@pytest.mark.parametrize("workload", ["queries", "arity"])
def test_the_operations_answer_as_the_worker(harness, workload):
    # The same slice, run once by the worker's task and once by the
    # harness's operations over the working tree's package.
    worker = _module("perfbench_worker", ROOT / "perfbench" / "worker.py")
    inp = harness.sliced(workload, harness.inputs_module().generate(workload, 1), 40)
    want = worker.TASKS[workload]({"inputs": inp, "trace": 0, "seconds": 0})["answers"]
    lib = harness.load("tagsub_pinned", ROOT / "src" / "tagsub")
    ops = {"queries": harness.queries_ops, "arity": harness.arity_ops}[workload](lib, inp)
    assert [op() for op in ops] == want
    assert "1" in want and "0" in want
