"""Self-tests of the benchmark (not of the library).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

They run every workload in a shortened form, show that a wrong answer is
counted as failed, that the arity budget stops the open sweep, and that the
benchmark refuses to run without the library sources.  About a minute on
two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs as gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def test_inputs_are_deterministic_and_pinned():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        committed = json.load(f)
    for name in gen.GENERATORS:
        first = gen.generate(name, reference.DEFAULT_SEED)
        assert gen.digest(first) == gen.digest(gen.generate(name, reference.DEFAULT_SEED))
        assert gen.digest(first) == committed["inputs"][name]
        if name != "arity":  # arity inputs are fixed by design
            assert gen.digest(first) != gen.digest(gen.generate(name, 2))


def test_reference_answers_are_pinned():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        assert reference.expected_digests() == json.load(f)


def test_every_dispatch_stream_has_every_outcome():
    n = gen.DISPATCH_STREAM
    mixes = []
    for seed in (1, 2, 3):
        outcomes = reference.dispatch(gen.generate("dispatch", seed))
        streams = [outcomes[start:start + n] for start in range(0, len(outcomes), n)]
        for stream in streams:  # one stream in one mode
            assert {o[0] for o in stream} == {"S", "N", "A"}
        mixes.append([sorted(o[0] for o in stream) for stream in streams])
    # A seed relabels the same tables, so the outcome mix does not change.
    assert mixes[0] == mixes[1] == mixes[2]


def test_scaling_keeps_ratios():
    meter = worker.Meter()
    meter.probes = [2 * worker.REF_PROBE_S] * 3
    meter.seconds, meter.after = [0.01, 0.03, 0.02], [0, 1, 2]
    assert meter.scaled() == pytest.approx([0.005, 0.015, 0.01])
    meter.probes[2:] = [4 * worker.REF_PROBE_S]  # the host slows down
    assert meter.scaled()[2] < 0.01


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_shortened_workload(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _queries_slice(n=40):
    inp = gen.generate("queries", 5)
    inp["queries"] = inp["queries"][:n]
    return inp


def test_mislabelled_verdict_is_counted():
    inp = _queries_slice()
    expected = reference.queries(inp)
    task = {"task": "queries", "inputs": inp, "trace": False}
    result = run._worker(task)
    assert run.count_failures(result, expected) == (len(expected), 0)
    flipped = ("0" if expected[7] == "1" else "1").join([expected[:7], expected[8:]])
    assert run.count_failures(result, flipped) == (len(expected), 1)


def test_mislabelled_dispatch_outcome_is_counted():
    inp = gen.generate("dispatch", 5)
    inp["tables"] = inp["tables"][:1]
    inp["tables"][0]["stream"] = inp["tables"][0]["stream"][:6]
    expected = reference.dispatch(inp)
    result = run._worker({"task": "dispatch", "inputs": inp, "seconds": 0, "trace": False})
    assert run.count_failures(result, expected) == (12, 0)
    wrong = list(expected)
    wrong[2] = "N" if wrong[2] != "N" else "S:m0"
    assert run.count_failures(result, wrong) == (12, 1)


def test_arity_budget_stops_the_open_sweep():
    inp = gen.generate("arity", 1)
    inp["fixed"] = [2, 3]
    task = {"task": "arity", "inputs": inp, "seconds": 0, "trace": False}
    stopped = run._worker(dict(task, budget_s=1e-6))
    assert stopped["max_arity"] == 3 and len(stopped["open"]) == 1
    inp["rows"] = [r for r in inp["rows"] if r[0] <= 6]
    capped = run._worker(dict(task, budget_s=30.0))
    assert capped["max_arity"] == 6 and len(capped["open"]) == 3 * 4
    assert run.count_failures(capped, ["1", "0"] * 4) == (8 + 12, 0)


def test_refuses_to_run_without_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
