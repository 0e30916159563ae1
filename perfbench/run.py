#!/usr/bin/env python3
"""tagsub benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 30 --trace 0

Inputs are generated from ``--seed`` by ``inputs.py`` and reach the library
only as type, hierarchy and method-file text.  Reference answers are computed
here, before any timed work; every answer the program gives is checked.
Each workload runs in fresh interpreters (``worker.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a report with the seed, input digest, Python version, CPU
count and commit, the workload's own metric names and the per-layer detail.
Exits 2 without a result when the library sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inputs as gen  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = tuple(gen.GENERATORS)
SEGMENT_S = 4.0  # a worker process repeats its batch this long
MIN_SEGMENTS = 4
SETUP_PROBES = 2  # setup processes before each segment
INTERP_PROBES = 5
WORKER_TIMEOUT = 150
ARITY_BUDGET_S = 1.5  # per query; k = 8 takes ~0.7 s and k = 9 ~3.3 s on 2 cores
# The tail is the highest of these percentiles with at least ten operations
# beyond it in one batch.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 60.0, 50.0)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(task: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(task),
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {task['task']} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def percentile(values, p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- workloads ---------------------------------------------------------------


def run_segments(workload, inp, seconds, trace) -> dict:
    """Run the workload as a sequence of fresh worker processes.

    Each segment repeats the workload's batch for SEGMENT_S seconds (a
    ``queries`` segment is one pass, since no query may repeat inside a
    process).  SETUP_PROBES setup probes run before every segment, so the
    setup median and the per-operation medians both draw on the whole run.
    Times are at the reference host speed (see ``worker.Meter``).  With tracing,
    traced and untraced segments alternate; the untraced ones give the
    overhead baseline.
    """
    segments, setup = [], []
    start = perf_counter()
    # Stop before a segment would overrun the run's time.
    while len(segments) < MIN_SEGMENTS or (
        perf_counter() - start
    ) * (len(segments) + 1) / len(segments) <= seconds:
        traced = trace and len(segments) % 2 == 1
        task = {"task": workload, "inputs": inp, "trace": traced,
                "seconds": min(SEGMENT_S, seconds / MIN_SEGMENTS)}
        if workload == "arity" and not segments:
            task["budget_s"] = ARITY_BUDGET_S
        setup += [_worker({"task": "setup", "inputs": inp}) for _ in range(SETUP_PROBES)]
        seg = _worker(task)
        seg["traced"] = traced
        segments.append(seg)
    plain = [s for s in segments if not s["traced"]]
    traced = [s for s in segments if s["traced"]]
    result = {
        "plain": [b for s in plain for b in s["batches"]],
        "plain_raw": [b for s in plain for b in s["raw_batches"]],
        "traced": [b for s in traced for b in s["batches"]],
        "answers": [a for s in segments for a in s["answers"]],
        "errors": [e for s in segments for e in s.get("errors", [])],
        "peak_rss_kb": max(s["peak_rss_kb"] for s in segments),
        "trace": _merge(s["trace"] for s in traced),
        "traced_seconds": sum(s["elapsed"] for s in traced),
        "setup": setup,
    }
    if workload == "arity":
        result["max_arity"] = segments[0]["max_arity"]
        result["open"] = segments[0]["open"]
    return result


def _merge(summaries):
    out = {"spans": {}, "tally": {}, "gc": [0, 0.0]}
    for s in summaries:
        tracer.merge(out, s)
    return out


# -- checking ----------------------------------------------------------------


def count_failures(result, expected) -> tuple[int, int]:
    """(attempted, failed): every batch's answers against the reference."""
    got = result["answers"]
    want = expected * (len(got) // len(expected))
    attempted = len(got)
    failed = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
    for _k, _mode, holds, _seconds, answer in result.get("open", []):
        if answer is not None:  # a query stopped by the budget has no answer
            attempted += 1
            failed += answer != ("1" if holds else "0")
    return attempted, failed


def committed_mismatch(workload, seed, input_digest, expected) -> list[str]:
    """For the default seed, compare inputs and reference answers with the
    digests committed in expected.json."""
    if seed != reference.DEFAULT_SEED:
        return []
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        committed = json.load(f)
    bad = []
    if committed["inputs"][workload] != input_digest:
        bad.append("inputs differ from expected.json")
    if committed["answers"][workload] != reference.answers_digest(expected):
        bad.append("reference answers differ from expected.json")
    return bad


# -- metrics -----------------------------------------------------------------


def median_ops(batches) -> list[float]:
    """Per operation, the median of its repetitions across batches.

    Every batch runs the same operations in the same order, so position i
    is one operation; percentiles are then taken across operations.
    """
    return [statistics.median(col) for col in zip(*(ops for _, ops in batches))]


def tail_percentile(n: int) -> float:
    return next(p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10 or p == 50.0)


def end_to_end(result, scaled=True) -> tuple[dict, dict]:
    """The end-to-end metrics, with times at the reference host speed
    unless ``scaled`` is off (the report carries both)."""
    batches = result["plain" if scaled else "plain_raw"]
    ops = median_ops(batches)
    p = tail_percentile(len(ops))
    setup = result["setup"]
    metrics = {
        "setup_s": (statistics.median(
            (s["import_s"] + s["parse_s"]) * (s["scale"] if scaled else 1.0) for s in setup
        ), "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_p50_us": (percentile(ops, 50) * 1e6, "us"),
        "op_tail_us": (percentile(ops, p) * 1e6, "us"),
        "batch_s": (statistics.median(b[0] for b in batches), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    tail = {"percentile": p, "operations": len(ops), "repetitions": len(batches),
            "setup_probes": len(setup)}
    return metrics, tail


NAMED = {  # the workload's own names for the generic metrics
    "queries": {"queries_per_s": "ops_per_s", "query_p50_us": "op_p50_us",
                "query_tail_us": "op_tail_us", "pass_s": "batch_s"},
    "arity": {"sweep_s": "batch_s", "query_p50_us": "op_p50_us", "query_tail_us": "op_tail_us"},
    "dispatch": {"table_build_s": "batch_s", "resolves_per_s": "ops_per_s",
                 "resolve_p50_us": "op_p50_us", "resolve_tail_us": "op_tail_us"},
}


def _spans(summary, layer, parents=None):
    n = total = self_s = 0
    for key, (calls, seconds, own) in summary["spans"].items():
        name, parent = key.split("@")
        if name == layer and (parents is None or parent in parents):
            n, total, self_s = n + calls, total + seconds, self_s + own
    return n, total, self_s


def _mean_us(summary, layer, parents=None, self_time=False) -> float:
    n, total, own = _spans(summary, layer, parents)
    return ((own if self_time else total) / n * 1e6) if n else 0.0


def _tally(summary, name, how="mean") -> float:
    n, total, most = summary["tally"].get(name, [0, 0, 0])
    if how == "max":
        return float(most)
    if how == "sum":
        return float(total)
    return total / n if n else 0.0


def per_layer(summary, n_batches: int, seconds: float, extras: dict) -> tuple[dict, dict]:
    """Per-layer metrics (every workload) and per-layer detail (report only).

    A layer time is the mean per call.  Times of layers that only some
    workloads call go to the detail, so that no metric reads 0 by design.
    Counts are per batch or per call and repeat exactly for a seed.
    ``seconds`` is the wall time of the traced segments.
    """
    resolve_n = _spans(summary, "dispatch.resolve")[0]
    dispatch_decides = _spans(
        summary, "subtyping.decide", {"dispatch.applicable", "dispatch.resolve"}
    )[0]
    metrics = {
        "core.hierarchy_us": (_mean_us(summary, "core.hierarchy"), "us"),
        "frontend.parse_us": (_mean_us(summary, "frontend.parse"), "us"),
        "frontend.parse_calls": (_spans(summary, "frontend.parse")[0] / n_batches, "count"),
        "normalize.nf_us": (_mean_us(summary, "normalize.nf", {"subtyping.decide"}), "us"),
        "normalize.nf_leaves_mean": (_tally(summary, "normalize.nf_leaves"), "count"),
        "normalize.nf_leaves_max": (_tally(summary, "normalize.nf_leaves", "max"), "count"),
        "subtyping.decide_us": (_mean_us(summary, "subtyping.decide"), "us"),
        "subtyping.decide_self_us": (_mean_us(summary, "subtyping.decide", self_time=True), "us"),
        "subtyping.decide_calls": (_spans(summary, "subtyping.decide")[0] / n_batches, "count"),
        "subtyping.true_frac": (_tally(summary, "subtyping.true"), "ratio"),
        "subtyping.trace_rules": (_tally(summary, "subtyping.trace_rules"), "count"),
        "subtyping.max_arity": (float(extras.get("max_arity", 0)), "k"),
        "derivation.size": (_tally(summary, "derivation.size"), "count"),
        "dispatch.candidates": (_tally(summary, "dispatch.candidates"), "count"),
        "dispatch.subtype_calls": (dispatch_decides / resolve_n if resolve_n else 0.0, "count"),
        "dispatch.selected": (_tally(summary, "dispatch.selected", "sum") / n_batches, "count"),
        "dispatch.ambiguous": (_tally(summary, "dispatch.ambiguous", "sum") / n_batches, "count"),
        "dispatch.no_method": (_tally(summary, "dispatch.no_method", "sum") / n_batches, "count"),
        "dispatch.repeat_frac": (extras.get("repeat_frac", 0.0), "ratio"),
        "cli.interp_ms": (extras["interp_ms"], "ms"),
        "cli.import_ms": (extras["import_ms"], "ms"),
        "runtime.gc_frac": (summary["gc"][1] / seconds, "ratio"),
        "runtime.gc_collections": (summary["gc"][0] / n_batches, "count"),
        "trace.overhead_pct": (extras["overhead_pct"], "%"),
    }
    detail = {
        "subtyping.check_trace_us": _mean_us(summary, "subtyping.check_trace", {""}),
        "derivation.synthesize_us": _mean_us(summary, "derivation.synthesize"),
        "derivation.check_us": _mean_us(summary, "derivation.check"),
        "dispatch.add_method_us": _mean_us(summary, "dispatch.add_method"),
        "dispatch.applicable_us": _mean_us(summary, "dispatch.applicable"),
        "dispatch.resolve_us": _mean_us(summary, "dispatch.resolve"),
        "runtime.gc_s": summary["gc"][1] / n_batches,
    }
    return metrics, detail


def repeat_frac(inp) -> float:
    """Share of calls whose call type occurred earlier in the same stream."""
    streams = [t["stream"] for t in inp["tables"]]
    total = sum(len(s) for s in streams)
    return 1.0 - sum(len(set(s)) for s in streams) / total


def interp_ms() -> float:
    times = []
    for _ in range(INTERP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=_env(), cwd=ROOT)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


# -- provenance --------------------------------------------------------------


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tagsub")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
    )
    return proc.stdout.strip() or None


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tagsub", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    inp = gen.generate(args.workload, args.seed)
    input_digest = gen.digest(inp)
    expected = reference.ANSWERS[args.workload](inp)
    mismatch = committed_mismatch(args.workload, args.seed, input_digest, expected)
    outcomes = {
        kind: sum(1 for a in expected if a[0] == kind[0])
        for kind in ("Selected", "NoApplicableMethod", "Ambiguous")
    }
    if args.workload == "dispatch" and 0 in outcomes.values():
        mismatch.append("an outcome kind is missing from the call streams")

    _worker({"task": "setup", "inputs": inp})  # warm-up: compiles bytecode on a fresh checkout
    result = run_segments(args.workload, inp, args.seconds, bool(args.trace))
    attempted, failed = count_failures(result, expected)
    if mismatch:
        failed = attempted
    e2e, tail = end_to_end(result)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": src_digest(),
        "input_sha256": input_digest,
        "expected_mismatch": mismatch,
        "tail": tail,
        "named": {k: e2e[v][0] for k, v in NAMED[args.workload].items()},
        "unscaled": {k: v for k, (v, _u) in end_to_end(result, scaled=False)[0].items()},
        "failed_frac": failed / attempted,
        "errors": result.get("errors", [])[:5],
    }
    if args.workload == "arity":
        report["named"]["max_arity"] = result["max_arity"]
        report["open_sweep"] = result["open"]
    if args.workload == "dispatch":
        report["outcomes"] = outcomes

    if args.trace:
        extras = {
            "interp_ms": interp_ms(),
            "import_ms": statistics.median(s["import_s"] for s in result["setup"]) * 1e3,
            "overhead_pct": (
                sum(median_ops(result["traced"])) / sum(median_ops(result["plain"])) - 1
            ) * 100,
        }
        if args.workload == "arity":
            extras["max_arity"] = result["max_arity"]
        if args.workload == "dispatch":
            extras["repeat_frac"] = repeat_frac(inp)
        metrics, detail = per_layer(
            result["trace"], len(result["traced"]), result["traced_seconds"], extras
        )
        report["layer_detail"] = detail
    else:
        metrics = e2e

    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not mismatch,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
