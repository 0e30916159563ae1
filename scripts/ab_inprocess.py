#!/usr/bin/env python3
"""In-process A/B timing of the working tree's package against a revision's.

    python3 scripts/ab_inprocess.py --rev HEAD

The tracked files of REV are exported with ``git archive`` into a new
temporary directory, and its ``src/tagsub`` is imported twice, as the
packages ``tagsub_parent_aa`` and then ``tagsub_parent``, before the working
tree's ``src/tagsub`` is imported as ``tagsub_change``.  Every operation of the
seed-1 ``queries`` and ``arity`` workloads of ``perfbench/inputs.py`` is then
run on the three, back to back, for ROUNDS rounds, each round in the next
order of a rotation so that none runs first more often.  A ``queries``
operation parses both sides, decides, and for a proof-carrying true answer
checks the trace, synthesizes the derivation and checks it, as the benchmark
worker does; an ``arity`` operation parses and decides.  Each operation
returns the worker's answer for it, which ``tests/test_ab_inprocess.py``
compares with the worker's own on a slice.

Per workload it prints the number of operations, then change/parent for the
mean, p50, p99 and p99.9 of the per-operation medians over the rounds, and
the parent's first import over its second: an A/A line.  The first of
several imports of one source has read up to 1.4% slower than the later
ones, which read within 0.5% of each other; so change/parent compares two
later imports, and the A/A line shows what load position alone moves.  A
change/parent ratio within about 1% of 1 is no finding; time one package
per process, alternating processes, for changes of that size.  The package
is imported from source, no bytecode is written, and only the standard
library is used.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("queries", "arity")
ARMS = ("change", "parent", "parent_aa")
ROUNDS = 5  # times each operation runs per arm


def inputs_module():
    """``perfbench/inputs.py``, the benchmark's seeded input generator."""
    spec = importlib.util.spec_from_file_location("ab_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load(name: str, package_dir: Path) -> dict:
    """The modules of the package in package_dir, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    subs = ("core", "frontend", "semantics", "subtyping", "derivation")
    return {s: importlib.import_module(f"{name}.{s}") for s in subs}


def queries_ops(lib: dict, inp: dict) -> list:
    """One callable per ``queries`` operation, as the benchmark worker runs it."""
    core, front, sub, der = lib["core"], lib["frontend"], lib["subtyping"], lib["derivation"]
    Mode, Strategy = lib["semantics"].Mode, sub.Strategy
    hs = [core.parse_hierarchy(text) for text in inp["hierarchies"]]
    ops = []
    for hi, a, b, strategy, proof in inp["queries"]:
        for mode in (Mode.SEMANTIC, Mode.ATOMIC):
            def op(h=hs[hi], a=a, b=b, mode=mode, strategy=Strategy(strategy), proof=proof):
                ok, trace = sub.reductive_sub(h, front.parse_type(a, h), front.parse_type(b, h), mode, strategy)
                if not (proof and ok):
                    return "1" if ok else "0"
                if not sub.check_reductive_trace(h, trace, mode):
                    return "P"
                return "1" if der.check_declarative(h, der.synthesize(h, trace, mode), mode) else "D"

            ops.append(op)
    return ops


def arity_ops(lib: dict, inp: dict) -> list:
    """One callable per operation of the fixed ``arity`` sweep."""
    core, front, sub = lib["core"], lib["frontend"], lib["subtyping"]
    Mode = lib["semantics"].Mode
    h = core.parse_hierarchy(inp["hierarchies"][0])
    rows = {k: (lhs, rhs) for k, lhs, rhs in inp["rows"]}
    ops = []
    for k in inp["fixed"]:
        lhs, rhs_false = rows[k]
        for mode in (Mode.SEMANTIC, Mode.ATOMIC):
            for b in (lhs, rhs_false):
                ops.append(lambda a=lhs, b=b, mode=mode: "1" if sub.reductive_sub(
                    h, front.parse_type(a, h), front.parse_type(b, h), mode)[0] else "0")
    return ops


def _quantile(sorted_xs: list[float], q: float) -> float:
    # The nearest-rank quantile of a sorted list.
    return sorted_xs[min(len(sorted_xs) - 1, int(q * len(sorted_xs)))]


def summary(xs: list[float]) -> dict:
    s = sorted(xs)
    return {"mean": statistics.fmean(s), "p50": statistics.median(s),
            "p99": _quantile(s, 0.99), "p99.9": _quantile(s, 0.999)}


def measure(arms: dict) -> dict:
    """Per arm, each operation's median time over the rounds, in seconds.
    arms maps a name to its list of operations, in the same order for all."""
    names = list(arms)
    n = len(arms[names[0]])
    times = {a: [[] for _ in range(n)] for a in names}
    clock = time.perf_counter
    for r in range(ROUNDS):
        for i in range(n):
            shift = (r + i) % len(names)
            for a in names[shift:] + names[:shift]:
                t0 = clock()
                arms[a][i]()
                times[a][i].append(clock() - t0)
    return {a: [statistics.median(ts) for ts in times[a]] for a in names}


def sliced(workload: str, inp: dict, limit: int) -> dict:
    """inp with only its first limit queries, or its first limit arities."""
    key = "queries" if workload == "queries" else "fixed"
    return dict(inp, **{key: inp[key][:limit]})


def ab(parent_dir: Path, limit: int | None = None) -> dict:
    """The ratios change/parent and parent_aa/parent per workload and
    statistic; limit, if given, slices each workload's inputs (``sliced``)."""
    # The first import of a source has read the slowest, so the change is
    # compared with the parent's second import, and the A/A line is the first.
    libs = {
        "parent_aa": load("tagsub_parent_aa", parent_dir),
        "parent": load("tagsub_parent", parent_dir),
        "change": load("tagsub_change", ROOT / "src" / "tagsub"),
    }
    gen = inputs_module()
    build = {"queries": queries_ops, "arity": arity_ops}
    out = {}
    for w in WORKLOADS:
        inp = gen.generate(w, 1)
        if limit is not None:
            inp = sliced(w, inp, limit)
        meds = measure({a: build[w](libs[a], inp) for a in ARMS})
        stats = {a: summary(meds[a]) for a in ARMS}
        out[w] = {
            "ops": len(meds["parent"]),
            "change/parent": {k: stats["change"][k] / v for k, v in stats["parent"].items()},
            "A/A": {k: stats["parent_aa"][k] / v for k, v in stats["parent"].items()},
            "parent_us": {k: v * 1e6 for k, v in stats["parent"].items()},
        }
    return out


def export(rev: str, into: Path) -> Path:
    """Write REV's tracked files to into; return its package directory."""
    archive = subprocess.run(["git", "archive", rev], capture_output=True, cwd=ROOT, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into / "src" / "tagsub"


def report(results: dict) -> None:
    for w, r in results.items():
        parent = ", ".join(f"{k} {v:.2f}" for k, v in r["parent_us"].items())
        print(f"{w}: {r['ops']} ops, parent per-op medians (us): {parent}")
        for line in ("change/parent", "A/A"):
            ratios = "  ".join(f"{k} x{v:.3f}" for k, v in r[line].items())
            print(f"  {line:<14} {ratios}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True, help="the parent revision, exported with git archive")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        parent_dir = export(args.rev, Path(tmp))
        report(ab(parent_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
