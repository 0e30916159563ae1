#!/usr/bin/env python3
"""Run the benchmark's end-to-end pass and commit its medians as JSON.

    python3 scripts/bench_medians.py --label baseline --workload queries --seed 9

For each chosen workload and seed this runs ``perfbench/run.py --trace 0``
once, in a fresh ``git archive`` export of this repository's revision
``--rev REV``, made in a new temporary directory and deleted after the runs.
The default, ``--rev worktree``, exports the tracked files as they are in
the working tree and the index (``git stash create``, which changes no file
and no ref).  Every run thus comes from the same kind of checkout at the
same path depth, since a checkout's location alone can move ``peak_rss_mb``
by more than its run spread.  The medians go to ``BENCH_<label>.json`` at
the root of this repository.  The file holds, per workload, each end-to-end
metric's median over the runs, its per-run values and its unit, plus the
revision, the commit, whether ``src/`` differed from it, the source digest,
the Python version, the CPU count and the directory of the runs.  With
``--append`` the runs are added to an existing file and the medians are
taken over all of them, so runs of two revisions can be alternated:

    for i in 1 2 3 4 5; do
        python3 scripts/bench_medians.py --label change_parent --rev HEAD --append
        python3 scripts/bench_medians.py --label change --append
    done

``--compare PARENT CHANGE`` reads two such files and pairs their runs in the
order they were appended, per workload and seed.  For each end-to-end metric
it prints the parent's median and quartiles, the change's median, their ratio,
how many pairs the change won, whether the medians lie further apart than the
parent's quartiles, the change's median over the median of the same workload
in ``BENCH_baseline.json`` (so that small rises that each pass their bound
show as they add up; it is only printed), and WORSE where the change's median
is worse than the parent's by more than the metric's bound in
``BENCHMARK.json``.  It exits 1 if any metric is WORSE, and on nothing else:

    python3 scripts/bench_medians.py --compare baseline change
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("queries", "arity", "dispatch")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its report and its result line.

    ``<root>/src/tagsub/__pycache__`` is deleted first, so that every run
    in an export imports the package from source, as its first run does.
    """
    shutil.rmtree(os.path.join(root, "src", "tagsub", "__pycache__"), ignore_errors=True)
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(root, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        capture_output=True,
        text=True,
        cwd=root,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py exited {proc.returncode}:\n{proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    return {"report": json.loads(report)["report"], "result": json.loads(result)}


def export(rev: str, into: str) -> tuple[str, bool]:
    """Write the tracked files of REV (``worktree``: of the working tree) to
    into; return the commit they are taken against (HEAD for the working
    tree) and whether ``src/`` differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, cwd=ROOT, check=True
        ).stdout.strip()

    base = git("rev-parse", "--verify", "HEAD" if rev == "worktree" else f"{rev}^{{commit}}")
    tree = (git("stash", "create") or base) if rev == "worktree" else base
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", tree], capture_output=True, cwd=ROOT, check=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)
    return base, bool(git("diff", "--name-only", base, tree, "--", "src"))


def medians(runs: list[dict]) -> dict:
    """Per workload and end-to-end metric: the median, the values and the unit."""
    out: dict = {}
    for run in runs:
        for name, m in run["metrics"].items():
            entry = out.setdefault(run["workload"], {}).setdefault(
                name, {"median": None, "values": [], "unit": m["unit"]}
            )
            entry["values"].append(m["value"])
    for metrics in out.values():
        for entry in metrics.values():
            entry["median"] = statistics.median(entry["values"])
    return out


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(parent: str, change: str) -> int:
    """Print the paired comparison of two BENCH files; 1 if a metric is WORSE."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    with open(os.path.join(ROOT, "BENCH_baseline.json"), encoding="utf-8") as f:
        baseline = json.load(f)["medians"]
    groups: dict = {}
    for label in (parent, change):
        with open(os.path.join(ROOT, f"BENCH_{label}.json"), encoding="utf-8") as f:
            for run in json.load(f)["runs"]:
                groups.setdefault((run["workload"], run["seed"]), {}).setdefault(label, []).append(run)
    print(f"{'workload':<9} {'seed':>4} {'metric':<11} {'parent median [q1, q3]':<34}"
          f" {'change':>10} {'ratio':>6} {'won':>5} {'>IQR':>4} {'/base':>6}")
    worse = 0
    for (workload, seed), by_label in groups.items():
        pairs = list(zip(by_label.get(parent, []), by_label.get(change, [])))
        if not pairs:
            continue
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            old = [p["metrics"][name]["value"] for p, _ in pairs]
            new = [c["metrics"][name]["value"] for _, c in pairs]
            med_old, med_new = statistics.median(old), statistics.median(new)
            q1, q3 = _quartiles(old)
            ratio = med_new / med_old
            won = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
            flag = ratio > 1 + m["bound"] if lower else ratio < 1 - m["bound"]
            worse += flag
            spread = f"{med_old:.4g} [{q1:.4g}, {q3:.4g}]"
            clear = "yes" if abs(med_new - med_old) > q3 - q1 else "no"
            base = baseline.get(workload, {}).get(name)
            drift = f"{med_new / base['median']:.3f}" if base else "-"
            print(f"{workload:<9} {seed:>4} {name:<11} {spread:<34} {med_new:>10.4g}"
                  f" {ratio:>6.3f} {f'{won}/{len(pairs)}':>5} {clear:>4} {drift:>6}"
                  + ("  WORSE" if flag else ""))
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--label", help="writes BENCH_<label>.json")
    what.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                      help="compare BENCH_PARENT.json with BENCH_CHANGE.json and run nothing")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat for several; default: all")
    ap.add_argument("--seed", action="append", type=int, help="repeat for several; default: 1")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--rev", default="worktree",
                    help="benchmark a fresh export of this revision, or of 'worktree' (default)")
    ap.add_argument("--append", action="store_true", help="add to an existing file")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    runs = []
    if args.append and os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            runs = json.load(f)["runs"]
    with tempfile.TemporaryDirectory(prefix="bench-medians-") as tmp:
        root = os.path.join(tmp, "checkout")
        runs += bench(root, args, *export(args.rev, root))
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"label": args.label, "medians": medians(runs), "runs": runs}, f, indent=1)
        f.write("\n")
    return 0


def bench(root: str, args, commit: str, modified: bool) -> list[dict]:
    """Run each chosen workload and seed once in root; one record per run,
    with the commit and where it ran."""
    runs = []
    for workload in args.workload or WORKLOADS:
        for seed in args.seed or [1]:
            got = run_once(root, workload, seed, args.seconds)
            report, result = got["report"], got["result"]
            runs.append({
                "workload": workload,
                "seed": seed,
                "seconds": args.seconds,
                "commit": commit,
                "src_modified": modified,
                "rev": args.rev,
                "root": root,
                "src_sha256": report["src_sha256"],
                "python": report["python"],
                "nproc": report["nproc"],
                "correct": result["correct"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            })
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
            ), file=sys.stderr)
    return runs


if __name__ == "__main__":
    sys.exit(main())
