#!/usr/bin/env python3
"""Wall time of whole CLI processes: ``tagsub check``, ``tagsub dispatch``
and a bare interpreter.

    python3 scripts/cli_wall.py --runs 30
    python3 scripts/cli_wall.py --runs 30 . ../parent   # two checkouts, alternating

Each run starts a fresh ``python -m tagsub`` process with
``PYTHONDONTWRITEBYTECODE=1``, as the benchmark's workers do, so every
process compiles the package before it answers; ``python -c pass`` is the
floor that no CLI call can beat.  The checkouts (this repository by default)
take turns within each round, so a machine that slows down mid-run slows
them alike.  Prints the median and quartiles in milliseconds per command and
checkout.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

METHODS = """\
mode semantic
method plus Int*Int => mII
method plus Flt*Flt => mFF
method plus (Int|Flt)*(Int|Flt) => mUU
"""


def commands(methods: str) -> dict[str, list[str]]:
    """Each command's arguments after the interpreter; each one exits 0."""
    return {
        "python -c pass": ["-c", "pass"],
        "tagsub check": ["-m", "tagsub", "check", "Str*(Int|Flt)", "Str*Real", "--trace"],
        "tagsub dispatch": ["-m", "tagsub", "dispatch", "--methods", methods, "--call", "plus Flt*Int"],
    }


def wall(root: str, args: list[str]) -> float:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=root, capture_output=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{args} in {root} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", default=[ROOT], help="checkouts to time (default: this one)")
    ap.add_argument("--runs", type=int, default=20, help="processes per command and checkout")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    roots = [os.path.abspath(r) for r in args.roots]
    with tempfile.TemporaryDirectory() as tmp:
        methods = os.path.join(tmp, "methods.txt")
        with open(methods, "w", encoding="utf-8") as f:
            f.write(METHODS)
        cmds = commands(methods)
        times = {(r, c): [] for r in roots for c in cmds}
        for i in range(args.runs):
            for r in roots if i % 2 == 0 else roots[::-1]:
                for c, argv in cmds.items():
                    times[r, c].append(wall(r, argv))
    for (r, c), ts in times.items():
        q1, med, q3 = statistics.quantiles(ts, n=4)
        print(f"{c:16s} {med * 1e3:7.1f} ms  [{q1 * 1e3:.1f}, {q3 * 1e3:.1f}]  n={len(ts)}  {r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
