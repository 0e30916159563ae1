#!/usr/bin/env python3
"""Differential census of the three subtyping characterizations.

Enumerates all type pairs of depth at most 2 over the built-in six-name
hierarchy, optionally with seeded random pairs, and counts agreements
between the set-based oracle, the matching-based oracle and the reductive
decision procedure, in both interpretation modes.  Any disagreement is
printed and makes the script exit nonzero.

Usage:
    python3 scripts/oracle_census.py [--random N --max-depth 4 --seed 7]
"""

import argparse
import sys
import time

from tagsub.core import DEFAULT_HIERARCHY
from tagsub.gen import random_type, types_up_to
from tagsub.semantics import Mode, matching_sub, semantic_sub
from tagsub.subtyping import Strategy, reductive_sub

import random


def census(h, pairs):
    disagreements = []
    true_counts = {mode: 0 for mode in Mode}
    start = time.perf_counter()
    for t1, t2 in pairs:
        for mode in Mode:
            oracle = semantic_sub(h, t1, t2, mode)
            for strategy in Strategy:
                got = reductive_sub(h, t1, t2, mode, strategy)[0]
                if got != oracle:
                    disagreements.append((t1, t2, mode, strategy.value, got, oracle))
            if mode is Mode.SEMANTIC and matching_sub(h, t1, t2) != oracle:
                disagreements.append((t1, t2, mode, "matching", None, oracle))
            if oracle:
                true_counts[mode] += 1
    elapsed = time.perf_counter() - start
    return disagreements, true_counts, elapsed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--random", type=int, default=0, help="extra random pairs")
    ap.add_argument("--max-depth", type=int, default=4)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    h = DEFAULT_HIERARCHY
    types = types_up_to(h, 2)
    pairs = [(a, b) for a in types for b in types]
    print(f"{len(types)} types of depth <= 2; {len(pairs)} ordered pairs")
    if args.random:
        rng = random.Random(args.seed)
        pairs += [
            (random_type(rng, h, args.max_depth), random_type(rng, h, args.max_depth))
            for _ in range(args.random)
        ]
        print(f"plus {args.random} random pairs of depth <= {args.max_depth}")

    disagreements, true_counts, elapsed = census(h, pairs)
    for mode in Mode:
        share = true_counts[mode] / len(pairs)
        print(f"{mode.value:9s}: {true_counts[mode]} subtype pairs ({share:.1%})")
    print(f"checked in {elapsed:.2f}s")
    if disagreements:
        print(f"{len(disagreements)} DISAGREEMENTS:")
        for t1, t2, mode, which, got, oracle in disagreements[:20]:
            print(f"  {t1} <: {t2} [{mode.value}] {which}={got} oracle={oracle}")
        return 1
    print("all characterizations agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
