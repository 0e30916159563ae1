#!/usr/bin/env python3
"""Mutation check of the two proof checkers and the predicates they share.

Each listed mutant is one textual change to a module of ``src/tagsub``.  The
script copies ``src/`` and ``tests/`` to a temporary directory, runs the
tests there unmutated, and then, for each mutant alone, applies it to the
copy and runs the tests again.  A mutant is killed when a test fails and
survives when every test passes.  The default tests are the proof test files:

    pytest -x -q tests/test_subtyping.py tests/test_derivation.py \\
        tests/test_verdict.py tests/test_acceptance.py

Exits 0 when every mutant is killed, 1 when one survives, and 2 when the
unmutated copy fails or a mutant no longer matches the source exactly once.
It tests two mutants at once, each on its own copy.  It uses the standard
library only; the tests need pytest and hypothesis.

    python3 scripts/checker_mutants.py

``NO_OP`` changes nothing, so a run that lists it must exit 1; the tests of
this script check that the runner reports such a survivor.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = [
    "tests/test_subtyping.py",
    "tests/test_derivation.py",
    "tests/test_verdict.py",
    "tests/test_acceptance.py",
]
S, D = "subtyping.py", "derivation.py"
JOBS = 2  # mutants tested at once, at most one per CPU

#: (label, module, text, replacement): the text occurs once in the module.
MUTANTS = [
    # _name_rule, the name-leaf rules SR-BaseRefl and SR-Nom: one per condition.
    (
        "name rule: sides that are not names",
        S,
        "    if not (isinstance(lhs, Name) and isinstance(rhs, Name)):\n        return None\n",
        "",
    ),
    (
        "name rule: names that hold no NominalName",
        S,
        "    if not (isinstance(n1, NominalName) and isinstance(n2, NominalName)):\n",
        "    if False:\n",
    ),
    (
        "name rule: SR-BaseRefl between distinct names",
        S,
        "    if (n1 is n2 or n1 == n2) and not n1.abstract:\n",
        "    if not n1.abstract:\n",
    ),
    (
        "name rule: SR-BaseRefl on an abstract name",
        S,
        "    if (n1 is n2 or n1 == n2) and not n1.abstract:\n",
        "    if n1 is n2 or n1 == n2:\n",
    ),
    (
        "name rule: SR-BaseRefl on an undeclared name",
        S,
        "SR_BASE_REFL if declared is n1 or declared == n1 else None",
        "SR_BASE_REFL",
    ),
    (
        "name rule: SR-Nom from an abstract name in either mode",
        S,
        "    if n1.abstract and mode is not Mode.ATOMIC:\n        return None\n",
        "",
    ),
    (
        "name rule: SR-Nom from an abstract name in no mode",
        S,
        "    if n1.abstract and mode is not Mode.ATOMIC:\n",
        "    if n1.abstract:\n",
    ),
    (
        "name rule: SR-Nom outside nominal_subtype",
        S,
        "SR_NOM if nominal_subtype(h, n1, n2) else None",
        "SR_NOM",
    ),
    (
        "name rule: SR-Nom on an undeclared name",
        S,
        "    except UnknownName:\n        return None\n",
        "    except UnknownName:\n        return SR_NOM\n",
    ),
    # _split_premises, the pair and left-union premise schemas: one per condition.
    (
        "premises: a pair rule from a non-pair",
        S,
        "        if not (isinstance(lhs, Pair) and isinstance(rhs, Pair)):\n",
        "        if not isinstance(rhs, Pair):\n",
    ),
    (
        "premises: a pair rule to a non-pair",
        S,
        "        if not (isinstance(lhs, Pair) and isinstance(rhs, Pair)):\n",
        "        if not isinstance(lhs, Pair):\n",
    ),
    (
        "premises: a pair rule crosswise",
        S,
        "want = (lhs.left, rhs.left, lhs.right, rhs.right)",
        "want = (lhs.left, rhs.right, lhs.right, rhs.left)",
    ),
    (
        "premises: a left-union rule from a non-union",
        S,
        "    elif isinstance(lhs, Union):\n",
        "    elif True:\n",
    ),
    (
        "premises: a left-union rule with its arms swapped",
        S,
        "want = (lhs.left, rhs, lhs.right, rhs)",
        "want = (lhs.right, rhs, lhs.left, rhs)",
    ),
    ("premises: any number", S, "return len(prem) == 2 and (prem", "return (prem"),
    (
        "premises: first left side",
        S,
        "(prem[0].lhs, prem[0].rhs, prem[1].lhs, prem[1].rhs) == want",
        "(want[0], prem[0].rhs, prem[1].lhs, prem[1].rhs) == want",
    ),
    (
        "premises: first right side",
        S,
        "(prem[0].lhs, prem[0].rhs, prem[1].lhs, prem[1].rhs) == want",
        "(prem[0].lhs, want[1], prem[1].lhs, prem[1].rhs) == want",
    ),
    (
        "premises: second left side",
        S,
        "(prem[0].lhs, prem[0].rhs, prem[1].lhs, prem[1].rhs) == want",
        "(prem[0].lhs, prem[0].rhs, want[2], prem[1].rhs) == want",
    ),
    (
        "premises: second right side",
        S,
        "(prem[0].lhs, prem[0].rhs, prem[1].lhs, prem[1].rhs) == want",
        "(prem[0].lhs, prem[0].rhs, prem[1].lhs, want[3]) == want",
    ),
    # _check, the reductive trace checker.
    (
        "_check: an unknown rule (item 11)",
        S,
        "            and _check(h, prem[0], mode, nf_allowed=False)\n        )\n    return False\n",
        "            and _check(h, prem[0], mode, nf_allowed=False)\n        )\n    return True\n",
    ),
    (
        "_check: premises that are no tuple",
        S,
        "    if not isinstance(prem, tuple):\n"
        "        return False\n"
        "    for p in prem:\n"
        "        if not isinstance(p, ReductiveTrace):",
        "    for p in prem:\n        if not isinstance(p, ReductiveTrace):",
    ),
    (
        "_check: a name-leaf rule with premises (item 11: SR-Nom with premises)",
        S,
        "        return not prem and _name_rule(h, lhs, rhs, mode) == tr.rule\n",
        "        return _name_rule(h, lhs, rhs, mode) == tr.rule\n",
    ),
    (
        "_check: either name-leaf rule where one applies",
        S,
        "_name_rule(h, lhs, rhs, mode) == tr.rule\n",
        "_name_rule(h, lhs, rhs, mode) is not None\n",
    ),
    (
        "_check: second premise of SR-Pair or SR-UnionL unchecked",
        S,
        "            and _check(h, prem[0], mode, nf_allowed)\n"
        "            and _check(h, prem[1], mode, nf_allowed)\n",
        "            and _check(h, prem[0], mode, nf_allowed)\n",
    ),
    (
        "_check: SR-UnionR to a non-union",
        S,
        "            isinstance(rhs, Union)\n            and len(prem) == 1\n",
        "            len(prem) == 1\n",
    ),
    ("_check: SR-UnionR premise count", S, "            and len(prem) == 1\n", ""),
    ("_check: SR-UnionR from another left side", S, "            and prem[0].lhs == lhs\n", ""),
    (
        "_check: SR-UnionR arms swapped",
        S,
        "(rhs.left if tr.rule == SR_UNION_R1 else rhs.right)",
        "(rhs.right if tr.rule == SR_UNION_R1 else rhs.left)",
    ),
    (
        "_check: SR-NF below SR-NF",
        S,
        "        if not nf_allowed or len(prem) != 1",
        "        if len(prem) != 1",
    ),
    ("_check: SR-NF premise count", S, " or len(prem) != 1 or ", " or "),
    ("_check: SR-NF on a non-type", S, " or not _is_type(lhs):", ":"),
    (
        "_check: SR-NF on an undeclared name",
        S,
        "        except (EmptyAbstract, UnknownName):\n"
        "            return False\n"
        "        return (\n",
        "        except (EmptyAbstract, UnknownName):\n            return True\n        return (\n",
    ),
    (
        "_check: SR-NF from another left side",
        S,
        "            prem[0].lhs == normed\n            and ",
        "            ",
    ),
    (
        "_check: SR-NF to another right side",
        S,
        "            and prem[0].rhs == rhs\n            and _check",
        "            and _check",
    ),
    ("_check: SR-NF premise normalizing again", S, "nf_allowed=False)\n", "nf_allowed=True)\n"),
    # check_declarative, the declarative derivation checker.
    (
        "check_declarative: an unknown rule (item 11)",
        D,
        "_distributes(lhs, rhs, d.rule)\n    return False\n",
        "_distributes(lhs, rhs, d.rule)\n    return True\n",
    ),
    (
        "check_declarative: premises that are no tuple",
        D,
        "    if not isinstance(prem, tuple):\n        return False\n",
        "",
    ),
    (
        "check_declarative: SD-Trans, first premise off the witness",
        D,
        "            and prem[0].rhs == d.witness\n",
        "",
    ),
    (
        "check_declarative: SD-Trans, second premise off the witness",
        D,
        "            and prem[1].lhs == d.witness\n",
        "",
    ),
    (
        "check_declarative: SD-Trans from another left side",
        D,
        "            and prem[0].lhs == lhs\n",
        "",
    ),
    (
        "check_declarative: SD-Trans to another right side",
        D,
        "            and prem[1].rhs == rhs\n",
        "",
    ),
    (
        "check_declarative: SD-Trans second premise unchecked",
        D,
        "            and prem[1].rhs == rhs\n"
        "            and check_declarative(h, prem[0], mode)\n"
        "            and check_declarative(h, prem[1], mode)\n",
        "            and prem[1].rhs == rhs\n            and check_declarative(h, prem[0], mode)\n",
    ),
    (
        "check_declarative: a witness where the rule has none",
        D,
        "    if d.witness is not None:\n        return False\n",
        "",
    ),
    (
        "check_declarative: SD-Refl with premises",
        D,
        "        return not prem and lhs == rhs\n",
        "        return lhs == rhs\n",
    ),
    (
        "check_declarative: SD-Refl between any sides",
        D,
        "        return not prem and lhs == rhs\n",
        "        return not prem\n",
    ),
    (
        "check_declarative: SD-Nom with premises",
        D,
        "        if prem or not (isinstance(lhs, Name) and isinstance(rhs, Name)):\n",
        "        if not (isinstance(lhs, Name) and isinstance(rhs, Name)):\n",
    ),
    (
        "check_declarative: SD-Nom on names that hold no NominalName",
        D,
        "if not (isinstance(n1, NominalName) and isinstance(n2, NominalName)) or n1 == n2:",
        "if n1 == n2:",
    ),
    ("check_declarative: SD-Nom on one name", D, " or n1 == n2:", ":"),
    (
        "check_declarative: SD-Nom outside nominal_subtype",
        D,
        "return nominal_subtype(h, n1, n2)",
        "return True",
    ),
    (
        "check_declarative: SD-Nom on an undeclared name (item 11)",
        D,
        "        except UnknownName:\n            return False\n",
        "        except UnknownName:\n            return True\n",
    ),
    (
        "check_declarative: SD-AbsUnion in atomic mode",
        D,
        "        if mode is Mode.ATOMIC or prem:\n",
        "        if prem:\n",
    ),
    (
        "check_declarative: SD-AbsUnion with premises",
        D,
        "        if mode is Mode.ATOMIC or prem:\n",
        "        if mode is Mode.ATOMIC:\n",
    ),
    (
        "check_declarative: SD-AbsUnion on a concrete name (item 11)",
        D,
        " and lhs.name.abstract):",
        "):",
    ),
    (
        "check_declarative: SD-AbsUnion to any union",
        D,
        "            return rhs == descendant_union(h, lhs.name)\n",
        "            return descendant_union(h, lhs.name) is not None\n",
    ),
    (
        "check_declarative: SD-AbsUnion on an undeclared name",
        D,
        "        except (EmptyAbstract, UnknownName):\n            return False\n",
        "        except (EmptyAbstract, UnknownName):\n            return True\n",
    ),
    (
        "check_declarative: second premise of SD-Pair or SD-UnionL unchecked",
        D,
        "            _split_premises(d.rule == SD_PAIR, lhs, rhs, prem)\n"
        "            and check_declarative(h, prem[0], mode)\n"
        "            and check_declarative(h, prem[1], mode)\n",
        "            _split_premises(d.rule == SD_PAIR, lhs, rhs, prem)\n"
        "            and check_declarative(h, prem[0], mode)\n",
    ),
    (
        "check_declarative: SD-UnionR with premises (item 11)",
        D,
        "        if prem or not isinstance(rhs, Union):\n",
        "        if not isinstance(rhs, Union):\n",
    ),
    (
        "check_declarative: SD-UnionR to a non-union",
        D,
        "        if prem or not isinstance(rhs, Union):\n",
        "        if prem:\n",
    ),
    (
        "check_declarative: SD-UnionR arms swapped",
        D,
        "(rhs.left if d.rule == SD_UNION_R1 else rhs.right)",
        "(rhs.right if d.rule == SD_UNION_R1 else rhs.left)",
    ),
    (
        "check_declarative: SD-Distr with premises",
        D,
        "        return not prem and isinstance(lhs, Pair) and ",
        "        return isinstance(lhs, Pair) and ",
    ),
    (
        "check_declarative: SD-Distr from a non-pair",
        D,
        "        return not prem and isinstance(lhs, Pair) and ",
        "        return not prem and ",
    ),
]

#: Changes nothing, so it survives whatever the tests.
NO_OP = ("no-op", S, "def _check(", "def _check(")


def run_tests(copy: Path, tests: list[str]) -> tuple[bool, float]:
    """Whether every test passes on the copy, and the seconds it took.  A run
    that has not ended after ten minutes counts as failing."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=600,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def run(mutants: list[tuple[str, str, str, str]], tests: list[str]) -> int:
    """Test each mutant alone; 0 if every one is killed, 1 if one survives,
    2 if the unmutated copy fails or a mutant does not match its module once."""
    sources = {m[1]: (ROOT / "src" / "tagsub" / m[1]).read_text() for m in mutants}
    stale = [m[0] for m in mutants if sources[m[1]].count(m[2]) != 1]
    if stale:
        print("no longer match the source exactly once:", *stale, sep="\n  ")
        return 2
    jobs = max(1, min(JOBS, os.cpu_count() or 1, len(mutants)))
    with tempfile.TemporaryDirectory(prefix="checker-mutants-") as tmp:
        copies: queue.SimpleQueue[Path] = queue.SimpleQueue()
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for i in range(jobs):
            copy = Path(tmp, str(i))
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, copy / part, ignore=ignore)
            copies.put(copy)
        passed, seconds = run_tests(Path(tmp, "0"), tests)
        print(f"unmutated: {'pass' if passed else 'FAIL'} ({seconds:.1f} s)", flush=True)
        if not passed:
            return 2

        def survives(mutant) -> bool:
            label, module, text, replacement = mutant
            copy = copies.get()
            path = copy / "src" / "tagsub" / module
            try:
                path.write_text(sources[module].replace(text, replacement))
                passed, seconds = run_tests(copy, tests)
            finally:
                path.write_text(sources[module])
                copies.put(copy)
            print(f"{'SURVIVED' if passed else 'killed  '} {label} ({seconds:.1f} s)", flush=True)
            return passed

        with ThreadPoolExecutor(jobs) as pool:
            survived = list(pool.map(survives, mutants))
    print(f"{survived.count(False)} of {len(mutants)} mutants killed")
    return 1 if any(survived) else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS, TESTS))
