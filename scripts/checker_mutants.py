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
It tests as many mutants at once as the process may use CPUs, each on its
own copy; on 2 CPUs the 97 mutants took 5 min 0 s.  It uses the standard
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

#: (label, module, text, replacement): the text occurs once in the module.
MUTANTS = [
    # _is_type, the test of each root judgement's sides, and _declared, the
    # one name test of both checkers: one per condition.
    (
        "_is_type: a union or pair's right side unread",
        S,
        "            todo += x.left, x.right\n",
        "            todo.append(x.left)\n",
    ),
    (
        "_is_type: a subclass of Pair or Union",
        S,
        "        if type(x) is Pair or type(x) is Union:\n",
        "        if isinstance(x, (Pair, Union)):\n",
    ),
    (
        "_is_type: a subclass of Name",
        S,
        "        elif type(x) is not Name or not _declared(h, x.name):\n",
        "        elif not isinstance(x, Name) or not _declared(h, x.name):\n",
    ),
    (
        "_is_type: a leaf name undeclared",
        S,
        "        elif type(x) is not Name or not _declared(h, x.name):\n",
        "        elif type(x) is not Name:\n",
    ),
    (
        "_declared: a Name around no NominalName",
        S,
        "    if type(n) is not NominalName or type(n.text) is not str:\n",
        "    if type(n.text) is not str:\n",
    ),
    (
        "_declared: a subclass of NominalName",
        S,
        "    if type(n) is not NominalName or type(n.text) is not str:\n",
        "    if not isinstance(n, NominalName) or type(n.text) is not str:\n",
    ),
    (
        "_declared: a name whose text is no str",
        S,
        "    if type(n) is not NominalName or type(n.text) is not str:\n",
        "    if type(n) is not NominalName:\n",
    ),
    (
        "_declared: a name of the other kind",
        S,
        "    return declared is not None and declared.abstract is n.abstract\n",
        "    return declared is not None\n",
    ),
    (
        "check_reductive_trace: root left side untested",
        S,
        "(_is_type(h, trace.lhs) and _is_type(h, trace.rhs))",
        "_is_type(h, trace.rhs)",
    ),
    (
        "check_reductive_trace: root right side untested",
        S,
        "(_is_type(h, trace.lhs) and _is_type(h, trace.rhs))",
        "_is_type(h, trace.lhs)",
    ),
    ("check_declarative: root right side untested", D, " and _is_type(h, d.rhs)", ""),
    # _name_rule, the name-leaf rules SR-BaseRefl and SR-Nom: one per condition.
    (
        "name rule: sides that are not names",
        S,
        "    if not (isinstance(lhs, Name) and isinstance(rhs, Name)):\n        return None\n",
        "",
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
        "name rule: SR-Nom outside h's ancestor sets",
        S,
        "SR_NOM if n2.text in h._above[n1.text] else None",
        "SR_NOM",
    ),
    # _split_premises, the pair and left-union premise schemas: one per condition.
    (
        "premises: a pair rule from a non-pair",
        S,
        "if componentwise and type(lhs) is Pair and type(rhs) is Pair:",
        "if componentwise and type(rhs) is Pair:",
    ),
    (
        "premises: a pair rule to a non-pair",
        S,
        "if componentwise and type(lhs) is Pair and type(rhs) is Pair:",
        "if componentwise and type(lhs) is Pair:",
    ),
    (
        "premises: a pair rule over a subclass of Pair",
        S,
        "if componentwise and type(lhs) is Pair and type(rhs) is Pair:",
        "if componentwise and isinstance(lhs, Pair) and isinstance(rhs, Pair):",
    ),
    (
        "premises: a pair rule crosswise",
        S,
        "a, b, c, d = lhs.left, rhs.left, lhs.right, rhs.right",
        "a, b, c, d = lhs.left, rhs.right, lhs.right, rhs.left",
    ),
    (
        "premises: a left-union rule from a non-union",
        S,
        "    elif not componentwise and type(lhs) is Union:\n",
        "    elif not componentwise:\n",
    ),
    (
        "premises: a left-union rule with its arms swapped",
        S,
        "a, b, c, d = lhs.left, rhs, lhs.right, rhs",
        "a, b, c, d = lhs.right, rhs, lhs.left, rhs",
    ),
    ("premises: any number", S, "return len(prem) == 2 and _concludes", "return _concludes"),
    ("premises: first premise's sides unread", S, "_concludes(prem[0], a, b) and ", ""),
    ("premises: second premise's sides unread", S, " and _concludes(prem[1], c, d)", ""),
    # _concludes and _same, which compare a premise's sides with the ones
    # its node's rule gives it.
    (
        "_concludes: a premise's left side unread",
        S,
        "(p.lhs is lhs or _same(p.lhs, lhs)) and ",
        "",
    ),
    (
        "_concludes: a premise's right side unread",
        S,
        " and (p.rhs is rhs or _same(p.rhs, rhs))",
        "",
    ),
    (
        "_same: a value's own == believed",
        S,
        "    if g is w:\n        return True\n    kind = type(g)\n",
        "    if g is w or g == w:\n        return True\n    kind = type(g)\n",
    ),
    (
        "_same: a pair the same as a union",
        S,
        "    if (kind is Pair or kind is Union) and type(w) is kind:\n",
        "    if (kind is Pair or kind is Union) and type(w) in (Pair, Union):\n",
    ),
    (
        "_same: the right components unread",
        S,
        "        return _same(g.left, w.left) and _same(g.right, w.right)\n",
        "        return _same(g.left, w.left)\n",
    ),
    (
        "_same: a subclass of Name",
        S,
        "    if kind is not Name or type(w) is not Name:\n",
        "    if not isinstance(g, Name) or type(w) is not Name:\n",
    ),
    (
        "_same: a name whose class or text is any",
        S,
        "(texts and m.text == n.text and m.abstract is n.abstract)",
        "(m.text == n.text and m.abstract is n.abstract)",
    ),
    (
        "_same: names of another text",
        S,
        "(texts and m.text == n.text and m.abstract is n.abstract)",
        "(texts and m.abstract is n.abstract)",
    ),
    (
        "_same: names of the other kind",
        S,
        "(texts and m.text == n.text and m.abstract is n.abstract)",
        "(texts and m.text == n.text)",
    ),
    # _check, the reductive trace checker.
    (
        "_check: an unknown rule (item 11)",
        S,
        "_check(h, prem[0], mode, nf_allowed=False)\n    return False\n",
        "_check(h, prem[0], mode, nf_allowed=False)\n    return True\n",
    ),
    (
        "_check: premises that are no tuple",
        S,
        "    if type(prem) is not tuple:\n"
        "        return False\n"
        "    for p in prem:\n"
        "        if type(p) is not ReductiveTrace:",
        "    for p in prem:\n        if type(p) is not ReductiveTrace:",
    ),
    (
        "_check: premises in a subclass of tuple",
        S,
        "    if type(prem) is not tuple:\n"
        "        return False\n"
        "    for p in prem:\n"
        "        if type(p) is not ReductiveTrace:",
        "    if not isinstance(prem, tuple):\n"
        "        return False\n"
        "    for p in prem:\n"
        "        if type(p) is not ReductiveTrace:",
    ),
    (
        "_check: a premise of a subclass of ReductiveTrace",
        S,
        "        if type(p) is not ReductiveTrace:\n",
        "        if not isinstance(p, ReductiveTrace):\n",
    ),
    (
        "_check: a name-leaf rule with premises (item 11: SR-Nom with premises)",
        S,
        "        return not prem and rule is not None and rule == tr.rule\n",
        "        return rule is not None and rule == tr.rule\n",
    ),
    (
        "_check: either name-leaf rule where one applies",
        S,
        "rule is not None and rule == tr.rule\n",
        "rule is not None\n",
    ),
    (
        "_check: a name leaf that no rule concludes, under a rule equal to every rule",
        S,
        " and rule is not None and rule == tr.rule\n",
        " and rule == tr.rule\n",
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
        "(SR_UNION_R1, SR_UNION_R2) and isinstance(rhs, Union) and len(prem) == 1:",
        "(SR_UNION_R1, SR_UNION_R2) and len(prem) == 1:",
    ),
    (
        "_check: SR-UnionR premise count",
        S,
        "(SR_UNION_R1, SR_UNION_R2) and isinstance(rhs, Union) and len(prem) == 1:",
        "(SR_UNION_R1, SR_UNION_R2) and isinstance(rhs, Union) and len(prem) >= 1:",
    ),
    (
        "_check: SR-UnionR from another left side",
        S,
        "_concludes(prem[0], lhs, arm)",
        "_concludes(prem[0], prem[0].lhs, arm)",
    ),
    (
        "_check: SR-UnionR to another right side",
        S,
        "_concludes(prem[0], lhs, arm)",
        "_concludes(prem[0], lhs, prem[0].rhs)",
    ),
    (
        "_check: SR-UnionR arms swapped",
        S,
        "arm = rhs.left if tr.rule == SR_UNION_R1 else rhs.right",
        "arm = rhs.right if tr.rule == SR_UNION_R1 else rhs.left",
    ),
    (
        "_check: SR-NF below SR-NF",
        S,
        "    if tr.rule == SR_NF and nf_allowed and len(prem) == 1:\n",
        "    if tr.rule == SR_NF and len(prem) == 1:\n",
    ),
    (
        "_check: SR-NF premise count",
        S,
        "    if tr.rule == SR_NF and nf_allowed and len(prem) == 1:\n",
        "    if tr.rule == SR_NF and nf_allowed and len(prem) >= 1:\n",
    ),
    (
        "_check: SR-NF on a childless abstract name",
        S,
        "        except EmptyAbstract:\n            return False\n",
        "        except EmptyAbstract:\n            return True\n",
    ),
    (
        "_check: SR-NF from another left side",
        S,
        "_concludes(prem[0], normed, rhs)",
        "_concludes(prem[0], prem[0].lhs, rhs)",
    ),
    (
        "_check: SR-NF to another right side",
        S,
        "_concludes(prem[0], normed, rhs)",
        "_concludes(prem[0], normed, prem[0].rhs)",
    ),
    ("_check: SR-NF premise normalizing again", S, "nf_allowed=False)\n", "nf_allowed=True)\n"),
    # check_declarative, the declarative derivation checker.
    (
        "check_declarative: an unknown rule (item 11)",
        D,
        "        return u is not None and _same(rhs, u)\n    return False\n",
        "        return u is not None and _same(rhs, u)\n    return True\n",
    ),
    (
        "check_declarative: premises that are no tuple",
        D,
        "    if type(prem) is not tuple:\n        return False\n",
        "",
    ),
    (
        "check_declarative: premises in a subclass of tuple",
        D,
        "    if type(prem) is not tuple:\n",
        "    if not isinstance(prem, tuple):\n",
    ),
    (
        "check_declarative: a premise of a subclass of Derivation",
        D,
        "        if type(p) is not Derivation:\n",
        "        if not isinstance(p, Derivation):\n",
    ),
    (
        "check_declarative: SD-Trans, first premise off the witness",
        D,
        "_concludes(prem[0], lhs, d.witness)",
        "_concludes(prem[0], lhs, prem[0].rhs)",
    ),
    (
        "check_declarative: SD-Trans, second premise off the witness",
        D,
        "_concludes(prem[1], d.witness, rhs)",
        "_concludes(prem[1], prem[1].lhs, rhs)",
    ),
    (
        "check_declarative: SD-Trans from another left side",
        D,
        "_concludes(prem[0], lhs, d.witness)",
        "_concludes(prem[0], prem[0].lhs, d.witness)",
    ),
    (
        "check_declarative: SD-Trans to another right side",
        D,
        "_concludes(prem[1], d.witness, rhs)",
        "_concludes(prem[1], d.witness, prem[1].rhs)",
    ),
    (
        "check_declarative: SD-Trans second premise unchecked",
        D,
        "            and _check_derivation(h, prem[0], mode)\n"
        "            and _check_derivation(h, prem[1], mode)\n"
        "        )\n"
        "    if d.witness is not None:\n",
        "            and _check_derivation(h, prem[0], mode)\n"
        "        )\n"
        "    if d.witness is not None:\n",
    ),
    (
        "check_declarative: a witness where the rule has none",
        D,
        "    if d.witness is not None:\n        return False\n",
        "",
    ),
    (
        "check_declarative: second premise of SD-Pair or SD-UnionL unchecked",
        D,
        "            _split_premises(d.rule == SD_PAIR, lhs, rhs, prem)\n"
        "            and _check_derivation(h, prem[0], mode)\n"
        "            and _check_derivation(h, prem[1], mode)\n",
        "            _split_premises(d.rule == SD_PAIR, lhs, rhs, prem)\n"
        "            and _check_derivation(h, prem[0], mode)\n",
    ),
    (
        "check_declarative: an axiom with premises (item 11: SD-UnionR with premises)",
        D,
        "    if prem:  # every other rule is an axiom\n        return False\n",
        "",
    ),
    (
        "check_declarative: SD-Refl by ==",
        D,
        "        return _same(lhs, rhs)\n",
        "        return lhs == rhs\n",
    ),
    (
        "check_declarative: SD-Refl between any sides",
        D,
        "        return _same(lhs, rhs)\n",
        "        return True\n",
    ),
    (
        "check_declarative: SD-Nom from an undeclared name (item 11)",
        D,
        "            _declared(h, n)\n            and _declared(h, m)\n",
        "            _declared(h, m)\n",
    ),
    (
        "check_declarative: SD-Nom to an undeclared name",
        D,
        "            _declared(h, n)\n            and _declared(h, m)\n",
        "            _declared(h, n)\n",
    ),
    ("check_declarative: SD-Nom on one name", D, "            and m.text != n.text\n", ""),
    (
        "check_declarative: SD-Nom outside h's ancestor sets",
        D,
        "            and m.text in h._above[n.text]\n",
        "",
    ),
    (
        "check_declarative: SD-AbsUnion in atomic mode",
        D,
        "            mode is not Mode.ATOMIC\n            and _declared(h, n)\n",
        "            _declared(h, n)\n",
    ),
    (
        "check_declarative: SD-AbsUnion on an undeclared name",
        D,
        "            mode is not Mode.ATOMIC\n            and _declared(h, n)\n",
        "            mode is not Mode.ATOMIC\n",
    ),
    (
        "check_declarative: SD-AbsUnion on a concrete name (item 11)",
        D,
        "            and n.abstract\n",
        "",
    ),
    (
        "check_declarative: SD-AbsUnion on a childless abstract name",
        D,
        "            and bool(h._concrete_desc[n.text])\n",
        "",
    ),
    (
        "check_declarative: SD-AbsUnion by ==",
        D,
        "_same(rhs, descendant_union(h, n))",
        "rhs == descendant_union(h, n)",
    ),
    (
        "check_declarative: SD-AbsUnion to any union",
        D,
        "_same(rhs, descendant_union(h, n))",
        "descendant_union(h, n) is not None",
    ),
    (
        "check_declarative: SD-UnionR to a non-union",
        D,
        "        if type(rhs) is not Union:\n            return False\n        try:\n",
        "        try:\n",
    ),
    (
        "check_declarative: SD-UnionR by ==",
        D,
        "        return _same(lhs, arm)\n",
        "        return lhs == arm\n",
    ),
    (
        "check_declarative: SD-UnionR arms swapped",
        D,
        "arm = rhs.left if d.rule == SD_UNION_R1 else rhs.right",
        "arm = rhs.right if d.rule == SD_UNION_R1 else rhs.left",
    ),
    (
        "check_declarative: SD-Distr from a non-pair",
        D,
        "        u = _distribute(lhs, d.rule) if type(lhs) is Pair else None\n",
        "        u = _distribute(lhs, d.rule)\n",
    ),
    (
        "check_declarative: SD-Distr by ==",
        D,
        "        return u is not None and _same(rhs, u)\n",
        "        return u is not None and rhs == u\n",
    ),
    (
        "_distribute: its rule ignored",
        D,
        "        u = x if rule == SD_DISTR1 else y\n",
        "        u = x if type(x) is Union else y\n",
    ),
    (
        "_distribute: SD-Distr from a pair without a union there",
        D,
        "        if type(u) is not Union:\n            return None\n",
        "",
    ),
    # The root of each checker read once, and a subclass's accept record
    # never trusted.
    (
        "_root: a subclass's root read again",
        S,
        "        return ReductiveTrace(trace.rule, trace.lhs, trace.rhs, trace.premises)\n",
        "        return trace\n",
    ),
    (
        "_root: a subclass's accept record read",
        S,
        "    if type(trace) is ReductiveTrace or type(trace) is _OnDemandTrace:\n",
        "    if isinstance(trace, ReductiveTrace):\n",
    ),
    (
        "check_declarative: a subclass's root read again",
        D,
        "        d = Derivation(d.rule, d.lhs, d.rhs, d.premises, d.witness)\n",
        "",
    ),
    (
        "synthesize: a subclass's root read again",
        D,
        "    trace = _root(trace)\n    if trace is None or not check_reductive_trace(h, trace, mode):\n",
        "    if not check_reductive_trace(h, trace, mode):\n",
    ),
    # Types whose slots were never set: each read that can meet one.
    (
        "_is_type: a slot never set raises",
        S,
        "    except AttributeError:  # a slot never set, in a value made by __new__ alone\n",
        "    except ZeroDivisionError:\n",
    ),
    (
        "_declared: a slot never set raises",
        S,
        "declared.abstract is n.abstract\n    except AttributeError:",
        "declared.abstract is n.abstract\n    except ZeroDivisionError:",
    ),
    (
        "_same: a slot never set raises",
        S,
        "m.abstract is n.abstract)\n    except AttributeError:",
        "m.abstract is n.abstract)\n    except ZeroDivisionError:",
    ),
    (
        "premises: a slot never set raises",
        S,
        "            return False\n    except AttributeError:  # a slot never set\n        return False\n"
        "    return len(prem)",
        "            return False\n    except ZeroDivisionError:\n        return False\n"
        "    return len(prem)",
    ),
    (
        "check_declarative: SD-Nom or SD-AbsUnion reads a name never set",
        D,
        'n = getattr(lhs, "name", None) if type(lhs) is Name else None',
        "n = lhs.name if type(lhs) is Name else None",
    ),
    (
        "check_declarative: SD-Nom reads a right name never set",
        D,
        'm = getattr(rhs, "name", None) if type(rhs) is Name else None',
        "m = rhs.name if type(rhs) is Name else None",
    ),
    (
        "check_declarative: SD-UnionR reads an arm never set",
        D,
        "            arm = rhs.left if d.rule == SD_UNION_R1 else rhs.right\n        except AttributeError:",
        "            arm = rhs.left if d.rule == SD_UNION_R1 else rhs.right\n        except ZeroDivisionError:",
    ),
    (
        "_distribute: a slot never set raises",
        D,
        "    except AttributeError:  # a slot never set\n        return None\n",
        "    except ZeroDivisionError:\n        return None\n",
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
    # One mutant at a time per CPU that this process may run on.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    jobs = max(1, min(cpus, len(mutants)))
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
