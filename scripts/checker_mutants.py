#!/usr/bin/env python3
"""Mutation check of the proof checkers, the derivation builder and _Node's short paths.

Each listed mutant is one textual change to a module of ``src/tagsub``.  The
script copies ``src/`` and ``tests/`` to a temporary directory, runs the
tests there unmutated, and then, for each mutant alone, applies it to the
copy and runs the tests again.  A mutant is killed when a test fails and
survives when every test passes.  The default tests are the proof test files:

    pytest -x -q tests/test_subtyping.py tests/test_derivation.py \\
        tests/test_verdict.py tests/test_acceptance.py

with the mutated module's own test file moved to the front, since it is the
likeliest to fail first.

Exits 0 when every mutant is killed, 1 when one survives, and 2 when the
unmutated copy fails or a mutant no longer matches the source exactly once.
It tests as many mutants at once as the process may use CPUs, each on its
own copy; on 2 CPUs the 96 mutants took 3 min 7 s.  It uses the standard
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
S, D, C = "subtyping.py", "derivation.py", "core.py"

#: (label, module, text, replacement): the text occurs once in the module.
MUTANTS = [
    # _kernel, the one walk of both checkers: the root, the premises'
    # count, class and sides, the stack and the one try.
    (
        "_kernel: root left side untested",
        S,
        "(_is_type(h, root.lhs) and _is_type(h, root.rhs))",
        "_is_type(h, root.rhs)",
    ),
    (
        "_kernel: root right side untested",
        S,
        "(_is_type(h, root.lhs) and _is_type(h, root.rhs))",
        "_is_type(h, root.lhs)",
    ),
    (
        "_kernel: premises that are no tuple",
        S,
        "if want is None or type(prem) is not tuple:",
        "if want is None:",
    ),
    (
        "_kernel: premises in a subclass of tuple",
        S,
        "if want is None or type(prem) is not tuple:",
        "if want is None or not isinstance(prem, tuple):",
    ),
    (
        "_kernel: the premise count of a rule with premises ignored",
        S,
        "                if len(prem) != n:\n                    return None\n",
        "",
    ),
    ("_kernel: premises of an axiom ignored", S, "            elif prem:\n                return None\n", ""),
    (
        "_kernel: a premise of a subclass of the node class",
        S,
        "ok = type(p) is cls and",
        "ok = isinstance(p, cls) and",
    ),
    (
        "_kernel: a premise's left side unread",
        S,
        "ok = type(p) is cls and (p.lhs is lhs or _same(p.lhs, lhs))",
        "ok = type(p) is cls",
    ),
    (
        "_kernel: a premise's right side unread",
        S,
        "if not (ok and (p.rhs is rhs or _same(p.rhs, rhs))):",
        "if not ok:",
    ),
    (
        "_kernel: the SR-NF flag not carried down",
        S,
        "lhs, rhs, flag = want[n]",
        "lhs, rhs, _ = want[n]",
    ),
    (
        "_kernel: the second premise never pushed",
        S,
        "                    if n:\n                        todo.append((p, flag))\n",
        "",
    ),
    (
        "_kernel: the first premise never checked",
        S,
        "                node = p\n",
        "                if not todo:\n                    return root\n                node, flag = todo.pop()\n",
    ),
    (
        "_kernel: a slot never set gives True",
        S,
        "    except AttributeError:\n        return None\n",
        "    except AttributeError:\n        return root\n",
    ),
    # The root of each checker read once, and a subclass's accept record
    # never trusted.
    (
        "_root: a subclass's root read again",
        S,
        "return cls(*[getattr(node, f) for f in cls.__match_args__]) if isinstance(node, cls) else None",
        "return node if isinstance(node, cls) else None",
    ),
    (
        "_accepted: a subclass's accept record read",
        S,
        "own = type(trace) is ReductiveTrace or type(trace) is _OnDemandTrace",
        "own = isinstance(trace, ReductiveTrace)",
    ),
    (
        "synthesize: a subclass's root read again",
        D,
        "    trace = _accepted(h, trace, mode)\n    if trace is None:\n",
        "    if _accepted(h, trace, mode) is None:\n",
    ),
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
        "        if kind is Pair or kind is Union:\n",
        "        if issubclass(kind, (Pair, Union)):\n",
    ),
    (
        "_is_type: a subclass of Name",
        S,
        "        elif kind is not Name or not _declared(h, x.name):\n",
        "        elif not issubclass(kind, Name) or not _declared(h, x.name):\n",
    ),
    (
        "_is_type: a leaf name undeclared",
        S,
        "        elif kind is not Name or not _declared(h, x.name):\n",
        "        elif kind is not Name:\n",
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
    # _same, which compares a premise's sides with the ones its node's rule
    # gives it, and the sides that the declarative axioms relate.
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
    # _check, the reductive rule table, and _name_rule, its name-leaf rows
    # SR-BaseRefl and SR-Nom: one per condition.
    (
        "_check: an unknown rule (item 11)",
        S,
        "            return None\n    return None\n",
        "            return None\n    return ()\n",
    ),
    (
        "_check: a rule label of a subclass of str",
        S,
        "    if type(rule) is not str:\n        return None\n",
        "",
    ),
    (
        "_check: either name-leaf rule where one applies",
        S,
        "return () if _name_rule(h, lhs, rhs, mode) == rule else None",
        "return () if _name_rule(h, lhs, rhs, mode) is not None else None",
    ),
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
    (
        "_check: SR-UnionR to a non-union",
        S,
        "(rule == SR_UNION_R1 or rule == SR_UNION_R2) and type(rhs) is Union:",
        "(rule == SR_UNION_R1 or rule == SR_UNION_R2):",
    ),
    (
        "_check: SR-UnionR from another left side",
        S,
        "return ((lhs, rhs.left if rule == SR_UNION_R1",
        "return ((tr.premises[0].lhs, rhs.left if rule == SR_UNION_R1",
    ),
    (
        "_check: SR-UnionR to another right side",
        S,
        "return ((lhs, rhs.left if rule == SR_UNION_R1 else rhs.right, nf_allowed),)",
        "return ((lhs, tr.premises[0].rhs, nf_allowed),)",
    ),
    (
        "_check: SR-UnionR arms swapped",
        S,
        "rhs.left if rule == SR_UNION_R1 else rhs.right",
        "rhs.right if rule == SR_UNION_R1 else rhs.left",
    ),
    ("_check: SR-NF below SR-NF", S, "    if rule == SR_NF and nf_allowed:\n", "    if rule == SR_NF:\n"),
    (
        "_check: SR-NF on a childless abstract name",
        S,
        "        except EmptyAbstract:\n            return None\n",
        "        except EmptyAbstract:\n            return ()\n",
    ),
    (
        "_check: SR-NF from another left side",
        S,
        "return ((nf_for_mode(h, lhs, mode), rhs, False),)",
        "return ((tr.premises[0].lhs, rhs, False),)",
    ),
    (
        "_check: SR-NF to another right side",
        S,
        "return ((nf_for_mode(h, lhs, mode), rhs, False),)",
        "return ((nf_for_mode(h, lhs, mode), tr.premises[0].rhs, False),)",
    ),
    ("_check: SR-NF premise normalizing again", S, "rhs, False),)", "rhs, nf_allowed),)"),
    # _pair and _union_l, the rows that SR-Pair and SD-Pair and SR-UnionL
    # and SD-UnionL share: one per condition.
    (
        "_pair: from a non-pair",
        S,
        "    if type(lhs) is Pair and type(rhs) is Pair:\n",
        "    if type(rhs) is Pair:\n",
    ),
    (
        "_pair: to a non-pair",
        S,
        "    if type(lhs) is Pair and type(rhs) is Pair:\n",
        "    if type(lhs) is Pair:\n",
    ),
    (
        "_pair: over a subclass of Pair",
        S,
        "    if type(lhs) is Pair and type(rhs) is Pair:\n",
        "    if isinstance(lhs, Pair) and isinstance(rhs, Pair):\n",
    ),
    (
        "_pair: crosswise",
        S,
        "return (lhs.left, rhs.left, flag), (lhs.right, rhs.right, flag)",
        "return (lhs.left, rhs.right, flag), (lhs.right, rhs.left, flag)",
    ),
    ("_union_l: from a non-union", S, "    if type(lhs) is Union:\n", "    if True:\n"),
    (
        "_union_l: arms swapped",
        S,
        "return (lhs.left, rhs, flag), (lhs.right, rhs, flag)",
        "return (lhs.right, rhs, flag), (lhs.left, rhs, flag)",
    ),
    # _step, the declarative rule table: one per condition.
    (
        "_step: an unknown rule (item 11)",
        D,
        "    else:\n        return None\n    return () if ok else None",
        "    else:\n        return ()\n    return () if ok else None",
    ),
    ("_step: a rule label of a subclass of str", D, "    if type(rule) is not str:\n        return None\n", ""),
    (
        "_step: SD-Trans, first premise off the witness",
        D,
        "return (lhs, w, flag), (w, rhs, flag)",
        "return (lhs, d.premises[0].rhs, flag), (w, rhs, flag)",
    ),
    (
        "_step: SD-Trans, second premise off the witness",
        D,
        "return (lhs, w, flag), (w, rhs, flag)",
        "return (lhs, w, flag), (d.premises[1].lhs, rhs, flag)",
    ),
    (
        "_step: SD-Trans from another left side",
        D,
        "return (lhs, w, flag), (w, rhs, flag)",
        "return (d.premises[0].lhs, w, flag), (w, rhs, flag)",
    ),
    (
        "_step: SD-Trans to another right side",
        D,
        "return (lhs, w, flag), (w, rhs, flag)",
        "return (lhs, w, flag), (w, d.premises[1].rhs, flag)",
    ),
    ("_step: a witness where the rule has none", D, "    if w is not None:\n        return None\n", ""),
    ("_step: SD-Refl by ==", D, "        ok = _same(lhs, rhs)\n", "        ok = lhs == rhs\n"),
    ("_step: SD-Refl between any sides", D, "        ok = _same(lhs, rhs)\n", "        ok = True\n"),
    (
        "_step: SD-Nom from an undeclared name (item 11)",
        D,
        "_declared(h, n) and _declared(h, m) and m.text",
        "_declared(h, m) and m.text",
    ),
    (
        "_step: SD-Nom to an undeclared name",
        D,
        "_declared(h, n) and _declared(h, m) and m.text",
        "_declared(h, n) and m.text",
    ),
    ("_step: SD-Nom on one name", D, " and m.text != n.text", ""),
    ("_step: SD-Nom outside h's ancestor sets", D, " and m.text in h._above[n.text]", ""),
    (
        "_step: SD-AbsUnion in atomic mode",
        D,
        "ok = mode is not Mode.ATOMIC and _declared(h, n) and n.abstract",
        "ok = _declared(h, n) and n.abstract",
    ),
    (
        "_step: SD-AbsUnion on an undeclared name",
        D,
        "ok = mode is not Mode.ATOMIC and _declared(h, n) and n.abstract",
        "ok = mode is not Mode.ATOMIC and n.abstract",
    ),
    (
        "_step: SD-AbsUnion on a concrete name (item 11)",
        D,
        "ok = mode is not Mode.ATOMIC and _declared(h, n) and n.abstract",
        "ok = mode is not Mode.ATOMIC and _declared(h, n)",
    ),
    (
        "_step: SD-AbsUnion on a childless abstract name",
        D,
        "ok and bool(h._concrete_desc[n.text]) and ",
        "ok and ",
    ),
    (
        "_step: SD-AbsUnion by ==",
        D,
        "_same(rhs, descendant_union(h, n))",
        "rhs == descendant_union(h, n)",
    ),
    (
        "_step: SD-AbsUnion to any union",
        D,
        "_same(rhs, descendant_union(h, n))",
        "descendant_union(h, n) is not None",
    ),
    (
        "_step: SD-UnionR to a non-union",
        D,
        "ok = type(rhs) is Union and _same(lhs, ",
        "ok = _same(lhs, ",
    ),
    (
        "_step: SD-UnionR by ==",
        D,
        "_same(lhs, rhs.left if rule == SD_UNION_R1 else rhs.right)",
        "lhs == (rhs.left if rule == SD_UNION_R1 else rhs.right)",
    ),
    (
        "_step: SD-UnionR arms swapped",
        D,
        "rhs.left if rule == SD_UNION_R1 else rhs.right",
        "rhs.right if rule == SD_UNION_R1 else rhs.left",
    ),
    (
        "_step: SD-Distr from a non-pair",
        D,
        "u = _distribute(lhs, rule) if type(lhs) is Pair else None",
        "u = _distribute(lhs, rule)",
    ),
    (
        "_step: SD-Distr by ==",
        D,
        "ok = u is not None and _same(rhs, u)",
        "ok = u is not None and rhs == u",
    ),
    (
        "_distribute: its rule ignored",
        D,
        "    u = x if rule == SD_DISTR1 else y\n",
        "    u = x if type(x) is Union else y\n",
    ),
    (
        "_distribute: SD-Distr from a pair without a union there",
        D,
        "    if type(u) is not Union:\n        return None\n",
        "",
    ),
    # The derivation builder behind synthesize, derive_sub_nf and
    # derive_nf_sub: the injection, the SD-Trans witness, the SD-Refl premise
    # that a componentwise SD-Pair keeps, and the side tests that must fall
    # back from identity to _same (the tests over fresh copies kill them).
    (
        "_inj: SD-UnionR1 and SD-UnionR2 swapped",
        D,
        "target.left if rule == SD_UNION_R1 else target.right",
        "target.right if rule == SD_UNION_R1 else target.left",
    ),
    (
        "_trans: the witness taken from the second premise",
        D,
        "(d1, d2), d1.rhs)",
        "(d1, d2), d2.rhs)",
    ),
    (
        "_nf_proof: the SD-Refl premise of a componentwise SD-Pair dropped",
        D,
        "(dl or _refl(ln), dr or _refl(rn))",
        "tuple(d for d in (dl, dr) if d)",
    ),
    (
        "_synth: an injection's arm tested by identity only",
        D,
        "d = None if lhs is arm or _same(lhs, arm) else",
        "d = None if lhs is arm else",
    ),
    (
        "_synth: SR-Nom's sides tested by identity only",
        D,
        "_refl(lhs) if lhs is rhs or _same(lhs, rhs) else",
        "_refl(lhs) if lhs is rhs else",
    ),
    # _Node's short path for one part, which every level of a one-target
    # verdict takes: a name's bits and a pair's arm.
    (
        "_Node: a one-part name filed with bits 0",
        S,
        "bits, {t.name.text: bits}, []",
        "bits, {t.name.text: 0}, []",
    ),
    (
        "_Node: a one-part pair filed with no arm",
        S,
        "bits, {}, [(bits, t)]",
        "bits, {}, []",
    ),
    # _Node's early exits, where a false verdict stops: what is left of t1
    # is still checked, only a zero ends an AND, and a right child is built
    # from the right components.
    (
        "_Node.mask: the rest of the spine not validated after a zero",
        S,
        "if not out:\n                validate_type(node.h, t, node.mode is Mode.SEMANTIC)\n",
        "if not out:\n",
    ),
    (
        "_Node.mask: the remaining union arms not validated after a zero",
        S,
        "if not out:\n                    validate_type(node.h, x, node.mode is Mode.SEMANTIC)\n",
        "if not out:\n                    pass\n",
    ),
    (
        "_Node._name: the descendant AND stopping on a nonzero mask",
        S,
        "if not out:\n                        break\n",
        "if out:\n                        break\n",
    ),
    (
        "_Node._child: the right child built from the left components",
        S,
        "p.right if right else p.left",
        "p.left",
    ),
    (
        "_Node.covers: the right component not validated at a zero left set",
        S,
        "            validate_type(self.h, t.right, self.mode is Mode.SEMANTIC)\n            return ls\n",
        "            return ls\n",
    ),
    # The record of the hierarchy that parse_type built a type over, trusted
    # only for this hierarchy object, only on a root of exactly Pair or
    # Union, and by validate_type only without a childless abstract name
    # under nonempty.
    (
        "_parsed_by: a record of any hierarchy trusted",
        C,
        'getattr(t, "_parsed", None) is h',
        'getattr(t, "_parsed", None) is not None',
    ),
    (
        "_parsed_by: a record on a subclass trusted",
        C,
        "    kind = type(t)\n    return (kind is Pair or kind is Union) and",
        "    return isinstance(t, (Pair, Union)) and",
    ),
    (
        "validate_type: the record trusted under nonempty with a childless abstract name",
        C,
        "    if not (nonempty and h._childless) and _parsed_by(h, t):\n",
        "    if _parsed_by(h, t):\n",
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
            # Every file still runs until the first failure, so the order
            # changes no verdict, only how soon a killed mutant stops.
            own = f"tests/test_{module}"
            try:
                path.write_text(sources[module].replace(text, replacement))
                passed, seconds = run_tests(copy, sorted(tests, key=lambda t: t != own))
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
