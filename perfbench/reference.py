"""Reference answers, computed in the parent process before any timed work.

Verdicts come from the set-based oracle ``semantic_sub``; in the semantic
mode they are cross-checked against ``matching_sub``, and a pair on which
the two oracles disagree gets the answer ``X``, which no run can match.
Dispatch outcomes are the brute-force minimum over the same set inclusion.
``arity`` answers are known by construction.

Running this file prints the digests committed in ``expected.json`` for the
default seed, so a change that breaks the oracle and the procedure together
still fails the benchmark there::

    PYTHONPATH=src python3 perfbench/reference.py > perfbench/expected.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs as gen  # noqa: E402

DEFAULT_SEED = 1


def _lib():
    from tagsub import core, frontend, semantics

    return core, frontend, semantics


def queries(inp) -> str:
    """One character per (query, mode), in the order the worker runs them."""
    core, front, sem = _lib()
    hs = [core.parse_hierarchy(text) for text in inp["hierarchies"]]
    memo: dict = {}
    out = []
    for hi, a, b, _strategy, _proof in inp["queries"]:
        h = hs[hi]
        for mode in (sem.Mode.SEMANTIC, sem.Mode.ATOMIC):
            key = (hi, a, b, mode)
            if key not in memo:
                t1, t2 = front.parse_type(a, h), front.parse_type(b, h)
                verdict = sem.semantic_sub(h, t1, t2, mode)
                if mode is sem.Mode.SEMANTIC and sem.matching_sub(h, t1, t2) != verdict:
                    memo[key] = "X"
                else:
                    memo[key] = "1" if verdict else "0"
            out.append(memo[key])
    return "".join(out)


def _outcomes(h, mode, methods, calls) -> dict[str, str]:
    """Outcome per distinct call text, encoded like ``worker.encode_outcome``.

    ``semantic_sub`` is inclusion of interpretations; each type's
    interpretation is computed once and the inclusions are tested directly.
    """
    _, front, sem = _lib()
    interp: dict = {}

    def den(src):
        if src not in interp:
            interp[src] = sem.interp(h, front.parse_type(src, h), mode)
        return interp[src]

    out = {}
    for call in dict.fromkeys(calls):
        app = [(body, sig) for body, sig in methods if den(call) <= den(sig)]
        if not app:
            out[call] = "N"
            continue
        least = [b for b, s in app if all(den(s) <= den(o) for _, o in app)]
        if least:
            out[call] = "S:" + least[0]
            continue
        minimal = [
            b for b, s in app if not any(den(o) < den(s) for _, o in app)
        ]
        out[call] = "A:" + ",".join(sorted(minimal))
    return out


def _methods(text):
    mode, methods = None, []
    for line in text.splitlines():
        if line.startswith("mode "):
            mode = line.split()[1]
        elif line.startswith("method "):
            sig, body = line.split(None, 2)[2].rsplit("=>", 1)
            methods.append((body.strip(), sig.strip()))
    return mode, methods


def dispatch(inp) -> list[str]:
    """Expected outcomes of one round: per table, its stream in each mode."""
    core, _, sem = _lib()
    h = core.parse_hierarchy(inp["hierarchies"][0])
    out = []
    for spec in inp["tables"]:
        for text in spec["method_files"]:
            mode, methods = _methods(text)
            table = _outcomes(h, sem.Mode(mode), methods, spec["stream"])
            out += [table[c] for c in spec["stream"]]
    return out


def arity(inp) -> list[str]:
    """Fixed part, per k and mode: Num^k <: Num^k holds, the other does not."""
    return ["1", "0"] * (len(inp["fixed"]) * 2)


ANSWERS = {"queries": queries, "arity": arity, "dispatch": dispatch}


def answers_digest(answers) -> str:
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def expected_digests(seed: int = DEFAULT_SEED) -> dict:
    out = {"seed": seed, "inputs": {}, "answers": {}}
    for name in ANSWERS:
        inp = gen.generate(name, seed)
        out["inputs"][name] = gen.digest(inp)
        out["answers"][name] = answers_digest(ANSWERS[name](inp))
    return out


if __name__ == "__main__":
    json.dump(expected_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
