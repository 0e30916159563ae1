#!/usr/bin/env python3
"""SHA-256 digests of everything the decision procedure and the synthesizer print.

Run it on two checkouts to show that a refactoring left the output
byte-identical.  Each line digests one section:

- ``depth2``: verdict, ``format_trace`` and ``format_derivation(synthesize(...))``
  for all 6,084 depth-2 pairs over the built-in hierarchy, in both modes and
  with both strategies;
- ``random``: the same for seeded random pairs over ``random_hierarchy``;
- ``nf-derivations``: ``derive_sub_nf`` and ``derive_nf_sub`` for every type of
  depth at most three over the built-in hierarchy, in both modes;
- ``parse``: the outcome of ``parse_type`` on every string of at most five
  tokens over ``PARSE_ALPHABET``: the printed type, or the error's class,
  message and position;
- ``dispatch``: seeded ``random_hierarchy`` tables of two functions, built
  with ``add_method`` in both modes: each table's method bodies, then the
  outcome of ``resolve`` on random calls (``S:`` and the selected body,
  ``A:`` and the candidates' bodies in order, ``N``, or the error's class);
- ``add-method``: seeded insertion sequences over ``random_hierarchy`` plus a
  childless abstract name, in both modes, some starting from a table built by
  hand that holds an undeclared name: after every insertion, the resulting
  table's method bodies, or the error's class and message;
- ``parse-methods``: seeded method files over ``random_hierarchy`` plus a
  childless abstract name, read with ``parse_methods`` in both modes: files of
  two functions with repeated signatures, signatures equivalent only in
  semantic mode (an abstract name spelled as its concrete descendants), now
  and then a signature naming the childless name or an undeclared one; each
  file's method bodies, or the error's class and message;
- ``methods-file``: seeded method files over ``random_hierarchy`` plus a
  childless abstract name, read with ``parse_methods`` in both modes and then
  resolved: some files hold a line naming the childless name and, before or
  after it, a malformed line, a second ``mode`` line or a line naming an
  undeclared name; each file's error class and message, or its method bodies
  and the outcomes of seeded calls of ``f``, ``g`` and the undefined ``h``
  (as for ``dispatch``, but with the error's message);
- ``errors``: seeded ``reductive_sub`` queries over ``random_hierarchy`` plus
  a childless abstract name, in both modes and with both strategies, and
  ``resolve`` calls on tables built with ``add_method`` in both modes; each
  query or call holds one bad name, on either side and at any position: an
  undeclared name, a declared name of the other kind, or the childless name;
  each verdict or outcome, or the error's class and message;
- ``interp``: every type of depth at most two over the built-in hierarchy and
  seeded weight-bounded random types over ``random_hierarchy``: its tag set
  under ``format_tag_set(interp(...))`` in both modes, the outcome of
  ``matches`` for every value type of depth at most two, and its
  ``type_to_tag``, or the error's class and message.

Usage:
    PYTHONPATH=src python3 scripts/output_digests.py [--seed 808] [--random 9000]

With the defaults the output is pinned in ``scripts/output_digests.expected``:
    PYTHONPATH=src python3 scripts/output_digests.py | diff - scripts/output_digests.expected
"""

import argparse
import hashlib
import itertools
import random

from tagsub.core import (
    DEFAULT_HIERARCHY,
    Decl,
    Name,
    NominalHierarchy,
    NominalName,
    Pair,
    TagsubError,
    Union,
    UnknownName,
)
from tagsub.derivation import derive_nf_sub, derive_sub_nf, format_derivation, synthesize
from tagsub.dispatch import (
    Ambiguous,
    MethodDef,
    MethodTable,
    NoApplicableMethod,
    Selected,
    add_method,
    parse_methods,
    resolve,
)
from tagsub.frontend import ParseError, parse_type
from tagsub.gen import random_hierarchy, random_type, types_up_to, value_types_up_to
from tagsub.normalize import descendant_union
from tagsub.semantics import Mode, NotAValueType, format_tag_set, interp, matches, type_to_tag
from tagsub.subtyping import Strategy, format_trace, reductive_sub


# A concrete, an abstract and an undeclared name; every operator spelling;
# an ASCII and a unicode space; and three characters no token starts with
# (a zero-width space is not whitespace).
PARSE_ALPHABET = (
    "Int", "Num", "Foo", "*", "×", "|", "∪", "(", ")", " ", "\u2003", "\u200b", "3", "_",
)


def parse_outcomes(h, digest, max_tokens=5):
    count = 0
    for k in range(max_tokens + 1):
        for tokens in itertools.product(PARSE_ALPHABET, repeat=k):
            src = "".join(tokens)
            try:
                outcome = str(parse_type(src, h))
            except (ParseError, UnknownName) as e:
                outcome = f"{type(e).__name__}: {e} @ {e.position}"
            digest.update(f"{src!r} -> {outcome}\n".encode())
            count += 1
    return count


def _component(rng, h, width):
    names = rng.sample(h.names, min(len(h.names), rng.randint(1, width)))
    out = Name(names[0])
    for n in names[1:]:
        out = Union(out, Name(n))
    return out


def _signature(rng, h, width):
    # Mostly pairs of small unions, so that applicable signatures overlap
    # and are often incomparable; now and then any random type.
    if rng.random() < 0.85:
        return Pair(_component(rng, h, width), _component(rng, h, width))
    return random_type(rng, h, 3, 64)


def _outcome(out) -> str:
    if isinstance(out, Selected):
        return f"S:{out.method.body}"
    if isinstance(out, Ambiguous):
        return "A:" + ",".join(m.body for m in out.candidates)
    assert isinstance(out, NoApplicableMethod)
    return "N"


def dispatch_outcomes(seed, digest, tables=150, methods=10, calls=40):
    # Calls name a third, undefined function now and then, and a few carry a
    # name the hierarchy does not declare, so errors are digested too.
    rng = random.Random(seed)
    ghost = Name(NominalName("Ghost", False))
    count = 0
    for _ in range(tables):
        h = random_hierarchy(rng, 8)
        defs = [
            MethodDef(rng.choice("fg"), _signature(rng, h, 3), f"m{i}") for i in range(methods)
        ]
        stream = []
        for _ in range(calls):
            call = ghost if rng.random() < 0.02 else _signature(rng, h, 1)
            stream.append((rng.choice("fffffggggh"), call))
        for mode in Mode:
            tbl = MethodTable(h, mode)
            for d in defs:
                tbl = add_method(tbl, d)
            bodies = " ".join(m.body for m in tbl.methods)
            digest.update(f"table [{mode.value}] {bodies}\n".encode())
            for fn, call in stream:
                try:
                    outcome = _outcome(resolve(tbl, fn, call))
                except TagsubError as e:
                    outcome = type(e).__name__
                digest.update(f"{fn} {call} -> {outcome}\n".encode())
                count += 1
    return count


def add_method_outcomes(seed, digest, sequences=200, inserts=12):
    # Void has no concrete descendant, so in semantic mode a signature that
    # holds it raises EmptyAbstract when it is inserted.  A quarter of
    # the sequences start from a hand-built table whose second method holds
    # an undeclared name.
    rng = random.Random(seed)
    ghost = Name(NominalName("Ghost", False))
    count = 0
    for s in range(sequences):
        base = random_hierarchy(rng, 6)
        h = NominalHierarchy(base.decls + (Decl("Void", True),))
        void = Name(h.lookup("Void"))
        defs = []
        for i in range(inserts):
            sig = _signature(rng, base, 3)
            if rng.random() < 0.2:
                sig = Union(sig, void) if rng.random() < 0.5 else Pair(void, sig)
            defs.append(MethodDef(rng.choice("fg"), sig, f"m{i}"))
        start = ()
        if s % 4 == 0:
            start = (
                MethodDef(rng.choice("fg"), _signature(rng, base, 2), "h0"),
                MethodDef(rng.choice("fg"), Union(_signature(rng, base, 2), ghost), "h1"),
            )
        for mode in Mode:
            tbl = MethodTable(h, mode, methods=start)
            for d in defs:
                try:
                    tbl = add_method(tbl, d)
                except TagsubError as e:
                    outcome = f"{type(e).__name__}: {e}"
                else:
                    outcome = " ".join(m.body for m in tbl.methods)
                digest.update(f"{d.function} {d.signature} [{mode.value}] -> {outcome}\n".encode())
                count += 1
    return count


def _semantic_twin(rng, h, t):
    # A type equivalent to t in semantic mode: abstract names now and then
    # spelled as the union of their concrete descendants, which atomic mode
    # tells apart.
    if isinstance(t, Name):
        if t.name.abstract and rng.random() < 0.7:
            return descendant_union(h, t.name)
        return t
    return type(t)(_semantic_twin(rng, h, t.left), _semantic_twin(rng, h, t.right))


def parse_methods_outcomes(seed, digest, files=200, lines=12):
    # Void has no concrete descendant and Ghost is not declared; a line
    # naming either is not repeated.
    rng = random.Random(seed)
    count = 0
    for _ in range(files):
        base = random_hierarchy(rng, 6)
        h = NominalHierarchy(base.decls + (Decl("Void", True),))
        pool, text = [], []
        for i in range(lines):
            roll = rng.random()
            if pool and roll < 0.5:
                fn, src = rng.choice(pool)
                if roll >= 0.25:
                    src = str(_semantic_twin(rng, base, parse_type(src, base)))
            else:
                fn, src = rng.choice("fg"), str(_signature(rng, base, 3))
            pool.append((fn, src))
            roll = rng.random()
            if roll < 0.03:
                src = f"Void|{src}"
            elif roll < 0.05:
                src = f"({src})*Ghost"
            text.append(f"method {fn} {src} => m{i}")
        digest.update("\n".join(text).encode() + b"\n")
        for mode in Mode:
            try:
                tbl = parse_methods("\n".join([f"mode {mode.value}", *text]), h)
            except TagsubError as e:
                outcome = f"{type(e).__name__}: {e}"
            else:
                outcome = " ".join(m.body for m in tbl.methods)
            digest.update(f"[{mode.value}] -> {outcome}\n".encode())
            count += 1
    return count


def methods_file_outcomes(seed, digest, files=200, lines=10, calls=20):
    # Two files in three hold a line naming Void, which has no concrete
    # descendant; half of those also hold a bad line, before or after it.
    rng = random.Random(seed)
    bad_lines = ["method f Int -> mX", "mode atomic", "method g Int|Ghost => mG"]
    count = 0
    for _ in range(files):
        base = random_hierarchy(rng, 6)
        h = NominalHierarchy(base.decls + (Decl("Void", True),))
        text = [
            f"method {rng.choice('fg')} {_signature(rng, base, 3)} => m{i}" for i in range(lines)
        ]
        roll = rng.random()
        if roll < 2 / 3:
            extra = [f"method {rng.choice('fg')} Void*({_signature(rng, base, 2)}) => mV"]
            if roll < 1 / 3:
                extra.insert(rng.randrange(2), rng.choice(bad_lines))
            at = sorted(rng.randrange(lines + 1) for _ in extra)
            for k, (i, line) in enumerate(zip(at, extra)):
                text.insert(i + k, line)
        stream = [(rng.choice("ffffgggh"), _signature(rng, h, 1)) for _ in range(calls)]
        digest.update("\n".join(text).encode() + b"\n")
        for mode in Mode:
            try:
                tbl = parse_methods("\n".join([f"mode {mode.value}", *text]), h)
            except TagsubError as e:
                digest.update(f"[{mode.value}] -> {type(e).__name__}: {e}\n".encode())
                count += 1
                continue
            bodies = " ".join(m.body for m in tbl.methods)
            digest.update(f"[{mode.value}] -> {bodies}\n".encode())
            for fn, call in stream:
                try:
                    outcome = _outcome(resolve(tbl, fn, call))
                except TagsubError as e:
                    outcome = f"{type(e).__name__}: {e}"
                digest.update(f"{fn} {call} -> {outcome}\n".encode())
                count += 1
    return count


def _rename(h, t, at=-1, bad=None):
    # t with its names taken from h, and its name number at (left to right)
    # replaced by bad.
    seen = []

    def rebuild(x):
        if isinstance(x, Name):
            seen.append(x)
            return bad if len(seen) - 1 == at else Name(h.lookup(x.name.text))
        return type(x)(rebuild(x.left), rebuild(x.right))

    return rebuild(t)


def _with_bad_name(rng, h, t):
    # t with one of its names replaced by an undeclared name, a declared name
    # of the other kind, or Void.
    roll = rng.randrange(3)
    if roll == 0:
        bad = Name(NominalName("Ghost", False))
    elif roll == 1:
        n = rng.choice(h.names)
        bad = Name(NominalName(n.text, not n.abstract))
    else:
        bad = Name(h.lookup("Void"))
    return _rename(h, t, rng.randrange(_name_count(t)), bad)


def _name_count(t):
    return 1 if isinstance(t, Name) else _name_count(t.left) + _name_count(t.right)


def error_outcomes(seed, digest, hierarchies=100, queries=40, defs=8, calls=30):
    # Void has no concrete descendant, so it is an error only in semantic
    # mode and only on the left of a query or in a call.
    rng = random.Random(seed)
    count = 0
    for _ in range(hierarchies):
        base = random_hierarchy(rng, 6)
        h = NominalHierarchy(base.decls + (Decl("Void", True),))
        for _ in range(queries):
            t1, t2 = random_type(rng, base, 4, 64), random_type(rng, base, 4, 64)
            if rng.random() < 0.5:
                t1, t2 = _with_bad_name(rng, h, t1), _rename(h, t2)
            else:
                t1, t2 = _rename(h, t1), _with_bad_name(rng, h, t2)
            for mode in Mode:
                for strategy in Strategy:
                    try:
                        outcome = str(reductive_sub(h, t1, t2, mode, strategy)[0])
                    except TagsubError as e:
                        outcome = f"{type(e).__name__}: {e}"
                    digest.update(
                        f"{t1} <: {t2} [{mode.value} {strategy.value}] {outcome}\n".encode()
                    )
                    count += 1
        methods = [
            MethodDef(rng.choice("fg"), _rename(h, _signature(rng, base, 3)), f"m{i}")
            for i in range(defs)
        ]
        stream = [
            (rng.choice("ffffgggh"), _with_bad_name(rng, h, _signature(rng, base, 2)))
            for _ in range(calls)
        ]
        for mode in Mode:
            tbl = MethodTable(h, mode)
            for m in methods:
                tbl = add_method(tbl, m)
            bodies = " ".join(m.body for m in tbl.methods)
            digest.update(f"table [{mode.value}] {bodies}\n".encode())
            for fn, call in stream:
                try:
                    outcome = _outcome(resolve(tbl, fn, call))
                except TagsubError as e:
                    outcome = f"{type(e).__name__}: {e}"
                digest.update(f"{fn} {call} -> {outcome}\n".encode())
                count += 1
    return count


def interp_outcomes(seed, digest, hierarchies=200, types=25):
    rng = random.Random(seed)
    cases = [(DEFAULT_HIERARCHY, types_up_to(DEFAULT_HIERARCHY, 2))]
    for _ in range(hierarchies):
        h = random_hierarchy(rng, 8)
        cases.append((h, [random_type(rng, h, 3, 64) for _ in range(types)]))
    count = 0
    for h, ts in cases:
        vs = value_types_up_to(h, 2)
        for t in ts:
            for mode in Mode:
                digest.update(f"{t} [{mode.value}] -> {format_tag_set(interp(h, t, mode))}\n".encode())
            digest.update("".join("1" if matches(h, v, t) else "0" for v in vs).encode() + b"\n")
            try:
                tag = str(type_to_tag(t))
            except NotAValueType as e:
                tag = f"{type(e).__name__}: {e}"
            digest.update(f"tag {tag}\n".encode())
            count += 1
    return count


def decisions(h, pairs, digest):
    count = 0
    for t1, t2 in pairs:
        for mode in Mode:
            for strategy in Strategy:
                verdict, trace = reductive_sub(h, t1, t2, mode, strategy)
                digest.update(f"{t1} <: {t2} [{mode.value} {strategy.value}] {verdict}\n".encode())
                if trace is not None:
                    digest.update(format_trace(trace).encode() + b"\n")
                    digest.update(format_derivation(synthesize(h, trace, mode)).encode() + b"\n")
                count += 1
    return count


def random_pairs(seed: int, total: int, per_hierarchy: int = 200):
    rng = random.Random(seed)
    while total > 0:
        h = random_hierarchy(rng, 10)
        n = min(per_hierarchy, total)
        yield h, [(random_type(rng, h, 4, 256), random_type(rng, h, 4, 256)) for _ in range(n)]
        total -= n


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=808)
    ap.add_argument("--random", type=int, default=9000, help="number of random pairs")
    args = ap.parse_args()

    h = DEFAULT_HIERARCHY
    ts = types_up_to(h, 2)
    digest = hashlib.sha256()
    n = decisions(h, [(t1, t2) for t1 in ts for t2 in ts], digest)
    print(f"depth2          {n:6d} decisions  {digest.hexdigest()}")

    digest, n = hashlib.sha256(), 0
    for rh, pairs in random_pairs(args.seed, args.random):
        n += decisions(rh, pairs, digest)
    print(f"random          {n:6d} decisions  {digest.hexdigest()}")

    digest, n = hashlib.sha256(), 0
    for t in types_up_to(h, 3):
        for mode in Mode:
            digest.update(format_derivation(derive_sub_nf(h, t, mode)).encode() + b"\n")
            digest.update(format_derivation(derive_nf_sub(h, t, mode)).encode() + b"\n")
            n += 1
    print(f"nf-derivations  {n:6d} types      {digest.hexdigest()}")

    digest = hashlib.sha256()
    n = parse_outcomes(h, digest)
    print(f"parse           {n:6d} strings    {digest.hexdigest()}")

    digest = hashlib.sha256()
    n = dispatch_outcomes(args.seed, digest)
    print(f"dispatch        {n:6d} resolves   {digest.hexdigest()}")

    digest = hashlib.sha256()
    n = add_method_outcomes(args.seed, digest)
    print(f"add-method      {n:6d} inserts    {digest.hexdigest()}")

    digest = hashlib.sha256()
    n = parse_methods_outcomes(args.seed, digest)
    print(f"parse-methods   {n:6d} files      {digest.hexdigest()}")

    digest = hashlib.sha256()
    n = methods_file_outcomes(args.seed, digest)
    print(f"methods-file    {n:6d} outcomes   {digest.hexdigest()}")

    digest = hashlib.sha256()
    n = error_outcomes(args.seed, digest)
    print(f"errors          {n:6d} outcomes   {digest.hexdigest()}")

    digest = hashlib.sha256()
    n = interp_outcomes(args.seed, digest)
    print(f"interp          {n:6d} types      {digest.hexdigest()}")


if __name__ == "__main__":
    main()
