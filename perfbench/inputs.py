"""Seeded input generator for the benchmark, independent of ``tagsub``.

Everything the benchmarked program sees is produced here as text: types,
hierarchy files and method files.  The generator uses its own splitmix64
stream, so a seed gives byte-identical inputs on every Python version, and a
change to ``tagsub.gen`` cannot alter a workload.

Types are modelled as nested tuples: ``("n", name)``, ``("*", l, r)`` and
``("|", l, r)``.  Hierarchies are lists of ``(name, abstract, parent)``.
Every abstract name gets a concrete descendant, so every generated type has
a normal form and no query is expected to raise.
"""

from __future__ import annotations

import hashlib
import json

MASK = (1 << 64) - 1

BUILTIN = [
    ("Num", True, None),
    ("Real", True, "Num"),
    ("Int", False, "Real"),
    ("Flt", False, "Real"),
    ("Cmplx", False, "Num"),
    ("Str", False, None),
]

ARITY_FIXED = range(2, 9)  # k = 2..8, timed as a whole
ARITY_CAP = 24  # the open part tries k = 9 .. ARITY_CAP

QUERY_RANDOM_PAIRS = 3000  # split evenly between the two hierarchies
QUERY_MAX_DEPTH = 4
QUERY_MAX_WEIGHT = 256
SEEDED_HIERARCHY_NAMES = 12

DISPATCH_TABLES = 8
DISPATCH_METHODS = 81
DISPATCH_ARITY = 4
DISPATCH_NAMES = ("Int", "Flt", "Real", "Num", "Cmplx")
DISPATCH_STREAM = 30
DISPATCH_DESIGN_SEED = 1  # the draw of tables that every seed relabels


class Rng:
    """splitmix64; fully specified here so the stream never changes."""

    def __init__(self, seed: int, label: str):
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        self.state = int.from_bytes(digest[:8], "little")

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next() >> 11) / float(1 << 53)

    def below(self, n: int) -> int:
        return self.next() % n

    def choice(self, xs):
        return xs[self.below(len(xs))]

    def shuffled(self, xs) -> list:
        out = list(xs)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


# -- rendering ---------------------------------------------------------------


def render(t) -> str:
    """Concrete syntax with minimal parentheses: '*' binds tighter than '|',
    both associate left, so a right child at the same level is parenthesised."""
    return _render(t, 0, False)


def _render(t, parent_prec: int, is_right: bool) -> str:
    if t[0] == "n":
        return t[1]
    prec = 1 if t[0] == "*" else 0
    body = _render(t[1], prec, False) + t[0] + _render(t[2], prec, True)
    if prec < parent_prec or (prec == parent_prec and is_right):
        return "(" + body + ")"
    return body


def hierarchy_text(decls) -> str:
    lines = []
    for name, abstract, parent in decls:
        kind = "abstract" if abstract else "concrete"
        lines.append(f"{kind} {name}" + (f" <: {parent}" if parent else ""))
    return "\n".join(lines) + "\n"


def tuple_of(parts):
    """Right-nested pair chain, the n-ary encoding dispatch uses."""
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ("*", p, out)
    return out


# -- hierarchies and types ---------------------------------------------------


def seeded_hierarchy(rng: Rng, count: int = SEEDED_HIERARCHY_NAMES):
    kinds = [rng.random() < 0.4 for _ in range(count)]  # True = abstract
    parents: list[int | None] = []
    for i in range(count):
        above = [j for j in range(i) if kinds[j]]
        parents.append(rng.choice(above) if above and rng.random() < 0.7 else None)
    # An abstract name without children has no normal form; make it concrete.
    # Reverse order settles chains of such names in one pass.
    for i in reversed(range(count)):
        if kinds[i] and not any(p == i for p in parents):
            kinds[i] = False
    return [
        (f"N{i}", kinds[i], None if parents[i] is None else f"N{parents[i]}")
        for i in range(count)
    ]


def _descendants(decls):
    parent = {n: p for n, _, p in decls}
    below = {n: [] for n, _, _ in decls}
    for n, _, _ in decls:
        cur = n
        while cur is not None:
            below[cur].append(n)
            cur = parent[cur]
    return below


def weights(decls) -> dict[str, int]:
    """Leaves a name can contribute to a normal form in either mode: its
    concrete descendants plus, for the atomic mode, its abstract ones."""
    below = _descendants(decls)
    abstract = {n: a for n, a, _ in decls}
    return {n: (len(below[n]) if abstract[n] else 1) for n in below}


def nf_weight(t, w) -> int:
    if t[0] == "n":
        return w[t[1]]
    a, b = nf_weight(t[1], w), nf_weight(t[2], w)
    return a * b if t[0] == "*" else a + b


def random_type(rng: Rng, names, max_depth: int):
    if max_depth <= 1 or rng.random() < 0.45:
        return ("n", rng.choice(names))
    ctor = "*" if rng.random() < 0.5 else "|"
    return (ctor, random_type(rng, names, max_depth - 1), random_type(rng, names, max_depth - 1))


def bounded_type(rng: Rng, decls, max_depth: int, max_weight: int):
    names = [n for n, _, _ in decls]
    w = weights(decls)
    while True:
        t = random_type(rng, names, max_depth)
        if nf_weight(t, w) <= max_weight:
            return t


def depth2_types(decls):
    atoms = [("n", n) for n, _, _ in decls]
    return (
        atoms
        + [("*", a, b) for a in atoms for b in atoms]
        + [("|", a, b) for a in atoms for b in atoms]
    )


# -- workloads ---------------------------------------------------------------


def queries_inputs(seed: int) -> dict:
    """Depth-2 census over the built-in tower plus seeded random pairs.

    Each entry is ``[hierarchy index, t1, t2, strategy, proof]``; the runner
    decides it in both modes.  No (pair, mode, strategy) occurs twice.
    """
    rng = Rng(seed, "queries")
    seeded = seeded_hierarchy(rng)
    d2 = [render(t) for t in depth2_types(BUILTIN)]
    census = [(a, b) for a in d2 for b in d2]
    seen = set(census)  # random built-in pairs must not repeat a census pair
    items = []
    for hi, decls in ((0, BUILTIN), (1, seeded)):
        drawn = 0
        while drawn < QUERY_RANDOM_PAIRS // 2:
            pair = tuple(
                render(bounded_type(rng, decls, QUERY_MAX_DEPTH, QUERY_MAX_WEIGHT))
                for _ in range(2)
            )
            if (hi, pair) in seen or (hi == 0 and pair in seen):
                continue
            seen.add((hi, pair))
            items.append([hi, pair[0], pair[1], "normalize-first", True])
            drawn += 1
    queries = [[0, a, b, "normalize-first", True] for a, b in census]
    queries += items
    queries += [[0, a, b, "short-path-first", False] for a, b in census]
    return {
        "hierarchies": [hierarchy_text(BUILTIN), hierarchy_text(seeded)],
        "queries": queries,
    }


def arity_inputs(seed: int) -> dict:
    """``Num^k <: Num^k`` and ``Num^k <: Num^(k-1)*Real``; fixed by design,
    so the seed does not change them."""
    del seed
    rows = []
    for k in range(2, ARITY_CAP + 1):
        lhs = render(tuple_of([("n", "Num")] * k))
        false_rhs = render(tuple_of([("n", "Num")] * (k - 1) + [("n", "Real")]))
        rows.append([k, lhs, false_rhs])
    return {"hierarchies": [hierarchy_text(BUILTIN)], "rows": rows, "fixed": list(ARITY_FIXED)}


_ORDER = {  # reflexive-transitive nominal order of the dispatch names
    "Int": {"Int", "Real", "Num"},
    "Flt": {"Flt", "Real", "Num"},
    "Real": {"Real", "Num"},
    "Cmplx": {"Cmplx", "Num"},
    "Num": {"Num"},
}


def _model_outcome(call, sigs) -> str:
    """Outcome for an all-concrete call over single-name signatures, where
    both modes agree with the nominal order.  Used only to make sure the
    stream contains an ambiguous call; the reference answers come from the
    set-based oracle."""
    def le(a, b):
        return all(y in _ORDER[x] for x, y in zip(a, b))

    app = [s for s in sigs if le(call, s)]
    if not app:
        return "no-method"
    if any(all(le(s, o) for o in app) for s in app):
        return "selected"
    return "ambiguous"


def _sig_text(parts) -> str:
    return render(tuple_of([("n", p) for p in parts]))


def _method_file(mode: str, fn: str, sigs) -> str:
    lines = [f"mode {mode}"]
    lines += [f"method {fn} {_sig_text(s)} => m{i}" for i, s in enumerate(sigs)]
    return "\n".join(lines) + "\n"


def _all_tuples(names, k):
    out = [()]
    for _ in range(k):
        out = [t + (n,) for t in out for n in names]
    return out


def dispatch_inputs(seed: int) -> dict:
    """Eight tables, each of 81 distinct arity-4 signatures with its own
    skewed call stream; every table is written out for both modes.

    The tables are drawn once, from DISPATCH_DESIGN_SEED, and a seed
    relabels them: per table it may swap the sibling names ``Int`` and
    ``Flt``, and it shuffles the calls.  The relabeling keeps the subtype
    order, so every seed asks for the same work.  Freer variation does not:
    the resolve time of one freely drawn table varies by about a third from
    draw to draw, and shuffling a table's methods or permuting its argument
    positions moves the whole workload by up to a tenth.
    """
    rng = Rng(seed, "dispatch")
    design = Rng(DISPATCH_DESIGN_SEED, "dispatch")
    tables = []
    for _ in range(DISPATCH_TABLES):
        sigs, stream = _dispatch_design(design)
        names = {"Int": "Flt", "Flt": "Int"} if rng.below(2) else {}

        def relabel(parts):
            return ["|".join(names.get(n, n) for n in p.split("|")) for p in parts]

        sigs = [relabel(sig) for sig in sigs]
        stream = rng.shuffled([relabel(call) for call in stream])
        tables.append({
            "method_files": [_method_file(m, "f", sigs) for m in ("semantic", "atomic")],
            "stream": [render(tuple_of([_arg(p) for p in call])) for call in stream],
        })
    return {"hierarchies": [hierarchy_text(BUILTIN)], "function": "f", "tables": tables}


# Every stream has the same shape.  The pool holds concrete calls ("c") and
# calls with k abstract or union arguments (1..4); the stream takes the
# pool's first ranks this many times each, a skew like 1/(rank+1), after the
# three planted calls.
STREAM_RANKS = ["c", 1, "c", 2, "c", 3, "c", 4, "c", 1, "c", 2, "c", 3, "c"]
STREAM_COUNTS = [5, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
ABSTRACT_ARGS = ["Real", "Num", "Int|Flt", "Int|Cmplx", "Flt|Cmplx"]
CONCRETE_ARGS = ("Int", "Flt", "Cmplx")


def _dispatch_design(rng: Rng):
    """81 distinct signatures and a stream of 30 calls, as argument lists.

    Each argument position uses every name about equally often.  The stream
    holds one call equal to a signature (its method is selected), one
    concrete call that the nominal-order model finds ambiguous, one call
    with a ``Str`` argument (no method applies), and calls that follow
    STREAM_RANKS and STREAM_COUNTS.
    """
    sigs = _balanced_signatures(rng)
    concrete = rng.shuffled(_all_tuples(CONCRETE_ARGS, DISPATCH_ARITY))
    ambiguous = next(c for c in concrete if _model_outcome(c, sigs) == "ambiguous")
    no_method = list(concrete[-1])
    no_method[rng.below(DISPATCH_ARITY)] = "Str"
    planted = [list(rng.choice(sigs)), list(ambiguous), no_method]

    picks = iter(c for c in concrete[:-1] if c != ambiguous)
    needed = sum(STREAM_RANKS.count(k) * k for k in (1, 2, 3, 4))
    names = iter(rng.shuffled(ABSTRACT_ARGS * (needed // len(ABSTRACT_ARGS) + 1)))
    ranked = []
    for kind in STREAM_RANKS:
        parts = list(next(picks))
        if kind != "c":
            for pos in rng.shuffled(range(DISPATCH_ARITY))[:kind]:
                parts[pos] = next(names)
        ranked.append(parts)
    rest = [call for call, n in zip(ranked, STREAM_COUNTS) for _ in range(n)]
    return sigs, planted + rest


def _balanced_signatures(rng: Rng):
    """Distinct signatures whose every position holds each name equally
    often (up to one), drawn by shuffling each column independently."""
    cols = [
        rng.shuffled([DISPATCH_NAMES[i % len(DISPATCH_NAMES)] for i in range(DISPATCH_METHODS)])
        for _ in range(DISPATCH_ARITY)
    ]
    sigs = [list(row) for row in zip(*cols)]
    while True:  # swaps inside a column keep its counts
        seen, dup = set(), None
        for i, sig in enumerate(sigs):
            if tuple(sig) in seen:
                dup = i
                break
            seen.add(tuple(sig))
        if dup is None:
            return [tuple(sig) for sig in sigs]
        j, c = rng.below(len(sigs)), rng.below(DISPATCH_ARITY)
        sigs[dup][c], sigs[j][c] = sigs[j][c], sigs[dup][c]


def _arg(name: str):
    if "|" in name:
        a, b = name.split("|")
        return ("|", ("n", a), ("n", b))
    return ("n", name)


GENERATORS = {
    "queries": queries_inputs,
    "arity": arity_inputs,
    "dispatch": dispatch_inputs,
}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def digest(obj) -> str:
    """sha256 of the canonical JSON encoding of a workload's inputs."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
