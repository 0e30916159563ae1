"""Per-layer spans recorded from outside the library.

A :class:`Tracer` replaces public functions on the ``tagsub`` modules with
timing wrappers, so calls made by the benchmark and calls the library makes
between its own modules are both seen, without editing ``src/``.  Spans are
aggregated in memory under ``layer@parent`` keys; a span's self time is its
duration minus the spans it encloses.  Time the tracer spends on its own
bookkeeping (counting leaves, sizing traces) is taken out of the enclosing
span, so only the wrapper calls themselves remain as overhead.
"""

from __future__ import annotations

import gc
import importlib
from time import perf_counter

# (module, attribute, layer).  Attributes re-imported by other modules are
# listed once per importing module, so every call path goes through a span.
PATCHES = [
    ("core", "parse_hierarchy", "core.hierarchy"),
    ("frontend", "parse_type", "frontend.parse"),
    ("subtyping", "nf_for_mode", "normalize.nf"),
    ("subtyping", "reductive_sub", "subtyping.decide"),
    ("dispatch", "reductive_sub", "subtyping.decide"),
    ("subtyping", "check_reductive_trace", "subtyping.check_trace"),
    ("derivation", "synthesize", "derivation.synthesize"),
    ("derivation", "check_declarative", "derivation.check"),
    ("dispatch", "add_method", "dispatch.add_method"),
    ("dispatch", "applicable", "dispatch.applicable"),
    ("dispatch", "resolve", "dispatch.resolve"),
]


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # "layer@parent" -> [calls, seconds, self seconds]
        self.tally: dict[str, list] = {}  # name -> [samples, sum, max]
        self.gc = [0, 0.0]  # collections, seconds
        self._stack: list[list] = []  # open spans: [layer, child seconds, excluded seconds]
        self._saved: list[tuple] = []
        self._gc_start = 0.0
        union = importlib.import_module("tagsub.core").Union
        self._observers = {
            "normalize.nf": lambda args, out, parent: parent == "subtyping.decide"
            and self.count("normalize.nf_leaves", _leaves(out, union)),
            "subtyping.decide": self._observe_decide,
            "derivation.synthesize": lambda args, out, parent: self.count(
                "derivation.size", out.size()
            ),
            "dispatch.applicable": lambda args, out, parent: self.count(
                "dispatch.candidates", len(out)
            ),
            "dispatch.resolve": lambda args, out, parent: self.count(
                "dispatch." + _OUTCOMES[type(out).__name__], 1
            ),
        }

    def _observe_decide(self, args, out, parent):
        verdict, trace = out
        self.count("subtyping.true", 1 if verdict else 0)
        if trace is not None:
            self.count("subtyping.trace_rules", trace.size())

    def count(self, name: str, value: float) -> None:
        t = self.tally.setdefault(name, [0, 0, 0])
        t[0] += 1
        t[1] += value
        t[2] = max(t[2], value)

    def install(self) -> None:
        for mod_name, attr, layer in PATCHES:
            mod = importlib.import_module("tagsub." + mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc[0] += 1
            self.gc[1] += perf_counter() - self._gc_start

    def _wrap(self, layer, fn):
        observe = self._observers.get(layer)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            seconds = t1 - t0 - frame[2]
            parent = stack[-1] if stack else None
            key = f"{layer}@{parent[0] if parent else ''}"
            span = self.spans.setdefault(key, [0, 0.0, 0.0])
            span[0] += 1
            span[1] += seconds
            span[2] += seconds - frame[1]
            if observe is not None:
                observe(args, out, parent[0] if parent else None)
            if parent is not None:
                parent[1] += seconds
                parent[2] += frame[2] + (perf_counter() - t1)
            return out

        return traced

    def summary(self) -> dict:
        return {"spans": self.spans, "tally": self.tally, "gc": self.gc}


_OUTCOMES = {"Selected": "selected", "Ambiguous": "ambiguous", "NoApplicableMethod": "no_method"}


def _leaves(t, union) -> int:
    n, todo = 0, [t]
    while todo:
        x = todo.pop()
        if isinstance(x, union):
            todo.append(x.left)
            todo.append(x.right)
        else:
            n += 1
    return n


def merge(into: dict, part: dict) -> dict:
    """Add one worker's summary to another (spans and tallies sum, maxima max)."""
    for section in ("spans", "tally"):
        dst = into.setdefault(section, {})
        for key, vals in part[section].items():
            cur = dst.setdefault(key, [0] * len(vals))
            cur[0] += vals[0]
            cur[1] += vals[1]
            cur[2] = max(cur[2], vals[2]) if section == "tally" else cur[2] + vals[2]
    gc_into = into.setdefault("gc", [0, 0.0])
    gc_into[0] += part["gc"][0]
    gc_into[1] += part["gc"][1]
    return into
