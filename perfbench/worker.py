"""One benchmark process: reads a task as JSON on stdin, prints JSON on stdout.

``run.py`` runs every workload as a sequence of these processes, each a
fresh single-threaded interpreter, so nothing the library caches survives
from one segment to the next.  Library functions are always looked up on
their modules at call time, which lets :mod:`tracer` wrap them when the
task asks for a traced segment.

Tasks:

* ``setup``: time ``import tagsub`` and the parsing of the workload's
  hierarchy files.
* ``queries``: one pass over the query set; no query repeats in a process.
* ``arity``: repeat the fixed k = 2..8 sweep; optionally run the open sweep.
* ``dispatch``: repeat rounds of building every table in both modes and
  resolving its call stream against each.

A segment repeats its batch until ``seconds`` have passed (at least once)
and reports, per batch, the batch time and the time of every operation in
it, in a fixed order.  Every time is reported twice: as measured, and scaled
to a reference host speed by the interleaved probe (see :class:`Meter`).
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def _lib():
    """The library modules, looked up by attribute so a tracer can wrap them."""
    names = ("core", "frontend", "semantics", "subtyping", "derivation", "dispatch", "cli")
    return {n: importlib.import_module("tagsub." + n) for n in names}


def _peak_rss_kb() -> int:
    """This process's own peak RSS.  ``ru_maxrss`` is not used where
    /proc is there: it keeps the high-water mark of the parent's memory
    that the worker was started from."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- host-speed probe --------------------------------------------------------
#
# The host is shared, and the speed it gives this process drifts by tens of
# per cent over seconds to minutes.  Between operations a worker times a fixed
# piece of pure-Python work that never calls the library, and scales the
# operations around it by REF_PROBE_S / (probe time).  The probe does what the
# library mostly does: it builds frozen dataclasses, recurses over them,
# hashes them and counts them in a dict.  A change to the library cannot
# change the probe, so a slower library still reads slower.

PROBE_EVERY_S = 0.05  # timed work between two probes
REF_PROBE_S = 0.0035  # the probe's time at the reference speed
PROBE_WINDOW = 4  # an operation is scaled by the median of the probes around it


@dataclass(frozen=True)
class _Name:
    text: str


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


@dataclass(frozen=True)
class _Union:
    left: object
    right: object


_NAMES = tuple(_Name(n) for n in ("Int", "Flt", "Real", "Num", "Cmplx"))


def _alternatives(t) -> list:
    if isinstance(t, _Union):
        return _alternatives(t.left) + _alternatives(t.right)
    if isinstance(t, _Pair):
        return [_Pair(a, b) for a in _alternatives(t.left) for b in _alternatives(t.right)]
    return [t]


def probe() -> float:
    """Seconds taken by the fixed probe work.  The collector is paused, so
    the probe neither triggers collections nor moves the library's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        seen: dict = {}
        for r in range(6):
            t = _NAMES[r % 5]
            for i in range(6):
                t = _Pair(t, _Union(_NAMES[(r + i) % 5], _NAMES[(r + 2 * i + 1) % 5]))
            for alt in _alternatives(t):
                seen[alt] = seen.get(alt, 0) + 1
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Records timed items and runs the probe after every PROBE_EVERY_S of them."""

    def __init__(self):
        probe()  # warm-up
        self.probes = [probe()]
        # Per item, its seconds and the index of the probe before it; flat
        # lists of numbers, which the collector does not track.
        self.seconds: list[float] = []
        self.after: list[int] = []
        self._since = 0.0

    def add(self, seconds: float) -> int:
        """Record one timed item; returns its index."""
        self.seconds.append(seconds)
        self.after.append(len(self.probes) - 1)
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._since = 0.0
        return len(self.seconds) - 1

    def scaled(self) -> list[float]:
        """Every item's time at the reference speed."""
        p, half = self.probes, PROBE_WINDOW // 2
        # Items after probe i lie between probes i and i + 1.
        factors = [
            REF_PROBE_S / statistics.median(p[max(0, i - half + 1): i + half + 1])
            for i in range(len(p))
        ]
        return [s * factors[i] for s, i in zip(self.seconds, self.after)]


def run_batches(task, batch) -> dict:
    """Repeat ``batch(meter)`` for the task's seconds, traced if the task says so.

    A batch returns ``(batch_items, op_items, answers)``: the meter items
    whose sum is the batch time, the items that are its operations, and its
    answers.
    """
    tracer = Tracer() if task["trace"] else None
    meter = Meter()
    batches = []
    if tracer:
        tracer.install()
    try:
        start = perf_counter()
        while not batches or perf_counter() - start < task["seconds"]:
            batches.append(batch(meter))
        elapsed = perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    raw = meter.seconds
    scaled = meter.scaled()

    def times(xs):
        return [[sum(xs[j] for j in b[0]), [xs[j] for j in b[1]]] for b in batches]

    return {
        "elapsed": elapsed,
        "batches": times(scaled),
        "raw_batches": times(raw),
        "answers": [a for b in batches for a in b[2]],
        "peak_rss_kb": _peak_rss_kb(),
        "trace": tracer.summary() if tracer else None,
    }


# -- setup -------------------------------------------------------------------


def task_setup(task):
    probe()  # warm-up
    before = probe()
    t0 = perf_counter()
    importlib.import_module("tagsub")
    lib = _lib()
    t1 = perf_counter()
    for text in task["inputs"]["hierarchies"]:
        lib["core"].parse_hierarchy(text)
    t2 = perf_counter()
    scale = REF_PROBE_S / statistics.median([before, probe(), probe()])
    return {"import_s": t1 - t0, "parse_s": t2 - t1, "scale": scale}


def task_queries(task):
    lib = _lib()
    core, front, sub, der = lib["core"], lib["frontend"], lib["subtyping"], lib["derivation"]
    Mode, Strategy = lib["semantics"].Mode, sub.Strategy
    inp = task["inputs"]
    errors = []

    def one_pass(meter):
        t0 = perf_counter()
        hs = [core.parse_hierarchy(text) for text in inp["hierarchies"]]
        ops, answers = [], []
        parse = meter.add(perf_counter() - t0)
        for hi, a, b, strategy, proof in inp["queries"]:
            h, strat = hs[hi], Strategy(strategy)
            for mode in (Mode.SEMANTIC, Mode.ATOMIC):
                t0 = perf_counter()
                try:
                    t1 = front.parse_type(a, h)
                    t2 = front.parse_type(b, h)
                    ok, trace = sub.reductive_sub(h, t1, t2, mode, strat)
                    ans = "1" if ok else "0"
                    if proof and ok:
                        if not sub.check_reductive_trace(h, trace, mode):
                            ans = "P"
                        elif not der.check_declarative(h, der.synthesize(h, trace, mode), mode):
                            ans = "D"
                except Exception as err:  # counted as a failed query, not fatal
                    ans = "E"
                    errors.append(f"{a} <: {b} [{mode.value}]: {err!r}")
                ops.append(meter.add(perf_counter() - t0))
                answers.append(ans)
        return [parse, *ops], ops, answers

    out = run_batches(dict(task, seconds=0), one_pass)  # one pass: no repeats
    out["errors"] = errors[:5]
    return out


# -- arity -------------------------------------------------------------------


class _OverBudget(Exception):
    pass


def task_arity(task):
    lib = _lib()
    front, sub = lib["frontend"], lib["subtyping"]
    Mode = lib["semantics"].Mode
    text = task["inputs"]["hierarchies"][0]
    rows = {k: (lhs, rhs_false) for k, lhs, rhs_false in task["inputs"]["rows"]}
    fixed = task["inputs"]["fixed"]

    def queries(k):
        lhs, rhs_false = rows[k]
        for mode in (Mode.SEMANTIC, Mode.ATOMIC):
            yield mode, lhs, lhs
            yield mode, lhs, rhs_false

    def decide(h, mode, a, b) -> str:
        try:
            t1, t2 = front.parse_type(a, h), front.parse_type(b, h)
            return "1" if sub.reductive_sub(h, t1, t2, mode)[0] else "0"
        except _OverBudget:
            raise
        except Exception as err:  # counted as a wrong answer
            return "E:" + repr(err)

    def sweep(meter):
        t0 = perf_counter()
        h = lib["core"].parse_hierarchy(text)
        ops, answers = [], []
        parse = meter.add(perf_counter() - t0)
        for k in fixed:
            for mode, a, b in queries(k):
                t0 = perf_counter()
                answers.append(decide(h, mode, a, b))
                ops.append(meter.add(perf_counter() - t0))
        return [parse, *ops], ops, answers

    out = run_batches(task, sweep)
    if not task.get("budget_s"):
        return out

    # Open part, untraced: k = 9, 10, ... until some query exceeds the budget.
    budget = task["budget_s"]
    h = lib["core"].parse_hierarchy(text)
    max_arity = fixed[-1]
    open_sweep = []
    armed = False

    def on_alarm(signum, frame):
        if armed:  # a late signal after the query finished is ignored
            raise _OverBudget

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        for k in sorted(k for k in rows if k > fixed[-1]):
            within = True
            for mode, a, b in queries(k):
                t0 = perf_counter()
                try:
                    armed = True
                    signal.setitimer(signal.ITIMER_REAL, budget)
                    got = decide(h, mode, a, b)
                except _OverBudget:
                    got = None
                finally:
                    armed = False
                    signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = perf_counter() - t0
                if elapsed > budget:
                    got = None
                open_sweep.append([k, mode.value, a == b, elapsed, got])
                if got is None:
                    within = False
                    break
            if not within:
                break
            max_arity = k
    finally:
        signal.signal(signal.SIGALRM, previous)

    out.update(max_arity=max_arity, open=open_sweep)
    return out


# -- dispatch ----------------------------------------------------------------


def encode_outcome(outcome) -> str:
    kind = type(outcome).__name__
    if kind == "Selected":
        return "S:" + outcome.method.body
    if kind == "Ambiguous":
        return "A:" + ",".join(sorted(m.body for m in outcome.candidates))
    return "N"


def task_dispatch(task):
    lib = _lib()
    front, disp = lib["frontend"], lib["dispatch"]
    inp = task["inputs"]
    fn = inp["function"]

    def round_(meter):
        """Per table: build it in both modes, then resolve its stream in each.
        The batch items are the table builds."""
        builds, ops, answers = [], [], []
        for spec in inp["tables"]:
            t0 = perf_counter()
            h = lib["core"].parse_hierarchy(inp["hierarchies"][0])
            tables = [disp.parse_methods(text, h) for text in spec["method_files"]]
            builds.append(meter.add(perf_counter() - t0))
            for table in tables:
                for src in spec["stream"]:
                    t1 = perf_counter()
                    try:
                        answer = encode_outcome(disp.resolve(table, fn, front.parse_type(src, h)))
                    except Exception as err:  # counted as a wrong outcome
                        answer = "E:" + repr(err)
                    ops.append(meter.add(perf_counter() - t1))
                    answers.append(answer)
        return builds, ops, answers

    out = run_batches(task, round_)
    for key in ("batches", "raw_batches"):  # batch time: one table pair's build
        for b in out[key]:
            b[0] /= len(inp["tables"])
    return out


TASKS = {
    "setup": task_setup,
    "queries": task_queries,
    "arity": task_arity,
    "dispatch": task_dispatch,
}


def main() -> int:
    task = json.load(sys.stdin)
    result = TASKS[task["task"]](task)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
