"""Timing, tracing and summary code shared by every workload.

A run is a closed loop with one client: the pool of ops is executed in
passes, each op starting when the previous one returned, until the time
budget is spent. Every op is timed from outside the library.

Host speed on a shared machine swings by 20-70% in phases of a few seconds,
and a whole run can fall in a slow phase, so raw times do not repeat between
runs. Each timed interval is therefore rescaled by the host's speed at that
moment: a fixed pure-Python calibration loop is timed between consecutive
ops, and an interval's seconds are multiplied by CAL_REFERENCE_S over the
mean of the calibrations on either side. The result is in reference seconds,
the time the work takes when the calibration loop runs at CAL_REFERENCE_S.
An op's latency is the median of its rescaled repeats. Raw wall times are
kept in the report next to them.
"""

import hashlib
import math
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("formula", "translate", "automata", "semantics", "bounded",
          "semigroup", "minimize", "classical")

TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)

# Fastest time of calibrate() on the 2-vCPU x86 host the benchmark was
# defined on (CPython 3.11); it fixes the unit, not the result's stability.
CAL_REFERENCE_S = 124e-6


class Mismatch(Exception):
    """An output differs from its reference; the message names the input."""


class OpTimeout(Exception):
    """An op ran past the workload's per-op time limit."""


@dataclass
class Op:
    key: str  # names the input in messages
    run: Callable  # run(tracer) -> output, calls the library via tracer.call
    check: Callable  # check(output) raises Mismatch
    summary: Callable  # summary(output) -> (fingerprint text, {count name: n})
    kind: str = "op"  # the library call an op consists of, if only one


@dataclass
class Workload:
    ops: list
    limit_s: float  # per-op time limit; an op past it counts as failed
    final_check: Callable = None  # final_check({key: summary text}) raises Mismatch
    compiled: list = field(default_factory=list)  # automata built in setup


class Tracer:
    """Spans around the library calls the benchmark makes.

    A span is (op id, repeat, name, start, end); the op span itself is named
    "op" and every other span of the same op id and repeat is its child.
    Disabled, it only calls through, so untraced runs pay one Python call.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.op = None
        self.rep = 0

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.op, self.rep, name, start, time.perf_counter()))

    def span(self, op, rep, name, start, end):
        if self.enabled:
            self.spans.append((op, rep, name, start, end))


def calibrate():
    """Seconds a fixed loop of set, dict and tuple work takes right now.

    The loop runs twice and only the second run is timed, so the time
    reflects the host's speed rather than the cache state an op left behind.
    """
    def loop():
        seen = set()
        table = {}
        for i in range(500):
            key = (i % 13, i % 7, (i % 5,))
            seen.add(key)
            table[key] = table.get(key, 0) + 1
        return len(seen) + len(table)

    loop()
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def speed_scale(cal_before, cal_after):
    """Factor turning wall seconds between two calibrations into reference seconds."""
    return 2 * CAL_REFERENCE_S / (cal_before + cal_after)


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(op, tracer, limit_s):
    """Run one op under the time limit; returns (output, seconds, start)."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        start = time.perf_counter()
        out = op.run(tracer)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, elapsed, start


@dataclass
class Timings:
    samples: dict  # (op index, traced) -> [(reference seconds, wall seconds)]
    scales: dict  # (op index, repeat) -> speed scale of a traced run
    attempted: int
    failed: int
    timeouts: dict  # op kind -> ops cut by the time limit


def measure(workload, seconds, tracer, on_first, log):
    """Run the pool in passes until the budget is spent.

    `on_first(i, output)` checks and summarises op i's first output, outside
    the timed region; outputs are not kept, so that later passes do not pay
    for a heap the harness holds. With tracing on, even passes are traced and
    odd passes are not, so one run also measures the tracing overhead. Ops
    that never ran inside the budget are run once afterwards, untimed, so
    that checks, counts and the fingerprint always cover the whole pool.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    ops = workload.ops
    done = set()  # op indexes whose first output was checked
    t = Timings({}, {}, 0, 0, {})
    failed_names = {}
    deadline = time.perf_counter() + seconds
    rep = 0
    cal = calibrate()
    while time.perf_counter() < deadline:
        traced = tracer.enabled and rep % 2 == 0
        view = tracer if traced else Tracer(False)
        for i, op in enumerate(ops):
            if time.perf_counter() >= deadline:
                break
            t.attempted += 1
            view.op, view.rep = i, rep
            try:
                out, elapsed, start = run_op(op, view, workload.limit_s)
            except OpTimeout:
                t.failed += 1
                failed_names[op.key] = "time limit"
                t.timeouts[op.kind] = t.timeouts.get(op.kind, 0) + 1
                cal = calibrate()
                continue
            except Exception as exc:  # an op that raises is a failed op
                t.failed += 1
                failed_names[op.key] = "%s: %s" % (type(exc).__name__, exc)
                cal = calibrate()
                continue
            cal_after = calibrate()
            scale = speed_scale(cal, cal_after)
            cal = cal_after
            view.span(i, rep, "op", start, start + elapsed)
            if traced:
                t.scales[(i, rep)] = scale
            t.samples.setdefault((i, traced), []).append((elapsed * scale, elapsed))
            if i not in done:
                done.add(i)
                on_first(i, out)
            out = None
        rep += 1
    for i, op in enumerate(ops):
        if i not in done and op.key not in failed_names:
            tracer.op, tracer.rep = i, rep
            try:
                out, _, _ = run_op(op, tracer, workload.limit_s)
            except Exception as exc:  # counted like a failure in the loop
                t.failed += 1
                failed_names[op.key] = "%s: %s" % (type(exc).__name__, exc)
                continue
            on_first(i, out)
    for key, why in failed_names.items():
        log("failed op %s (%s)" % (key, why))
    return t


def tail_percentile(n):
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 100.0  # fewer than 20 samples: the slowest


def nearest_rank(sorted_values, p):
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def latency_summary(latencies):
    xs = sorted(latencies)
    p = tail_percentile(len(xs))
    return {
        "ops_per_s": len(xs) / sum(xs),
        "latency_p50_ms": 1000.0 * statistics.median(xs),
        "latency_tail_ms": 1000.0 * nearest_rank(xs, p),
        "tail_percentile": p,
        "samples": len(xs),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def layer_busy(spans, scales):
    """Per call name: each call slot's median rescaled duration, summed.

    A slot is (op id, position of the call within the op); its duration is
    rescaled by the speed scale of the run it belongs to and summarised over
    the traced repeats like op latency. Spans of runs without a scale (the
    untimed catch-up runs) are left out.
    """
    by_run = {}
    for op, rep, name, start, end in spans:
        if (op, rep) in scales and name != "op":
            by_run.setdefault((op, rep), []).append(
                (start, name, (end - start) * scales[(op, rep)]))
    slots = {}
    for (op, rep), calls in by_run.items():
        calls.sort()
        for pos, (_, name, dur) in enumerate(calls):
            slots.setdefault((op, pos, name), []).append(dur)
    busy = {}
    for (_, _, name), durs in slots.items():
        busy[name] = busy.get(name, 0.0) + statistics.median(durs)
    return busy


def first_run_calls(spans, phase_ops):
    """Calls per name in the first traced run of each op."""
    first_rep = {}
    for op, rep, name, _, _ in spans:
        if op in phase_ops:
            first_rep[op] = min(first_rep.get(op, rep), rep)
    calls = {}
    for op, rep, name, _, _ in spans:
        if op in phase_ops and name != "op" and rep == first_rep[op]:
            calls[name] = calls.get(name, 0) + 1
    return calls
