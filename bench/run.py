"""Benchmark of the costltl library: four seeded workloads, timed per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload duality --seed 1 --seconds 25 --trace 0

Workloads: duality, long-words, boundedness, recognition (see BENCHMARK.json
for what each runs and why). The library is imported from the checkout's
`src/` and driven through its public functions; every output is checked
against an independent reference and a mismatch exits with code 1, naming the
input. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Times are in reference
seconds: wall time rescaled by the host speed a calibration loop measured
around it (see harness.py). A report with the fingerprint, the tail
percentile, raw wall times and, when traced, every span is written to
`bench/out/`.

Seed 2 is the confirmation seed: a claim tuned on other seeds is confirmed
on it.
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time

import harness

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS are spent
# (short set-ups are noisy); setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"))

# Library calls the ops and set-ups make, by "module.function".
CALLS = ("formula.parse", "formula.dualize", "translate.ltl_to_b",
         "translate.nltl_to_s", "automata.eval_b", "automata.eval_s",
         "semantics.sem_inf", "semantics.sem_sup", "bounded.bounded_onthefly",
         "bounded.run_semigroup_closure", "semigroup.recognize",
         "minimize.syntactic_quotient", "minimize.is_ltl_definable",
         "classical.language_recognizer")

# Deterministic counts, summed over one set-up and one pass over the pool.
COUNTS = ("translate.states", "translate.transitions", "translate.counters",
          "automata.letters", "bounded.run_semigroup_closure.elements",
          "bounded.witness_letters", "semigroup.recognize.letters",
          "minimize.syntactic_quotient.classes",
          "classical.language_recognizer.elements")

TIMEOUT_KINDS = ("bounded.bounded_onthefly", "bounded.run_semigroup_closure")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for call in CALLS:
        out += [(call + ".calls", "count"), (call + ".busy_s", "s")]
    out += [(name, "count") for name in COUNTS]
    out += [(kind + ".timeouts", "count") for kind in TIMEOUT_KINDS]
    out += [(layer + ".op_share", "ratio") for layer in harness.LAYERS]
    out += [("harness.self_s", "s"), ("harness.ops_per_s_untraced", "1/s"),
            ("harness.ops_per_s_traced", "1/s"),
            ("harness.trace_overhead_ops_per_s", "1/s")]
    return out


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_library():
    """Import costltl from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "costltl", "__init__.py")) \
            or not os.path.isdir(FIXTURES):
        raise SystemExit("bench: %s holds no costltl checkout (src/costltl and "
                         "fixtures/ are needed)" % ROOT)
    sys.path.insert(0, SRC)
    import costltl

    if os.path.dirname(os.path.dirname(os.path.abspath(costltl.__file__))) != SRC:
        raise SystemExit("bench: costltl was imported from %s, not from %s"
                         % (costltl.__file__, SRC))


def run_workload(name, seed, seconds, trace, scale="full"):
    """Set up, measure and check one workload; returns the report dict.

    Times are in reference seconds (see harness). Raises Mismatch on the
    first output that differs from its reference.
    """
    import workloads  # imports costltl, so only after import_library

    tracer = harness.Tracer(trace)
    setup_times = []  # (reference seconds, wall seconds) per set-up
    setup_scales = {}
    rep = 0
    while rep < SETUP_REPEATS or sum(w for _, w in setup_times) < SETUP_SECONDS:
        workload = None
        gc.collect()
        tracer.op, tracer.rep = "setup", rep
        cal = harness.calibrate()
        start = time.perf_counter()
        workload = workloads.build(name, seed, scale, tracer, FIXTURES)
        wall = time.perf_counter() - start
        setup_scales[("setup", rep)] = harness.speed_scale(cal, harness.calibrate())
        setup_times.append((wall * setup_scales[("setup", rep)], wall))
        rep += 1
    gc.collect()

    texts = [workloads.automaton_text(aut) for aut in workload.compiled]
    counts = dict.fromkeys(COUNTS, 0)
    counts.update(workloads.automaton_counts(*workload.compiled))
    summaries = {}

    def on_first(i, out):
        op = workload.ops[i]
        op.check(out)
        text, op_counts = op.summary(out)
        summaries[op.key] = text
        texts.append("%s => %s" % (op.key, text))
        for key, n in op_counts.items():
            counts[key] += n

    timings = harness.measure(workload, seconds, tracer, on_first, log)
    rss = harness.peak_rss_mb()
    if workload.final_check is not None:
        workload.final_check(summaries)

    def latencies(traced, raw=False):
        # reference: median of the rescaled repeats; raw: fastest wall time
        return [min(w for _, w in runs) if raw else statistics.median(r for r, _ in runs)
                for (_, t), runs in timings.samples.items() if t == traced]

    summary = harness.latency_summary(latencies(False) or latencies(True))
    raw = harness.latency_summary(latencies(False, True) or latencies(True, True))
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "ops_in_pool": len(workload.ops),
        "ops_checked": len(summaries), "attempted": timings.attempted,
        "failed": timings.failed, "fingerprint": harness.fingerprint(sorted(texts)),
        "tail_percentile": summary["tail_percentile"],
        "latency_samples": summary["samples"],
        "setup_runs_s": setup_times, "raw_wall_fastest": raw, "counts": counts,
    }
    if not trace:
        values = {"setup_s": statistics.median(r for r, _ in setup_times), "peak_rss_mb": rss}
        values.update((k, summary[k]) for k in ("ops_per_s", "latency_p50_ms",
                                                 "latency_tail_ms"))
        report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        return report

    busy = harness.layer_busy(tracer.spans, timings.scales)
    setup_busy = harness.layer_busy(tracer.spans, setup_scales)
    op_ids = set(range(len(workload.ops)))
    calls = harness.first_run_calls(tracer.spans, op_ids)
    setup_calls = harness.first_run_calls(tracer.spans, {"setup"})
    traced, untraced = latencies(True), latencies(False)
    op_time = sum(traced)
    values = {}
    for call in CALLS:
        values[call + ".calls"] = calls.get(call, 0) + setup_calls.get(call, 0)
        values[call + ".busy_s"] = busy.get(call, 0.0) + setup_busy.get(call, 0.0)
    values.update(counts)
    for kind in TIMEOUT_KINDS:
        values[kind + ".timeouts"] = timings.timeouts.get(kind, 0)
    for layer in harness.LAYERS:
        share = sum(t for call, t in busy.items() if call.split(".")[0] == layer)
        values[layer + ".op_share"] = share / op_time if op_time else 0.0
    traced_rate = len(traced) / op_time if op_time else 0.0
    untraced_rate = len(untraced) / sum(untraced) if untraced else 0.0
    values["harness.self_s"] = op_time - sum(busy.values())
    values["harness.ops_per_s_untraced"] = untraced_rate
    values["harness.ops_per_s_traced"] = traced_rate
    values["harness.trace_overhead_ops_per_s"] = untraced_rate - traced_rate
    report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in per_layer_names()}
    report["spans"] = [list(s) for s in tracer.spans]
    return report


def write_report(report):
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                        % (report["workload"], report["seed"], int(report["trace"])))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("duality", "long-words", "boundedness", "recognition"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny pools for the harness self-test")
    args = parser.parse_args(argv)
    import_library()
    try:
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.scale)
    except harness.Mismatch as exc:
        log("bench: %s: wrong output: %s" % (args.workload, exc))
        return 1
    path = write_report(report)
    print("workload %s seed %d: %d ops in pool, %d attempted, %d failed"
          % (args.workload, args.seed, report["ops_in_pool"], report["attempted"],
             report["failed"]))
    print("fingerprint %s" % report["fingerprint"])
    print("latency_tail_ms is p%g of %d ops" % (report["tail_percentile"],
                                                report["latency_samples"]))
    print("report %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
