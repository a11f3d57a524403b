"""Quick self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at tiny sizes with all correctness checks on, three
times: untraced, and traced under two different hash seeds. It then checks
that each run passed, that the result line carries exactly the metrics
BENCHMARK.json names, that the fingerprint and the deterministic counts
repeat exactly, and that a wrong output is caught. Last, it runs the
benchmark in a directory that holds only BENCHMARK.json and bench/, where it
must fail without printing a result. Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def fail(msg):
    print("selftest: FAIL: %s" % msg)
    sys.exit(1)


def bench(root, workload, trace, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, env=env, capture_output=True, text=True, timeout=170)
    return proc


def result_and_report(workload, trace, hash_seed):
    proc = bench(run.ROOT, workload, trace, hash_seed)
    if proc.returncode != 0:
        fail("%s trace %d exited %d: %s" % (workload, trace, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(run.BENCH, "out", "%s-seed3-trace%d.json" % (workload, trace))
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


def check_runs(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [result_and_report(workload, 0, 1), result_and_report(workload, 1, 2),
                result_and_report(workload, 1, 3)]
        for (result, _), key in zip(runs, ("end_to_end", "per_layer", "per_layer")):
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (workload, sorted(result)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail("%s: correct %s, %d of %d failed" % (workload, result["correct"],
                                                         result["failed"], result["attempted"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail("%s: metrics %s, BENCHMARK.json names %s" % (workload, got, want))
        reports = [report for _, report in runs]
        for field in ("fingerprint", "counts", "ops_in_pool"):
            if len({json.dumps(r[field], sort_keys=True) for r in reports}) != 1:
                fail("%s: %s differs between runs" % (workload, field))
        calls = [{k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
                 for result, _ in runs[1:]]
        if calls[0] != calls[1]:
            fail("%s: traced call counts differ: %s vs %s" % (workload, *calls))
        print("selftest: %s ok (fingerprint %s)" % (workload, reports[0]["fingerprint"][:16]))


def check_mismatch_caught():
    """A wrong output must raise Mismatch naming the input."""
    import harness
    import workloads

    def off(v, by):
        return 0 if v == workloads.INF else v + by

    tracer = harness.Tracer(False)
    cases = []
    duality = workloads.build("duality", 3, "tiny", tracer, run.FIXTURES).ops[0]
    b_aut, s_aut, rows = duality.run(tracer)
    u, (vb, vs, vi, vp) = rows[0]
    cases.append((duality, (b_aut, s_aut, [(u, (off(vb, 1), vs, vi, vp))])))
    words = workloads.build("long-words", 3, "tiny", tracer, run.FIXTURES).ops[0]
    vb, vs, vi, vp = words.run(tracer)
    cases.append((words, (vb, off(vs, 3), vi, vp)))
    recognition = workloads.build("recognition", 3, "tiny", tracer, run.FIXTURES)
    recognize = next(op for op in recognition.ops if op.kind == "semigroup.recognize")
    cases.append((recognize, off(recognize.run(tracer), 1)))
    for op, wrong in cases:
        try:
            op.check(wrong)
        except harness.Mismatch as exc:
            print("selftest: caught: %s" % exc)
            continue
        fail("wrong output of %s was not caught" % op.key)
    bounded = workloads.build("boundedness", 3, "tiny", tracer, run.FIXTURES)
    name = bounded.ops[0].key.split(" ", 1)[1]
    try:
        bounded.final_check({"onthefly " + name: "bounded", "closure " + name: "unbounded"})
    except harness.Mismatch:
        pass
    else:
        fail("disagreeing boundedness verdicts were not caught")
    print("selftest: wrong outputs are caught")


def check_bare_directory():
    """With only BENCHMARK.json and bench/, the run must fail and print no result."""
    bare = os.path.join(run.BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK, bare)
    try:
        proc = bench(bare, "duality", 0, 1)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout))
    print("selftest: bare directory fails cleanly (exit %d)" % proc.returncode)


def main():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    run.import_library()
    check_mismatch_caught()
    check_runs(spec)
    check_bare_directory()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
