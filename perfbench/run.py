"""The respchain benchmark: wall time of each CLI job on seeded cohorts.

    python3 perfbench/run.py --workload cohort-40k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10   # every workload

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. Each run:

1. generates the workload's inputs from --seed with numpy alone (gen.py);
2. times (CPU time) the import of ``respchain.cli`` in fresh interpreters
   (setup_s, --trace 0 only);
3. starts one measuring process (worker.py) that drives
   ``respchain.cli.main(argv)`` in a closed loop of rounds, each taking
   one sample of every op (the mean of back-to-back runs lasting at least
   worker.MIN_SAMPLE_S), until --seconds have passed and at least two
   rounds are done;
4. checks every op's last output against the oracle (oracle.py);
5. prints a table, then one JSON line with the metrics (with --all, one
   table and one JSON line per workload).

End-to-end metrics (--trace 0) are the median wall time of each job (from
``main(argv)`` to the report on disk) and the setup time, each scaled by
CAL_REFERENCE_S / (median time of the calibration job in the measuring
process) so that host-speed drift between runs cancels, and the peak RSS
of the measuring process. The table also gives the raw times.

``attempted`` counts ops and ``failed`` the ops that failed (non-zero
exit, an exception out of ``main``, or no finished sample) at least once.
``correct`` is false when an op fails in a way EXPECTED_FAILURES does not
declare, or when an op whose last sample succeeded fails its output check.
A job's time is the median of its successful samples; only when none
succeeded are the failed ones timed. At this commit that is the case for
the declared failures: the long-walk analysis jobs raise ``_csv.Error`` (a
250,000-response field exceeds the CSV reader's limit), and their ``*_s``
time the way to the error.

The measuring process must end by RUN_LIMIT_S - CHECK_RESERVE_S after the
start. After its first round it takes no sample that, as long as the op's
last one, would end later; if it still runs over it is stopped. The
samples taken so far are reported either way, and an op without a
finished sample counts as failed with "timeout" (so ``correct`` is
false).

--trace 1 instead runs each op once under tracer.py and once untraced and
reports per-layer metrics and the tracing overhead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

# Median time of worker.calibration_job on the reference host (2-CPU Intel
# Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4); host-normalised seconds are
# seconds at that calibration speed.
CAL_REFERENCE_S = 0.050

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
# The whole run ends within RUN_LIMIT_S; the output checks after the
# measuring process take at most CHECK_RESERVE_S.
RUN_LIMIT_S = 170
CHECK_RESERVE_S = 25

OP_NAMES = ("simulate", "estimate", "compare", "score", "classify",
            "classify_multi", "diagnose")

# Why each workload exists is recorded in BENCHMARK.json. cohort-detail
# (per-row output) is not listed there: three workloads at two samples per
# job do not fit the benchmark's time budget on a 2-CPU host, so it runs
# only when asked for (--workload cohort-detail, or --all).
WORKLOADS = ("cohort-40k", "long-walk", "cohort-detail")

# Known defects: ops expected to fail, with the error they fail with.
# 250,000-response fields exceed the CSV reader's 131,072-byte limit.
EXPECTED_FAILURES = {
    "long-walk": {op: "_csv.Error" for op in OP_NAMES if op != "simulate"},
}


SIZES = {
    "cohort-40k": {"per_group": 20_000, "length": 16, "sim_length": 16},
    "cohort-detail": {"per_group": 5_000, "length": 16, "sim_length": 16},
    "long-walk": {"per_group": 4, "length": 250_000, "sim_length": 1_000_000},
}


def build_workload(name, seed, work, sizes=None):
    """Write the inputs; return the ops and their output checks.

    `sizes` replaces the workload's SIZES entry (the self-test's small runs).
    """
    size = sizes or SIZES[name]
    csv_path = os.path.join(work, "cohort.csv")
    if name == "long-walk":
        data = gen.make_long_cohort(csv_path, seed, size["per_group"], size["length"])
        gen.write_long_config(os.path.join(work, "config.json"))
        k, common = gen.LONG_STATES, ["--config", "config.json", "--mode", "strict"]
        focal, reference = "low", "high"
        candidates = ["walk", "profile_low", "profile_mid"]
        sim = {"model": "walk", "count": 1}
        detail = False
    else:
        data = gen.make_cohort(csv_path, seed, size["per_group"], size["length"])
        k, common = 5, ["--mode", "strict"]
        focal, reference = "ocd", "adhd"
        candidates = ["symmetric", "skewed+", "skewed-"]
        sim = {"model": "DWM", "count": size["per_group"]}
        detail = name == "cohort-detail"
    sim["length"] = size["sim_length"]
    data_in = ["--input", "cohort.csv"]
    pair = ["--numerator", f"group:{focal}", "--denominator", f"group:{reference}"]
    argv = {
        "simulate": ["simulate", "--model", sim["model"], "--length", str(sim["length"]),
                     "--count", str(sim["count"]), "--seed", str(seed),
                     "--group-label", "sim", "--out", "sim.csv"],
        "estimate": ["estimate", *data_in] + (["--per-participant"] if detail else []),
        "compare": ["compare", *data_in, "--focal", focal, "--reference", reference],
        "score": ["score", *data_in, *pair] + (["--breakdown"] if detail else []),
        "classify": ["classify", *data_in, *pair],
        "classify_multi": ["classify", *data_in, "--models",
                           ",".join(f"model:{c}" for c in candidates),
                           "--reference", "model:MEM"],
        "diagnose": ["diagnose", *data_in, *pair, "--with-sum-score",
                     "--roc-csv", "roc.csv", "--svg", "roc.svg"],
    }
    ops = [{"name": op, "argv": argv[op] + common + ["--output", f"{op}.json"]}
           for op in OP_NAMES]

    def out(f):
        return os.path.join(work, f)

    sim_spec = {"rows": gen.model_rows(sim["model"], k), "k": k, "seed": seed,
                "count": sim["count"], "length": sim["length"], "group": "sim",
                "id_prefix": "sim"}
    truth = {}

    def t():
        if not truth:
            truth["t"] = oracle.Truth(data, k)
        return truth["t"]

    checks = {
        "simulate": lambda: oracle.check_simulate(out("simulate.json"), out("sim.csv"), sim_spec),
        "estimate": lambda: oracle.check_estimate(out("estimate.json"), t(), detail),
        "compare": lambda: oracle.check_compare(out("compare.json"), t(), focal, reference),
        "score": lambda: oracle.check_score(out("score.json"), t(), focal, reference, detail),
        "classify": lambda: oracle.check_classify(out("classify.json"), t(), focal, reference),
        "classify_multi": lambda: oracle.check_classify_multi(
            out("classify_multi.json"), t(), candidates, "MEM"),
        "diagnose": lambda: oracle.check_diagnose(
            out("diagnose.json"), t(), focal, reference, out("roc.csv"), out("roc.svg")),
    }
    return ops, checks


def measure_setup(env):
    """Median CPU time of importing respchain.cli in fresh interpreters.

    CPU time leaves out the waits for a CPU that a busy shared host adds
    to wall time.
    """
    code = ("import time; t = time.process_time(); import respchain.cli; "
            "print(repr(time.process_time() - t))")
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        if i:  # the first import may write bytecode caches
            times.append(float(out.stdout))
    return statistics.median(times)


def job_time(samples, factor=1.0):
    """Median wall time of the successful runs times `factor`; the failed
    runs count only if none succeeded."""
    ok = [s for s in samples if s["error"] is None] or samples
    return statistics.median(s["wall_s"] for s in ok) * factor


def run_checks(checks, ran):
    problems = {}
    for op, check in checks.items():
        if op in ran:
            found = check()
            if found:
                problems[op] = list(found)
    return problems


def read_log(path, sets, stopped_at=None):
    """Samples per set and op, calibration times, layer metrics and peak
    RSS from the measuring process's log.

    `stopped_at` (time.time()) is when the process was stopped: the op it
    was running gets a "timeout" sample up to then, unless it had already
    finished a run of that set, and an op of `sets` that never started
    gets a "timeout" sample of 0 s.
    """
    samples = {kind: {op: [] for op in OP_NAMES} for kind in sets}
    log = {"calibration_s": [], "layers": None, "rss_kib": 0}
    running = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                event = json.loads(line)
            except ValueError:  # the last line of a stopped process
                continue
            if "start" in event:
                running = event
            elif "op" in event:
                samples[event["set"]][event["op"]].append(
                    {"wall_s": event["wall_s"], "error": event["error"]})
                log["rss_kib"] = event["rss_kib"]
                running = None
            elif "cal" in event:
                log["calibration_s"].append(event["cal"])
            elif "layers" in event:
                log["layers"] = event["layers"]
    if stopped_at is not None:
        if running and not samples[running["set"]][running["start"]]:
            samples[running["set"]][running["start"]].append(
                {"wall_s": stopped_at - running["at"], "error": "timeout"})
        for ops in samples.values():
            for op_samples in ops.values():
                if not op_samples:
                    op_samples.append({"wall_s": 0.0, "error": "timeout"})
    return samples, log


def assess(workload, sample_sets):
    """Failed ops, undeclared failures, and the ops whose output to check.

    An op failed if any of its runs failed. A failure is declared if
    EXPECTED_FAILURES names the op on this workload with that error;
    every other failure is a problem. The output of an op is checked if
    its last run succeeded.
    """
    expected = EXPECTED_FAILURES.get(workload, {})
    failed, problems = {}, {}
    for sets in sample_sets:
        for op, samples in sets.items():
            for error in {s["error"] for s in samples if s["error"]}:
                failed.setdefault(op, set()).add(error)
                if expected.get(op) != error:
                    problems.setdefault(op, []).append(f"failed: {error}")
    ran = {op for op, s in sample_sets[-1].items() if s and s[-1]["error"] is None}
    return failed, problems, ran


def run(workload, seed, seconds, trace, sizes=None):
    started = time.time()
    if not os.path.isfile(os.path.join(SRC, "respchain", "cli.py")):
        raise SystemExit(f"no respchain sources under {SRC}")
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        ops, checks = build_workload(workload, seed, work, sizes)
        env = dict(os.environ, PYTHONPATH=SRC)
        setup_raw = None if trace else measure_setup(env)
        trace_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(trace_dir, exist_ok=True)
        deadline = started + RUN_LIMIT_S - CHECK_RESERVE_S
        plan = {"src": SRC, "workdir": work, "ops": ops, "seconds": seconds,
                "trace": trace, "deadline": deadline,
                "trace_out": os.path.join(trace_dir, f"trace-{workload}.npz")}
        plan_path, log_path = os.path.join(work, "plan.json"), os.path.join(work, "log.jsonl")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        stopped_at = None
        try:
            subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, log_path],
                           env=env, check=True, timeout=max(deadline - time.time(), 1))
        except subprocess.TimeoutExpired:  # the process has been stopped
            stopped_at = time.time()
        kinds = ("traced", "untraced") if trace else ("samples",)
        samples, log = read_log(log_path, kinds, stopped_at)
        sample_sets = [samples[kind] for kind in kinds]
        failed, problems, ran = assess(workload, sample_sets)
        for op, found in run_checks(checks, ran).items():
            failed.setdefault(op, set()).add("output check")
            problems.setdefault(op, []).extend(found)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = dict(log["layers"] or {})
        traced, untraced = samples["traced"], samples["untraced"]
        for op in OP_NAMES:
            metrics[f"{op}.trace.overhead_share"] = _ratio(
                job_time(traced[op]), job_time(untraced[op]))
        metrics["trace.overhead_share"] = _ratio(
            sum(job_time(traced[op]) for op in OP_NAMES),
            sum(job_time(untraced[op]) for op in OP_NAMES))
        units = {name: unit_of(name) for name in metrics}
    else:
        factor = CAL_REFERENCE_S / statistics.median(log["calibration_s"] or [CAL_REFERENCE_S])
        metrics = {f"{op}_s": job_time(samples["samples"][op], factor) for op in OP_NAMES}
        metrics["setup_s"] = setup_raw * factor
        metrics["peak_rss_mb"] = log["rss_kib"] / 1024.0
        units = {name: ("MiB" if name == "peak_rss_mb" else "s") for name in metrics}
    print_table(workload, seed, trace, metrics, units, samples, log, failed, problems,
                setup_raw, time.time() - started)
    return {"correct": not problems, "attempted": len(OP_NAMES), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes_per_row"):
        return "B/row"
    if name.endswith("bytes_out"):
        return "B"
    if name.endswith("overhead_share") or name.endswith("ratio"):
        return "ratio"
    return "count"


def print_table(workload, seed, trace, metrics, units, samples, log, failed, problems,
                setup_raw, run_s):
    print(f"# respchain benchmark: workload={workload} seed={seed} trace={trace} "
          f"run={run_s:.1f} s")
    if not trace:
        cal = log["calibration_s"] or [float("nan")]
        print(f"#   calibration median {statistics.median(cal):.4f} s "
              f"(n={len(cal)}, reference {CAL_REFERENCE_S} s)")
        print(f"#   {'metric':<18} {'host-normalised':>16}   raw wall time")
        for op in OP_NAMES:
            runs = samples["samples"][op]
            bad = sum(1 for s in runs if s["error"])
            print(f"#   {op + '_s':<18} {metrics[op + '_s']:14.4f} s   {job_time(runs):.4f} s"
                  f"  n={len(runs)} failed={bad}")
        print(f"#   {'setup_s':<18} {metrics['setup_s']:14.4f} s   {setup_raw:.4f} s")
        print(f"#   {'peak_rss_mb':<18} {metrics['peak_rss_mb']:14.1f} MiB")
    else:
        for name, value in metrics.items():
            print(f"#   {name:<52} {value:14.6g} {units[name]}")
    print(f"#   failed_ops_share={len(failed) / len(OP_NAMES):.4f} "
          f"({len(failed)}/{len(OP_NAMES)} ops)")
    for op, errors in failed.items():
        declared = "declared" if op not in problems else "NOT DECLARED"
        print(f"#   failed {op}: {', '.join(sorted(errors))} ({declared})")
    for op, found in problems.items():
        for line in found[:5]:
            print(f"#   CHECK FAILED {op}: {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    for workload in (WORKLOADS if args.all else [args.workload]):
        print(json.dumps(run(workload, args.seed, args.seconds, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
