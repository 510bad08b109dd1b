"""The benchmark's measuring process: a single-process closed loop.

    python3 perfbench/worker.py PLAN.json LOG.jsonl

PLAN names the package source directory, the operations (each a
``respchain.cli.main`` argv), how long to measure and the deadline by
which the run must end. Operations run one after another in this process,
each only after the previous one has returned; nothing here starts a
thread or a process. Every event goes to LOG as one JSON line, flushed at
once, so the parent still has the samples taken so far if it has to stop
this process at the deadline: the start of an op, each finished op (wall
time, error, this process's peak RSS so far), each calibration time and,
for a traced run, the per-layer metrics. Output checks happen in the
parent, after this process exits, so they add nothing to the RSS measured
here.

The host is shared and its speed drifts by up to 2x over minutes. A fixed
calibration job that does not touch respchain is timed about once a
second between ops; the parent divides by its median to express job
times at a reference host speed.
"""

import contextlib
import csv
import gc
import io
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

# The calibration job is timed CAL_REPEATS times before an op whenever
# CAL_EVERY_S has passed since it was last timed.
CAL_EVERY_S = 1.0
CAL_REPEATS = 3
# One sample of an op is the mean of back-to-back runs that take at least
# this long together, so that a job of a few milliseconds is timed over
# many runs.
MIN_SAMPLE_S = 0.1


@dataclass(frozen=True)
class _Row:
    pid: str
    group: str
    states: np.ndarray


def _calibration_text():
    rng = np.random.default_rng(20240326)
    lines = ["participant_id,group,responses"]
    for i, row in enumerate(rng.integers(1, 6, size=(800, 16))):
        lines.append(f"c{i:05d},g{i % 2},{''.join(map(str, row.tolist()))}")
    return "\n".join(lines) + "\n"


_CAL_TEXT = _calibration_text()


def calibration_job():
    """A fixed job with the mix of a CLI job that never touches respchain:
    CSV parsing, small numpy arrays, frozen dataclasses, dicts and an
    indented JSON dump. Its time tracks the speed of the (shared) host."""
    reader = csv.reader(io.StringIO(_CAL_TEXT))
    next(reader)
    rows = []
    for pid, group, cell in reader:
        states = np.asarray([int(ch) for ch in cell], dtype=np.int64)
        states.flags.writeable = False
        rows.append(_Row(pid, group, states))
    doc = []
    for row in sorted(rows, key=lambda r: r.pid):
        counts = np.zeros((5, 5), dtype=np.int64)
        np.add.at(counts, (row.states[:-1] - 1, row.states[1:] - 1), 1)
        doc.append({"id": row.pid, "group": row.group,
                    "score": float(np.sum(counts * 0.25)), "counts": counts.tolist()})
    return len(json.dumps(doc, indent=2))


def time_calibration():
    gc.collect()
    start = time.perf_counter()
    calibration_job()
    return time.perf_counter() - start


def import_package(src):
    """Import respchain from `src` and refuse any other copy."""
    sys.path.insert(0, src)
    import respchain
    import respchain.cli

    here = os.path.realpath(os.path.dirname(respchain.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"respchain imported from {here}, not from {src}")
    return respchain.cli


def run_op(cli, argv):
    """Run one CLI job; return (seconds, error) with error None on success."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback out of main is a failed op
            elapsed = time.perf_counter() - start
            kind = type(exc)
            return elapsed, f"{kind.__module__}.{kind.__qualname__}"
        elapsed = time.perf_counter() - start
    if code != 0:
        try:
            error = "exit %d (%s)" % (code, json.loads(sink_err.getvalue())["error"]["type"])
        except (ValueError, KeyError, TypeError):
            error = f"exit {code}"
    return elapsed, error


class Log:
    """Append-only JSON-lines event log, flushed after every event."""

    def __init__(self, path):
        self.fh = open(path, "a", encoding="utf-8")

    def write(self, **event):
        self.fh.write(json.dumps(event) + "\n")
        self.fh.flush()

    def run(self, cli, op, kind, min_sample_s=0.0):
        """Take one sample of `op` (back-to-back runs until `min_sample_s`
        have passed, at least one) and log its start and its mean time
        under `kind`. Returns the time of all its runs and the first
        error."""
        self.write(start=op["name"], set=kind, at=time.time())
        runs, total, error = 0, 0.0, None
        while runs == 0 or total < min_sample_s:
            elapsed, failure = run_op(cli, op["argv"])
            runs, total, error = runs + 1, total + elapsed, error or failure
        self.write(op=op["name"], set=kind, wall_s=total / runs, error=error,
                   rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return total, error


def measure(cli, ops, seconds, min_rounds, deadline, log, kind="samples",
            min_sample_s=MIN_SAMPLE_S):
    """Closed loop of rounds over `ops`, one sample of every op per round.

    Rounds repeat until `seconds` have passed and `min_rounds` are done.
    After the first round the loop ends early, before an op whose last
    sample, repeated now, would end after `deadline` (time.time()).
    """
    last_run = {}
    last_cal = float("-inf")
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for op in ops:
            if rounds and time.time() + last_run[op["name"]] > deadline:
                return
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                for _ in range(CAL_REPEATS):
                    log.write(cal=time_calibration())
                last_cal = time.perf_counter()
            gc.collect()
            last_run[op["name"]], _ = log.run(cli, op, kind, min_sample_s)
        rounds += 1


def main(plan_path, log_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli = import_package(plan["src"])
    os.chdir(plan["workdir"])
    ops, deadline, log = plan["ops"], plan["deadline"], Log(log_path)
    if plan["trace"]:
        import tracer

        # Every op once traced, then once untraced for the overhead.
        layers = tracer.traced_pass(cli, ops, lambda op: log.run(cli, op, "traced"),
                                    plan["trace_out"])
        log.write(layers=layers)
        measure(cli, ops, 0, 1, deadline, log, "untraced", min_sample_s=0.0)
    else:
        measure(cli, ops, plan["seconds"], 2, deadline, log)
        for _ in range(CAL_REPEATS):
            log.write(cal=time_calibration())


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
