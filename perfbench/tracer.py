"""Per-layer tracing from outside the package.

Every public function of each respchain module is replaced by a wrapper
that records a span: its name, its parent span, the op it ran under,
start, duration and self time (duration minus the time of its child
spans). The wrapper is installed on every binding callers use, so names
imported with ``from .chain import count_transitions`` (scoring) or
``from .chain import stationary`` (simulate) are traced as well. Spans
stay in memory while the ops run and are written out once, at the end.

``cli.main`` is the root span of each op; ``cli.self_s`` is what the CLI
does itself (argument parsing, _resolve, by_group scans, sorting).
"""

import gc
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("dataio", "chain", "models", "scoring", "stats", "diagnostics",
          "report", "simulate", "_kernels")


def _notes(name, args, result):
    """Work counts read from a traced call's arguments or result."""
    if name == "chain.stationary":
        return {"iterations": result.power_at_convergence}
    if name == "dataio.load_cohort":
        return {"rows": len(result)}
    if name == "report.report_json":
        return {"bytes": len(result)}
    if name == "_kernels.walk":
        return {"steps": len(args[2])}
    if name == "_kernels.pair_counts":
        return {"pairs": max(len(args[0]) - 1, 0)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, duration, self)
        self.notes = defaultdict(int)  # (op, name, key) -> total
        self.lr_pairs = set()
        self.op = None
        self._stack = []  # [span id, time spent in children]
        self._restore = []

    def _wrap(self, name, fn):
        spans, notes, stack = self.spans, self.notes, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                spans.append((sid, parent, self.op, name, start, duration,
                              duration - frame[1]))
                if ok:
                    extra = _notes(name, args, result)
                    if extra:
                        for key, value in extra.items():
                            notes[(self.op, name, key)] += value
                    if name == "scoring.log_likelihood_matrix":
                        self.lr_pairs.add((args[0].probs.tobytes(),
                                           args[1].probs.tobytes(), args[2:]))

        traced.__wrapped__ = fn
        return traced

    def install(self, cli):
        """Wrap cli.main and every public function of each layer module."""
        package = cli.__name__.rsplit(".", 1)[0]
        targets = {id(cli.main): (cli.main, "cli.main")}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets.setdefault(id(obj), (obj, f"{layer}.{attr}"))
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][0]:
                    setattr(module, attr, wrappers[id(obj)])
                    self._restore.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def write(self, path):
        """Save every span as columns of one .npz file (names as codes)."""
        names = sorted({s[3] for s in self.spans})
        ops = sorted({str(s[2]) for s in self.spans})
        name_code = {n: i for i, n in enumerate(names)}
        op_code = {o: i for i, o in enumerate(ops)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez(
            path,
            id=np.array(cols[0], dtype=np.int32),
            parent=np.array([-1 if p is None else p for p in cols[1]], dtype=np.int32),
            op=np.array([op_code[str(o)] for o in cols[2]], dtype=np.int8),
            name=np.array([name_code[n] for n in cols[3]], dtype=np.int16),
            start_s=np.array(cols[4]), duration_s=np.array(cols[5]),
            self_s=np.array(cols[6]), names=np.array(names), ops=np.array(ops))


def summarize(tracer, op_names):
    """Per-layer metrics of one traced pass (every op once)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    module_s = defaultdict(float)
    names = {}
    per_op = defaultdict(int)
    cli_self = defaultdict(float)
    for sid, parent, op, name, _start, duration, own in tracer.spans:
        names[sid] = name
        calls[name] += 1
        total[name] += duration
        self_time[name] += own
        per_op[(op, name)] += 1
        if name == "cli.main":
            cli_self[op] += own
    for sid, parent, op, name, _start, duration, own in tracer.spans:
        layer = name.split(".")[0]
        if parent is None or names[parent].split(".")[0] != layer:
            module_s[layer] += duration

    def notes(name, key):
        return sum(v for (op, n, k), v in tracer.notes.items() if n == name and k == key)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {"cli.self_s": sum(cli_self.values())}
    for op in op_names:
        m[f"{op}.cli.self_s"] = cli_self[op]
        m[f"{op}.models.builtin_models.calls"] = per_op[(op, "models.builtin_models")]
        m[f"{op}.chain.count_transitions.calls"] = per_op[(op, "chain.count_transitions")]
        m[f"{op}.scoring.log_likelihood_matrix.calls"] = per_op[(op, "scoring.log_likelihood_matrix")]
    load_calls = calls["dataio.load_cohort"]
    m.update({
        "dataio.load_cohort.s": total["dataio.load_cohort"],
        "dataio.load_cohort.rows": notes("dataio.load_cohort", "rows") / max(load_calls, 1),
        "dataio.write_cohort.s": total["dataio.write_cohort"],
        "chain.count_transitions.calls": calls["chain.count_transitions"],
        "chain.count_transitions.self_s": self_time["chain.count_transitions"],
        "chain.pool_counts.self_s": self_time["chain.pool_counts"],
        "chain.stationary.s": total["chain.stationary"],
        "chain.stationary.iterations": notes("chain.stationary", "iterations"),
        "models.builtin_models.calls": calls["models.builtin_models"],
        "scoring.log_likelihood_matrix.calls": calls["scoring.log_likelihood_matrix"],
        "scoring.log_likelihood_matrix.self_s": self_time["scoring.log_likelihood_matrix"],
        "scoring.lr_useful_ratio": (len(tracer.lr_pairs) / calls["scoring.log_likelihood_matrix"]
                                    if calls["scoring.log_likelihood_matrix"] else 0.0),
        "scoring.score_sequence.calls": calls["scoring.score_sequence"],
        "scoring.score_sequence.self_s": self_time["scoring.score_sequence"],
        "scoring.classify_multimodel.self_s": self_time["scoring.classify_multimodel"],
        "stats.s": module_s["stats"],
        "diagnostics.roc_curve.s": total["diagnostics.roc_curve"],
        "diagnostics.confusion.s": total["diagnostics.confusion"],
        "report.build_report.s": total["report.build_report"],
        "report.report_json.s": total["report.report_json"],
        "report.bytes_out": notes("report.report_json", "bytes"),
        "simulate.generate_cohort.self_s": self_time["simulate.generate_cohort"],
        "kernels.walk.calls": calls["_kernels.walk"],
        "kernels.walk.s": total["_kernels.walk"],
        "kernels.walk.steps_per_s": rate(notes("_kernels.walk", "steps"), total["_kernels.walk"]),
        "kernels.pair_counts.calls": calls["_kernels.pair_counts"],
        "kernels.pair_counts.s": total["_kernels.pair_counts"],
        "kernels.pair_counts.pairs_per_s": rate(notes("_kernels.pair_counts", "pairs"),
                                                 total["_kernels.pair_counts"]),
    })
    return m


def dataset_bytes_per_row(cli, argv):
    """tracemalloc bytes held by the dataset load_cohort returns, per row."""
    dataio = sys.modules[cli.__name__.rsplit(".", 1)[0] + ".dataio"]
    path = argv[argv.index("--input") + 1]
    config = dataio.load_config(argv[argv.index("--config") + 1] if "--config" in argv else None)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dataset = dataio.load_cohort(path, config)
        held = tracemalloc.get_traced_memory()[0] - before
        return held / len(dataset)
    finally:
        tracemalloc.stop()


def traced_pass(cli, ops, run, trace_out):
    """Run every op once under the tracer (``run(op)`` returns its time and
    error); return the layer metrics."""
    tracer = Tracer()
    tracer.install(cli)
    errors = {}
    try:
        for op in ops:
            tracer.op = op["name"]
            gc.collect()
            _, errors[op["name"]] = run(op)
    finally:
        tracer.uninstall()
    tracer.write(trace_out)
    layers = summarize(tracer, [op["name"] for op in ops])
    # Measured on the first op that loaded its input; 0 if none could.
    loaded = [op["argv"] for op in ops
              if "--input" in op["argv"] and errors[op["name"]] is None]
    layers["dataio.bytes_per_row"] = dataset_bytes_per_row(cli, loaded[0]) if loaded else 0.0
    return layers
