"""cli.main end to end: against the benchmark's independent oracle, under a
traced memory bound per op, and across fresh interpreters.

perfbench/gen.py (seeded cohorts) and perfbench/oracle.py (output checks)
import only the standard library and numpy, never respchain, so a check
that passes here does not rest on respchain's own code. Both are imported
read-only from their directory.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from respchain import Config, load_cohort, simulate
from respchain._kernels import CHUNK
from respchain.cli import main
from conftest import SEEDS, field_limit, traced_peak

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402
import oracle  # noqa: E402


@st.composite
def positive_rows(draw):
    """A K x K transition matrix, 2 <= K <= 12, with every cell positive, so
    its stationary distribution exists and the oracle can recompute it."""
    k = draw(st.integers(2, 12))
    weights = draw(st.lists(st.integers(1, 50), min_size=k * k, max_size=k * k))
    rows = np.array(weights, dtype=np.float64).reshape(k, k)
    return rows / rows.sum(axis=1, keepdims=True)


# (count, length, whether _vectorise picks the vectorised pass). Many short
# rows take the vectorised pass; a few rows of more than CHUNK steps take one
# Generator per row and the chunked walk, with a tail or (a whole number of
# chunks) without one.
SHORT_ROWS = st.tuples(st.integers(100, 300), st.integers(2, 24), st.just(True))
LONG_ROWS = st.tuples(
    st.integers(1, 3),
    st.one_of(st.sampled_from([2 * CHUNK + 1, 3 * CHUNK + 1]),
              st.integers(CHUNK + 2, 4 * CHUNK)),
    st.just(False),
)


# --id-prefix values: letters, ASCII or not, and the characters that
# %-formatting and str.format treat specially. No comma, quote or line
# break, so the rows are unquoted and the oracle's split on "," holds.
ID_PREFIXES = st.text(st.one_of(st.sampled_from("%{}"), st.characters(categories=["L"])),
                      max_size=6)


class TestSimulateReplay:
    """Every simulated row equals the oracle's replay of its documented
    stream, SeedSequence(seed, spawn_key=(i,)), through the sampling rule,
    under the id f"{prefix}{i:04d}"."""

    @settings(max_examples=40, deadline=None)
    @given(rows=positive_rows(), shape=st.one_of(SHORT_ROWS, LONG_ROWS), seed=SEEDS,
           prefix=ID_PREFIXES)
    @example(rows=np.full((11, 11), 1 / 11), shape=(2, 2 * CHUNK + 1, False), seed=2**128,
             prefix="sim")
    @example(rows=np.full((12, 12), 1 / 12), shape=(200, 16, True), seed=2**96 - 1,
             prefix="%d%%{0}é")
    def test_simulated_csv_replays(self, rows, shape, seed, prefix):
        count, length, vectorised = shape
        assert simulate._vectorise(count, length) is vectorised
        k = rows.shape[0]
        with tempfile.TemporaryDirectory() as work:
            config, csv, report = (os.path.join(work, f) for f in ("c.json", "s.csv", "r.json"))
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({"states": k, "models": {"chain": {"kind": "explicit",
                                                            "rows": rows.tolist()}}}, fh)
            code = main(["simulate", "--config", config, "--model", "chain",
                         "--length", str(length), "--count", str(count), "--seed", str(seed),
                         "--group-label", "sim", "--id-prefix", prefix, "--out", csv,
                         "--output", report])
            assert code == 0
            spec = {"rows": rows, "k": k, "count": count, "length": length, "seed": seed,
                    "group": "sim", "id_prefix": prefix}
            assert oracle.check_simulate(report, csv, spec) == []

    @pytest.mark.parametrize("group, count, length, vectorised",
                             [("ocd", 500, 16, True), ("adhd", 3, 1700, False)])
    def test_group_matrix_replays(self, tmp_path, group, count, length, vectorised):
        """simulate --group draws from the group's estimated matrix, which
        the oracle recomputes from the cohort's truth; stationary --group
        reports that matrix's stationary distribution."""
        assert simulate._vectorise(count, length) is vectorised
        cohort = tmp_path / "cohort.csv"
        rows = oracle.Truth(gen.make_cohort(cohort, 1, 300), 5).group_matrix(group)
        source = ["--group", group, "--input", str(cohort)]
        csv, report = tmp_path / "sim.csv", tmp_path / "sim.json"
        assert main(["simulate", *source, "--length", str(length), "--count", str(count),
                     "--seed", "3", "--group-label", "sim", "--out", str(csv),
                     "--output", str(report)]) == 0
        spec = {"rows": rows, "k": 5, "count": count, "length": length, "seed": 3,
                "group": "sim", "id_prefix": "sim"}
        assert oracle.check_simulate(report, csv, spec) == []
        assert main(["stationary", *source, "--output", str(tmp_path / "st.json")]) == 0
        problems = oracle.Problems()
        got = oracle.load_results(tmp_path / "st.json", "stationary", problems)["stationary"]
        dist, power = oracle.power_stationary(rows)
        problems.close("distribution", got["distribution"], dist)
        problems.equal("power", got["power_at_convergence"], power)
        problems.equal("converged", got["converged"], True)
        assert problems == []


# Marks put inside ids so that csv.writer quotes them: a comma, a quote, a
# line break, and all three.
ID_MARKS = ("", ",a", '"b', "\nc", '"d,e"\r\nf')


@st.composite
def two_group_cohorts(draw):
    """(K, truth, quoted) for 2 <= K <= 12: two groups of 2 to 13 rows each,
    of 2 to 40 responses, in a drawn file order, as gen's cohorts give them.
    One row of each group leaves every state, so that score's ratio has
    every row of both matrices defined. In some cohorts every row is one of
    at most three, so that participants of both groups tie; in quoted ones
    the ids hold ID_MARKS."""
    k = draw(st.integers(2, 12))
    row = st.lists(st.integers(1, k), min_size=2, max_size=40).map(np.array)
    leaves_all = st.permutations(range(1, k + 1)).map(lambda p: np.array([*p, p[0]]))
    if draw(st.booleans()):  # rows repeat across participants, so scores tie
        first = draw(leaves_all)
        row = st.sampled_from([first, *draw(st.lists(row, min_size=1, max_size=2))])
        leaves_all = st.just(first)
    rows = [(group, states) for group in ("lo", "hi")
            for states in [draw(leaves_all), *draw(st.lists(row, min_size=1, max_size=12))]]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    quoted = draw(st.booleans())
    marks = st.sampled_from(ID_MARKS) if quoted else st.just("")
    return k, {"ids": np.array([f"P{i:03d}{draw(marks)}" for i in range(len(rows))]),
               "groups": np.array([group for group, _ in rows]),
               "states": [states for _, states in rows]}, quoted


def scale_example(k):
    """A quoted case at K = k for @example: three rows a group, the first
    leaving every state and shared by both groups."""
    rng = np.random.default_rng(k)
    first = np.array([*range(1, k + 1), 1])
    states = [first, rng.integers(1, k + 1, 30), rng.integers(1, k + 1, 7),
              first, rng.integers(1, k + 1, 12), rng.integers(1, k + 1, 5)]
    return k, {"ids": np.array([f"P{i:03d}{ID_MARKS[i % len(ID_MARKS)]}" for i in range(6)]),
               "groups": np.array(["lo"] * 3 + ["hi"] * 3), "states": states}, True


def write_with_csv_module(path, ids, groups, states, k):
    """gen.write_cohort_csv's rows, quoted where needed by the stdlib csv.writer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["participant_id", "group", "responses"])
        for pid, group, row in zip(ids, groups, states):
            out.writerow([pid, group, (";" if k > 9 else "").join(map(str, row.tolist()))])


# Multi-model classify's candidates by scale: the benchmark's K=5 profiles, and
# at K=11 the models of gen.write_long_config; each against model:MEM.
MULTI_MODELS = {5: ["symmetric", "skewed+", "skewed-"],
                gen.LONG_STATES: ["walk", "profile_low", "profile_mid"]}


class TestAnalysisOracle:
    """Every analysis op on gen-written cohorts of every scale width, with
    ragged rows, tied scores and ids that need quoting, against the oracle's
    counts, tests, scores and ROC: the reader, the counting, the statistics,
    the scoring and the ROC checked by code that shares none of theirs."""

    @settings(max_examples=40, deadline=None)
    @given(case=two_group_cohorts())
    @example(case=scale_example(5))
    @example(case=scale_example(gen.LONG_STATES))
    def test_analysis_ops_match_the_oracle(self, case):
        k, data, quoted = case
        truth = oracle.Truth(data, k)
        pair = ["--numerator", "group:lo", "--denominator", "group:hi"]
        with tempfile.TemporaryDirectory() as work:
            cohort, report, roc, svg, config = (
                os.path.join(work, f)
                for f in ("cohort.csv", "report.json", "roc.csv", "roc.svg", "config.json"))
            write = write_with_csv_module if quoted else gen.write_cohort_csv
            write(cohort, data["ids"], data["groups"], data["states"], k)
            common = ["--input", cohort, "--states", str(k), "--output", report]
            assert main(["estimate", *common, "--per-participant"]) == 0
            assert oracle.check_estimate(report, truth, True) == []
            # compare is checked where its statistics are defined: both power searches
            # converge within the default max_power of 64, the reference distribution is
            # positive and some transition stays, so every expected count is positive
            (_, lo_power), (reference, hi_power) = (
                oracle.power_stationary(truth.group_matrix(g)) for g in ("lo", "hi"))
            if max(lo_power, hi_power) < 64 and reference.min() > 0 \
                    and truth.counts[:, ::k + 1].any():
                assert main(["compare", *common, "--focal", "lo", "--reference", "hi"]) == 0
                assert oracle.check_compare(report, truth, "lo", "hi") == []
            assert main(["score", *common, *pair]) == 0
            assert oracle.check_score(report, truth, "lo", "hi", False) == []
            assert main(["classify", *common, *pair]) == 0
            assert oracle.check_classify(report, truth, "lo", "hi") == []
            assert main(["diagnose", *common, *pair, "--with-sum-score",
                         "--roc-csv", roc, "--svg", svg]) == 0
            assert oracle.check_diagnose(report, truth, "lo", "hi", roc, svg) == []
            if k in MULTI_MODELS:
                if k == gen.LONG_STATES:
                    gen.write_long_config(config)
                    common += ["--config", config]
                assert main(["classify", *common, "--models", ",".join(MULTI_MODELS[k]),
                             "--reference", "model:MEM"]) == 0
                assert oracle.check_classify_multi(report, truth, MULTI_MODELS[k], "MEM") == []


@pytest.fixture(scope="module")
def cohorts(tmp_path_factory):
    """The benchmark's cohort-40k input (seed 1), the same with group labels
    over 8 bytes, a 4,000-row cohort of the same kind for the
    per-participant tables, and long-walk's K=11 cohort and config."""
    work = tmp_path_factory.mktemp("cohorts")
    gen.make_cohort(work / "40k.csv", 1, 20_000)
    (work / "40k_wide.csv").write_bytes((work / "40k.csv").read_bytes().replace(
        b",ocd,", b",obsessive_compulsive,").replace(b",adhd,", b",attention_deficit,"))
    gen.make_cohort(work / "4k.csv", 1, 2_000)
    gen.make_long_cohort(work / "long.csv", 1, 4, 250_000)
    gen.write_long_config(work / "config.json")
    return work


_PAIR = ["--numerator", "group:ocd", "--denominator", "group:adhd"]
_IDS = "CohortDataset: _check_unique's set of the id strings"
_SCORES = "_scores: one block's visited-cell indices, terms and level sums"
# op: (input, argv, rows or steps, bound in bytes per row or step, the
# stage that sets the traced peak). Measured on these seed-1 inputs (numpy
# 2.4, x86-64), in B per row: estimate 205.3, compare 205.3, estimate with
# the wide group labels (over 8 bytes, so read as text) 220.3, score 217.4,
# classify 211.2, classify with three models 225.4, diagnose 205.3, and
# 2,562 and 1,667 for the two per-participant tables. Each bound adds 10 %
# to the peak measured when it was last lowered. The simulate bounds are
# their measured 23.3 and 17.6 B per step (31.3 and 24.1 B with the walk's
# former int64 output).
PEAK_OPS = {
    "estimate": ("40k", ["estimate"], 40_000, 227, _IDS),
    "estimate_wide_groups": ("40k_wide", ["estimate"], 40_000, 241, _IDS),
    "compare": ("40k", ["compare", "--focal", "ocd", "--reference", "adhd"], 40_000, 225,
                _IDS),
    "score": ("40k", ["score", *_PAIR], 40_000, 240, _SCORES),
    "classify": ("40k", ["classify", *_PAIR], 40_000, 233, _SCORES),
    "classify_multi": ("40k", ["classify", "--models",
                               "model:symmetric,model:skewed+,model:skewed-",
                               "--reference", "model:MEM"], 40_000, 247, _SCORES),
    "diagnose": ("40k", ["diagnose", *_PAIR, "--with-sum-score", "--roc-csv", "{tmp}/roc.csv",
                         "--svg", "{tmp}/roc.svg"], 40_000, 226, _IDS),
    "estimate_per_participant": ("4k", ["estimate", "--per-participant"], 4_000, 2_820,
                                 "write_report: the per-participant table's nested lists"),
    "score_breakdown": ("4k", ["score", *_PAIR, "--breakdown"], 4_000, 1_880,
                        "score_terms: one tuple per visited cell of every row"),
    "simulate": (None, ["simulate", "--model", "DWM", "--length", "16", "--count", "20000"],
                 320_000, 24, "draw_cohort: the vectorised draws, intp bins and output"),
    "simulate_long": (None, ["simulate", "--config", "{cohorts}/config.json", "--model", "walk",
                             "--length", "1000000"], 1_000_000, 18,
                      "draw_cohort: float64 draws (8 B), intp bins (8 B), output (1 B)"),
}


class TestTracedPeaks:
    """The traced peak of each op's cli.main, per cohort row or simulated
    step, and of loading long-walk's rows, per response. A bound is lowered
    when a change lowers its peak, never raised to let a change pass."""

    @pytest.mark.parametrize("op", PEAK_OPS)
    def test_peak_per_unit(self, op, cohorts, tmp_path):
        source, argv, units, bound, stage = PEAK_OPS[op]
        argv = [arg.format(tmp=tmp_path, cohorts=cohorts) for arg in argv]
        if source:
            argv += ["--input", str(cohorts / f"{source}.csv"), "--mode", "strict"]
        else:
            argv += ["--seed", "1", "--group-label", "sim", "--out", str(tmp_path / "sim.csv")]
        argv += ["--output", str(tmp_path / "report.json")]
        codes = []
        peak = traced_peak(lambda: codes.append(main(argv)))
        assert codes == [0]
        assert peak <= bound * units, f"{peak / units:.1f} B per unit, set by {stage}"

    def test_long_row_load_per_response(self, cohorts):
        # 8 rows of 250,000 K=11 responses, each cell about 550,000 characters: long-walk's
        # analysis ops stop at the default field limit, so it is raised around the load.
        # Measured at 14.8 B per response (numpy 2.4, x86-64), set by the file's bytes,
        # their copy, a ';' mask and an int64 position per ';'; a string per response
        # took 34.8 B. The bound adds 15 %.
        with field_limit(2**20):
            peak = traced_peak(lambda: load_cohort(cohorts / "long.csv", Config(states=11)))
        assert peak <= 17 * 2_000_000, f"{peak / 2_000_000:.1f} B per response"


# Both draw paths of simulate (TestStreams.test_path_rule pins which of the
# two each shape takes), and every analysis op, with its per-row tables and
# exported files. A relative path ending in .csv or .svg is a file the run
# writes.
FRESH_RUNS = {
    "simulate_vectorised": ["simulate", "--model", "DWM", "--length", "16", "--count", "500",
                            "--seed", "7", "--out", "sim.csv"],
    "simulate_generator": ["simulate", "--model", "DWM", "--length", "1700", "--count", "3",
                           "--seed", "7", "--out", "sim.csv"],
    "estimate": ["estimate", "--input", "{cohort}", "--per-participant"],
    "compare": ["compare", "--input", "{cohort}", "--focal", "ocd", "--reference", "adhd"],
    "score": ["score", "--input", "{cohort}", *_PAIR, "--breakdown"],
    "classify": ["classify", "--input", "{cohort}", *_PAIR],
    "classify_multi": ["classify", "--input", "{cohort}", "--models",
                       "symmetric,skewed+,skewed-", "--reference", "model:MEM"],
    "diagnose": ["diagnose", "--input", "{cohort}", *_PAIR, "--with-sum-score",
                 "--roc-csv", "roc.csv", "--svg", "roc.svg"],
}


def fresh_run(argv, hash_seed, **kwargs):
    """python -m respchain.cli argv in a fresh interpreter under PYTHONHASHSEED."""
    python_path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": python_path}
    return subprocess.run([sys.executable, "-m", "respchain.cli", *argv], env=env,
                          capture_output=True, timeout=120, **kwargs)


class TestDeterminismAcrossProcesses:
    """One command in fresh interpreters under PYTHONHASHSEED 1 and 2 writes
    the same report, apart from its generated_at, and the same CSV and SVG
    bytes. Each run writes under its own directory by the same relative
    paths, so no path differs between the runs."""

    @pytest.mark.parametrize("run", FRESH_RUNS)
    def test_same_output_under_other_hash_seeds(self, run, tmp_path):
        cohort = tmp_path / "cohort.csv"
        gen.make_cohort(cohort, 3, 300)
        argv = [arg.format(cohort=cohort) for arg in FRESH_RUNS[run]] + ["--output", "r.json"]
        written = {arg for arg in argv
                   if arg.endswith((".csv", ".svg")) and not os.path.isabs(arg)}
        outputs = []
        for hash_seed in ("1", "2"):
            work = tmp_path / hash_seed
            work.mkdir()
            done = fresh_run(argv, hash_seed, cwd=work)
            assert done.returncode == 0, done.stderr
            report = json.loads((work / "r.json").read_text(encoding="utf-8"))
            del report["header"]["generated_at"]
            outputs.append((report, {name: (work / name).read_bytes() for name in written}))
        assert outputs[0] == outputs[1]

    def test_piped_input_is_hashed_as_read(self, tmp_path):
        gen.make_cohort(tmp_path / "cohort.csv", 3, 300)
        data = (tmp_path / "cohort.csv").read_bytes()
        done = fresh_run(["estimate", "--input", "/dev/stdin"], "1", input=data)
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)["payload"]
        assert payload["results"]["n_sequences"] == 600
        assert payload["provenance"]["input"] == "/dev/stdin"
        assert payload["provenance"]["input_sha256"] == hashlib.sha256(data).hexdigest()
