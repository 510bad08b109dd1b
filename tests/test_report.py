"""Report assembly: provenance, deterministic payload, CSV and SVG output."""

import hashlib
import io
import json
from dataclasses import fields
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import respchain as rc
from respchain import report as reporting
from respchain import simulate
from respchain.cli import _build_parser, _effective_config, run_subcommand


@pytest.fixture
def curve():
    return rc.roc_curve(
        [0.9, 0.3, 0.8, 0.1], ["p", "p", "n", "n"], positive_label="p"
    )


class TestBuildReport:
    def test_shape(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("participant_id,group,responses\nA,,123\n")
        doc = reporting.build_report(
            "estimate", {"answer": 42}, rc.Config(), rc.load_cohort(p, rc.Config()),
        )
        assert doc["schema"] == "respchain-report/1"
        assert doc["header"]["command"] == "estimate"
        assert doc["payload"]["results"] == {"answer": 42}
        prov = doc["payload"]["provenance"]
        assert prov["input"] == str(p)
        assert prov["input_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
        assert prov["config"]["states"] == 5

    def test_digest_counts_the_byte_order_mark(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfparticipant_id,group,responses\r\nA,,123\r\n")
        cohort = rc.load_cohort(p, rc.Config())
        prov = reporting.build_report("estimate", {}, rc.Config(), cohort)["payload"]["provenance"]
        assert prov["input_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
        assert cohort.participant_ids == ("A",)

    def test_no_input_no_hash(self):
        doc = reporting.build_report("simulate", {}, rc.Config())
        assert "input" not in doc["payload"]["provenance"]

    def test_cohort_never_read_from_a_file_has_no_input(self):
        spec = rc.SimulationSpec(rc.max_entropy(rc.StateSpace(5)), length=4, count=3, seed=1)
        cohort = simulate.draw_cohort(spec, np.full(5, 0.2))
        assert cohort.sha256 is None
        prov = reporting.build_report("x", {}, rc.Config(), cohort)["payload"]["provenance"]
        assert "input" not in prov and "input_sha256" not in prov

    def test_payload_json_is_stable(self):
        doc1 = reporting.build_report("x", {"b": 1, "a": [1, 2]}, rc.Config())
        doc2 = reporting.build_report("x", {"a": [1, 2], "b": 1}, rc.Config())
        # headers differ by timestamp; the payload serialization must not
        assert (reporting.report_json(doc1["payload"])
                == reporting.report_json(doc2["payload"]))

    def test_numpy_values_serialize(self):
        doc = reporting.build_report(
            "x",
            {"vec": np.array([0.5, 0.5]), "n": np.int64(3), "flag": np.bool_(True)},
            rc.Config(),
        )
        parsed = json.loads(reporting.report_json(doc))
        assert parsed["payload"]["results"]["vec"] == [0.5, 0.5]
        assert parsed["payload"]["results"]["n"] == 3
        assert parsed["payload"]["results"]["flag"] is True

    def test_nonfinite_values_become_strings(self):
        doc = reporting.build_report(
            "x", {"lo": float("-inf"), "hi": float("inf"), "gap": float("nan")},
            rc.Config(),
        )
        parsed = json.loads(reporting.report_json(doc))
        assert parsed["payload"]["results"] == {
            "lo": "-inf", "hi": "inf", "gap": "nan",
        }

    def test_config_block_carries_models(self):
        cfg = rc.Config(models=(
            rc.TheoreticalModelSpec("flat", "max_entropy", {}),
        ))
        block = reporting.config_block(cfg)
        assert block["models"] == {"flat": {"kind": "max_entropy"}}

    def test_config_file_with_every_field_is_written_back(self, tmp_path):
        body = {
            "states": 3, "state_labels": ["lo", "mid", "hi"], "tolerance": 1e-3,
            "max_power": 32, "epsilon_floor": 0.02, "smoothing_alpha": 0.5,
            "cutoff": 1.5, "mode": "lenient",
            "models": {"flat": {"kind": "max_entropy"}},
        }
        assert set(body) == {f.name for f in fields(rc.Config)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        doc = reporting.build_report("x", {}, rc.load_config(path))
        assert doc["payload"]["provenance"]["config"] == body

    @pytest.mark.parametrize("labels", [None, []])
    def test_unset_state_labels_written_as_null(self, labels):
        doc = reporting.build_report("x", {}, rc.Config(state_labels=labels))
        parsed = json.loads(reporting.report_json(doc))
        assert parsed["payload"]["provenance"]["config"]["state_labels"] is None


class TestRocOutputs:
    def test_csv_header_and_origin(self, curve):
        text = reporting.roc_points_csv(curve)
        lines = text.strip().splitlines()
        assert lines[0] == "fpr,tpr,cutoff"
        assert lines[1] == "0.0,0.0,inf"
        assert len(lines) == len(curve.points) + 1

    def test_csv_rows_parse_back(self, curve):
        lines = reporting.roc_points_csv(curve).strip().splitlines()[1:]
        for line, point in zip(lines, curve.points):
            fpr, tpr, cutoff = (float(x) for x in line.split(","))
            assert (fpr, tpr, cutoff) == point

    def test_svg_is_self_contained(self, curve):
        svg = reporting.roc_svg([("score", curve)])
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        assert "0.750" in svg  # legend carries the AUC

    def test_svg_multiple_curves(self, curve):
        other = rc.roc_curve([1.0, 0.0], ["p", "n"], positive_label="p")
        svg = reporting.roc_svg([("a", curve), ("b", other)])
        assert svg.count("polyline") >= 2


class TestBlocks:
    def test_outcome_block_translates_flags_to_labels(self):
        outcome = rc.equiprobability_test([100, 40, 30, 10])
        block = reporting.outcome_block(outcome, state_labels=("1", "2", "3", "4"))
        assert block["flagged_cells"] == [0]
        assert block["flagged_states"] == ["1"]

    def test_matrix_block_round_trips_through_json(self, adhd_matrix):
        doc = reporting.build_report(
            "x", {"m": adhd_matrix}, rc.Config(),
        )
        parsed = json.loads(reporting.report_json(doc))
        probs = np.array(parsed["payload"]["results"]["m"]["probs"])
        assert np.allclose(probs, adhd_matrix.probs)
        assert parsed["payload"]["results"]["m"]["defined_rows"] == [True] * 5


def oracle_sanitize(value):
    """The payload walk the table writer replaced: numpy types to Python,
    non-finite floats to strings, dict keys to strings in sorted order."""
    if isinstance(value, dict):
        out = {str(k): oracle_sanitize(v) for k, v in value.items()}
        return dict(sorted(out.items()))
    if isinstance(value, (list, tuple)):
        return [oracle_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [oracle_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if v != v:
            return "nan"
        if v == float("inf"):
            return "inf"
        if v == float("-inf"):
            return "-inf"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def materialise(value):
    """value with every Table replaced by its rows, as the oracle walk
    makes them: a list of row dicts, or a dict of them under the keys."""
    if isinstance(value, reporting.Table):
        def lists(columns):
            return {key: lists(column) if isinstance(column, dict)
                    else column.tolist() if isinstance(column, np.ndarray)
                    else column for key, column in columns.items()}

        def leaves(columns):
            for column in columns.values():
                if isinstance(column, dict):
                    yield from leaves(column)
                else:
                    yield column

        def cell(column, i):
            if isinstance(column, dict):
                return {key: cell(sub, i) for key, sub in column.items()}
            return column[i]

        columns = lists(value.columns)
        if value.keys is not None:
            n = len(value.keys)
        else:
            n = len(next(leaves(columns), ()))
        rows = [oracle_sanitize(cell(columns, i)) for i in range(n)]
        return rows if value.keys is None else dict(zip(value.keys, rows))
    if isinstance(value, dict):
        return {key: materialise(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [materialise(item) for item in value]
    return value


def oracle_write_report(report, fh, batch_chunks=8192):
    """The encoder the table writer replaced, over the materialised rows:
    JSONEncoder(indent=2, allow_nan=False) chunks, a batch per write."""
    chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(
        materialise(report))
    while batch := list(islice(chunks, batch_chunks)):
        fh.write("".join(batch))
    fh.write("\n")


def oracle_text(report):
    out = io.StringIO()
    oracle_write_report(report, out)
    return out.getvalue()


def two_pass_report_json(report):
    """The earlier encoder: payload sorted and indented, parsed back, and
    the whole report encoded again."""
    payload = json.loads(reporting.report_json(report["payload"]))
    return json.dumps(
        {"schema": report["schema"], "header": report["header"],
         "payload": payload},
        indent=2, allow_nan=False,
    )


class TestReportJson:
    def test_matches_two_pass_encoder(self):
        results = {
            "zeta": {3: "int key", "b": [np.float64(0.1), np.int64(-2)]},
            "alpha": [{"y": float("nan"), "x": np.inf}, (1, 2.5e-300)],
            "mid": {"nested": {"z": np.array([[1.0, -0.0], [2.0, 1e16]]),
                               "a": np.bool_(False)}},
            "text": "é\"\\\n",
            "none": None,
        }
        doc = reporting.build_report("x", results, rc.Config())
        assert reporting.report_json(doc) == two_pass_report_json(doc)

    @pytest.mark.parametrize("argv", [
        ["estimate", "--per-participant"],
        ["score", "--numerator", "group:ocd", "--denominator", "group:adhd",
         "--breakdown"],
        ["diagnose", "--numerator", "group:ocd", "--denominator", "group:adhd",
         "--with-sum-score"],
    ])
    def test_cli_reports_match_two_pass_encoder(self, tmp_path, adhd_matrix,
                                                ocd_matrix, argv):
        rows = []
        for group, matrix, seed in (("adhd", adhd_matrix, 1), ("ocd", ocd_matrix, 2)):
            spec = rc.SimulationSpec(matrix, length=16, count=30, seed=seed)
            rows.extend(rc.generate_cohort(spec, group=group, id_prefix=group))
        path = tmp_path / "cohort.csv"
        rc.write_cohort(rows, rc.StateSpace(5), path)
        args = _build_parser().parse_args([*argv, "--input", str(path)])
        doc = run_subcommand(args.command, args, _effective_config(args))
        assert reporting.report_json(doc) == two_pass_report_json(doc)


class TestWriteReport:
    """write_report streams exactly the text of report_json plus a newline."""

    def written(self, doc):
        out = io.StringIO()
        reporting.write_report(doc, out)
        return out.getvalue()

    def test_small_estimate_report(self, tmp_path, adhd_matrix):
        spec = rc.SimulationSpec(adhd_matrix, length=16, count=5, seed=3)
        path = tmp_path / "cohort.csv"
        rc.write_cohort(rc.generate_cohort(spec, group="adhd"), rc.StateSpace(5), path)
        args = _build_parser().parse_args(["estimate", "--input", str(path)])
        doc = run_subcommand(args.command, args, _effective_config(args))
        assert self.written(doc) == reporting.report_json(doc) + "\n"

    def test_large_multi_model_report(self, tmp_path, adhd_matrix, ocd_matrix):
        rows = []
        for group, matrix, seed in (("adhd", adhd_matrix, 1), ("ocd", ocd_matrix, 2)):
            spec = rc.SimulationSpec(matrix, length=16, count=1000, seed=seed)
            rows.extend(rc.generate_cohort(spec, group=group, id_prefix=group))
        path = tmp_path / "cohort.csv"
        rc.write_cohort(rows, rc.StateSpace(5), path)
        args = _build_parser().parse_args([
            "classify", "--input", str(path),
            "--models", "model:symmetric,model:skewed+,model:skewed-",
            "--reference", "model:MEM"])
        doc = run_subcommand(args.command, args, _effective_config(args))
        table = doc["payload"]["results"]["assignments"]
        assert len(table.columns["participant_id"]) > 5 * reporting.WRITE_BLOCK_ROWS
        assert self.written(doc) == reporting.report_json(doc) + "\n"
        assert self.written(doc) == oracle_text(doc)

    def test_non_finite_float_is_refused(self):
        with pytest.raises(ValueError):
            self.written({"x": float("nan")})

    def test_multi_model_table_is_written_from_arrays(self, tmp_path):
        registry = rc.builtin_models(rc.StateSpace(5))
        rows = []
        for group, model, seed in (("adhd", "DWM", 11), ("ocd", "skewed+", 12)):
            spec = rc.SimulationSpec(registry[model], length=16, count=600, seed=seed)
            rows.extend(rc.generate_cohort(spec, group=group, id_prefix=group))
        path = tmp_path / "cohort.csv"
        rc.write_cohort(rows, rc.StateSpace(5), path)
        args = _build_parser().parse_args([
            "classify", "--input", str(path), "--mode", "strict",
            "--models", "model:symmetric,model:skewed+,model:skewed-",
            "--reference", "model:MEM"])
        doc = run_subcommand(args.command, args, _effective_config(args))
        results = doc["payload"]["results"]
        columns = results["assignments"].columns
        scores = columns["scores"]
        assert all(isinstance(column, np.ndarray) and column.dtype == np.float64
                   for column in scores.values())
        assert isinstance(columns["tie"], np.ndarray) and columns["tie"].dtype == bool
        assert all(len(np.unique(column)) < len(column) / 4 for column in scores.values())
        lists = reporting.Table({
            **columns, "tie": columns["tie"].tolist(),
            "scores": {name: column.tolist() for name, column in scores.items()}})
        list_doc = {**doc, "payload": {**doc["payload"],
                                       "results": {**results, "assignments": lists}}}
        assert self.written(doc) == self.written(list_doc)


# --- the table writer against the oracle walk and encoder -----------------

FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, 1.5e300, 0.1, float("inf"), float("-inf"),
     float("nan")])
INTS = st.integers(-2**70, 2**70) | st.sampled_from([2**63, 2**64 + 1, -2**63 - 1])
TEXT = st.text(max_size=6) | st.sampled_from(
    ["é", "☃", "\U0001f600", "\"", "\\", "\x00\x1f\n\t", "{}", "{0}", "%", "%s"])
ATOMS = TEXT | FLOATS | INTS | st.booleans() | st.none()
NESTED = st.recursive(ATOMS, lambda inner: st.lists(inner, max_size=4)
                      | st.tuples(inner, inner), max_leaves=10)
CELLS = {
    "text": TEXT,
    "float": FLOATS,
    "finite": st.floats(allow_nan=False, allow_infinity=False),
    "int": INTS,
    "bool": st.booleans(),
    "group": st.none() | st.sampled_from(["adhd", "ocd", "é"]),
    "atom": ATOMS,
    "nested": NESTED,
}


NAN_PAYLOADS = [float("nan"), -float("nan"),
                np.array(0x7FF0_0000_0000_0001, dtype=np.uint64).view(np.float64).item(),
                np.array(0xFFF8_0000_DEAD_BEEF, dtype=np.uint64).view(np.float64).item()]
ARRAYS = {
    np.float64: st.floats() | st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e16, 0.1, float("inf"),
         float("-inf"), *NAN_PAYLOADS]),
    np.int64: st.integers(-2**63, 2**63 - 1) | st.sampled_from([0, 1, -1]),
    np.bool_: st.booleans(),
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 9))

    def column():
        if draw(st.integers(0, 2)) == 0:  # a 1-d array, often of a few values
            dtype = draw(st.sampled_from(list(ARRAYS)))
            cells = ARRAYS[dtype]
            if draw(st.booleans()):
                cells = st.sampled_from(draw(st.lists(cells, min_size=1, max_size=3)))
            return np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=dtype)
        return draw(st.lists(CELLS[draw(st.sampled_from(sorted(CELLS)))],
                             min_size=n, max_size=n))

    columns = {}
    for name in draw(st.lists(TEXT, unique=True, max_size=4)):
        if draw(st.integers(0, 3)) == 0:  # a fixed-key nested object per row
            names = draw(st.lists(TEXT, unique=True, min_size=1, max_size=3))
            columns[name] = {sub: column() for sub in names}
        else:
            columns[name] = column()
    keys = None
    if draw(st.booleans()) or not columns:
        keys = sorted(draw(st.lists(TEXT, unique=True, min_size=n, max_size=n)))
    return reporting.Table(columns, keys)


class TestTableWriter:
    """A Table writes the text json.dumps(indent=2) gives its rows."""

    @settings(max_examples=400, deadline=None)
    @given(tables(), st.integers(0, 3), st.integers(1, 4))
    def test_matches_oracle_encoder(self, table, depth, block_rows):
        doc = table
        for _ in range(depth):
            doc = {"after": [1, "x"], "level": doc}  # keys in sorted order
        expected = json.dumps(oracle_sanitize(materialise(doc)), indent=2,
                              allow_nan=False)
        with mock.patch.object(reporting, "WRITE_BLOCK_ROWS", block_rows):
            assert reporting.report_json(doc) == expected
            out = io.StringIO()
            reporting.write_report(doc, out)
        assert out.getvalue() == expected + "\n"

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        TEXT | INTS | st.booleans() | st.none()
        | st.floats(allow_nan=False, allow_infinity=False),
        lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
        | st.dictionaries(TEXT, inner, max_size=4), max_leaves=20))
    def test_other_values_match_json_dumps(self, value):
        expected = json.dumps(value, indent=2, allow_nan=False)
        assert reporting.report_json(value) == expected
        out = io.StringIO()
        reporting.write_report(value, out)
        assert out.getvalue() == expected + "\n"

    @pytest.mark.parametrize("value", [float("nan"), [1.0, float("inf")],
                                       {"a": [[-float("inf")]]}])
    def test_non_finite_floats_outside_a_table_are_refused(self, value):
        with pytest.raises(ValueError):
            reporting.report_json(value)

    def test_empty_tables(self):
        doc = {"list": reporting.Table({"a": [], "b": {"c": []}}),
               "keyed": reporting.Table({"a": []}, keys=[])}
        assert reporting.report_json(doc) == json.dumps(
            {"list": [], "keyed": {}}, indent=2)

    def test_non_finite_cells_follow_the_string_rule(self):
        table = reporting.Table({"x": [float("nan"), float("-inf"), 1.0],
                                 "terms": [[float("inf")], [], [(1, -0.0)]]})
        assert json.loads(reporting.report_json({"t": table}))["t"] == [
            {"terms": ["inf"], "x": "nan"}, {"terms": [], "x": "-inf"},
            {"terms": [[1, -0.0]], "x": 1.0}]

    def test_array_columns_keep_signed_zeros_and_every_nan(self):
        nans = np.array(NAN_PAYLOADS[2:], dtype=np.float64)
        assert len(set(nans.view(np.uint64).tolist())) == 2
        table = reporting.Table({"z": np.array([0.0, -0.0, -0.0, 0.0, 1.0]),
                                 "n": np.array([nans[0], 1.0, nans[1], nans[0], -0.0])})
        text = reporting.report_json({"t": table})
        assert text == json.dumps(oracle_sanitize(materialise({"t": table})), indent=2)
        assert json.loads(text)["t"] == [
            {"n": "nan", "z": 0.0}, {"n": 1.0, "z": -0.0}, {"n": "nan", "z": -0.0},
            {"n": "nan", "z": 0.0}, {"n": -0.0, "z": 1.0}]
        assert text.count('"z": -0.0') == 2 and text.count('"n": -0.0') == 1

    def test_other_arrays_are_written_as_their_lists(self):
        columns = {"s": np.array(["a", "é"]), "o": np.array([None, "x"], dtype=object),
                   "m": np.array([[1, 2], [3, 4]]), "u": np.array([2**64 - 1, 0],
                                                                  dtype=np.uint64)}
        lists = {key: column.tolist() for key, column in columns.items()}
        assert (reporting.report_json({"t": reporting.Table(columns)})
                == reporting.report_json({"t": reporting.Table(lists)}))

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="differ in length"):
            reporting.report_json({"t": reporting.Table({"a": [1, 2], "b": [1]})})

    def test_rows_are_written_a_block_at_a_time(self):
        n = 40 * reporting.WRITE_BLOCK_ROWS
        table = reporting.Table({"id": [f"p{i}" for i in range(n)],
                                 "score": [i / 7 for i in range(n)]})
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        reporting.write_report({"rows": table}, Recorder())
        text = "".join(writes)
        assert text == oracle_text({"rows": table})
        assert max(map(len, writes)) < len(text) / 20


CLI_RUNS = {
    "estimate": ["estimate"],
    "estimate_per_participant": ["estimate", "--per-participant"],
    "estimate_per_participant_smoothed": ["estimate", "--per-participant",
                                          "--smoothing-alpha", "0.3"],
    "stationary_model": ["stationary", "--model", "DWM"],
    "stationary_group": ["stationary", "--group", "ocd"],
    "compare": ["compare", "--focal", "ocd", "--reference", "adhd"],
    "score": ["score", "--numerator", "group:ocd", "--denominator", "group:adhd"],
    "score_breakdown": ["score", "--numerator", "group:ocd", "--denominator",
                        "group:adhd", "--breakdown"],
    "classify_binary": ["classify", "--numerator", "model:DWM", "--denominator",
                        "group:adhd"],
    "classify_multi": ["classify", "--models", "model:symmetric,group:ocd,model:DWM",
                       "--reference", "model:MEM"],
    "diagnose": ["diagnose", "--numerator", "group:ocd", "--denominator",
                 "group:adhd", "--with-sum-score"],
    "simulate": ["simulate", "--model", "DWM", "--length", "7", "--count", "12"],
}


@pytest.fixture(scope="module")
def oracle_cohort(tmp_path_factory, adhd_matrix, ocd_matrix):
    """Two groups with some rows in neither, of two lengths each."""
    rows = []
    for group, matrix, seed in (("adhd", adhd_matrix, 5), ("ocd", ocd_matrix, 6),
                                (None, ocd_matrix, 7)):
        for length, count in ((16, 40), (3, 10)):
            spec = rc.SimulationSpec(matrix, length=length, count=count,
                                     seed=seed * 10 + length)
            rows.extend(rc.generate_cohort(spec, group=group,
                                           id_prefix=f"{group}-{length}-"))
    path = tmp_path_factory.mktemp("oracle") / "cohort.csv"
    rc.write_cohort(rows, rc.StateSpace(5), path)
    return str(path)


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_report_matches_oracle(name, oracle_cohort, tmp_path):
    argv = list(CLI_RUNS[name])
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "sim.csv")]
    else:
        argv += ["--input", oracle_cohort]
    if argv[0] == "diagnose":  # needs every row in one of two groups
        lines = Path(oracle_cohort).read_text(encoding="utf-8").splitlines()
        path = tmp_path / "two_groups.csv"
        path.write_text("\n".join(line for line in lines if ",," not in line) + "\n")
        argv[-1] = str(path)
    args = _build_parser().parse_args(argv)
    doc = run_subcommand(args.command, args, _effective_config(args))
    out = io.StringIO()
    reporting.write_report(doc, out)
    assert out.getvalue() == oracle_text(doc)
    assert reporting.report_json(doc) + "\n" == oracle_text(doc)
