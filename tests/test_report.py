"""Report assembly: provenance, deterministic payload, CSV and SVG output."""

import io
import json

import numpy as np
import pytest

import respchain as rc
from respchain import report as reporting
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
            "estimate", {"answer": 42}, rc.Config(), input_path=str(p),
        )
        assert doc["schema"] == "respchain-report/1"
        assert doc["header"]["command"] == "estimate"
        assert doc["payload"]["results"] == {"answer": 42}
        prov = doc["payload"]["provenance"]
        assert prov["input"] == str(p)
        assert prov["input_sha256"] == reporting.file_sha256(p)
        assert prov["config"]["states"] == 5

    def test_no_input_no_hash(self):
        doc = reporting.build_report("simulate", {}, rc.Config())
        assert "input" not in doc["payload"]["provenance"]

    def test_payload_json_is_stable(self):
        doc1 = reporting.build_report("x", {"b": 1, "a": [1, 2]}, rc.Config())
        doc2 = reporting.build_report("x", {"a": [1, 2], "b": 1}, rc.Config())
        # headers differ by timestamp; the payload serialization must not
        assert reporting.payload_json(doc1) == reporting.payload_json(doc2)

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
            "x", {"m": reporting.matrix_block(adhd_matrix)}, rc.Config(),
        )
        parsed = json.loads(reporting.report_json(doc))
        probs = np.array(parsed["payload"]["results"]["m"]["probs"])
        assert np.allclose(probs, adhd_matrix.probs)
        assert parsed["payload"]["results"]["m"]["defined_rows"] == [True] * 5


def two_pass_report_json(report):
    """The earlier encoder: payload sorted and indented, parsed back, and
    the whole report encoded again."""
    payload = json.loads(reporting.payload_json(report))
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
        chunks = json.JSONEncoder(indent=2).iterencode(doc)
        assert sum(1 for _ in chunks) > 5 * reporting.WRITE_BATCH_CHUNKS
        assert self.written(doc) == reporting.report_json(doc) + "\n"

    def test_non_finite_float_is_refused(self):
        with pytest.raises(ValueError):
            self.written({"x": float("nan")})
