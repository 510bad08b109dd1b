"""End-to-end runs of the command line, one subcommand at a time.

Each test drives main() with a real argv and reads the JSON report back,
so argument wiring, config layering, exit codes and report structure are
all exercised together.
"""

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import respchain as rc
from respchain.cli import main
from conftest import ADHD_ROWS, OCD_ROWS, O05_SEQUENCE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


def error_of(err):
    return json.loads(err.strip().splitlines()[-1])["error"]


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory, adhd_matrix, ocd_matrix):
    """Two simulated groups of published size, written the way users do."""
    rows = []
    for group, matrix, count, seed in (
        ("adhd", adhd_matrix, 73, 101), ("ocd", ocd_matrix, 27, 202),
    ):
        spec = rc.SimulationSpec(matrix, length=16, count=count, seed=seed)
        rows.extend(
            rc.generate_cohort(spec, group=group, id_prefix=f"{group[0]}")
        )
    path = tmp_path_factory.mktemp("data") / "cohort.csv"
    rc.write_cohort(rows, rc.StateSpace(5), path)
    return str(path)


@pytest.fixture(scope="module")
def published_config(tmp_path_factory):
    """Config defining the two published group matrices as explicit models."""
    body = {
        "models": {
            "adhd_pub": {"kind": "explicit", "rows": ADHD_ROWS.tolist()},
            "ocd_pub": {"kind": "explicit", "rows": OCD_ROWS.tolist()},
        }
    }
    path = tmp_path_factory.mktemp("cfg") / "published.json"
    path.write_text(json.dumps(body))
    return str(path)


@pytest.fixture(scope="module")
def single_row_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "one.csv"
    path.write_text(
        f"participant_id,group,responses\nO05,ocd,{O05_SEQUENCE}\n"
    )
    return str(path)


class TestEstimate:
    def test_groups_report(self, capsys, cohort_csv):
        doc = run_report(capsys, "estimate", "--input", cohort_csv)
        assert doc["schema"] == "respchain-report/1"
        assert doc["header"]["command"] == "estimate"
        results = doc["payload"]["results"]
        assert set(results["groups"]) == {"adhd", "ocd"}
        assert results["n_sequences"] == 100
        adhd = results["groups"]["adhd"]
        assert adhd["n_sequences"] == 73
        assert adhd["counts"]["total"] == 73 * 15
        probs = np.array(adhd["matrix"]["probs"])
        sums = probs.sum(axis=1)
        defined = np.array(adhd["matrix"]["defined_rows"])
        assert np.allclose(sums[defined], 1.0)

    def test_provenance_hash(self, capsys, cohort_csv):
        from respchain.report import file_sha256

        doc = run_report(capsys, "estimate", "--input", cohort_csv)
        prov = doc["payload"]["provenance"]
        assert prov["input"] == cohort_csv
        assert prov["input_sha256"] == file_sha256(cohort_csv)

    def test_group_filter_and_participants(self, capsys, cohort_csv):
        doc = run_report(
            capsys, "estimate", "--input", cohort_csv,
            "--group", "ocd", "--per-participant",
        )
        results = doc["payload"]["results"]
        assert list(results["groups"]) == ["ocd"]
        ids = list(results["participants"])
        assert len(ids) == 100
        assert ids == sorted(ids)

    def test_output_file(self, capsys, tmp_path, cohort_csv):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "estimate", "--input", cohort_csv, "--output", str(out),
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["header"]["command"] == "estimate"

    def test_unknown_group(self, capsys, cohort_csv):
        code, _, err = run(
            capsys, "estimate", "--input", cohort_csv, "--group", "control",
        )
        assert code == 1
        assert error_of(err)["type"] == "validation"


class TestStationary:
    def test_builtin_model(self, capsys):
        doc = run_report(capsys, "stationary", "--model", "MEM")
        results = doc["payload"]["results"]
        assert results["irreducible"] is True
        assert results["aperiodic"] is True
        assert results["stationary"]["power_at_convergence"] == 1
        assert np.allclose(results["stationary"]["distribution"], 0.2)

    def test_estimated_group(self, capsys, cohort_csv):
        doc = run_report(
            capsys, "stationary", "--group", "ocd", "--input", cohort_csv,
        )
        stat = doc["payload"]["results"]["stationary"]
        assert stat["converged"] is True
        dist = np.array(stat["distribution"])
        assert dist.sum() == pytest.approx(1.0)

    def test_group_without_input(self, capsys):
        code, _, err = run(capsys, "stationary", "--group", "ocd")
        assert code == 1
        assert "--input" in error_of(err)["message"]

    def test_periodic_model_is_structural_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "states": 2,
            "models": {"swap": {"kind": "explicit", "rows": [[0, 1], [1, 0]]}},
        }))
        code, _, err = run(
            capsys, "stationary", "--model", "swap", "--config", str(cfg),
        )
        assert code == 2
        body = error_of(err)
        assert body["type"] == "structural"
        assert "periodic" in body["message"]


class TestCompare:
    def test_two_group_comparison(self, capsys, cohort_csv):
        doc = run_report(
            capsys, "compare", "--input", cohort_csv,
            "--focal", "ocd", "--reference", "adhd",
        )
        results = doc["payload"]["results"]
        assert results["focal"]["group"] == "ocd"
        assert results["focal"]["n_transitions"] == 27 * 15
        assert results["inertia_association"]["df"] == 1
        gof = results["stationary_gof"]
        assert gof["df"] == 4
        assert gof["n_focal"] == 27 * 15
        assert 0.0 <= gof["p_value"] <= 1.0
        assert len(gof["std_residuals"]) == 5


class TestScore:
    def test_rows_sorted_and_complete(self, capsys, cohort_csv):
        doc = run_report(
            capsys, "score", "--input", cohort_csv,
            "--numerator", "group:ocd", "--denominator", "group:adhd",
        )
        results = doc["payload"]["results"]
        assert results["log_ratio"]["numerator"] == "ocd"
        rows = results["scores"]
        assert len(rows) == 100
        ids = [r["participant_id"] for r in rows]
        assert ids == sorted(ids)

    def test_published_models_match_library(self, capsys, single_row_csv,
                                            published_config):
        doc = run_report(
            capsys, "score", "--input", single_row_csv,
            "--config", published_config,
            "--numerator", "ocd_pub", "--denominator", "adhd_pub",
        )
        row = doc["payload"]["results"]["scores"][0]
        assert row["participant_id"] == "O05"
        lr = rc.log_likelihood_matrix(
            rc.TransitionMatrix.from_rows(OCD_ROWS),
            rc.TransitionMatrix.from_rows(ADHD_ROWS),
        )
        seq = rc.ResponseSequence("O05", [int(c) for c in O05_SEQUENCE])
        expected = rc.score_sequence(seq, lr).score
        assert row["score"] == pytest.approx(expected, abs=1e-12)
        # the published group matrices put this sequence on the focal side
        assert row["score"] > 0

    def test_breakdown_recomposes(self, capsys, single_row_csv,
                                  published_config):
        doc = run_report(
            capsys, "score", "--input", single_row_csv,
            "--config", published_config,
            "--numerator", "ocd_pub", "--denominator", "adhd_pub",
            "--breakdown",
        )
        row = doc["payload"]["results"]["scores"][0]
        total = sum(term[3] for term in row["terms"])
        assert total == pytest.approx(row["score"], abs=1e-9)

    def test_unknown_name_lists_candidates(self, capsys, cohort_csv):
        code, _, err = run(
            capsys, "score", "--input", cohort_csv,
            "--numerator", "nosuch", "--denominator", "group:adhd",
        )
        assert code == 1
        message = error_of(err)["message"]
        assert "nosuch" in message
        assert "MEM" in message


class TestClassify:
    def test_binary_mode(self, capsys, cohort_csv):
        doc = run_report(
            capsys, "classify", "--input", cohort_csv,
            "--numerator", "group:ocd", "--denominator", "group:adhd",
        )
        results = doc["payload"]["results"]
        assert results["mode"] == "binary"
        counts = results["class_counts"]
        assert set(counts) == {"ocd", "adhd"}
        assert sum(counts.values()) == 100
        for row in results["assignments"]:
            assert row["assigned"] in ("ocd", "adhd")

    def test_multimodel_mode(self, capsys, cohort_csv):
        doc = run_report(
            capsys, "classify", "--input", cohort_csv,
            "--models", "model:DWM,model:symmetric,model:skewed+,model:skewed-",
            "--reference", "model:MEM",
        )
        results = doc["payload"]["results"]
        assert results["mode"] == "multimodel"
        assert results["reference"] == "MEM"
        counts = results["class_counts"]
        assert set(counts) == {"MEM", "DWM", "symmetric", "skewed+", "skewed-"}
        assert sum(counts.values()) == 100
        equi = results["equiprobability"]
        assert equi["df"] == 4
        assert 0.0 <= equi["p_value"] <= 1.0

    def test_mixed_flags_rejected(self, capsys, cohort_csv):
        code, _, err = run(
            capsys, "classify", "--input", cohort_csv,
            "--numerator", "group:ocd", "--models", "model:DWM",
        )
        assert code == 1
        assert error_of(err)["type"] == "validation"

    def test_no_mode_rejected(self, capsys, cohort_csv):
        code, _, err = run(capsys, "classify", "--input", cohort_csv)
        assert code == 1


class TestDiagnose:
    def test_full_evaluation(self, capsys, tmp_path, cohort_csv):
        roc_csv = tmp_path / "roc.csv"
        svg = tmp_path / "roc.svg"
        doc = run_report(
            capsys, "diagnose", "--input", cohort_csv,
            "--numerator", "group:ocd", "--denominator", "group:adhd",
            "--roc-csv", str(roc_csv), "--svg", str(svg),
            "--with-sum-score",
        )
        results = doc["payload"]["results"]
        assert results["positive_group"] == "ocd"
        confusion = results["confusion"]
        assert (
            confusion["tp"] + confusion["fn"] + confusion["tn"] + confusion["fp"]
        ) == 100
        assert 0.0 < results["roc"]["auc"] <= 1.0
        assert "sum_score_roc" in results
        assert results["files"] == {"roc_csv": str(roc_csv), "svg": str(svg)}

        lines = roc_csv.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr,cutoff"
        assert lines[1] == "0.0,0.0,inf"
        assert svg.read_text().startswith("<svg")

    def test_svg_escapes_group_names(self, capsys, tmp_path, cohort_csv):
        text = Path(cohort_csv).read_text(encoding="utf-8")
        path = tmp_path / "marked.csv"
        path.write_text(text.replace(",adhd,", ",a&b,").replace(",ocd,", ",c<d,"))
        svg = tmp_path / "roc.svg"
        run_report(capsys, "diagnose", "--input", str(path), "--numerator", "a&b",
                   "--denominator", "c<d", "--svg", str(svg))
        texts = [el.text for el in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        legend = [t for t in texts if t.startswith("score ")]
        assert len(legend) == 1
        assert re.fullmatch(r"score a&b/c<d \(AUC = \d\.\d{3}\)", legend[0])

    def test_metrics_follow_cutoff(self, capsys, cohort_csv):
        doc = run_report(
            capsys, "diagnose", "--input", cohort_csv,
            "--numerator", "group:ocd", "--denominator", "group:adhd",
            "--cutoff", "0.0",
        )
        m = doc["payload"]["results"]["metrics"]
        assert 0.0 <= m["sensitivity"] <= 1.0
        assert 0.0 <= m["specificity"] <= 1.0
        assert m["cutoff"] == 0.0

    def test_needs_two_groups(self, capsys, tmp_path):
        path = tmp_path / "one_group.csv"
        path.write_text(
            "participant_id,group,responses\nA,adhd,333\nB,adhd,444\n"
        )
        code, _, err = run(
            capsys, "diagnose", "--input", str(path),
            "--numerator", "model:MEM", "--denominator", "model:DWM",
        )
        assert code == 1
        assert "two groups" in error_of(err)["message"]

    def test_model_numerator_needs_positive_group(self, capsys, cohort_csv):
        code, _, err = run(
            capsys, "diagnose", "--input", cohort_csv,
            "--numerator", "model:MEM", "--denominator", "model:DWM",
        )
        assert code == 1
        assert "--positive-group" in error_of(err)["message"]


class TestSimulate:
    def test_writes_loadable_cohort(self, capsys, tmp_path):
        out = tmp_path / "sim.csv"
        doc = run_report(
            capsys, "simulate", "--model", "DWM", "--length", "16",
            "--count", "10", "--seed", "3", "--out", str(out),
            "--group-label", "sim",
        )
        results = doc["payload"]["results"]
        assert results["initial_source"] == "stationary"
        assert results["n_transitions"] == 150
        data = rc.load_cohort(out, rc.Config())
        assert len(data) == 10
        assert data.sequences[0].participant_id == "sim0000"
        assert data.group_labels == frozenset({"sim"})

    def test_worker_count_invisible_in_output(self, capsys, tmp_path):
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}.csv"
            run_report(
                capsys, "simulate", "--model", "DWM", "--length", "20",
                "--count", "12", "--seed", "9", "--out", str(out),
                "--workers", workers,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_from_estimated_group(self, capsys, tmp_path, cohort_csv):
        out = tmp_path / "boot.csv"
        doc = run_report(
            capsys, "simulate", "--group", "ocd", "--input", cohort_csv,
            "--length", "16", "--count", "5", "--seed", "0",
            "--out", str(out),
        )
        assert doc["payload"]["results"]["source"] == "ocd"
        assert len(rc.load_cohort(out, rc.Config())) == 5

    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_is_one_validation_error(self, capsys, tmp_path, seed):
        out = tmp_path / "sim.csv"
        error = only_validation_error(*run(
            capsys, "simulate", "--model", "DWM", "--length", "6",
            "--count", "3", "--seed", seed, "--out", str(out),
        ))
        assert "seed must be a non-negative integer" in error["message"]
        assert not out.exists()

    def test_periodic_model_falls_back_to_uniform_start(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "states": 2,
            "models": {"swap": {"kind": "explicit", "rows": [[0, 1], [1, 0]]}},
        }))
        out = tmp_path / "swap.csv"
        doc = run_report(
            capsys, "simulate", "--model", "swap", "--config", str(cfg),
            "--length", "6", "--count", "3", "--seed", "1", "--out", str(out),
        )
        assert doc["payload"]["results"]["initial_source"] == "uniform"


class TestBatchPath:
    """Each command counts the cohort once and builds each model once."""

    def counting(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_multi_model_classify(self, capsys, monkeypatch, cohort_csv):
        lr_calls = self.counting(monkeypatch, rc.scoring, "log_likelihood_matrix")
        registries = self.counting(monkeypatch, rc.models, "builtin_models")
        counted = self.counting(monkeypatch, rc.chain, "count_transitions")
        doc = run_report(
            capsys, "classify", "--input", cohort_csv,
            "--models", "model:symmetric,model:skewed+,model:skewed-",
            "--reference", "model:MEM",
        )
        assert len(doc["payload"]["results"]["assignments"]) == 100
        assert (len(lr_calls), len(registries), len(counted)) == (3, 1, 0)

    @pytest.mark.parametrize("command", ["score", "classify", "diagnose"])
    def test_binary_commands(self, capsys, monkeypatch, cohort_csv, command):
        lr_calls = self.counting(monkeypatch, rc.scoring, "log_likelihood_matrix")
        registries = self.counting(monkeypatch, rc.models, "builtin_models")
        counted = self.counting(monkeypatch, rc.chain, "count_transitions")
        tensors = self.counting(monkeypatch, rc.chain, "count_tensor")
        run_report(
            capsys, command, "--input", cohort_csv,
            "--numerator", "group:ocd", "--denominator", "group:adhd",
        )
        assert (len(lr_calls), len(registries), len(counted), len(tensors)) == \
            (1, 1, 0, 1)

    def test_group_candidate_shares_the_one_count(self, capsys, monkeypatch,
                                                  cohort_csv):
        counted = self.counting(monkeypatch, rc.chain, "count_transitions")
        tensors = self.counting(monkeypatch, rc.chain, "count_tensor")
        # scoring holds its own binding of count_tensor
        in_scoring = self.counting(monkeypatch, rc.scoring, "count_tensor")
        doc = run_report(
            capsys, "classify", "--input", cohort_csv,
            "--models", "group:ocd,model:symmetric", "--reference", "model:MEM",
        )
        assert len(doc["payload"]["results"]["assignments"]) == 100
        assert (len(counted), len(tensors), len(in_scoring)) == (0, 1, 0)

    @pytest.mark.parametrize("argv", [
        ["estimate", "--per-participant"],
        ["compare", "--focal", "ocd", "--reference", "adhd"],
        ["score", "--numerator", "group:ocd", "--denominator", "group:adhd",
         "--breakdown"],
        ["classify", "--numerator", "group:ocd", "--denominator", "group:adhd"],
        ["classify", "--models", "group:ocd,model:DWM", "--reference", "model:MEM"],
        ["diagnose", "--numerator", "group:ocd", "--denominator", "group:adhd",
         "--with-sum-score"],
        ["stationary", "--group", "ocd"],
        ["simulate", "--group", "ocd", "--length", "5", "--out", "{tmp}/sim.csv"],
        ["simulate", "--model", "DWM", "--length", "16", "--count", "300",
         "--out", "{tmp}/sim.csv"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_no_response_sequence_is_built(self, capsys, monkeypatch, tmp_path,
                                           cohort_csv, argv):
        built = []
        original = rc.ResponseSequence.__post_init__

        def counting(seq):
            built.append(seq.participant_id)
            original(seq)

        monkeypatch.setattr(rc.ResponseSequence, "__post_init__", counting)
        argv = [a.format(tmp=tmp_path) for a in argv]
        run_report(capsys, *argv, "--input", cohort_csv)
        assert built == []

    def test_stdout_and_output_file_carry_the_same_bytes(self, capsys, tmp_path,
                                                         cohort_csv):
        argv = ["estimate", "--input", cohort_csv, "--per-participant"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        target = tmp_path / "r.json"
        assert main(argv + ["--output", str(target)]) == 0
        strip = [line for line in out.splitlines(True) if "generated_at" not in line]
        again = target.read_text(encoding="utf-8").splitlines(True)
        assert strip == [line for line in again if "generated_at" not in line]
        assert out.endswith("}\n") and not out.endswith("\n\n")


class TestErrorHandling:
    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "estimate", "--input", str(tmp_path / "absent.csv"),
        )
        assert code == 3
        assert error_of(err)["type"] == "io"

    def test_bad_flag_value_is_validation(self, capsys, cohort_csv):
        code, _, err = run(
            capsys, "estimate", "--input", cohort_csv, "--states", "many",
        )
        assert code == 1
        assert error_of(err)["type"] == "validation"

    def test_ambiguous_bare_name(self, capsys, tmp_path, cohort_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "models": {"ocd": {"kind": "max_entropy"}},
        }))
        code, _, err = run(
            capsys, "score", "--input", cohort_csv, "--config", str(cfg),
            "--numerator", "ocd", "--denominator", "group:adhd",
        )
        assert code == 1
        message = error_of(err)["message"]
        assert "both a group and a model" in message

    def test_env_config_picked_up(self, capsys, monkeypatch, tmp_path,
                                  cohort_csv):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({"cutoff": 1.5}))
        monkeypatch.setenv(rc.CONFIG_ENV_VAR, str(cfg))
        doc = run_report(
            capsys, "classify", "--input", cohort_csv,
            "--numerator", "group:ocd", "--denominator", "group:adhd",
        )
        assert doc["payload"]["results"]["cutoff"] == 1.5
        assert doc["payload"]["provenance"]["config"]["cutoff"] == 1.5

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert rc.__version__ in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--cutoff", "nan"), ("--cutoff", "inf"), ("--tolerance", "nan"),
        ("--tolerance", "inf"), ("--epsilon-floor", "7"),
        ("--epsilon-floor", "nan"), ("--smoothing-alpha", "nan"),
    ])
    def test_non_finite_or_out_of_range_flag(self, capsys, cohort_csv, flag, value):
        code, out, err = run(
            capsys, "classify", "--input", cohort_csv,
            "--numerator", "group:ocd", "--denominator", "group:adhd", flag, value,
        )
        assert code == 1 and out == ""
        assert error_of(err)["type"] == "validation"

    def test_non_finite_config_value(self, capsys, tmp_path, cohort_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cutoff": NaN}')
        code, _, err = run(
            capsys, "classify", "--input", cohort_csv, "--config", str(cfg),
            "--numerator", "group:ocd", "--denominator", "group:adhd",
        )
        assert code == 1
        assert "cutoff must be a finite number" in error_of(err)["message"]

    def test_superscript_digit_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "sup.csv"
        path.write_text("participant_id,group,responses\nA,g,3\u00b23\n",
                        encoding="utf-8")
        code, _, err = run(capsys, "estimate", "--input", str(path))
        assert code == 1
        assert "line 2" in error_of(err)["message"]

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_one_response_row(self, capsys, tmp_path, mode):
        path = tmp_path / "short.csv"
        path.write_text("participant_id,group,responses\nA,g,333\nB,g,3\n")
        code, out, err = run(
            capsys, "estimate", "--input", str(path), "--mode", mode,
        )
        if mode == "strict":
            assert code == 1
            assert "line 3: need at least 2 responses" in error_of(err)["message"]
        else:
            assert code == 0 and "skipped" in err
            assert json.loads(out)["payload"]["results"]["n_sequences"] == 1

    def test_lenient_mode_warns_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "participant_id,group,responses\nA,g,333\nB,g,3x3\n"
        )
        code, _, err = run(
            capsys, "estimate", "--input", str(path), "--mode", "lenient",
        )
        assert code == 0
        assert "skipped" in err


def only_validation_error(code, out, err):
    """The error object of a run that failed validation with one JSON line."""
    assert code == 1 and out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "validation" and error["exit_code"] == 1
    return error


class TestInputEncodingAndTypes:
    def test_bom_in_cohort_and_config_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfparticipant_id,group,responses\r\nA,g,3323\r\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xef\xbb\xbf{"states": 5}')
        doc = run_report(capsys, "estimate", "--input", str(path), "--config", str(cfg))
        assert doc["payload"]["results"]["n_sequences"] == 1

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_non_utf8_cohort_names_the_file(self, capsys, tmp_path, mode):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"participant_id,group,responses\nA,g,333\nB,\xff,333\n")
        error = only_validation_error(*run(
            capsys, "estimate", "--input", str(path), "--mode", mode,
        ))
        assert str(path) in error["message"] and "UTF-8" in error["message"]

    def test_non_utf8_config_names_the_file(self, capsys, tmp_path, cohort_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"states": 5, "mode": "\xff"}')
        error = only_validation_error(*run(
            capsys, "estimate", "--input", cohort_csv, "--config", str(cfg),
        ))
        assert str(cfg) in error["message"]

    @pytest.mark.parametrize("body", [
        {"states": "5"}, {"max_power": "8"}, {"states": True}, {"max_power": 8.0},
    ])
    def test_non_integer_config_value(self, capsys, tmp_path, cohort_csv, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        error = only_validation_error(*run(
            capsys, "estimate", "--input", cohort_csv, "--config", str(cfg),
        ))
        assert f"{next(iter(body))} must be an integer" in error["message"]

    @pytest.mark.parametrize("body", [
        {"state_labels": 5}, {"state_labels": "abcde"},
        {"state_labels": ["a", "b", "c", "d", {"e": 1}]},
        {"models": [1]}, {"models": "x"},
    ])
    def test_config_value_of_the_wrong_type(self, capsys, tmp_path, cohort_csv, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        error = only_validation_error(*run(
            capsys, "estimate", "--input", cohort_csv, "--config", str(cfg),
        ))
        assert f"{next(iter(body))} must be" in error["message"]

    @pytest.mark.parametrize("model", [
        {"kind": "from_stationary_vector"},
        {"kind": "explicit", "rows": [[0.5, 0.5], [1.0]]},
    ])
    def test_bad_config_model_names_the_model(self, capsys, tmp_path, cohort_csv,
                                              model):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {"mine": model}}))
        error = only_validation_error(*run(
            capsys, "score", "--input", cohort_csv, "--config", str(cfg),
            "--numerator", "group:ocd", "--denominator", "group:adhd",
        ))
        assert "model 'mine'" in error["message"]


class TestNonFiniteModels:
    @pytest.fixture
    def nan_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"models": {"w": {"kind": "drunkards_walk", "stay": NaN}}}')
        return str(cfg)

    def test_stationary_rejects_a_nan_model(self, capsys, nan_config):
        error = only_validation_error(*run(
            capsys, "stationary", "--model", "w", "--config", nan_config,
        ))
        assert "model 'w'" in error["message"] and "finite" in error["message"]

    def test_simulate_rejects_a_nan_model(self, capsys, tmp_path, nan_config):
        out = tmp_path / "sim.csv"
        error = only_validation_error(*run(
            capsys, "simulate", "--model", "w", "--config", nan_config,
            "--length", "5", "--out", str(out),
        ))
        assert "model 'w'" in error["message"] and "finite" in error["message"]
        assert not out.exists()


def test_stationary_names_itself_for_an_undefined_row(capsys, tmp_path):
    path = tmp_path / "narrow.csv"
    path.write_text("participant_id,group,responses\nA,g,1122\nB,g,2211\n")
    code, out, err = run(capsys, "stationary", "--group", "g", "--input", str(path))
    assert code == 2 and out == ""
    assert error_of(err)["message"].startswith(
        "stationary needs every row defined, but undefined row(s) 3, 4, 5")


class TestReportNotes:
    """Skipped rows, unconverged searches and a uniform simulation start leave
    a trace in the payload."""

    def test_lenient_skips_are_listed_in_provenance(self, capsys, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("participant_id,group,responses\n"
                        "A,g,333\nB,g,3x3\nC,g,44\nD,g,4\n")
        code, out, err = run(capsys, "estimate", "--input", str(path),
                             "--mode", "lenient")
        assert code == 0
        skipped = json.loads(out)["payload"]["provenance"]["skipped_rows"]
        assert skipped["count"] == 2
        assert [row["line"] for row in skipped["rows"]] == [3, 5]
        assert "line 3: responses must be a digit string" in skipped["rows"][0]["reason"]
        assert "line 5: need at least 2 responses" in skipped["rows"][1]["reason"]
        assert err.count("skipped:") == 2

    def test_no_skipped_rows_key_without_skips(self, capsys, cohort_csv):
        doc = run_report(capsys, "estimate", "--input", cohort_csv, "--mode", "lenient")
        assert "skipped_rows" not in doc["payload"]["provenance"]
        assert "warnings" not in doc["payload"]

    def test_unconverged_stationary_search_warns(self, capsys):
        code, out, err = run(capsys, "stationary", "--model", "DWM", "--max-power", "1")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["results"]["stationary"]["converged"] is False
        assert len(payload["warnings"]) == 1
        assert "'DWM' did not converge within max_power 1" in payload["warnings"][0]
        assert err.strip().splitlines() == payload["warnings"]

    def test_converged_stationary_search_is_quiet(self, capsys):
        code, out, err = run(capsys, "stationary", "--model", "DWM")
        assert code == 0 and err == ""
        assert "warnings" not in json.loads(out)["payload"]

    def test_compare_warns_for_each_unconverged_role(self, capsys, cohort_csv):
        code, out, err = run(capsys, "compare", "--input", cohort_csv, "--focal", "ocd",
                             "--reference", "adhd", "--max-power", "1")
        assert code == 0
        payload = json.loads(out)["payload"]
        warnings = payload["warnings"]
        assert len(warnings) == 2
        assert "focal group 'ocd'" in warnings[0]
        assert "reference group 'adhd'" in warnings[1]
        assert err.strip().splitlines() == warnings
        for role in ("focal", "reference"):
            assert payload["results"][role]["stationary"]["converged"] is False

    def test_uniform_simulation_start_warns(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"states": 2, "models": {
            "swap": {"kind": "explicit", "rows": [[0, 1], [1, 0]]}}}))
        code, out, err = run(capsys, "simulate", "--config", str(cfg), "--model", "swap",
                             "--length", "6", "--count", "3",
                             "--out", str(tmp_path / "sim.csv"))
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["results"]["initial_source"] == "uniform"
        assert len(payload["warnings"]) == 1
        assert "'swap'" in payload["warnings"][0]
        assert "start from the uniform distribution" in payload["warnings"][0]
        assert err.strip().splitlines() == payload["warnings"]

    def test_stationary_simulation_start_is_quiet(self, capsys, tmp_path):
        code, out, err = run(capsys, "simulate", "--model", "DWM", "--length", "6",
                             "--out", str(tmp_path / "sim.csv"))
        assert code == 0 and err == ""
        payload = json.loads(out)["payload"]
        assert payload["results"]["initial_source"] == "stationary"
        assert "warnings" not in payload
