"""Cohort CSV round-trips and config file handling."""

import json

import numpy as np
import pytest

import respchain as rc


GOOD_CSV = """participant_id,group,responses
A01,adhd,3243232443244333
A02,adhd,1122334455
O05,ocd,3243232443244333
S01,,555444333
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCohort:
    def test_reads_rows(self, tmp_path):
        path = write(tmp_path, "cohort.csv", GOOD_CSV)
        data = rc.load_cohort(path, rc.Config())
        assert len(data) == 4
        assert data.group_labels == frozenset({"adhd", "ocd"})
        assert data.sequences[0].participant_id == "A01"
        assert data.sequences[3].group is None

    def test_digit_string_parsing(self, tmp_path):
        path = write(tmp_path, "cohort.csv", GOOD_CSV)
        data = rc.load_cohort(path, rc.Config())
        assert data.sequences[1].states.tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_wide_scale_uses_semicolons(self, tmp_path):
        path = write(
            tmp_path, "wide.csv",
            "participant_id,group,responses\nW1,,1;5;11;3\n",
        )
        data = rc.load_cohort(path, rc.Config(states=11))
        assert data.sequences[0].states.tolist() == [1, 5, 11, 3]

    def test_header_must_match(self, tmp_path):
        path = write(tmp_path, "bad.csv", "id,grp,resp\nA,adhd,123\n")
        with pytest.raises(rc.ValidationError, match="header"):
            rc.load_cohort(path, rc.Config())

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(rc.ValidationError, match="empty"):
            rc.load_cohort(path, rc.Config())

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "bare.csv", "participant_id,group,responses\n")
        with pytest.raises(rc.ValidationError, match="no usable data"):
            rc.load_cohort(path, rc.Config())

    def test_strict_mode_names_the_line(self, tmp_path):
        path = write(
            tmp_path, "bad.csv",
            "participant_id,group,responses\nA01,adhd,333\nA02,adhd,3g3\n",
        )
        with pytest.raises(rc.ValidationError, match="line 3"):
            rc.load_cohort(path, rc.Config())

    def test_out_of_scale_response_names_position(self, tmp_path):
        path = write(
            tmp_path, "bad.csv",
            "participant_id,group,responses\nA01,adhd,363\n",
        )
        with pytest.raises(rc.ValidationError, match="position 1"):
            rc.load_cohort(path, rc.Config())

    def test_lenient_mode_skips_and_warns(self, tmp_path):
        path = write(
            tmp_path, "mixed.csv",
            "participant_id,group,responses\n"
            "A01,adhd,333\nA02,adhd,3g3\nA03,adhd,363\nA04,adhd,444\n",
        )
        data = rc.load_cohort(path, rc.Config(mode="lenient"))
        assert len(data) == 2
        assert len(data.warnings) == 2
        assert all(w.startswith("skipped:") for w in data.warnings)

    def test_lenient_mode_still_needs_some_rows(self, tmp_path):
        path = write(
            tmp_path, "allbad.csv",
            "participant_id,group,responses\nA01,adhd,9g9\n",
        )
        with pytest.raises(rc.ValidationError, match="no usable data"):
            rc.load_cohort(path, rc.Config(mode="lenient"))

    @pytest.mark.parametrize("states, cell", [
        (5, "3\u00b23"), (5, "3\u06633"), (11, "3;\u0663;4"), (11, "3;1_0"),
    ])
    def test_non_ascii_digits_name_the_line(self, tmp_path, states, cell):
        good = "33" if states <= 9 else "3;3"
        path = write(
            tmp_path, "bad.csv",
            f"participant_id,group,responses\nA01,adhd,{good}\nA02,adhd,{cell}\n",
        )
        with pytest.raises(rc.ValidationError, match="line 3: responses must be"):
            rc.load_cohort(path, rc.Config(states=states))

    @pytest.mark.parametrize("states, cell", [(5, "3"), (11, "10")])
    def test_strict_mode_rejects_a_row_too_short_to_count(self, tmp_path,
                                                           states, cell):
        good = "33" if states <= 9 else "3;3"
        path = write(
            tmp_path, "short.csv",
            f"participant_id,group,responses\nA01,adhd,{good}\nA02,adhd,{cell}\n",
        )
        with pytest.raises(rc.ValidationError,
                           match="line 3: need at least 2 responses"):
            rc.load_cohort(path, rc.Config(states=states))

    def test_lenient_mode_skips_a_row_too_short_to_count(self, tmp_path):
        path = write(
            tmp_path, "short.csv",
            "participant_id,group,responses\nA01,adhd,33\nA02,adhd,3\n",
        )
        data = rc.load_cohort(path, rc.Config(mode="lenient"))
        assert [s.participant_id for s in data.sequences] == ["A01"]
        assert len(data.warnings) == 1
        assert "line 3: need at least 2 responses" in data.warnings[0]

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write(
            tmp_path, "dup.csv",
            "participant_id,group,responses\nA01,adhd,333\nA01,ocd,444\n",
        )
        with pytest.raises(rc.ValidationError, match="duplicate"):
            rc.load_cohort(path, rc.Config())

    def test_blank_lines_ignored(self, tmp_path):
        path = write(
            tmp_path, "gaps.csv",
            "participant_id,group,responses\nA01,adhd,333\n\nA02,adhd,444\n",
        )
        assert len(rc.load_cohort(path, rc.Config())) == 2

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            rc.load_cohort(tmp_path / "nope.csv", rc.Config())


class TestByGroup:
    def test_filters(self, tmp_path):
        path = write(tmp_path, "cohort.csv", GOOD_CSV)
        data = rc.load_cohort(path, rc.Config())
        assert [s.participant_id for s in data.by_group("adhd")] == ["A01", "A02"]

    def test_unknown_group_lists_available(self, tmp_path):
        path = write(tmp_path, "cohort.csv", GOOD_CSV)
        data = rc.load_cohort(path, rc.Config())
        with pytest.raises(rc.ValidationError, match="adhd"):
            data.by_group("control")


class TestWriteCohort:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "cohort.csv", GOOD_CSV)
        data = rc.load_cohort(path, rc.Config())
        out = tmp_path / "copy.csv"
        rc.write_cohort(data.sequences, data.state_space, out)
        again = rc.load_cohort(out, rc.Config())
        assert len(again) == len(data)
        for a, b in zip(data.sequences, again.sequences):
            assert a.participant_id == b.participant_id
            assert a.group == b.group
            assert np.array_equal(a.states, b.states)

    def test_wide_scale_round_trip(self, tmp_path):
        seq = rc.ResponseSequence("W1", [1, 10, 12, 3], "g")
        out = tmp_path / "wide.csv"
        rc.write_cohort([seq], rc.StateSpace(12), out)
        again = rc.load_cohort(out, rc.Config(states=12))
        assert again.sequences[0].states.tolist() == [1, 10, 12, 3]


class TestConfig:
    def test_defaults(self):
        cfg = rc.Config()
        assert cfg.states == 5
        assert cfg.tolerance == 5e-4
        assert cfg.max_power == 64
        assert cfg.epsilon_floor == 0.01
        assert cfg.cutoff == 0.0
        assert cfg.mode == "strict"

    def test_override_ignores_none(self):
        cfg = rc.Config().override(states=None, cutoff=1.5)
        assert cfg.states == 5
        assert cfg.cutoff == 1.5

    def test_validation(self):
        with pytest.raises(rc.ValidationError):
            rc.Config(states=1)
        with pytest.raises(rc.ValidationError):
            rc.Config(mode="casual")
        with pytest.raises(rc.ValidationError):
            rc.Config(smoothing_alpha=-1)

    @pytest.mark.parametrize("field", ["tolerance", "epsilon_floor",
                                       "smoothing_alpha", "cutoff"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), "0.5", True])
    def test_numeric_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(rc.ValidationError, match=f"{field} must be a finite"):
            rc.Config(**{field: value})

    def test_epsilon_floor_at_most_one(self):
        assert rc.Config(epsilon_floor=1).epsilon_floor == 1
        with pytest.raises(rc.ValidationError, match="epsilon_floor"):
            rc.Config(epsilon_floor=1.5)

    def test_state_space_uses_labels(self):
        cfg = rc.Config(states=3, state_labels=("lo", "mid", "hi"))
        assert cfg.state_space.labels == ("lo", "mid", "hi")


class TestLoadConfig:
    def test_missing_path_gives_defaults(self, monkeypatch):
        monkeypatch.delenv(rc.CONFIG_ENV_VAR, raising=False)
        assert rc.load_config() == rc.Config()

    def test_reads_flat_keys(self, tmp_path):
        path = write(
            tmp_path, "cfg.json",
            json.dumps({"states": 7, "cutoff": 0.5, "mode": "lenient"}),
        )
        cfg = rc.load_config(path)
        assert (cfg.states, cfg.cutoff, cfg.mode) == (7, 0.5, "lenient")

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        path = write(tmp_path, "cfg.json", json.dumps({"states": 4}))
        monkeypatch.setenv(rc.CONFIG_ENV_VAR, str(path))
        assert rc.load_config().states == 4

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        env_path = write(tmp_path, "env.json", json.dumps({"states": 4}))
        arg_path = write(tmp_path, "arg.json", json.dumps({"states": 6}))
        monkeypatch.setenv(rc.CONFIG_ENV_VAR, str(env_path))
        assert rc.load_config(arg_path).states == 6

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "cfg.json", json.dumps({"staets": 5}))
        with pytest.raises(rc.ValidationError, match="staets"):
            rc.load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = write(tmp_path, "cfg.json", "{not json")
        with pytest.raises(rc.ValidationError, match="invalid JSON"):
            rc.load_config(path)

    def test_models_section(self, tmp_path, space):
        body = {
            "models": {
                "flat": {"kind": "max_entropy"},
                "sym": {
                    "kind": "from_stationary_vector",
                    "vector": [0.1, 0.2, 0.4, 0.2, 0.1],
                },
            }
        }
        cfg = rc.load_config(write(tmp_path, "cfg.json", json.dumps(body)))
        assert [m.name for m in cfg.models] == ["flat", "sym"]
        built = cfg.models[1].build(space)
        assert np.allclose(built.probs[0], [0.1, 0.2, 0.4, 0.2, 0.1])

    def test_model_without_kind_rejected(self, tmp_path):
        body = {"models": {"flat": {"vector": [1.0]}}}
        path = write(tmp_path, "cfg.json", json.dumps(body))
        with pytest.raises(rc.ValidationError, match="kind"):
            rc.load_config(path)
