"""Cohort CSV round-trips and config file handling."""

import csv
import io
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import respchain as rc
import respchain.dataio as dataio


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

    @pytest.mark.parametrize("state", ["9" * 5000, "0" * 4999 + "12"],
                             ids=["nines", "leading_zeros"])
    def test_state_past_python_int_digit_limit_names_position(self, tmp_path, state):
        path = write(tmp_path, "huge.csv", "participant_id,group,responses\n"
                     f"A01,g,1;2;3\nA02,g,1;{state};3\n")
        message = (f"{path}, line 3, response position 1: "
                   f"state {state.lstrip('0')} outside 1..11")
        with pytest.raises(rc.ValidationError) as got:
            rc.load_cohort(path, rc.Config(states=11))
        assert str(got.value) == message
        data = rc.load_cohort(path, rc.Config(states=11, mode="lenient"))
        assert data.skipped == ((3, message),)

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

    def test_lenient_mode_records_each_skipped_line(self, tmp_path):
        path = write(
            tmp_path, "short.csv",
            "participant_id,group,responses\nA01,adhd,33\nA02,adhd,3\nA03,adhd\n",
        )
        data = rc.load_cohort(path, rc.Config(mode="lenient"))
        assert [line for line, _ in data.skipped] == [3, 4]
        assert data.warnings == tuple(f"skipped: {reason}" for _, reason in data.skipped)
        assert "line 3: need at least 2 responses" in data.skipped[0][1]
        assert "line 4: expected 3 columns, got 2" in data.skipped[1][1]

    MULTILINE_CSV = 'participant_id,group,responses\nA,"x\ny",12345\nB,a,12x45\n'

    def test_strict_line_after_a_multiline_field(self, tmp_path):
        path = write(tmp_path, "multiline.csv", self.MULTILINE_CSV)
        with pytest.raises(rc.ValidationError) as got:
            rc.load_cohort(path, rc.Config())
        assert str(got.value) == (f"{path}, line 4: responses must be a digit string "
                                  "for a 5-point scale, got '12x45'")

    def test_lenient_line_after_a_multiline_field(self, tmp_path):
        path = write(tmp_path, "multiline.csv", self.MULTILINE_CSV)
        data = rc.load_cohort(path, rc.Config(mode="lenient"))
        assert data.groups == ("x\ny",)
        assert [line for line, _ in data.skipped] == [4]
        assert f"{path}, line 4: responses must be" in data.skipped[0][1]

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


class TestColumns:
    def test_rows_are_held_in_columns(self, tmp_path):
        data = rc.load_cohort(write(tmp_path, "cohort.csv", GOOD_CSV), rc.Config())
        assert data.participant_ids == ("A01", "A02", "O05", "S01")
        assert data.groups == ("adhd", "adhd", "ocd", None)
        assert data.lengths.tolist() == [16, 10, 16, 9]
        assert data.starts.tolist() == [0, 16, 26, 42]
        assert data.states.dtype == np.uint8 and data.states.size == 51
        assert not data.states.flags.writeable
        assert data.states[16:26].tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_sequences_are_a_view_built_once(self, tmp_path):
        data = rc.load_cohort(write(tmp_path, "cohort.csv", GOOD_CSV), rc.Config())
        assert data.sequences is data.sequences
        assert [s.participant_id for s in data.sequences] == list(data.participant_ids)
        assert [s.group for s in data.sequences] == list(data.groups)
        assert np.concatenate([s.states for s in data.sequences]).tolist() == \
            data.states.tolist()

    def test_wide_scale_states(self, tmp_path):
        path = write(tmp_path, "wide.csv",
                     "participant_id,group,responses\nW1,,1; 5 ;011;3\nW2,,300;2\n")
        data = rc.load_cohort(path, rc.Config(states=300))
        assert data.states.dtype == np.uint16
        assert data.states.tolist() == [1, 5, 11, 3, 300, 2]

    def test_columns_must_agree(self, space):
        with pytest.raises(rc.ValidationError, match="columns disagree"):
            rc.CohortDataset(("a", "b"), ("g", "g"), np.array([1, 2, 3], np.uint8),
                             np.array([2, 2]), space, "x.csv")

    @pytest.mark.parametrize("row, message", [
        ("A02,g,3x3", "responses must be"), ("A02,g", "expected 3 columns"),
        (" ,g,333", "empty participant_id"),
    ])
    def test_strict_bad_row_before_an_unreadable_field_wins(self, tmp_path, row,
                                                            message):
        path = write(
            tmp_path, "big.csv",
            f"participant_id,group,responses\nA01,g,333\n{row}\n"
            f"A03,g,{'3' * 200_000}\n",
        )
        with pytest.raises(rc.ValidationError, match=f"line 3: {message}"):
            rc.load_cohort(path, rc.Config())
        with pytest.raises(csv.Error):
            rc.load_cohort(path, rc.Config(mode="lenient"))


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

    @pytest.mark.parametrize("k, rows", [
        (5, [[1, 2, 3, 4, 5], [5, 5], [3] * 40]),
        (5, []),
        (5, [[5, 1, 5], [1, 1]]),  # both ends of the scale
        (9, [[9, 1], [2, 8, 9]]),
        (12, [[1, 10, 12, 3], [11, 11]]),
        (12, [[i % 12 + 1 for i in range(2 * dataio.WRITE_BLOCK_STATES + 5)], [4, 4]]),
        (5, [[i % 5 + 1 for i in range(dataio.WRITE_BLOCK_STATES + 1)]]),
    ])
    def test_matches_per_state_writer(self, tmp_path, k, rows):
        seqs = [rc.ResponseSequence(f"p{i}", row, "g" if i % 2 else None)
                for i, row in enumerate(rows)]
        out = tmp_path / "cohort.csv"
        rc.write_cohort(seqs, rc.StateSpace(k), out)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(("participant_id", "group", "responses"))
        for seq in seqs:
            sep = "" if k <= 9 else ";"
            writer.writerow([seq.participant_id, seq.group or "",
                             sep.join(str(int(s)) for s in seq.states)])
        assert out.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("k, rows, message", [
        (5, [[1, 12, 3], [2, 3]], "'p0': state 12 at position 1 is outside 1..5"),
        (5, [[1, 2], [3, 4, 6]], "'p1': state 6 at position 2 is outside 1..5"),
        (9, [[9, 10]], "'p0': state 10 at position 1 is outside 1..9"),
        (12, [[4, 4], [12, 13]], "'p1': state 13 at position 1 is outside 1..12"),
    ])
    def test_state_outside_scale_rejected(self, tmp_path, k, rows, message):
        # one digit per state up to 9 points: 12 would be read back as 1, 2
        seqs = [rc.ResponseSequence(f"p{i}", row) for i, row in enumerate(rows)]
        out = tmp_path / "cohort.csv"
        with pytest.raises(rc.ValidationError, match=re.escape(message)):
            rc.write_cohort(seqs, rc.StateSpace(k), out)
        assert not out.exists()


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


# --- oracle: the per-row loader the columnar one replaced -------------------

def _reference_parse_responses(cell, k, where):
    def ascii_digits(text):
        return text.isascii() and text.isdigit()

    if k <= 9:
        if not ascii_digits(cell):
            raise rc.ValidationError(
                f"{where}: responses must be a digit string for a {k}-point "
                f"scale, got {cell!r}"
            )
        values = [int(ch) for ch in cell]
    else:
        parts = [part.strip() for part in cell.split(";")]
        if not all(ascii_digits(part) for part in parts):
            raise rc.ValidationError(
                f"{where}: responses must be semicolon-separated integers, "
                f"got {cell!r}"
            )
        values = [int(part) for part in parts]
    if len(values) < 2:
        raise rc.ValidationError(
            f"{where}: need at least 2 responses to count transitions, "
            f"got {len(values)}"
        )
    for pos, v in enumerate(values):
        if not 1 <= v <= k:
            raise rc.ValidationError(
                f"{where}, response position {pos}: state {v} outside 1..{k}"
            )
    return values


def reference_load_cohort(path, config):
    """load_cohort as it was: one ResponseSequence per row, checked in turn.

    Returns (sequences, warnings) or raises the ValidationError it raised.
    """
    sequences, warnings = [], []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise rc.ValidationError(f"{path}: empty file")
        if tuple(h.strip() for h in header) != rc.CSV_HEADER:
            raise rc.ValidationError(
                f"{path}: expected header {','.join(rc.CSV_HEADER)!r}, got "
                f"{','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}, line {lineno}"
            try:
                if len(row) != 3:
                    raise rc.ValidationError(
                        f"{where}: expected 3 columns, got {len(row)}"
                    )
                pid, group, responses = (c.strip() for c in row)
                if not pid:
                    raise rc.ValidationError(f"{where}: empty participant_id")
                states = _reference_parse_responses(responses, config.states, where)
                sequences.append(rc.ResponseSequence(pid, states, group or None))
            except rc.ValidationError as exc:
                if config.mode == "strict":
                    raise
                warnings.append(f"skipped: {exc}")
    if not sequences:
        raise rc.ValidationError(f"{path}: no usable data rows")
    seen = set()
    for s in sequences:
        if s.participant_id in seen:
            raise rc.ValidationError(f"duplicate participant id {s.participant_id!r}")
        seen.add(s.participant_id)
    return sequences, warnings


def _responses_cell(draw, k, kind):
    length = 1 if kind == "one_response" else draw(st.integers(2, 12))
    values = draw(st.lists(st.integers(1, k), min_size=length, max_size=length))
    if kind == "out_of_range":
        values[draw(st.integers(0, length - 1))] = draw(
            st.sampled_from([0, k + 1, 9] if k <= 9 else
                            [0, k + 1, 99, 99999999999999999999, 9223372036854775808]))
    if k <= 9:
        text = "".join(map(str, values))
    else:
        pads = st.sampled_from(["", " ", "  ", "\t"])
        zeros = st.sampled_from(["", "", "00", "0" * 21])  # "007", "000...0003"
        text = ";".join(f"{draw(pads)}{draw(zeros)}{v}{draw(pads)}" for v in values)
    if kind == "bad_digit":
        bad = draw(st.sampled_from(["\u00b2", "\u0663", "x", ";;", "1_0", "+3", " 3 3"]))
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + bad + text[cut:]
    if kind == "empty_cell":
        text = draw(st.sampled_from(["", " "]))
    return text


@st.composite
def cohort_files(draw):
    """CSV text: mostly good rows, some of every kind the loader turns away."""
    k = draw(st.sampled_from([5, 11]))
    kinds = ["good"] * 12 + ["columns", "empty_id", "blank", "bad_digit",
                             "empty_cell", "one_response", "out_of_range"]
    ids = st.sampled_from(["A1", "A2", " A3 ", "B1", "B2", "C1", "C2", "D1"])
    rows = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=10)):
        if kind == "blank":
            rows.append([])
            continue
        pid = draw(st.sampled_from(["", "  "])) if kind == "empty_id" else draw(ids)
        group = draw(st.sampled_from(["", "a", " b ", "b"]))
        cell = _responses_cell(draw, k, kind if kind != "good" else "good")
        row = [pid, group, cell]
        if kind == "columns":
            row = row[:2] if draw(st.booleans()) else row + ["extra"]
        rows.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rc.CSV_HEADER)
    writer.writerows(rows)
    return k, buf.getvalue()


def assert_loads_like_reference(path, config):
    try:
        expected = reference_load_cohort(path, config)
    except rc.ValidationError as exc:
        with pytest.raises(rc.ValidationError) as got:
            rc.load_cohort(path, config)
        assert str(got.value) == str(exc)
        return
    data = rc.load_cohort(path, config)
    sequences, warnings = expected
    assert list(data.warnings) == warnings
    assert list(data.participant_ids) == [s.participant_id for s in sequences]
    assert list(data.groups) == [s.group for s in sequences]
    assert data.lengths.tolist() == [len(s) for s in sequences]
    assert data.states.tolist() == [v for s in sequences for v in s.states.tolist()]
    assert len(data.sequences) == len(sequences)
    for got, want in zip(data.sequences, sequences):
        assert (got.participant_id, got.group) == (want.participant_id, want.group)
        assert got.states.dtype == want.states.dtype
        assert got.states.tolist() == want.states.tolist()


# one bad responses cell of every kind per scale, and two awkward good ones
SCATTERED_CELLS = {
    5: ["3x3", "3\u00b23", "", "3", "3603", "0033", "13", "55555555555555555555"],
    11: ["3;x;3", ";;", "3; 3 3", "3", "3;12;3", "3;99999999999999999999;3",
         "9223372036854775808;1", "007;0000000000000000000003;11", "11; 1"],
}


def scattered_faults_csv(k):
    """3,000 rows with faults of every kind spread through them, some at and
    next to multiples of 1024."""
    rng = random.Random(k)
    at = sorted({1023, 1024, 1025, 2047, 2048, 2049, 2999}
                | set(rng.sample(range(1000, 3000), 60)))
    faults = [lambda row: row[:2], lambda row: [" "] + row[1:], lambda row: []]
    faults += [lambda row, cell=cell: row[:2] + [cell] for cell in SCATTERED_CELLS[k]]
    join = "".join if k <= 9 else ";".join
    rows = [[f"P{i:04d}", "ab"[i % 2], join(str(1 + (i + j) % k) for j in range(16))]
            for i in range(3000)]
    for n, i in enumerate(at):
        rows[i] = faults[n % len(faults)](rows[i])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rc.CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


class TestAgainstPerRowLoader:
    @settings(max_examples=400, deadline=None)
    @given(cohort_files(), st.sampled_from(["strict", "lenient"]))
    def test_same_rows_warnings_and_errors(self, tmp_path_factory, case, mode):
        k, text = case
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_text(text, encoding="utf-8")
        assert_loads_like_reference(path, rc.Config(states=k, mode=mode))

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("k", [5, 11])
    def test_faults_scattered_through_a_long_file(self, tmp_path, k, mode):
        path = write(tmp_path, "scattered.csv", scattered_faults_csv(k))
        assert_loads_like_reference(path, rc.Config(states=k, mode=mode))
        if mode == "lenient":
            assert len(rc.load_cohort(path, rc.Config(states=k, mode=mode)).skipped) > 40
