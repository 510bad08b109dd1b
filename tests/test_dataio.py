"""Cohort CSV round-trips and config file handling."""

import csv
import errno
import io
import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import respchain as rc
import respchain.chain as chain
import respchain.dataio as dataio
from conftest import field_limit, traced_peak


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

    @pytest.mark.parametrize("label", ["ocd", "schizophrenia", "\u00e9tude longitudinale",
                                       '"schizo,phrenia"'])
    def test_each_group_label_is_one_shared_string(self, tmp_path, label):
        rows = "".join(f"P{i},{label if i % 3 else 'control'},3243\n" for i in range(20_000))
        path = write(tmp_path, "cohort.csv", "participant_id,group,responses\n" + rows)
        groups = rc.load_cohort(path, rc.Config()).groups
        assert set(groups) == {"control", label.strip('"')}
        assert len({id(group) for group in groups}) == 2

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

    def test_one_id_key_per_row(self, space):
        states, lengths = np.array([1, 2, 3, 4], np.uint8), np.array([2, 2])
        a = np.frombuffer(b"b,a,pad.", np.uint8)
        keys = dataio._field_keys(a, np.array([0, 2]), np.array([1, 3]), np.zeros(2, bool))
        with pytest.raises(rc.ValidationError, match="columns disagree"):
            rc.CohortDataset(("b", "a"), ("g", "g"), states, lengths, space, "x.csv",
                             _id_keys=keys[:1])
        data = rc.CohortDataset(("b", "a"), ("g", "g"), states, lengths, space, "x.csv",
                                _id_keys=keys)
        assert data.id_order.tolist() == [1, 0]

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


    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("good_rows", [0, 1000])
    def test_non_utf8_byte_beats_an_earlier_bad_row_at_any_size(self, tmp_path, mode,
                                                               good_rows):
        # 1000 good rows put the bad byte past the decoder's first 8 KB chunk
        body = "".join(f"P{i:04d},g,3243232443244333\n" for i in range(good_rows))
        path = tmp_path / "mixed.csv"
        path.write_bytes(b"participant_id,group,responses\nA01,g,3x3\n"
                         + body.encode() + b"B01,\xff,333\n")
        assert path.stat().st_size > 8192 or not good_rows
        message = f"{path}: not UTF-8 text (byte 0xff: invalid start byte)"
        with pytest.raises(rc.ValidationError, match=f"^{re.escape(message)}$"):
            rc.load_cohort(path, rc.Config(mode=mode))

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_non_utf8_byte_beats_an_earlier_unreadable_field(self, tmp_path, mode):
        # the whole file is checked first, however far past the long field the byte is
        body = "".join(f"P{i:04d},g,3243232443244333\n" for i in range(1000))
        path = tmp_path / "long_then_bad.csv"
        path.write_bytes(b"participant_id,group,responses\nA01,g," + b"3" * 200_000 + b"\n"
                         + body.encode() + b"B01,\xff,333\n")
        message = f"{path}: not UTF-8 text (byte 0xff: invalid start byte)"
        with pytest.raises(rc.ValidationError, match=f"^{re.escape(message)}$"):
            rc.load_cohort(path, rc.Config(mode=mode))


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


def per_state_csv(seqs, k):
    """The bytes write_cohort should give, written state by state with
    csv.writer."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(("participant_id", "group", "responses"))
    for seq in seqs:
        sep = "" if k <= 9 else ";"
        writer.writerow([seq.participant_id, seq.group or "",
                         sep.join(str(int(s)) for s in seq.states)])
    return expected.getvalue().encode("utf-8")


def columnar(seqs, k):
    """The same cohort as a CohortDataset."""
    return dataio.CohortDataset(*dataio._columns(seqs), rc.StateSpace(k), "test")


# every scale width: one digit, and two and three ';'-separated digits
SCALES = [2, 5, 9, 10, 42, 99, 100, 255]
# characters csv.writer quotes a field for, and some it leaves alone
FIELD_CHARS = st.sampled_from(list(',"\r\n') + [" ", "\t", "\0", ";", "\u00e9", "\u4e2d"]) \
    | st.characters(blacklist_categories=("Cs",))


@st.composite
def labelled_cohorts(draw, text, groups):
    """(K, rows) with ids and groups drawn from text and groups."""
    k = draw(st.sampled_from(SCALES))
    ids = draw(st.lists(text, max_size=6, unique=True))
    return k, [rc.ResponseSequence(pid, draw(st.lists(st.integers(1, k), min_size=2, max_size=9)),
                                   draw(groups))
               for pid in ids]


class TestWriterQuoting:
    @settings(max_examples=150, deadline=None)
    @given(case=labelled_cohorts(st.text(FIELD_CHARS, min_size=1, max_size=6),
                                 st.none() | st.just("") | st.text(FIELD_CHARS, max_size=6)))
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, case):
        k, seqs = case
        path = tmp_path_factory.getbasetemp() / "quoted.csv"
        rc.write_cohort(seqs, rc.StateSpace(k), path)
        assert path.read_bytes() == per_state_csv(seqs, k)
        cohort = columnar(seqs, k)
        rc.write_cohort(cohort, cohort.state_space, path)
        assert path.read_bytes() == per_state_csv(seqs, k)

    @settings(max_examples=150, deadline=None)
    @given(case=labelled_cohorts(
        # the reader strips each field, so no surrounding whitespace
        st.text(FIELD_CHARS, min_size=1, max_size=6).filter(lambda t: t == t.strip()),
        st.none() | st.text(FIELD_CHARS, min_size=1, max_size=6).filter(
            lambda t: t == t.strip())))
    def test_round_trip(self, tmp_path_factory, case):
        k, seqs = case
        cohort = columnar(seqs, k)
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        rc.write_cohort(cohort, cohort.state_space, path)
        if not seqs:  # the reader refuses a file without rows
            with pytest.raises(rc.ValidationError, match="no usable data rows"):
                rc.load_cohort(path, rc.Config(states=k))
            return
        again = rc.load_cohort(path, rc.Config(states=k))
        assert again.participant_ids == cohort.participant_ids
        assert again.groups == cohort.groups
        assert again.lengths.tolist() == cohort.lengths.tolist()
        assert again.states.tolist() == cohort.states.tolist()

    def test_quoted_fields(self, tmp_path):
        seqs = [rc.ResponseSequence('a,"b"', [1, 2], "x\ny"), rc.ResponseSequence("c", [2, 1], "")]
        path = tmp_path / "quoted.csv"
        rc.write_cohort(seqs, rc.StateSpace(5), path)
        assert path.read_bytes() == (b'participant_id,group,responses\r\n'
                                     b'"a,""b""","x\ny",12\r\nc,,21\r\n')


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
        (12, [[i % 12 + 1 for i in range(2 * (1 << 16) + 5)], [4, 4]]),
        (5, [[i % 5 + 1 for i in range((1 << 16) + 1)]]),
    ])
    def test_matches_per_state_writer(self, tmp_path, k, rows):
        seqs = [rc.ResponseSequence(f"p{i}", row, "g" if i % 2 else None)
                for i, row in enumerate(rows)]
        out = tmp_path / "cohort.csv"
        rc.write_cohort(seqs, rc.StateSpace(k), out)
        assert out.read_bytes() == per_state_csv(seqs, k)

    @pytest.mark.parametrize("k", [9, 10, 99, 100, 255])
    def test_token_width_boundaries(self, tmp_path, k):
        # rows mix 1-, 2- and 3-digit states, including both ends of each
        # width the scale reaches; the longest stays under the CSV
        # reader's 131,072-byte field limit so that it loads back
        rng = np.random.default_rng(k)
        edges = [s for s in (1, 9, 10, 99, 100, k) if s <= k]
        rows = [edges, edges[::-1] * 3, [k, 1]]
        rows += [rng.integers(1, k + 1, size=n).tolist() for n in (2, 17, 20_000)]
        seqs = [rc.ResponseSequence(f"p{i}", row, "g" if i % 2 else None)
                for i, row in enumerate(rows)]
        out = tmp_path / "cohort.csv"
        rc.write_cohort(seqs, rc.StateSpace(k), out)
        assert out.read_bytes() == per_state_csv(seqs, k)
        again = rc.load_cohort(out, rc.Config(states=k))
        assert again.participant_ids == tuple(seq.participant_id for seq in seqs)
        assert [s.states.tolist() for s in again.sequences] == rows
        # a columnar cohort is written the same way
        copy = tmp_path / "copy.csv"
        rc.write_cohort(again, again.state_space, copy)
        assert copy.read_bytes() == out.read_bytes()

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

    @pytest.mark.parametrize("ids, rows, message", [
        (["p0", "p1"], [[1], [2, 3]],
         "participant 'p0': need at least 2 responses to count transitions, got 1"),
        # a bad state before the short row is named first, as count_tensor does
        (["p0", "p1"], [[1, 7], [2]], "'p0': state 7 at position 1 is outside 1..5"),
        (["a", "b", "a"], [[1, 2], [3, 4], [5, 5]], "duplicate participant id 'a'"),
    ])
    def test_rows_load_cohort_refuses_are_rejected(self, tmp_path, ids, rows, message):
        seqs = [rc.ResponseSequence(pid, row) for pid, row in zip(ids, rows)]
        out = tmp_path / "cohort.csv"
        with pytest.raises(rc.ValidationError, match=re.escape(message)):
            rc.write_cohort(seqs, rc.StateSpace(5), out)
        assert not out.exists()

    def test_empty_columnar_row_rejected(self, tmp_path):
        cohort = dataio.CohortDataset(["p0", "p1"], [None, None], np.array([1, 2], dtype=np.uint8),
                                      [2, 0], rc.StateSpace(5), "test")
        out = tmp_path / "cohort.csv"
        message = "participant 'p1': need at least 2 responses to count transitions, got 0"
        with pytest.raises(rc.ValidationError, match=re.escape(message)):
            rc.write_cohort(cohort, cohort.state_space, out)
        assert not out.exists()

    def test_million_state_row_memory(self, tmp_path):
        # about the row's text a few times over (2.2 MB of characters):
        # no encoder buffer of 4 bytes per character
        states = np.random.default_rng(3).integers(1, 12, size=1_000_000).astype(np.uint8)
        cohort = dataio.CohortDataset(["sim0000"], ["sim"], states, [states.size],
                                      rc.StateSpace(11), "test")
        peak = traced_peak(lambda: rc.write_cohort(cohort, cohort.state_space,
                                                   tmp_path / "long.csv"))
        assert peak <= 12 * 2**20


def write_with_open(path, newline=None):
    return open(path, "w", encoding="utf-8", newline=newline)


# open_output must leave what open(path, "w") leaves.
OPENERS = pytest.mark.parametrize("opener", [write_with_open, dataio.open_output],
                                  ids=["open", "open_output"])


class TestOpenOutput:
    """open_output rewrites a file in place, without O_TRUNC, and leaves
    the bytes and the file as open(path, "w") does."""

    @OPENERS
    def test_shorter_text_leaves_exactly_the_new_bytes(self, tmp_path, opener):
        path = write(tmp_path, "out.txt", "old text\n" * 1000)
        with opener(path) as fh:
            fh.write("new\n")
        assert path.read_bytes() == b"new\n"
        with opener(path, newline="") as fh:
            fh.write("a,b\r\n")
        assert path.read_bytes() == b"a,b\r\n"

    @OPENERS
    def test_keeps_inode_mode_and_links(self, tmp_path, opener):
        path = write(tmp_path, "out.txt", "old text " * 100)
        path.chmod(0o640)
        before = path.stat()
        link = tmp_path / "hard.txt"
        os.link(path, link)
        symlink = tmp_path / "sym.txt"
        symlink.symlink_to(path.name)
        with opener(path) as fh:
            fh.write("new")
        with opener(symlink) as fh:
            fh.write("via symlink")
        after = path.stat()
        assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
        assert symlink.is_symlink() and os.readlink(symlink) == path.name
        assert path.read_text() == link.read_text() == "via symlink"

    @OPENERS
    def test_a_raising_block_leaves_what_was_written_and_no_old_tail(self, tmp_path, opener):
        path = write(tmp_path, "out.txt", "o" * 100_000)
        with pytest.raises(RuntimeError, match="midway"):
            with opener(path) as fh:
                fh.write("x" * 10_000)
                fh.flush()
                fh.write("y" * 10)
                raise RuntimeError("midway")
        assert path.read_text() == "x" * 10_000 + "y" * 10

    @OPENERS
    def test_a_failed_flush_at_close_leaves_no_old_tail(self, tmp_path, opener):
        # Writes past RLIMIT_FSIZE fail with EFBIG, so the flush at close
        # writes 3,000 of the 5,000 bytes and raises.
        path = write(tmp_path, "out.txt", "o" * 100_000)
        imports = {"open_output": "from respchain.dataio import open_output as opener\n",
                   "write_with_open": "opener = lambda path: open(path, 'w', encoding='utf-8')\n"}
        code = imports[opener.__name__] + (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (3000, resource.RLIM_INFINITY))\n"
            "try:\n"
            "    with opener(sys.argv[1]) as fh:\n"
            "        fh.write('x' * 5000)\n"
            "except OSError as exc:\n"
            "    print(exc.errno)\n"
        )
        src = os.path.dirname(os.path.dirname(dataio.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code, str(path)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout, out.stderr) == (0, f"{errno.EFBIG}\n", "")
        assert path.read_text() == "x" * 3000

    def test_devices_and_fifos_are_written_as_they_are(self, tmp_path):
        with dataio.open_output(os.devnull) as fh:
            fh.write("discarded")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with dataio.open_output(fifo) as fh:
                fh.write("through the pipe")
            assert os.read(reader, 100) == b"through the pipe"
        finally:
            os.close(reader)

    @pytest.mark.parametrize("name", [".", "absent/out.txt"])
    def test_open_errors_are_those_of_open(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(OSError) as want:
            write_with_open(path)
        with pytest.raises(type(want.value)) as got:
            dataio.open_output(path).__enter__()
        assert str(got.value) == str(want.value)
        assert got.value.errno == want.value.errno


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
    """load_cohort as it was: one ResponseSequence per row, checked in turn,
    each row numbered by the line its record starts on (reader.line_num).

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
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
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
    """CSV text: mostly good rows, some of every kind the loader turns away,
    and ids that csv.writer quotes over two lines."""
    k = draw(st.sampled_from([5, 11, 120]))
    kinds = ["good"] * 12 + ["columns", "empty_id", "blank", "bad_digit",
                             "empty_cell", "one_response", "out_of_range"]
    ids = st.sampled_from(["A1", "A2", " A3 ", "B1", "B2", "C1", "C2", "D1", "E\n1", "F\r\n1"])
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
         "9223372036854775808;1", "007;0000000000000000000003;11", "11; 1",
         "3;", ";3", "3;;4", "11;12", "3;259", "3;1\x00",
         '3;"4'],  # csv.writer quotes the last: "3;""4"
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


# --- oracle: the csv module itself, on raw bytes -----------------------------

def reference_load_bytes(data, path, config):
    """load_cohort on the bytes data by the csv module: a csv.reader loop
    over the whole file decoded at once, numbering each row by the line
    its record starts on (reader.line_num) and ending the read at a
    csv.Error. Returns (sequences, skipped), skipped holding a (line,
    message) pair per skipped row, or raises what load_cohort should."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise rc.ValidationError(f"{path}: not UTF-8 text "
                                 f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    sequences, faults, stop = [], [], None
    try:
        header = next(reader, None)
        if header is None:
            raise rc.ValidationError(f"{path}: empty file")
        if tuple(h.strip() for h in header) != rc.CSV_HEADER:
            raise rc.ValidationError(f"{path}: expected header {','.join(rc.CSV_HEADER)!r}, "
                                     f"got {','.join(header)!r}")
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            where = f"{path}, line {lineno}"
            try:
                if not row:
                    continue
                if len(row) != 3:
                    raise rc.ValidationError(f"{where}: expected 3 columns, got {len(row)}")
                pid, group, responses = (c.strip() for c in row)
                if not pid:
                    raise rc.ValidationError(f"{where}: empty participant_id")
                states = _reference_parse_responses(responses, config.states, where)
                sequences.append(rc.ResponseSequence(pid, states, group or None))
            except rc.ValidationError as exc:
                faults.append((lineno, str(exc)))
    except csv.Error as exc:
        stop = exc
    if faults and config.mode == "strict":
        raise rc.ValidationError(faults[0][1])
    if stop is not None:
        raise stop
    if not sequences:
        raise rc.ValidationError(f"{path}: no usable data rows")
    seen = set()
    for s in sequences:
        if s.participant_id in seen:
            raise rc.ValidationError(f"duplicate participant id {s.participant_id!r}")
        seen.add(s.participant_id)
    return sequences, faults


RAW_LIMIT = 24  # the field limit of the raw-bytes property
RAW_IDS = ["A1", "B2", " C3 ", "\u2003D4\u2003", "\u00e95", "\u4e2d6", "N\0L", "", " ",
           '"Q,1"', '"Q""2"', 'x"y', '"a"b', '"a" ', '"l\nm"', '"c\r\nd"', '"r\rs"', '""',
           "X" * (RAW_LIMIT - 1), "Y" * RAW_LIMIT, "Z" * (RAW_LIMIT + 1),
           '"' + "W" * RAW_LIMIT + '"', '"' + "V" * (RAW_LIMIT - 2) + '""x"']
RAW_GROUPS = ["", "a", " b ", "b", "\u2003a", '"a"', '"a,b"', 'g"h', '"x\ry"', "\0",
              '"' + "g\n" * (RAW_LIMIT // 2) + '"', "G" * RAW_LIMIT,
              "H" * 8, "I" * 9, "J" * 16, "K" * 17,  # one key word, then text
              "a\0", "\0a", "\x7f", "~", "\ta\t", "\t~"]


def _raw_cell(draw, k):
    join = "".join if k <= 9 else ";".join
    cell = join(map(str, draw(st.lists(st.integers(1, k), min_size=2, max_size=8))))
    return draw(st.sampled_from([
        cell, cell, cell, f"\u2003{cell}\u2003", f" {cell}", f'"{cell}"', f'"{cell[:2]}"{cell[2:]}',
        f"{cell[:1]}\"{cell[1:]}", f'"{cell}""', f'"{cell[:1]}""{cell[1:]}"', "3x3", "3", "", '""',
        "36" if k <= 9 else "3;12", "3;", ";3", "3;;4", "11;12", "3;259", "3;65539", "3;1\x00",
        "3" * (RAW_LIMIT - 1), "4" * RAW_LIMIT, "2" * (RAW_LIMIT + 1),
        "3;" * (RAW_LIMIT // 2 - 1) + "3", "3;" * (RAW_LIMIT // 2) + "3"]))


@st.composite
def raw_cohort_bytes(draw):
    """(K, bytes) of a cohort CSV file with the quoting, line-break, blank
    line, BOM, NUL, non-ASCII, whitespace and long-field cases a byte-level
    reader must read as the csv module does."""
    k = draw(st.sampled_from([5, 11, 120]))
    ends = st.sampled_from(["\r\n", "\n", "\r"])
    header = draw(st.sampled_from(["participant_id,group,responses"] * 6 + [
        " participant_id ,group,responses", '"participant_id",group,"responses"',
        " " * (RAW_LIMIT - 14) + "participant_id,group,responses",  # at the limit, then over it
        " " * (RAW_LIMIT - 13) + "participant_id,group,responses",
        '"participant_id",group,"respon\nses"', "participant_id,group", ""]))
    lines = [header + draw(ends)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(ends))  # a blank line
            continue
        fields = [draw(st.sampled_from(RAW_IDS)), draw(st.sampled_from(RAW_GROUPS)),
                  _raw_cell(draw, k)]
        fields = fields[:draw(st.sampled_from([3, 3, 3, 3, 2, 1]))] + ["e"] * draw(
            st.sampled_from([0, 0, 0, 0, 1]))
        lines.append(",".join(fields) + draw(ends))
    if len(lines) > 1 and draw(st.booleans()):  # no line end after the last record
        lines[-1] = lines[-1].rstrip("\r\n")
    lines.append(draw(st.sampled_from(["", "", "", "Z9,g,33", 'Z9,g,"33', 'Z9,"open\r\n', '"'])))
    text = "".join(lines)
    data = draw(st.sampled_from([b"", b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")
    if draw(st.integers(0, 19)) == 0:  # a byte that is not UTF-8
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x80"])) + data[cut:]
    return k, data


def assert_reads_like_csv_module(path, data, config):
    path.write_bytes(data)
    try:
        sequences, skipped = reference_load_bytes(data, path, config)
    except (rc.ValidationError, csv.Error) as exc:
        with pytest.raises(type(exc)) as got:
            rc.load_cohort(path, config)
        assert str(got.value) == str(exc)
        return
    got = rc.load_cohort(path, config)
    assert got.skipped == tuple(skipped)
    assert list(got.participant_ids) == [s.participant_id for s in sequences]
    assert list(got.groups) == [s.group for s in sequences]
    assert got.lengths.tolist() == [len(s) for s in sequences]
    assert got.states.tolist() == [v for s in sequences for v in s.states.tolist()]


class TestAgainstCsvModule:
    @settings(max_examples=600, deadline=None)
    @given(raw_cohort_bytes(), st.sampled_from(["strict", "lenient"]))
    def test_raw_bytes_read_as_the_csv_module_reads_them(self, tmp_path_factory, case, mode):
        k, data = case
        path = tmp_path_factory.getbasetemp() / "raw.csv"
        with field_limit(RAW_LIMIT):
            assert_reads_like_csv_module(path, data, rc.Config(states=k, mode=mode))


def many_labels_csv(bad_rows):
    """24,000 rows over 200 distinct labels: some read as key bytes (1 to
    8 bytes of '!' to '~' but '"'), the rest as text (padded, quoted,
    non-ASCII, with a NUL or DEL, 9 bytes or more; over 8192 rows), and
    empty ones. With bad_rows, every seventh row is one lenient mode skips."""
    names = [f"g{i}" for i in range(60)] + [f"{i:02d}" + "~" * (i % 31) for i in range(60)]
    texts = [f"\t{name} " for name in names[::3]] + [f'"{name},x"' for name in names[:20]]
    texts += [f"\u00e9{i}" for i in range(20)] + [f"n\0{i}" for i in range(10)]
    texts += ["d\x7f", "Z" * 33, "Y" * 32, "Y" * 33, "", " ", '""', '" "']
    raw = names + texts + [f"{i:02d}" + "#" * (i % 40) for i in range(60)]
    rng = random.Random(7)
    rows = []
    for i in range(24_000):
        pid, cell = f"P{i}", "3243"
        if bad_rows and i % 7 == 3:
            pid, cell = rng.choice([(f"X{i}", "3x3"), (f"X{i}", "3"), (" ", cell)])
        rows.append(f"{pid},{rng.choice(texts if i % 2 else raw)},{cell}\n")
    return "participant_id,group,responses\n" + "".join(rows)


class TestGroupLabels:
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_many_labels_read_as_the_csv_module_reads_them(self, tmp_path, mode):
        path = write(tmp_path, "labels.csv", many_labels_csv(bad_rows=mode == "lenient"))
        expected = [row[1].strip() or None for row in csv.reader(io.StringIO(path.read_text()))
                    if row[0].startswith("P")]
        got = rc.load_cohort(path, rc.Config(mode=mode))
        assert list(got.groups) == expected
        labels = set(expected) - {None}
        assert len(labels) > 200
        assert len({id(group) for group in got.groups if group is not None}) == len(labels)
        assert len(got.skipped) == (3429 if mode == "lenient" else 0)

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("end", ["", "\n", "\r\n"])
    @pytest.mark.parametrize("label", ["a", "~!", "H" * 7, "H" * 8, "I" * 9, "#~" * 4 + "!"])
    def test_labels_in_the_last_record_read_as_the_csv_module_reads_them(
            self, tmp_path, mode, end, label):
        # a key of 8 bytes is one whole word and one of 9 is text; a short one starts
        # within 8 bytes of the end, so its word is read shifted down
        data = f"participant_id,group,responses\nP1,g,33\nP2,{label},34{end}".encode()
        assert_reads_like_csv_module(tmp_path / "last.csv", data, rc.Config(mode=mode))


# NUL, \x01, ASCII, DEL and characters of 2, 3 and 4 UTF-8 bytes
ONE_BYTE_CHARS = ["\0", "\x01", "a", "b", "~", "\x7f"]
ID_CHARS = ONE_BYTE_CHARS + ["\x80", "é", "\u07ff", "€", "\uffff", "\U0001f600",
                              "\U0010ffff"]


def id_text(data, chars):
    return "".join(chars[b % len(chars)] for b in data)


@st.composite
def id_columns(draw):
    """Distinct ids of 1 to 40 UTF-8 bytes each (to a width drawn for the
    column, so that narrow and wide columns are drawn alike), which share
    prefixes of one stem of the column's, so they differ at any byte."""
    top, stem = draw(st.integers(1, 40)), id_text(draw(st.binary(max_size=40)), ID_CHARS)
    ids = []
    for width, cut, tail, pad in draw(st.lists(st.tuples(
            st.integers(1, top), st.integers(0, 40), st.binary(max_size=40),
            st.binary(min_size=40, max_size=40)), max_size=16)):
        text = ""
        for c in stem[:cut] + id_text(tail, ID_CHARS):  # the most within width
            if len((text + c).encode()) > width:
                break
            text += c
        ids.append(text + id_text(pad[:width - len(text.encode())], ONE_BYTE_CHARS))
    return tuple(dict.fromkeys(ids))


@st.composite
def ascii_id_columns(draw):
    """Distinct ASCII ids of 1 to 8 bytes, the widths the ids are packed
    at, which share prefixes of one stem of the column's."""
    stem = id_text(draw(st.binary(max_size=8)), ONE_BYTE_CHARS)
    ids = [(stem[:cut] + id_text(tail, ONE_BYTE_CHARS))[:width]
           for width, cut, tail in draw(st.lists(st.tuples(
               st.integers(1, 8), st.integers(0, 8), st.binary(min_size=8, max_size=8)),
               max_size=16))]
    return tuple(dict.fromkeys(ids))


class TestIdOrder:
    @settings(max_examples=2000, deadline=None)
    @given(id_columns())
    @example(("a\0\0", "a\x01", "a", "a\0"))
    @example(("x" * 31 + "\0", "x" * 32, "x" * 31, "é" * 16, "x" * 24 + "é" * 4))
    @example(("x" * 32 + "\0", "x" * 33, "x" * 32, "x" * 31 + "é"))
    def test_equals_sorted(self, ids):
        order = dataio._id_order(ids)
        assert order.dtype == np.intp
        assert order.tolist() == sorted(range(len(ids)), key=ids.__getitem__)

    @settings(max_examples=1000, deadline=None)
    @given(ascii_id_columns())
    @example(("a\0\0", "a\x01", "a", "a\0"))
    @example(("\x7f" * 8, "\0" * 8, "\x01", "\0", "\x7f"))
    def test_packed_columns_equal_sorted(self, ids):
        """The loader's id keys (_field_keys) sort as sorted() sorts the ids."""
        width = np.fromiter(map(len, ids), np.intp, len(ids))
        a = np.frombuffer("".join(ids).encode() + bytes(8), np.uint8)
        starts = np.cumsum(width) - width
        keys = dataio._field_keys(a, starts, starts + width, np.zeros(len(ids), bool))
        assert np.argsort(keys).tolist() == sorted(range(len(ids)), key=ids.__getitem__)


# Id fields the loader keys by their bytes (ASCII, unquoted, 1 to 8 bytes,
# no space at either end; a NUL, DEL or space inside), and fields that send
# the whole column to the set and sorted(): 9 bytes or more, not ASCII,
# quoted, quoted with "" inside, padded, empty or all spaces
KEYED_IDS = st.text(st.sampled_from("ab~!\0\x7f "), min_size=1, max_size=8).filter(
    lambda pid: pid.strip() == pid)
OTHER_IDS = st.sampled_from(["abcdefghi", "a" * 8 + "\0", "\u00e91", "\u4e2d", '"q1"', '"a"',
                             '"q""2"', '"~"', " a", "a\t", " p1 ", "", "  "])


@st.composite
def id_cohorts(draw):
    """Cohort CSV bytes whose ids are mostly keyed fields, sometimes with
    one other field, some rows with a bad responses cell, and sometimes an
    id repeated (as the same field or another that reads as that id) at the
    start, in the middle or at the end, and no line end after the last."""
    fields = draw(st.lists(KEYED_IDS, min_size=1, max_size=12, unique=True))
    if draw(st.booleans()):
        fields[draw(st.integers(0, len(fields) - 1))] = draw(OTHER_IDS)
    if draw(st.booleans()):
        copy = draw(st.sampled_from(fields))
        if copy.strip() and '"' not in copy:  # the same id, maybe padded or quoted
            copy = draw(st.sampled_from([copy, f" {copy}", f'"{copy}"']))
        fields.insert(draw(st.sampled_from([0, len(fields) // 2, len(fields)])), copy)
    rows = [f"{pid},{draw(st.sampled_from(['g', '']))},"
            f"{draw(st.sampled_from(['3243', '3243', '33', '3x3']))}\n" for pid in fields]
    if draw(st.booleans()):  # the last id then starts within 8 bytes of the end
        rows[-1] = rows[-1][:-1]
    return ("participant_id,group,responses\n" + "".join(rows)).encode()


def loaded_ids(data):
    """The csv module's reading of an id_cohorts file: each record's stripped
    id, with None for a record that does not load (an empty id or a bad
    responses cell), in line order from line 2."""
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))[1:]
    return [pid.strip() if pid.strip() and cell != "3x3" else None for pid, _, cell in rows]


class TestIdKeys:
    """A cohort's ids load, are checked for repeats and are put in
    participant_id order as the csv module's ids are: the first fault by
    line in strict mode, then no usable rows, then the first repeated id as
    _check_unique names it, then sorted()'s order."""

    @settings(max_examples=500, deadline=None)
    @given(id_cohorts(), st.sampled_from(["strict", "lenient"]))
    @example(b"participant_id,group,responses\na\0,g,3243\na,g,3243\n", "strict")
    @example(b"participant_id,group,responses\nz,g,3243\n\"a\",g,3243\na,g,3243\n", "lenient")
    def test_order_and_repeats_are_those_of_the_parsed_ids(self, tmp_path_factory, data, mode):
        path = tmp_path_factory.getbasetemp() / "ids.csv"
        path.write_bytes(data)
        ids = loaded_ids(data)
        config = rc.Config(mode=mode)
        if mode == "strict" and None in ids:
            with pytest.raises(rc.ValidationError, match=f"line {ids.index(None) + 2}:"):
                rc.load_cohort(path, config)
            return
        ids = [pid for pid in ids if pid is not None]
        try:
            dataio._check_unique(ids)
        except rc.ValidationError as exc:
            with pytest.raises(rc.ValidationError) as got:
                rc.load_cohort(path, config)
            assert str(got.value) == str(exc)
            return
        if not ids:
            with pytest.raises(rc.ValidationError, match="no usable data rows"):
                rc.load_cohort(path, config)
            return
        got = rc.load_cohort(path, config)
        assert got.participant_ids == tuple(ids)
        assert got.id_order.dtype == np.intp
        assert got.id_order.tolist() == sorted(range(len(ids)), key=ids.__getitem__)


# Group fields of every kind the loader numbers: empty (None), 1 to 8 key
# bytes (one packed word each), and text: 9 bytes or more, padded, quoted
# or not ASCII.
GROUP_FIELDS = st.one_of(
    st.sampled_from(["", " ", "a", "b", "ocd", "12345678", "123456789", "attention_deficit",
                     " a ", "a,b", '"q"', "\u00e9", "Y" * 33]),
    st.text(st.characters(min_codepoint=32, max_codepoint=0x3FF), max_size=12))


@st.composite
def numbered_cohorts(draw):
    """CSV text of rows over a few drawn group fields, some rows that
    lenient mode skips for their responses or their empty id, and a good
    last row."""
    k = draw(st.sampled_from([5, 11]))
    fields = draw(st.lists(GROUP_FIELDS, min_size=1, max_size=6))
    kinds = draw(st.lists(st.sampled_from(["good"] * 6 + [
        "empty_id", "bad_digit", "one_response", "out_of_range"]), max_size=40)) + ["good"]
    rows = []
    for i, kind in enumerate(kinds):
        pid = draw(st.sampled_from(["", "  "])) if kind == "empty_id" else f"P{i}"
        cell = _responses_cell(draw, k, "good" if kind == "empty_id" else kind)
        rows.append([pid, draw(st.sampled_from(fields)), cell])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rc.CSV_HEADER)
    writer.writerows(rows)
    return k, buf.getvalue()


class TestGroupCodes:
    """The loader's group numbering is the one CohortDataset derives from
    groups, and the tables counted by group code are the rows' count tables
    summed per group, in blocks of any size."""

    @settings(max_examples=300, deadline=None)
    @given(numbered_cohorts(), st.sampled_from([1, 5, 64, chain.COUNT_BLOCK_STATES]))
    @example((5, "participant_id,group,responses\r\nP0,123456789,33\r\nP1,,34\r\n"
                 "P2, b ,3x\r\n ,c,34\r\nP4,b,43\r\n"), 1)
    def test_codes_and_group_tables(self, tmp_path_factory, case, block):
        k, text = case
        path = tmp_path_factory.getbasetemp() / "numbered.csv"
        path.write_bytes(text.encode())
        data = rc.load_cohort(path, rc.Config(states=k, mode="lenient"))
        labels, codes = data.group_codes
        derived = rc.CohortDataset(data.participant_ids, data.groups, data.states,
                                   data.lengths, data.state_space, "derived").group_codes
        assert derived[0] == labels
        assert derived[1].dtype == codes.dtype == np.min_scalar_type(len(labels))
        assert np.array_equal(derived[1], codes)
        assert list(labels) == [None] * (None in data.groups) + sorted(set(data.groups) - {None})
        assert [labels[c] for c in codes.tolist()] == list(data.groups)
        tensor = rc.count_tensor(data, data.state_space)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chain, "COUNT_BLOCK_STATES", block)
            tables = chain._pair_tables(data.states, data.lengths, k, codes, len(labels),
                                        np.int64)
        assert tables.shape == (len(labels), k, k) and tables.dtype == np.int64
        for code in range(len(labels)):
            assert np.array_equal(tables[code], tensor[codes == code].sum(axis=0))


@pytest.fixture
def small_limit():
    """csv.field_size_limit lowered to 60 for one test, restored after it."""
    with field_limit(60) as limit:
        yield limit


# a field's text at each position, in a row that is good apart from its length
LIMIT_ROWS = {"id": "{},g,44", "group": "A02,{},44", "responses": "A02,g,{}"}


class TestFieldLimit:
    """csv.field_size_limit(), read when load_cohort is called, bounds each
    field in characters, as the csv module counts them."""

    def cohort(self, tmp_path, position, text):
        path = tmp_path / "cohort.csv"
        row = LIMIT_ROWS[position].format(text)
        path.write_bytes(f"participant_id,group,responses\nA01,g,33\n{row}\nA03,g,55\n".encode())
        return path

    @pytest.mark.parametrize("position", LIMIT_ROWS)
    def test_a_field_of_exactly_the_limit_loads(self, tmp_path, small_limit, position):
        text = ("3" if position == "responses" else "x") * small_limit
        data = rc.load_cohort(self.cohort(tmp_path, position, text), rc.Config())
        assert len(data) == 3
        assert data.lengths[1] == (small_limit if position == "responses" else 2)

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("position", LIMIT_ROWS)
    def test_one_character_over_ends_the_read(self, tmp_path, small_limit, position, mode):
        text = ("3" if position == "responses" else "x") * (small_limit + 1)
        message = f"field larger than field limit ({small_limit})"
        with pytest.raises(csv.Error, match=f"^{re.escape(message)}$"):
            rc.load_cohort(self.cohort(tmp_path, position, text), rc.Config(mode=mode))

    def test_characters_not_bytes_are_counted(self, tmp_path, small_limit):
        text = "\u00e9" * small_limit  # two bytes each
        data = rc.load_cohort(self.cohort(tmp_path, "group", text), rc.Config())
        assert data.groups[1] == text
        with pytest.raises(csv.Error):
            rc.load_cohort(self.cohort(tmp_path, "group", text + "\u00e9"), rc.Config())

    def test_four_byte_characters_up_to_the_limit_load(self, tmp_path, small_limit):
        text = "\U0001f600" * small_limit  # four bytes each
        data = rc.load_cohort(self.cohort(tmp_path, "id", text), rc.Config())
        assert data.participant_ids == ("A01", text, "A03")
        with pytest.raises(csv.Error):
            rc.load_cohort(self.cohort(tmp_path, "id", text + "x"), rc.Config())

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_a_long_field_cut_inside_a_character_still_ends_the_read(self, tmp_path, small_limit,
                                                                     mode):
        # far more than four bytes a character over the limit, so the read looks no further,
        # and a cut at 4 * (limit + 1) bytes falls inside a three-byte character
        path = self.cohort(tmp_path, "group", "xy" + "\u4e2d" * (3 * small_limit))
        with pytest.raises(csv.Error, match=re.escape(f"limit ({small_limit})")):
            rc.load_cohort(path, rc.Config(mode=mode))
        path.write_bytes(path.read_bytes().replace(b"A01,g,33", b"A01,g,3"))
        error = rc.ValidationError if mode == "strict" else csv.Error
        with pytest.raises(error):  # in strict mode a bad row before the cut comes first
            rc.load_cohort(path, rc.Config(mode=mode))

    def test_a_quoted_field_over_several_lines_is_one_field(self, tmp_path, small_limit):
        text = "ab\n" * (small_limit // 3 - 1) + "abc"  # the limit exactly, over 20 lines
        data = rc.load_cohort(self.cohort(tmp_path, "group", f'"{text}"'), rc.Config())
        assert data.groups[1] == text
        with pytest.raises(csv.Error):
            rc.load_cohort(self.cohort(tmp_path, "group", f'"{text}x"'), rc.Config())

    def test_raising_the_limit_before_the_call_lets_the_row_load(self, tmp_path, small_limit):
        path = self.cohort(tmp_path, "responses", "3" * (2 * small_limit))
        with pytest.raises(csv.Error):
            rc.load_cohort(path, rc.Config())
        csv.field_size_limit(2 * small_limit)
        assert rc.load_cohort(path, rc.Config()).lengths.tolist() == [2, 2 * small_limit, 2]


class TestUnreachedConfigChecks:
    def test_tolerance_must_be_positive(self):
        with pytest.raises(rc.ValidationError, match="^tolerance must be positive$"):
            rc.Config(tolerance=0)

    def test_max_power_at_least_one(self):
        with pytest.raises(rc.ValidationError, match="^max_power must be >= 1$"):
            rc.Config(max_power=0)

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = write(tmp_path, "cfg.json", "[1, 2]")
        with pytest.raises(rc.ValidationError,
                           match=f"^config {re.escape(str(path))}: expected a JSON object$"):
            rc.load_config(path)
