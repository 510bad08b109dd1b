"""The batch path: one (N, K, K) count tensor scored block by block.

count_tensor must equal the per-row pair counts stacked, and score_counts
must equal, bit for bit, the per-row loop it replaced (kept below as
``reference_score``) and math.fsum of each row's terms, hard ones too.
Counted fsum calls show which rows leave the extraction-level sum for
fsum itself. The digest guard pins whole report payloads of the
subcommands that read the tensor.
"""

import hashlib
import json
import math
import sys
from math import fsum
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import respchain as rc
import respchain._kernels as kernels
import respchain.chain as chain
import respchain.scoring as scoring
from respchain.cli import main
from conftest import traced_peak


def reference_score(states, values):
    """The per-row score loop the batch scorer replaced."""
    k = values.shape[0]
    counts = kernels.pair_counts(np.asarray(states, dtype=np.int64), k)
    terms = []
    for i, j in np.argwhere(counts > 0):
        c = int(counts[i, j])
        terms.append(c * float(values[i, j]))
    return fsum(terms)


@st.composite
def ragged_cohorts(draw):
    k = draw(st.integers(2, 12))
    n = draw(st.integers(1, 50))
    rows = [
        draw(st.lists(st.integers(1, k), min_size=2, max_size=40))
        for _ in range(n)
    ]
    seed = draw(st.integers(0, 2**32 - 1))
    return k, rows, seed


def _sequences(rows):
    return [rc.ResponseSequence(f"p{i}", r) for i, r in enumerate(rows)]


class TestCountTensor:
    @settings(max_examples=200, deadline=None)
    @given(ragged_cohorts(), st.integers(1, 64) | st.just(chain.COUNT_BLOCK_STATES))
    def test_equals_stacked_pair_counts(self, case, block):
        k, rows, _ = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chain, "COUNT_BLOCK_STATES", block)
            tensor = rc.count_tensor(_sequences(rows), rc.StateSpace(k))
        expected = np.stack([kernels.pair_counts(np.array(r), k) for r in rows])
        assert tensor.shape == (len(rows), k, k)
        assert np.array_equal(tensor, expected)

    def test_no_pair_crosses_a_row_boundary(self):
        seqs = _sequences([[1, 1], [2, 2], [1, 2]])
        tensor = rc.count_tensor(seqs, rc.StateSpace(2))
        assert tensor.sum() == 3
        assert tensor[:, 0, 1].tolist() == [0, 0, 1]

    def test_empty_cohort(self):
        assert rc.count_tensor([], rc.StateSpace(3)).shape == (0, 3, 3)
        columns = rc.CohortDataset([], [], np.zeros(0, dtype=np.uint8), [],
                                   rc.StateSpace(4), "memory")
        assert rc.count_tensor(columns, rc.StateSpace(4)).shape == (0, 4, 4)

    def test_blocks_hold_whole_rows(self, monkeypatch):
        # a block takes rows while they fit in 8 states; a longer row is
        # a block of its own
        states_per_block = []
        bincount = np.bincount

        def counted(codes, minlength):
            states_per_block.append(codes.size)
            return bincount(codes, minlength=minlength)

        monkeypatch.setattr(chain, "COUNT_BLOCK_STATES", 8)
        monkeypatch.setattr(np, "bincount", counted)
        rng = np.random.default_rng(2)
        rows = [rng.integers(1, 4, size=n).tolist() for n in (3, 4, 5, 20, 2, 3, 9, 3)]
        tensor = rc.count_tensor(_sequences(rows), rc.StateSpace(3))
        assert states_per_block == [7, 5, 20, 5, 9, 3]
        assert np.array_equal(tensor, np.stack([kernels.pair_counts(np.array(r), 3)
                                                for r in rows]))

    @pytest.mark.parametrize("length, dtype", [
        (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)])
    def test_dtype_holds_the_longest_row(self, length, dtype):
        rows = [[2, 1], [1] * length, [2, 2, 2]]
        tensor = rc.count_tensor(_sequences(rows), rc.StateSpace(2))
        assert tensor.dtype == dtype
        assert tensor[:, 0, 0].tolist() == [0, length - 1, 0]
        assert tensor[:, 1, 1].tolist() == [0, 0, 2]
        assert tensor.sum(axis=0)[0, 0] == length - 1

    def test_peak_memory_of_a_40k_cohort(self):
        # the uint8 tensor is 0.95 MiB and each block's codes 0.5 MiB; an
        # int64 tensor counted in one pass peaked at 14.95 MiB
        rng = np.random.default_rng(11)
        columns = rc.CohortDataset(
            [f"p{i}" for i in range(40_000)], [None] * 40_000,
            rng.integers(1, 6, size=640_000).astype(np.uint8), [16] * 40_000,
            rc.StateSpace(5), "memory")
        rc.count_tensor(_sequences([[1, 2]]), rc.StateSpace(5))  # warm up
        peak = traced_peak(lambda: rc.count_tensor(columns, rc.StateSpace(5)))
        assert peak < 4 * 2**20

    def test_short_row_named(self):
        seqs = _sequences([[1, 2], [3], [1]])
        with pytest.raises(rc.ValidationError, match="'p1': need at least 2"):
            rc.count_tensor(seqs, rc.StateSpace(3))

    def test_state_out_of_range_named_by_participant_and_position(self):
        seqs = _sequences([[1, 2, 3], [2, 1, 4, 5]])
        with pytest.raises(rc.ValidationError,
                           match=r"'p1': state 4 at position 2 is outside 1..3"):
            rc.count_tensor(seqs, rc.StateSpace(3))

    def test_first_bad_row_wins(self):
        seqs = _sequences([[1, 2], [1, 9], [2]])
        with pytest.raises(rc.ValidationError, match="'p1': state 9"):
            rc.count_tensor(seqs, rc.StateSpace(3))

    @settings(max_examples=200, deadline=None)
    @given(ragged_cohorts())
    def test_columnar_cohort_counts_like_its_sequences(self, case):
        k, rows, _ = case
        space = rc.StateSpace(k)
        columns = rc.CohortDataset(
            [f"p{i}" for i in range(len(rows))], [None] * len(rows),
            np.concatenate(rows).astype(np.uint8), [len(r) for r in rows],
            space, "memory")
        tensor = rc.count_tensor(columns, space)
        assert np.array_equal(tensor, rc.count_tensor(columns.sequences, space))
        assert np.array_equal(tensor, rc.count_tensor(_sequences(rows), space))

    @pytest.mark.parametrize("states, lengths, message", [
        ([1, 2, 2, 0, 1], [2, 3], r"'p1': state 0 at position 1 is outside 1..3"),
        ([1, 2, 3, 1, 4], [3, 1, 1], r"'p1': need at least 2 responses to count "
                                     r"transitions, got 1"),
        ([1, 4, 3, 1, 1], [2, 1, 2], r"'p0': state 4 at position 1"),
    ])
    def test_columnar_cohort_checks(self, states, lengths, message):
        columns = rc.CohortDataset(
            [f"p{i}" for i in range(len(lengths))], [None] * len(lengths),
            np.array(states, dtype=np.uint8), lengths, rc.StateSpace(3), "memory")
        with pytest.raises(rc.ValidationError, match=message):
            rc.count_tensor(columns, rc.StateSpace(3))

    def test_count_transitions_agrees(self, o05, space):
        tensor = rc.count_tensor([o05], space)
        assert np.array_equal(rc.count_transitions(o05, space).counts, tensor[0])


class TestScoreCounts:
    @settings(max_examples=200, deadline=None)
    @given(ragged_cohorts())
    def test_bit_identical_to_row_loop(self, case):
        k, rows, seed = case
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=3.0, size=(k, k))
        tensor = rc.count_tensor(_sequences(rows), rc.StateSpace(k))
        scores = rc.score_counts(tensor, values)
        expected = [reference_score(r, values) for r in rows]
        assert scores.tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(ragged_cohorts(), st.sampled_from([40, 300]))
    def test_compact_tensor_scores_like_its_int64_copy(self, case, longest):
        k, rows, seed = case
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=3.0, size=(k, k))
        rows = rows + [rng.integers(1, k + 1, size=longest).tolist()]
        tensor = rc.count_tensor(_sequences(rows), rc.StateSpace(k))
        assert tensor.dtype == (np.uint8 if longest < 257 else np.uint16)
        wide = tensor.astype(np.int64)
        assert rc.score_counts(tensor, values).tobytes() == \
            rc.score_counts(wide, values).tobytes()
        assert repr(rc.score_terms(tensor, values)) == repr(rc.score_terms(wide, values))

    def test_rows_past_one_block(self, monkeypatch):
        import respchain.scoring as scoring

        monkeypatch.setattr(scoring, "SCORE_BLOCK_ROWS", 3)
        rng = np.random.default_rng(5)
        rows = [rng.integers(1, 5, size=int(n)).tolist()
                for n in rng.integers(2, 12, size=10)]
        values = rng.normal(size=(4, 4))
        tensor = rc.count_tensor(_sequences(rows), rc.StateSpace(4))
        assert rc.score_counts(tensor, values).tolist() == \
            [reference_score(r, values) for r in rows]

    def test_shape_mismatch(self):
        with pytest.raises(rc.ValidationError):
            rc.score_counts(np.zeros((2, 3, 3), dtype=np.int64), np.zeros((4, 4)))

    def test_unvisited_infinite_beta_adds_nothing(self):
        values = np.array([[0.5, np.inf], [-np.inf, -1.25]])
        tensor = rc.count_tensor(_sequences([[1, 1, 1], [2, 2], [1, 2]]),
                                 rc.StateSpace(2))
        with np.errstate(all="raise"):
            scores = rc.score_counts(tensor, values)
        assert scores.tolist() == [1.0, -1.25, np.inf]
        assert rc.score_value([2, 2, 2], values) == -2.5

    def test_score_sequence_and_score_value_agree(self, o05, space, ocd_matrix,
                                                  adhd_matrix):
        lr = rc.log_likelihood_matrix(ocd_matrix, adhd_matrix)
        batch = rc.score_counts(rc.count_tensor([o05], space), lr.values)[0]
        assert rc.score_sequence(o05, lr).score == batch
        assert rc.score_value(o05.states, lr.values) == batch
        assert batch == reference_score(o05.states, lr.values)


# An exact half-ulp tie: the plain float sum gives 1.6438561897747246, fsum
# (the exact sum rounded half-even) 1.6438561897747248.
TIE_ROW = [math.log2(1.25), 2.0, 1.0, -2.0, math.log2(1.25)]
# Its extraction levels sum to 1, -2**-54 and -2**-120: 1 + -2**-54 is a tie
# that rounds up to 1.0, but the third level puts the exact sum just below
# it, so fsum gives 1 - 2**-53.
BELOW_POWER_ROW = [1.0, -2.0 ** -54, 2.0 ** -120, -2.0 ** -119]
OVERFLOW_ROW = [sys.float_info.max, sys.float_info.max, -sys.float_info.max]


@st.composite
def hard_rows(draw):
    """A row of terms built to be hard to sum: half-ulp ties, dust far below
    them, pairs that cancel, anywhere from subnormal to near overflow."""
    kind = draw(st.sampled_from(["tie", "floats", "huge", "special"]))
    if kind == "floats":
        return draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=1, max_size=12))
    if kind == "special":
        picks = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0])
        return draw(st.lists(picks | st.floats(-1e3, 1e3), min_size=1, max_size=6))
    if kind == "huge":
        big = st.builds(math.ldexp, st.floats(-2, 2), st.integers(1010, 1022))
        return draw(st.lists(big | st.floats(-1e300, 1e300), min_size=1, max_size=6))
    exponent = draw(st.integers(-1070, 900))
    head = math.ldexp(draw(st.sampled_from([1.0, 1.5]) | st.floats(1, 2)), exponent)
    ulp = math.ulp(head)
    # a tie with the neighbour below (half as far below a power of two) or above
    row = [head, draw(st.sampled_from([math.nextafter(head, 0) - head, ulp])) / 2]
    # dust 50 or more binades down lands in the second-level errors
    for _ in range(draw(st.integers(0, 4))):
        row.append(math.ldexp(draw(st.sampled_from([-1.0, 1.0, -1.5, 1.5])) * ulp,
                              -draw(st.integers(1, 40) | st.integers(50, 110))))
    for _ in range(draw(st.integers(0, 2))):
        big = math.ldexp(draw(st.floats(1, 2)), exponent + draw(st.integers(0, 60)))
        row += [big, -big]
    sign = draw(st.sampled_from([1.0, -1.0]))
    return draw(st.permutations([sign * x for x in row]))


def _outcome(total, row):
    """repr of the sum (so the sign of zero counts), or the exception type."""
    try:
        return repr(total(row))
    except (OverflowError, ValueError) as exc:
        return type(exc)


@st.composite
def hard_scoring_cases(draw):
    """A count tensor and 1 to 4 beta rows drawn from hard_rows' terms.

    Row 0 visits the cells of one hard row once each, so its terms are
    that row itself; the others visit cells at random, some none at all,
    with counts up to the dtype's largest. Infinite and NaN betas fall in
    visited and unvisited cells alike.
    """
    k = draw(st.integers(2, 12))
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.int64]))
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    pool = [x for row in draw(st.lists(hard_rows(), min_size=1, max_size=3)) for x in row]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    betas = rng.choice(pool, size=(m, k * k))
    head = draw(hard_rows())[:k * k]
    betas[0, :len(head)] = head
    picks = np.array([0, 0, 0, 1, 1, 2, 3, np.iinfo(dtype).max], dtype=dtype)
    counts = rng.choice(picks, size=(n, k * k))
    counts[rng.random(n) < 0.25] = 0
    counts[0] = 0
    counts[0, :len(head)] = 1
    return counts.reshape(n, k, k), betas


def _fsum_outcomes(counts, betas):
    """_outcome of fsum over each row's visited count * beta terms, (N, M)."""
    flat = counts.reshape(len(counts), -1).tolist()
    return [[_outcome(fsum, [c * b for c, b in zip(row, beta) if c])
             for beta in betas.tolist()] for row in flat]


def _first_raised(outcomes, block):
    """The exception type a scorer meets first: rows go block by block, each
    block one beta row at a time, as _scores takes them."""
    for start in range(0, len(outcomes), block):
        for m in range(len(outcomes[0])):
            for row in outcomes[start:start + block]:
                if isinstance(row[m], type):
                    return row[m]
    return None


# One row whose terms _scores sums in exactly one, two and three extraction
# levels: 1 and 0.5; 1 and 2**-53, a tie that fsum rounds to even (1.0);
# and 1, 2**-53 and 2**-106, which breaks that tie upwards (1 + 2**-52)
ONE_LEVEL, TWO_LEVELS, THREE_LEVELS = (
    (np.array([[[1, 1], [1, 0]]], dtype=np.uint8), np.array([terms + [0.0] * (4 - len(terms))]))
    for terms in ([1.0, 0.5, 0.0], [1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -106]))

# One (1,1) transition scored by two candidates whose scores, 1.7e308 and
# -1e308, are finite but differ by more than DBL_MAX
OVERFLOWING_GAP = (np.array([[[1, 0], [0, 0]]], dtype=np.int64),
                   np.array([[1.7e308, 0.0, 0.0, 0.0], [-1e308, 0.0, 0.0, 0.0]]))


class TestHardBetas:
    """score_counts and classify_counts against math.fsum of the visited
    terms, on betas from subnormal to near overflow, half-ulp ties, signed
    zeros, infinities and NaN. A product that overflows to inf warns
    nothing, as Python's does not, and neither does classify_counts' tie
    check, on infinite scores or on finite ones whose difference overflows."""

    @settings(max_examples=300, deadline=None)
    @given(hard_scoring_cases())
    @example(OVERFLOWING_GAP)
    @example(ONE_LEVEL)
    @example(TWO_LEVELS)
    @example(THREE_LEVELS)
    def test_equals_fsum_of_visited_terms(self, case):
        counts, betas = case
        expected = _fsum_outcomes(counts, betas)
        lrs = {f"m{i}": SimpleNamespace(values=beta.reshape(counts.shape[1:]), epsilon_policy=())
               for i, beta in enumerate(betas)}
        runs = [  # (expected outcomes, scores as an (N, M) list)
            ([row[:1] for row in expected],
             lambda: rc.score_counts(counts, lrs["m0"].values)[:, None].tolist()),
            (expected,
             lambda: rc.classify_counts(counts, [f"p{i}" for i in range(len(counts))],
                                        [(name, None) for name in lrs], None).scores.tolist()),
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scoring, "SCORE_BLOCK_ROWS", 3)
            patch.setattr(scoring, "log_likelihood_matrix",
                          lambda num, den, floor, numerator_name, **_: lrs[numerator_name])
            for want, scores in runs:
                raised = _first_raised(want, 3)
                if raised is None:
                    assert [list(map(repr, row)) for row in scores()] == want
                else:
                    with pytest.raises(raised):
                        scores()

    def test_equal_infinite_top_scores_tie(self, monkeypatch):
        """Two candidates scoring +inf on every row tie there, and inf - inf
        in the tie check warns nothing."""
        lr = SimpleNamespace(values=np.full((2, 2), np.inf), epsilon_policy=())
        monkeypatch.setattr(scoring, "log_likelihood_matrix", lambda *_, **__: lr)
        verdicts = rc.classify_counts(np.ones((3, 2, 2), np.int64), ["a", "b", "c"],
                                      [("m0", None), ("m1", None)], None)
        assert verdicts.scores.tolist() == [[np.inf, np.inf]] * 3
        assert verdicts.tie_mask.tolist() == [True] * 3
        assert verdicts.choice.tolist() == [0] * 3

    def test_overflowing_gap_is_no_tie(self, monkeypatch):
        """top - second overflows to inf, which warns nothing and is no tie."""
        counts, betas = OVERFLOWING_GAP
        lrs = {f"m{i}": SimpleNamespace(values=beta.reshape(2, 2), epsilon_policy=())
               for i, beta in enumerate(betas)}
        monkeypatch.setattr(scoring, "log_likelihood_matrix",
                            lambda num, den, floor, numerator_name, **_: lrs[numerator_name])
        verdicts = rc.classify_counts(counts, ["a"], [(name, None) for name in lrs], None)
        assert verdicts.scores.tolist() == [[1.7e308, -1e308]]
        assert verdicts.tie_mask.tolist() == [False]
        assert verdicts.choice.tolist() == [0]


class TestFallbackAndMemory:
    @pytest.fixture
    def fsum_calls(self, monkeypatch):
        calls = []

        def counted(terms):
            calls.append(list(terms))
            return fsum(terms)

        monkeypatch.setattr(scoring, "fsum", counted)
        return calls

    def test_certified_rows_never_call_fsum(self, fsum_calls, ocd_matrix):
        """Rows of at most two extraction levels are rounded by one add.
        Sending them to fsum would still give fsum's bits, so only this
        count shows the one add is taken."""
        registry = rc.builtin_models(rc.StateSpace(5))
        candidates = [(n, registry[n]) for n in ("symmetric", "skewed+", "skewed-")]
        cohort = rc.generate_cohort(
            rc.SimulationSpec(registry["DWM"], length=6, count=300, seed=4),
            id_prefix="dwm") + rc.generate_cohort(
            rc.SimulationSpec(ocd_matrix, length=5, count=300, seed=5),
            id_prefix="ocd")
        rc.classify_multimodel(cohort, candidates, registry["MEM"])
        assert fsum_calls == []

    def test_an_uncertified_row_calls_fsum_once(self, fsum_calls):
        """A row with a third extraction level goes to fsum once, with its
        level sums; a row with a huge or infinite term, once, with its terms,
        so fsum raises what it raises."""
        ones = np.ones((1, 2, 2), dtype=np.int64)
        below = np.reshape(BELOW_POWER_ROW, (2, 2))
        assert rc.score_counts(ones, below).tolist() == [1 - 2.0 ** -53]
        assert fsum_calls == [[1.0, -2.0 ** -54, -2.0 ** -120]]
        fsum_calls.clear()
        with pytest.raises(OverflowError):
            rc.score_counts(ones, np.reshape(OVERFLOW_ROW + [0.0], (2, 2)))
        assert fsum_calls == [OVERFLOW_ROW + [0.0]]
        fsum_calls.clear()
        with pytest.raises(ValueError):
            rc.score_counts(ones, np.reshape([math.inf, 1.0, -math.inf, 0.0], (2, 2)))
        assert fsum_calls == [[math.inf, 1.0, -math.inf, 0.0]]

    def test_fsum_row_by_row(self, fsum_calls, monkeypatch):
        """Over blocks that mix rows of one, two and three extraction
        levels, wild rows and an empty row, each score has fsum's bits, and
        fsum is called once per three-level row, with its level sums, and
        once per wild row, with its terms in cell order: never for the rest."""
        monkeypatch.setattr(scoring, "SCORE_BLOCK_ROWS", 3)
        # unvisited, the -inf beta adds nothing
        betas = [1.0, 2.0 ** -53, 2.0 ** -106, math.log2(1.25), 2.0, -2.0, math.inf,
                 0.5, -math.inf]
        one, two = {0: 1}, {0: 1, 1: 1}
        # level sums 1.5, 2**-53, 2**-106: the third breaks a tie upwards
        three = {0: 1, 1: 1, 2: 1, 7: 1}
        tie = {0: 1, 3: 2, 4: 1, 5: 1}  # TIE_ROW's terms, in two levels
        wild, wild_too = {0: 1, 6: 1}, {1: 1, 4: 1, 6: 1}
        rows = [one, two, three, wild, tie, {}, three, {0: 1, 7: 1}, wild_too, two, tie]
        counts = np.zeros((len(rows), 9), dtype=np.uint8)
        for n, row in enumerate(rows):
            counts[n, list(row)] = list(row.values())
        scores = rc.score_counts(counts.reshape(-1, 3, 3), np.reshape(betas, (3, 3)))
        visited = [[c * betas[i] for i, c in sorted(row.items())] for row in rows]
        assert list(map(repr, scores.tolist())) == [repr(fsum(terms)) for terms in visited]
        assert scores[4] == fsum(TIE_ROW) != sum(TIE_ROW)
        assert sorted(fsum_calls, key=repr) == sorted(
            [[1.5, 2.0 ** -53, 2.0 ** -106]] * 2 + [visited[3], visited[8]], key=repr)

    def test_classify_counts_works_in_blocks(self):
        """All candidates of a block are summed at once, never the whole
        (N, M, K*K) term array: that alone would be 22.9 MiB here."""
        rng = np.random.default_rng(8)
        counts = rng.multinomial(15, np.full(25, 1 / 25), size=40_000).reshape(-1, 5, 5)
        ids = [f"p{i}" for i in range(len(counts))]
        registry = rc.builtin_models(rc.StateSpace(5))
        candidates = [(n, registry[n]) for n in ("symmetric", "skewed+", "skewed-")]
        peak = traced_peak(lambda: rc.classify_counts(counts, ids, candidates,
                                                      registry["MEM"]))
        assert peak <= 6 * 2 ** 20


def reference_verdict(seq, candidates, reference, reference_name="MEM"):
    """The per-sequence multi-model rule the batch classifier replaced."""
    scores = {}
    for name, matrix in candidates:
        lr = rc.log_likelihood_matrix(matrix, reference)
        scores[name] = reference_score(seq.states, lr.values)
    values = list(scores.values())
    if all(v < 0 for v in values):
        return rc.MultiModelVerdict(seq.participant_id, scores, reference_name, False)
    assigned = list(scores)[values.index(max(values))]
    runners = sorted(values, reverse=True)
    tie = len(runners) > 1 and (runners[0] == runners[1]
                                or runners[0] - runners[1] <= rc.scoring.TIE_TOLERANCE)
    return rc.MultiModelVerdict(seq.participant_id, scores, assigned, tie)


class TestClassifyMultimodelBatch:
    @pytest.mark.parametrize("names", [("symmetric", "skewed+", "skewed-"),
                                       ("DWM", "symmetric"), ("skewed+",)])
    def test_matches_per_sequence_rule(self, names, ocd_matrix):
        space = rc.StateSpace(5)
        registry = rc.builtin_models(space)
        candidates = [(n, registry[n]) for n in names]
        cohort = rc.generate_cohort(
            rc.SimulationSpec(registry["DWM"], length=6, count=300, seed=4),
            id_prefix="dwm") + rc.generate_cohort(
            rc.SimulationSpec(ocd_matrix, length=5, count=300, seed=5),
            id_prefix="ocd")
        batch = rc.classify_multimodel(cohort, candidates, registry["MEM"])
        expected = [reference_verdict(s, candidates, registry["MEM"]) for s in cohort]
        assert batch == expected
        assert {v.assigned_model for v in batch} > {"MEM"}
        assert any(v.tie for v in batch) == (len(names) == 3)
        assert [rc.classify_multimodel(s, candidates, registry["MEM"])
                for s in cohort[:20]] == expected[:20]

    def test_counts_entry_matches_list_form(self, ocd_matrix):
        space = rc.StateSpace(5)
        registry = rc.builtin_models(space)
        candidates = [("DWM", registry["DWM"]), ("ocd", ocd_matrix)]
        cohort = rc.generate_cohort(
            rc.SimulationSpec(ocd_matrix, length=8, count=200, seed=9), id_prefix="c")
        ids = [s.participant_id for s in cohort]
        verdicts = rc.classify_counts(rc.count_tensor(cohort, space), ids,
                                      candidates, registry["MEM"], "flat")
        assert verdicts == rc.classify_multimodel(cohort, candidates,
                                                  registry["MEM"], "flat")
        with pytest.raises(rc.ValidationError, match="199 participant ids for 200"):
            rc.classify_counts(rc.count_tensor(cohort, space), ids[1:],
                               candidates, registry["MEM"])

    def test_compact_tensor_classifies_like_its_int64_copy(self):
        space = rc.StateSpace(5)
        registry = rc.builtin_models(space)
        candidates = [(n, registry[n]) for n in ("symmetric", "skewed+", "skewed-")]
        rng = np.random.default_rng(12)
        rows = [rng.integers(1, 6, size=n).tolist() for n in rng.integers(2, 300, size=200)]
        tensor = rc.count_tensor(_sequences(rows), space)
        assert tensor.dtype == np.uint16
        ids = [f"p{i}" for i in range(len(rows))]
        for cutoff in (0.0, 0.5):
            compact, wide = (rc.classify_counts(counts, ids, candidates, registry["MEM"],
                                                cutoff=cutoff)
                             for counts in (tensor, tensor.astype(np.int64)))
            assert compact.scores.tobytes() == wide.scores.tobytes()
            assert compact.choice.tolist() == wide.choice.tolist()
            assert compact.tie_mask.tolist() == wide.tie_mask.tolist()

    def test_verdict_columns_are_a_sequence_of_verdicts(self, ocd_matrix):
        space = rc.StateSpace(5)
        registry = rc.builtin_models(space)
        candidates = [("DWM", registry["DWM"]), ("ocd", ocd_matrix)]
        cohort = rc.generate_cohort(
            rc.SimulationSpec(ocd_matrix, length=8, count=50, seed=3), id_prefix="c")
        ids = [s.participant_id for s in cohort]
        columns = rc.classify_counts(rc.count_tensor(cohort, space), ids,
                                     candidates, registry["MEM"])
        verdicts = [reference_verdict(s, candidates, registry["MEM"]) for s in cohort]
        assert isinstance(columns, rc.VerdictColumns)
        assert columns.scores.shape == (50, 2) and columns.names == ["DWM", "ocd"]
        assert columns.assigned == [v.assigned_model for v in verdicts]
        assert columns.tie == [v.tie for v in verdicts]
        assert len(columns) == 50 and list(columns) == verdicts
        assert columns[-1] == verdicts[-1] and columns[10:3:-2] == verdicts[10:3:-2]
        assert columns != verdicts[:-1] and columns != "not verdicts"

    def test_choice_and_tie_mask_are_arrays(self, ocd_matrix):
        space = rc.StateSpace(5)
        registry = rc.builtin_models(space)
        candidates = [("DWM", registry["DWM"]), ("ocd", ocd_matrix)]
        cohort = rc.generate_cohort(
            rc.SimulationSpec(ocd_matrix, length=8, count=60, seed=4), id_prefix="c")
        columns = rc.classify_counts(rc.count_tensor(cohort, space),
                                     [s.participant_id for s in cohort],
                                     candidates, registry["MEM"], "flat")
        assert columns.choice.dtype == np.intp and columns.tie_mask.dtype == bool
        assert columns.labels == ["DWM", "ocd", "flat"]
        assert columns.assigned == [columns.labels[c] for c in columns.choice.tolist()]
        assert columns.tie == columns.tie_mask.tolist()

    def test_cutoff_sends_a_row_to_the_reference_only_below_it(self, ocd_matrix):
        space = rc.StateSpace(5)
        registry = rc.builtin_models(space)
        candidates = [("DWM", registry["DWM"]), ("ocd", ocd_matrix)]
        cohort = rc.generate_cohort(
            rc.SimulationSpec(ocd_matrix, length=8, count=80, seed=6), id_prefix="c")
        counts, ids = rc.count_tensor(cohort, space), [s.participant_id for s in cohort]
        default = rc.classify_counts(counts, ids, candidates, registry["MEM"])
        assert rc.classify_counts(counts, ids, candidates, registry["MEM"],
                                  cutoff=0.0) == default
        top = default.scores.max(axis=1)
        # the cutoff is one row's exact best score, so that row sits on it
        positive = np.sort(top[top > 0])
        cutoff = float(positive[len(positive) // 2])
        columns = rc.classify_counts(counts, ids, candidates, registry["MEM"],
                                     cutoff=cutoff)
        reject = columns.choice == len(candidates)
        assert reject.tolist() == (columns.scores < cutoff).all(axis=1).tolist()
        assert (top == cutoff).any() and not reject[top == cutoff].any()
        assert 0 < reject.sum() < len(cohort) and reject.sum() > (default.choice == 2).sum()
        kept = ~reject
        assert columns.choice[kept].tolist() == default.choice[kept].tolist()
        assert not columns.tie_mask[reject].any()

    @pytest.mark.parametrize("cutoff", [float("nan"), True])
    def test_cutoff_must_be_a_finite_number(self, space, cutoff):
        registry = rc.builtin_models(space)
        with pytest.raises(rc.ValidationError, match="cutoff"):
            rc.classify_counts(np.zeros((1, 5, 5), dtype=np.int64), ["p"],
                               [("DWM", registry["DWM"])], registry["MEM"],
                               cutoff=cutoff)

    def test_empty_list_gets_no_verdicts(self, space):
        registry = rc.builtin_models(space)
        assert rc.classify_multimodel([], [("DWM", registry["DWM"])],
                                      registry["MEM"]) == []


# --- digest guard ---------------------------------------------------------

PAIR = ["--numerator", "group:ocd", "--denominator", "group:adhd"]
DIGEST_RUNS = {
    "score_breakdown": ["score", *PAIR, "--breakdown"],
    "classify_binary": ["classify", *PAIR],
    "classify_multi": ["classify", "--models",
                       "model:symmetric,model:skewed+,model:skewed-",
                       "--reference", "model:MEM"],
    "diagnose": ["diagnose", *PAIR, "--with-sum-score"],
    "estimate_per_participant": ["estimate", "--per-participant"],
    "compare": ["compare", "--focal", "ocd", "--reference", "adhd"],
}


@pytest.fixture(scope="module")
def digest_cohort(tmp_path_factory, ocd_matrix, adhd_matrix):
    """2,000 seeded rows in two groups, 16 responses and a shorter tail each."""
    rows = []
    for group, matrix, seed in (("ocd", ocd_matrix, 31), ("adhd", adhd_matrix, 32)):
        for length, count in ((16, 600), (5, 400)):
            spec = rc.SimulationSpec(matrix, length=length, count=count,
                                     seed=seed * 100 + length)
            rows.extend(rc.generate_cohort(spec, group=group,
                                           id_prefix=f"{group}{length}-"))
    path = tmp_path_factory.mktemp("digest") / "cohort.csv"
    rc.write_cohort(rows, rc.StateSpace(5), path)
    return str(path)


class TestDigestGuard:
    """Report payloads pinned byte for byte.

    The digests were taken from the per-row scoring path (one count and
    one score call per participant and model) before the batch path
    replaced it. The input path is dropped from the payload before
    hashing; the input's SHA-256 stays in.
    """

    @pytest.mark.parametrize("name", sorted(DIGEST_RUNS))
    def test_payload(self, name, digest_cohort, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(DIGEST_RUNS[name] + ["--input", digest_cohort,
                                         "--output", str(out)])
        assert code == 0, capsys.readouterr().err
        payload = json.loads(out.read_text(encoding="utf-8"))["payload"]
        del payload["provenance"]["input"]
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        assert hashlib.sha256(text.encode()).hexdigest() == PAYLOAD_DIGESTS[name]


PAYLOAD_DIGESTS = {
    "classify_binary":
        "c821c157dceb693a50eba0c3742faeade549cf9273f7a0073e33291295b2ae2e",
    "classify_multi":
        "aae2adac867fc5c2aec4cac880374d51a8de75fd10e9560b9fd6d8a7e3cef0af",
    "compare":
        "b2aa0a0ff567b6e5dd19710508f8c574ef69c9a61425910a346ac42b6dad64be",
    "diagnose":
        "dd2ddc82df988a8a1bca5c6157eed0331f07ea468203948946cef95c6f55cb08",
    "estimate_per_participant":
        "bd98dcf80d07ce312f403bad78c6ca50896a9544b3f7b6a1a38fdd1b1113cb07",
    "score_breakdown":
        "8ae8e26dff966f9ca06ba468760177719c7b0fe07e2e81c651f748678fe67123",
}


class TestRocExportDigests:
    """diagnose's --roc-csv and --svg files pinned byte for byte, with the
    score and sum-score curves, as the per-point writers wrote them."""

    def test_exports(self, digest_cohort, tmp_path, capsys):
        csv_path, svg_path = tmp_path / "roc.csv", tmp_path / "roc.svg"
        code = main(DIGEST_RUNS["diagnose"] + [
            "--input", digest_cohort, "--output", str(tmp_path / "report.json"),
            "--roc-csv", str(csv_path), "--svg", str(svg_path)])
        assert code == 0, capsys.readouterr().err
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
            "ae4ebba60199dd3f9f420aa464f04149552d634c13cd6d4f25567880d560eb2c"
        assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == \
            "3f63d1d26290336d81cd8aec1298f8eca94ccee623a8d6e70477c495e806d83e"
