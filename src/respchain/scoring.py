"""Log2 likelihood-ratio scoring of response sequences.

Two transition models are compared cell by cell: the ratio matrix divides
their probabilities, the log2 transform turns products into sums, and a
sequence's score is the sum of the log ratios along its transitions.
Positive scores favour the numerator model, negative the denominator, and
zero is the cut-off (counted with the numerator, matching the ">= 0"
orientation used everywhere in this package).

Zero cells would make the log transform blow up, so both matrices get the
same epsilon floor before dividing; every substitution is recorded on the
resulting LogRatioMatrix so no floored cell passes silently.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from math import frexp, fsum, ldexp

import numpy as np

from . import _kernels
from .chain import (
    ResponseSequence,
    StateSpace,
    _number,
    _readonly,
    _require_fully_defined,
    _whole_numbers,
    count_tensor,
)
from .errors import ValidationError

TIE_TOLERANCE = 1e-12

# Rows scored at a time; bounds each block's visited-cell term arrays, at
# most rows x K^2 long, made for one model at a time.
SCORE_BLOCK_ROWS = 4096

# A row with a term larger than this goes to fsum: no level's sigma, and no
# partial sum of up to 2**60 smaller terms, anywhere, can overflow.
_HUGE = 2.0 ** 960


@dataclass(frozen=True)
class FloorRecord:
    """One zero cell replaced by the epsilon floor before the ratio."""

    side: str  # "numerator" or "denominator"
    from_state: int
    to_state: int
    floor: float


@dataclass(frozen=True)
class LogRatioMatrix:
    """Element-wise log2 of numerator/denominator transition probabilities."""

    values: np.ndarray
    numerator_name: str
    denominator_name: str
    epsilon_policy: tuple = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"values must be square, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValidationError("log-ratio values must be finite everywhere")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "epsilon_policy", tuple(self.epsilon_policy))

    @property
    def size(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class SequenceScore:
    """A sequence's total score plus its count-weighted breakdown.

    per_transition_terms holds (from_state, to_state, count, contribution)
    for every transition the sequence actually contains; the score is
    exactly the sum of the contributions. The model names ride along so a
    verdict can be phrased without re-supplying the matrix.
    """

    participant_id: str
    score: float
    per_transition_terms: tuple
    numerator_name: str
    denominator_name: str


@dataclass(frozen=True)
class MultiModelVerdict:
    """Outcome of scoring one sequence against several candidate models."""

    participant_id: str
    scores: dict
    assigned_model: str
    tie: bool


@dataclass(frozen=True, eq=False)
class VerdictColumns(Sequence):
    """Multi-model verdicts of many sequences, held as columns.

    scores is the (N, M) score matrix, one column per name in `names`.
    choice is the intp index of each row's model in labels (the names,
    then the reference's) and tie_mask its bool tie flag; assigned and tie
    read them as lists. Indexing and iteration give MultiModelVerdicts, and
    it equals any sequence of the same verdicts.
    """

    participant_ids: list
    names: list
    scores: np.ndarray
    reference_name: str
    choice: np.ndarray
    tie_mask: np.ndarray

    @property
    def labels(self):
        return [*self.names, self.reference_name]

    @property
    def assigned(self):
        return list(map(self.labels.__getitem__, self.choice.tolist()))

    @property
    def tie(self):
        return self.tie_mask.tolist()

    def __len__(self):
        return len(self.choice)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return MultiModelVerdict(self.participant_ids[index],
                                 dict(zip(self.names, self.scores[index].tolist())),
                                 self.labels[self.choice[index]],
                                 bool(self.tie_mask[index]))

    def __eq__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented


def _floor_zeros(matrix, side, epsilon_floor):
    probs = matrix.probs.copy()
    zeros = probs == 0.0
    probs[zeros] = epsilon_floor
    records = [FloorRecord(side, int(i) + 1, int(j) + 1, float(epsilon_floor))
               for i, j in np.argwhere(zeros)]
    return probs, records


def _floored_pair(num, den, epsilon_floor):
    """Check a numerator/denominator pair and floor the zero cells of both.

    Returns the two floored probability arrays and the floor records.
    """
    _number(epsilon_floor, "epsilon_floor")
    if num.size != den.size:
        raise ValidationError(
            f"matrices disagree on state count: {num.size} vs {den.size}"
        )
    _require_fully_defined(num, "the numerator matrix of a ratio")
    _require_fully_defined(den, "the denominator matrix of a ratio")
    p_num, rec_num = _floor_zeros(num, "numerator", epsilon_floor)
    p_den, rec_den = _floor_zeros(den, "denominator", epsilon_floor)
    if (p_den == 0.0).any():
        i, j = np.argwhere(p_den == 0.0)[0]
        raise ValidationError(
            f"denominator cell ({i + 1},{j + 1}) is zero and epsilon_floor is 0; "
            f"cannot divide"
        )
    return p_num, p_den, tuple(rec_num + rec_den)


def ratio_matrix(num, den, epsilon_floor=0.01):
    """Element-wise quotient of two transition matrices.

    Zero cells on either side are floored to epsilon_floor first, the same
    treatment the theoretical walk model applies to unreachable jumps.
    With epsilon_floor == 0 a zero denominator cell cannot be divided and
    is an error.
    """
    p_num, p_den, _ = _floored_pair(num, den, epsilon_floor)
    return p_num / p_den


def log2_matrix(ratios, numerator_name="numerator", denominator_name="denominator",
                epsilon_policy=()):
    """Element-wise log2 of a ratio matrix, packaged with its model names."""
    ratios = np.asarray(ratios, dtype=np.float64)
    if (ratios <= 0).any():
        i, j = np.argwhere(ratios <= 0)[0]
        raise ValidationError(
            f"ratio cell ({i + 1},{j + 1}) = {ratios[i, j]:g} is not positive; "
            f"log2 needs strictly positive ratios (was flooring skipped?)"
        )
    return LogRatioMatrix(np.log2(ratios), numerator_name, denominator_name,
                          epsilon_policy)


def log_likelihood_matrix(num, den, epsilon_floor=0.01,
                          numerator_name="numerator",
                          denominator_name="denominator"):
    """ratio_matrix and log2_matrix in one step, with floor records kept."""
    p_num, p_den, records = _floored_pair(num, den, epsilon_floor)
    return log2_matrix(p_num / p_den, numerator_name, denominator_name, records)


def _fitted(counts, values):
    """counts as an (N, K, K) array and values as the K x K float64 beta
    matrix they are scored against; a ValidationError if the shapes differ."""
    counts = np.asarray(counts)
    values = np.asarray(values, dtype=np.float64)
    if counts.ndim != 3 or values.ndim != 2 or counts.shape[1:] != values.shape:
        raise ValidationError(
            f"counts of shape {counts.shape} do not fit a beta matrix of "
            f"shape {values.shape}"
        )
    return counts, values


def _two_sum(a, b):
    """fl(a + b) and its error: a + b == s + e exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _column_fsums(terms):
    """math.fsum of each column of a (J, R) float64 array, bit for bit.

    The columns are summed in lockstep, row by row, with two levels of
    error-free transforms (Ogita, Rump and Oishi, "Accurate sum and dot
    product", 2005): s, e = TwoSum(s, t), then tau, e2 = TwoSum(tau, e),
    adding |e2| into mag, and at the end r, rho = TwoSum(s, tau). So a
    column's exact sum is r + rho + E with |E| <= sum |e2|, and the
    recursive sum mag times 1 + 2*J*2**-53 bounds sum |e2| from above.

    fsum returns the exact sum rounded to nearest, ties to even. When
    mag == 0 the exact sum is s + tau and r = fl(s + tau) is that rounding.
    Otherwise r is it when |rho| + |E| is under half the gap from r to
    either neighbour, gap = spacing(|r|), halved below a power of two. That
    test is made in floating point, but its right side is a power of two,
    so a rounded left side below it means the exact one is too. A certified
    zero is written +0.0, as fsum writes it. Columns with a non-finite or
    huge term, and columns that fail the test, go to fsum itself in their
    given order, so overflow and inf - inf raise as fsum raises.
    """
    j, n = terms.shape
    bad = ~((terms.max(axis=0) <= _HUGE) & (terms.min(axis=0) >= -_HUGE))
    safe = np.where(bad, 0.0, terms) if bad.any() else terms
    s, tau, mag = safe[0], np.zeros(n), np.zeros(n)
    for t in safe[1:]:
        s, e = _two_sum(s, t)
        tau, e2 = _two_sum(tau, e)
        mag += np.abs(e2)
    r, rho = _two_sum(s, tau)
    # underflow is harmless: a half gap under the least subnormal rounds to
    # 0 and fails the test, and a subnormal mag is an exact sum
    with np.errstate(under="ignore"):
        a = np.abs(r)
        half_gap = np.spacing(a) * np.where(np.frexp(a)[0] == 0.5, 0.25, 0.5)
        ok = ~bad & ((mag == 0) | (np.abs(rho) + mag * (1 + 2 * j * 2.0 ** -53)
                                   < half_gap))
    out = r + 0.0
    for i in np.flatnonzero(~ok).tolist():
        out[i] = fsum(terms[:, i].tolist())
    return out


def _scores(counts, betas):
    """(N, M) scores of an (N, K, K) count tensor against (M, K*K) beta rows.

    Score (n, m) is math.fsum of counts[n] * betas[m] over the cells row n
    visits; only those terms are made, a block of SCORE_BLOCK_ROWS rows and
    one beta row at a time. A row with a non-finite or huge term goes to
    fsum, its terms in cell order. The other terms r are summed exactly by
    extraction levels (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008):
    for a power of two sigma >= (K*K + 2) * max |r|, q = (sigma + r) - sigma
    and r - q are exact, and so is any sum of up to K*K of the q, so one
    bincount gives a level's row sums. Each level takes 52 - ceil(log2(K*K +
    2)) bits or more off every r. _column_fsums rounds each row's few level
    sums as fsum rounds their exact total.
    """
    n, (m, cells) = counts.shape[0], betas.shape
    flat = counts.reshape(n, cells)
    spread = 2.0 ** (cells + 1).bit_length()  # the least power of two >= K*K + 2
    out = np.empty((n, m))
    for start in range(0, n, SCORE_BLOCK_ROWS):
        block = flat[start:start + SCORE_BLOCK_ROWS]
        b = len(block)
        visited = np.flatnonzero(block != 0)
        rows = visited // cells
        cell = visited - rows * cells
        weights = block.ravel()[visited].astype(np.float64)
        for model in range(m):
            with np.errstate(over="ignore"):  # an overflowing product is fsum's to answer
                terms = weights * betas[model].take(cell)
            r, wild = terms, ()  # r goes in place: terms is read again only if wild
            top = np.abs(r).max(initial=0.0)
            if not top <= _HUGE:  # a huge or non-finite (NaN too) term's row
                wild = np.unique(rows[~(np.abs(terms) <= _HUGE)])
                r = np.where(np.isin(rows, wild), 0.0, terms)
                top = np.abs(r).max()
            levels = []
            while top:
                sigma = ldexp(spread, frexp(top)[1])
                q = (sigma + r) - sigma
                r -= q
                levels.append(np.bincount(rows, weights=q, minlength=b))
                top = np.abs(r).max()
            sums = _column_fsums(np.array(levels)) if levels else np.zeros(b)
            for row in wild:
                sums[row] = fsum(terms[rows == row].tolist())
            out[start:start + b, model] = sums
    return out


def score_counts(counts, values):
    """Scores of many sequences from their (N, K, K) transition counts.

    values is the K x K beta matrix, e.g. LogRatioMatrix.values. Row n's
    score is exactly math.fsum of count * beta over the cells that row
    visits, the number score_sequence gives for that sequence: the visited
    cells' terms summed exactly by extraction levels, then rounded as fsum
    rounds (see _scores). Cells never visited add nothing, however extreme
    (even infinite) their beta.
    """
    counts, values = _fitted(counts, values)
    return _scores(counts, values.reshape(1, -1))[:, 0]


def score_terms(counts, values):
    """Per-row score breakdowns of an (N, K, K) count tensor.

    Row n gets a tuple of (from_state, to_state, count, contribution), one
    per visited cell in row-major order; the contributions are count *
    beta and fsum to score_counts' score for that row.
    """
    counts, values = _fitted(counts, values)
    rows, i, j = np.nonzero(counts)
    c = counts[rows, i, j]
    terms = list(zip((i + 1).tolist(), (j + 1).tolist(), c.tolist(),
                     (c * values[i, j]).tolist()))
    bounds = np.searchsorted(rows, np.arange(counts.shape[0] + 1)).tolist()
    return [tuple(terms[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def score_sequence(sequence, lr):
    """Score a sequence: sum of log2 ratios over its adjacent transitions.

    Computed in the count-weighted form (count times beta per distinct
    transition), which is also the breakdown reported. Transitions the
    sequence never makes contribute nothing, however extreme their beta.
    The one-sequence view of score_counts and score_terms.
    """
    counts = count_tensor([sequence], StateSpace(lr.size))
    return SequenceScore(sequence.participant_id,
                         float(score_counts(counts, lr.values)[0]),
                         score_terms(counts, lr.values)[0],
                         lr.numerator_name, lr.denominator_name)


def score_value(states, lr_values):
    """Bare score of a 1-based state array against a beta matrix.

    No dataclass wrapping, no breakdown; the same number score_sequence
    gives. Fewer than two states score 0.
    """
    states = _whole_numbers(states, "states")
    lr_values = np.asarray(lr_values, dtype=np.float64)
    if states.ndim != 1:
        raise ValidationError(f"states must be a 1-d sequence, got shape {states.shape}")
    if lr_values.ndim != 2 or lr_values.shape[0] != lr_values.shape[1]:
        raise ValidationError(
            f"states do not fit a beta matrix of shape {lr_values.shape}: it must be square")
    k = lr_values.shape[0]
    if states.size and (states.min() < 1 or states.max() > k):
        raise ValidationError(f"states must lie in 1..{k}")
    return float(score_counts(_kernels.pair_counts(states, k)[None], lr_values)[0])


def classify_binary(score, cutoff=0.0):
    """Assign the numerator label at or above the cutoff, else the denominator."""
    return score.numerator_name if score.score >= cutoff else score.denominator_name


def classify_multimodel(sequence, candidates, reference, reference_name="MEM",
                        epsilon_floor=0.01):
    """Score sequences against each candidate model over a shared reference.

    sequence is one ResponseSequence, which gets one MultiModelVerdict, or
    a list of them, which gets a list of verdicts in the same order. The
    view of classify_counts that counts the sequences first.
    """
    single = isinstance(sequence, ResponseSequence)
    sequences = [sequence] if single else list(sequence)
    verdicts = classify_counts(
        count_tensor(sequences, StateSpace(reference.size)),
        [s.participant_id for s in sequences], candidates, reference,
        reference_name, epsilon_floor,
    )
    return verdicts[0] if single else list(verdicts)


def classify_counts(counts, participant_ids, candidates, reference,
                    reference_name="MEM", epsilon_floor=0.01, cutoff=0.0):
    """Multi-model verdicts from an (N, K, K) count tensor, as VerdictColumns.

    Each candidate is scored as numerator against the reference. A row
    with every score below the cutoff goes to the reference model, else to
    the candidate with the highest score, first in the given order on an
    exact tie (tie flag set when the top two scores are equal, two
    infinities included, or within 1e-12); one candidate gives
    classify_binary's rule. participant_ids names the tensor's rows; each
    candidate's log-ratio matrix is built once.
    """
    _number(cutoff, "cutoff", signed=True)
    candidates = list(candidates)
    if not candidates:
        raise ValidationError("need at least one candidate model")
    names = [name for name, _ in candidates]
    if len(set(names)) != len(names):
        raise ValidationError("candidate model names must be distinct")
    if reference_name in names:
        raise ValidationError(
            f"reference name {reference_name!r} collides with a candidate"
        )
    if len(participant_ids) != len(counts):
        raise ValidationError(
            f"{len(participant_ids)} participant ids for {len(counts)} count tables"
        )
    betas = np.stack([
        log_likelihood_matrix(matrix, reference, epsilon_floor, numerator_name=name,
                              denominator_name=reference_name).values
        for name, matrix in candidates
    ])
    counts, _ = _fitted(counts, betas[0])
    scores = _scores(counts, betas.reshape(len(names), -1))
    reject = (scores < cutoff).all(axis=1)
    # first candidate on an exact tie; a row with every score below the
    # cutoff goes to the reference, never as a tie
    choice = np.where(reject, len(names), scores.argmax(axis=1))
    if len(names) > 1:
        ordered = np.sort(scores, axis=1)
        top, second = ordered[:, -1], ordered[:, -2]
        # inf - inf: equal, caught by ==; a difference over DBL_MAX: inf, no tie
        with np.errstate(invalid="ignore", over="ignore"):
            tie = ((top == second) | (top - second <= TIE_TOLERANCE)) & ~reject
    else:
        tie = np.zeros(len(choice), dtype=bool)
    return VerdictColumns(list(participant_ids), names, scores, reference_name,
                          choice, tie)
