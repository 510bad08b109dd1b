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

from dataclasses import dataclass
from math import fsum

import numpy as np

from . import _kernels
from .chain import StateSpace, _readonly, _require_fully_defined, count_transitions
from .errors import ValidationError

TIE_TOLERANCE = 1e-12


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
    if epsilon_floor < 0:
        raise ValidationError(f"epsilon_floor must be >= 0, got {epsilon_floor}")
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


def score_sequence(sequence, lr):
    """Score a sequence: sum of log2 ratios over its adjacent transitions.

    Computed in the count-weighted form (count times beta per distinct
    transition), which is also the breakdown reported. Transitions the
    sequence never makes contribute nothing, however extreme their beta.
    """
    counts = count_transitions(sequence, StateSpace(lr.size)).counts
    terms = []
    for i, j in np.argwhere(counts > 0):
        c = int(counts[i, j])
        terms.append((int(i) + 1, int(j) + 1, c, c * float(lr.values[i, j])))
    score = fsum(t[3] for t in terms)
    return SequenceScore(sequence.participant_id, score, tuple(terms),
                         lr.numerator_name, lr.denominator_name)


def score_value(states, lr_values):
    """Bare score of a 1-based state array against a beta matrix.

    The fast path for bulk scoring: no dataclass wrapping, no breakdown.
    """
    states = np.asarray(states, dtype=np.int64)
    k = lr_values.shape[0]
    if states.size and (states.min() < 1 or states.max() > k):
        raise ValidationError(f"states must lie in 1..{k}")
    return float(np.sum(_kernels.pair_counts(states, k) * lr_values))


def classify_binary(score, cutoff=0.0):
    """Assign the numerator label at or above the cutoff, else the denominator."""
    if score.score >= cutoff:
        return score.numerator_name
    return score.denominator_name


def classify_multimodel(sequence, candidates, reference, reference_name="MEM",
                        epsilon_floor=0.01):
    """Score a sequence against each candidate model over a shared reference.

    Each candidate is scored as numerator against the reference. If every
    score is negative the sequence is assigned to the reference model;
    otherwise to the candidate with the highest score, first in the given
    order on an exact tie (tie flag set when the top two scores are within
    1e-12).
    """
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
    scores = {}
    for name, matrix in candidates:
        lr = log_likelihood_matrix(matrix, reference, epsilon_floor,
                                   numerator_name=name,
                                   denominator_name=reference_name)
        scores[name] = score_sequence(sequence, lr).score
    values = list(scores.values())
    if all(v < 0 for v in values):
        return MultiModelVerdict(sequence.participant_id, scores,
                                 reference_name, False)
    best = max(values)
    assigned = names[values.index(best)]
    runners = sorted(values, reverse=True)
    tie = len(runners) > 1 and (runners[0] - runners[1]) <= TIE_TOLERANCE
    return MultiModelVerdict(sequence.participant_id, scores, assigned, tie)
