"""First-order Markov chains over ordered response states.

A response sequence is a participant's ordered list of answers on a
K-point scale, coded 1..K. This module turns such sequences into
transition counts, counts into row-stochastic matrices, and matrices into
stationary distributions, with the structural checks (irreducibility,
aperiodicity) that make a stationary claim meaningful.

Rows that were never observed are kept explicitly undefined rather than
silently zero or uniform: ``TransitionMatrix.defined_rows`` records which
rows carry a real distribution, and operations that need the whole matrix
refuse to run until the gaps are closed by pooling or smoothing.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ValidationError

DEFAULT_TOLERANCE = 5e-4
DEFAULT_MAX_POWER = 64

_ROW_SUM_TOL = 1e-9


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class StateSpace:
    """The ordered response scale: states 1..size with display labels."""

    size: int
    labels: tuple = ()

    def __post_init__(self):
        if not isinstance(self.size, (int, np.integer)) or self.size < 2:
            raise ValidationError(f"state space needs at least 2 states, got {self.size!r}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(1, self.size + 1)))
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != self.size:
            raise ValidationError(
                f"{len(labels)} labels for {self.size} states"
            )
        if len(set(labels)) != len(labels):
            raise ValidationError("state labels must be distinct")
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class ResponseSequence:
    """One participant's ordered answers, coded as integers starting at 1.

    The upper bound of the coding is not stored here; operations that need
    it take a StateSpace and reject out-of-range states at that point.
    """

    participant_id: str
    states: np.ndarray
    group: str | None = None

    def __post_init__(self):
        if not self.participant_id:
            raise ValidationError("participant_id must be a non-empty string")
        states = np.asarray(self.states, dtype=np.int64)
        if states.ndim != 1 or states.size == 0:
            raise ValidationError(
                f"states for {self.participant_id!r} must be a non-empty 1-d sequence"
            )
        if states.min() < 1:
            bad = int(np.argmax(states < 1))
            raise ValidationError(
                f"participant {self.participant_id!r}: state {states[bad]} at "
                f"position {bad} is below 1"
            )
        object.__setattr__(self, "states", _readonly(states))

    def __len__(self):
        return int(self.states.size)


@dataclass(frozen=True)
class TransitionCounts:
    """Raw (from, to) pair counts on a K x K grid."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValidationError(f"counts must be square, got shape {counts.shape}")
        if counts.min() < 0:
            raise ValidationError("counts must be nonnegative")
        object.__setattr__(self, "counts", _readonly(counts))

    @property
    def size(self):
        return self.counts.shape[0]

    @property
    def total(self):
        return int(self.counts.sum())

    @property
    def row_totals(self):
        return self.counts.sum(axis=1)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition probabilities with an explicit defined-row mask.

    probs[i, j] is the probability of moving from state i+1 to state j+1.
    Rows where no outgoing transition was ever observed are all zero and
    marked False in defined_rows; they are *missing*, not uniform.
    """

    probs: np.ndarray
    defined_rows: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        defined = np.asarray(self.defined_rows, dtype=bool)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValidationError(f"probs must be square, got shape {probs.shape}")
        if defined.shape != (probs.shape[0],):
            raise ValidationError("defined_rows must have one flag per row")
        if not np.isfinite(probs).all():
            raise ValidationError("transition probabilities must be finite")
        if probs.min() < 0:
            raise ValidationError("transition probabilities must be nonnegative")
        sums = probs.sum(axis=1)
        bad = defined & (np.abs(sums - 1.0) > _ROW_SUM_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                f"row {i + 1} sums to {sums[i]:.12f}, expected 1 within {_ROW_SUM_TOL}"
            )
        if (~defined).any() and probs[~defined].any():
            raise ValidationError("undefined rows must be all zero")
        object.__setattr__(self, "probs", _readonly(probs))
        object.__setattr__(self, "defined_rows", _readonly(defined))

    @classmethod
    def from_rows(cls, rows):
        """Build a matrix from fully specified rows, all marked defined."""
        rows = np.asarray(rows, dtype=np.float64)
        return cls(rows, np.ones(rows.shape[0], dtype=bool))

    @property
    def size(self):
        return self.probs.shape[0]

    @property
    def fully_defined(self):
        return bool(self.defined_rows.all())


@dataclass(frozen=True)
class StationaryResult:
    """Outcome of the power-iteration search for a stationary distribution."""

    distribution: np.ndarray
    power_at_convergence: int
    converged: bool
    tolerance_used: float

    def __post_init__(self):
        object.__setattr__(
            self, "distribution", _readonly(np.asarray(self.distribution, dtype=np.float64))
        )


@dataclass(frozen=True)
class InertiaSummary:
    """How often a sequence stays put: diagonal vs off-diagonal transitions."""

    on_diagonal: int
    off_diagonal: int

    @property
    def total(self):
        return self.on_diagonal + self.off_diagonal

    @property
    def proportion(self):
        return self.on_diagonal / self.total


def _columns(cohort):
    """The participant ids, groups, flat states and lengths of a columnar
    cohort (such as a dataio.CohortDataset) or of a list of ResponseSequence."""
    if hasattr(cohort, "lengths"):
        return cohort.participant_ids, cohort.groups, cohort.states, cohort.lengths
    rows = list(cohort)
    states = np.concatenate([s.states for s in rows]) if rows else np.zeros(0, dtype=np.int64)
    lengths = np.fromiter((s.states.size for s in rows), dtype=np.int64, count=len(rows))
    return [s.participant_id for s in rows], [s.group for s in rows], states, lengths


def _check_states(ids, states, lengths, k):
    """Reject the first of the flat states (a cohort's, or a prefix of them)
    that lies outside 1..k, naming its participant and position."""
    outside = np.flatnonzero((states < 1) | (states > k))
    if outside.size:
        ends = np.cumsum(lengths)
        row = int(np.searchsorted(ends, outside[0], side="right"))
        raise ValidationError(
            f"participant {ids[row]!r}: state {states[outside[0]]} at position "
            f"{outside[0] - (ends[row] - lengths[row])} is outside 1..{k}"
        )


def count_tensor(sequences, space, order=None):
    """Count adjacent (from, to) pairs of many sequences at once.

    sequences is a list of ResponseSequence or a columnar cohort: an
    object with participant_ids, groups, one flat array of 1-based states
    and each sequence's length (lengths), such as a dataio.CohortDataset.
    Returns an (N, K, K) int64 array whose row r is the count table of
    sequence order[r]; order is a permutation of range(N), by default the
    identity.
    One bincount runs over all the states; pairs that would join one
    sequence's last response to the next one's first are left out. Every
    sequence needs at least two responses, and states outside
    1..space.size are rejected; the first offending sequence in input
    order is named, with the position of its bad state.
    """
    ids, _, states, lengths = _columns(sequences)
    n, k = len(lengths), space.size
    if n == 0:
        return np.zeros((0, k, k), dtype=np.int64)
    ends = np.cumsum(lengths)
    short = np.flatnonzero(lengths < 2)
    if short.size:
        row = short[0]
        _check_states(ids, states[:ends[row] - lengths[row]], lengths, k)
        raise ValidationError(
            f"participant {ids[row]!r}: need at least 2 responses "
            f"to count transitions, got {lengths[row]}"
        )
    _check_states(ids, states, lengths, k)
    # code of each pair = row * K*K + (from-1) * K + (to-1), with row the
    # sequence's place in order; the code at a sequence's last response is
    # the spare bin past the end, dropped below
    rows = np.arange(n)
    if order is not None:
        rows[np.asarray(order)] = np.arange(n)
    size = n * k * k
    codes = np.repeat(rows * (k * k) - (k + 1), lengths)
    states = states.astype(np.intp, copy=False)
    codes[:-1] += states[:-1] * k + states[1:]
    codes[ends - 1] = size
    del states
    return np.bincount(codes, minlength=size + 1)[:size].reshape(n, k, k)


def count_transitions(sequence, space):
    """Count adjacent (from, to) pairs of a sequence on a state space.

    The one-sequence view of count_tensor, with the same checks.
    """
    return TransitionCounts(count_tensor([sequence], space)[0])


def normalize_rows(counts, smoothing_alpha=0.0):
    """Turn counts into a row-stochastic TransitionMatrix.

    With smoothing_alpha == 0, rows with no observations become undefined
    rows. A positive alpha is added to every cell first, so every row gets
    a proper distribution.
    """
    if smoothing_alpha < 0:
        raise ValidationError(f"smoothing_alpha must be >= 0, got {smoothing_alpha}")
    return TransitionMatrix(*_row_probabilities(counts.counts, smoothing_alpha))


def _row_probabilities(counts, smoothing_alpha=0.0):
    """The probabilities and defined-row mask of count tables (..., K, K).

    What normalize_rows computes, for a whole (N, K, K) tensor at once:
    each table's rows divided by their sums after adding the alpha.
    """
    work = counts.astype(np.float64) + float(smoothing_alpha)
    totals = work.sum(axis=-1)
    defined = totals > 0
    probs = np.zeros_like(work)
    probs[defined] = work[defined] / totals[defined, None]
    return probs, defined


def pool_counts(items):
    """Sum transition counts across participants into one table.

    Pooling adds count tables; it never concatenates sequences, so no
    artificial transition appears between one participant's last response
    and the next participant's first.
    """
    items = list(items)
    if not items:
        raise ValidationError("cannot pool an empty collection of counts")
    size = items[0].size
    for c in items[1:]:
        if c.size != size:
            raise ValidationError(
                f"cannot pool counts of size {c.size} with size {size}"
            )
    total = np.zeros((size, size), dtype=np.int64)
    for c in items:
        total += c.counts
    return TransitionCounts(total)


def _require_fully_defined(matrix, what):
    """Refuse a matrix with undefined rows; `what` names the use."""
    if not matrix.fully_defined:
        missing = ", ".join(str(i + 1) for i in np.flatnonzero(~matrix.defined_rows))
        raise StructuralError(
            f"{what} needs every row defined, but undefined row(s) {missing} "
            f"were never observed; pool more data or use smoothing first"
        )


def matrix_power(matrix, n):
    """Return the n-step transition matrix P^n (n >= 1)."""
    if n < 1:
        raise ValidationError(f"matrix power must be >= 1, got {n}")
    _require_fully_defined(matrix, "matrix_power")
    out = np.linalg.matrix_power(matrix.probs, n)
    return TransitionMatrix(out, np.ones(matrix.size, dtype=bool))


def _structure(matrix):
    """Reachability and the period of each state in the positive-transition graph.

    Returns (reach, period). reach[i, j] is True when state j+1 can be
    reached from state i+1 in zero or more steps. period[i] is the gcd of
    the lengths of the closed walks through any state of i+1's strongly
    connected component (the states that reach it and that it reaches);
    it is 0 where the component has no cycle. Walks of n = 1..K steps
    decide both exactly: every simple path and cycle has at most K steps,
    and every closed walk is made of simple cycles.
    """
    adj = matrix.probs > 0.0
    k = matrix.size
    reach = power = np.eye(k, dtype=bool)
    returns = np.empty((k, k), dtype=bool)  # returns[n-1, i]: n-step walk i -> i
    for n in range(k):
        power = power @ adj
        reach = reach | power
        returns[n] = power.diagonal()
    lengths = np.arange(1, k + 1)[:, None] * (returns @ (reach & reach.T))
    return reach, np.gcd.reduce(lengths, axis=0)


def is_irreducible(matrix):
    """True when every state can reach every other along positive transitions."""
    _require_fully_defined(matrix, "is_irreducible")
    return bool(_structure(matrix)[0].all())


def is_aperiodic(matrix):
    """True when no state's return times share a common divisor above 1.

    States that lie on no cycle at all constrain nothing. For an
    irreducible matrix this reduces to the usual single-period test.
    """
    _require_fully_defined(matrix, "is_aperiodic")
    return bool((_structure(matrix)[1] <= 1).all())


def stationary(matrix, tolerance=DEFAULT_TOLERANCE, max_power=DEFAULT_MAX_POWER):
    """Find the stationary distribution by raising P to successive powers.

    Convergence is declared at the first power n where no entry of P^(n+1)
    differs from P^n by tolerance or more; the distribution is read from
    the later of the two. The default tolerance corresponds to stability
    in the third decimal place.

    Reducible or periodic matrices have no such limit, so they are
    rejected up front rather than reported as slow convergence.
    """
    if tolerance <= 0:
        raise ValidationError(f"tolerance must be positive, got {tolerance}")
    if max_power < 1:
        raise ValidationError(f"max_power must be >= 1, got {max_power}")
    _require_fully_defined(matrix, "stationary")
    reach, period = _structure(matrix)
    if not reach.all():
        raise StructuralError(
            "stationary distribution undefined: matrix is not irreducible "
            "(some state cannot reach some other state)"
        )
    if (period > 1).any():
        raise StructuralError(
            "stationary distribution undefined: matrix is periodic "
            "(cycle lengths share a divisor above 1)"
        )
    prev = matrix.probs
    for n in range(1, max_power + 1):
        cur = prev @ matrix.probs
        if np.max(np.abs(cur - prev)) < tolerance:
            return StationaryResult(cur[0], n, True, float(tolerance))
        prev = cur
    return StationaryResult(prev[0], max_power, False, float(tolerance))


def inertia(counts):
    """Split a count table into staying (diagonal) and switching transitions."""
    if counts.total < 1:
        raise ValidationError("inertia needs at least one transition")
    on = int(np.trace(counts.counts))
    return InertiaSummary(on, counts.total - on)


def expected_inertia(matrix, row_totals):
    """Expected number of diagonal transitions given per-row exposure.

    row_totals[i] is how many transitions left state i+1; the expectation
    sums row_totals[i] * probs[i, i]. A positive total on an undefined row
    has no expectation and is an error.
    """
    row_totals = np.asarray(row_totals, dtype=np.float64)
    if row_totals.shape != (matrix.size,):
        raise ValidationError(
            f"row_totals must have {matrix.size} entries, got shape {row_totals.shape}"
        )
    if not np.isfinite(row_totals).all() or row_totals.min() < 0:
        raise ValidationError("row_totals must be finite and nonnegative")
    exposed_undefined = (row_totals > 0) & ~matrix.defined_rows
    if exposed_undefined.any():
        i = int(np.argmax(exposed_undefined))
        raise StructuralError(
            f"row {i + 1} has {row_totals[i]:g} transitions but no defined "
            f"distribution; pool more data or use smoothing first"
        )
    return float(np.sum(row_totals * np.diag(matrix.probs)))


def sequence_log2_prob(sequence, matrix):
    """Log2 probability of a sequence under a matrix, given its first state.

    Sums log2 of each step's transition probability. An impossible step
    (probability zero) yields -inf; a step out of an undefined row is an
    error, since no probability exists there at all.
    """
    states = sequence.states
    if states.size < 2:
        raise ValidationError("need at least 2 responses for a sequence probability")
    if states.max() > matrix.size:
        raise ValidationError(
            f"state {int(states.max())} outside 1..{matrix.size}"
        )
    rows = states[:-1] - 1
    undef = ~matrix.defined_rows[rows]
    if undef.any():
        bad = int(rows[np.argmax(undef)])
        raise StructuralError(
            f"sequence passes through state {bad + 1}, which has no defined row"
        )
    p = matrix.probs[rows, states[1:] - 1]
    if (p == 0).any():
        return float("-inf")
    return float(np.sum(np.log2(p)))
