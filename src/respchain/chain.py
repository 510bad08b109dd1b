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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError, ValidationError

DEFAULT_TOLERANCE = 5e-4
DEFAULT_MAX_POWER = 64

_ROW_SUM_TOL = 1e-9

# States counted at a time: whole rows, or one row longer than this.
COUNT_BLOCK_STATES = 1 << 16


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _whole_numbers(values, what):
    """values as an int64 array; input that is not already an integer array
    must hold whole numbers within int64's range (not NaN or infinity)."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        real = np.asarray(values, dtype=np.float64)
        whole = (real == np.round(real)) & (np.abs(real) < 2.0**63)
        if not whole.all():
            raise ValidationError(
                f"{what} must be finite whole numbers within int64, got {real[~whole][0]}")
    return np.asarray(values, dtype=np.int64)


def _is_int(value):
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _number(value, what, positive=False, whole=False, signed=False):
    """value if it is a finite real number and not a bool, else a ValidationError
    naming it. The number must be at least 0, or above 0 when positive; signed
    admits either sign. whole asks for a whole number."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or (value < 0 and not signed)
            or (positive and value == 0) or (whole and value != math.floor(value))):
        sign = "" if signed else "positive " if positive else "nonnegative "
        kind = "integer" if whole else "number"
        raise ValidationError(f"{what} must be a finite {sign}{kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class StateSpace:
    """The ordered response scale: states 1..size with display labels."""

    size: int
    labels: tuple = ()

    def __post_init__(self):
        if not _is_int(self.size) or self.size < 2:
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
        states = _whole_numbers(self.states, f"states for {self.participant_id!r}")
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
    """Raw (from, to) pair counts on a K x K grid, with each row's total and
    the grand total stored alongside (not compared)."""

    counts: np.ndarray
    row_totals: np.ndarray = field(init=False, compare=False)
    total: int = field(init=False, compare=False)

    def __post_init__(self):
        counts = _whole_numbers(self.counts, "counts")
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValidationError(f"counts must be square, got shape {counts.shape}")
        if counts.min() < 0:
            raise ValidationError("counts must be nonnegative")
        object.__setattr__(self, "counts", _readonly(counts))
        object.__setattr__(self, "row_totals", _readonly(counts.sum(axis=1)))
        object.__setattr__(self, "total", int(counts.sum()))

    @property
    def size(self):
        return self.counts.shape[0]


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
        return cls(rows, np.ones(rows.shape[:1], dtype=bool))

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
    """How often a sequence stays put: diagonal vs off-diagonal transitions,
    with their total and the diagonal share stored alongside (not compared).
    The share is NaN when there are no transitions."""

    on_diagonal: int
    off_diagonal: int
    total: int = field(init=False, compare=False)
    proportion: float = field(init=False, compare=False)

    def __post_init__(self):
        on = int(_number(self.on_diagonal, "on_diagonal", whole=True))
        off = int(_number(self.off_diagonal, "off_diagonal", whole=True))
        object.__setattr__(self, "on_diagonal", on)
        object.__setattr__(self, "off_diagonal", off)
        object.__setattr__(self, "total", on + off)
        object.__setattr__(self, "proportion", on / (on + off) if on + off else math.nan)


def _columns(cohort):
    """The participant ids, groups, flat states and lengths of a columnar
    cohort (such as a dataio.CohortDataset) or of a list of ResponseSequence."""
    if hasattr(cohort, "lengths"):
        return cohort.participant_ids, cohort.groups, cohort.states, cohort.lengths
    rows = list(cohort)
    states = np.concatenate([s.states for s in rows]) if rows else np.zeros(0, dtype=np.int64)
    lengths = np.fromiter((s.states.size for s in rows), dtype=np.int64, count=len(rows))
    return [s.participant_id for s in rows], [s.group for s in rows], states, lengths


def _check_rows(ids, states, lengths, k):
    """Reject the first row, in input order, that has fewer than two
    responses or a state outside 1..k, naming its participant and, for a
    bad state, its position."""
    ends = np.cumsum(lengths)
    short = np.flatnonzero(lengths < 2)
    stop = ends[short[0]] - lengths[short[0]] if short.size else states.size
    outside = np.flatnonzero((states[:stop] < 1) | (states[:stop] > k))
    if outside.size:
        row = int(np.searchsorted(ends, outside[0], side="right"))
        raise ValidationError(
            f"participant {ids[row]!r}: state {states[outside[0]]} at position "
            f"{outside[0] - (ends[row] - lengths[row])} is outside 1..{k}"
        )
    if short.size:
        raise ValidationError(
            f"participant {ids[short[0]]!r}: need at least 2 responses "
            f"to count transitions, got {lengths[short[0]]}"
        )


def count_tensor(sequences, space):
    """Count adjacent (from, to) pairs of many sequences at once.

    sequences is a list of ResponseSequence or a columnar cohort: an
    object with participant_ids, groups, one flat array of 1-based states
    and each sequence's length (lengths), such as a dataio.CohortDataset.
    Returns an (N, K, K) array whose row r is the count table of sequence
    r, in the smallest unsigned integer dtype that holds the longest
    sequence's number of transitions (uint8 for the empty cohort). Widen
    it (astype(np.int64)) before any arithmetic that could wrap; numpy's
    sum already widens. Blocks of whole sequences, about
    COUNT_BLOCK_STATES states each, are counted by one bincount; pairs
    that would join one sequence's last response to the next one's first
    are left out. The kernel is the one that pools each group's counts in
    the CLI, keyed here by row rather than by group code (_pair_tables).
    Every sequence needs at least two responses, and states
    outside 1..space.size are rejected; the first offending sequence in
    input order is named, with the position of its bad state.
    """
    ids, _, states, lengths = _columns(sequences)
    n = len(lengths)
    if n:
        _check_rows(ids, states, lengths, space.size)
    return _pair_tables(states, lengths, space.size, None, n,
                        np.min_scalar_type(lengths.max(initial=1) - 1))


def _pair_tables(states, lengths, k, keys, n_tables, dtype):
    """The (n_tables, K, K) tables of dtype whose table g counts the
    adjacent (from, to) pairs of every row r with keys[r] == g, or of row g
    when keys is None: each group's pooled counts with the group codes as
    keys, count_tensor without keys. The rows, of at least two valid states
    each, are counted in blocks of whole rows, about COUNT_BLOCK_STATES
    states each, by one bincount over the keys that the block holds."""
    n, size = len(lengths), k * k
    out = np.zeros((n_tables, size), dtype)
    ends = np.cumsum(lengths)
    first = 0
    while first < n:
        start = ends[first] - lengths[first]
        stop = max(first + 1, int(np.searchsorted(ends, start + COUNT_BLOCK_STATES, "right")))
        # code of each pair = key * K*K + (from-1) * K + (to-1), keys counted
        # from the block's least; the code at a row's last response is the
        # spare bin past the end, dropped below
        block_keys = np.arange(first, stop) if keys is None else keys[first:stop].astype(np.intp)
        low = int(block_keys.min())
        bins = (int(block_keys.max()) + 1 - low) * size
        codes = np.repeat((block_keys - low) * size - (k + 1), lengths[first:stop])
        block = states[start:ends[stop - 1]].astype(np.intp)
        codes[:-1] += block[:-1] * k + block[1:]
        codes[ends[first:stop] - start - 1] = bins
        counts = np.bincount(codes, minlength=bins + 1)[:bins].reshape(-1, size)
        if keys is None:  # each row is in one block
            out[first:stop] = counts
        else:
            out[low:low + len(counts)] += counts
        del codes, block, counts  # before the next block's
        first = stop
    return out.reshape(-1, k, k)


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
    _number(smoothing_alpha, "smoothing_alpha")
    return TransitionMatrix(*_row_probabilities(counts.counts, smoothing_alpha))


def _row_probabilities(counts, smoothing_alpha=0.0):
    """The probabilities and defined-row mask of count tables (..., K, K).

    What normalize_rows computes, for a whole (N, K, K) tensor at once:
    each table's rows divided by their sums after adding the alpha. An
    alpha so large that a smoothed row's sum overflows is a ValidationError.
    """
    work = counts.astype(np.float64) + float(smoothing_alpha)
    with np.errstate(over="ignore"):
        totals = work.sum(axis=-1)
    if not np.isfinite(totals).all():
        raise ValidationError(
            f"smoothing_alpha {smoothing_alpha!r} is too large: a smoothed row of "
            f"{counts.shape[-1]} cells sums past the largest float")
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
    n = int(_number(n, "n", positive=True, whole=True))
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
    _number(tolerance, "tolerance", positive=True)
    max_power = int(_number(max_power, "max_power", positive=True, whole=True))
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
