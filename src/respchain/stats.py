"""Pearson chi-square machinery with an in-house p-value engine.

The upper-tail probability comes from the regularized upper incomplete
gamma function Q(df/2, x/2), computed by series expansion for small
arguments and by continued fraction for large ones. Keeping this in-house
(rather than a table lookup) makes p-values continuous in their inputs;
the implementation is validated against published critical values.

No continuity corrections are applied anywhere. In all three tests an
expected cell below 1 attaches a warning to the outcome, not a failure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import _number, _readonly
from .errors import ValidationError

RESIDUAL_CRITERION = 2.0

_MAX_ITER = 100_000  # df = 10**7 needs at most about 16,400 terms
_EPS = 1e-15


@dataclass(frozen=True)
class ChiSquareOutcome:
    """A test statistic with its df, p-value, residuals and flags.

    std_residuals has the shape of the observed table. flagged_cells holds
    the (0-based) indices of cells whose residual exceeds the flagging
    criterion; for 2-d tables the indices are (row, col) pairs. Flagging
    is one-sided on the signed residual, the way the residuals are read
    against a criterion of 2 downstream: a cell is flagged for a marked
    excess over expectation, not for a deficit.
    """

    statistic: float
    df: int
    p_value: float
    std_residuals: np.ndarray | None = None
    flagged_cells: tuple = ()
    warnings: tuple = ()

    def __post_init__(self):
        if self.std_residuals is not None:
            r = _readonly(np.asarray(self.std_residuals, dtype=np.float64))
            object.__setattr__(self, "std_residuals", r)


def _lower_regularized_series(a, x):
    # P(a, x) by its power series; converges fast for x < a + 1.
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ValidationError(f"chi-square series did not converge at df={2 * a:g}")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _upper_regularized_cf(a, x):
    # Q(a, x) by continued fraction (modified Lentz); for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ValidationError(f"chi-square continued fraction did not converge at df={2 * a:g}")
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_p(statistic, df):
    """Upper-tail probability of a chi-square statistic.

    Q(df/2, statistic/2) via the regularized upper incomplete gamma
    function, accurate to about 1e-8. The series and the continued fraction
    each run to their own convergence test, a few times sqrt(df) terms.
    """
    _number(df, "df", positive=True, whole=True)
    _number(statistic, "statistic")
    if statistic == 0:
        return 1.0
    a = df / 2.0
    x = statistic / 2.0
    if x < a + 1.0:
        return max(0.0, min(1.0, 1.0 - _lower_regularized_series(a, x)))
    return max(0.0, min(1.0, _upper_regularized_cf(a, x)))


def _as_counts(observed, expected):
    o = np.asarray(observed, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    if o.shape != e.shape:
        raise ValidationError(
            f"observed shape {o.shape} != expected shape {e.shape}"
        )
    if o.size == 0:
        raise ValidationError("empty tables have no chi-square statistic")
    if not (np.isfinite(o).all() and np.isfinite(e).all()):
        raise ValidationError("observed and expected counts must be finite")
    if o.min() < 0:
        raise ValidationError("observed counts must be nonnegative")
    if e.min() <= 0:
        idx = np.unravel_index(int(np.argmin(e)), e.shape)
        cell = ",".join(str(int(i) + 1) for i in idx)  # 1-based, as scoring names cells
        raise ValidationError(
            f"expected cell {f'({cell})' if e.ndim > 1 else cell} is {e[idx]:g}; every "
            f"expected count must be positive (pool sparse cells or apply a floor first)"
        )
    return o, e


def chi_square_statistic(observed, expected, layout="goodness_of_fit"):
    """Pearson statistic and degrees of freedom for a given table layout.

    layout "goodness_of_fit" gives df = cells - 1; "contingency" needs a
    2-d table and gives df = (rows - 1) * (cols - 1).
    """
    o, e = _as_counts(observed, expected)
    stat = float(np.sum((o - e) ** 2 / e))
    if layout == "goodness_of_fit":
        df = o.size - 1
    elif layout == "contingency":
        if o.ndim != 2:
            raise ValidationError("contingency layout needs a 2-d table")
        df = (o.shape[0] - 1) * (o.shape[1] - 1)
    else:
        raise ValidationError(f"unknown layout {layout!r}")
    if df < 1:
        raise ValidationError(f"layout leaves no degrees of freedom (df={df})")
    return stat, df


def standardized_residuals(observed, expected, criterion=RESIDUAL_CRITERION):
    """Per-cell (O - E)/sqrt(E) with cells above the criterion flagged.

    The flag is one-sided on the signed residual: residual > criterion
    marks a cell as over-represented. Deficits, however large, are read
    from the sign, not flagged.
    """
    _number(criterion, "criterion", signed=True)
    o, e = _as_counts(observed, expected)
    residuals = (o - e) / np.sqrt(e)
    if residuals.ndim == 1:
        flagged = tuple(int(i) for i in np.flatnonzero(residuals > criterion))
    else:
        flagged = tuple((int(i), int(j)) for i, j in np.argwhere(residuals > criterion))
    return residuals, flagged


def _outcome(observed, expected, layout):
    stat, df = chi_square_statistic(observed, expected, layout)
    residuals, flagged = standardized_residuals(observed, expected)
    smallest = np.min(expected)
    warnings = () if smallest >= 1.0 else (
        f"smallest expected cell is {smallest:.3f} (< 1); "
        "the chi-square approximation is unreliable here",)
    return ChiSquareOutcome(stat, df, chi_square_p(stat, df), residuals, flagged, warnings)


def inertia_association_test(g1, g2):
    """2x2 test of association between group membership and staying put.

    Rows are the two groups, columns their on/off-diagonal transition
    counts; expected counts come from the margins; df = 1. Expected cells
    below 1 attach a warning rather than failing.
    """
    if g1.total < 1 or g2.total < 1:
        raise ValidationError("both groups need at least one transition")
    observed = np.array(
        [[g1.on_diagonal, g1.off_diagonal], [g2.on_diagonal, g2.off_diagonal]],
        dtype=np.float64,
    )
    total = observed.sum()
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / total
    return _outcome(observed, expected, "contingency")


def equiprobability_test(class_counts):
    """Goodness-of-fit against equal frequencies in every class."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 2:
        raise ValidationError("need counts for at least 2 classes")
    if counts.sum() <= 0:
        raise ValidationError("total count must be positive")
    expected = np.full(counts.size, counts.sum() / counts.size)
    return _outcome(counts, expected, "goodness_of_fit")


def stationary_gof(focal, reference, n_focal):
    """Compare a focal group's stationary distribution to a reference one.

    Both probability vectors are scaled by the focal group's transition
    total so the observed column is a real frequency vector; the reference
    plays the expected role. n_focal is a parameter because the choice of
    scaling N is the one degree of freedom in this comparison: the focal
    group's own N is the only value that turns its probabilities back
    into counts it actually has.
    """
    f = np.asarray(focal, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    if f.shape != r.shape or f.ndim != 1:
        raise ValidationError("focal and reference must be 1-d of equal length")
    if _number(n_focal, "n_focal", signed=True) < 1:
        raise ValidationError(f"n_focal must be finite and >= 1, got {n_focal}")
    for name, v in (("focal", f), ("reference", r)):
        if not np.isfinite(v).all() or v.min() < 0 or abs(v.sum() - 1.0) > 1e-6:
            raise ValidationError(f"{name} is not a probability vector")
    return _outcome(f * n_focal, r * n_focal, "goodness_of_fit")
