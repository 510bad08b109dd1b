"""Classifier evaluation: confusion tables, accuracy metrics, ROC and AUC.

Conventions fixed package-wide: a case is called positive when its score
is at or above the cutoff (">= cutoff -> positive"), tied scores cross
each threshold together, and the likelihood ratios at degenerate
specificity are reported as explicit infinities rather than raised as
division errors.
"""

from dataclasses import dataclass
from itertools import repeat
from operator import eq

import numpy as np

from .chain import _number
from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionTable:
    """Standard 2x2 cells for one binary classification run."""

    tp: int
    fn: int
    tn: int
    fp: int
    positive_label: str

    def __post_init__(self):
        for name in ("tp", "fn", "tn", "fp"):
            count = int(_number(getattr(self, name), name, whole=True))
            object.__setattr__(self, name, count)

    @property
    def positives(self):
        return self.tp + self.fn

    @property
    def negatives(self):
        return self.tn + self.fp


@dataclass(frozen=True)
class DiagnosticMetrics:
    """Sensitivity, specificity and the two likelihood ratios at one cutoff."""

    sensitivity: float
    specificity: float
    lr_positive: float
    lr_negative: float
    cutoff: float


@dataclass(frozen=True, eq=False)
class RocCurve:
    """ROC points ordered from strictest to loosest cutoff, plus the AUC.

    fpr, tpr and cutoff are read-only float64 arrays with one entry per
    point: its false positive rate, true positive rate and cutoff. The
    first point is (0, 0) at an infinite cutoff and the last is (1, 1) at
    the minimum score. points gives the same curve as a tuple of
    (fpr, tpr, cutoff) float triples, derived from the arrays on each use;
    two curves are equal when their points and AUCs are.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    cutoff: np.ndarray
    auc: float

    @property
    def points(self):
        return tuple(zip(self.fpr.tolist(), self.tpr.tolist(), self.cutoff.tolist()))

    def __eq__(self, other):
        if isinstance(other, RocCurve):
            return (self.points, self.auc) == (other.points, other.auc)
        return NotImplemented


def _matches(values, label):
    """Whether each value equals label, as a bool array."""
    return np.fromiter(map(eq, values, repeat(label)), bool, len(values))


def _confusion_cells(truth, predicted, positive_label):
    """The ConfusionTable of two bool arrays: the true and the predicted
    positives."""
    tn, fp, fn, tp = np.bincount(2 * truth + predicted, minlength=4).tolist()
    return ConfusionTable(tp, fn, tn, fp, positive_label)


def confusion(labels, predictions, positive_label):
    """Cross-tabulate true labels against predicted labels."""
    labels = list(labels)
    predictions = list(predictions)
    if len(labels) != len(predictions):
        raise ValidationError(
            f"{len(labels)} labels vs {len(predictions)} predictions"
        )
    classes = set(labels)
    if len(classes) > 2:
        raise ValidationError(f"labels must be binary, got {sorted(classes)}")
    if positive_label not in classes:
        raise ValidationError(
            f"positive label {positive_label!r} absent from labels"
        )
    return _confusion_cells(_matches(labels, positive_label),
                            _matches(predictions, positive_label), positive_label)


def metrics(table, cutoff=float("nan")):
    """Sensitivity, specificity, LR+ and LR- from a confusion table.

    All four metrics come from the unrounded ratios. Specificity 1 makes
    LR+ infinite and specificity 0 makes LR- infinite; both are returned
    as inf sentinels.
    """
    if table.positives == 0 or table.negatives == 0:
        raise ValidationError(
            "metrics need at least one positive and one negative case"
        )
    sn = table.tp / table.positives
    sp = table.tn / table.negatives
    lr_pos = float("inf") if sp == 1.0 else sn / (1.0 - sp)
    lr_neg = float("inf") if sp == 0.0 else (1.0 - sn) / sp
    return DiagnosticMetrics(sn, sp, lr_pos, lr_neg, float(cutoff))


def roc_curve(scores, labels, positive_label):
    """Empirical ROC by sweeping every distinct score as the cutoff.

    Each distinct score acts once as a ">= cutoff -> positive" threshold,
    preceded by an infinite cutoff that predicts nothing positive; tied
    scores therefore cross together. AUC is the trapezoidal area, which
    equals the probability that a random positive outscores a random
    negative (ties counted half). Scores may be infinite but not NaN. The
    zero group's cutoff is the first zero in scores, -0.0 or 0.0.
    """
    return _roc(scores, _matches(list(labels), positive_label))


def _roc(scores, truth):
    """roc_curve of scores against truth, a bool array of the positives.

    The scores are sorted by numpy's default (unstable) argsort, read in
    reverse: a point sums a whole tie group, so the order within a group
    never shows, and a group's values share their bits, except the zero
    group, where -0.0 == 0.0. Its cutoff is the first zero in the scores'
    own order, the one a stable sort would put first.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or truth.shape != scores.shape:
        raise ValidationError("scores and labels must be 1-d and equal length")
    if np.isnan(scores).any():
        raise ValidationError("scores must not be NaN")
    n_pos = int(truth.sum())
    n_neg = int((~truth).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError(
            "ROC needs at least one positive and one negative case"
        )
    order = np.argsort(scores)[::-1]
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    tp = np.cumsum(np.add.reduceat(truth[order].astype(np.int64), starts))
    fpr = np.r_[0.0, (np.r_[starts[1:], scores.size] - tp) / n_neg]
    tpr = np.r_[0.0, tp / n_pos]
    cutoff = np.r_[np.inf, sorted_scores[starts]]
    del order, sorted_scores, starts, tp  # not alive at the AUC, which sets the peak
    cutoff[cutoff == 0] = scores[np.argmax(scores == 0)]  # -0.0 or 0.0, as first read
    for column in (fpr, tpr, cutoff):
        column.flags.writeable = False
    return RocCurve(fpr, tpr, cutoff, float(np.trapezoid(tpr, fpr)))
