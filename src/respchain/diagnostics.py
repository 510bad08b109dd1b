"""Classifier evaluation: confusion tables, accuracy metrics, ROC and AUC.

Conventions fixed package-wide: a case is called positive when its score
is at or above the cutoff (">= cutoff -> positive"), tied scores cross
each threshold together, and the likelihood ratios at degenerate
specificity are reported as explicit infinities rather than raised as
division errors.
"""

from dataclasses import dataclass

import numpy as np

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
            v = getattr(self, name)
            if v < 0 or int(v) != v:
                raise ValidationError(f"{name} must be a nonnegative integer, got {v!r}")

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


@dataclass(frozen=True)
class RocCurve:
    """ROC points ordered from strictest to loosest cutoff, plus the AUC.

    points is a tuple of (false_positive_rate, true_positive_rate, cutoff);
    the first point is (0, 0) at an infinite cutoff and the last is (1, 1)
    at the minimum score.
    """

    points: tuple
    auc: float


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
    tp = fn = tn = fp = 0
    for truth, pred in zip(labels, predictions):
        if truth == positive_label:
            if pred == positive_label:
                tp += 1
            else:
                fn += 1
        else:
            if pred == positive_label:
                fp += 1
            else:
                tn += 1
    return ConfusionTable(tp, fn, tn, fp, positive_label)


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
    negative (ties counted half). Scores may be infinite but not NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = list(labels)
    if scores.ndim != 1 or len(labels) != scores.size:
        raise ValidationError("scores and labels must be 1-d and equal length")
    if np.isnan(scores).any():
        raise ValidationError("scores must not be NaN")
    truth = np.array([lab == positive_label for lab in labels])
    n_pos = int(truth.sum())
    n_neg = int((~truth).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError(
            "ROC needs at least one positive and one negative case"
        )
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    tp = np.cumsum(np.add.reduceat(truth[order].astype(np.int64), starts))
    fp = np.r_[starts[1:], scores.size] - tp
    fprs = np.r_[0.0, fp / n_neg]
    tprs = np.r_[0.0, tp / n_pos]
    cutoffs = np.r_[np.inf, sorted_scores[starts]]
    points = tuple(zip(fprs.tolist(), tprs.tolist(), cutoffs.tolist()))
    auc = float(np.trapezoid(tprs, fprs))
    return RocCurve(points, auc)
