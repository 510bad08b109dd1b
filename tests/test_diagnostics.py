"""Confusion tables, diagnostic ratios, ROC sweep and AUC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import respchain as rc


def concordance_oracle(scores, truth):
    """Mann-Whitney probability that a positive outscores a negative."""
    pos = scores[truth]
    neg = scores[~truth]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def reference_roc_curve(scores, labels, positive_label):
    """The group-by-group loop that roc_curve replaced, kept as its oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.array([lab == positive_label for lab in labels])
    n_pos = int(truth.sum())
    n_neg = int((~truth).sum())
    order = np.argsort(-scores, kind="stable")
    sorted_truth = truth[order]
    sorted_scores = scores[order]
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(sorted_truth[i:j].sum())
        fp += (j - i) - int(sorted_truth[i:j].sum())
        points.append((fp / n_neg, tp / n_pos, float(sorted_scores[i])))
        i = j
    fprs = np.array([p[0] for p in points])
    tprs = np.array([p[1] for p in points])
    return tuple(points), float(np.trapezoid(tprs, fprs))


def reference_confusion(labels, predictions, positive_label):
    """The per-label loop that confusion replaced, kept as its oracle."""
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
    return tp, fn, tn, fp


# Scores rounded to halves, so most of them tie, with both signed zeros
tied_score = st.one_of(
    st.integers(-6, 6).map(lambda x: x / 2),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf")]),
)


class TestConfusion:
    def test_counts(self):
        labels = ["a", "a", "a", "b", "b"]
        preds = ["a", "b", "a", "b", "a"]
        t = rc.confusion(labels, preds, positive_label="a")
        assert (t.tp, t.fn, t.tn, t.fp) == (2, 1, 1, 1)
        assert t.positives == 3
        assert t.negatives == 2

    def test_positive_label_must_occur(self):
        with pytest.raises(rc.ValidationError, match="absent"):
            rc.confusion(["a", "b"], ["a", "b"], positive_label="c")

    def test_rejects_three_classes(self):
        with pytest.raises(rc.ValidationError, match="binary"):
            rc.confusion(["a", "b", "c"], ["a", "b", "c"], positive_label="a")

    def test_length_mismatch(self):
        with pytest.raises(rc.ValidationError):
            rc.confusion(["a", "b"], ["a"], positive_label="a")

    def test_negative_cell_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.ConfusionTable(tp=-1, fn=0, tn=1, fp=0, positive_label="a")


class TestMetrics:
    def test_standard_table(self):
        t = rc.ConfusionTable(tp=9, fn=3, tn=8, fp=2, positive_label="x")
        m = rc.metrics(t, cutoff=0.0)
        assert m.sensitivity == pytest.approx(0.75)
        assert m.specificity == pytest.approx(0.80)
        assert m.lr_positive == pytest.approx(3.75)
        assert m.lr_negative == pytest.approx(0.3125)
        assert m.cutoff == 0.0

    def test_perfect_specificity_gives_infinite_lr_positive(self):
        t = rc.ConfusionTable(tp=5, fn=5, tn=10, fp=0, positive_label="x")
        m = rc.metrics(t)
        assert m.lr_positive == float("inf")

    def test_zero_specificity_gives_infinite_lr_negative(self):
        t = rc.ConfusionTable(tp=5, fn=5, tn=0, fp=10, positive_label="x")
        m = rc.metrics(t)
        assert m.lr_negative == float("inf")

    def test_one_class_missing_rejected(self):
        t = rc.ConfusionTable(tp=0, fn=0, tn=5, fp=5, positive_label="x")
        with pytest.raises(rc.ValidationError):
            rc.metrics(t)


class TestRocCurve:
    def test_four_case_example(self):
        curve = rc.roc_curve(
            [0.9, 0.3, 0.8, 0.1], ["p", "p", "n", "n"], positive_label="p"
        )
        assert curve.auc == pytest.approx(0.75)

    def test_starts_at_origin_with_infinite_cutoff(self):
        curve = rc.roc_curve([1.0, 0.0], ["p", "n"], positive_label="p")
        assert curve.points[0] == (0.0, 0.0, float("inf"))

    def test_ends_at_top_right(self):
        curve = rc.roc_curve(
            [0.2, 0.5, 0.7, 0.1], ["p", "n", "p", "n"], positive_label="p"
        )
        fpr, tpr, cutoff = curve.points[-1]
        assert (fpr, tpr) == (1.0, 1.0)
        assert cutoff == 0.1

    def test_perfect_separation(self):
        curve = rc.roc_curve(
            [3.0, 2.0, -1.0, -2.0], ["p", "p", "n", "n"], positive_label="p"
        )
        assert curve.auc == 1.0

    def test_reversed_scores(self):
        curve = rc.roc_curve(
            [-3.0, -2.0, 1.0, 2.0], ["p", "p", "n", "n"], positive_label="p"
        )
        assert curve.auc == 0.0

    @pytest.mark.parametrize("scores", [
        [float("nan"), 0.3, 0.8, 0.1],
        [0.9, 0.3, 0.8, float("nan")],
    ])
    def test_nan_score_rejected(self, scores):
        with pytest.raises(rc.ValidationError, match="NaN"):
            rc.roc_curve(scores, ["p", "p", "n", "n"], positive_label="p")

    def test_all_tied_is_chance(self):
        curve = rc.roc_curve(
            [0.5, 0.5, 0.5, 0.5], ["p", "p", "n", "n"], positive_label="p"
        )
        assert curve.auc == pytest.approx(0.5)
        # one shared threshold moves everything at once
        assert len(curve.points) == 2

    def test_threshold_inclusive_semantics(self):
        # at cutoff 0.6 the tied positive counts as predicted positive
        curve = rc.roc_curve(
            [0.6, 0.6, 0.2], ["p", "n", "n"], positive_label="p"
        )
        by_cutoff = {p[2]: p for p in curve.points}
        fpr, tpr, _ = by_cutoff[0.6]
        assert tpr == 1.0
        assert fpr == pytest.approx(0.5)

    def test_curve_is_monotone(self):
        rng = np.random.default_rng(41)
        scores = rng.normal(size=60)
        labels = ["p" if v else "n" for v in rng.random(60) < 0.4]
        curve = rc.roc_curve(scores, labels, positive_label="p")
        fprs = [p[0] for p in curve.points]
        tprs = [p[1] for p in curve.points]
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))

    def test_auc_equals_concordance(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            n = int(rng.integers(10, 60))
            truth = rng.random(n) < 0.5
            if truth.all() or not truth.any():
                continue
            # quantized scores force plenty of ties
            scores = np.round(rng.normal(size=n) + truth, 1)
            labels = ["p" if t else "n" for t in truth]
            curve = rc.roc_curve(scores, labels, positive_label="p")
            assert curve.auc == pytest.approx(
                concordance_oracle(scores, truth), abs=1e-12
            )

    def test_single_class_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.roc_curve([0.1, 0.2], ["p", "p"], positive_label="p")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(tied_score, st.booleans()), min_size=2, max_size=80)
           .filter(lambda rows: len({pos for _, pos in rows}) == 2))
    def test_matches_reference_loop_on_ties(self, rows):
        scores = [score for score, _ in rows]
        labels = ["pos" if pos else "neg" for _, pos in rows]
        curve = rc.roc_curve(scores, labels, "pos")
        points, auc = reference_roc_curve(scores, labels, "pos")
        # repr tells -0.0 from 0.0, which == does not
        assert repr(curve.points) == repr(points)
        assert curve.auc == auc

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_zero_group_cutoff_is_first_zero(self, first):
        """-0.0 == 0.0, so the zero group's members differ in bits and the sort
        leaves them in any order; its cutoff is the first zero in file order."""
        rng = np.random.default_rng(3)
        zeros = rng.choice([-0.0, 0.0], 500).tolist()
        scores = [1.5, first, *zeros, -2.0, *rng.choice([-1.0, 0.5, -0.0, 0.0], 500).tolist()]
        labels = ["pos" if v else "neg" for v in rng.random(len(scores)) < 0.5]
        curve = rc.roc_curve(scores, labels, "pos")
        points, auc = reference_roc_curve(scores, labels, "pos")
        assert repr(curve.points) == repr(points)
        assert curve.auc == auc
        assert repr(curve.points[3][2]) == repr(first)

    def test_point_for_each_distinct_score(self):
        curve = rc.roc_curve(
            [0.3, 0.3, 0.7, 0.9], ["n", "p", "p", "p"], positive_label="p"
        )
        cutoffs = [p[2] for p in curve.points]
        assert cutoffs == [float("inf"), 0.9, 0.7, 0.3]


# Labels of several types: confusion only ever compares them to the positive one
any_label = st.one_of(st.sampled_from(["a", "b"]), st.integers(0, 2), st.none(),
                      st.tuples(st.integers(0, 1)))


class TestConfusionAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_loop(self, data):
        classes = data.draw(st.lists(any_label, min_size=1, max_size=2, unique=True))
        labels = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=60))
        predictions = data.draw(st.lists(any_label, min_size=len(labels),
                                         max_size=len(labels)))
        positive = data.draw(st.sampled_from(sorted(set(labels), key=repr)))
        t = rc.confusion(labels, predictions, positive)
        assert (t.tp, t.fn, t.tn, t.fp) == reference_confusion(labels, predictions, positive)
        assert all(type(v) is int for v in (t.tp, t.fn, t.tn, t.fp))

    def test_one_class_labels(self):
        t = rc.confusion(["a"] * 3, ["a", "b", "a"], "a")
        assert (t.tp, t.fn, t.tn, t.fp) == (2, 1, 0, 0)


class TestConfusionTableCells:
    @pytest.mark.parametrize("bad", [float("nan"), "1", True, 1.5, float("inf")])
    def test_non_count_cell_rejected(self, bad):
        with pytest.raises(rc.ValidationError,
                           match=r"^tn must be a finite nonnegative integer, got "):
            rc.ConfusionTable(tp=1, fn=0, tn=bad, fp=0, positive_label="a")

    def test_whole_float_cells_are_stored_as_ints(self):
        t = rc.ConfusionTable(tp=2.0, fn=np.int64(1), tn=0, fp=3, positive_label="a")
        assert (t.tp, t.fn) == (2, 1)
        assert type(t.tp) is int and type(t.fn) is int


class TestRocCurveInputs:
    def test_lengths_must_match(self):
        with pytest.raises(rc.ValidationError,
                           match="scores and labels must be 1-d and equal length"):
            rc.roc_curve([0.1, 0.2, 0.3], ["p", "n"], positive_label="p")
