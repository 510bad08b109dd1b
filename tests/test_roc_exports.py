"""ROC curves as columns, and the CSV and SVG exports written from them.

The exports are checked byte for byte against the per-point writers they
replaced, kept below unchanged as oracles, over curves from roc_curve and
curves whose rates land within a few ulps of a "%.2f" rounding tie once
scaled onto the figure, with chunk edges anywhere. The SVG's integer
hundredths are checked against "%.2f" itself.
"""

from html import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import respchain as rc
from respchain import report as reporting
from respchain.report import _SVG_COLORS
from conftest import traced_peak


def reference_roc_points_csv(curve):
    """ROC points as plain CSV with the fixed fpr,tpr,cutoff header."""
    lines = ["fpr,tpr,cutoff"]
    for fpr, tpr, cutoff in curve.points:
        lines.append(f"{fpr!r},{tpr!r},{cutoff!r}")
    return "\n".join(lines) + "\n"


def reference_roc_svg(curves, title="ROC comparison"):
    """Self-contained SVG figure of one or more ROC curves.

    curves is a list of (name, RocCurve). Layout: unit square with tick
    marks every 0.2, a dashed no-discrimination diagonal, one polyline
    per curve, and a legend carrying each curve's AUC.
    """
    width, height = 560, 440
    ml, mt, mr, mb = 70, 40, 30, 60
    pw, ph = width - ml - mr, height - mt - mb

    def sx(x):
        return ml + x * pw

    def sy(y):
        return mt + (1.0 - y) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{ml + pw / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>'
    )
    for i in range(6):
        v = i / 5.0
        parts.append(
            f'<line x1="{sx(v):.1f}" y1="{sy(0) + 5:.1f}" x2="{sx(v):.1f}" '
            f'y2="{sy(0):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(v):.1f}" y="{sy(0) + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{v:.1f}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5}" y1="{sy(v):.1f}" x2="{ml}" y2="{sy(v):.1f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 9}" y="{sy(v) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.1f}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">1 - specificity '
        f'(false positive rate)</text>'
    )
    parts.append(
        f'<text x="20" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {mt + ph / 2:.1f})">sensitivity '
        f'(true positive rate)</text>'
    )
    parts.append(
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" '
        f'y2="{sy(1):.1f}" stroke="#888" stroke-dasharray="6,4"/>'
    )
    for idx, (name, curve) in enumerate(curves):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(fpr):.2f},{sy(tpr):.2f}" for fpr, tpr, _ in curve.points
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        ly = mt + 20 + idx * 18
        parts.append(
            f'<line x1="{ml + 12}" y1="{ly - 4}" x2="{ml + 40}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + 46}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{escape(name, quote=False)} (AUC = {curve.auc:.3f})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def near_tie_rate(origin, extent, flipped, cents, ulps):
    """A rate in [0, 1] whose coordinate on the figure, origin + rate * extent
    (with 1 - rate when flipped), lies within a few ulps of the "%.2f" tie
    half a cent past origin + cents / 100."""
    target = np.float64(origin + (cents + 0.5) / 100)
    for _ in range(abs(ulps)):
        target = np.nextafter(target, np.copysign(np.inf, ulps))
    rate = (float(target) - origin) / extent
    return min(max(1.0 - rate if flipped else rate, 0.0), 1.0)


# The figure's plot box: x = 70 + fpr * 460, y = 40 + (1 - tpr) * 340
near_tie_fpr = st.builds(lambda cents, ulps: near_tie_rate(70, 460, False, cents, ulps),
                         st.integers(0, 45999), st.integers(-3, 3))
near_tie_tpr = st.builds(lambda cents, ulps: near_tie_rate(40, 340, True, cents, ulps),
                         st.integers(0, 33999), st.integers(-3, 3))
score = st.one_of(
    st.integers(-4, 4).map(lambda x: x / 2),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 0.1, 1 / 3]),
    st.floats(allow_nan=False),
)
curve_name = st.text(alphabet="ab <>&\"'é", max_size=8)


@st.composite
def swept_curves(draw):
    """roc_curve of 2-200 scores in two classes."""
    rows = draw(st.lists(st.tuples(score, st.booleans()), min_size=2, max_size=200)
                .filter(lambda rows: len({pos for _, pos in rows}) == 2))
    return rc.roc_curve([s for s, _ in rows], ["p" if pos else "n" for _, pos in rows],
                        "p")


@st.composite
def column_curves(draw):
    """A RocCurve built from columns of near-tie rates and drawn cutoffs."""
    n = draw(st.integers(2, 200))
    columns = [draw(st.lists(strategy, min_size=n, max_size=n))
               for strategy in (near_tie_fpr, near_tie_tpr, score)]
    return rc.RocCurve(*map(np.array, columns),
                       draw(st.floats(0.0, 1.0)))


class TestExportsMatchPerPointWriters:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(curve_name, swept_curves() | column_curves()),
                    min_size=1, max_size=3),
           st.integers(1, 7) | st.just(reporting.WRITE_BLOCK_ROWS))
    def test_csv_and_svg_bytes(self, curves, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reporting, "WRITE_BLOCK_ROWS", block)
            for _, curve in curves:
                assert reporting.roc_points_csv(curve) == reference_roc_points_csv(curve)
            assert reporting.roc_svg(curves) == reference_roc_svg(curves)

    @pytest.mark.parametrize("cents", [0, 1, 12345, 33999])
    def test_near_tie_rates_round_both_ways(self, cents):
        xs = {"%.2f" % (70 + near_tie_rate(70, 460, False, cents, u) * 460)
              for u in range(-3, 4)}
        ys = {"%.2f" % (40 + (1.0 - near_tie_rate(40, 340, True, cents, u)) * 340)
              for u in range(-3, 4)}
        assert len(xs) == len(ys) == 2


def nudged(value, ulps):
    """value moved by ulps units in the last place, up or down."""
    value = np.float64(value)
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.copysign(np.inf, ulps))
    return float(value)


# Doubles in [0, 2**31), which _fixed2 writes: any, the exact binary ties
# k / 8, the neighbours of each cent's tie (c + 0.5) / 100, subnormals, 0.0
# and the largest double below 2**31
fixed2_value = st.one_of(
    st.floats(0, 2**31, exclude_max=True),
    st.integers(0, 2**34 - 1).map(lambda k: k / 8),
    st.builds(lambda cents, ulps: nudged((cents + 0.5) / 100, ulps),
              st.integers(0, 2**31 * 100 - 1), st.integers(-3, 3)),
    st.floats(0, 2.0**-1022, exclude_max=True),
    st.sampled_from([0.0, 5e-324, nudged(2**31, -1)]),
)
# Rates whose coordinates _fixed2 leaves to "%.2f": negative, NaN, infinite
# or at least 2**31 (sx and sy never give -0.0), and -0.0, a rate equal to
# 0.0 with another text
odd_rate = st.sampled_from([-1.0, -0.2, float("nan"), float("inf"), float("-inf"), 1e7, 2e300,
                            -0.0])


@st.composite
def odd_curves(draw):
    """A RocCurve whose rates are near ties or odd_rate, and drawn cutoffs."""
    n = draw(st.integers(1, 40))
    columns = [draw(st.lists(strategy, min_size=n, max_size=n)) for strategy in
               (near_tie_fpr | odd_rate, near_tie_tpr | odd_rate, score)]
    return rc.RocCurve(*map(np.array, columns), draw(st.floats(0.0, 1.0)))


def fixed2_texts(values):
    """_fixed2's texts of values, each read back as a str."""
    matrix = reporting._fixed2(np.array(values, dtype=np.float64), ",")
    return matrix.T.tobytes().translate(None, b"\0").decode("ascii").split(",")[:-1]


class TestFixedHundredths:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(fixed2_value, min_size=1, max_size=50))
    @example([0.125, 0.375, 1 / 3, 0.005, 0.015, 69.995, 2**31 - 0.005])
    def test_equals_percent_format(self, values):
        assert fixed2_texts(values) == ["%.2f" % value for value in values]

    @pytest.mark.parametrize("odd", [-0.0, -1.0, -5e-324, float("nan"), -float("nan"),
                                     float("inf"), float("-inf"), 2.0**31, 1e300])
    def test_values_left_to_percent_format(self, odd):
        assert reporting._fixed2(np.array([1.0, odd, 2.0]), ",") is None


class TestChunkEdges:
    """Both exports with ROC_CHUNK_POINTS patched small, so chunk edges fall
    inside runs of equal rates and some chunks take "%.2f" while others
    take the integer hundredths."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(curve_name, swept_curves() | column_curves() | odd_curves()),
                    min_size=1, max_size=3),
           st.integers(1, 7))
    def test_csv_and_svg_bytes(self, curves, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reporting, "ROC_CHUNK_POINTS", chunk)
            for _, curve in curves:
                assert reporting.roc_points_csv(curve) == reference_roc_points_csv(curve)
            assert reporting.roc_svg(curves) == reference_roc_svg(curves)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    def test_signed_zeros_and_coordinates_left_to_percent_format(self, chunk, monkeypatch):
        monkeypatch.setattr(reporting, "ROC_CHUNK_POINTS", chunk)
        nan, inf = float("nan"), float("inf")
        curve = rc.RocCurve(
            np.array([0.0, -0.0, -0.0, 0.5, -1.0, nan, 0.25, inf, -inf, 1e7, 1.0]),
            np.array([0.0, 0.0, -0.0, 0.5, 0.5, 0.75, nan, 1e7, 1.0, -inf, 1.0]),
            np.array([inf, 0.0, -0.0, -0.0, 0.0, 1.0, 1.0, -inf, nan, 0.5, 0.5]), 0.5)
        assert reporting.roc_points_csv(curve) == reference_roc_points_csv(curve)
        assert reporting.roc_svg([("odd", curve)]) == reference_roc_svg([("odd", curve)])


class TestRocColumns:
    def test_columns_are_read_only_float64(self):
        curve = rc.roc_curve([0.9, 0.3, 0.8, 0.1], ["p", "p", "n", "n"], "p")
        for column in (curve.fpr, curve.tpr, curve.cutoff):
            assert column.dtype == np.float64
            assert not column.flags.writeable
        assert curve.fpr.tolist() == [0.0, 0.0, 0.5, 0.5, 1.0]
        assert curve.tpr.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]
        assert curve.cutoff.tolist() == [float("inf"), 0.9, 0.8, 0.3, 0.1]

    def test_points_are_the_columns_as_triples(self):
        curve = rc.roc_curve([0.5, -0.0, 0.0, 2.0], ["p", "n", "p", "n"], "p")
        assert repr(curve.points) == repr(tuple(
            zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.cutoff.tolist())))
        assert all(type(v) is float for point in curve.points for v in point)

    def test_equal_curves_compare_equal(self):
        a = rc.roc_curve([0.9, 0.3, 0.8, 0.1], ["p", "p", "n", "n"], "p")
        b = rc.roc_curve([0.1, 0.8, 0.3, 0.9], ["n", "n", "p", "p"], "p")
        c = rc.roc_curve([0.9, 0.3, 0.8, 0.2], ["p", "p", "n", "n"], "p")
        assert a == b
        assert a != c
        assert a != a.points

    def test_n_points_in_block(self):
        curve = rc.roc_curve([0.5, 0.5, 0.1], ["p", "n", "n"], "p")
        assert reporting.roc_block(curve) == {"auc": curve.auc, "n_points": 3}


def test_roc_curve_peak_memory_for_40k_distinct_scores():
    # 40,000 distinct scores; the columns take about 1 MiB, per-point
    # tuples of Python floats took 9.25 MiB at peak
    rng = np.random.default_rng(5)
    scores = rng.permutation(40_000) / 7.0
    labels = ["p" if v else "n" for v in rng.random(40_000) < 0.5]
    rc.roc_curve(scores[:10], labels[:10], "p")  # warm up imports and caches
    peak = traced_peak(lambda: rc.roc_curve(scores, labels, "p"))
    assert peak < 6 * 2**20
    assert rc.roc_curve(scores, labels, "p").fpr.size == 40_001


def test_roc_csv_peak_memory_for_40k_distinct_scores():
    # the text is 2.1 MiB, held twice while its blocks are joined; one
    # Python float per cell and their tuple, all at once, peaked at 7.8 MiB
    rng = np.random.default_rng(5)
    scores = rng.permutation(40_000) / 7.0
    labels = ["p" if v else "n" for v in rng.random(40_000) < 0.5]
    curve = rc.roc_curve(scores, labels, "p")
    reporting.roc_points_csv(rc.roc_curve(scores[:10], labels[:10], "p"))
    peak = traced_peak(lambda: reporting.roc_points_csv(curve))
    assert peak < 5.5 * 2**20
    assert reporting.roc_points_csv(curve) == reference_roc_points_csv(curve)
