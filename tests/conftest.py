"""Shared reference data for the test suite.

The two clinical-group matrices, the published ratio/log-ratio tables,
and the worked single-participant sequence are used across many test
modules, so they live here once.
"""

import contextlib
import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

import respchain as rc

# Pooled first-order transition matrices of the two training groups,
# rows/columns in state order 1..5.
ADHD_ROWS = np.array([
    [0.300, 0.300, 0.300, 0.080, 0.020],
    [0.190, 0.290, 0.400, 0.110, 0.010],
    [0.090, 0.270, 0.450, 0.170, 0.020],
    [0.090, 0.160, 0.450, 0.240, 0.060],
    [0.030, 0.180, 0.350, 0.260, 0.180],
])

OCD_ROWS = np.array([
    [0.330, 0.290, 0.290, 0.060, 0.030],
    [0.100, 0.340, 0.400, 0.140, 0.020],
    [0.070, 0.240, 0.430, 0.210, 0.050],
    [0.060, 0.100, 0.370, 0.340, 0.130],
    [0.040, 0.040, 0.260, 0.400, 0.260],
])

# Published element-wise ratio (OCD/ADHD) and its log2, both rounded to
# two decimals in the source.
RATIO_TABLE = np.array([
    [1.10, 0.97, 0.97, 0.75, 1.50],
    [0.53, 1.17, 1.00, 1.27, 2.00],
    [0.78, 0.89, 0.96, 1.24, 2.50],
    [0.67, 0.63, 0.82, 1.42, 2.17],
    [1.33, 0.22, 0.74, 1.54, 1.44],
])

LOG_RATIO_TABLE = np.array([
    [0.14, -0.04, -0.04, -0.42, 0.58],
    [-0.92, 0.23, 0.00, 0.34, 1.00],
    [-0.36, -0.17, -0.06, 0.31, 1.32],
    [-0.58, -0.67, -0.29, 0.51, 1.12],
    [0.41, -2.18, -0.43, 0.62, 0.53],
])

# Drunkard's walk matrix, its ratio against max entropy, and the log2.
DWM_TABLE = np.array([
    [0.50, 0.47, 0.01, 0.01, 0.01],
    [0.24, 0.50, 0.24, 0.01, 0.01],
    [0.01, 0.24, 0.50, 0.24, 0.01],
    [0.01, 0.01, 0.24, 0.50, 0.24],
    [0.01, 0.01, 0.01, 0.47, 0.50],
])

DWM_MEM_RATIO_TABLE = np.array([
    [2.50, 2.35, 0.05, 0.05, 0.05],
    [1.20, 2.50, 1.20, 0.05, 0.05],
    [0.05, 1.20, 2.50, 1.20, 0.05],
    [0.05, 0.05, 1.20, 2.50, 1.20],
    [0.05, 0.05, 0.05, 2.35, 2.50],
])

DWM_MEM_LOG_TABLE = np.array([
    [1.32, 1.23, -4.32, -4.32, -4.32],
    [0.26, 1.32, 0.26, -4.32, -4.32],
    [-4.32, 0.26, 1.32, 0.26, -4.32],
    [-4.32, -4.32, 0.26, 1.32, 0.26],
    [-4.32, -4.32, -4.32, 1.23, 1.32],
])

# The three stationary response profiles, their ratios against max
# entropy (one representative row each; all rows identical), and logs.
SYMMETRIC_VECTOR = np.array([0.10, 0.20, 0.40, 0.20, 0.10])
SKEW_POS_VECTOR = np.array([0.25, 0.40, 0.20, 0.10, 0.05])
SKEW_NEG_VECTOR = np.array([0.05, 0.10, 0.20, 0.40, 0.25])

SYMMETRIC_RATIO_ROW = np.array([0.50, 1.00, 2.00, 1.00, 0.50])
SKEW_POS_RATIO_ROW = np.array([1.25, 2.00, 1.00, 0.50, 0.25])
SKEW_NEG_RATIO_ROW = np.array([0.25, 0.50, 1.00, 2.00, 1.25])

SYMMETRIC_LOG_ROW = np.array([-1.00, 0.00, 1.00, 0.00, -1.00])
SKEW_POS_LOG_ROW = np.array([0.32, 1.00, 0.00, -1.00, -2.00])
SKEW_NEG_LOG_ROW = np.array([-2.00, -1.00, 0.00, 1.00, 0.32])

# The worked participant: sequence, transition counts, row estimates.
O05_SEQUENCE = "3243232443244333"

# Published stationary distributions (reported to three decimals).
ADHD_STATIONARY = np.array([0.145, 0.260, 0.412, 0.155, 0.028])
OCD_STATIONARY = np.array([0.097, 0.221, 0.384, 0.223, 0.075])


@pytest.fixture(scope="session")
def space():
    return rc.StateSpace(5)


@pytest.fixture(scope="session")
def adhd_matrix():
    return rc.TransitionMatrix.from_rows(ADHD_ROWS)


@pytest.fixture(scope="session")
def ocd_matrix():
    return rc.TransitionMatrix.from_rows(OCD_ROWS)


@pytest.fixture(scope="session")
def o05(space):
    return rc.ResponseSequence("O05", [int(c) for c in O05_SEQUENCE], group="OCD")


@pytest.fixture(scope="session")
def published_lr():
    return rc.LogRatioMatrix(LOG_RATIO_TABLE, "OCD", "ADHD")


def random_stochastic_matrix(rng, k, zeros=False):
    """A random fully defined transition matrix; optionally with zero cells."""
    rows = rng.dirichlet(np.ones(k), size=k)
    if zeros:
        i, j = rng.integers(0, k, 2)
        rows[i, j] = 0.0
        rows[i] /= rows[i].sum()
    return rc.TransitionMatrix.from_rows(rows)


@contextlib.contextmanager
def field_limit(limit):
    """csv.field_size_limit set to limit inside the block, then restored."""
    old = csv.field_size_limit(limit)
    try:
        yield limit
    finally:
        csv.field_size_limit(old)


def traced_peak(fn):
    """The peak bytes tracemalloc traces while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Master seeds of every word count numpy's SeedSequence treats differently:
# zero, one to four 32-bit words (padded to its 4-word pool) and more than
# four (mixed in after the pool). The exact values are the largest three-
# and four-word seeds and the smallest five-word one, past which the number
# of hash calls before a spawn key is mixed in grows.
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.sampled_from([2**96 - 1, 2**128 - 1, 2**128]),
    st.integers(2**128, 2**200),
)
