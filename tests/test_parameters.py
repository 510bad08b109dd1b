"""Scalar parameters: one rule, one error type, a message that names them.

Every scalar parameter of the library is checked by the same rule: a
finite real number that is not a bool, with its own range on top. A bad
value is a ValidationError whose message starts with the parameter's
name, never a TypeError from deeper down or a silently accepted NaN.
"""

import re

import numpy as np
import pytest

import respchain as rc

FIVE = rc.StateSpace(5)
MEM = rc.max_entropy(FIVE)

CASES = [
    ("cutoff", lambda: rc.Config(cutoff=np.nan)),
    ("states", lambda: rc.Config(states=True)),
    ("max_power", lambda: rc.Config(max_power=2.0)),
    ("length", lambda: rc.SimulationSpec(MEM, length=True)),
    ("count", lambda: rc.SimulationSpec(MEM, length=5, count=1.0)),
    ("seed", lambda: rc.SimulationSpec(MEM, length=5, seed="1")),
    ("df", lambda: rc.chi_square_p(3.0, "2")),
    ("df", lambda: rc.chi_square_p(1.0, True)),
    ("statistic", lambda: rc.chi_square_p("1", 2)),
    ("statistic", lambda: rc.chi_square_p(True, 2)),
    ("n_focal", lambda: rc.stationary_gof([0.5, 0.5], [0.5, 0.5], "x")),
    ("n_focal", lambda: rc.stationary_gof([0.5, 0.5], [0.5, 0.5], True)),
    ("criterion", lambda: rc.standardized_residuals([1, 2], [1, 2], criterion=np.nan)),
    ("criterion", lambda: rc.standardized_residuals([1, 2], [1, 2], criterion="2")),
    ("n", lambda: rc.matrix_power(MEM, 2.5)),
    ("n", lambda: rc.matrix_power(MEM, np.nan)),
    ("n", lambda: rc.matrix_power(MEM, True)),
    ("stay", lambda: rc.drunkards_walk(FIVE, stay="a")),
    ("stay", lambda: rc.drunkards_walk(FIVE, stay=np.nan)),
    ("step", lambda: rc.drunkards_walk(FIVE, step=True)),
    ("epsilon_floor", lambda: rc.drunkards_walk(FIVE, epsilon_floor=np.inf)),
]


@pytest.mark.parametrize("name, call", CASES,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(CASES)])
def test_bad_scalar_is_a_validation_error_naming_it(name, call):
    with pytest.raises(rc.ValidationError, match=f"^{re.escape(name)} must be "):
        call()


def test_model_config_names_the_walk_parameter():
    spec = rc.TheoreticalModelSpec("walk", "drunkards_walk", {"stay": "a"})
    with pytest.raises(rc.ValidationError,
                       match="^model 'walk': stay must be a finite number, got 'a'$"):
        spec.build(FIVE)


@pytest.mark.parametrize("n", [1, 3, np.int64(2), 4.0])
def test_matrix_power_takes_whole_numbers(n):
    m = rc.drunkards_walk(FIVE)
    assert np.array_equal(rc.matrix_power(m, n).probs, np.linalg.matrix_power(m.probs, int(n)))
