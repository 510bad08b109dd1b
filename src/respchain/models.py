"""Reference transition models that need no data to build.

Three families:

* a drunkard's walk on the scale: mostly stay, sometimes step one point up
  or down, almost never jump further;
* a maximum-entropy model where every transition is equally likely;
* rank-one models whose every row equals a chosen stationary vector, which
  makes that vector the stationary distribution by construction.

``builtin_models`` exposes the named instances used throughout: a
maximum-entropy "MEM" on every scale, and on the 5-point scale only a
drunkard's walk "DWM" and three rank-one profiles ("symmetric", "skewed+",
"skewed-"). Other scales get a drunkard's walk from a config model.
"""

from dataclasses import dataclass, field

import numpy as np

from .chain import TransitionMatrix, _number
from .errors import ValidationError

DWM_STAY = 0.50
DWM_STEP = 0.24
DWM_EPSILON_FLOOR = 0.01

SYMMETRIC_PROFILE = (0.10, 0.20, 0.40, 0.20, 0.10)
SKEW_POSITIVE_PROFILE = (0.25, 0.40, 0.20, 0.10, 0.05)
SKEW_NEGATIVE_PROFILE = (0.05, 0.10, 0.20, 0.40, 0.25)

_ROW_CLOSURE_TOL = 1e-6


def max_entropy(space):
    """All transitions equally likely: every cell 1/K."""
    k = space.size
    return TransitionMatrix.from_rows(np.full((k, k), 1.0 / k))


def drunkards_walk(space, stay=DWM_STAY, step=DWM_STEP, epsilon_floor=DWM_EPSILON_FLOOR):
    """Local-movement model: stay with probability `stay`, step to an
    adjacent scale point with probability `step`, reach anything else with
    floor probability `epsilon_floor`.

    At the two ends of the scale there is only one neighbour, so the lone
    neighbour absorbs the missing step mass (2*step - epsilon_floor) and
    the row still closes to 1. Parameter triples whose rows do not close
    within 1e-6 are rejected, with the residual reported.
    """
    walk = {"stay": stay, "step": step, "epsilon_floor": epsilon_floor}
    if min(_number(value, name, signed=True) for name, value in walk.items()) <= 0:
        raise ValidationError("stay, step and epsilon_floor must all be positive")
    k = space.size
    m = np.full((k, k), epsilon_floor)
    np.fill_diagonal(m, stay)
    i = np.arange(k - 1)
    m[i, i + 1] = m[i + 1, i] = step
    m[0, 1] = 2 * step - epsilon_floor
    m[k - 1, k - 2] = 2 * step - epsilon_floor
    residual = np.abs(m.sum(axis=1) - 1.0).max()
    if residual > _ROW_CLOSURE_TOL:
        raise ValidationError(
            f"drunkard's walk rows do not close to 1 with stay={stay}, "
            f"step={step}, epsilon_floor={epsilon_floor} on {k} states "
            f"(worst row residual {residual:.3e})"
        )
    return TransitionMatrix.from_rows(m)


def from_stationary_vector(vector):
    """Rank-one lift: every row is the given probability vector.

    Wherever the chain sits, the next state is drawn from the same
    distribution, so the vector is stationary after a single step.
    """
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValidationError("need a 1-d probability vector of length >= 2")
    return TransitionMatrix.from_rows(np.tile(v, (v.size, 1)))


@dataclass(frozen=True)
class TheoreticalModelSpec:
    """Declarative recipe for a theoretical model, as read from a config.

    kind is one of "drunkards_walk", "max_entropy", "from_stationary_vector"
    or "explicit"; params carries the kind-specific pieces (stay, step,
    epsilon_floor for the walk; vector for a rank-one lift; rows for an
    explicit matrix).
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def build(self, space):
        """The model's matrix on `space`.

        A missing or malformed parameter is a ValidationError naming the
        model.
        """
        try:
            m = self._matrix(space)
        except KeyError as exc:
            raise ValidationError(
                f"model {self.name!r}: kind {self.kind!r} needs parameter {exc.args[0]!r}"
            ) from exc
        except (TypeError, ValueError, ValidationError) as exc:
            raise ValidationError(f"model {self.name!r}: {exc}") from exc
        if m.size != space.size:
            raise ValidationError(
                f"model {self.name!r} has {m.size} states, expected {space.size}"
            )
        return m

    def _matrix(self, space):
        if self.kind == "max_entropy":
            return max_entropy(space)
        if self.kind == "drunkards_walk":
            return drunkards_walk(
                space,
                stay=self.params.get("stay", DWM_STAY),
                step=self.params.get("step", DWM_STEP),
                epsilon_floor=self.params.get("epsilon_floor", DWM_EPSILON_FLOOR),
            )
        if self.kind == "from_stationary_vector":
            return from_stationary_vector(self.params["vector"])
        if self.kind == "explicit":
            return TransitionMatrix.from_rows(self.params["rows"])
        raise ValidationError(f"unknown model kind {self.kind!r}")


def builtin_models(space):
    """Named reference models available on this state space.

    MEM always; DWM and the three rank-one response profiles only on the
    5-point scale they were defined for.
    """
    out = {"MEM": max_entropy(space)}
    if space.size == 5:
        out["DWM"] = drunkards_walk(space)
        out["symmetric"] = from_stationary_vector(SYMMETRIC_PROFILE)
        out["skewed+"] = from_stationary_vector(SKEW_POSITIVE_PROFILE)
        out["skewed-"] = from_stationary_vector(SKEW_NEGATIVE_PROFILE)
    return out
