"""Synthetic response sequences drawn from a transition matrix.

Reproducibility contract: the generator is numpy's PCG64. Sequence i of a
cohort uses the stream SeedSequence(master_seed, spawn_key=(i,)), so each
participant's draws depend only on the master seed and their index, never
on execution order. All uniforms for a sequence are drawn in one call,
and the whole cohort is then walked by one call to the deterministic walk
kernel.

When no initial distribution is given, the matrix's stationary
distribution is used if it exists, falling back to uniform for chains
that have none; ``resolve_initial`` reports which was chosen so output
metadata can say so.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .chain import (
    ResponseSequence, TransitionMatrix, _readonly, _require_fully_defined, stationary,
)
from .errors import StructuralError, ValidationError


@dataclass(frozen=True)
class SimulationSpec:
    """What to draw: a matrix, a length, how many sequences, and a seed."""

    matrix: TransitionMatrix
    length: int
    count: int = 1
    seed: int = 0
    initial_distribution: np.ndarray | None = None

    def __post_init__(self):
        if self.length < 2:
            raise ValidationError(f"length must be >= 2, got {self.length}")
        if self.count < 1:
            raise ValidationError(f"count must be >= 1, got {self.count}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        _require_fully_defined(self.matrix, "simulation")
        if self.initial_distribution is not None:
            init = np.asarray(self.initial_distribution, dtype=np.float64)
            if init.shape != (self.matrix.size,):
                raise ValidationError(
                    f"initial distribution needs {self.matrix.size} entries"
                )
            if init.min() < 0 or abs(init.sum() - 1.0) > 1e-9:
                raise ValidationError("initial distribution must sum to 1")
            object.__setattr__(self, "initial_distribution", _readonly(init))


def resolve_initial(spec):
    """The initial distribution actually used, and where it came from.

    Returns (distribution, source) with source one of "given",
    "stationary" or "uniform".
    """
    if spec.initial_distribution is not None:
        return spec.initial_distribution, "given"
    try:
        result = stationary(spec.matrix, tolerance=1e-10, max_power=4096)
        if result.converged:
            return result.distribution, "stationary"
    except StructuralError:
        pass
    k = spec.matrix.size
    return np.full(k, 1.0 / k), "uniform"


def _draw(spec, count, id_prefix, group):
    """The first `count` sequences of the cohort the spec describes."""
    init, _ = resolve_initial(spec)
    u = np.empty((count, spec.length))
    for i in range(count):
        ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(i,))
        np.random.Generator(np.random.PCG64(ss)).random(out=u[i])
    first = np.searchsorted(np.cumsum(init), u[:, 0], side="right")
    first = np.minimum(first, spec.matrix.size - 1) + 1
    states = _kernels.walk(np.cumsum(spec.matrix.probs, axis=1), first, u[:, 1:])
    return [
        ResponseSequence(f"{id_prefix}{i:04d}", row, group)
        for i, row in enumerate(states)
    ]


def generate_cohort(spec, group=None, id_prefix="sim", workers=1):
    """Draw `count` independent sequences from per-index derived seeds.

    `workers` is accepted for compatibility and ignored: the whole cohort
    is walked in one vectorized pass.
    """
    return _draw(spec, spec.count, id_prefix, group)


def generate_sequence(spec, group=None, id_prefix="sim"):
    """Draw the first sequence of the cohort the spec describes."""
    return _draw(spec, 1, id_prefix, group)[0]
