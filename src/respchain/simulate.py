"""Synthetic response sequences drawn from a transition matrix.

Reproducibility contract: the generator is numpy's PCG64. Sequence i of a
cohort uses the stream SeedSequence(master_seed, spawn_key=(i,)), so each
participant's draws depend only on the master seed and their index, never
on execution order. A cohort of many short sequences draws every stream in
one vectorised pass that is bit-identical to numpy's Generator; otherwise
each stream comes from its own Generator. The whole cohort is then walked
by one call to the deterministic walk kernel.

When no initial distribution is given, the matrix's stationary
distribution is used if it exists, falling back to uniform for chains
that have none; ``resolve_initial`` reports which was chosen so output
metadata can say so.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .chain import (
    StateSpace, TransitionMatrix, _is_int, _readonly, _require_fully_defined, stationary,
)
from .dataio import CohortDataset
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
        if not _is_int(self.length) or self.length < 2:
            raise ValidationError(f"length must be an integer >= 2, got {self.length!r}")
        if not _is_int(self.count) or self.count < 1:
            raise ValidationError(f"count must be an integer >= 1, got {self.count!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        _require_fully_defined(self.matrix, "simulation")
        if self.initial_distribution is not None:
            init = np.asarray(self.initial_distribution, dtype=np.float64)
            if init.shape != (self.matrix.size,):
                raise ValidationError(
                    f"initial distribution needs {self.matrix.size} entries"
                )
            if (not np.isfinite(init).all() or init.min() < 0
                    or abs(init.sum() - 1.0) > 1e-9):
                raise ValidationError(
                    "initial distribution must be finite, nonnegative and sum to 1")
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


# numpy's SeedSequence: hash constants, and the pool size in 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier as uint64 halves, and the low half's
# 32-bit limbs, least significant first
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M_HI, _M_LO = np.uint64(_MULT >> 64), np.uint64(_MULT & 0xFFFFFFFFFFFFFFFF)
_B0, _B1 = np.uint64(_MULT & _M32), np.uint64(_MULT >> 32 & _M32)
# uint64 scalars for masks and shifts, so that no operand is promoted
_LOW = np.uint64(_M32)
_1, _11, _32, _58, _63 = map(np.uint64, (1, 11, 32, 58, 63))


def _hashmix(value, const):
    """SeedSequence's hashmix of uint32 words, and the next hash constant."""
    value = value ^ np.uint32(const)
    const = const * _MULT_A & _M32
    value = value * np.uint32(const)
    return value ^ (value >> 16), const


def _mix(x, y):
    value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return value ^ (value >> 16)


def _stream_states(seed, indices):
    """SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64) for every
    i in indices (each below 2**32), as the 32-bit words PCG64 is seeded from.

    Returns (initstate, initseq), each four uint64 arrays of 32-bit limbs,
    least significant first. The spawn key is the last entropy word, and the
    pool before it is mixed in is SeedSequence(seed).pool for every row:
    with a spawn key numpy pads the seed's w >= 1 32-bit words with zeros to
    the pool size, and without one it hashes zeros for the missing words, so
    both reach that pool after c = 16 + 4 * max(w - 4, 0) hashmix calls. Its
    words are one-element arrays that broadcast against the spawn keys.
    """
    pool = list(np.random.SeedSequence(seed).pool[:, None])
    calls = 16 + 4 * max(-(-seed.bit_length() // 32) - _POOL, 0)
    const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _M32
    key = np.asarray(indices, dtype=np.uint32)
    for dst in range(_POOL):
        value, const = _hashmix(key, const)
        pool[dst] = _mix(pool[dst], value)
    const = _INIT_B
    out = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        out.append((value ^ (value >> 16)).astype(np.uint64))
    # uint64 word j is out[2j] | out[2j+1] << 32; PCG64 reads words 0, 1 as
    # the high and low halves of initstate and words 2, 3 as those of initseq
    return out[2:4] + out[0:2], out[6:8] + out[4:6]


def _vectorised_uniforms(seed, indices, length):
    """Generator(PCG64(SeedSequence(seed, spawn_key=(i,)))).random(length)
    for every i in indices (each below 2**32), computed for all streams at
    once: PCG64's seeding, its XSL-RR output and the 53-bit float
    conversion. Returns the (N, length) transpose of a C-contiguous
    (length, N) array, so that walk reads each step's draws as one row.

    A 128-bit state is held as uint64 halves (hi, lo). A step of state * M
    + inc is lo * M_lo + inc_lo, with a carry into hi when that wraps below
    inc_lo, and hi * M_lo + lo * M_hi + inc_hi + mulhi(lo, M_lo), where
    only mulhi is taken on 32-bit limbs.
    """
    initstate, initseq = _stream_states(seed, indices)
    hi, lo, seq_hi, seq_lo = (limbs[i] | (limbs[i + 1] << _32)
                              for limbs in (initstate, initseq) for i in (2, 0))
    inc_hi = (seq_hi << _1) | (seq_lo >> _63)
    inc_lo = (seq_lo << _1) | _1
    # pcg64_srandom: from state 0 one step gives inc; add initstate; step
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    a, b, c, d = (np.empty_like(lo) for _ in range(4))
    u = np.empty((length, len(lo)))
    for t in range(-1, length):
        # b = mulhi(lo, M_lo) from the limbs a, b of lo; no sum reaches 2**64
        np.bitwise_and(lo, _LOW, out=a)
        np.right_shift(lo, _32, out=b)
        np.right_shift(np.multiply(a, _B0, out=c), _32, out=c)
        np.add(np.multiply(b, _B0, out=d), c, out=d)
        np.add(np.bitwise_and(d, _LOW, out=c), np.multiply(a, _B1, out=a), out=c)
        np.add(np.multiply(b, _B1, out=b), np.right_shift(d, _32, out=d), out=b)
        b += np.right_shift(c, _32, out=c)
        hi *= _M_LO
        hi += np.multiply(lo, _M_HI, out=a)
        hi += b
        hi += inc_hi
        lo *= _M_LO
        lo += inc_lo
        hi += lo < inc_lo
        if t >= 0:  # past the seeding step: (hi ^ lo) rotated right by hi >> 58
            np.bitwise_xor(hi, lo, out=a)
            np.right_shift(hi, _58, out=b)
            np.right_shift(a, b, out=c)
            a <<= np.bitwise_and(np.negative(b, out=b), _63, out=b)
            a |= c
            np.multiply(np.right_shift(a, _11, out=a), 2.0**-53, out=u[t])
    return u.T


def _generator_uniforms(seed, indices, length):
    """_vectorised_uniforms' draws from one numpy Generator per row, as a
    C-contiguous (N, length) array: row r holds stream indices[r]."""
    u = np.empty((len(indices), length))
    for row, i in zip(u, indices.tolist()):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        np.random.Generator(np.random.PCG64(ss)).random(out=row)
    return u


# Measured costs on a 2-CPU x86-64 host (Python 3.11, numpy 2.4), fitted
# to best-of-9 timings of both paths at (count, length) = (20,000, 16),
# (3, 1,700) and (1,000, 1,000). The vectorised pass spends about _DRAW_S
# per draw on 64-bit arithmetic plus _STEP_S per step on the fixed cost of
# that step's ~30 numpy calls; a Generator costs about _ROW_S per row to
# build and _GEN_DRAW_S per draw. So many short rows favour the vectorised
# pass, and few rows or rows of more than about 1,000 draws favour one
# Generator per row.
_DRAW_S, _STEP_S = 14e-9, 16e-6
_ROW_S, _GEN_DRAW_S = 13e-6, 3e-9


def _vectorise(count, length):
    """Whether the vectorised pass is the cheaper way to draw count rows of
    length uniforms. It also needs every spawn key to fit in one 32-bit
    word, which the cost rule alone would not ensure for huge counts."""
    return count <= 1 << 32 and \
        (_DRAW_S * count + _STEP_S) * length < (_ROW_S + _GEN_DRAW_S * length) * count


def draw_cohort(spec, initial, group=None, id_prefix="sim"):
    """The cohort the spec describes, started from the distribution
    `initial`, as a columnar CohortDataset with ids id_prefix0000, ...
    Its states have the smallest unsigned type that holds K, as a loaded
    cohort's do.

    The uniforms for every sequence are drawn first, by the vectorised pass
    or one Generator per sequence as _vectorise chooses; both give the same
    bits, the first step-major (a transposed view) and the second row-major.
    One call to the walk kernel then walks the whole cohort. The ids come
    from one %-format, the prefix's own % signs doubled.
    """
    count, length = spec.count, spec.length
    draw = _vectorised_uniforms if _vectorise(count, length) else _generator_uniforms
    u = draw(int(spec.seed), np.arange(count), length)
    first = np.searchsorted(np.cumsum(initial), u[:, 0], side="right")
    first = np.minimum(first, spec.matrix.size - 1) + 1
    states = _kernels.walk(np.cumsum(spec.matrix.probs, axis=1), first, u[:, 1:])
    ids = list(map((id_prefix.replace("%", "%%") + "%04d").__mod__, range(count)))
    return CohortDataset(ids, (group,) * count, states.ravel(), np.full(count, length),
                         StateSpace(spec.matrix.size), "simulation")


def generate_cohort(spec, group=None, id_prefix="sim", workers=1):
    """Draw `count` independent sequences from per-index derived seeds.

    `workers` is accepted for compatibility and ignored: the whole cohort
    is walked in one vectorized pass.
    """
    return list(draw_cohort(spec, resolve_initial(spec)[0], group, id_prefix).sequences)


def generate_sequence(spec, group=None, id_prefix="sim"):
    """Draw the first sequence of the cohort the spec describes."""
    return generate_cohort(replace(spec, count=1), group, id_prefix)[0]
