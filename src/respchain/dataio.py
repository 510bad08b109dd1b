"""Reading and writing cohort CSV files, and runtime configuration.

The CSV format is one row per participant with the exact header
``participant_id,group,responses``. For scales up to 9 points the
responses cell is a compact digit string ("3243232443244333"); for wider
scales it is semicolon-separated integers. The group cell may be empty.

Configuration is a flat JSON document; every key has a default, and
command-line flags override file values. The environment variable
RESPCHAIN_CONFIG names a default config file for when --config is not
given.
"""

import csv
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .chain import ResponseSequence, StateSpace, _check_states, _columns, _readonly
from .errors import ValidationError
from .models import TheoreticalModelSpec

CSV_HEADER = ("participant_id", "group", "responses")
CONFIG_ENV_VAR = "RESPCHAIN_CONFIG"

# States write_cohort converts to text at a time within a ';'-joined row.
WRITE_BLOCK_STATES = 1 << 16

@dataclass(frozen=True)
class Config:
    """Tunable defaults shared by every subcommand."""

    states: int = 5
    state_labels: tuple | None = None
    tolerance: float = 5e-4
    max_power: int = 64
    epsilon_floor: float = 0.01
    smoothing_alpha: float = 0.0
    cutoff: float = 0.0
    mode: str = "strict"
    models: tuple = ()

    def __post_init__(self):
        for name in ("tolerance", "epsilon_floor", "smoothing_alpha", "cutoff"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        for name in ("states", "max_power"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.states < 2:
            raise ValidationError(f"states must be >= 2, got {self.states}")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if self.max_power < 1:
            raise ValidationError("max_power must be >= 1")
        if not 0 <= self.epsilon_floor <= 1:
            raise ValidationError(
                f"epsilon_floor must lie in [0, 1], got {self.epsilon_floor}"
            )
        if self.smoothing_alpha < 0:
            raise ValidationError("smoothing_alpha must be >= 0")
        if self.mode not in ("strict", "lenient"):
            raise ValidationError(
                f"mode must be 'strict' or 'lenient', got {self.mode!r}"
            )
        if self.state_labels is not None:
            if not isinstance(self.state_labels, (list, tuple)) or not all(
                    isinstance(label, (str, numbers.Real)) and not isinstance(label, bool)
                    for label in self.state_labels):
                raise ValidationError("state_labels must be an array of strings or "
                                      f"numbers, got {self.state_labels!r}")
            object.__setattr__(self, "state_labels", tuple(self.state_labels))

    @property
    def state_space(self):
        return StateSpace(self.states, self.state_labels or ())

    def override(self, **kwargs):
        """A copy with the given fields replaced (None values ignored)."""
        changes = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **changes) if changes else self


def load_config(path=None):
    """Read a flat JSON config; fall back to $RESPCHAIN_CONFIG, then defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return Config()
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ValidationError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"config {path}: expected a JSON object")
    unknown = set(raw).difference(f.name for f in fields(Config))
    if unknown:
        raise ValidationError(
            f"config {path}: unknown key(s) {', '.join(sorted(unknown))}"
        )
    bodies = raw.pop("models", {})
    if not isinstance(bodies, dict):
        raise ValidationError(f"config {path}: models must be an object, got {bodies!r}")
    models = []
    for name, body in bodies.items():
        if not isinstance(body, dict) or "kind" not in body:
            raise ValidationError(
                f"config {path}: model {name!r} needs an object with a 'kind'"
            )
        params = {k: v for k, v in body.items() if k != "kind"}
        models.append(TheoreticalModelSpec(name, body["kind"], params))
    return Config(models=tuple(models), **raw)


@dataclass(frozen=True, eq=False)
class CohortDataset:
    """A validated cohort on one state space, held in columns.

    Row i is participant participant_ids[i], in group groups[i] (None for
    no group), with the 1-based responses
    states[starts[i]:starts[i] + lengths[i]]. states is one flat read-only
    array of the smallest unsigned integer type that holds K. sequences
    and by_group give the rows as ResponseSequence objects, built on first
    use. skipped holds a (line, message) pair per input row that lenient
    mode skipped, in line order.
    """

    participant_ids: tuple
    groups: tuple
    states: np.ndarray
    lengths: np.ndarray
    state_space: StateSpace
    source: str
    skipped: tuple = ()

    def __post_init__(self):
        ids = tuple(self.participant_ids)
        groups = tuple(self.groups)
        lengths = _readonly(np.asarray(self.lengths, dtype=np.int64))
        states = _readonly(np.asarray(self.states))
        if len(groups) != len(ids) or lengths.shape != (len(ids),) \
                or states.ndim != 1 or lengths.sum() != states.size:
            raise ValidationError(
                "cohort columns disagree: one id, group and length per row, "
                "and the lengths must add up to the number of states"
            )
        if len(set(ids)) < len(ids):
            seen = set()
            for pid in ids:
                if pid in seen:
                    raise ValidationError(f"duplicate participant id {pid!r}")
                seen.add(pid)
        object.__setattr__(self, "participant_ids", ids)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "states", states)

    def __len__(self):
        return len(self.participant_ids)

    @property
    def warnings(self):
        """One "skipped: ..." line per row that lenient mode skipped."""
        return tuple(f"skipped: {message}" for _, message in self.skipped)

    @property
    def starts(self):
        """Where each row's responses begin in states."""
        return np.cumsum(self.lengths) - self.lengths

    @cached_property
    def group_labels(self):
        return frozenset(self.groups) - {None}

    @cached_property
    def sequences(self):
        """The rows as ResponseSequence objects, in file order."""
        ends = np.cumsum(self.lengths).tolist()
        return tuple(
            ResponseSequence(pid, self.states[end - length:end], group)
            for pid, group, end, length in zip(self.participant_ids, self.groups,
                                               ends, self.lengths.tolist())
        )

    def by_group(self, group):
        out = [s for s in self.sequences if s.group == group]
        if not out:
            raise self.missing_group(group)
        return out

    def missing_group(self, group):
        """The error for a group that no sequence belongs to."""
        return ValidationError(
            f"no sequences in group {group!r}; groups present: "
            f"{sorted(self.group_labels) or 'none'}"
        )


def _is_ascii_digits(text):
    return text.isascii() and text.isdigit()


def _responses(cells, lines, k, path):
    """The states and lengths of the responses cells that parse, and the rest.

    Returns (states, lengths, bad): bad lists (index, ValidationError) for
    every cell that does not parse, in order, each naming the cell's line
    and its first fault: not digits, fewer than 2 states, or the first
    state outside 1..k. The whole column is checked and converted at once;
    only when it has a fault are the bad cells' faults read from the same
    arrays.
    """
    dtype, n = np.min_scalar_type(k), len(cells)
    if not n:
        return np.zeros(0, dtype), np.zeros(0, np.int64), []
    lengths = np.fromiter(map(len, cells) if k <= 9 else
                          (cell.count(";") + 1 for cell in cells), dtype=np.int64, count=n)
    digits = lengths > 0  # the cells that pass the digit rule; "" is no digit string
    if k <= 9:
        tokens = "".join(cells)
        if not _is_ascii_digits(tokens):
            digits = np.fromiter(map(_is_ascii_digits, cells), bool, count=n)
            tokens = "".join(itertools.compress(cells, digits))
        states = np.frombuffer(tokens.encode("ascii"), dtype=np.uint8) - 48
    else:
        tokens = [part.strip() for part in ";".join(cells).split(";")]
        if not (all(tokens) and _is_ascii_digits("".join(tokens))):
            flags = np.fromiter(map(_is_ascii_digits, tokens), bool, count=len(tokens))
            digits = np.logical_and.reduceat(flags, np.cumsum(lengths) - lengths)
            tokens = list(itertools.compress(tokens, np.repeat(digits, lengths)))
        try:
            states = np.array(tokens, dtype=np.int64)
        except (OverflowError, ValueError):  # a state too long for int64, so above k
            states = np.array(tokens, dtype=np.float64)
    if digits.all() and lengths.min() >= 2 and states.min() >= 1 and states.max() <= k:
        return states.astype(dtype, copy=False), lengths, []
    sizes = np.where(digits, lengths, 0)  # how many states each cell put in states
    starts = np.cumsum(sizes) - sizes
    hits = np.flatnonzero((states < 1) | (states > k))
    hit_cells, first = np.unique(np.searchsorted(starts, hits, side="right") - 1,
                                 return_index=True)
    at = np.full(n, -1)  # where in states each cell's first state outside 1..k is
    at[hit_cells] = hits[first]
    faulty = ~digits | (lengths < 2) | (at >= 0)
    rule = (f"a digit string for a {k}-point scale" if k <= 9
            else "semicolon-separated integers")
    bad = []
    for i in np.flatnonzero(faulty).tolist():
        where = f"{path}, line {lines[i]}"
        if not digits[i]:
            message = f"{where}: responses must be {rule}, got {cells[i]!r}"
        elif lengths[i] < 2:
            message = (f"{where}: need at least 2 responses to count transitions, "
                       f"got {lengths[i]}")
        else:  # the state as int() would print it, but at any length
            message = (f"{where}, response position {at[i] - starts[i]}: "
                       f"state {tokens[at[i]].lstrip('0') or 0} outside 1..{k}")
        bad.append((i, ValidationError(message)))
    keep = ~faulty
    return states[np.repeat(keep, sizes)].astype(dtype, copy=False), lengths[keep], bad


def _decoded(fh, path):
    """The lines of a text file, with a decoding error as a ValidationError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from exc


def load_cohort(path, config):
    """Read and validate a cohort CSV into a columnar CohortDataset.

    The file is UTF-8, with or without a byte order mark; bytes that are
    not UTF-8 reject the whole file in either mode. Strict mode rejects the
    whole file on the first bad row; lenient mode skips bad rows and
    records each skipped line and its error message on the dataset, in
    line order.

    One csv pass collects the ids, groups and responses cells with the
    per-row checks, numbering each row by the line its record starts on.
    The responses are then checked and converted as one column; only when
    that finds a fault is each bad cell's first fault read from the same
    arrays, and its row dropped.
    """
    space = config.state_space
    strict = config.mode == "strict"
    ids, groups, cells, lines = [], [], [], []
    labels = {}  # one shared object per group label
    rejected = []  # (line, ValidationError) of rows the per-row checks turned away
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(_decoded(fh, path))
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValidationError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got "
                f"{','.join(header)!r}"
            )
        start = reader.line_num + 1
        try:
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not row:
                    continue
                if len(row) != 3:
                    problem = f"expected 3 columns, got {len(row)}"
                elif not (pid := row[0].strip()):
                    problem = "empty participant_id"
                else:
                    group = row[1].strip() or None
                    ids.append(pid)
                    groups.append(labels.setdefault(group, group))
                    cells.append(row[2].strip())
                    lines.append(lineno)
                    continue
                rejected.append(
                    (lineno, ValidationError(f"{path}, line {lineno}: {problem}")))
                if strict:
                    break
        except (csv.Error, ValidationError):
            # strict mode reports the first bad line, so a bad row read
            # before a fault in the file beats the fault
            if strict and (bad := _responses(cells, lines, space.size, path)[2]):
                raise bad[0][1] from None
            raise
    states, lengths, bad = _responses(cells, lines, space.size, path)
    problems = sorted([(lines[i], exc) for i, exc in bad] + rejected)  # lines are distinct
    if problems and strict:
        raise problems[0][1]
    if bad:
        drop = {i for i, _ in bad}
        ids = [pid for i, pid in enumerate(ids) if i not in drop]
        groups = [group for i, group in enumerate(groups) if i not in drop]
    if not ids:
        raise ValidationError(f"{path}: no usable data rows")
    return CohortDataset(ids, groups, states, lengths, space, str(path),
                         skipped=tuple((line, str(exc)) for line, exc in problems))


def _joined(states):
    """The states as decimal text joined by ';', converted a block of
    WRITE_BLOCK_STATES at a time: a long row never holds a Python int and
    str per state at once."""
    return ";".join(";".join(map(str, states[i:i + WRITE_BLOCK_STATES].tolist()))
                    for i in range(0, len(states), WRITE_BLOCK_STATES))


def write_cohort(cohort, space, path):
    """Write a cohort in the CSV format load_cohort reads.

    cohort is a columnar cohort, such as a CohortDataset, or a list of
    ResponseSequence. A state outside 1..space.size is rejected, naming
    its participant and position.
    """
    ids, groups, states, lengths = _columns(cohort)
    _check_states(ids, states, lengths, space.size)
    ends = np.cumsum(lengths).tolist()
    lengths = lengths.tolist()
    if space.size <= 9:
        # one digit per state, so each row's cell is a slice of one text
        text = (states.astype(np.uint8) + 48).tobytes().decode("ascii")
        cells = [text[end - length:end] for end, length in zip(ends, lengths)]
    else:
        cells = [_joined(states[end - length:end]) for end, length in zip(ends, lengths)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows((pid, group or "", cell)
                         for pid, group, cell in zip(ids, groups, cells))
