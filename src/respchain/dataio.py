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
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .chain import ResponseSequence, StateSpace, _columns, _readonly
from .errors import ValidationError
from .models import TheoreticalModelSpec

CSV_HEADER = ("participant_id", "group", "responses")
CONFIG_ENV_VAR = "RESPCHAIN_CONFIG"

# Rows whose responses load_cohort checks as one column at a time; a fault
# sends only its own block through the row-by-row parser.
PARSE_BLOCK_ROWS = 1024

# States write_cohort converts to text at a time within a ';'-joined row.
WRITE_BLOCK_STATES = 1 << 16

_CONFIG_KEYS = {
    "states", "state_labels", "tolerance", "max_power", "epsilon_floor",
    "smoothing_alpha", "cutoff", "mode", "models",
}


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
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(
            f"config {path}: unknown key(s) {', '.join(sorted(unknown))}"
        )
    models = []
    for name, body in (raw.pop("models", None) or {}).items():
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


def _parse_responses(cell, k, where):
    """The 1-based states of a responses cell; at least two, all in 1..k."""
    if k <= 9:
        if not _is_ascii_digits(cell):
            raise ValidationError(
                f"{where}: responses must be a digit string for a {k}-point "
                f"scale, got {cell!r}"
            )
        values = [int(ch) for ch in cell]
    else:
        parts = [part.strip() for part in cell.split(";")]
        if not all(_is_ascii_digits(part) for part in parts):
            raise ValidationError(
                f"{where}: responses must be semicolon-separated integers, "
                f"got {cell!r}"
            )
        values = [int(part) for part in parts]
    if len(values) < 2:
        raise ValidationError(
            f"{where}: need at least 2 responses to count transitions, "
            f"got {len(values)}"
        )
    for pos, v in enumerate(values):
        if not 1 <= v <= k:
            raise ValidationError(
                f"{where}, response position {pos}: state {v} outside 1..{k}"
            )
    return values


def _column(cells, k):
    """The states of every responses cell end to end, and each cell's count.

    Checks all cells at once against the rules _parse_responses applies to
    one; None when any cell breaks one of them.
    """
    if k <= 9:
        text = "".join(cells)
        if not _is_ascii_digits(text):
            return None
        states = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - 48
        lengths = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    else:
        parts = [part.strip() for part in ";".join(cells).split(";")]
        if not (all(parts) and _is_ascii_digits("".join(parts))):
            return None
        try:
            states = np.array(parts, dtype=np.int64)
        except OverflowError:  # a state far above k
            return None
        lengths = np.fromiter((cell.count(";") + 1 for cell in cells),
                              dtype=np.int64, count=len(cells))
    if lengths.min() < 2 or states.min() < 1 or states.max() > k:
        return None
    return states.astype(np.min_scalar_type(k), copy=False), lengths


def _responses(cells, lines, k, path):
    """The states and lengths of the responses cells that parse, and the rest.

    Returns (states, lengths, bad): bad lists (index, ValidationError) for
    every cell that does not parse, in order, each error naming the cell's
    line exactly as _parse_responses does. Cells are checked as one column
    PARSE_BLOCK_ROWS at a time; only a block in which that check finds a
    fault is parsed cell by cell.
    """
    dtype = np.min_scalar_type(k)
    states, lengths, bad = [np.zeros(0, dtype)], [np.zeros(0, np.int64)], []
    for start in range(0, len(cells), PARSE_BLOCK_ROWS):
        block = cells[start:start + PARSE_BLOCK_ROWS]
        column = _column(block, k)
        if column is None:
            values = []
            for i, cell in enumerate(block, start):
                try:
                    values.append(_parse_responses(cell, k, f"{path}, line {lines[i]}"))
                except ValidationError as exc:
                    bad.append((i, exc))
            column = (np.fromiter(itertools.chain.from_iterable(values), dtype=dtype),
                      np.fromiter(map(len, values), dtype=np.int64, count=len(values)))
        states.append(column[0])
        lengths.append(column[1])
    return np.concatenate(states), np.concatenate(lengths), bad


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
    per-row checks; the responses are then checked and converted as one
    column.
    """
    space = config.state_space
    strict = config.mode == "strict"
    ids, groups, cells, lines = [], [], [], []
    labels = {}  # one shared object per group label
    rejected = []  # (line, problem) of rows the per-row checks turned away
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
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    rejected.append((lineno, f"expected 3 columns, got {len(row)}"))
                elif not (pid := row[0].strip()):
                    rejected.append((lineno, "empty participant_id"))
                else:
                    group = row[1].strip() or None
                    ids.append(pid)
                    groups.append(labels.setdefault(group, group))
                    cells.append(row[2].strip())
                    lines.append(lineno)
                    continue
                if strict:
                    break
        except (csv.Error, ValidationError):
            # strict mode reports the first bad line, so a bad row read
            # before a fault in the file beats the fault
            if strict and (bad := _responses(cells, lines, space.size, path)[2]):
                raise bad[0][1] from None
            raise
    states, lengths, bad = _responses(cells, lines, space.size, path)
    problems = sorted(
        [(lines[i], exc) for i, exc in bad]
        + [(line, ValidationError(f"{path}, line {line}: {problem}"))
           for line, problem in rejected],
        key=lambda item: item[0],
    )
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


def _joined(states, sep):
    """The states as decimal text joined by sep, converted a block of
    WRITE_BLOCK_STATES at a time: a long row never holds a Python int and
    str per state at once."""
    return sep.join(sep.join(map(str, states[i:i + WRITE_BLOCK_STATES].tolist()))
                    for i in range(0, len(states), WRITE_BLOCK_STATES))


def write_cohort(cohort, space, path):
    """Write a cohort in the CSV format load_cohort reads.

    cohort is a columnar cohort, such as a CohortDataset, or a list of
    ResponseSequence.
    """
    ids, groups, states, lengths = _columns(cohort)
    ends = np.cumsum(lengths).tolist()
    lengths = lengths.tolist()
    if space.size <= 9 and states.size and states.max() <= 9:
        # one digit per state, so each row's cell is a slice of one text
        text = (states.astype(np.uint8) + 48).tobytes().decode("ascii")
        cells = [text[end - length:end] for end, length in zip(ends, lengths)]
    else:
        sep = ";" if space.size > 9 else ""
        cells = [_joined(states[end - length:end], sep) for end, length in zip(ends, lengths)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows((pid, group or "", cell)
                         for pid, group, cell in zip(ids, groups, cells))
