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
import json
import math
import numbers
import os
from dataclasses import dataclass, replace

from .chain import ResponseSequence, StateSpace
from .errors import ValidationError
from .models import TheoreticalModelSpec

CSV_HEADER = ("participant_id", "group", "responses")
CONFIG_ENV_VAR = "RESPCHAIN_CONFIG"

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


@dataclass(frozen=True)
class CohortDataset:
    """A validated set of response sequences sharing one state space."""

    sequences: tuple
    state_space: StateSpace
    source: str
    group_labels: frozenset = frozenset()
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(self.sequences))
        seen = set()
        for s in self.sequences:
            if s.participant_id in seen:
                raise ValidationError(
                    f"duplicate participant id {s.participant_id!r}"
                )
            seen.add(s.participant_id)
        object.__setattr__(
            self,
            "group_labels",
            frozenset(s.group for s in self.sequences if s.group is not None),
        )

    def __len__(self):
        return len(self.sequences)

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


def _decoded(fh, path):
    """The lines of a text file, with a decoding error as a ValidationError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from exc


def load_cohort(path, config):
    """Read and validate a cohort CSV.

    The file is UTF-8, with or without a byte order mark; bytes that are
    not UTF-8 reject the whole file in either mode. Strict mode rejects the
    whole file on the first bad row; lenient mode skips bad rows and
    records a warning per skip on the dataset.
    """
    space = config.state_space
    sequences = []
    warnings = []
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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}, line {lineno}"
            try:
                if len(row) != 3:
                    raise ValidationError(
                        f"{where}: expected 3 columns, got {len(row)}"
                    )
                pid, group, responses = (c.strip() for c in row)
                if not pid:
                    raise ValidationError(f"{where}: empty participant_id")
                states = _parse_responses(responses, space.size, where)
                sequences.append(
                    ResponseSequence(pid, states, group or None)
                )
            except ValidationError as exc:
                if config.mode == "strict":
                    raise
                warnings.append(f"skipped: {exc}")
    if not sequences:
        raise ValidationError(f"{path}: no usable data rows")
    return CohortDataset(tuple(sequences), space, str(path), warnings=tuple(warnings))


def write_cohort(sequences, space, path):
    """Write sequences in the same CSV format load_cohort reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for seq in sequences:
            if space.size <= 9:
                cell = "".join(str(int(s)) for s in seq.states)
            else:
                cell = ";".join(str(int(s)) for s in seq.states)
            writer.writerow([seq.participant_id, seq.group or "", cell])
