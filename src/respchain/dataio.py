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

import contextlib
import csv
import hashlib
import itertools
import json
import numbers
import os
import re
import stat
from dataclasses import InitVar, dataclass, fields, replace
from functools import cached_property

import numpy as np

from .chain import (
    ResponseSequence, StateSpace, _check_rows, _columns, _is_int, _number, _readonly,
)
from .errors import ValidationError
from .models import TheoreticalModelSpec

CSV_HEADER = ("participant_id", "group", "responses")
CONFIG_ENV_VAR = "RESPCHAIN_CONFIG"


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
            _number(getattr(self, name), name, signed=True)
        for name in ("states", "max_power"):
            if not _is_int(getattr(self, name)):
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
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


def _numbering(labels, codes):
    """labels, distinct, and codes, an index into labels per row,
    renumbered as CohortDataset.group_codes numbers groups: only the labels
    some row holds, None first and then in str order, with each row's code
    in the smallest unsigned type that holds their number."""
    held = np.flatnonzero(np.bincount(codes, minlength=len(labels))).tolist()
    held.sort(key=lambda i: (labels[i] is not None, labels[i] or ""))
    renumber = np.zeros(len(labels), np.min_scalar_type(len(held)))
    renumber[held] = range(len(held))
    return tuple(labels[i] for i in held), _readonly(renumber[codes])


def _check_unique(ids):
    """Reject the first participant id that repeats an earlier one."""
    if len(set(ids)) < len(ids):
        seen = set()
        for pid in ids:
            if pid in seen:
                raise ValidationError(f"duplicate participant id {pid!r}")
            seen.add(pid)


@dataclass(frozen=True, eq=False)
class CohortDataset:
    """A validated cohort on one state space, held in columns.

    Row i is participant participant_ids[i], in group groups[i] (None for
    no group), with the 1-based responses
    states[starts[i]:starts[i] + lengths[i]]. states is one flat read-only
    array of the smallest unsigned integer type that holds K. sequences
    and by_group give the rows as ResponseSequence objects, built on first
    use. skipped holds a (line, message) pair per input row that lenient
    mode skipped, in line order. source is where the rows came from and
    sha256 the hex SHA-256 of the file bytes parsed, a byte order mark
    included (None for a cohort never read from a file). group_codes
    numbers the groups; load_cohort passes in, as numbering, the one it
    made while reading the group column, and any other dataset derives it
    from groups on first use. id_order puts the rows in participant_id
    order. When every id field packs, load_cohort passes in, as _id_keys,
    their _field_keys, one per id, and only those may be passed: one sort
    of them checks the ids for repeats and their argsort is the order. Any
    other dataset checks its ids with a set and orders them with sorted().
    """

    participant_ids: tuple
    groups: tuple
    states: np.ndarray
    lengths: np.ndarray
    state_space: StateSpace
    source: str
    skipped: tuple = ()
    sha256: str | None = None
    numbering: InitVar[tuple | None] = None
    _id_keys: InitVar[np.ndarray | None] = None  # dropped once id_order is made

    def __post_init__(self, numbering, _id_keys):
        ids = tuple(self.participant_ids)
        groups = tuple(self.groups)
        lengths = _readonly(np.asarray(self.lengths, dtype=np.int64))
        states = _readonly(np.asarray(self.states))
        if len(groups) != len(ids) or lengths.shape != (len(ids),) \
                or states.ndim != 1 or lengths.sum() != states.size \
                or _id_keys is not None and np.shape(_id_keys) != (len(ids),):
            raise ValidationError(
                "cohort columns disagree: one id, group and length per row, "
                "and the lengths must add up to the number of states"
            )
        if _id_keys is None:
            _check_unique(ids)
        else:  # equal neighbours in key order are a repeated id; the set names the first
            keys = np.sort(_id_keys)
            if (keys[1:] == keys[:-1]).any():
                _check_unique(ids)
        object.__setattr__(self, "_id_keys", _id_keys)
        object.__setattr__(self, "participant_ids", ids)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "states", states)
        if numbering is not None:
            object.__setattr__(self, "group_codes", numbering)

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
    def group_codes(self):
        """(labels, codes): the distinct groups, None first and then in str
        order, and a read-only array of each row's index into labels, in the
        smallest unsigned type that holds their number. groups[i] is
        labels[codes[i]]."""
        code = {}
        codes = np.fromiter((code.setdefault(group, len(code)) for group in self.groups),
                            np.intp, len(self.groups))
        return _numbering(list(code), codes)

    @cached_property
    def id_order(self):
        """The row indices in participant_id order (sorted()'s), as an intp
        array: np.argsort of the id keys load_cohort passed in, which are
        then dropped, else sorted()'s (_id_order)."""
        keys = self._id_keys
        if keys is None:
            return _id_order(self.participant_ids)
        object.__setattr__(self, "_id_keys", None)  # the order is all they were kept for
        return np.argsort(keys)

    @cached_property
    def group_labels(self):
        return frozenset(self.group_codes[0]) - {None}

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


def _spans(buf, quotes):
    """{opening: closing quote} of each quoted span, by the csv module's
    excel rules: a quote opens one only at a field's start, "" in one is a
    literal quote, any other quote is literal. An open span ends at len(buf)."""
    spans, it = {}, iter(quotes.tolist())
    for q in it:
        if q and buf[q - 1] not in b",\r\n":
            continue
        for c in it:
            if buf[c + 1:c + 2] != b'"':
                break
            next(it)  # "" is one literal quote
        else:
            c = len(buf)
        spans[q] = c
    return spans


def _take(a, starts, ends):
    """The bytes of a in the ordered, disjoint [starts, ends), joined: a
    mask of the bytes from the first range's start to the last's end."""
    lo, hi = (int(starts[0]), int(ends[-1])) if starts.size else (0, 0)
    mask = np.repeat(np.tile([True, False], starts.size),  # in, out, ..., in, out (0)
                     np.diff(np.column_stack((starts, ends)).ravel(), append=hi))
    return a[lo:hi][mask]


def _texts(a, starts, ends):
    """The stripped texts of fields a[starts:ends] holding no break: one mask
    of their bytes and the break after each, one decode, one split, and a
    strip of each only when a byte is a space, control or non-ASCII."""
    text = _take(a, starts, np.minimum(ends + 1, a.size)).tobytes()
    text = text.translate(bytes.maketrans(b"\r\n", b",,"))
    texts = (text + b",").decode().split(",")[:len(starts)]
    chars = np.frombuffer(text, np.uint8)
    return [t.strip() for t in texts] if ((chars <= 32) | (chars >= 127)).any() else texts


# A group field of 1 to 8 bytes, each in 33..126 and none a '"', is keyed
# by its bytes: no such byte is NUL, a space or a quote, so zero-padded
# keys stay distinct and the field is its label, unstripped.
_KEY_MASKS = np.array([2 ** (8 * n) - 1 for n in range(9)], np.uint64)  # n low bytes
_BYTES = np.uint64(0x0101010101010101)  # times b: b in every byte
_TOP_BYTES = ~_KEY_MASKS[::-1]  # n high bytes


def _groups(a, starts, ends, texts):
    """The groups of the rows whose group fields are a[starts:ends]: a list
    of distinct labels (None for an empty field) and each row's index into
    it, in the smallest unsigned type that holds their number. A field of
    key bytes (above) is packed zero-padded into one little-endian uint64
    word, read at any offset through one strided view of a; np.unique
    numbers the words, and each distinct word is decoded once. The other
    rows take the zero word, then texts(rows), their stripped texts, 8192
    rows at a time, each new label numbered after the last. A label may
    be held by no row. a holds at least 8 bytes, and a group field ends
    before a's last byte."""
    if not starts.size:  # a header alone, or a first record cut by the field limit
        return [], np.zeros(0, np.uint8)
    width = ends - starts
    view = np.ndarray((a.size - 7,), "<u8", a, 0, (1,))  # the 8 bytes from each offset
    base = np.minimum(starts, a.size - 8)  # a word read nearer the end than 8 bytes is shifted down
    mask = _KEY_MASKS.take(np.minimum(width, 8))
    key = view[base] >> (8 * (starts - base)).astype(np.uint64) & mask
    # a byte below 33, above 126 or equal to 34 sets its high bit in one of the three terms,
    # and no other does (hasless, hasmore, haszero of S. E. Anderson's "Bit Twiddling
    # Hacks"); the bytes past the field read as 33
    y = key | ~mask & _BYTES * 33
    q = y ^ _BYTES * 34
    good = (width > 0) & (width <= 8)
    good &= ((y - _BYTES * 33) & ~y | (y + _BYTES) | y | (q - _BYTES) & ~q) & _BYTES * 128 == 0
    key[~good] = 0
    table, index = np.unique(key, return_inverse=True)
    code = {label or None: i for i, label in
            enumerate(table.astype("<u8").view("S8").astype(str).tolist())}
    rest = np.flatnonzero(~good & (width > 0))
    for block in (rest[i:i + 8192] for i in range(0, rest.size, 8192)):
        index[block] = [code.setdefault(label or None, len(code)) for label in texts(block)]
    return list(code), index.astype(np.min_scalar_type(len(code)))


# The ASCII bytes str.strip() removes
_STRIPPED = np.array([chr(b).isspace() for b in range(128)])


def _field_keys(a, starts, ends, quoted):
    """The key of each field a[starts:ends] of an ASCII file, starts
    ascending, when each is its own text of 0 to 8 bytes (none quoted and
    none with a byte str.strip() removes at either end), else None. A key
    is the field's bytes, every one raised by one (a NUL then sorts above
    the zero padding, and a proper prefix first), in one big-endian uint64
    word with the bytes past the field's end zero. So distinct texts have
    distinct keys, in sorted()'s order, and only the empty text keys to 0.
    Each word is read through one strided view of a, which holds at least
    8 bytes and no byte over 127 (so no byte's +1 carries); a word read
    nearer a's end than 8 bytes is shifted up."""
    widths = ends - starts
    if quoted.any() or widths.max(initial=0) > 8:
        return None
    if _STRIPPED.take(a[starts]).any() or _STRIPPED.take(a[np.maximum(ends - 1, starts)]).any():
        return None
    view = np.ndarray((a.size - 7,), "<u8", a, 0, (1,))  # the 8 bytes from each offset
    keys = view[np.minimum(starts, a.size - 8)]
    keys.byteswap(inplace=True)  # the first byte most significant
    tail = np.searchsorted(starts, a.size - 8, side="right")  # the words read shifted down
    keys[tail:] <<= (8 * (starts[tail:] - (a.size - 8))).astype(np.uint64)
    keys += _BYTES
    keys &= _TOP_BYTES.take(widths)
    return keys


def _id_order(ids):
    """The intp permutation that puts ids, distinct strs, in sorted()'s
    order."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), np.intp)


def _cell_states(cell, k):
    """The states of one stripped responses cell by the documented rule, or
    the tail of the message naming its first fault. A state is compared by
    its digits, so int() never sees one longer than k."""
    tokens = [token.strip() for token in cell.split(";")] if k > 9 else list(cell)
    if not tokens or not all(token.isascii() and token.isdigit() for token in tokens):
        rule = f"a digit string for a {k}-point scale" if k <= 9 else "semicolon-separated integers"
        return f": responses must be {rule}, got {cell!r}"
    if len(tokens) < 2:
        return f": need at least 2 responses to count transitions, got {len(tokens)}"
    for pos, digits in enumerate(token.lstrip("0") for token in tokens):
        if not digits or len(digits) > len(str(k)) or int(digits) > k:
            return f", response position {pos}: state {digits or 0} outside 1..{k}"
    return list(map(int, tokens))


def _states(a, starts, ends, k, text):
    """The states and lengths of the responses cells a[starts:ends] that
    parse, and {index: message tail} for the cells that do not.

    One pass over the bytes reads each clean cell: up to 9 points a digit
    1..k per state; above, tokens of 1 to len(str(k)) digits, each in 1..k,
    between single ';'; at least 2 states either way. Each cell it refuses
    (quoted, padded, not ASCII or faulty) goes to _cell_states as text(i).
    """
    lengths, clean = ends - starts, np.ones(starts.size, bool)
    if k <= 9:
        states = _take(a, starts, ends)
        states -= 48  # any byte but a digit reads as more than 9
    else:  # each cell after the ',' before it, read as the ';' that opens its first token
        t = _take(a, starts - 1, ends)
        cells = np.cumsum(lengths + 1) - lengths - 1
        t[cells] = 59
        sep = t == 59
        fault = sep & np.append(sep[1:], True)  # an empty token: ';' before ';' or the end
        fault |= (t - 48 > 9) & ~sep  # a byte neither digit nor ';'
        run = ~sep
        for _ in range(len(str(k))):  # then run marks the end of a token longer than k's
            run[1:] &= run[:-1]
        clean[np.searchsorted(cells, np.flatnonzero(fault | run), side="right") - 1] = False
        del fault, run
        at = np.flatnonzero(sep)
        lengths = np.diff(np.searchsorted(at, cells), append=at.size)  # a ';' per state
        del sep, at
        if not clean.all():
            t = t[np.repeat(clean, ends - starts + 1)]
        # bytes end in a NUL, which stops the parse of the last token; the type holds every
        # token of k's width, so none wraps
        states = np.fromstring(t[1:].tobytes(), np.min_scalar_type(10 ** len(str(k)) - 1), sep=";")
    if not (states.size and lengths.min() >= 2 and states.min() >= 1 and states.max() <= k):
        owner = np.repeat(np.flatnonzero(clean), lengths[clean])  # each state's cell
        clean[owner[(states < 1) | (states > k)]] = False
        clean &= lengths >= 2
        states = states[clean[owner]]
    got = {i: _cell_states(text(i), k) for i in np.flatnonzero(~clean).tolist()}
    bad = {i: tail for i, tail in got.items() if isinstance(tail, str)}
    if len(got) > len(bad):  # each parsed cell's states go after those of the clean cells before it
        rows = [i for i in got if i not in bad]
        sizes = [len(got[i]) for i in rows]
        states = np.insert(states, np.repeat(np.cumsum(lengths * clean)[rows], sizes),
                           [state for i in rows for state in got[i]])
        lengths[rows], clean[rows] = sizes, True
    return states, lengths[clean], bad


def load_cohort(path, config):
    """Read and validate a cohort CSV into a columnar CohortDataset.

    The UTF-8 file, with or without a byte order mark, is read as the csv
    module reads it. In both modes a byte that is not UTF-8 rejects the
    whole file; a field over csv.field_size_limit() characters (read at
    call time) ends the read with csv.Error, and every row before it is
    checked. Strict mode then raises the first fault by line, so a bad row
    before a csv.Error comes first; lenient mode raises any csv.Error, else
    skips the bad rows, each recorded on the dataset with its line (the one
    its record starts on; CRLF, CR and LF end one line each) and message.
    The file is read once, a pipe too, and the bytes read are hashed once parsed.

    The breaks are found by one scan for the bytes below 45, keeping ',',
    CR and LF (every break byte is below 45), with int32 offsets under
    2 GiB. Groups come first: a field of 1 to 8 key bytes is numbered by
    its one packed word through np.unique, any other through its text, 8192
    rows at a time (_groups). Then the ids: in an ASCII file whose id
    fields are each their own text of at most 8 bytes, each is also keyed
    by its bytes from the field offsets (_field_keys), an empty id is a
    zero key, and the dataset checks the kept keys for repeats and orders
    the ids by them; any other id column is checked with a set. Then the
    states, from the responses column's offsets alone (_states). Once the
    rows are known, the group numbers are put in group_codes' order
    (_numbering) and kept on the dataset, and groups is read from them,
    one shared str per label.
    """
    space, k = config.state_space, config.states
    with open(path, "rb") as fh:
        buf = fh.read()
    bom = buf[:3] if buf.startswith(b"\xef\xbb\xbf") else b""  # hashed, not parsed
    buf = buf[len(bom):]
    limit, ascii_only = max(csv.field_size_limit(), 0), buf.isascii()
    if not ascii_only:
        try:
            buf.decode()  # a check only: the text is dropped at once
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from exc
    # A run of `run` bytes with no break or quote holds over limit characters (1 to 4 bytes
    # each), so the read ends in its field: look for one in steps of four rfinds, cut after it.
    pos, run = 0, (limit + 1) * (1 if ascii_only else 4)
    while pos + run <= len(buf):
        found = max(buf.rfind(c, pos, pos + run) for c in b',\r\n"')
        if found < 0:  # cut after the run, at a character's start
            buf = buf[:re.compile(rb"[\x80-\xbf]*").match(buf, pos + run).end()]
            break
        pos = found + 1
    a = np.frombuffer(buf, np.uint8)
    at = np.flatnonzero(a < 45)  # the breaks ',' (44), LF (10) and CR (13) are all below 45
    kind = a[at]
    keep = (kind == 44) | (kind == 10) | ((kind == 13) & (a[np.minimum(at + 1, a.size - 1)] != 10))
    offset = np.int32 if a.size < 2**31 - 1 else np.int64  # holds every offset and one past it
    at, kind = at[keep].astype(offset), kind[keep]  # a CRLF breaks at its LF
    inner = np.zeros(0, offset)  # line ends inside quoted spans
    spans = _spans(buf, np.flatnonzero(a == 34)) if b'"' in buf else {}
    if spans:
        opens, closes = (np.fromiter(x, np.int64, len(spans)) for x in (spans, spans.values()))
        j = np.searchsorted(opens, at) - 1
        out = (j < 0) | (at > closes[j])
        inner, at, kind = at[~out & (kind != 44)], at[out], kind[out]
    # field f is buf[starts[f]:ends[f]]; eol[f] if it ends a record
    starts, eol = np.append(offset(0), at + 1), np.append(kind != 44, True)
    ends = np.append(at - ((kind == 10) & (a[np.maximum(at - 1, 0)] == 13)), offset(a.size))
    if starts[-1] == a.size and (not at.size or kind[-1] != 44):  # nothing after a line end
        starts, ends, eol = starts[:-1], ends[:-1], eol[:-1]
    del at, kind, keep

    def field(s, e):  # a quoted span's text with "" read as ", then the bytes after the span
        s, e = int(s), int(e)
        if s not in spans:
            return buf[s:e].decode()
        return (buf[s + 1:spans[s]].replace(b'""', b'"') + buf[spans[s] + 1:e]).decode()

    last = np.flatnonzero(eol)
    over = next((f for f in np.flatnonzero(ends - starts > limit).tolist()
                 if len(field(starts[f], ends[f])) > limit), starts.size)
    records = int(np.searchsorted(last, over))  # those before the first field over the limit
    stop = f"field larger than field limit ({limit})" if over < starts.size else None
    if not records:  # made as it is raised: a local error would form a cycle with its frame
        raise csv.Error(stop) if stop else ValidationError(f"{path}: empty file")
    header = [field(starts[f], ends[f]) for f in range(last[0] + 1)]
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ValidationError(f"{path}: expected header {','.join(CSV_HEADER)!r}, "
                              f"got {','.join(header)!r}")
    first = last[:records - 1] + 1
    width = last[1:records] - first + 1
    lines = np.arange(2, records + 1) + np.searchsorted(inner, starts[first])
    odd = (width != 3) & ~((width == 1) & (starts[first] == ends[first]))  # blank lines pass
    rejected = [(line, f"{path}, line {line}: expected 3 columns, got {n}")
                for line, n in zip(lines[odd].tolist(), width[odd].tolist())]
    first, lines = first[width == 3], lines[width == 3]
    quoted = np.isin(starts, list(spans))
    del eol, last, width, odd

    def column(fs):  # _texts reads "" for a quoted field, which is unquoted on its own
        values = _texts(a, np.where(quoted[fs], ends[fs], starts[fs]), ends[fs])
        for i in np.flatnonzero(quoted[fs]).tolist():
            values[i] = field(starts[fs[i]], ends[fs[i]]).strip()
        return values

    # the groups before the ids: the ids' strs are not live while the group keys are numbered
    labels, codes = _groups(a, starts[first + 1], ends[first + 1],
                            lambda rows: column(first[rows] + 1))
    ids = column(first)
    keys = _field_keys(a, starts[first], ends[first], quoted[first]) if ascii_only else None
    if ("" in ids) if keys is None else not keys.all():
        empty = np.array([not pid for pid in ids]) if keys is None else keys == 0
        rejected += [(line, f"{path}, line {line}: empty participant_id")
                     for line in lines[empty].tolist()]
        ids = [pid for pid in ids if pid]
        first, lines, codes = first[~empty], lines[~empty], codes[~empty]
        keys = None if keys is None else keys[~empty]
    cells = starts[first + 2], ends[first + 2]
    del starts, ends, first, quoted  # _states gets the responses column's offsets alone
    states, lengths, bad = _states(a, *cells, k, lambda i: field(cells[0][i], cells[1][i]).strip())
    del cells
    problems = sorted([(int(lines[i]), f"{path}, line {lines[i]}{tail}")
                       for i, tail in bad.items()] + rejected)
    if problems and config.mode == "strict":
        raise ValidationError(problems[0][1])
    if stop:
        raise csv.Error(stop)
    if bad:
        ids = [x for i, x in enumerate(ids) if i not in bad]
        codes = np.delete(codes, list(bad))
        keys = None if keys is None else np.delete(keys, list(bad))
    if not ids:
        raise ValidationError(f"{path}: no usable data rows")
    labels, codes = _numbering(labels, codes)
    # the dataset keeps these tuples, not copies of lists; one shared str per label
    ids, groups = tuple(ids), tuple(np.array(labels, object)[codes].tolist())
    digest = hashlib.sha256(bom)
    digest.update(buf)  # the whole file: a read cut at the field limit has raised
    return CohortDataset(ids, groups, states.astype(np.min_scalar_type(k), copy=False), lengths,
                         space, str(path), skipped=tuple(problems), sha256=digest.hexdigest(),
                         numbering=(labels, codes), _id_keys=keys)


def _cells(states, lengths, k):
    """Each row's responses cell, for rows of at least one state: the
    whole column's text is gathered from a table of each state's text
    (with ';' after it above 9 points, NUL-padded to one width, the NULs
    dropped after) and cut into rows less their ';'. Up to 9 points every
    state is one digit, so there are no NULs and a row is as long in
    bytes as in states."""
    sep = b";" if k > 9 else b""
    tokens = np.array([b"%d%s" % (state, sep) for state in range(k + 1)])
    text = tokens.take(states).tobytes()
    row_bytes = lengths
    if sep:
        text = text.translate(None, b"\0")
        row_bytes = np.add.reduceat(np.char.str_len(tokens)[states], np.cumsum(lengths) - lengths)
    text = text.decode("ascii")
    ends = np.cumsum(row_bytes).tolist()
    cut = len(sep)
    return [text[start:end - cut] for start, end in zip([0] + ends[:-1], ends)]


# A field holding one of these is quoted by csv.writer (QUOTE_MINIMAL,
# excel dialect).
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _fields(column):
    """An id or group column as csv.writer writes it: None as an empty
    field, a field that holds ',', '"', CR or LF in quotes with its quotes
    doubled. One search of the joined column skips the per-field test
    when no field needs quotes."""
    texts = ["" if value is None else str(value) for value in column]
    if not _NEEDS_QUOTES.search("".join(texts)):
        return texts
    return ['"%s"' % text.replace('"', '""') if _NEEDS_QUOTES.search(text) else text
            for text in texts]


@contextlib.contextmanager
def open_output(path, newline=None):
    """open(path, "w") for UTF-8 text, but rewriting the file in place.

    There is no O_TRUNC: the text is written from the file's start, and a
    regular file is cut at its end when the block ends, also when it
    raises, so the file holds exactly what was written. Truncating to zero
    frees every block of the old file, and ext4 (auto_da_alloc) allocates
    the new ones at close, so each rerun into the same path frees what the
    last one allocated; freeing allocated blocks can take tenths of a
    second. In place, a rerun of the same size frees nothing. A process
    killed mid-write leaves the new prefix followed by the old file's tail.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline=newline, closefd=False) as fh:
            yield fh
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)


def write_cohort(cohort, space, path):
    """Write a cohort in the CSV format load_cohort reads.

    cohort is a columnar cohort, such as a CohortDataset, or a list of
    ResponseSequence. Rows load_cohort would refuse are rejected before
    the file is opened: a state outside 1..space.size (naming its
    participant and position), a row of fewer than two responses, or a
    participant id used twice. Fields are quoted as csv.writer quotes
    them and every record ends with CRLF. The file is written through
    open_output, which rewrites an existing file in place.
    """
    ids, groups, states, lengths = _columns(cohort)
    _check_rows(ids, states, lengths, space.size)
    if not isinstance(cohort, CohortDataset):
        _check_unique(ids)
    cells = _cells(states, lengths, space.size)
    rows = zip(_fields(ids), _fields(groups), cells)
    text = "%s,%s,%s\r\n" * len(cells) % tuple(itertools.chain.from_iterable(rows))
    with open_output(path, newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.write(text)
