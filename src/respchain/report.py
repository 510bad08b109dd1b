"""Analysis reports and the two plot/export formats.

A report is a schema-versioned JSON document in two parts: a mutable
header (timestamp, command line) and a deterministic payload. Identical
inputs and configuration produce a byte-identical payload; only the
header may differ between runs. Provenance (input file hash, effective
config, tool version) lives inside the payload because it is part of
what determines the numbers.

Per-participant results are a Table: columns plus row keys, written row
by row from one template per table, a block of rows at a time. The rest
of the payload is a small tree of dicts and lists, written by the stdlib
``json.dumps(value, indent=2, allow_nan=False)``. The whole text is that
of ``json.dumps`` with the rows materialised as dicts. A result object (a
dataclass such as TransitionMatrix) is written as the object of its fields.

ROC points can additionally be exported as plain CSV, and one or more ROC
curves as a self-contained SVG figure (axes, diagonal reference, one
polyline per classifier).
"""

import hashlib
import json
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from html import escape
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__

SCHEMA = "respchain-report/1"

# Table rows write_report encodes and writes at a time.
WRITE_BLOCK_ROWS = 256

_NON_FINITE = frozenset(("nan", "inf", "-inf"))
_NUMBERS = frozenset((int, float))
_ATOMS = frozenset((str, bool, type(None)))
_SEQUENCES = frozenset((list, tuple))

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


class Table:
    """Per-participant results held as columns, one JSON object per row.

    columns maps each key of a row to a list or 1-d numpy array with one
    cell per row, or to a dict of such columns, which every row holds as a
    nested object with those keys. Without keys the table is written as a
    list of row objects; with keys (one string per row, in sorted order) as
    an object that maps each key to its row. Keys within a row are written
    sorted. A cell is a str, int, bool, None, float or a list of such cells;
    a non-finite float is written as the string "inf", "-inf" or "nan", the
    rule the rest of the payload follows. An int, float or bool array is
    written through one text per distinct value, the text its tolist()
    cells get; any other array as its tolist(). A Table is written only as
    a dict value, never as a list item.
    """

    def __init__(self, columns, keys=None):
        self.columns = columns
        self.keys = keys


def _sanitize(value):
    """Make a value JSON-safe and deterministic: numpy types to Python,
    non-finite floats to strings, dataclasses to dicts of their fields,
    dict keys to strings in sorted order. A Table is left as it is."""
    if isinstance(value, dict):
        out = {str(k): _sanitize(v) for k, v in value.items()}
        return dict(sorted(out.items()))
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if v != v:
            return "nan"
        if v == float("inf"):
            return "inf"
        if v == float("-inf"):
            return "-inf"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if is_dataclass(value):
        return _sanitize({f.name: getattr(value, f.name) for f in fields(value)})
    return value


def _newline(level):
    return "\n" + "  " * level


def _json(value, level):
    """json.dumps(value, indent=2) for a value whose closing bracket sits at
    this indent level; JSON strings hold no raw newline, so the shift is safe."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", _newline(level))


def _texts(values, level):
    """The JSON text of each table cell, for cells written at this indent level.

    A run of plain numbers or strings is converted by one C-level map, and a
    run of lists by one call for all their items. Any other cell goes through
    _sanitize, so a non-finite float is written as a string.
    """
    kinds = set(map(type, values))
    if kinds <= _NUMBERS:
        texts = list(map(repr, values))
        if _NON_FINITE.isdisjoint(texts):
            return texts
    elif kinds == {str}:
        return list(map(_quote, values))
    elif kinds <= _ATOMS:  # labels, flags: few distinct values, no nesting
        texts = {value: json.dumps(value) for value in set(values)}
        return list(map(texts.__getitem__, values))
    elif kinds <= _SEQUENCES:
        items = _texts([item for value in values for item in value], level + 1)
        inner = _newline(level + 1)
        close = _newline(level) + "]"
        out, start = [], 0
        for value in values:
            end = start + len(value)
            out.append(f"[{inner}{(',' + inner).join(items[start:end])}{close}"
                       if value else "[]")
            start = end
        return out
    return [_json(_sanitize(value), level) for value in values]


def _cells(column, level):
    """A table column as (cells, level) for _texts, or as (texts, None).

    A 1-d int, float or bool array gets its texts here: _texts writes each
    distinct value once, non-finite rule included, and every row reads its
    text by index. Floats are keyed on their bits, so -0.0 keeps its sign
    and every NaN is written "nan". Any other array becomes its tolist().
    """
    if not isinstance(column, np.ndarray):
        return column, level
    if column.ndim != 1 or column.dtype.kind not in "biuf":
        return column.tolist(), level
    floats = column.dtype.kind == "f"
    keys = np.asarray(column, dtype=np.float64).view(np.uint64) if floats else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    values = distinct.view(np.float64) if floats else distinct
    return np.array(_texts(values.tolist(), level), dtype=object)[inverse].tolist(), None


def _chunks(value, level):
    """The JSON text of a value in pieces; a Table's rows come a block at a time."""
    if isinstance(value, Table):
        yield from _table_chunks(value, level)
    elif isinstance(value, dict) and value:
        inner = _newline(level + 1)
        opener = "{"
        for key, item in value.items():
            yield f"{opener}{inner}{_quote(key)}: "
            yield from _chunks(item, level + 1)
            opener = ","
        yield _newline(level) + "}"
    else:
        yield _json(value, level)


def _row_format(columns, level):
    """A %-format string for one row object at this indent level, and the
    (column, indent level) of its %s placeholders in order."""
    if not columns:
        return "{}", []
    parts, fields = [], []
    for key in sorted(columns):
        column = columns[key]
        if isinstance(column, dict):
            text, inner = _row_format(column, level + 1)
        else:
            text, inner = "%s", [(column, level + 1)]
        name = _quote(key).replace("%", "%%")
        parts.append(f"{_newline(level + 1)}{name}: {text}")
        fields += inner
    return "{" + ",".join(parts) + _newline(level) + "}", fields


def _table_chunks(table, level):
    """A Table's JSON text: its brackets, then WRITE_BLOCK_ROWS rows at a time."""
    row, fields = _row_format(table.columns, level + 1)
    brackets = "[]"
    if table.keys is not None:
        row, fields, brackets = "%s: " + row, [(table.keys, level + 1), *fields], "{}"
    lengths = {len(column) for column, _ in fields}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    if not n:
        yield brackets
        return
    row = _newline(level + 1) + row
    fields = [_cells(column, cell_level) for column, cell_level in fields]
    yield brackets[0]
    for start in range(0, n, WRITE_BLOCK_ROWS):
        block = slice(start, start + WRITE_BLOCK_ROWS)
        texts = [column[block] if cell_level is None else _texts(column[block], cell_level)
                 for column, cell_level in fields]
        yield ("," if start else "") + ",".join(map(row.__mod__, zip(*texts)))
    yield _newline(level) + brackets[1]


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def config_block(config):
    """The config's fields; state_labels is null when unset or empty, and
    models, written as {name: {kind, **params}}, is left out when empty."""
    body = {f.name: getattr(config, f.name) for f in fields(config)}
    body["state_labels"] = config.state_labels or None
    if models := body.pop("models"):
        body["models"] = {m.name: {"kind": m.kind, **m.params} for m in models}
    return body


def build_report(command, results, config, input_path=None, skipped_rows=(),
                 warnings=()):
    """Assemble the full report document around a results payload.

    input_path is hashed into the provenance (simulated data that never
    touched disk has none). skipped_rows holds a (line, reason) pair per
    input row that was skipped and warnings one message per warning; each
    appears in the payload only when non-empty.
    """
    provenance = {"tool_version": __version__, "config": config_block(config)}
    if input_path is not None:
        provenance["input"] = str(input_path)
        provenance["input_sha256"] = file_sha256(input_path)
    if skipped_rows:
        provenance["skipped_rows"] = {
            "count": len(skipped_rows),
            "rows": [{"line": line, "reason": reason} for line, reason in skipped_rows],
        }
    payload = {"provenance": provenance, "results": results}
    if warnings:
        payload["warnings"] = list(warnings)
    return {
        "schema": SCHEMA,
        "header": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "command": command,
        },
        "payload": _sanitize(payload),
    }


def payload_json(report):
    """Canonical serialization of the deterministic part of a report;
    build_report has sorted its keys."""
    return "".join(_chunks(report["payload"], 0))


def report_json(report):
    """The whole report as JSON; the payload's keys are already sorted."""
    return "".join(_chunks(report, 0))


def write_report(report, fh):
    """Write report_json(report) and a newline to a text file.

    A table's rows are encoded and written WRITE_BLOCK_ROWS at a time, so
    the whole text is never held at once.
    """
    for chunk in _chunks(report, 0):
        fh.write(chunk)
    fh.write("\n")


def outcome_block(outcome, state_labels):
    """A one-dimensional outcome's fields plus the labels of its flagged states."""
    return {**_sanitize(outcome),
            "flagged_states": [state_labels[i] for i in outcome.flagged_cells]}


def log_ratio_block(lr):
    return {
        "numerator": lr.numerator_name,
        "denominator": lr.denominator_name,
        "values": lr.values,
        "epsilon_policy": lr.epsilon_policy,
    }


def roc_block(curve):
    return {"auc": curve.auc, "n_points": curve.fpr.size}


def roc_points_csv(curve):
    """ROC points as plain CSV with the fixed fpr,tpr,cutoff header."""
    cells = np.column_stack((curve.fpr, curve.tpr, curve.cutoff)).ravel().tolist()
    return "fpr,tpr,cutoff\n" + ("%r,%r,%r\n" * curve.fpr.size) % tuple(cells)


def roc_svg(curves, title="ROC comparison"):
    """Self-contained SVG figure of one or more ROC curves.

    curves is a list of (name, RocCurve). Layout: unit square with tick
    marks every 0.2, a dashed no-discrimination diagonal, one polyline
    per curve, and a legend carrying each curve's AUC. A curve's polyline
    coordinates are computed on its fpr/tpr arrays by sx/sy, the same
    IEEE arithmetic as for a single tick mark, and written with one "%.2f"
    format.
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
        # axes box
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for v in (i / 5.0 for i in range(6)):
        parts += [
            f'<line x1="{sx(v):.1f}" y1="{sy(0) + 5:.1f}" x2="{sx(v):.1f}" '
            f'y2="{sy(0):.1f}" stroke="black"/>',
            f'<text x="{sx(v):.1f}" y="{sy(0) + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{v:.1f}</text>',
            f'<line x1="{ml - 5}" y1="{sy(v):.1f}" x2="{ml}" y2="{sy(v):.1f}" '
            f'stroke="black"/>',
            f'<text x="{ml - 9}" y="{sy(v) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.1f}</text>',
        ]
    parts += [
        f'<text x="{ml + pw / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">1 - specificity '
        f'(false positive rate)</text>',
        f'<text x="20" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {mt + ph / 2:.1f})">sensitivity '
        f'(true positive rate)</text>',
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" '
        f'y2="{sy(1):.1f}" stroke="#888" stroke-dasharray="6,4"/>',
    ]
    for idx, (name, curve) in enumerate(curves):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        xy = np.column_stack((sx(curve.fpr), sy(curve.tpr))).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * curve.fpr.size) % tuple(xy)
        ly = mt + 20 + idx * 18
        parts += [
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>',
            f'<line x1="{ml + 12}" y1="{ly - 4}" x2="{ml + 40}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>',
            f'<text x="{ml + 46}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{escape(name, quote=False)} (AUC = {curve.auc:.3f})</text>',
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
