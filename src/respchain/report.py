"""Analysis reports and the two plot/export formats.

A report is a schema-versioned JSON document in two parts: a mutable
header (timestamp, command line) and a deterministic payload. Identical
inputs and configuration produce a byte-identical payload; only the
header may differ between runs. Provenance (input file hash, effective
config, tool version) lives inside the payload because it is part of
what determines the numbers.

ROC points can additionally be exported as plain CSV, and one or more ROC
curves as a self-contained SVG figure (axes, diagonal reference, one
polyline per classifier).
"""

import hashlib
import json
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import islice

import numpy as np

SCHEMA = "respchain-report/1"

# Encoder chunks write_report joins into one write.
WRITE_BATCH_CHUNKS = 8192

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _sanitize(value):
    """Make a value JSON-safe and deterministic: numpy types to Python,
    non-finite floats to strings, dict keys to strings in sorted order."""
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
    return value


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def config_block(config):
    body = {
        "states": config.states,
        "state_labels": list(config.state_labels) if config.state_labels else None,
        "tolerance": config.tolerance,
        "max_power": config.max_power,
        "epsilon_floor": config.epsilon_floor,
        "smoothing_alpha": config.smoothing_alpha,
        "cutoff": config.cutoff,
        "mode": config.mode,
    }
    if config.models:
        body["models"] = {
            m.name: {"kind": m.kind, **m.params} for m in config.models
        }
    return body


def build_report(command, results, config, input_path=None, input_sha256=None):
    """Assemble the full report document around a results payload.

    The caller may pass a precomputed input hash (for simulated data that
    never touched disk, pass neither).
    """
    provenance = {"tool_version": _tool_version(), "config": config_block(config)}
    if input_path is not None:
        provenance["input"] = str(input_path)
        provenance["input_sha256"] = input_sha256 or file_sha256(input_path)
    return {
        "schema": SCHEMA,
        "header": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "command": command,
        },
        "payload": _sanitize({"provenance": provenance, "results": results}),
    }


def _tool_version():
    from . import __version__

    return __version__


def payload_json(report):
    """Canonical serialization of the deterministic part of a report."""
    return json.dumps(report["payload"], sort_keys=True, indent=2,
                      allow_nan=False)


def report_json(report):
    """The whole report as JSON; the payload's keys are already sorted."""
    return json.dumps(report, indent=2, allow_nan=False)


def write_report(report, fh):
    """Write report_json(report) and a newline to a text file.

    The encoder's chunks are joined and written WRITE_BATCH_CHUNKS at a
    time, so the whole text is never held at once.
    """
    chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(report)
    while batch := list(islice(chunks, WRITE_BATCH_CHUNKS)):
        fh.write("".join(batch))
    fh.write("\n")


def matrix_block(matrix):
    return {
        "probs": matrix.probs,
        "defined_rows": matrix.defined_rows,
    }


def counts_block(counts):
    return {
        "counts": counts.counts,
        "row_totals": counts.row_totals,
        "total": counts.total,
    }


def inertia_block(summary):
    return {
        "on_diagonal": summary.on_diagonal,
        "off_diagonal": summary.off_diagonal,
        "total": summary.total,
        "proportion": summary.proportion,
    }


def stationary_block(result):
    return {
        "distribution": result.distribution,
        "power_at_convergence": result.power_at_convergence,
        "converged": result.converged,
        "tolerance_used": result.tolerance_used,
    }


def outcome_block(outcome, state_labels=None):
    body = {
        "statistic": outcome.statistic,
        "df": outcome.df,
        "p_value": outcome.p_value,
        "std_residuals": outcome.std_residuals,
        "flagged_cells": list(outcome.flagged_cells),
        "warnings": list(outcome.warnings),
    }
    if state_labels is not None and outcome.std_residuals is not None \
            and outcome.std_residuals.ndim == 1:
        body["flagged_states"] = [state_labels[i] for i in outcome.flagged_cells]
    return body


def log_ratio_block(lr):
    return {
        "numerator": lr.numerator_name,
        "denominator": lr.denominator_name,
        "values": lr.values,
        "epsilon_policy": [asdict(r) for r in lr.epsilon_policy],
    }


def metrics_block(m):
    return asdict(m)


def confusion_block(t):
    return asdict(t)


def roc_block(curve):
    return {"auc": curve.auc, "n_points": len(curve.points)}


def roc_points_csv(curve):
    """ROC points as plain CSV with the fixed fpr,tpr,cutoff header."""
    lines = ["fpr,tpr,cutoff"]
    for fpr, tpr, cutoff in curve.points:
        lines.append(f"{fpr!r},{tpr!r},{cutoff!r}")
    return "\n".join(lines) + "\n"


def roc_svg(curves, title="ROC comparison"):
    """Self-contained SVG figure of one or more ROC curves.

    curves is a list of (name, RocCurve). Layout: unit square with tick
    marks every 0.2, a dashed no-discrimination diagonal, one polyline
    per curve, and a legend carrying each curve's AUC.
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
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>'
    )
    for i in range(6):
        v = i / 5.0
        parts.append(
            f'<line x1="{sx(v):.1f}" y1="{sy(0) + 5:.1f}" x2="{sx(v):.1f}" '
            f'y2="{sy(0):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(v):.1f}" y="{sy(0) + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{v:.1f}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5}" y1="{sy(v):.1f}" x2="{ml}" y2="{sy(v):.1f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 9}" y="{sy(v) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.1f}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">1 - specificity '
        f'(false positive rate)</text>'
    )
    parts.append(
        f'<text x="20" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {mt + ph / 2:.1f})">sensitivity '
        f'(true positive rate)</text>'
    )
    parts.append(
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" '
        f'y2="{sy(1):.1f}" stroke="#888" stroke-dasharray="6,4"/>'
    )
    for idx, (name, curve) in enumerate(curves):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(fpr):.2f},{sy(tpr):.2f}" for fpr, tpr, _ in curve.points
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        ly = mt + 20 + idx * 18
        parts.append(
            f'<line x1="{ml + 12}" y1="{ly - 4}" x2="{ml + 40}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + 46}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{name} (AUC = {curve.auc:.3f})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
