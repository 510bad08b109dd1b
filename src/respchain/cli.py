"""Command-line interface: ingest, analyze, classify, simulate.

Subcommands mirror the analysis pipeline: ``estimate`` fits transition
matrices from a cohort CSV, ``stationary`` runs the power iteration with
its structural checks, ``compare`` tests two groups against each other,
``score``/``classify`` run the log-likelihood-ratio machinery,
``diagnose`` evaluates the resulting classifier, and ``simulate`` draws
synthetic cohorts. Every subcommand emits one JSON report (stdout or
--output); ``diagnose`` and ``simulate`` additionally write the files
named by their flags.

Exit codes: 0 success, 1 validation error, 2 structural error (reducible
or periodic matrix, undefined rows), 3 I/O error. Failures print a
machine-readable JSON error to stderr.

Model/group references on the command line take three forms: ``group:X``
(estimated from the input data), ``model:Y`` (a built-in or config-defined
theoretical model), or a bare name, which must be unambiguous.

The CLI orchestrates; every number in a report is produced by the library
modules.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__, chain, dataio, diagnostics, models, scoring, simulate, stats
from . import report as reporting
from .errors import StructuralError, ValidationError


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser():
    common = _ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (default: $RESPCHAIN_CONFIG)")
    common.add_argument("--states", type=int, metavar="K",
                        help="number of scale points (default 5)")
    common.add_argument("--tolerance", type=float, metavar="T",
                        help="stationary convergence tolerance (default 5e-4)")
    common.add_argument("--max-power", type=int, metavar="N",
                        help="power iteration cap (default 64)")
    common.add_argument("--epsilon-floor", type=float, metavar="E",
                        help="floor for zero cells in ratios (default 0.01)")
    common.add_argument("--smoothing-alpha", type=float, metavar="A",
                        help="additive smoothing for estimated matrices (default 0)")
    common.add_argument("--cutoff", type=float, metavar="C",
                        help="binary classification cutoff (default 0)")
    common.add_argument("--mode", choices=("strict", "lenient"),
                        help="how to treat bad input rows (default strict)")
    common.add_argument("--output", metavar="PATH", default="-",
                        help="report destination ('-' for stdout)")

    parser = _ArgumentParser(
        prog="respchain",
        description="Markov-chain analysis of questionnaire response sequences.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("estimate", parents=[common],
                       help="estimate transition matrices from a cohort")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--group", action="append", metavar="NAME",
                   help="restrict to this group (repeatable; default: all)")
    p.add_argument("--per-participant", action="store_true",
                   help="include each participant's own matrix")

    p = sub.add_parser("stationary", parents=[common],
                       help="stationary distribution with structural checks")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group", metavar="NAME",
                     help="estimate the matrix from this group (needs --input)")
    src.add_argument("--model", metavar="NAME",
                     help="use a built-in or config-defined model")
    p.add_argument("--input", metavar="CSV")

    p = sub.add_parser("compare", parents=[common],
                       help="inertia association and stationary GoF between groups")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--focal", required=True, metavar="GROUP",
                   help="group whose counts play the observed role")
    p.add_argument("--reference", required=True, metavar="GROUP",
                   help="group providing the expected distribution")

    p = sub.add_parser("score", parents=[common],
                       help="log2 likelihood-ratio scores for every participant")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--numerator", required=True, metavar="SPEC")
    p.add_argument("--denominator", required=True, metavar="SPEC")
    p.add_argument("--breakdown", action="store_true",
                   help="include per-transition contributions")

    p = sub.add_parser("classify", parents=[common],
                       help="assign each participant to a model")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--numerator", metavar="SPEC")
    p.add_argument("--denominator", metavar="SPEC")
    p.add_argument("--models", metavar="A,B,C",
                   help="comma-separated candidate models (multi-model mode)")
    p.add_argument("--reference", metavar="SPEC",
                   help="reference model for multi-model mode")

    p = sub.add_parser("diagnose", parents=[common],
                       help="confusion table, metrics and ROC for the score classifier")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--numerator", required=True, metavar="SPEC")
    p.add_argument("--denominator", required=True, metavar="SPEC")
    p.add_argument("--positive-group", metavar="NAME",
                   help="group counted as positive (default: the numerator group)")
    p.add_argument("--roc-csv", metavar="PATH",
                   help="write ROC points as CSV here")
    p.add_argument("--svg", metavar="PATH",
                   help="write the ROC figure as SVG here")
    p.add_argument("--with-sum-score", action="store_true",
                   help="also evaluate a plain sum-of-responses classifier")

    p = sub.add_parser("simulate", parents=[common],
                       help="draw a synthetic cohort and write it as CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", metavar="NAME")
    src.add_argument("--group", metavar="NAME",
                     help="simulate from this group's estimated matrix (needs --input)")
    p.add_argument("--input", metavar="CSV")
    p.add_argument("--length", type=int, required=True, metavar="L")
    p.add_argument("--count", type=int, default=1, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--out", required=True, metavar="CSV")
    p.add_argument("--group-label", metavar="NAME",
                   help="group column value for the simulated rows")
    p.add_argument("--id-prefix", default="sim", metavar="PREFIX")
    p.add_argument("--workers", type=int, default=1, metavar="W",
                   help="accepted for compatibility and ignored")

    return parser


def _effective_config(args):
    config = dataio.load_config(args.config)
    return config.override(
        states=args.states,
        tolerance=args.tolerance,
        max_power=args.max_power,
        epsilon_floor=args.epsilon_floor,
        smoothing_alpha=args.smoothing_alpha,
        cutoff=args.cutoff,
        mode=args.mode,
    )


def _load_dataset(args, config):
    dataset = dataio.load_cohort(args.input, config)
    for warning in dataset.warnings:
        print(warning, file=sys.stderr)
    return dataset


def _group_estimate(dataset, group, config):
    counts = chain.pool_counts(
        chain.count_transitions(s, dataset.state_space)
        for s in dataset.by_group(group)
    )
    return counts, chain.normalize_rows(counts, config.smoothing_alpha)


def _model_registry(config):
    registry = models.builtin_models(config.state_space)
    for spec in config.models:
        registry[spec.name] = spec.build(config.state_space)
    return registry


def _resolve(spec_str, dataset, config):
    """Turn 'group:X' / 'model:Y' / bare name into (name, matrix)."""
    registry = _model_registry(config)
    groups = dataset.group_labels if dataset is not None else frozenset()
    if spec_str.startswith("group:"):
        name = spec_str[len("group:"):]
        if dataset is None:
            raise ValidationError(f"{spec_str!r} needs --input")
        _, matrix = _group_estimate(dataset, name, config)
        return name, matrix
    if spec_str.startswith("model:"):
        name = spec_str[len("model:"):]
        if name not in registry:
            raise ValidationError(
                f"unknown model {name!r}; available: {', '.join(sorted(registry))}"
            )
        return name, registry[name]
    in_groups = spec_str in groups
    in_models = spec_str in registry
    if in_groups and in_models:
        raise ValidationError(
            f"{spec_str!r} names both a group and a model; use "
            f"'group:{spec_str}' or 'model:{spec_str}'"
        )
    if in_groups:
        _, matrix = _group_estimate(dataset, spec_str, config)
        return spec_str, matrix
    if in_models:
        return spec_str, registry[spec_str]
    known = sorted(groups) + sorted(registry)
    raise ValidationError(
        f"{spec_str!r} is neither a group nor a model; known names: "
        f"{', '.join(known)}"
    )


def _source_matrix(args, config):
    """The --group or --model matrix, its name, and the input it came from."""
    if args.group is None:
        name, matrix = _resolve(f"model:{args.model}", None, config)
        return name, matrix, None
    if not args.input:
        raise ValidationError("--group needs --input")
    dataset = _load_dataset(args, config)
    name, matrix = _resolve(f"group:{args.group}", dataset, config)
    return name, matrix, args.input


def _sorted_sequences(dataset):
    return sorted(dataset.sequences, key=lambda s: s.participant_id)


def _cmd_estimate(args, config):
    dataset = _load_dataset(args, config)
    if args.group:
        groups = args.group
    elif dataset.group_labels:
        groups = sorted(dataset.group_labels)
    else:
        groups = []
    blocks = {}
    for name in groups:
        counts, matrix = _group_estimate(dataset, name, config)
        blocks[name] = {
            "n_sequences": len(dataset.by_group(name)),
            "counts": reporting.counts_block(counts),
            "matrix": reporting.matrix_block(matrix),
            "inertia": reporting.inertia_block(chain.inertia(counts)),
        }
    if not groups:
        counts = chain.pool_counts(
            chain.count_transitions(s, dataset.state_space)
            for s in dataset.sequences
        )
        matrix = chain.normalize_rows(counts, config.smoothing_alpha)
        blocks["all"] = {
            "n_sequences": len(dataset),
            "counts": reporting.counts_block(counts),
            "matrix": reporting.matrix_block(matrix),
            "inertia": reporting.inertia_block(chain.inertia(counts)),
        }
    results = {"groups": blocks, "n_sequences": len(dataset)}
    if args.per_participant:
        per = {}
        for seq in _sorted_sequences(dataset):
            counts = chain.count_transitions(seq, dataset.state_space)
            matrix = chain.normalize_rows(counts, config.smoothing_alpha)
            per[seq.participant_id] = {
                "group": seq.group,
                "counts": reporting.counts_block(counts),
                "matrix": reporting.matrix_block(matrix),
            }
        results["participants"] = per
    return results, args.input


def _cmd_stationary(args, config):
    name, matrix, input_path = _source_matrix(args, config)
    irreducible = chain.is_irreducible(matrix)
    aperiodic = chain.is_aperiodic(matrix)
    result = chain.stationary(matrix, config.tolerance, config.max_power)
    results = {
        "source": name,
        "matrix": reporting.matrix_block(matrix),
        "irreducible": irreducible,
        "aperiodic": aperiodic,
        "stationary": reporting.stationary_block(result),
    }
    return results, input_path


def _cmd_compare(args, config):
    dataset = _load_dataset(args, config)
    blocks = {}
    summaries = {}
    points = {}
    for role, group in (("focal", args.focal), ("reference", args.reference)):
        counts, matrix = _group_estimate(dataset, group, config)
        summaries[role] = chain.inertia(counts)
        stat_result = chain.stationary(matrix, config.tolerance, config.max_power)
        points[role] = (counts, stat_result)
        blocks[role] = {
            "group": group,
            "n_sequences": len(dataset.by_group(group)),
            "n_transitions": counts.total,
            "inertia": reporting.inertia_block(summaries[role]),
            "stationary": reporting.stationary_block(stat_result),
        }
    association = stats.inertia_association_test(
        summaries["focal"], summaries["reference"]
    )
    n_focal = points["focal"][0].total
    gof = stats.stationary_gof(
        points["focal"][1].distribution,
        points["reference"][1].distribution,
        n_focal,
    )
    labels = dataset.state_space.labels
    results = {
        "focal": blocks["focal"],
        "reference": blocks["reference"],
        "inertia_association": reporting.outcome_block(association),
        "stationary_gof": {
            "n_focal": n_focal,
            **reporting.outcome_block(gof, state_labels=labels),
        },
    }
    return results, args.input


def _score_all(dataset, lr):
    return [
        scoring.score_sequence(seq, lr) for seq in _sorted_sequences(dataset)
    ]


def _cmd_score(args, config):
    dataset = _load_dataset(args, config)
    num_name, num = _resolve(args.numerator, dataset, config)
    den_name, den = _resolve(args.denominator, dataset, config)
    lr = scoring.log_likelihood_matrix(
        num, den, config.epsilon_floor,
        numerator_name=num_name, denominator_name=den_name,
    )
    rows = []
    by_id = {s.participant_id: s for s in dataset.sequences}
    for s in _score_all(dataset, lr):
        row = {
            "participant_id": s.participant_id,
            "group": by_id[s.participant_id].group,
            "score": s.score,
        }
        if args.breakdown:
            row["terms"] = [list(t) for t in s.per_transition_terms]
        rows.append(row)
    results = {
        "log_ratio": reporting.log_ratio_block(lr),
        "scores": rows,
    }
    return results, args.input


def _cmd_classify(args, config):
    dataset = _load_dataset(args, config)
    binary = args.numerator is not None or args.denominator is not None
    multi = args.models is not None or args.reference is not None
    if binary == multi:
        raise ValidationError(
            "classify needs either --numerator/--denominator or "
            "--models/--reference"
        )
    if binary:
        if not (args.numerator and args.denominator):
            raise ValidationError("binary mode needs both --numerator and --denominator")
        num_name, num = _resolve(args.numerator, dataset, config)
        den_name, den = _resolve(args.denominator, dataset, config)
        lr = scoring.log_likelihood_matrix(
            num, den, config.epsilon_floor,
            numerator_name=num_name, denominator_name=den_name,
        )
        rows = []
        class_counts = {num_name: 0, den_name: 0}
        for s in _score_all(dataset, lr):
            label = scoring.classify_binary(s, config.cutoff)
            class_counts[label] += 1
            rows.append({
                "participant_id": s.participant_id,
                "score": s.score,
                "assigned": label,
            })
        results = {
            "mode": "binary",
            "cutoff": config.cutoff,
            "assignments": rows,
            "class_counts": class_counts,
        }
        return results, args.input
    if not (args.models and args.reference):
        raise ValidationError("multi-model mode needs both --models and --reference")
    candidate_names = [n.strip() for n in args.models.split(",") if n.strip()]
    if not candidate_names:
        raise ValidationError("--models lists no usable names")
    candidates = [
        _resolve(name, dataset, config) for name in candidate_names
    ]
    ref_name, ref = _resolve(args.reference, dataset, config)
    rows = []
    class_counts = {name: 0 for name, _ in candidates}
    class_counts[ref_name] = 0
    for seq in _sorted_sequences(dataset):
        verdict = scoring.classify_multimodel(
            seq, candidates, ref, reference_name=ref_name,
            epsilon_floor=config.epsilon_floor,
        )
        class_counts[verdict.assigned_model] += 1
        rows.append({
            "participant_id": seq.participant_id,
            "scores": verdict.scores,
            "assigned": verdict.assigned_model,
            "tie": verdict.tie,
        })
    equi = stats.equiprobability_test(list(class_counts.values()))
    results = {
        "mode": "multimodel",
        "reference": ref_name,
        "candidates": [name for name, _ in candidates],
        "assignments": rows,
        "class_counts": class_counts,
        "equiprobability": reporting.outcome_block(equi),
    }
    return results, args.input


def _cmd_diagnose(args, config):
    dataset = _load_dataset(args, config)
    num_name, num = _resolve(args.numerator, dataset, config)
    den_name, den = _resolve(args.denominator, dataset, config)
    groups = sorted(dataset.group_labels)
    if len(groups) != 2 or any(s.group is None for s in dataset.sequences):
        raise ValidationError(
            "diagnose needs every participant in one of exactly two groups"
        )
    positive = args.positive_group or (num_name if num_name in groups else None)
    if positive is None:
        raise ValidationError(
            "--positive-group is required when the numerator is not a group"
        )
    if positive not in groups:
        raise ValidationError(
            f"positive group {positive!r} not in data (groups: {', '.join(groups)})"
        )
    negative = groups[0] if groups[1] == positive else groups[1]
    lr = scoring.log_likelihood_matrix(
        num, den, config.epsilon_floor,
        numerator_name=num_name, denominator_name=den_name,
    )
    ordered = _sorted_sequences(dataset)
    scores = [scoring.score_sequence(s, lr).score for s in ordered]
    labels = [s.group for s in ordered]
    predictions = [
        positive if v >= config.cutoff else negative for v in scores
    ]
    table = diagnostics.confusion(labels, predictions, positive)
    mets = diagnostics.metrics(table, cutoff=config.cutoff)
    curve = diagnostics.roc_curve(scores, labels, positive)
    curves = [(f"score {num_name}/{den_name}", curve)]
    results = {
        "positive_group": positive,
        "cutoff": config.cutoff,
        "confusion": reporting.confusion_block(table),
        "metrics": reporting.metrics_block(mets),
        "roc": reporting.roc_block(curve),
    }
    if args.with_sum_score:
        sums = [float(np.sum(s.states)) for s in ordered]
        sum_curve = diagnostics.roc_curve(sums, labels, positive)
        curves.append(("sum score", sum_curve))
        results["sum_score_roc"] = reporting.roc_block(sum_curve)
    files = {}
    if args.roc_csv:
        with open(args.roc_csv, "w", encoding="utf-8") as fh:
            fh.write(reporting.roc_points_csv(curve))
        files["roc_csv"] = args.roc_csv
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(reporting.roc_svg(curves))
        files["svg"] = args.svg
    if files:
        results["files"] = files
    return results, args.input


def _cmd_simulate(args, config):
    name, matrix, input_path = _source_matrix(args, config)
    spec = simulate.SimulationSpec(
        matrix=matrix, length=args.length, count=args.count, seed=args.seed,
    )
    init, init_source = simulate.resolve_initial(spec)
    cohort = simulate.generate_cohort(
        spec, group=args.group_label, id_prefix=args.id_prefix,
    )
    dataio.write_cohort(cohort, config.state_space, args.out)
    results = {
        "source": name,
        "length": args.length,
        "count": args.count,
        "seed": args.seed,
        "initial_distribution": init,
        "initial_source": init_source,
        "group_label": args.group_label,
        "output": args.out,
        "n_transitions": args.count * (args.length - 1),
    }
    return results, input_path


_COMMANDS = {
    "estimate": _cmd_estimate,
    "stationary": _cmd_stationary,
    "compare": _cmd_compare,
    "score": _cmd_score,
    "classify": _cmd_classify,
    "diagnose": _cmd_diagnose,
    "simulate": _cmd_simulate,
}


def run_subcommand(command, args, config):
    """Run one subcommand and return its assembled report document."""
    results, input_path = _COMMANDS[command](args, config)
    return reporting.build_report(command, results, config, input_path)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _effective_config(args)
        doc = run_subcommand(args.command, args, config)
        text = reporting.report_json(doc)
        if args.output and args.output != "-":
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0
    except ValidationError as exc:
        return _fail(1, "validation", exc)
    except StructuralError as exc:
        return _fail(2, "structural", exc)
    except OSError as exc:
        return _fail(3, "io", exc)


def _fail(code, kind, exc):
    print(
        json.dumps({"error": {"type": kind, "message": str(exc), "exit_code": code}}),
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
