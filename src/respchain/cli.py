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
from dataclasses import fields
from functools import cached_property

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
    p.add_argument("--models", dest="candidates", metavar="A,B,C",
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
    """The config file's settings, each overridden by its flag when given."""
    return dataio.load_config(args.config).override(
        **{f.name: getattr(args, f.name, None) for f in fields(dataio.Config)})


class _Notes:
    """What a report carries besides its results: the input read, the rows
    lenient mode skipped and the warnings, each also printed to stderr."""

    def __init__(self):
        self.input_path = None
        self.skipped_rows = ()
        self.warnings = []

    def warn(self, message):
        print(message, file=sys.stderr)
        self.warnings.append(message)

    def stationary(self, matrix, config, source):
        """chain.stationary, with a warning when the search did not converge."""
        result = chain.stationary(matrix, config.tolerance, config.max_power)
        if not result.converged:
            self.warn(f"stationary search for {source} did not converge within "
                      f"max_power {config.max_power} (tolerance {config.tolerance})")
        return result


def _load_dataset(args, config, notes):
    dataset = dataio.load_cohort(args.input, config)
    for warning in dataset.warnings:
        print(warning, file=sys.stderr)
    notes.input_path, notes.skipped_rows = args.input, dataset.skipped
    return dataset


class _CountedCohort:
    """A cohort in participant_id order with its (N, K, K) count tensor.

    Reads the dataset's columns; counted at most once per command, on
    first use, straight into that order. Group pools and scores are read
    from the tensor.
    """

    def __init__(self, dataset):
        self.dataset = dataset
        ids = dataset.participant_ids
        self.order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids = [ids[i] for i in self.order]
        self.groups = np.array(dataset.groups, dtype=object)[self.order]

    @cached_property
    def counts(self):
        return chain.count_tensor(self.dataset, self.dataset.state_space, self.order)

    def pool(self, group):
        """A group's pooled TransitionCounts and its number of sequences."""
        rows = self.groups == group
        if not rows.any():
            raise self.dataset.missing_group(group)
        return chain.TransitionCounts(self.counts[rows].sum(axis=0)), int(rows.sum())

    def group_matrix(self, group, config):
        """The transition matrix estimated from a group's pooled counts."""
        return chain.normalize_rows(self.pool(group)[0], config.smoothing_alpha)


def _model_registry(config):
    registry = models.builtin_models(config.state_space)
    for spec in config.models:
        registry[spec.name] = spec.build(config.state_space)
    return registry


def _resolve(spec_str, cohort, registry, config):
    """Turn 'group:X' / 'model:Y' (cohort may be None) / bare name into (name, matrix)."""
    if spec_str.startswith("group:"):
        name = spec_str[len("group:"):]
        return name, cohort.group_matrix(name, config)
    if spec_str.startswith("model:"):
        name = spec_str[len("model:"):]
        if name not in registry:
            raise ValidationError(
                f"unknown model {name!r}; available: {', '.join(sorted(registry))}"
            )
        return name, registry[name]
    groups = cohort.dataset.group_labels
    in_groups = spec_str in groups
    in_models = spec_str in registry
    if in_groups and in_models:
        raise ValidationError(
            f"{spec_str!r} names both a group and a model; use "
            f"'group:{spec_str}' or 'model:{spec_str}'"
        )
    if in_groups:
        return spec_str, cohort.group_matrix(spec_str, config)
    if in_models:
        return spec_str, registry[spec_str]
    known = sorted(groups) + sorted(registry)
    raise ValidationError(
        f"{spec_str!r} is neither a group nor a model; known names: "
        f"{', '.join(known)}"
    )


def _log_ratio(args, cohort, registry, config):
    """The --numerator/--denominator log-ratio matrix."""
    num_name, num = _resolve(args.numerator, cohort, registry, config)
    den_name, den = _resolve(args.denominator, cohort, registry, config)
    return scoring.log_likelihood_matrix(
        num, den, config.epsilon_floor,
        numerator_name=num_name, denominator_name=den_name,
    )


def _source_matrix(args, config, notes):
    """The --group or --model matrix, with its name."""
    if args.group is None:
        return _resolve(f"model:{args.model}", None, _model_registry(config), config)
    if not args.input:
        raise ValidationError("--group needs --input")
    cohort = _CountedCohort(_load_dataset(args, config, notes))
    return args.group, cohort.group_matrix(args.group, config)


def _estimate_block(counts, n_sequences, config):
    return {
        "n_sequences": n_sequences,
        "counts": reporting.counts_block(counts),
        "matrix": chain.normalize_rows(counts, config.smoothing_alpha),
        "inertia": reporting.inertia_block(chain.inertia(counts)),
    }


def _cmd_estimate(args, config, notes):
    dataset = _load_dataset(args, config, notes)
    cohort = _CountedCohort(dataset)
    groups = args.group or sorted(dataset.group_labels)
    blocks = {
        name: _estimate_block(*cohort.pool(name), config) for name in groups
    }
    if not groups:
        counts = chain.TransitionCounts(cohort.counts.sum(axis=0))
        blocks["all"] = _estimate_block(counts, len(dataset), config)
    results = {"groups": blocks, "n_sequences": len(dataset)}
    if args.per_participant:
        counts = cohort.counts
        probs, defined = chain._row_probabilities(counts, config.smoothing_alpha)
        results["participants"] = reporting.Table({
            "group": cohort.groups.tolist(),
            "counts": {"counts": counts.tolist(), "row_totals": counts.sum(axis=2).tolist(),
                       "total": counts.sum(axis=(1, 2)).tolist()},
            "matrix": {"probs": probs.tolist(), "defined_rows": defined.tolist()},
        }, keys=cohort.ids)
    return results


def _cmd_stationary(args, config, notes):
    name, matrix = _source_matrix(args, config, notes)
    # stationary raises StructuralError unless the matrix is both
    result = notes.stationary(matrix, config, repr(name))
    results = {
        "source": name,
        "matrix": matrix,
        "irreducible": True,
        "aperiodic": True,
        "stationary": result,
    }
    return results


def _cmd_compare(args, config, notes):
    dataset = _load_dataset(args, config, notes)
    cohort = _CountedCohort(dataset)
    blocks = {}
    summaries = {}
    points = {}
    for role, group in (("focal", args.focal), ("reference", args.reference)):
        counts, n_sequences = cohort.pool(group)
        matrix = chain.normalize_rows(counts, config.smoothing_alpha)
        summaries[role] = chain.inertia(counts)
        stat_result = notes.stationary(matrix, config, f"the {role} group {group!r}")
        points[role] = (counts, stat_result)
        blocks[role] = {
            "group": group,
            "n_sequences": n_sequences,
            "n_transitions": counts.total,
            "inertia": reporting.inertia_block(summaries[role]),
            "stationary": stat_result,
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
        "inertia_association": association,
        "stationary_gof": {"n_focal": n_focal, **reporting.outcome_block(gof, labels)},
    }
    return results


def _cmd_score(args, config, notes):
    cohort = _CountedCohort(_load_dataset(args, config, notes))
    lr = _log_ratio(args, cohort, _model_registry(config), config)
    rows = {
        "participant_id": cohort.ids,
        "group": cohort.groups.tolist(),
        "score": scoring.score_counts(cohort.counts, lr.values).tolist(),
    }
    if args.breakdown:
        rows["terms"] = scoring.score_terms(cohort.counts, lr.values)
    results = {
        "log_ratio": reporting.log_ratio_block(lr),
        "scores": reporting.Table(rows),
    }
    return results


def _cmd_classify(args, config, notes):
    cohort = _CountedCohort(_load_dataset(args, config, notes))
    binary = args.numerator is not None or args.denominator is not None
    multi = args.candidates is not None or args.reference is not None
    if binary == multi:
        raise ValidationError(
            "classify needs either --numerator/--denominator or "
            "--models/--reference"
        )
    if binary:
        if not (args.numerator and args.denominator):
            raise ValidationError("binary mode needs both --numerator and --denominator")
        lr = _log_ratio(args, cohort, _model_registry(config), config)
        scores = scoring.score_counts(cohort.counts, lr.values).tolist()
        labels = scoring.binary_labels(scores, lr.numerator_name,
                                       lr.denominator_name, config.cutoff)
        results = {
            "mode": "binary",
            "cutoff": config.cutoff,
            "assignments": reporting.Table(
                {"participant_id": cohort.ids, "score": scores, "assigned": labels}),
            "class_counts": {name: labels.count(name)
                             for name in (lr.numerator_name, lr.denominator_name)},
        }
        return results
    if not (args.candidates and args.reference):
        raise ValidationError("multi-model mode needs both --models and --reference")
    candidate_names = [n.strip() for n in args.candidates.split(",") if n.strip()]
    if not candidate_names:
        raise ValidationError("--models lists no usable names")
    registry = _model_registry(config)
    candidates = [
        _resolve(name, cohort, registry, config) for name in candidate_names
    ]
    ref_name, ref = _resolve(args.reference, cohort, registry, config)
    verdicts = scoring.classify_counts(
        cohort.counts, cohort.ids, candidates, ref, reference_name=ref_name,
        epsilon_floor=config.epsilon_floor,
    )
    class_counts = {name: verdicts.assigned.count(name)
                    for name in [*verdicts.names, ref_name]}
    equi = stats.equiprobability_test(list(class_counts.values()))
    rows = {
        "participant_id": verdicts.participant_ids,
        "scores": dict(zip(verdicts.names, verdicts.scores.T.tolist())),
        "assigned": verdicts.assigned,
        "tie": verdicts.tie,
    }
    results = {
        "mode": "multimodel",
        "reference": ref_name,
        "candidates": verdicts.names,
        "assignments": reporting.Table(rows),
        "class_counts": class_counts,
        "equiprobability": equi,
    }
    return results


def _cmd_diagnose(args, config, notes):
    dataset = _load_dataset(args, config, notes)
    cohort = _CountedCohort(dataset)
    registry = _model_registry(config)
    num_name, num = _resolve(args.numerator, cohort, registry, config)
    den_name, den = _resolve(args.denominator, cohort, registry, config)
    groups = sorted(dataset.group_labels)
    labels = cohort.groups.tolist()
    if len(groups) != 2 or None in labels:
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
    scores = scoring.score_counts(cohort.counts, lr.values).tolist()
    predictions = scoring.binary_labels(scores, positive, negative, config.cutoff)
    table = diagnostics.confusion(labels, predictions, positive)
    mets = diagnostics.metrics(table, cutoff=config.cutoff)
    curve = diagnostics.roc_curve(scores, labels, positive)
    curves = [(f"score {num_name}/{den_name}", curve)]
    results = {
        "positive_group": positive,
        "cutoff": config.cutoff,
        "confusion": table,
        "metrics": mets,
        "roc": reporting.roc_block(curve),
    }
    if args.with_sum_score:
        sums = np.add.reduceat(dataset.states, dataset.starts, dtype=np.int64)
        sums = sums[cohort.order].astype(np.float64)
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
    return results


def _cmd_simulate(args, config, notes):
    name, matrix = _source_matrix(args, config, notes)
    spec = simulate.SimulationSpec(
        matrix=matrix, length=args.length, count=args.count, seed=args.seed,
    )
    init, init_source = simulate.resolve_initial(spec)
    if init_source == "uniform":
        notes.warn(f"no stationary distribution found for {name!r} (periodic, reducible "
                   f"or not converged); simulated sequences start from the uniform "
                   f"distribution")
    cohort = simulate.draw_cohort(spec, init, args.group_label, args.id_prefix)
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
    return results


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
    notes = _Notes()
    results = _COMMANDS[command](args, config, notes)
    return reporting.build_report(command, results, config, notes.input_path,
                                  skipped_rows=notes.skipped_rows,
                                  warnings=notes.warnings)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _effective_config(args)
        doc = run_subcommand(args.command, args, config)
        if args.output and args.output != "-":
            with open(args.output, "w", encoding="utf-8") as fh:
                reporting.write_report(doc, fh)
        else:
            reporting.write_report(doc, sys.stdout)
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
