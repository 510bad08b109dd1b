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
modules. Each subcommand gets one run object holding its args, the effective
config, the model registry, the cohort (loaded once, and counted by group
and by row at most once each, on first use) and the report's notes. Faults
are found in a fixed order: the flags, the config file, the config's models,
the input file, then the command's own flag checks and name resolution.
"""

import argparse
import functools
import json
import sys
from dataclasses import fields

import numpy as np

from . import __version__, chain, dataio, diagnostics, models, scoring, simulate, stats
from . import report as reporting
from .errors import StructuralError, ValidationError


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
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


class _Run:
    """One subcommand's run: its args, effective config and model registry, the
    --input cohort (loaded on first use, the record of the input the report
    names) and the warnings, each printed to stderr as are the rows lenient
    mode skipped. Commands whose --input is required read it before any
    check of their own. Groups are read through the dataset's group codes,
    numbered at load: each group's pooled counts come from one count keyed
    by group code (group_tables), so estimate and compare never count the
    rows one by one. Only the per-participant tables, score, classify and
    diagnose build the (N, K, K) tensor of each row's counts (counts).
    counts and every score and ROC keep the rows in file order; order and
    ids serve only the per-participant tables, which are written in
    participant_id order (Python's str order, from dataio._id_order: a
    numpy sort of ASCII ids of up to 8 bytes, packed, else sorted())."""

    def __init__(self, args, config):
        self.args = args
        self.config = config
        self.registry = models.builtin_models(config.state_space)
        for spec in config.models:
            self.registry[spec.name] = spec.build(config.state_space)
        self.warnings = []

    def warn(self, message):
        print(message, file=sys.stderr)
        self.warnings.append(message)

    def stationary(self, matrix, source):
        """chain.stationary, with a warning when the search did not converge."""
        config = self.config
        result = chain.stationary(matrix, config.tolerance, config.max_power)
        if not result.converged:
            self.warn(f"stationary search for {source} did not converge within "
                      f"max_power {config.max_power} (tolerance {config.tolerance})")
        return result

    @functools.cached_property
    def dataset(self):
        """The --input cohort, loaded on first use."""
        dataset = dataio.load_cohort(self.args.input, self.config)
        for warning in dataset.warnings:
            print(warning, file=sys.stderr)
        return dataset

    @functools.cached_property
    def order(self):
        """The row indices in participant_id order, as an intp array."""
        return dataio._id_order(self.dataset.participant_ids)

    @functools.cached_property
    def ids(self):
        return self.by_id(np.array(self.dataset.participant_ids, dtype=object))

    @functools.cached_property
    def counts(self):
        return chain.count_tensor(self.dataset, self.dataset.state_space)

    @functools.cached_property
    def group_tables(self):
        """Each group's pooled (K, K) counts and its number of rows, both
        indexed by group code."""
        dataset = self.dataset
        labels, codes = dataset.group_codes
        tables = chain._pair_tables(dataset.states, dataset.lengths, dataset.state_space.size,
                                    codes, len(labels), np.int64)
        return tables, np.bincount(codes, minlength=len(labels))

    def by_id(self, column):
        """A file-order (N, ...) result array as a list in participant_id order."""
        return column[self.order].tolist()

    def group_column(self):
        """Each row's group, in participant_id order."""
        labels, codes = self.dataset.group_codes
        return self.by_id(np.array(labels, dtype=object)[codes])

    def pool(self, group):
        """A group's pooled TransitionCounts and its number of sequences."""
        labels = self.dataset.group_codes[0]
        if group not in labels:
            raise self.dataset.missing_group(group)
        tables, sizes = self.group_tables
        code = labels.index(group)
        return chain.TransitionCounts(tables[code]), int(sizes[code])

    def group_matrix(self, group):
        """The transition matrix estimated from a group's pooled counts."""
        return chain.normalize_rows(self.pool(group)[0], self.config.smoothing_alpha)

    def resolve(self, spec):
        """Turn 'group:X' / 'model:Y' / a bare name into (name, matrix)."""
        if spec.startswith("group:"):
            name = spec[len("group:"):]
            return name, self.group_matrix(name)
        if spec.startswith("model:"):
            name = spec[len("model:"):]
            if name not in self.registry:
                raise ValidationError(
                    f"unknown model {name!r}; available: {', '.join(sorted(self.registry))}"
                )
            return name, self.registry[name]
        groups = self.dataset.group_labels
        in_groups = spec in groups
        in_models = spec in self.registry
        if in_groups and in_models:
            raise ValidationError(
                f"{spec!r} names both a group and a model; use "
                f"'group:{spec}' or 'model:{spec}'"
            )
        if in_groups:
            return spec, self.group_matrix(spec)
        if in_models:
            return spec, self.registry[spec]
        known = sorted(groups) + sorted(self.registry)
        raise ValidationError(
            f"{spec!r} is neither a group nor a model; known names: "
            f"{', '.join(known)}"
        )

    @functools.cached_property
    def ratio_terms(self):
        """The resolved --numerator and --denominator, each (name, matrix)."""
        return self.resolve(self.args.numerator), self.resolve(self.args.denominator)

    def log_ratio(self):
        """The --numerator/--denominator log-ratio matrix."""
        (num_name, num), (den_name, den) = self.ratio_terms
        return scoring.log_likelihood_matrix(
            num, den, self.config.epsilon_floor,
            numerator_name=num_name, denominator_name=den_name,
        )

    def source(self):
        """The --group or --model matrix, with its name."""
        if self.args.group is None:
            return self.resolve(f"model:{self.args.model}")
        if not self.args.input:
            raise ValidationError("--group needs --input")
        return self.args.group, self.group_matrix(self.args.group)


def _estimate_block(counts, n_sequences, config):
    return {
        "n_sequences": n_sequences,
        "counts": counts,
        "matrix": chain.normalize_rows(counts, config.smoothing_alpha),
        "inertia": chain.inertia(counts),
    }


def _cmd_estimate(run):
    args, config, dataset = run.args, run.config, run.dataset
    groups = args.group or sorted(dataset.group_labels)
    blocks = {name: _estimate_block(*run.pool(name), config) for name in groups}
    if not groups:
        blocks["all"] = _estimate_block(*run.pool(None), config)
    results = {"groups": blocks, "n_sequences": len(dataset)}
    if args.per_participant:
        counts = run.counts[run.order]
        probs, defined = chain._row_probabilities(counts, config.smoothing_alpha)
        results["participants"] = reporting.Table({
            "group": run.group_column(),
            "counts": {"counts": counts.tolist(), "row_totals": counts.sum(axis=2).tolist(),
                       "total": counts.sum(axis=(1, 2)).tolist()},
            "matrix": {"probs": probs.tolist(), "defined_rows": defined.tolist()},
        }, keys=run.ids)
    return results


def _cmd_stationary(run):
    name, matrix = run.source()
    # stationary raises StructuralError unless the matrix is both
    result = run.stationary(matrix, repr(name))
    return {
        "source": name,
        "matrix": matrix,
        "irreducible": True,
        "aperiodic": True,
        "stationary": result,
    }


def _cmd_compare(run):
    blocks = {}
    for role, group in (("focal", run.args.focal), ("reference", run.args.reference)):
        counts, n_sequences = run.pool(group)
        matrix = chain.normalize_rows(counts, run.config.smoothing_alpha)
        blocks[role] = {
            "group": group,
            "n_sequences": n_sequences,
            "n_transitions": counts.total,
            "inertia": chain.inertia(counts),
            "stationary": run.stationary(matrix, f"the {role} group {group!r}"),
        }
    focal, reference = blocks["focal"], blocks["reference"]
    blocks["inertia_association"] = stats.inertia_association_test(
        focal["inertia"], reference["inertia"])
    gof = stats.stationary_gof(
        focal["stationary"].distribution,
        reference["stationary"].distribution,
        focal["n_transitions"],
    )
    labels = run.dataset.state_space.labels
    blocks["stationary_gof"] = {"n_focal": focal["n_transitions"],
                                **reporting.outcome_block(gof, labels)}
    return blocks


def _cmd_score(run):
    ids = run.ids
    lr = run.log_ratio()
    rows = {
        "participant_id": ids,
        "group": run.group_column(),
        "score": run.by_id(scoring.score_counts(run.counts, lr.values)),
    }
    if run.args.breakdown:
        rows["terms"] = scoring.score_terms(run.counts[run.order], lr.values)
    return {
        "log_ratio": reporting.log_ratio_block(lr),
        "scores": reporting.Table(rows),
    }


def _cmd_classify(run):
    args, config, ids = run.args, run.config, run.ids
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
        numerator, (ref_name, ref) = run.ratio_terms
        candidates, cutoff = [numerator], config.cutoff
    else:
        if not (args.candidates and args.reference):
            raise ValidationError("multi-model mode needs both --models and --reference")
        if args.cutoff is not None:
            raise ValidationError("--cutoff applies to binary mode only; "
                                  "multi-model mode always uses 0")
        candidate_names = [n.strip() for n in args.candidates.split(",") if n.strip()]
        if not candidate_names:
            raise ValidationError("--models lists no usable names")
        candidates = [run.resolve(name) for name in candidate_names]
        (ref_name, ref), cutoff = run.resolve(args.reference), 0.0
    verdicts = scoring.classify_counts(
        run.counts, run.dataset.participant_ids, candidates, ref,
        reference_name=ref_name, epsilon_floor=config.epsilon_floor, cutoff=cutoff,
    )
    labels = verdicts.labels
    class_counts = dict(zip(labels, np.bincount(verdicts.choice,
                                                minlength=len(labels)).tolist()))
    rows = {"participant_id": ids,
            "assigned": np.array(labels, dtype=object)[verdicts.choice[run.order]].tolist()}
    if binary:
        rows["score"] = run.by_id(verdicts.scores[:, 0])
        return {"mode": "binary", "cutoff": config.cutoff,
                "assignments": reporting.Table(rows), "class_counts": class_counts}
    rows["scores"] = dict(zip(verdicts.names, verdicts.scores[run.order].T))
    rows["tie"] = verdicts.tie_mask[run.order]
    return {
        "mode": "multimodel",
        "reference": ref_name,
        "candidates": verdicts.names,
        "assignments": reporting.Table(rows),
        "class_counts": class_counts,
        "equiprobability": stats.equiprobability_test(list(class_counts.values())),
    }


def _cmd_diagnose(run):
    args, config, dataset = run.args, run.config, run.dataset
    (num_name, _), (den_name, _) = run.ratio_terms
    labels, codes = dataset.group_codes  # two groups are labelled in str order
    if len(labels) != 2 or None in labels:
        raise ValidationError(
            "diagnose needs every participant in one of exactly two groups"
        )
    positive = args.positive_group or (num_name if num_name in labels else None)
    if positive is None:
        raise ValidationError(
            "--positive-group is required when the numerator is not a group"
        )
    if positive not in labels:
        raise ValidationError(
            f"positive group {positive!r} not in data (groups: {', '.join(labels)})"
        )
    # In file order: ties cross a cutoff together, so row order could only pick
    # -0.0 or +0.0 as a tied group's cutoff, and no score here is -0.0
    # (score_counts writes a zero sum as +0.0; sum scores are integers).
    scores = scoring.score_counts(run.counts, run.log_ratio().values)
    truth = codes == labels.index(positive)
    table = diagnostics._confusion_cells(truth, scores >= config.cutoff, positive)
    mets = diagnostics.metrics(table, cutoff=config.cutoff)
    curve = diagnostics._roc(scores, truth)
    curves = [(f"score {num_name}/{den_name}", curve)]
    results = {
        "positive_group": positive,
        "cutoff": config.cutoff,
        "confusion": table,
        "metrics": mets,
        "roc": reporting.roc_block(curve),
    }
    if args.with_sum_score:
        # each row's sum fits the smallest type that holds K * the longest row
        total = np.min_scalar_type(dataset.state_space.size * int(dataset.lengths.max()))
        sums = np.add.reduceat(dataset.states, dataset.starts, dtype=total)
        sum_curve = diagnostics._roc(sums, truth)
        curves.append(("sum score", sum_curve))
        results["sum_score_roc"] = reporting.roc_block(sum_curve)
    files = {}
    if args.roc_csv:
        with open(args.roc_csv, "w", encoding="utf-8") as fh:
            fh.writelines(reporting.roc_points_blocks(curve))
        files["roc_csv"] = args.roc_csv
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(reporting.roc_svg(curves))
        files["svg"] = args.svg
    if files:
        results["files"] = files
    return results


def _cmd_simulate(run):
    args, config = run.args, run.config
    name, matrix = run.source()
    spec = simulate.SimulationSpec(
        matrix=matrix, length=args.length, count=args.count, seed=args.seed,
    )
    init, init_source = simulate.resolve_initial(spec)
    if init_source == "uniform":
        run.warn(f"no stationary distribution found for {name!r} (periodic, reducible "
                 f"or not converged); simulated sequences start from the uniform "
                 f"distribution")
    cohort = simulate.draw_cohort(spec, init, args.group_label, args.id_prefix)
    dataio.write_cohort(cohort, config.state_space, args.out)
    return {
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
    run = _Run(args, config)
    results = _COMMANDS[command](run)
    cohort = vars(run).get("dataset")  # there only if the command loaded --input
    return reporting.build_report(command, results, config, cohort, warnings=run.warnings)


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
