"""Every analysis subcommand gives the same results whatever the row order.

The CLI counts, pools, scores and runs the ROC in file order and sorts by
participant id only for the per-participant tables, so a cohort file and a
row-shuffled copy must give the same payload (apart from the input's path
and SHA-256) and the same export files.
"""

import json

import numpy as np
import pytest

import respchain as rc
from respchain.cli import main

PAIR = ["--numerator", "group:ocd", "--denominator", "group:adhd"]
RUNS = {
    "estimate": ["estimate"],
    "estimate_per_participant": ["estimate", "--per-participant"],
    "compare": ["compare", "--focal", "ocd", "--reference", "adhd"],
    "score": ["score", *PAIR],
    "score_breakdown": ["score", *PAIR, "--breakdown"],
    "classify_binary": ["classify", *PAIR],
    "classify_multi": ["classify", "--models",
                       "model:symmetric,model:skewed+,model:skewed-",
                       "--reference", "model:MEM"],
    "diagnose": ["diagnose", *PAIR, "--with-sum-score"],
    # every score is 0.0, so the whole score ROC is one tied group at zero
    "diagnose_zero_scores": ["diagnose", "--numerator", "group:ocd",
                             "--denominator", "group:ocd", "--positive-group", "ocd"],
}


@pytest.fixture(scope="module")
def cohorts(tmp_path_factory, ocd_matrix, adhd_matrix):
    """A cohort file whose rows are not in id order, and a row-shuffled copy."""
    rows = []
    for group, matrix, seed in (("ocd", ocd_matrix, 41), ("adhd", adhd_matrix, 42)):
        for length, count in ((16, 90), (4, 60)):
            spec = rc.SimulationSpec(matrix, length=length, count=count,
                                     seed=seed * 100 + length)
            rows.extend(rc.generate_cohort(spec, group=group,
                                           id_prefix=f"{length}-{group}-"))
    # symmetric, skewed+ and skewed- all score 0 on these: multi-model ties
    rows[::25] = [rc.ResponseSequence(f"tie-{i}", [2, 4, 2, 4, 2], group=row.group)
                  for i, row in enumerate(rows[::25])]
    folder = tmp_path_factory.mktemp("row_order")
    path = folder / "cohort.csv"
    rc.write_cohort(rows, rc.StateSpace(5), path)
    header, *lines = path.read_bytes().split(b"\r\n")[:-1]
    order = np.random.default_rng(7).permutation(len(lines))
    shuffled = folder / "shuffled.csv"
    shuffled.write_bytes(b"\r\n".join([header, *(lines[i] for i in order)]) + b"\r\n")
    return str(path), str(shuffled)


def outputs(argv, cohort, folder):
    """The payload text without the input's path and SHA-256, and the bytes
    of the files diagnose exports."""
    folder.mkdir()
    extra = []
    if argv[0] == "diagnose":
        extra = ["--roc-csv", str(folder / "roc.csv"), "--svg", str(folder / "roc.svg")]
    report = folder / "report.json"
    assert main(argv + extra + ["--input", cohort, "--output", str(report)]) == 0
    payload = json.loads(report.read_text(encoding="utf-8"))["payload"]
    del payload["provenance"]["input"], payload["provenance"]["input_sha256"]
    payload.get("results", {}).pop("files", None)
    files = {p.name: p.read_bytes() for p in sorted(folder.glob("roc.*"))}
    return json.dumps(payload, indent=2, allow_nan=False), files


@pytest.mark.parametrize("name", sorted(RUNS))
def test_shuffled_rows_give_the_same_report(name, cohorts, tmp_path):
    original, shuffled = cohorts
    text, files = outputs(RUNS[name], original, tmp_path / "original")
    shuffled_text, shuffled_files = outputs(RUNS[name], shuffled, tmp_path / "shuffled")
    assert shuffled_text == text
    assert shuffled_files == files
    if name.startswith("diagnose"):
        assert set(files) == {"roc.csv", "roc.svg"}


def test_shuffled_copy_is_in_another_order(cohorts, capsys):
    original, shuffled = (rc.load_cohort(path, rc.Config()) for path in cohorts)
    assert original.participant_ids != shuffled.participant_ids
    assert sorted(original.participant_ids) == sorted(shuffled.participant_ids)
    assert list(original.participant_ids) != sorted(original.participant_ids)
    # some but not all multi-model verdicts are ties
    assert main(RUNS["classify_multi"] + ["--input", cohorts[0]]) == 0
    ties = json.loads(capsys.readouterr().out)["payload"]["results"]["assignments"]
    assert 0 < sum(row["tie"] for row in ties) < len(ties)


def test_zero_scores_are_positive_zero():
    # a row whose every visited beta is -0.0 sums to -0.0 term by term; its
    # score is +0.0, so a tied group at zero has one cutoff in any row order
    counts = np.zeros((3, 5, 5), dtype=np.int64)
    counts[0, 0, 0] = 2
    counts[1, 1, 1] = counts[1, 2, 3] = 1
    scores = rc.score_counts(counts, np.full((5, 5), -0.0))
    assert scores.tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(scores).any()
