"""Output checks for every benchmark operation, run outside the timed region.

Every expected value is recomputed from the generator's truth (the states
it wrote) with numpy, not taken from respchain. Rules:

* integers (group sizes, transition counts, confusion cells, class counts)
  must match exactly; a class count may differ only by the number of
  participants whose deciding score lies within TOL of the cut-off;
* floats (probabilities, scores, AUC, chi-square statistics) must match
  within TOL = 1e-9 (statistics relative to their size); p-values within
  P_TOL, since the package's incomplete-gamma series is accurate to ~1e-8;
* a ``--breakdown`` row's terms must sum (math.fsum) to its score exactly;
* a simulated CSV must equal, row by row, the walk that the documented
  ``SeedSequence(seed, spawn_key=(i,))`` uniforms give from the report's
  ``initial_distribution``.

Each check returns a list of problems; an empty list means correct.
"""

import json
import math

import numpy as np

import gen

TOL = 1e-9
P_TOL = 1e-7


class Problems(list):
    def close(self, what, got, want, tol=TOL):
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            self.append(f"{what}: shape {got.shape} != {want.shape}")
        elif got.size and not np.all(np.abs(got - want) <= tol):
            i = int(np.argmax(np.abs(got - want)))
            self.append(f"{what}: {got.flat[i]!r} != {want.flat[i]!r} (index {i})")

    def equal(self, what, got, want):
        if isinstance(got, (list, np.ndarray)) or isinstance(want, np.ndarray):
            got, want = np.asarray(got), np.asarray(want)
            ok = got.shape == want.shape and bool(np.all(got == want))
        else:
            ok = got == want
        if not ok:
            self.append(f"{what}: {_short(got)} != {_short(want)}")


def _short(value):
    text = repr(value)
    return text if len(text) < 120 else text[:117] + "..."


def load_results(path, command, problems):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems.equal("schema", doc.get("schema"), "respchain-report/1")
    problems.equal("command", doc.get("header", {}).get("command"), command)
    return doc["payload"]["results"]


class Truth:
    """Per-participant transition counts of a generated cohort."""

    def __init__(self, data, k):
        self.k = k
        order = np.argsort(data["ids"], kind="stable")  # reports sort by id
        self.ids = data["ids"][order]
        self.groups = data["groups"][order]
        rows = [data["states"][i] for i in order]
        self.state_sums = np.array([float(r.sum()) for r in rows])
        counts = np.zeros((len(rows), k * k), dtype=np.int64)
        for n, r in enumerate(rows):
            counts[n] = np.bincount((r[:-1] - 1) * k + (r[1:] - 1), minlength=k * k)
        self.counts = counts

    def group_counts(self, group):
        return self.counts[self.groups == group].sum(axis=0).reshape(self.k, self.k)

    def group_matrix(self, group):
        return normalize(self.group_counts(group))

    def scores(self, num, den, epsilon_floor=0.01):
        """Per-participant sum of count * log2(floor(p_num)/floor(p_den)).

        Each participant's products are summed with math.fsum, the
        correctly rounded sum, so equal multisets of terms give equal
        scores: ties in the ROC sweep fall exactly where the package's do.
        """
        beta = log_ratio(num, den, epsilon_floor).ravel()
        products = self.counts * beta
        return np.array(list(map(math.fsum, products.tolist()))), beta


def normalize(counts):
    work = counts.astype(np.float64) + 0.0
    totals = work.sum(axis=1)
    defined = totals > 0
    probs = np.zeros_like(work)
    probs[defined] = work[defined] / totals[defined, None]
    return probs


def log_ratio(num, den, epsilon_floor):
    num = np.where(num == 0.0, epsilon_floor, num)
    den = np.where(den == 0.0, epsilon_floor, den)
    return np.log2(num / den)


def power_stationary(probs, tolerance=5e-4, max_power=64):
    prev = probs
    for n in range(1, max_power + 1):
        cur = prev @ probs
        if np.max(np.abs(cur - prev)) < tolerance:
            return cur[0], n
        prev = cur
    return prev[0], max_power


def chi2_sf(x, df):
    """Upper tail of the chi-square distribution, integer df, closed form."""
    if x <= 0:
        return 1.0
    h = x / 2.0
    if df % 2:
        sf, term, a = math.erfc(math.sqrt(h)), math.sqrt(h) * math.exp(-h) / math.gamma(1.5), 1.5
    else:
        sf, term, a = math.exp(-h), h * math.exp(-h), 2.0
    for _ in range((df - 1) // 2 if df % 2 else df // 2 - 1):
        sf += term
        term *= h / a
        a += 1.0
    return sf


def mann_whitney_auc(scores, positive):
    """P(random positive outscores random negative), ties counted half."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = upper - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _check_test(p, what, block, observed, expected, df):
    o = np.asarray(observed, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    stat = float(np.sum((o - e) ** 2 / e))
    p.close(f"{what}.statistic", block["statistic"], stat, TOL * max(1.0, stat))
    p.equal(f"{what}.df", block["df"], df)
    p.close(f"{what}.p_value", block["p_value"], chi2_sf(stat, df), P_TOL)


def check_simulate(path, csv_path, spec):
    """spec: model rows, k, count, length, seed, group label, id prefix."""
    p = Problems()
    res = load_results(path, "simulate", p)
    rows, k = spec["rows"], spec["k"]
    count, length, seed = spec["count"], spec["length"], spec["seed"]
    for key in ("count", "length", "seed"):
        p.equal(key, res[key], spec[key])
    p.equal("n_transitions", res["n_transitions"], count * (length - 1))
    init = np.asarray(res["initial_distribution"], dtype=np.float64)
    p.close("initial_distribution", init, gen.stationary_vector(rows), 1e-8)
    with open(csv_path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\r\n")
    p.equal("csv header", lines[0], "participant_id,group,responses")
    body = [line for line in lines[1:] if line]
    p.equal("csv rows", len(body), count)
    if p:
        return p
    cum_init = np.cumsum(init)
    cum = np.cumsum(rows, axis=1)
    for i, line in enumerate(body):
        pid, group, cell = line.split(",")
        want_id = f"{spec['id_prefix']}{i:04d}"
        if pid != want_id or group != spec["group"]:
            p.append(f"row {i}: id/group {pid},{group} != {want_id},{spec['group']}")
            break
        states = (np.array(cell.split(";"), dtype=np.int64) if k > 9
                  else np.frombuffer(cell.encode("ascii"), dtype=np.uint8) - 48)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        u = np.random.Generator(np.random.PCG64(ss)).random(length)
        if states.size != length:
            p.append(f"row {i}: {states.size} responses, expected {length}")
            break
        first = 1 + int((u[0] >= cum_init[:k - 1]).sum())
        want = np.empty(length, dtype=np.int64)
        want[0] = first
        want[1:] = gen.next_states(cum, states[:-1].astype(np.int64), u[1:])
        bad = np.flatnonzero(want != states)
        if bad.size:
            p.append(f"row {i}: response {int(bad[0])} is {int(states[bad[0]])}, "
                     f"the reference walk gives {int(want[bad[0]])}")
            break
    return p


def check_estimate(path, truth, per_participant):
    p = Problems()
    res = load_results(path, "estimate", p)
    k = truth.k
    p.equal("n_sequences", res["n_sequences"], truth.ids.size)
    names = sorted(set(truth.groups.tolist()))
    p.equal("groups", sorted(res["groups"]), names)
    for g in names:
        block = res["groups"].get(g)
        if block is None:
            continue
        counts = truth.group_counts(g)
        p.equal(f"{g}.n_sequences", block["n_sequences"], int((truth.groups == g).sum()))
        p.equal(f"{g}.counts", block["counts"]["counts"], counts)
        p.equal(f"{g}.row_totals", block["counts"]["row_totals"], counts.sum(axis=1))
        p.equal(f"{g}.total", block["counts"]["total"], int(counts.sum()))
        p.close(f"{g}.probs", block["matrix"]["probs"], normalize(counts))
        p.equal(f"{g}.defined_rows", block["matrix"]["defined_rows"], counts.sum(axis=1) > 0)
        on = int(np.trace(counts))
        p.equal(f"{g}.on_diagonal", block["inertia"]["on_diagonal"], on)
        p.equal(f"{g}.off_diagonal", block["inertia"]["off_diagonal"], int(counts.sum()) - on)
        p.close(f"{g}.proportion", block["inertia"]["proportion"], on / counts.sum())
    if per_participant:
        per = res.get("participants", {})
        p.equal("participant ids", sorted(per), truth.ids.tolist())
        if not p:
            rows = [per[i] for i in truth.ids.tolist()]
            p.equal("participant groups", [r["group"] for r in rows], truth.groups.tolist())
            got = np.array([r["counts"]["counts"] for r in rows]).reshape(len(rows), -1)
            p.equal("participant counts", got, truth.counts)
            want = np.array([normalize(c.reshape(k, k)) for c in truth.counts])
            p.close("participant probs", [r["matrix"]["probs"] for r in rows], want)
    return p


def check_compare(path, truth, focal, reference):
    p = Problems()
    res = load_results(path, "compare", p)
    k = truth.k
    inertia, dists = {}, {}
    for role, g in (("focal", focal), ("reference", reference)):
        block = res[role]
        counts = truth.group_counts(g)
        p.equal(f"{role}.group", block["group"], g)
        p.equal(f"{role}.n_sequences", block["n_sequences"], int((truth.groups == g).sum()))
        p.equal(f"{role}.n_transitions", block["n_transitions"], int(counts.sum()))
        on = int(np.trace(counts))
        inertia[role] = (on, int(counts.sum()) - on)
        p.equal(f"{role}.inertia", [block["inertia"]["on_diagonal"],
                                    block["inertia"]["off_diagonal"]], list(inertia[role]))
        dist, power = power_stationary(normalize(counts))
        dists[role] = dist
        p.close(f"{role}.stationary", block["stationary"]["distribution"], dist)
        p.equal(f"{role}.power", block["stationary"]["power_at_convergence"], power)
        p.equal(f"{role}.converged", block["stationary"]["converged"], True)
    obs = np.array([inertia["focal"], inertia["reference"]], dtype=np.float64)
    exp = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / obs.sum()
    _check_test(p, "inertia_association", res["inertia_association"], obs, exp, 1)
    n_focal = int(truth.group_counts(focal).sum())
    gof = res["stationary_gof"]
    p.equal("stationary_gof.n_focal", gof["n_focal"], n_focal)
    _check_test(p, "stationary_gof", gof, dists["focal"] * n_focal,
                dists["reference"] * n_focal, k - 1)
    return p


def check_score(path, truth, num, den, breakdown):
    p = Problems()
    res = load_results(path, "score", p)
    scores, beta = truth.scores(truth.group_matrix(num), truth.group_matrix(den))
    lr = res["log_ratio"]
    p.equal("log_ratio names", [lr["numerator"], lr["denominator"]], [num, den])
    p.close("log_ratio values", lr["values"], beta.reshape(truth.k, truth.k))
    rows = res["scores"]
    p.equal("score ids", [r["participant_id"] for r in rows], truth.ids.tolist())
    if p:
        return p
    p.equal("score groups", [r["group"] for r in rows], truth.groups.tolist())
    p.close("scores", [r["score"] for r in rows], scores)
    if breakdown:
        k = truth.k
        for n, row in enumerate(rows):
            terms = row["terms"]
            cells = truth.counts[n]
            nz = np.flatnonzero(cells)
            got_cells = [(t[0] - 1) * k + (t[1] - 1) for t in terms]
            if got_cells != nz.tolist() or [t[2] for t in terms] != cells[nz].tolist():
                p.append(f"{row['participant_id']}: breakdown cells/counts differ")
                break
            p.close(f"{row['participant_id']} terms", [t[3] for t in terms],
                    cells[nz] * beta[nz])
            if math.fsum(t[3] for t in terms) != row["score"]:
                p.append(f"{row['participant_id']}: terms do not sum to the score")
            if p:
                break
    return p


def _counts_near(p, what, got, want, slack):
    for name, n in want.items():
        if abs(got.get(name, -1) - n) > slack.get(name, 0):
            p.append(f"{what}[{name}]: {got.get(name)} != {n}")
    if set(got) != set(want):
        p.append(f"{what}: classes {sorted(got)} != {sorted(want)}")


def check_classify(path, truth, num, den):
    p = Problems()
    res = load_results(path, "classify", p)
    scores, _ = truth.scores(truth.group_matrix(num), truth.group_matrix(den))
    rows = res["assignments"]
    p.equal("mode", res["mode"], "binary")
    p.equal("ids", [r["participant_id"] for r in rows], truth.ids.tolist())
    if p:
        return p
    p.close("scores", [r["score"] for r in rows], scores)
    clear = np.abs(scores) > TOL
    want = np.where(scores >= 0, num, den)
    got = np.array([r["assigned"] for r in rows])
    p.equal("assigned", got[clear], want[clear])
    near = {num: int((~clear).sum()), den: int((~clear).sum())}
    _counts_near(p, "class_counts", res["class_counts"],
                 {num: int((want == num).sum()), den: int((want == den).sum())}, near)
    return p


def check_classify_multi(path, truth, candidates, reference):
    p = Problems()
    res = load_results(path, "classify", p)
    k = truth.k
    ref = gen.model_rows(reference, k)
    cols = [truth.scores(gen.model_rows(c, k), ref)[0] for c in candidates]
    scores = np.stack(cols, axis=1)
    p.equal("mode", res["mode"], "multimodel")
    p.equal("candidates", res["candidates"], candidates)
    p.equal("reference", res["reference"], reference)
    rows = res["assignments"]
    p.equal("ids", [r["participant_id"] for r in rows], truth.ids.tolist())
    if p:
        return p
    got = np.array([[r["scores"][c] for c in candidates] for r in rows])
    p.close("scores", got, scores)
    top = np.sort(scores, axis=1)[:, ::-1]
    best = scores.max(axis=1)
    names = np.array(candidates + [reference])
    want = np.where(best < 0, len(candidates), scores.argmax(axis=1))
    clear = (np.abs(best) > TOL) & ((top[:, 0] - top[:, 1]) > TOL)
    assigned = np.array([r["assigned"] for r in rows])
    p.equal("assigned", assigned[clear], names[want][clear])
    p.equal("tie", [r["tie"] for r in np.array(rows)[clear]], [False] * int(clear.sum()))
    want_counts = {n: int((names[want] == n).sum()) for n in names.tolist()}
    slack = {n: int((~clear).sum()) for n in names.tolist()}
    _counts_near(p, "class_counts", res["class_counts"], want_counts, slack)
    if not (~clear).any():
        obs = np.array([want_counts[n] for n in names.tolist()], dtype=np.float64)
        _check_test(p, "equiprobability", res["equiprobability"], obs,
                    np.full(obs.size, obs.sum() / obs.size), obs.size - 1)
    return p


def check_diagnose(path, truth, num, den, roc_csv, svg):
    p = Problems()
    res = load_results(path, "diagnose", p)
    scores, _ = truth.scores(truth.group_matrix(num), truth.group_matrix(den))
    positive = truth.groups == num
    p.equal("positive_group", res["positive_group"], num)
    pred = scores >= 0
    near = int((np.abs(scores) <= TOL).sum())
    cells = {"tp": int((pred & positive).sum()), "fn": int((~pred & positive).sum()),
             "tn": int((~pred & ~positive).sum()), "fp": int((pred & ~positive).sum())}
    table = res["confusion"]
    for name, n in cells.items():
        if abs(table[name] - n) > near:
            p.append(f"confusion.{name}: {table[name]} != {n}")
    if not near:
        sn = cells["tp"] / (cells["tp"] + cells["fn"])
        sp = cells["tn"] / (cells["tn"] + cells["fp"])
        m = res["metrics"]
        p.close("sensitivity", m["sensitivity"], sn)
        p.close("specificity", m["specificity"], sp)
    p.close("roc.auc", res["roc"]["auc"], mann_whitney_auc(scores, positive))
    p.equal("roc.n_points", res["roc"]["n_points"], np.unique(scores).size + 1)
    p.close("sum_score_roc.auc", res["sum_score_roc"]["auc"],
            mann_whitney_auc(truth.state_sums, positive))
    p.equal("sum_score_roc.n_points", res["sum_score_roc"]["n_points"],
            np.unique(truth.state_sums).size + 1)
    with open(roc_csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    p.equal("roc csv rows", len(lines) - 1, res["roc"]["n_points"])
    with open(svg, encoding="utf-8") as fh:
        if not fh.read(4) == "<svg":
            p.append("svg: not an SVG document")
    return p
