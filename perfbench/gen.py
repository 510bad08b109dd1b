"""Seeded input generator for the benchmark, written with numpy only.

Nothing here imports respchain, so a change to the package (its simulator
in particular) cannot change what the benchmark feeds it. The oracle
imports the reference matrices and the walk rule from this module.

Walk rule shared with the oracle: from state s (1-based) and a uniform u,
the next state is 1 + the number of cumulative row masses cum[s-1, :K-1]
that u reaches (u >= cum), which is the inverse-CDF draw clamped to K.
"""

import json

import numpy as np

# The two pooled 5x5 clinical-group matrices of the source paper (rows and
# columns in state order 1..5), as tabulated in tests/conftest.py.
ADHD_ROWS = np.array([
    [0.300, 0.300, 0.300, 0.080, 0.020],
    [0.190, 0.290, 0.400, 0.110, 0.010],
    [0.090, 0.270, 0.450, 0.170, 0.020],
    [0.090, 0.160, 0.450, 0.240, 0.060],
    [0.030, 0.180, 0.350, 0.260, 0.180],
])
OCD_ROWS = np.array([
    [0.330, 0.290, 0.290, 0.060, 0.030],
    [0.100, 0.340, 0.400, 0.140, 0.020],
    [0.070, 0.240, 0.430, 0.210, 0.050],
    [0.060, 0.100, 0.370, 0.340, 0.130],
    [0.040, 0.040, 0.260, 0.400, 0.260],
])

LONG_STATES = 11
LONG_WALK_MODEL = {"kind": "drunkards_walk", "stay": 0.5, "step": 0.21,
                   "epsilon_floor": 0.01}


def _profile(weights):
    w = np.asarray(weights, dtype=np.float64)
    return (w / w.sum()).tolist()


LONG_PROFILES = {
    "profile_low": _profile([11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]),
    "profile_mid": _profile([1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]),
}


def drunkards_walk_rows(k, stay, step, epsilon_floor):
    """The documented drunkard's-walk matrix: stay on the diagonal, step to
    each neighbour, the floor elsewhere; at either end the lone neighbour
    takes 2*step - epsilon_floor."""
    m = np.full((k, k), epsilon_floor)
    np.fill_diagonal(m, stay)
    idx = np.arange(k - 1)
    m[idx, idx + 1] = step
    m[idx + 1, idx] = step
    m[0, 1] = 2 * step - epsilon_floor
    m[k - 1, k - 2] = 2 * step - epsilon_floor
    return m


def stationary_vector(rows):
    """Left eigenvector for eigenvalue 1, normalised to sum to 1."""
    vals, vecs = np.linalg.eig(rows.T)
    v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return v / v.sum()


def next_states(cum, states, u):
    """One step of the walk rule for many walkers at once (1-based states)."""
    k = cum.shape[1]
    return 1 + (u[:, None] >= cum[states - 1, :k - 1]).sum(axis=1)


def _walk_many(rng, rows, count, length):
    cum = np.cumsum(rows, axis=1)
    init = np.cumsum(stationary_vector(rows))
    k = rows.shape[0]
    out = np.empty((count, length), dtype=np.int64)
    out[:, 0] = 1 + (rng.random(count)[:, None] >= init[:k - 1]).sum(axis=1)
    for t in range(1, length):
        out[:, t] = next_states(cum, out[:, t - 1], rng.random(count))
    return out


def _walk_long(rng, rows, length):
    # A plain loop: one long walk cannot be stepped in lockstep.
    k = rows.shape[0]
    cum = [list(r[:k - 1]) for r in np.cumsum(rows, axis=1)]
    u = rng.random(length).tolist()
    s = 1 + int((u[0] >= np.cumsum(stationary_vector(rows))[:k - 1]).sum())
    out = [s]
    for x in u[1:]:
        row = cum[s - 1]
        j = 0
        while j < k - 1 and x >= row[j]:
            j += 1
        s = j + 1
        out.append(s)
    return np.asarray(out, dtype=np.int64)


def _long_group_rows(rng, tilt):
    k = LONG_STATES
    i, j = np.indices((k, k))
    weights = np.exp(-np.abs(i - j) / 1.5 + tilt * (j - (k - 1) / 2) / k)
    weights *= rng.uniform(0.5, 1.5, size=(k, k))
    return weights / weights.sum(axis=1, keepdims=True)


def write_cohort_csv(path, ids, groups, states, states_k):
    """Write rows in the package's CSV format (digits for K <= 9, else ';')."""
    k_wide = states_k > 9
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("participant_id,group,responses\r\n")
        for pid, group, row in zip(ids, groups, states):
            if k_wide:
                cell = ";".join(map(str, row.tolist()))
            else:
                cell = (row + 48).astype(np.uint8).tobytes().decode("ascii")
            fh.write(f"{pid},{group},{cell}\r\n")


def make_cohort(path, seed, per_group, length=16):
    """Two groups (ocd, adhd) of `per_group` participants each, drawn from
    the paper's matrices, written in a seeded random row order.

    Returns the truth the oracle needs: ids, group names and states, in
    file order.
    """
    rng = np.random.default_rng([seed, 1])
    ocd = _walk_many(rng, OCD_ROWS, per_group, length)
    adhd = _walk_many(rng, ADHD_ROWS, per_group, length)
    states = np.concatenate([ocd, adhd])
    groups = np.array(["ocd"] * per_group + ["adhd"] * per_group)
    ids = np.array([f"P{i:06d}" for i in range(2 * per_group)])
    order = rng.permutation(2 * per_group)
    ids, groups, states = ids[order], groups[order], states[order]
    write_cohort_csv(path, ids, groups, states, 5)
    return {"ids": ids, "groups": groups, "states": states}


def make_long_cohort(path, seed, per_group, length):
    """Two K=11 groups (low, high) of `per_group` long walks each."""
    rng = np.random.default_rng([seed, 2])
    rows = {"low": _long_group_rows(rng, -2.0), "high": _long_group_rows(rng, 2.0)}
    ids, groups, states = [], [], []
    for group in ("low", "high"):
        for n in range(per_group):
            ids.append(f"{group}{n}")
            groups.append(group)
            states.append(_walk_long(rng, rows[group], length))
    write_cohort_csv(path, ids, groups, states, LONG_STATES)
    return {"ids": np.array(ids), "groups": np.array(groups),
            "states": states}


def write_long_config(path):
    """The K=11 config: a drunkard's walk and two rank-one profiles."""
    models = {"walk": LONG_WALK_MODEL}
    for name, vector in LONG_PROFILES.items():
        models[name] = {"kind": "from_stationary_vector", "vector": vector}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"states": LONG_STATES, "models": models}, fh, indent=1)


def model_rows(name, k):
    """Reference rows of a model the workloads simulate or classify with."""
    if name == "MEM":
        return np.full((k, k), 1.0 / k)
    if name == "DWM":
        return drunkards_walk_rows(5, 0.50, 0.24, 0.01)
    if name == "walk":
        params = {key: v for key, v in LONG_WALK_MODEL.items() if key != "kind"}
        return drunkards_walk_rows(k, **params)
    vectors = {
        "symmetric": (0.10, 0.20, 0.40, 0.20, 0.10),
        "skewed+": (0.25, 0.40, 0.20, 0.10, 0.05),
        "skewed-": (0.05, 0.10, 0.20, 0.40, 0.25),
        **LONG_PROFILES,
    }
    v = np.asarray(vectors[name], dtype=np.float64)
    return np.tile(v, (v.size, 1))
