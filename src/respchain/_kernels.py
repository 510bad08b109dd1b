"""Inner loops for walking and counting state sequences, in numpy.

States are 1-based integers throughout, matching how responses are written
in data files. Sampling rule: from state s a draw u moves to the first
column j with u < cum_rows[s-1, j], clamped to the last column; that is,
to 1 + the number of the first K-1 cumulative masses u reaches. All
randomness is drawn before ``walk`` runs, so the same draws always give
the same states.

``walk`` applies the rule by table lookup. A draw that reaches b of the
K(K-1) edges of all rows, merged in sorted order, reaches exactly the
first b of them; so the row-s edges it reaches are the row-s edges among
those b, whether edges tie within a row or across rows, and a (b, s)
table of those counts gives every step. Each draw's b is itself read
from a table over a grid of GRID cells on [0, 1) (see _bins); only draws
that share a cell with an edge are placed among the edges by search.
"""

import numpy as np

# Walks longer than this are cut into chunks of this many steps (see walk).
CHUNK = 512
# Cells of the bin table on [0, 1) (see _bins): a power of two, so that a
# draw's cell floor(u * GRID) is exact.
GRID = 1 << 16


def pair_counts(states, n_states):
    """Count adjacent (from, to) pairs into an n_states x n_states matrix.

    States must already lie in 1..n_states; callers check the range.
    """
    states = np.asarray(states, dtype=np.int64)
    codes = (states[:-1] - 1) * n_states + (states[1:] - 1)
    return np.bincount(codes, minlength=n_states * n_states).reshape(n_states, n_states)


def _advance(flat, states, base, out=None):
    """Step 0-based `states` through the last axis of `base` in lockstep.

    flat is the transition table and base the draws' scaled bins (see
    walk); base[..., t] must broadcast against states. Each visited state
    is written 1-based to out[..., t] when out is given; the final states
    are returned.
    """
    for t in range(base.shape[-1]):
        states = flat.take(base[..., t] + states)
        if out is not None:
            out[..., t] = states + 1
    return states


def _table(edges, scale):
    """The bin table of sorted edges over GRID cells: table[c] is scale
    times the number of edges below cell c, or -1 where cell c holds an
    edge (floor(e * GRID) == c)."""
    cells = np.floor(np.clip(edges, -1.0, 1.0) * GRID)
    table = np.searchsorted(cells, np.arange(GRID)) * scale
    table[cells[(cells >= 0) & (cells < GRID)].astype(np.intp)] = -1
    return table


def _bins(edges, uniforms, scale=1):
    """np.searchsorted(edges, uniforms, side="right") * scale for sorted
    edges, as a new intp array, by one read of _table per draw.

    A draw u in [0, 1) lies in cell c = floor(u * GRID). If no edge lies in
    that cell, every edge of a lower cell is below c/GRID <= u and every
    edge of a higher cell is at or above (c+1)/GRID > u, so table[c] is its
    count. Draws in a cell that holds an edge, draws outside [0, 1) and NaN
    are placed by searchsorted. The cell indices are computed into the
    output array and looked up in place.
    """
    out = np.empty(uniforms.shape, dtype=np.intp)
    stray = None
    u = uniforms
    if u.size and not (u.min() >= 0 and u.max() < 1):  # a NaN fails both
        stray = ~((u >= 0) & (u < 1))
        u = np.where(stray, 0.0, u)
    np.multiply(u, GRID, out=out, casting="unsafe")  # truncation is floor here
    _table(edges, scale).take(out, out=out, mode="clip")  # "clip" works in place
    if stray is not None:
        out[stray] = -1
    hit = out < 0
    out[hit] = np.searchsorted(edges, uniforms[hit], side="right") * scale
    return out


def walk(cum_rows, first_states, uniforms):
    """Walk one chain per row of `uniforms`, all rows in lockstep.

    cum_rows holds the row-wise cumulative sums of the transition matrix,
    first_states the 1-based start of each row, and uniforms an (N, T)
    array of draws, one per step. Returns an (N, T+1) int64 array of
    1-based states whose first column is first_states.

    The first K-1 edges of every row are merged by a stable sort, and
    flat[b*K + s] counts the row-s edges among the first b merged ones.
    Each draw is mapped once to b*K, b the number of merged edges it
    reaches (_bins), and a step from 0-based state s reads flat[b*K + s].
    The table has K(K(K-1)+1) cells of the smallest type that holds K.

    A walk longer than CHUNK steps is cut into chunks of CHUNK steps. Every
    full chunk is first walked from every possible start state at once,
    which gives its end state as a function of its start. Chaining those
    end states in order yields each chunk's real start state, and then all
    chunks are walked together from their real starts. The draws' bins are
    read through reshape views, never copied.
    """
    k = cum_rows.shape[1]
    edges = cum_rows[:, : k - 1].ravel()
    order = np.argsort(edges, kind="stable")
    member = order[:, None] // (k - 1) == np.arange(k)  # each merged edge's row
    small = np.min_scalar_type(k)  # holds every count and 1-based state
    flat = np.concatenate([np.zeros(k, dtype=small),
                           member.cumsum(axis=0, dtype=small).ravel()])
    bins = _bins(edges[order], uniforms, k)
    n, t = uniforms.shape
    out = np.empty((n, t + 1), dtype=np.int64)
    out[:, 0] = first_states
    n_full = t // CHUNK if t > CHUNK else 0
    body = n_full * CHUNK
    starts = np.empty((n, n_full + 1), dtype=np.intp)
    starts[:, 0] = out[:, 0] - 1
    if n_full:
        chunks = bins[:, :body].reshape(n, n_full, CHUNK)
        every_start = np.broadcast_to(np.arange(k), (n, n_full, k))
        ends = _advance(flat, every_start, chunks[:, :, None, :])
        rows = np.arange(n)
        for c in range(n_full):
            starts[:, c + 1] = ends[rows, c, starts[:, c]]
        _advance(flat, starts[:, :n_full], chunks,
                 out[:, 1 : body + 1].reshape(n, n_full, CHUNK))
    # the rest of the walk, or all of a walk of at most CHUNK steps
    _advance(flat, starts[:, n_full], bins[:, body:], out[:, body + 1 :])
    return out
