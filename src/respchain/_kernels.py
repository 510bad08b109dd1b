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

A long walk is cut into chunks, each first walked from every start state
on its own draws. Once those walks have met they stay together, so the
rest of the chunk no longer depends on its start (the coupling of Propp &
Wilson 1996, "Exact sampling with coupled Markov chains and applications
to statistical mechanics", Random Structures & Algorithms 9; see walk).
"""

import numpy as np

# Walks longer than this are cut into chunks of this many steps (see walk).
CHUNK = 512
# Steps between _meet's checks for whether every start's walks have met.
MEET_EVERY = 16
# Cells of the bin table on [0, 1) (see _bins): a power of two, so that a
# draw's cell floor(u * GRID) is exact.
GRID = 1 << 16
# Draws whose cells _bins computes in one numpy call (see _bins).
BLOCK = 1 << 15


def pair_counts(states, n_states):
    """Count adjacent (from, to) pairs into an n_states x n_states matrix.

    States must already lie in 1..n_states; callers check the range.
    """
    states = np.asarray(states, dtype=np.int64)
    codes = (states[:-1] - 1) * n_states + (states[1:] - 1)
    return np.bincount(codes, minlength=n_states * n_states).reshape(n_states, n_states)


def _advance(flat, states, steps, visit=False):
    """Step 0-based `states` through the rows of `steps` in lockstep.

    flat is the transition table and steps[j] the scaled bins of step j's
    draws (see walk), which must broadcast against states. When visit is
    set, each step's 0-based states are written in place over its bins,
    which are read only once. The final states are returned.
    """
    for row in steps:
        states = flat.take(row + states)
        if visit:
            row[...] = states
    return states


def _meet(flat, k, steps):
    """Walk the chunks of `steps` from every start state at once, checking
    every MEET_EVERY steps, up to CHUNK - MEET_EVERY, whether each chunk's
    K walks are in one state. Returns the first step at which they all
    are and the (K, N, n_full) states there, or CHUNK and the end states."""
    states = np.arange(k)[:, None, None]
    for meet in range(MEET_EVERY, CHUNK, MEET_EVERY):
        states = _advance(flat, states, steps[meet - MEET_EVERY : meet])
        if (states == states[0]).all():
            return meet, states
    return CHUNK, _advance(flat, states, steps[CHUNK - MEET_EVERY :])


def _table(edges, scale):
    """The bin table of sorted edges over GRID cells: table[c] is scale
    times the number of edges below cell c, or -1 where cell c holds an
    edge (floor(e * GRID) == c)."""
    cells = np.floor(np.clip(edges, -1.0, 1.0) * GRID)
    table = np.searchsorted(cells, np.arange(GRID)) * scale
    table[cells[(cells >= 0) & (cells < GRID)].astype(np.intp)] = -1
    return table


def _bins(edges, uniforms, scale=1, table=None):
    """np.searchsorted(edges, uniforms, side="right") * scale for sorted
    edges, as a new intp array, by one read of table = _table(edges, scale)
    per draw; the table is built here unless given.

    A draw u in [0, 1) lies in cell c = floor(u * GRID). If no edge lies in
    that cell, every edge of a lower cell is below c/GRID <= u and every
    edge of a higher cell is at or above (c+1)/GRID > u, so table[c] is its
    count. Draws in a cell that holds an edge, draws outside [0, 1) and NaN
    are placed by searchsorted. The cell indices are computed into the
    output array, BLOCK draws and whole columns of it at a time, and looked
    up in place. When the draws are a transposed view (walk's step-major
    bins), a block reads few pages of them.
    """
    out = np.empty(uniforms.shape, dtype=np.intp)
    stray = None
    u = uniforms
    if u.size and not (u.min() >= 0 and u.max() < 1):  # a NaN fails both
        stray = ~((u >= 0) & (u < 1))
        u = np.where(stray, 0.0, u)
    cols = out.shape[-1]
    width = max(1, BLOCK * cols // max(out.size, 1))
    for c in range(0, cols, width):  # truncation is floor here
        np.multiply(u[..., c : c + width], GRID, out=out[..., c : c + width], casting="unsafe")
    if table is None:
        table = _table(edges, scale)
    table.take(out, out=out, mode="clip")  # "clip" works in place
    if stray is not None:
        out[stray] = -1
    hit = out < 0
    out[hit] = np.searchsorted(edges, uniforms[hit], side="right") * scale
    return out


def walk(cum_rows, first_states, uniforms):
    """Walk one chain per row of `uniforms`, all rows in lockstep.

    cum_rows holds the row-wise cumulative sums of the transition matrix,
    first_states the 1-based start of each row, and uniforms an (N, T)
    array of draws, one per step. Returns an (N, T+1) array of 1-based
    states whose first column is first_states, in the smallest unsigned
    type that holds K (the type a loaded cohort's states have).

    The first K-1 edges of every row are merged by a stable sort, and
    flat[b*K + s] counts the row-s edges among the first b merged ones.
    Each draw is mapped once to b*K, b the number of merged edges it
    reaches (_bins), and a step from 0-based state s reads flat[b*K + s].
    The table has K(K(K-1)+1) cells of the smallest type that holds K.

    A walk longer than CHUNK steps is cut into full chunks of CHUNK steps
    and a shorter tail. The bins are laid out step-major, so that each step
    reads one contiguous row: step j of every chunk of every walk, or step
    j of the tail of every walk. Every full chunk is first walked from
    every possible start state at once (_meet). If at some check step
    m < CHUNK each chunk's K walks are in one state, that state no longer
    depends on the chunk's start (Propp & Wilson's coupling), and walking
    it once through steps m..CHUNK gives the chunk's real end state.
    Otherwise the pass ends with each chunk's end state as a function of
    its start, and composing those maps by doubling (a prefix scan over
    the chunks) gives each chunk's real end. All chunks are then walked
    together from their real starts through the steps before m (all of
    them after the scan), each step's states written over its bins. The
    output is filled from those states last, so the walk needs the output
    (one byte per step for K <= 255) and one intp per draw.
    """
    k = cum_rows.shape[1]
    edges = cum_rows[:, : k - 1].ravel()
    order = np.argsort(edges, kind="stable")
    member = order[:, None] // (k - 1) == np.arange(k)  # each merged edge's row
    small = np.min_scalar_type(k)  # holds every count and 1-based state
    flat = np.concatenate([np.zeros(k, dtype=small),
                           member.cumsum(axis=0, dtype=small).ravel()])
    edges = edges[order]
    n, t = uniforms.shape
    n_full = t // CHUNK if t > CHUNK else 0
    body = n_full * CHUNK
    starts = np.asarray(first_states) - 1
    # step-major bins: row j of tail is step j of the rest of every walk,
    # and row j of steps, (N, n_full), step j of every full chunk
    table = _table(edges, k)
    tail = _bins(edges, uniforms[:, body:].T, k, table)
    if n_full:
        steps = _bins(edges, uniforms[:, :body].reshape(n, n_full, CHUNK).transpose(2, 0, 1),
                      k, table)
    del table  # not held while the output is allocated
    if n_full:
        # ends[s, :, c] is chunk c's state at step meet when it starts from s
        meet, ends = _meet(flat, k, steps)
        if meet < CHUNK:  # every start has met: walk the rest once, from one
            ends = _advance(flat, ends[0], steps[meet:], visit=True)
        else:
            span = 1  # a prefix scan: ends[:, :, c] becomes chunks 0..c composed
            while span < n_full:
                ends[:, :, span:] = np.take_along_axis(ends[:, :, span:], ends[:, :, :-span], 0)
                span *= 2
            ends = ends[starts, np.arange(n)]
        # ends is (N, n_full): each chunk's real end state
        _advance(flat, np.column_stack([starts, ends[:, :-1]]), steps[:meet], visit=True)
        starts = ends[:, -1]
    # the rest of the walk, or all of a walk of at most CHUNK steps
    _advance(flat, starts, tail, visit=True)
    out = np.empty((n, t + 1), dtype=small)
    out[:, 0] = first_states
    if n_full:
        np.add(steps.transpose(1, 2, 0), 1, out=out[:, 1 : body + 1].reshape(n, n_full, CHUNK),
               casting="unsafe")
    np.add(tail.T, 1, out=out[:, body + 1 :], casting="unsafe")
    return out
