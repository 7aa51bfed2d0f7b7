"""Random ergodic averages: sampled, exact, and their limits.

Time averages along sampled driving paths (Birkhoff averages) converge to a
limit determined by the closed class of the starting pair; the expectation
operator M_n averages the n-th iterate over all paths at once and its
Cesaro means converge to a mixture of class averages. Both limits are
computed here in closed form from the pair chain, with the sampled and the
dynamic-programming routes kept available for cross-checking.

Randomness runs through counter-based Philox streams keyed by
(seed, stream index), so every trial owns an independent, reproducible
substream: results are identical however trials are scheduled.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, fields

import numpy as np

from .dynamics import _checked_f
from .errors import DimensionMismatch, StartOffSupport, TooLarge, ValidationError
from .kernels import MarkovSpec, ProbVector, _is_index
from .skew import SkewSystem


def _checked_int(value, what: str) -> int:
    """value as an int, refused unless it is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _stream_key(seed, stream) -> np.ndarray:
    """Philox key of stream (seed, stream): integers of any sign, numpy
    integers included, each taken modulo 2**64."""
    key = [_checked_int(seed, "seed") % (1 << 64), _checked_int(stream, "stream") % (1 << 64)]
    return np.array(key, dtype=np.uint64)


def substream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); counter-based, reproducible."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, stream)))


_CHUNK = 4096  # words drawn per stream at a time
_WORDS = 1 << 22  # words held at once over all streams (32 MB)
_BINNED = 1 << 14  # words binned at a time over all streams (128 KB)
_TABLE = 1 << 22  # most entries in a pair table (32 MB, as many as the words)
_BUCKETS = 1 << 12  # a word's top 12 bits are its bucket of bins
_VISITS = 1 << 16  # visit indices buffered per bincount in orbit_occupancy
_DP_BLOCK = 1 << 16  # (state, point) masses held per block of DP steps

# Caps, checked before anything is allocated or sampled. A horizon costs 8
# bytes per step in the DP's values and in a sampled path, each trial holds
# its stream's key, and horizon x trials is the sampler's work.
MAX_HORIZON = 10**6
MAX_TRIALS = 10**4
MAX_TRIAL_STEPS = 2 * 10**8


def _checked_count(value, what: str, least: int) -> int:
    """value as an int, refused unless it is an integer (not a bool) >= least."""
    if _checked_int(value, what) < least:
        raise ValidationError(f"{what} must be at least {least}, got {value!r}")
    return int(value)


def _checked_horizon(value, what: str, least: int = 1) -> int:
    """value as a count >= least, refused with TooLarge above MAX_HORIZON."""
    value = _checked_count(value, what, least)
    if value > MAX_HORIZON:
        raise TooLarge(f"{what} {value} exceeds MAX_HORIZON = {MAX_HORIZON}")
    return value


def _row_keys(values: np.ndarray):
    """(cols, keys, G) drawing the rows of the weights values from raw words w
    over their nonzero entries, in O(rows·max row support) memory beside them.

    A row draws its support column at the count of its thresholds ⌈c·2⁵³⌉
    <= v = w >> 11, c its partial sums but the last (as c·2⁵³ is exact, that
    is u >= c for w's uniform u): never a weight-0 column. With g = #{G <= v}
    for the distinct thresholds G, row y draws cols[#{keys <= y·(len(G) + 1)
    + g} + y], keys holding y·(len(G) + 1) + #{G <= t} for its thresholds t."""
    rows, cols = np.divmod(np.flatnonzero(values), values.shape[1])
    counts = np.bincount(rows, minlength=len(values))
    at = np.arange(len(rows)) - (np.cumsum(counts) - counts).take(rows)
    sums = np.zeros((len(values), counts.max()))
    sums[rows, at] = values[rows, cols]
    np.cumsum(sums, axis=1, out=sums)
    inner = at < counts.take(rows) - 1
    T = np.ceil(sums[rows[inner], at[inner]] * 2.0**53)
    G = np.sort(T)  # in float64, as ceil keeps the order; np.unique loads numpy.ma
    G = G[np.diff(G, prepend=-1.0) > 0]
    return cols, np.searchsorted(G, T) + 1 + rows[inner] * (len(G) + 1), G.astype(np.uint64)


def _draw(p: ProbVector, words: np.ndarray) -> np.ndarray:
    """The index each raw word draws from p: _row_keys' rule on one row."""
    cols, keys, G = _row_keys(p.values[None, :])
    g = np.searchsorted(G, words >> 11, side="right")
    return cols.take(np.searchsorted(keys, g, side="right"))


def _pair_table(cols, keys, G, fibers: np.ndarray, draws: int):
    """table[g·n·k + s] = (row y's draw in bin g)·k + fibers[y, x] for s = y·k + x;
    None when its (len(G) + 1)·n·k entries would exceed _TABLE or the draws."""
    (n, k), bins = fibers.shape, len(G) + 1
    if bins * n * k > min(_TABLE, draws):
        return None
    q = np.arange(n * bins)
    drawn = cols.take(np.searchsorted(keys, q, side="right") + q // bins).reshape(n, bins)
    table = (drawn.T * k).repeat(k, axis=1)
    table += fibers.ravel()
    return table.ravel()


def _walk_pairs(spec: MarkovSpec, seed: int, streams, start: int | None, steps: int, fibers, x0):
    """Pairs s = y * k + x at steps 0 .. steps-1 of one walk per stream, as
    (steps in the block, len(streams)) arrays: the driving state y steps by
    a row draw and the point x by fibers[y, x], from x0[i] on stream i.

    Each stream spends its words in a pinned order: one for the initial
    state from m (none when start fixes it), then one per step for the row
    draw, taken in chunks of at most _CHUNK (fewer when many streams would
    hold more than _WORDS at once) and never more than the steps still to
    go. Stream s yields the same pairs whatever the other streams. A word's
    bin (_row_keys) is looked up by its top 12 bits, or searched where they
    leave it open; a step is one gather from the _pair_table, or one search.
    """
    if start is not None:
        if not _is_index(start, spec.n):
            raise ValidationError(f"start state {start!r} is not a state index 0..{spec.n - 1}")
        if spec.m.values[start] == 0:
            raise StartOffSupport(f"start state {start} has zero stationary mass")
    keys = [_stream_key(seed, s) for s in streams]
    (n, k), trials = fibers.shape, len(keys)
    cols, ranked, G = _row_keys(spec.kernel.values)
    table, flat = _pair_table(cols, ranked, G, fibers, trials * steps), fibers.ravel()
    # bucket w >> 52 holds the bin (times n·k for the table) of its words, or -1
    scale, bins = (1 if table is None else n * k), len(G) + 1
    edges = np.arange(_BUCKETS + 1, dtype=np.uint64) << 41
    low = np.searchsorted(G, edges[:-1], side="right")
    buckets = np.where(np.searchsorted(G, edges[1:]) > low, -1, low * scale)
    # One Philox serves every stream, through one state dict re-keyed in
    # place. Philox makes words 4 at a time from counters 1, 2, ..., so key
    # (seed, s) with counter c and an empty buffer stands where
    # substream(seed, s) stands after 4c words: a chunk that starts at word
    # w sets c = w // 4 and drops the first w % 4 words it draws.
    bg = np.random.Philox(key=keys[0])
    state = bg.state
    counter, drawn = state["state"]["counter"], 0
    lead = int(start is None)  # column 0 of the first chunk draws the initial state
    pairs = None if lead else start * k + x0
    chunk = min(_CHUNK, max(_WORDS // trials, 1))
    block = max(_BINNED // trials, 1)
    words = np.empty((trials, min(chunk, steps) + lead), dtype=np.uint64)
    for done in range(0, steps, chunk):
        width = min(chunk, steps - done) + lead
        counter[0], skip = divmod(drawn, 4)
        for key, row in zip(keys, words):
            state["state"]["key"] = key
            bg.state = state
            row[:width] = bg.random_raw(skip + width)[skip:]
        drawn += width
        if lead:
            pairs = _draw(spec.m, words[:, 0]) * k + x0
        for at in range(lead, width, block):
            v = words[:, at : min(at + block, width)].T
            out = np.empty((len(v) + 1, trials), dtype=np.int64)
            out[0] = pairs
            g = buckets.take(v >> 52)
            split = g < 0
            w = v[split] >> 11
            order = w.argsort()  # sorted words search a long G with few cache misses
            w[order] = np.searchsorted(G, w[order], side="right")  # the words' bins
            g[split] = w * scale
            if table is None:
                for gs, s, after in zip(g, out, out[1:]):
                    y = s // k
                    y_next = cols.take(np.searchsorted(ranked, y * bins + gs, side="right") + y)
                    np.add(y_next * k, flat.take(s), out=after)
            else:  # the indices are in range, and "clip" writes out unbuffered
                for gs, s, after in zip(g, out, out[1:]):
                    table.take(s + gs, out=after, mode="clip")
            pairs = out[-1]
            yield out[:-1]
        lead = 0


def sample_path(
    spec: MarkovSpec, seed: int, length: int, start: int | None = None, stream: int = 0
) -> np.ndarray:
    """Driving path of the given length on one substream: the initial state
    from m (or fixed by start), then one row draw per step. Identical seed,
    start and stream reproduce the identical path."""
    length = _checked_horizon(length, "path length", 0)
    # a one-point fiber: the pair of state y is y itself
    fibers, x0 = np.zeros((spec.n, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
    blocks = _walk_pairs(spec, seed, [stream], start, length, fibers, x0)
    return np.concatenate([np.empty((0, 1), dtype=np.int64), *blocks])[:, 0]


def _checked_f_at(sys: SkewSystem, f, x: int) -> np.ndarray:
    """f as a float vector over the fiber points, with x a point index on
    their support."""
    fv = _checked_f(sys.family.space, f)
    k = sys.family.space.k
    if not _is_index(x, k):
        raise ValidationError(f"start point {x!r} is not a point index 0..{k - 1}")
    if sys.family.space.mu.values[x] == 0:
        raise StartOffSupport(f"start point {x} is a zero-mass point")
    return fv


def birkhoff_average(
    sys: SkewSystem, path: np.ndarray, f, x: int, n: int
) -> float:
    """Time average of f along the orbit of x driven by the first n path states."""
    fv = _checked_f_at(sys, f, x)
    n = _checked_count(n, "n", 1)
    path = np.asarray(path)
    if path.dtype.kind not in "iu":
        raise ValidationError(f"path must hold integer state indices, got {path.dtype} entries")
    if n > len(path):
        raise ValidationError(f"need 1 <= n <= path length, got n={n}")
    tables = sys.family.tables.tolist()
    fl = list(fv)
    pl = path[:n].tolist()
    bad = [s for s in pl if not 0 <= s < len(tables)]
    if bad:
        raise ValidationError(f"path state {bad[0]} is outside 0..{len(tables) - 1}")
    pos = int(x)
    total = 0.0
    for state in pl:
        total += fl[pos]
        pos = tables[state][pos]
    return total / n


def exact_birkhoff_limit(sys: SkewSystem, y: int, x: int, f) -> float:
    """Almost-sure limit of the Birkhoff averages started at pair (y, x).

    Equals the product-weighted average of f over the closed class of the
    pair; for a strictly irreducible driving kernel this is the conditional
    expectation of f on the invariant partition, independent of y.
    """
    return sys.closed_classes.class_average(y, x, _checked_f_at(sys, f, x))


def expectation_operator(sys: SkewSystem, f, x: int, n: int) -> float:
    """Average of f over the n-th random iterate of x, by exact dynamic
    programming on (state, point) mass.

    Any n is answered once the mass grid cycles; an n of MAX_HORIZON or more
    with no cycle within MAX_HORIZON steps raises TooLarge.
    """
    fv = _checked_f_at(sys, f, x)
    n = _checked_count(n, "n", 0)
    values, start = _iterate_means(sys, fv, x, min(n + 1, MAX_HORIZON))
    if n < len(values):
        return float(values[n])
    if start is None:
        raise TooLarge(f"n = {n}: no cycle of the DP within MAX_HORIZON = {MAX_HORIZON} steps")
    return float(values[start + (n - start) % (len(values) - start)])


def _iterate_means(
    sys: SkewSystem, fv: np.ndarray, x: int, steps: int
) -> tuple[np.ndarray, int | None]:
    """M_j f(x) for j = 0 .. steps-1: the (state, point) mass starts as m on
    the states, all at point x, and takes one pair-chain step per j.

    Returns (values, start). start is None when values holds all `steps`
    values. Otherwise the mass grid at step len(values) equals, bit for bit,
    the grid at step start; `_pair_step` does the same float operations at
    every step, so every later grid, and every later value, repeats with
    period len(values) - start.

    Consecutive masses fill blocks of 1, 2, 4, ... steps, at most about
    _DP_BLOCK entries; each block is summed to fiber marginals and dotted
    with f in one vecdot, which uses the kernel of a 1-D dot, so every value
    has the per-step bits. The cycle is found as in Brent's algorithm: each
    block's grids are compared, as raw bits, with one saved grid, which is
    renewed to a block's last grid whenever the step count has doubled since
    the last renewal.
    """
    n, k = sys.spec.n, sys.family.space.k
    cap = max(_DP_BLOCK // (n * k), 1)
    block = np.empty((min(cap, steps), n, k))
    block[0] = 0.0
    block[0, :, int(x)] = sys.spec.m.values
    bits = block.reshape(len(block), -1).view(np.int64)
    parts, saved, saved_at = [], None, 0
    done, width = 0, 1
    while done < steps:
        if done:
            sys._pair_step(block[width - 1], out=block[0])
            width = min(2 * width, cap, steps - done)
        for i in range(1, width):
            sys._pair_step(block[i - 1], out=block[i])
        if saved is not None:
            same = (bits[:width] == saved).all(axis=1)
            if same.any():
                hit = int(same.argmax())
                parts.append(np.vecdot(block[:hit].sum(axis=1), fv))
                return np.concatenate(parts), saved_at
        parts.append(np.vecdot(block[:width].sum(axis=1), fv))
        done += width
        if saved is None or done >= 2 * (saved_at + 1):
            saved, saved_at = bits[width - 1].copy(), done - 1
    return np.concatenate(parts), None


def exact_cesaro_limit(sys: SkewSystem, f, x: int) -> float:
    """Limit of the Cesaro means of M_j f at x, in closed form.

    The initial pair mass m(y) at (y, x) stays inside the closed class of
    (y, x) and equidistributes to the normalized product measure there, so
    the limit is the m-mixture of class averages over the classes met by x.
    """
    fv = _checked_f_at(sys, f, x)
    report, supp = sys.closed_classes, sys.spec.support
    met = report.labels[supp, x]
    averages = np.empty(len(report.class_masses))
    for c, i in zip(*np.unique(met, return_index=True)):  # each class met once
        averages[c] = report.class_average(supp[i], x, fv)
    # Summed left to right, like a loop over the states.
    return float(np.cumsum(sys.spec.m.values[supp] * averages[met])[-1])


def cesaro_partial_averages(
    sys: SkewSystem, f, x: int, horizons
) -> dict[int, float]:
    """Iterative partial Cesaro means (1/n) sum_{j<n} M_j f(x) at each horizon."""
    hs = _checked_horizons(horizons)
    fv = _checked_f_at(sys, f, x)
    values = _tiled(*_iterate_means(sys, fv, x, hs[-1]), hs[-1])
    sums = np.cumsum(values)  # left to right, like a loop
    return {n: float(sums[n - 1]) / n for n in hs}


def _tiled(values: np.ndarray, start: int | None, steps: int) -> np.ndarray:
    """The first `steps` values, with the cycle values[start:] repeated to
    fill them."""
    if start is None:
        return values
    reps = -(-(steps - start) // (len(values) - start))
    return np.concatenate([values[:start], np.tile(values[start:], reps)])[:steps]


def _checked_horizons(horizons) -> list[int]:
    hs = [_checked_horizon(h, "horizon") for h in horizons]
    if not hs or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValidationError("horizons must be a strictly increasing list of counts >= 1")
    return hs


def orbit_occupancy(
    sys: SkewSystem,
    seed: int,
    trials: int,
    checkpoints,
    x0,
    start: int | None = None,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Visit counts of fiber points along sampled orbits, per trial.

    Runs `trials` independent substreams (keyed by trial index) in
    lockstep; x0 is a single start point or one per trial. Returns the
    initial driving states and, at each checkpoint n, the (trials, points)
    matrix of visit counts over the first n steps: Birkhoff averages for
    any f follow as counts @ f / n.
    """
    hs = _checked_horizons(checkpoints)
    trials = _checked_count(trials, "trials", 1)
    if trials > MAX_TRIALS:
        raise TooLarge(f"trials {trials} exceeds MAX_TRIALS = {MAX_TRIALS}")
    if hs[-1] * trials > MAX_TRIAL_STEPS:
        raise TooLarge(
            f"horizon {hs[-1]} x trials {trials} exceeds MAX_TRIAL_STEPS = {MAX_TRIAL_STEPS}"
        )
    family, k = sys.family, sys.family.space.k
    x_arr = np.asarray(x0)
    if x_arr.dtype.kind not in "iu":
        raise ValidationError(f"x0 must be integer point indices, got {x0!r}")
    if x_arr.shape not in ((), (1,), (trials,)):
        raise DimensionMismatch(
            f"x0 has shape {x_arr.shape}; expected one start point or one per trial "
            f"(trials={trials})"
        )
    outside = (x_arr < 0) | (x_arr >= k)
    if outside.any():
        bad = int(x_arr[outside][0])
        raise ValidationError(f"start point {bad} is not a point index 0..{k - 1}")
    x_arr = np.broadcast_to(x_arr.astype(np.int64), (trials,))
    if not np.isin(x_arr, family.space.support).all():
        raise StartOffSupport("a trial starts at a zero-mass point")
    # The walk hands back blocks of pairs y * k + x, one row per step. Each
    # block's pairs go into a visit buffer as flat indices trial * k + x; a
    # full buffer or a checkpoint folds it into counts with one bincount.
    point_of = np.tile(np.arange(k), sys.spec.n)
    offsets = np.arange(0, trials * k, k)
    counts = np.zeros(trials * k, dtype=np.int64)
    visits = np.empty((max(_VISITS // trials, 1), trials), dtype=np.int64)
    filled = done = 0
    results: dict[int, np.ndarray] = {}
    for block in _walk_pairs(sys.spec, seed, range(trials), start, hs[-1], family.tables, x_arr):
        if not done:
            first_states = block[0] // k
        while len(block):  # the last block ends at the last checkpoint
            mark = hs[len(results)]
            rows = min(len(block), len(visits) - filled, mark - done)
            into = visits[filled : filled + rows]
            # the pairs are in range, and "clip" writes out unbuffered
            point_of.take(block[:rows], out=into, mode="clip")
            into += offsets
            block, filled, done = block[rows:], filled + rows, done + rows
            if filled == len(visits) or done == mark:
                counts += np.bincount(visits[:filled].ravel(), minlength=len(counts))
                filled = 0
            if done == mark:
                results[mark] = counts.reshape(trials, k).copy()
    return first_states, results


def system_digest(sys: SkewSystem) -> str:
    """Short content hash of a skew system, for trace metadata."""
    h = hashlib.sha256()
    for values in (sys.spec.kernel.values, sys.spec.m.values, sys.family.space.mu.values):
        h.update(np.ascontiguousarray(values).tobytes())
    h.update("|".join(sys.family.space.points).encode())
    h.update(sys.family.tables.tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class TraceRow:
    n: int
    empirical_birkhoff: float
    mc_mean: float
    cesaro_partial: float
    reference: float
    abs_err_birkhoff: float
    abs_err_cesaro: float


CSV_HEADER = ",".join(f.name for f in fields(TraceRow))


@dataclass(frozen=True)
class ConvergenceTrace:
    """Rows of a convergence experiment plus its identifying metadata."""

    rows: tuple[TraceRow, ...]
    metadata: tuple[tuple[str, str], ...]

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValidationError("trace horizons must be strictly increasing")

    def to_csv(self) -> str:
        lines = [f"# {k}: {v}" for k, v in self.metadata]
        lines.append(CSV_HEADER)
        lines.extend(",".join(map(repr, astuple(r))) for r in self.rows)
        return "\n".join(lines) + "\n"


def convergence_report(
    sys: SkewSystem,
    f,
    x: int,
    seed: int,
    horizons,
    trials: int = 200,
    start: int | None = None,
    f_label: str = "f",
    x_label: str | None = None,
) -> ConvergenceTrace:
    """Empirical and exact convergence data at the given horizons.

    Per horizon: the Birkhoff average of one sampled path (trial 0), the
    mean over all trials, the iterative Cesaro partial mean, and the exact
    limit for trial 0's initial pair; error columns measure both empirical
    routes against their exact references.
    """
    hs = _checked_horizons(horizons)
    fv = _checked_f_at(sys, f, x)
    first_states, occupancy = orbit_occupancy(sys, seed, trials, hs, x, start)
    cesaro = cesaro_partial_averages(sys, fv, x, hs)
    y0 = int(first_states[0])
    reference = exact_birkhoff_limit(sys, y0, x, fv)
    cesaro_ref = exact_cesaro_limit(sys, fv, x)
    rows = []
    for n in hs:
        averages = occupancy[n] @ fv / n
        emp = float(averages[0])
        rows.append(
            TraceRow(
                n=n,
                empirical_birkhoff=emp,
                mc_mean=float(averages.mean()),
                cesaro_partial=cesaro[n],
                reference=reference,
                abs_err_birkhoff=abs(emp - reference),
                abs_err_cesaro=abs(cesaro[n] - cesaro_ref),
            )
        )
    metadata = (
        ("seed", str(seed)),
        ("start", "stationary" if start is None else str(start)),
        ("f", f_label),
        ("x", str(x) if x_label is None else x_label),
        ("system", system_digest(sys)),
        ("trials", str(trials)),
        ("cesaro_reference", repr(cesaro_ref)),
    )
    return ConvergenceTrace(tuple(rows), metadata)
