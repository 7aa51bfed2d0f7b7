"""Sampled and exact ergodic averages, their limits, and trace emission."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepskew as sk
import stepskew.ergodic as ergodic
from conftest import spec_of, system_of

GEN = sk.GeneratorConfig(
    seed=4444, n_states=(2, 4), n_points=(2, 4), degenerate_bias=0.3
)

IND1 = np.array([1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# sample_path
# ---------------------------------------------------------------------------
def test_path_deterministic_rows(period2_spec):
    path = sk.sample_path(period2_spec, seed=5, length=5, start=0)
    assert list(path) == [0, 1, 0, 1, 0]


def test_path_length_zero(period2_spec):
    assert len(sk.sample_path(period2_spec, seed=5, length=0)) == 0


def test_path_reproducible(period2_spec):
    a = sk.sample_path(period2_spec, seed=9, length=50)
    b = sk.sample_path(period2_spec, seed=9, length=50)
    c = sk.sample_path(period2_spec, seed=10, length=50)
    assert (a == b).all()
    assert (a != c).any()


def test_path_bernoulli_chi_square():
    # i.i.d. draws from m; Pearson statistic against expected counts
    m = sk.ProbVector.from_values([0.2, 0.3, 0.5])
    spec = sk.trivial_kernel(m)
    n = 30_000
    path = sk.sample_path(spec, seed=123, length=n)
    counts = np.bincount(path, minlength=3)
    expected = m.values * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # df = 2; P(chi2 > 13.8) ~ 0.001
    assert chi2 < 13.8


def test_path_stationary_start_uses_m():
    spec = spec_of([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    path = sk.sample_path(spec, seed=77, length=10)
    assert set(path) == {0}


def _draw(cum, u):
    return int((cum <= u).sum())


def reference_path(spec, seed, length, start=None, stream=0):
    """The scalar sampler the library's batched one replaced, kept as its
    oracle: one uniform for the initial state from m (none for a fixed
    start), then one per step for the row draw."""
    path = np.empty(length, dtype=np.int64)
    if length == 0:
        return path
    g = sk.substream(seed, stream)
    cums = np.cumsum(spec.kernel.values, axis=1)
    cums[:, -1] = 1.0
    if start is None:
        m_cum = np.cumsum(spec.m.values)
        m_cum[-1] = 1.0
        state = _draw(m_cum, g.random())
    else:
        state = start
    path[0] = state
    for i in range(1, length):
        state = _draw(cums[state], g.random())
        path[i] = state
    return path


def _row_draws_matter(spec):
    """Whether some state on the support of m has more than one successor."""
    return bool(((spec.kernel.values[spec.support] > 0).sum(axis=1) > 1).any())


# Generated specs on which a misplaced uniform changes the path; the second
# list keeps those that also have zero-mass states.
DRAWN_SPECS = [i for i in range(160) if _row_draws_matter(sk.generate_spec(GEN, index=i))]
ZERO_MASS_SPECS = [
    i for i in DRAWN_SPECS if (sk.generate_spec(GEN, index=i).m.values == 0).any()
]


# lengths around the first chunk edge, and one past the second
@pytest.mark.parametrize("length", [1, 4095, 4096, 4097, 4098, 8193])
@given(
    st.sampled_from(ZERO_MASS_SPECS) | st.sampled_from(DRAWN_SPECS),
    st.integers(0, 2**32),
    st.data(),
)
@settings(max_examples=4, deadline=None)
def test_samplers_match_reference_draw(length, idx, seed, data):
    # trial t of orbit_occupancy runs on stream t, as sample_path(stream=t)
    import stepskew.ergodic as ergodic

    spec = sk.generate_spec(GEN, index=idx)
    start = data.draw(st.none() | st.sampled_from([int(y) for y in spec.support]))
    trials = data.draw(st.integers(1, 3))
    paths = [reference_path(spec, seed, length, start, t) for t in range(trials)]
    for t, expected in enumerate(paths):
        assert (sk.sample_path(spec, seed, length, start, stream=t) == expected).all()

    # checkpoints on both sides of the chunk edge, with a visit buffer that
    # flushes every step, every few steps, mid-chunk or never
    edges = st.sampled_from([1, 2, 4095, 4096, 4097, 8192]).filter(lambda n: n <= length)
    checkpoints = sorted(data.draw(st.sets(edges | st.integers(1, length), max_size=4)) | {length})
    visits = data.draw(st.sampled_from([1, 7, 3000, ergodic._VISITS]))
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    x = int(space.support[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_VISITS", visits)
        first, occ = sk.orbit_occupancy(sys_, seed, trials, checkpoints, x, start)
    assert sorted(occ) == checkpoints
    tables = family.tables.tolist()
    for t, path in enumerate(paths):
        assert first[t] == path[0]
        counts, pos = [0] * space.k, x
        for n, state in enumerate(path.tolist(), 1):
            counts[pos] += 1
            pos = tables[state][pos]
            if n in occ:
                assert occ[n][t].tolist() == counts


GRID = 2**53  # numpy's uniforms are the multiples of 2**-53 in [0, 1)
_PHILOX = np.random.Philox


def word(u: float, low: int = 2047) -> int:
    """The raw Philox word whose uniform is u, a multiple of 2**-53; low
    fills the 11 bits that the uniform drops."""
    assert u * GRID == int(u * GRID)
    return int(u * GRID) << 11 | low


def next_word(bg) -> tuple[tuple, int]:
    """(key, index of the next word) of a Philox: it makes words 4 at a time
    from counters 1, 2, ..., and its buffer holds the rest of the last 4."""
    state = bg.state
    at = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
    return tuple(state["state"]["key"].tolist()), at


def uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms Generator.random makes of raw Philox words: each word's
    top 53 bits times 2**-53, exact in float64."""
    return (words >> 11) * 2.0**-53


def cumulative(weights: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, the top end pinned to 1: the
    rows the comparison step reads."""
    cums = np.cumsum(weights, axis=-1)
    cums[..., -1] = 1.0
    return cums


def comparison_step(cum: np.ndarray, u: float) -> int:
    """The row draw the sampler made before it drew over row supports: the
    first cumulative entry > u, which is the count of entries <= u."""
    return int((cum > u).argmax())


def support_thresholds(row) -> tuple[list[int], list[int]]:
    """(support columns, ⌈c·2⁵³⌉ for each partial sum c over the support
    but its last) of a row of weights, summed left to right."""
    cols = np.flatnonzero(row).tolist()
    sums = list(itertools.accumulate(float(row[j]) for j in cols))[:-1]
    return cols, [math.ceil(c * GRID) for c in sums]


def support_draw(row, w: int) -> int:
    """The support rule: the row's support column at the count of its
    thresholds <= w >> 11."""
    cols, thresholds = support_thresholds(row)
    return cols[sum(t <= w >> 11 for t in thresholds)]


class _GivenWords(_PHILOX):
    """Stands in for the sampler's bit generator: each stream, told apart by
    its key, hands out its given raw words from where its counter stands."""

    def __init__(self, words, key):
        super().__init__(key=key)
        self.words = words

    def random_raw(self, size=None, output=True):
        key, at = next_word(self)
        super().random_raw(size)  # moves the counter and buffer along
        return np.array(self.words[key][at : at + size], dtype=np.uint64)


def walk_pairs(spec, seed, streams, start, steps, fibers, x0) -> np.ndarray:
    """All pairs of ergodic._walk_pairs, (steps, streams)."""
    blocks = ergodic._walk_pairs(spec, seed, streams, start, steps, fibers, np.asarray(x0))
    return np.concatenate([np.empty((0, len(streams)), dtype=np.int64), *blocks])


def walk_states(spec, seed, streams, start, steps) -> np.ndarray:
    """The driving states of the walk on a one-point fiber, (steps, streams)."""
    fibers = np.zeros((spec.n, 1), dtype=np.int64)
    return walk_pairs(spec, seed, streams, start, steps, fibers, np.zeros(len(streams), dtype=int))


# Row 0 is the ingested [0.2, 0.7, 0.1, 0.0], whose partial sums reach
# 1.0000000000000002 before the pinned 1.0; row 1 has a leading zero, row 2
# trailing zeros. m = (5, 15, 8, 0) / 28 is stationary.
ROW_RULE_SPEC = spec_of(
    [[0.2, 0.7, 0.1, 0.0], [0.0, 0.5, 0.5, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    [5 / 28, 15 / 28, 8 / 28, 0.0],
)


@pytest.mark.parametrize("start", [0, 1, 2])
def test_row_draw_is_the_counting_rule(monkeypatch, start):
    # the sampler takes the first cumulative entry > u; the oracle counts
    # the entries <= u, at u = 0, at the least uniform at or above each
    # threshold, one grid step either side of it, and at the largest
    # uniform below 1
    cum = cumulative(ROW_RULE_SPEC.kernel.values)[start]
    assert start != 0 or cum[2] > 1.0  # the drifting row
    near = {a + d for a in (math.ceil(c * GRID) for c in cum) for d in (-1, 0, 1)}
    us = sorted(g / GRID for g in near | {0, GRID // 2, GRID - 1} if 0 <= g < GRID)
    given = {tuple(ergodic._stream_keys(0, [s])[0].tolist()): [word(u), word(0.5)] for s, u in enumerate(us)}
    monkeypatch.setattr(np.random, "Philox", lambda key: _GivenWords(given, key))
    _, drawn = walk_states(ROW_RULE_SPEC, 0, range(len(us)), start, 2)
    expected = [int((cum <= u).sum()) for u in us]
    assert drawn.tolist() == expected
    assert all(ROW_RULE_SPEC.kernel.values[start, y] > 0 for y in expected)


# both sides of the chunk edge, and one past the second
@pytest.mark.parametrize("steps", [1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("start", [None, 0])
@given(
    st.integers(-(2**64), 2**64),
    st.sets(st.integers(0, 5) | st.integers(2**63 - 2, 2**64 - 1), min_size=1, max_size=3),
)
@settings(max_examples=4, deadline=None)
def test_sampler_draws_are_the_substreams(steps, start, seed, streams):
    # the words the sampler draws for stream s are the head of the Philox
    # stream keyed (seed, s), each word once or, where a chunk repositions
    # the counter, drawn again in place, and the uniforms made of them are
    # those of substream(seed, s): one for the initial state unless start
    # fixes it, then one per step
    drawn = {}

    class Recording(_PHILOX):
        def random_raw(self, size=None, output=True):
            key, at = next_word(self)
            words = super().random_raw(size)
            drawn.setdefault(key, {}).update(enumerate(words.tolist(), at))
            return words

    streams = sorted(streams)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "Philox", Recording)
        walk = walk_states(ROW_RULE_SPEC, seed, streams, start, steps)
    assert len(walk) == steps
    assert len(drawn) == len(streams)
    heads = steps + (start is None)
    for s in streams:
        key = ergodic._stream_keys(seed, [s])[0]
        words = drawn[tuple(key.tolist())]
        assert sorted(words) == list(range(heads))
        got = np.array([words[i] for i in range(heads)], dtype=np.uint64)
        assert got.tolist() == _PHILOX(key=key).random_raw(heads).tolist()
        assert uniforms(got).tolist() == sk.substream(seed, s).random(heads).tolist()


@pytest.mark.parametrize("budget", [1, 6, 17, 64])
@pytest.mark.parametrize("start", [None, 0])
def test_uniform_budget_shrinks_chunks_not_draws(budget, start):
    # six streams share the budget: each keeps at most budget // 6 (at
    # least 1) new words per chunk, plus its initial state, drops fewer
    # than 4 it had drawn before, and walks the same states
    widths, ends = [], {}

    class Recording(_PHILOX):
        def random_raw(self, size=None, output=True):
            key, at = next_word(self)
            assert 0 <= ends.get(key, 0) - at < 4
            widths.append(at + size - ends.get(key, 0))
            ends[key] = at + size
            return super().random_raw(size)

    want = walk_states(ROW_RULE_SPEC, 3, range(6), start, 40).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_WORDS", budget)
        mp.setattr(np.random, "Philox", Recording)
        got = walk_states(ROW_RULE_SPEC, 3, range(6), start, 40).tolist()
    assert got == want
    assert max(widths) == max(budget // 6, 1) + (start is None)


EDGES = [b / 4096 for b in (0, 1, 819, 2048, 3000, 4095)]
# Candidate partial sums: bucket edges b / 2**12 and one ulp either side of
# each, a few plain values, 0.0 (a leading zero entry) and 1.0 (trailing
# zero entries); drawn with repeats, so rows share breakpoints and repeat
# them (zero entries in the middle).
BREAKPOINTS = sorted(
    {float(np.nextafter(e, d)) for e in EDGES for d in (0.0, 2.0)} | {*EDGES, 0.2, 0.3, 0.7, 1.0}
)
DRIFTING_ROW = [0.2, 0.7, 0.1]  # partial sums reach 1.0000000000000002
SHORT_ROW = [0.6, 0.3, 0.1]  # partial sums end at 0.9999999999999999


@st.composite
def raw_kernels(draw):
    """Rows of weights, taken as they are (no normalisation): each the gaps
    between sorted breakpoints, the drifting row padded with zeros, or the
    short row spread over the columns before a zero last one."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(n):
        if n >= 3 and draw(st.booleans()):
            rows.append(DRIFTING_ROW + [0.0] * (n - 3))
            continue
        if n >= 4 and draw(st.booleans()):
            row = [0.0] * n
            at = sorted(draw(st.lists(st.integers(0, n - 2), min_size=3, max_size=3, unique=True)))
            for j, w in zip(at, SHORT_ROW):
                row[j] = w
            rows.append(row)
            continue
        cuts = sorted(draw(st.lists(st.sampled_from(BREAKPOINTS), min_size=n - 1, max_size=n - 1)))
        rows.append(np.diff([0.0, *cuts, 1.0]).tolist())
    return np.array(rows)


def raw_spec(kernel: np.ndarray) -> sk.MarkovSpec:
    """The kernel's exact bits, with a uniform m: the sampler reads only these."""
    n = len(kernel)
    return sk.MarkovSpec(sk.StochasticMatrix(kernel), sk.ProbVector(np.full(n, 1.0 / n)))


def near_breakpoints(cums: np.ndarray) -> list[int]:
    """Uniforms, in units of 2**-53: the least at or above every partial sum
    below 1 and one either side of it, the bucket edges around each sum, 0
    and the largest below 1."""
    out = {0, GRID - 1}
    for c in cums[:, :-1].ravel().tolist():
        at, lo = math.ceil(c * GRID), math.floor(c * 4096) << 41
        out |= {at - 1, at, at + 1, lo, lo + (1 << 41)}
    return sorted(g for g in out if 0 <= g < GRID)


# the table is refused one entry below its size and built at it
@pytest.mark.parametrize("built", [False, True])
@given(raw_kernels(), st.data())
@settings(max_examples=40, deadline=None)
def test_table_walk_is_the_comparison_step(built, kernel, data):
    spec, n = raw_spec(kernel), len(kernel)
    cums = cumulative(kernel)
    n_streams = data.draw(st.integers(1, 4))
    start = data.draw(st.none() | st.integers(0, n - 1))
    k = data.draw(st.integers(1, 3))
    points = st.integers(0, k - 1)
    fibers = np.array(data.draw(st.lists(st.lists(points, min_size=k, max_size=k), min_size=n, max_size=n)))
    x0 = data.draw(st.lists(points, min_size=n_streams, max_size=n_streams))
    thresholds = {t for row in kernel for t in support_thresholds(row)[1]}
    size = (len(thresholds) + 1) * n * k
    least = -(-size // n_streams)
    steps = data.draw(st.integers(least, least + 150))
    # words at the grid points around the breakpoints, with any low bits, or any word
    near = st.builds(lambda g, low: g << 11 | low, st.sampled_from(near_breakpoints(cums)), st.integers(0, 2047))
    words = st.lists(near | st.integers(0, 2**64 - 1), min_size=steps + 1, max_size=steps + 1)
    lists = [data.draw(words) for _ in range(n_streams)]
    # chunks and blocks of bins from one step each to the whole walk
    budget = data.draw(st.sampled_from([1, 5, 64, ergodic._WORDS]))
    binned = data.draw(st.sampled_from([1, 5, 64, ergodic._BINNED]))

    def walk(bound):
        keys = [tuple(ergodic._stream_keys(0, [s])[0].tolist()) for s in range(n_streams)]
        given = {key: list(ws) for key, ws in zip(keys, lists)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "Philox", lambda key: _GivenWords(given, key))
            mp.setattr(ergodic, "_WORDS", budget)
            mp.setattr(ergodic, "_BINNED", binned)
            mp.setattr(ergodic, "_TABLE", bound)
            return walk_pairs(spec, 0, range(n_streams), start, steps, fibers, x0).tolist()

    want = walk(0)  # the step without a table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_TABLE", size if built else size - 1)
        table = ergodic._pair_table(*ergodic._row_keys(spec.kernel.values), fibers, n_streams * steps)
    assert (table is not None) == built
    assert table is None or len(table) == size
    assert walk(size if built else size - 1) == want
    # The scalar rules: y steps by the comparison step, except where that
    # lands on a weight-0 column (a row whose sums end below 1.0 before a
    # zero entry); there the support rule is the oracle. x steps to fibers[y, x].
    m_cum = cumulative(spec.m.values)
    for i, ws in enumerate(lists):
        y = start if start is not None else comparison_step(m_cum, uniforms(ws[0]))
        x = x0[i]
        for step, w in zip(want, ws[start is None :]):
            assert step[i] == y * k + x
            drawn, compared = support_draw(kernel[y], w), comparison_step(cums[y], uniforms(w))
            assert kernel[y, drawn] > 0
            assert (drawn != compared) == (kernel[y, compared] == 0)
            y, x = drawn, int(fibers[y, x])


def test_table_size_check_counts_entries_and_draws(monkeypatch):
    # ROW_RULE_SPEC's rows have 3 distinct thresholds over their supports
    # (0.2 and 0.8999999999999999 in row 0, 0.5 in rows 1 and 2): 4 bins for
    # each of 4 states, so a table over k points has 16 * k entries
    keys = ergodic._row_keys(ROW_RULE_SPEC.kernel.values)
    for k in (1, 3, 11):
        fibers, size = np.zeros((4, k), dtype=np.int64), 16 * k
        assert len(ergodic._pair_table(*keys, fibers, size)) == size
        assert ergodic._pair_table(*keys, fibers, size - 1) is None
        monkeypatch.setattr(ergodic, "_TABLE", size - 1)
        assert ergodic._pair_table(*keys, fibers, 10**9) is None
        monkeypatch.undo()


def spy_tables(monkeypatch) -> list:
    """Record (table size, bound, draws served) of every pair table
    _pair_table builds, and None for each it refuses."""
    real, built = ergodic._pair_table, []

    def spy(*args):
        table = real(*args)
        built.append(None if table is None else (len(table), ergodic._TABLE, args[-1]))
        return table

    monkeypatch.setattr(ergodic, "_pair_table", spy)
    return built


# Seven weights 1/7 sum to 0.9999999999999998 after ingest, in each of rows
# 0..6 and in m, and a zero entry follows: the zero-mass state 7, whose
# map alone swaps the fiber points, so the counts show a visit to it.
SHORT_SPEC = spec_of([[1 / 7] * 7 + [0.0]] * 7 + [[0.0] * 7 + [1.0]], [1 / 7] * 7 + [0.0])


@pytest.mark.parametrize("bound", ["refused", "default"])
@pytest.mark.parametrize("start", [None, 0])
def test_draws_at_a_sum_below_one_stay_on_the_support(monkeypatch, bound, start):
    # the word ⌈c·2⁵³⌉ << 11 at the last partial sum c < 1 of the support,
    # for the initial state from m and then at every step: comparing its
    # uniform with the cumulative rows would draw state 7
    kernel, m = SHORT_SPEC.kernel.values, SHORT_SPEC.m.values
    last_row, last_m = np.cumsum(kernel[0])[6], np.cumsum(m)[6]
    assert last_row < 1.0 and last_m < 1.0 and (kernel[:7] == kernel[0]).all()
    m_word, row_word = math.ceil(last_m * GRID) << 11, math.ceil(last_row * GRID) << 11
    assert comparison_step(cumulative(m), uniforms(m_word)) == 7
    assert comparison_step(cumulative(kernel[0]), uniforms(row_word)) == 7
    words = [m_word] * (start is None) + [row_word] * 300
    given = {tuple(ergodic._stream_keys(0, [t])[0].tolist()): words for t in range(2)}
    monkeypatch.setattr(np.random, "Philox", lambda key: _GivenWords(given, key))
    if bound == "refused":
        monkeypatch.setattr(ergodic, "_TABLE", 0)
    built = spy_tables(monkeypatch)
    path = sk.sample_path(SHORT_SPEC, 0, 300, start)
    sys_ = system_of(SHORT_SPEC, [[0, 1]] * 7 + [[1, 0]])
    first, occ = sk.orbit_occupancy(sys_, 0, 2, [300], 0, start)
    assert all((b is None) == (bound == "refused") for b in built) and len(built) == 2
    assert path.max() < 7 and (kernel[path[:-1], path[1:]] > 0).all()
    assert path.tolist() == [6 if start is None else 0] + [6] * 299
    assert first.tolist() == [path[0]] * 2
    assert occ[300].tolist() == [[300, 0]] * 2


def test_fallback_walk_memory_grows_with_the_supports(monkeypatch):
    # 2,100 states with 3 nonzeros a row, past 2,048 states, where offsets
    # y·2⁵³ would overflow uint64: without a table, the walk holds the row
    # supports and the words, not a copy of the (n, n) kernel nor a
    # (trials, n) gather per step
    n, support, trials, steps = 2100, 3, 20, 300
    rng = np.random.default_rng(11)
    kernel = np.zeros((n, n))
    for y in range(n):
        kernel[y, rng.choice(n, support, replace=False)] = rng.dirichlet(np.ones(support))
    spec = raw_spec(kernel)
    spec.kernel.pattern  # cached with the kernel, before the count starts
    monkeypatch.setattr(ergodic, "_TABLE", 0)
    tracemalloc.start()
    try:
        walk = walk_states(spec, 3, range(trials), None, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n * support * 8 < n * n
    assert (walk > 2048).any()
    for t in range(trials):
        ws = _PHILOX(key=ergodic._stream_keys(3, [t])[0]).random_raw(steps + 1).tolist()
        y = comparison_step(cumulative(spec.m.values), uniforms(ws[0]))
        for step, w in zip(walk[:, t].tolist(), ws[1:]):
            assert step == y
            y = support_draw(kernel[y], w)


@pytest.mark.parametrize("bound", ["refused", "default"])
@given(st.sampled_from(DRAWN_SPECS), st.integers(0, 2**32), st.integers(208, 300), st.data())
@settings(max_examples=8, deadline=None)
def test_entry_points_match_reference_on_both_sides_of_the_table_bound(
    bound, idx, seed, length, data
):
    spec = sk.generate_spec(GEN, index=idx)
    start = data.draw(st.none() | st.sampled_from([int(y) for y in spec.support]))
    trials = data.draw(st.integers(1, 3))
    space = sk.generate_space(GEN, index=idx)
    sys_ = sk.SkewSystem.create(spec, sk.generate_family(GEN, space, states=spec.n, index=idx))
    x = int(space.support[0])
    with pytest.MonkeyPatch.context() as mp:
        built = spy_tables(mp)
        if bound == "refused":
            mp.setattr(ergodic, "_TABLE", 0)
        paths = [sk.sample_path(spec, seed, length, start, stream=t) for t in range(trials)]
        first, occ = sk.orbit_occupancy(sys_, seed, trials, [length], x, start)
    # at least 208 draws: the default bound builds every table, as each
    # has at most 4 states x 13 bins x 4 points
    assert all((b is None) == (bound == "refused") for b in built)
    assert all(b is None or b[0] <= min(b[1:]) for b in built)
    tables = sys_.family.tables.tolist()
    for t, path in enumerate(paths):
        assert path.tolist() == reference_path(spec, seed, length, start, t).tolist()
        assert first[t] == path[0]
        counts, pos = [0] * space.k, x
        for state in path.tolist():
            counts[pos] += 1
            pos = tables[state][pos]
        assert occ[length][t].tolist() == counts


def test_dense_300_state_simulate_builds_no_table(monkeypatch):
    # 300 states with every entry positive: 89,701 bins would need a table
    # of 2.7e7 entries for the path and 1.1e8 over 4 points, so both walks
    # compare instead
    rng = np.random.default_rng(5)
    rows = rng.random((300, 300)) + 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    kernel = sk.StochasticMatrix.from_rows(rows)
    spec = sk.validate_spec(kernel, sk.stationary_distribution(kernel))
    sys_ = system_of(spec, [rng.permutation(4).tolist() for _ in range(300)])
    built = spy_tables(monkeypatch)
    trace = sk.convergence_report(sys_, np.arange(4.0), 0, 1, [50, 200], trials=20)
    path = sk.sample_path(spec, 1, 200)
    assert built == [None, None]
    assert len(trace.rows) == 2
    assert path.tolist() == reference_path(spec, 1, 200).tolist()


def reference_occupancy(sys_, seed, trials, checkpoints, x0):
    """Visit counts at each checkpoint by the scalar reference draw, one
    reference_path per trial started at point x0[t]."""
    tables = sys_.family.tables.tolist()
    counts = {n: np.zeros((trials, sys_.family.space.k), dtype=np.int64) for n in checkpoints}
    for t in range(trials):
        pos = x0[t]
        for n, state in enumerate(reference_path(sys_.spec, seed, checkpoints[-1], None, t).tolist()):
            for c in checkpoints:
                if n < c:
                    counts[c][t, pos] += 1
            pos = tables[state][pos]
    return counts


# A block of bins holds _BINNED // trials steps and the visit buffer
# _VISITS // trials: checkpoints either side of a block edge and of a full
# buffer, where the fold must split a block.
@pytest.mark.parametrize(
    "trials, block, checkpoints", [(10_000, 1, [1, 2, 6, 7]), (5_000, 3, [2, 3, 4, 13, 14])]
)
def test_occupancy_folds_across_block_and_buffer_edges(trials, block, checkpoints):
    assert max(ergodic._BINNED // trials, 1) == block
    idx = DRAWN_SPECS[0]
    spec, space = sk.generate_spec(GEN, index=idx), sk.generate_space(GEN, index=idx)
    sys_ = sk.SkewSystem.create(spec, sk.generate_family(GEN, space, states=spec.n, index=idx))
    support = space.support.tolist()
    x0 = np.array([support[t % len(support)] for t in range(trials)])
    first, occ = sk.orbit_occupancy(sys_, 3, trials, checkpoints, x0)
    want = reference_occupancy(sys_, 3, trials, checkpoints, x0.tolist())
    assert sorted(occ) == checkpoints
    for n in checkpoints:
        assert (occ[n] == want[n]).all()


# ---------------------------------------------------------------------------
# birkhoff_average
# ---------------------------------------------------------------------------
def test_birkhoff_n1_is_fx(bufetov_system):
    path = sk.sample_path(bufetov_system.spec, seed=5, length=1, start=0)
    assert sk.birkhoff_average(bufetov_system, path, IND1, 0, 1) == 1.0


def test_birkhoff_alternates_to_half(bufetov_system):
    path = sk.sample_path(bufetov_system.spec, seed=5, length=1000, start=0)
    vals = [sk.birkhoff_average(bufetov_system, path, IND1, 0, n) for n in (1, 2, 3, 1000)]
    assert vals[0] == 1.0
    assert vals[1] == 0.5
    assert vals[2] == pytest.approx(2 / 3)
    assert vals[3] == pytest.approx(0.5, abs=1e-12)


def test_birkhoff_identity_family_constant():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.5, 0.5]))
    sys_ = system_of(spec, [[0, 1, 2], [0, 1, 2]])
    path = sk.sample_path(spec, seed=3, length=64)
    f = np.array([2.0, 7.0, 1.0])
    for n in (1, 5, 64):
        assert sk.birkhoff_average(sys_, path, f, 1, n) == 7.0


def test_birkhoff_rejects_off_support_start():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.5, 0.5]))
    sys_ = system_of(spec, [[1, 0, 2], [1, 0, 2]], mu=[0.5, 0.5, 0.0])
    path = sk.sample_path(spec, seed=3, length=8)
    with pytest.raises(sk.StartOffSupport):
        sk.birkhoff_average(sys_, path, np.zeros(3), 2, 4)


@pytest.mark.parametrize("path", [[0.9, 1.7, 0.2], [True, False, True]])
def test_birkhoff_refuses_a_non_integer_path(bufetov_system, path):
    # Truncated, [0.9, 1.7, 0.2] would be read as [0, 1, 0], averaging 2/3.
    with pytest.raises(sk.ValidationError, match="integer state indices"):
        sk.birkhoff_average(bufetov_system, np.array(path), IND1, 0, 3)


@pytest.mark.parametrize("bad", [-1, 2, 5])
def test_birkhoff_rejects_path_state_out_of_range(bufetov_system, bad):
    path = np.array([0, 1, bad, 0])
    with pytest.raises(sk.ValidationError, match="path state"):
        sk.birkhoff_average(bufetov_system, path, IND1, 0, 3)
    # entries past the first n are not read
    assert sk.birkhoff_average(bufetov_system, path, IND1, 0, 2) == 0.5


# ---------------------------------------------------------------------------
# exact_birkhoff_limit
# ---------------------------------------------------------------------------
def test_exact_limit_ergodic_is_integral(rotation_system):
    for y in (0, 1):
        for x in (0, 1, 2):
            assert sk.exact_birkhoff_limit(rotation_system, y, x, IND1) == pytest.approx(
                1 / 3, abs=1e-12
            )


def test_exact_limit_bufetov_half(bufetov_system):
    assert sk.exact_birkhoff_limit(bufetov_system, 0, 0, IND1) == pytest.approx(
        0.5, abs=1e-12
    )


def test_exact_limit_block_average_independent_of_y():
    # strictly irreducible driving, non-ergodic family (identity maps)
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.4, 0.6]))
    sys_ = system_of(spec, [[0, 1, 2], [0, 1, 2]])
    f = np.array([4.0, 8.0, 3.0])
    for x in range(3):
        vals = {sk.exact_birkhoff_limit(sys_, y, x, f) for y in (0, 1)}
        assert len(vals) == 1
        assert vals.pop() == f[x]


def test_exact_limit_invalid_pair(bufetov_system):
    # bufetov_period2 has states 0 and 1; a negative state must not wrap
    for y in (5, 2, -1, -2):
        with pytest.raises(sk.InvalidPairState):
            sk.exact_birkhoff_limit(bufetov_system, y, 0, IND1)


def test_exact_limit_refuses_zero_mass_state():
    spec = spec_of([[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    sys_ = system_of(spec, [[1, 0], [0, 1]])
    sk.exact_birkhoff_limit(sys_, 0, 0, np.array([1.0, 0.0]))
    with pytest.raises(sk.InvalidPairState):
        sk.exact_birkhoff_limit(sys_, 1, 0, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# expectation_operator
# ---------------------------------------------------------------------------
def test_mn_zero_is_fx(bufetov_system):
    f = np.array([2.0, -1.0, 0.5])
    assert sk.expectation_operator(bufetov_system, f, 1, 0) == pytest.approx(-1.0)


def test_mn_one_matches_definition(rotation_system):
    f = np.array([2.0, -1.0, 0.5])
    sys_ = rotation_system
    x = 0
    expected = sum(
        float(sys_.spec.m.values[y]) * f[int(sys_.family.tables[y, x])]
        for y in (0, 1)
    )
    assert sk.expectation_operator(sys_, f, x, 1) == pytest.approx(expected, abs=1e-12)


def test_mn_alternates_on_deterministic_chain(bufetov_system):
    vals = [sk.expectation_operator(bufetov_system, IND1, 0, n) for n in range(6)]
    assert vals == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=30, deadline=None)
def test_mn_preserves_mass(idx):
    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    ones = np.ones(space.k)
    x = int(space.support[0])
    for n in (0, 1, 7, 40):
        assert sk.expectation_operator(sys_, ones, x, n) == pytest.approx(1.0, abs=1e-10)


def test_mn_mass_conserved_long_horizon(bufetov_system):
    ones = np.ones(3)
    assert sk.expectation_operator(bufetov_system, ones, 0, 100_000) == pytest.approx(
        1.0, abs=1e-10
    )


def point_marginals(sys_, x):
    """The per-step DP the blocked one replaced, kept as its oracle: fiber
    marginals of the (state, point) mass after j = 0, 1, 2, ... steps,
    started from m on the states and all mass at x."""
    for grid in mass_grids(sys_, x):
        yield grid.sum(axis=0)


def mass_grids(sys_, x):
    p = np.zeros((sys_.spec.n, sys_.family.space.k))
    p[:, x] = sys_.spec.m.values
    while True:
        yield p
        p = sys_._pair_step(p)


def first_repeat(sys_, x, limit):
    """(start, period) of the first per-step grid whose bytes equal those of
    an earlier grid, found by keeping every grid; None within limit steps."""
    seen = {}
    for j, grid in zip(range(limit), mass_grids(sys_, x)):
        key = grid.tobytes()
        if key in seen:
            return seen[key], j - seen[key]
        seen[key] = j
    return None


def oracle_values(sys_, f, x, horizon):
    """M_j f(x) for j < horizon from the per-step oracle, and the partial
    Cesaro means summed left to right."""
    values, partial, acc = [], [], 0.0
    for j, marginal in zip(range(horizon), point_marginals(sys_, x)):
        values.append(float(marginal @ f))
        acc += values[-1]
        partial.append(acc / (j + 1))
    return values, partial


@given(
    st.sampled_from(ZERO_MASS_SPECS) | st.integers(0, 400),
    st.booleans(),
    st.sampled_from([1, 2, 3, 8]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_blocked_dp_matches_per_step_dp(idx, zero_points, block, data):
    # block of B steps; horizons 1, B-1, B, B+1 and 2B+1 straddle its edges,
    # and a last one runs three periods past the block where the cycle is found
    import stepskew.ergodic as ergodic

    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    tables, mu, k = family.tables.tolist(), list(space.mu.values), space.k
    if zero_points:  # two more points of zero mass, swapped by the odd states
        tables = [t + ([k + 1, k] if y % 2 else [k, k + 1]) for y, t in enumerate(tables)]
        mu, k = mu + [0.0, 0.0], k + 2
    sys_ = system_of(spec, tables, mu)
    x = data.draw(st.sampled_from([int(p) for p in space.support]))
    f = np.array(data.draw(st.lists(st.floats(-4, 4), min_size=k, max_size=k)))
    horizons = sorted({1, block - 1, block, block + 1, 2 * block + 1} - {0})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_DP_BLOCK", block * spec.n * k)
        found, cycle = ergodic._iterate_means(sys_, f, x, 5000)
        if cycle is not None:
            period = len(found) - cycle
            # the first bitwise repeat of the per-step grids has the same
            # period and starts no later
            repeat = first_repeat(sys_, x, len(found) + 1)
            assert repeat is not None and repeat[1] == period and repeat[0] <= cycle
            horizons.append(max(len(found) + 3 * period + block, horizons[-1] + 1))
        values, partial = oracle_values(sys_, f, x, horizons[-1])
        assert sk.cesaro_partial_averages(sys_, f, x, horizons) == {
            n: partial[n - 1] for n in horizons
        }
        ns = list(range(2 * block + 1))
        if cycle is not None:  # either side of the detection and the last step
            ns += [len(found) - 1, len(found), len(found) + 1, horizons[-1] - 1]
        assert [sk.expectation_operator(sys_, f, x, n) for n in ns] == [values[n] for n in ns]


def test_dp_without_a_cycle_matches_per_step_dp():
    # a 2-state kernel whose mass grid drifts by ulps and does not repeat
    # within the horizon, run one step per block
    import stepskew.ergodic as ergodic

    spec = sk.generate_spec(GEN, index=359)
    space = sk.generate_space(GEN, index=359)
    sys_ = sk.SkewSystem.create(spec, sk.generate_family(GEN, space, states=spec.n, index=359))
    f, x, horizon = np.array([0.25, -1.5]), 0, 600
    assert first_repeat(sys_, x, horizon) is None
    values, partial = oracle_values(sys_, f, x, horizon)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_DP_BLOCK", spec.n * space.k)
        assert ergodic._iterate_means(sys_, f, x, horizon)[1] is None
        horizons = [1, 2, 299, horizon]
        assert sk.cesaro_partial_averages(sys_, f, x, horizons) == {
            n: partial[n - 1] for n in horizons
        }
        assert [sk.expectation_operator(sys_, f, x, n) for n in (0, 1, horizon - 1)] == [
            values[0], values[1], values[-1]
        ]
        # beyond the horizon cap without a cycle there is no answer
        mp.setattr(ergodic, "MAX_HORIZON", horizon)
        with pytest.raises(sk.TooLarge, match="MAX_HORIZON"):
            sk.expectation_operator(sys_, f, x, 10**12)


@pytest.mark.parametrize("one_step_blocks", [False, True])
@pytest.mark.parametrize("name", ["bufetov_system", "rotation_system"])
def test_mn_at_a_trillion_reads_the_cycle(request, monkeypatch, name, one_step_blocks):
    # with one step per block, a period longer than a block is found only
    # because the saved grid is renewed as the step count doubles
    import stepskew.ergodic as ergodic

    sys_ = request.getfixturevalue(name)
    if one_step_blocks:
        monkeypatch.setattr(ergodic, "_DP_BLOCK", sys_.spec.n * sys_.family.space.k)
    f = np.array([2.0, -1.0, 0.5])
    start, period = first_repeat(sys_, 0, 1000)
    values, _ = oracle_values(sys_, f, 0, start + period)
    n = 10**12
    assert sk.expectation_operator(sys_, f, 0, n) == values[start + (n - start) % period]
    monkeypatch.setattr(ergodic, "MAX_HORIZON", 4 * (start + period) + 8)
    assert sk.expectation_operator(sys_, f, 0, n) == values[start + (n - start) % period]


# ---------------------------------------------------------------------------
# exact_cesaro_limit
# ---------------------------------------------------------------------------
def test_cesaro_ergodic_is_integral(rotation_system):
    for x in range(3):
        assert sk.exact_cesaro_limit(rotation_system, IND1, x) == pytest.approx(
            1 / 3, abs=1e-12
        )


def test_cesaro_bufetov_half(bufetov_system):
    assert sk.exact_cesaro_limit(bufetov_system, IND1, 0) == pytest.approx(
        0.5, abs=1e-12
    )


def test_cesaro_equals_condexp_when_strict():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.4, 0.6]))
    sys_ = system_of(spec, [[1, 0, 2], [1, 0, 2]])
    f = np.array([4.0, 8.0, 3.0])
    ce = sk.conditional_expectation(sys_.family, spec.support, f)
    for x in range(3):
        assert sk.exact_cesaro_limit(sys_, f, x) == pytest.approx(ce[x], abs=1e-12)


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=40, deadline=None)
def test_cesaro_integrates_to_mean(idx):
    spec = sk.generate_spec(GEN, index=idx)
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    rng = np.random.default_rng(idx)
    f = rng.normal(size=space.k)
    mu = space.mu.values
    tilde = np.array(
        [
            sk.exact_cesaro_limit(sys_, f, int(x)) if mu[x] > 0 else 0.0
            for x in range(space.k)
        ]
    )
    assert abs(float(mu @ tilde) - float(mu @ f)) <= 1e-10


def per_state_cesaro_limit(sys_, f, x) -> float:
    """The Cesaro limit with one class average per active state: the oracle
    for exact_cesaro_limit, which averages each class met by x once."""
    fv = np.asarray(f, dtype=float)
    mv = sys_.spec.m.values
    total = 0.0
    for y in sys_.spec.support:
        total += float(mv[int(y)]) * sys_.closed_classes.class_average(y, x, fv)
    return total


@given(st.integers(min_value=0, max_value=2_000))
@settings(max_examples=60, deadline=None)
def test_cesaro_limit_matches_per_state_loop_bit_for_bit(idx):
    cfg = sk.GeneratorConfig(seed=4445, n_states=(1, 8), n_points=(1, 6), degenerate_bias=0.5)
    spec = sk.generate_spec(cfg, index=idx)
    space = sk.generate_space(cfg, index=idx)
    family = sk.generate_family(cfg, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    f = np.random.default_rng(idx).normal(size=space.k)
    for x in space.support:
        assert sk.exact_cesaro_limit(sys_, f, int(x)) == per_state_cesaro_limit(sys_, f, int(x))


def test_cesaro_limit_averages_each_class_once(monkeypatch):
    # Twelve states over a strictly irreducible kernel and point blocks
    # {0, 1, 2}, {3, 4}: each point meets one class, averaged once.
    spec = sk.trivial_kernel(sk.ProbVector.from_values(np.full(12, 1 / 12)))
    sys_ = system_of(spec, [[1, 2, 0, 4, 3], [2, 0, 1, 3, 4]] * 6)
    calls = []
    real = sk.ErgodicityReport.class_average

    def counting(report, y, x, fv):
        calls.append((int(y), int(x)))
        return real(report, y, x, fv)

    monkeypatch.setattr(sk.ErgodicityReport, "class_average", counting)
    f = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert sk.exact_cesaro_limit(sys_, f, 0) == pytest.approx(2.0, abs=1e-12)
    assert sk.exact_cesaro_limit(sys_, f, 4) == pytest.approx(4.5, abs=1e-12)
    assert calls == [(0, 0), (0, 4)]


def test_cesaro_partial_matches_closed_form(bufetov_system):
    partial = sk.cesaro_partial_averages(bufetov_system, IND1, 0, [10, 1000])
    assert partial[10] == pytest.approx(0.5, abs=1e-12)
    assert partial[1000] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# finite clause of the pathwise limit theorem
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=600))
@settings(max_examples=40, deadline=None)
def test_limit_is_condexp_for_strictly_irreducible(idx):
    spec = sk.generate_spec(GEN, index=idx)
    if not sk.is_strictly_irreducible(spec):
        return
    space = sk.generate_space(GEN, index=idx)
    family = sk.generate_family(GEN, space, states=spec.n, index=idx)
    sys_ = sk.SkewSystem.create(spec, family)
    for p in range(space.k):
        f = np.zeros(space.k)
        f[p] = 1.0
        ce = sk.conditional_expectation(family, spec.support, f)
        for x in space.support:
            vals = [
                sk.exact_birkhoff_limit(sys_, int(y), int(x), f)
                for y in spec.support
            ]
            assert max(vals) - min(vals) <= 1e-12
            assert abs(vals[0] - ce[int(x)]) <= 1e-10


# ---------------------------------------------------------------------------
# Monte Carlo engine and trace emission
# ---------------------------------------------------------------------------
def test_batch_matches_single_path_route(rotation_system):
    # the batched occupancy and the sample_path/birkhoff_average route must
    # produce bit-identical averages trial by trial
    first, occ = sk.orbit_occupancy(rotation_system, seed=11, trials=5, checkpoints=[200], x0=0)
    for t in range(5):
        path = sk.sample_path(rotation_system.spec, 11, 200, stream=t)
        assert path[0] == first[t]
        a = sk.birkhoff_average(rotation_system, path, IND1, 0, 200)
        assert a == float(occ[200][t] @ IND1 / 200)


def test_trace_identity_family_zero_error():
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.5, 0.5]))
    sys_ = system_of(spec, [[0, 1, 2], [0, 1, 2]])
    f = np.array([0.0, 3.0, 1.0])
    trace = sk.convergence_report(sys_, f, 1, seed=4, horizons=[10, 100], trials=8)
    for row in trace.rows:
        assert row.empirical_birkhoff == 3.0
        assert row.reference == 3.0
        assert row.abs_err_birkhoff == 0.0


def test_trace_bufetov_converges_to_class_average(bufetov_system):
    trace = sk.convergence_report(
        bufetov_system, IND1, 0, seed=21, horizons=[10, 100, 1000], trials=16
    )
    last = trace.rows[-1]
    assert last.reference == pytest.approx(0.5, abs=1e-12)
    assert last.abs_err_birkhoff <= 1e-12  # deterministic alternating path
    assert last.cesaro_partial == pytest.approx(0.5, abs=1e-12)
    # the limit is the class average, not the space mean of f (1/3)
    assert abs(last.empirical_birkhoff - 1 / 3) > 0.1


def test_trace_csv_shape_and_determinism(rotation_system):
    kwargs = dict(seed=33, horizons=[10, 50], trials=6)
    a = sk.convergence_report(rotation_system, IND1, 0, **kwargs).to_csv()
    b = sk.convergence_report(rotation_system, IND1, 0, **kwargs).to_csv()
    assert a == b
    lines = a.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# seed: 33") for l in comments)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == (
        "n,empirical_birkhoff,mc_mean,cesaro_partial,reference,"
        "abs_err_birkhoff,abs_err_cesaro"
    )
    assert len(body) == 3
    assert body[1].split(",")[0] == "10"


def test_trace_rejects_bad_horizons(rotation_system):
    with pytest.raises(sk.ValidationError):
        sk.convergence_report(rotation_system, IND1, 0, seed=1, horizons=[100, 10])


COUNT_ENTRY_POINTS = {
    "horizon": lambda s, n: sk.cesaro_partial_averages(s, IND1, 0, [n]),
    "checkpoint": lambda s, n: sk.orbit_occupancy(s, seed=1, trials=2, checkpoints=[n], x0=0),
    "length": lambda s, n: sk.sample_path(s.spec, seed=1, length=n),
    "trials": lambda s, n: sk.orbit_occupancy(s, seed=1, trials=n, checkpoints=[3], x0=0),
    "M_n": lambda s, n: sk.expectation_operator(s, IND1, 0, n),
    "birkhoff_n": lambda s, n: sk.birkhoff_average(
        s, sk.sample_path(s.spec, seed=1, length=4), IND1, 0, n
    ),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("n", [2.9, 3.0, np.float64(3.0), "3", True])
def test_non_integer_counts_are_refused(rotation_system, entry, n):
    with pytest.raises(sk.ValidationError, match="integer"):
        COUNT_ENTRY_POINTS[entry](rotation_system, n)


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_numpy_integer_counts_are_taken(rotation_system, entry):
    assert repr(COUNT_ENTRY_POINTS[entry](rotation_system, np.int64(3))) == repr(
        COUNT_ENTRY_POINTS[entry](rotation_system, 3)
    )


CAPPED_CALLS = {
    "horizon": lambda s, e: sk.cesaro_partial_averages(s, IND1, 0, [10, e.MAX_HORIZON + 1]),
    "checkpoint": lambda s, e: sk.orbit_occupancy(
        s, seed=1, trials=2, checkpoints=[e.MAX_HORIZON + 1], x0=0
    ),
    "length": lambda s, e: sk.sample_path(s.spec, seed=1, length=e.MAX_HORIZON + 1),
    "trials": lambda s, e: sk.orbit_occupancy(
        s, seed=1, trials=e.MAX_TRIALS + 1, checkpoints=[3], x0=0
    ),
    "trial_steps": lambda s, e: sk.convergence_report(
        s, IND1, 0, seed=1, horizons=[e.MAX_HORIZON],
        trials=e.MAX_TRIAL_STEPS // e.MAX_HORIZON + 1,
    ),
}


@pytest.mark.parametrize(
    "entry, cap",
    [("horizon", "MAX_HORIZON"), ("checkpoint", "MAX_HORIZON"), ("length", "MAX_HORIZON"),
     ("trials", "MAX_TRIALS"), ("trial_steps", "MAX_TRIAL_STEPS")],
)
def test_caps_refuse_before_any_step(rotation_system, monkeypatch, entry, cap):
    import stepskew.ergodic as ergodic

    def refuse(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(ergodic, "_walk_pairs", refuse)
    monkeypatch.setattr(sk.SkewSystem, "_pair_step", refuse)
    with pytest.raises(sk.TooLarge, match=cap):
        CAPPED_CALLS[entry](rotation_system, ergodic)


def test_mc_mean_approaches_start_averaged_limit(bufetov_system):
    # f = indicator of point "3": the two classes met from x = point "1"
    # have averages 0 and 1/2, so the start-averaged limit is 1/4
    f = np.array([0.0, 0.0, 1.0])
    mv = bufetov_system.spec.m.values
    expected = sum(
        float(mv[y]) * sk.exact_birkhoff_limit(bufetov_system, y, 0, f)
        for y in (0, 1)
    )
    assert expected == pytest.approx(0.25, abs=1e-12)
    _, occ = sk.orbit_occupancy(
        bufetov_system, seed=17, trials=400, checkpoints=[2000], x0=0
    )
    mc_mean = float((occ[2000] @ f).mean()) / 2000
    assert abs(mc_mean - expected) <= 0.05


# ---------------------------------------------------------------------------
# argument checks shared by the entry points
# ---------------------------------------------------------------------------
F_ENTRY_POINTS = {
    "birkhoff_average": lambda s, f, x: sk.birkhoff_average(
        s, sk.sample_path(s.spec, seed=1, length=4), f, x, 4
    ),
    "exact_birkhoff_limit": lambda s, f, x: sk.exact_birkhoff_limit(s, 0, x, f),
    "expectation_operator": lambda s, f, x: sk.expectation_operator(s, f, x, 3),
    "exact_cesaro_limit": lambda s, f, x: sk.exact_cesaro_limit(s, f, x),
    "cesaro_partial_averages": lambda s, f, x: sk.cesaro_partial_averages(s, f, x, [5]),
    "convergence_report": lambda s, f, x: sk.convergence_report(
        s, f, x, seed=1, horizons=[5], trials=2
    ),
}


@pytest.mark.parametrize("entry", sorted(F_ENTRY_POINTS))
@pytest.mark.parametrize("f", [[1.0, 0.0], [1.0, 0.0, 0.0, 5.0], [[1.0, 0.0, 0.0]]])
def test_f_of_wrong_shape_is_refused(bufetov_system, entry, f):
    with pytest.raises(sk.DimensionMismatch):
        F_ENTRY_POINTS[entry](bufetov_system, f, 0)


@pytest.mark.parametrize("entry", sorted(F_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_f_that_is_not_finite_is_refused(bufetov_system, entry, bad):
    with pytest.raises(sk.ValidationError, match="not finite"):
        F_ENTRY_POINTS[entry](bufetov_system, [1.0, bad, 0.0], 0)


@pytest.mark.parametrize("entry", sorted(F_ENTRY_POINTS))
def test_start_off_support_is_refused(entry):
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.5, 0.5]))
    sys_ = system_of(spec, [[1, 0, 2], [1, 0, 2]], mu=[0.5, 0.5, 0.0])
    with pytest.raises(sk.StartOffSupport):
        F_ENTRY_POINTS[entry](sys_, np.zeros(3), 2)


# Every entry point that takes a point index x or a state index y, called
# with that index and valid other arguments.
INDEX_ENTRY_POINTS = {
    **{
        f"{name}(x)": lambda s, i, entry=entry: entry(s, IND1, i)
        for name, entry in F_ENTRY_POINTS.items()
    },
    "exact_birkhoff_limit(y)": lambda s, i: sk.exact_birkhoff_limit(s, i, 0, IND1),
    "class_average(y)": lambda s, i: s.closed_classes.class_average(i, 0, IND1),
    "class_average(x)": lambda s, i: s.closed_classes.class_average(0, i, IND1),
}


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
@pytest.mark.parametrize("index", [0.9, 1.0, np.float64(1.0), True, np.bool_(True), "1", None])
def test_non_integer_index_is_refused(bufetov_system, entry, index):
    with pytest.raises(sk.ValidationError):
        INDEX_ENTRY_POINTS[entry](bufetov_system, index)


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
@pytest.mark.parametrize("index", [np.int64(1), np.int32(1), np.uint8(1)])
def test_numpy_integer_index_is_accepted(bufetov_system, entry, index):
    call = INDEX_ENTRY_POINTS[entry]
    assert call(bufetov_system, index) == call(bufetov_system, 1)


@pytest.mark.parametrize("trials", [0, -3])
def test_occupancy_needs_a_trial(rotation_system, trials):
    with pytest.raises(sk.ValidationError, match="trials"):
        sk.orbit_occupancy(rotation_system, seed=1, trials=trials, checkpoints=[5], x0=0)


@pytest.mark.parametrize("x0", [1.9, [0, 1.5], np.array([0.0, 1.0]), True])
def test_occupancy_refuses_non_integer_x0(bufetov_system, x0):
    with pytest.raises(sk.ValidationError, match="x0"):
        sk.orbit_occupancy(bufetov_system, seed=1, trials=2, checkpoints=[3], x0=x0)


@pytest.mark.parametrize("x0", [-1, 3, [0, -1], [3, 0], 5, np.uint64(2**63)])
def test_occupancy_refuses_out_of_range_x0(bufetov_system, x0):
    # k = 3 points: -1 must not wrap to the last point, 3 is past the end,
    # and 2**63 must not wrap to a negative int64
    with pytest.raises(sk.ValidationError, match=r"is not a point index 0\.\.2") as err:
        sk.orbit_occupancy(bufetov_system, seed=1, trials=2, checkpoints=[3], x0=x0)
    assert not isinstance(err.value, sk.StartOffSupport)


@pytest.mark.parametrize("x0", [2, [0, 2]])
def test_occupancy_refuses_a_zero_mass_start_point(x0):
    spec = sk.trivial_kernel(sk.ProbVector.from_values([0.5, 0.5]))
    sys_ = system_of(spec, [[1, 0, 2], [1, 0, 2]], mu=[0.5, 0.5, 0.0])
    with pytest.raises(sk.StartOffSupport, match="zero-mass point"):
        sk.orbit_occupancy(sys_, seed=1, trials=2, checkpoints=[3], x0=x0)


def test_occupancy_takes_integer_array_x0(bufetov_system):
    x0 = np.array([0, 2], dtype=np.int64)
    _, by_array = sk.orbit_occupancy(bufetov_system, seed=1, trials=2, checkpoints=[3], x0=x0)
    _, by_list = sk.orbit_occupancy(bufetov_system, seed=1, trials=2, checkpoints=[3], x0=[0, 2])
    assert (by_array[3] == by_list[3]).all()
    assert by_array[3][0, 0] >= 1 and by_array[3][1, 2] >= 1  # each start is visited


def test_occupancy_x0_of_wrong_length_is_refused(rotation_system):
    with pytest.raises(sk.DimensionMismatch, match=r"x0.*trials=3"):
        sk.orbit_occupancy(rotation_system, seed=1, trials=3, checkpoints=[5], x0=[0, 1])


# Every entry point that takes a seed or a stream, called with that value.
SEED_ENTRY_POINTS = {
    "substream(seed)": lambda s, v: sk.substream(v),
    "substream(stream)": lambda s, v: sk.substream(1, v),
    "sample_path(seed)": lambda s, v: sk.sample_path(s.spec, v, 5),
    "sample_path(stream)": lambda s, v: sk.sample_path(s.spec, 1, 5, stream=v),
    "orbit_occupancy(seed)": lambda s, v: sk.orbit_occupancy(s, v, 2, [5], 0),
    "convergence_report(seed)": lambda s, v: sk.convergence_report(s, IND1, 0, v, [5], trials=2),
}


@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
@pytest.mark.parametrize("value", [1.5, "7", None, True, np.bool_(True)])
def test_non_integer_seed_or_stream_is_refused(rotation_system, entry, value):
    what = entry[entry.index("(") + 1 : -1]
    with pytest.raises(sk.ValidationError, match=f"{what} must be an integer"):
        SEED_ENTRY_POINTS[entry](rotation_system, value)


@pytest.mark.parametrize("value", [5, -2])
def test_numpy_integer_seed_and_stream_draw_as_the_int(rotation_system, value):
    # any integer is taken modulo 2**64, so -2 is 2**64 - 2
    as_numpy, spec = np.int64(value), rotation_system.spec
    heads = sk.substream(value, value).random(4).tolist()
    assert sk.substream(as_numpy, as_numpy).random(4).tolist() == heads
    assert sk.substream(value % 2**64, value % 2**64).random(4).tolist() == heads
    path = sk.sample_path(spec, value, 60, stream=value)
    assert sk.sample_path(spec, as_numpy, 60, stream=as_numpy).tolist() == path.tolist()
    assert path.tolist() == reference_path(spec, value, 60, stream=value).tolist()
    first, occ = sk.orbit_occupancy(rotation_system, value, 3, [60], 0)
    first_np, occ_np = sk.orbit_occupancy(rotation_system, as_numpy, 3, [60], 0)
    assert first_np.tolist() == first.tolist() and occ_np[60].tolist() == occ[60].tolist()
    csv = sk.convergence_report(rotation_system, IND1, 0, value, [60], trials=3).to_csv()
    assert sk.convergence_report(rotation_system, IND1, 0, as_numpy, [60], trials=3).to_csv() == csv


# State 2 is transient: it has zero stationary mass.
TRANSIENT_SPEC = spec_of(
    [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], [0.5, 0.5, 0.0]
)
START_ENTRY_POINTS = {
    "sample_path": lambda s, start: sk.sample_path(s.spec, seed=1, length=10, start=start),
    "orbit_occupancy": lambda s, start: sk.orbit_occupancy(
        s, seed=1, trials=50, checkpoints=[10, 20_000], x0=0, start=start
    ),
    "convergence_report": lambda s, start: sk.convergence_report(
        s, IND1, 0, seed=1, horizons=[10, 20_000], trials=50, start=start
    ),
}


@pytest.mark.parametrize("entry", sorted(START_ENTRY_POINTS))
@pytest.mark.parametrize(
    "start, error",
    [(2, sk.StartOffSupport), (3, sk.ValidationError), (-1, sk.ValidationError),
     (0.5, sk.ValidationError), (True, sk.ValidationError)],
)
def test_bad_start_state_is_refused_before_sampling(monkeypatch, entry, start, error):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the start state")

    monkeypatch.setattr(np.random, "Philox", no_sampling)
    sys_ = system_of(TRANSIENT_SPEC, [[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    with pytest.raises(error, match=f"start state {start}"):
        START_ENTRY_POINTS[entry](sys_, start)
