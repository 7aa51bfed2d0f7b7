"""Seeded inputs for the three benchmark workloads.

Only the standard library is used: `random.Random` seeded from a string is
stable across Python versions, and nothing here imports stepskew, numpy or
the library's own instance generators, so a library change cannot alter a
workload. Every item reaches the program as config JSON text.

Seed 0 is the development seed; seed 1 is kept for confirming a claim on
inputs that were not used while the claim was developed.
"""

from __future__ import annotations

import json
import random

from reference import expected_verdicts, groups, sccs, solve_stationary

# verdict_sweep: a run takes the same VERDICT_ITEMS systems through every
# pass; pass r hands each over as its r-th twin (see verdict_twin), so the
# work per system repeats while no input text does. One item in every
# WIDE_EVERY is a wide-lattice kernel; the j-th has WIDE_BLOCKS[j] blocks.
WIDE_EVERY = 100
WIDE_BLOCKS = (10, 14)
VERDICT_ITEMS = WIDE_EVERY * len(WIDE_BLOCKS)

# pair_scaling rungs: (driving states n, fiber points k); pairs = n * k.
# The top rung stops at 1,600 pairs: at 2,500 the dense SVD alone takes 6 s
# (2-core Xeon, one BLAS thread), so a run could hold only three ladders to
# take the fastest of.
RUNGS = ((10, 10), (20, 20), (30, 30), (40, 40))
LIMIT_QUERIES = (4, 2)  # Birkhoff start pairs, Cesaro start points per rung
PLANTED_BLOCKS = 4  # invariant point blocks per rung

# simulate_mc: pinned CSVs exist for SIM_VARIANTS variants. A seed owns a
# range of SIM_ROUNDS of them and round r takes the r-th, so no input repeats
# within a run of up to SIM_ROUNDS rounds, and seeds 0 and 1 share none.
# A variant is the simulation seed plus an order of the generated system.
# Traces stop at 10^3 steps: an item then takes about 0.05 s (2-core Xeon),
# short enough to fall inside the fast spells of a shared host, and a run
# has a few hundred rounds to take each item's fastest from.
SIM_ROUNDS = 256
SIM_VARIANTS = 2 * SIM_ROUNDS
SIM_STATES, SIM_POINTS = 8, 64
SIM_HORIZONS = (100, 1_000)


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tags)))


def _normalise(ws):
    s = sum(ws)
    return [w / s for w in ws]


def _row(rng, n, support):
    out = [0.0] * n
    for z, w in zip(support, _normalise([rng.uniform(0.2, 1.0) for _ in support])):
        out[z] = w
    return out


def _subset(rng, pool, p):
    pool = list(pool)
    out = [z for z in pool if rng.random() < p]
    return out or [rng.choice(pool)]


def _irreducible(rows, nodes) -> bool:
    return len(sccs(nodes, lambda y: [z for z in nodes if rows[y][z] > 0.0])) == 1


def _strict(rows, nodes) -> bool:
    edges = []
    for y in nodes:
        sup = [z for z in nodes if rows[y][z] > 0.0]
        edges.extend(zip(sup, sup[1:]))
    return len(groups(nodes, edges)) == 1


def _fiber(rng, k):
    """Points on 1-3 mass levels and a map drawer that permutes within levels."""
    level = [rng.randrange(3) for _ in range(k)]
    weight = [rng.uniform(0.5, 2.0) for _ in range(3)]
    mu = _normalise([weight[lv] for lv in level])

    def draw_map():
        table = list(range(k))
        for lv in range(3):
            idx = [x for x in range(k) if level[x] == lv]
            img = idx[:]
            rng.shuffle(img)
            for a, b in zip(idx, img):
                table[a] = b
        return table

    return mu, draw_map


def _doc(rows, stationary, mu, tables, function=None) -> dict:
    n, k = len(rows), len(mu)
    states = [f"s{y}" for y in range(n)]
    points = [f"x{x}" for x in range(k)]
    doc = {"states": states, "kernel": rows}
    if stationary is not None:
        doc["stationary"] = stationary
    doc["space"] = {"points": points, "mu": mu}
    doc["family"] = {states[y]: [points[t] for t in tables[y]] for y in range(n)}
    if function is not None:
        doc["function"] = {"name": "f", "values": function}
    return doc


def _strict_kernel(rng, n):
    while True:
        p = rng.uniform(0.35, 0.9)
        rows = [_row(rng, n, _subset(rng, range(n), p)) for _ in range(n)]
        if _irreducible(rows, range(n)) and _strict(rows, range(n)):
            return rows


def _nonstrict_kernel(rng, n):
    """Rows supported inside blocks of states, so every block is deterministic."""
    while True:
        r = rng.randint(2, min(n, 4))
        order = list(range(n))
        rng.shuffle(order)
        blocks = [order[i::r] for i in range(r)]
        rows = [_row(rng, n, _subset(rng, rng.choice(blocks), 0.6)) for _ in range(n)]
        if _irreducible(rows, range(n)) and not _strict(rows, range(n)):
            return rows


def _reducible_kernel(rng, n):
    """Two or three closed classes and up to two zero-mass transient states."""
    c = rng.randint(2, min(3, n))
    closed = rng.randint(max(c, n - 2), n)
    order = list(range(n))
    rng.shuffle(order)
    classes = [order[:closed][i::c] for i in range(c)]
    rows = [[0.0] * n for _ in range(n)]
    m = [0.0] * n
    for block, w in zip(classes, _normalise([rng.uniform(0.3, 1.0) for _ in classes])):
        while True:
            sub = [_row(rng, len(block), _subset(rng, range(len(block)), 0.6)) for _ in block]
            if _irreducible(sub, range(len(block))):
                break
        for a, y in enumerate(block):
            for b, z in enumerate(block):
                rows[y][z] = sub[a][b]
        for y, v in zip(block, solve_stationary(sub)):
            m[y] = w * v
    for y in order[closed:]:
        sup = _subset(rng, range(n), 0.5)
        if not any(z in order[:closed] for z in sup):
            sup.append(rng.choice(order[:closed]))
        rows[y] = _row(rng, n, sup)
    return rows, m


_KINDS = ("strict",) * 4 + ("nonstrict",) * 3 + ("reducible",) * 3


def verdict_kind(i: int) -> str:
    """strict, nonstrict, reducible, or wide<b> for a lattice of b blocks."""
    if i % WIDE_EVERY == WIDE_EVERY - 1:
        return f"wide{WIDE_BLOCKS[(i // WIDE_EVERY) % len(WIDE_BLOCKS)]}"
    return _KINDS[i % len(_KINDS)]


def verdict_doc(seed: int, i: int) -> dict:
    """Item i of the verdict sweep: 2-7 states, 2-5 points (wide items excepted)."""
    rng = _rng(seed, "verdict", i)
    kind = verdict_kind(i)
    stationary = None
    if kind.startswith("wide"):
        b = int(kind[len("wide"):])
        order = list(range(b))
        rng.shuffle(order)
        rows = [[0.0] * b for _ in range(b)]
        for a, y in enumerate(order):
            rows[y][order[(a + 1) % b]] = 1.0
        n, k = b, rng.randint(2, 3)
        if rng.random() < 0.5:
            stationary = [1.0 / b] * b
    else:
        n, k = rng.randint(2, 7), rng.randint(2, 5)
        if kind == "reducible":
            rows, stationary = _reducible_kernel(rng, n)
        else:
            rows = (_strict_kernel if kind == "strict" else _nonstrict_kernel)(rng, n)
            if rng.random() < 0.5:
                stationary = solve_stationary(rows)
    mu, draw_map = _fiber(rng, k)
    return _doc(rows, stationary, mu, [draw_map() for _ in range(n)])


def _relabel(doc: dict, so: list[int], po: list[int], suffix: str = "") -> dict:
    """The same system with states listed in order `so`, points in order `po`.

    Names travel with their rows and columns, and each gets `suffix`, so the
    structure carries over name for name while the text and the kernel's
    arrays change.
    """
    states, points = doc["states"], doc["space"]["points"]
    point_name = {x: x + suffix for x in points}
    out = {
        "states": [states[y] + suffix for y in so],
        "kernel": [[doc["kernel"][y][z] for z in so] for y in so],
    }
    if "stationary" in doc:
        out["stationary"] = [doc["stationary"][y] for y in so]
    out["space"] = {"points": [point_name[points[x]] for x in po],
                    "mu": [doc["space"]["mu"][x] for x in po]}
    out["family"] = {
        states[y] + suffix: [point_name[doc["family"][states[y]][x]] for x in po] for y in so
    }
    if "function" in doc:
        out["function"] = {"name": doc["function"]["name"],
                           "values": [doc["function"]["values"][x] for x in po]}
    return out


def _orders(rng, doc: dict) -> tuple[list[int], list[int]]:
    n, k = len(doc["states"]), len(doc["space"]["points"])
    return rng.sample(range(n), n), rng.sample(range(k), k)


def verdict_twin(doc: dict, seed: int, i: int, rep: int) -> dict:
    """Twin `rep` of item i: the same system, renamed and listed in another order.

    Every name gets the suffix `_<rep>`, so no text repeats even for the
    smallest systems. Every verdict carries over name for name except the
    states a counterexample swaps: the program picks them by listing order.
    Twin 0 is the item itself.
    """
    if rep == 0:
        return doc
    return _relabel(doc, *_orders(_rng(seed, "twin", i, rep), doc), suffix=f"_{rep}")


def verdict_texts(seed: int, count: int) -> list[str]:
    """Config texts of items 0 .. count-1."""
    return [json.dumps(verdict_doc(seed, i)) for i in range(count)]


def verdict_expectation(text: str) -> dict:
    return expected_verdicts(json.loads(text))


def rung(seed: int, n: int, k: int, rep: int = 0) -> dict:
    """One pair_scaling rung with PLANTED_BLOCKS invariant point blocks.

    The driving kernel gives row y the support {y, y+1, r_y}: the cycle makes
    it irreducible and the overlapping neighbours make it strictly
    irreducible, so the skew product's closed classes are exactly
    (all states) x (planted block). Repetition `rep` lists the same system's
    states and points in another order. The returned dict carries the config
    text and the answers the gate compares against.
    """
    rng = _rng(seed, "rung", n, k)
    rows = [_row(rng, n, sorted({y, (y + 1) % n, rng.randrange(n)})) for y in range(n)]
    stationary = solve_stationary(rows)
    order = list(range(k))
    rng.shuffle(order)
    blocks = [sorted(order[b::PLANTED_BLOCKS]) for b in range(PLANTED_BLOCKS)]
    bw = _normalise([rng.uniform(0.5, 2.0) for _ in blocks])
    mu = [0.0] * k
    for block, w in zip(blocks, bw):
        for x in block:
            mu[x] = w / len(block)
    tables = []
    for y in range(n):
        table = list(range(k))
        for block in blocks:
            img = block[1:] + block[:1] if y == 0 else rng.sample(block, len(block))
            for a, b in zip(block, img):
                table[a] = b
        tables.append(table)
    f = [round(rng.random(), 6) for _ in range(k)]
    cond = [0.0] * k
    for block in blocks:
        mean = sum(f[x] for x in block) / len(block)
        for x in block:
            cond[x] = mean
    nb, nc = LIMIT_QUERIES
    birkhoff = [(rng.randrange(n), rng.randrange(k)) for _ in range(nb)]
    cesaro = [rng.randrange(k) for _ in range(nc)]
    doc = _doc(rows, stationary, mu, tables, f)
    so, po = (list(range(n)), list(range(k))) if rep == 0 else _orders(
        _rng(seed, "rung-twin", n, k, rep), doc)
    new_state = {y: a for a, y in enumerate(so)}
    new_point = {x: c for c, x in enumerate(po)}
    doc = _relabel(doc, so, po)
    return {
        "name": f"rung-{n}x{k}",
        "text": json.dumps(doc),
        "blocks": PLANTED_BLOCKS,
        "f": doc["function"]["values"],
        "birkhoff": [(new_state[y], new_point[x]) for y, x in birkhoff],
        "cesaro": [new_point[x] for x in cesaro],
        "conditional_expectation": [cond[x] for x in po],
    }


def ladder(seed: int, rep: int) -> list[dict]:
    """The rungs of one ladder; each repetition relabels the same systems."""
    return [rung(seed, n, k, rep) for n, k in RUNGS]


# The gallery's bernoulli_rotation, as `stepskew gallery bernoulli_rotation`
# prints it; kept here so that the workload does not depend on the gallery.
ROTATION_TEXT = json.dumps(
    {
        "states": ["0", "1"],
        "kernel": [[0.6, 0.4], [0.6, 0.4]],
        "stationary": [0.6, 0.4],
        "space": {"points": ["1", "2", "3"], "mu": [1 / 3, 1 / 3, 1 / 3]},
        "family": {"0": ["2", "3", "1"], "1": ["3", "1", "2"]},
        "function": {"name": "ind1", "values": [1.0, 0.0, 0.0]},
    },
    indent=2,
) + "\n"


def simulate_variant(seed: int, rnd: int) -> int:
    """Variant of round `rnd`; seeds of the same parity share their range."""
    return (seed % 2) * SIM_ROUNDS + rnd


def simulate_texts(variant: int) -> list[tuple[str, str]]:
    """(name, config text) of the two simulate items for one variant.

    The generated item is one fixed system with its states and points
    listed in an order drawn from the variant, so every round does the same
    work on an input no other round sees.
    """
    rng = _rng("base", "simulate")
    rows = _strict_kernel(rng, SIM_STATES)
    mu = [1.0 / SIM_POINTS] * SIM_POINTS
    tables = [rng.sample(range(SIM_POINTS), SIM_POINTS) for _ in range(SIM_STATES)]
    f = [round(rng.random(), 6) for _ in range(SIM_POINTS)]
    doc = _doc(rows, solve_stationary(rows), mu, tables, f)
    generated = json.dumps(_relabel(doc, *_orders(_rng(variant, "simulate"), doc)))
    return [("rotation", ROTATION_TEXT), (f"generated{SIM_STATES}x{SIM_POINTS}", generated)]
