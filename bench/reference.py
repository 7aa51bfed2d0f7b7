"""Independent reference answers for the benchmark's correctness gate.

Pure Python on the decoded config document: no stepskew, no numpy. The
systems the verdict workload generates are small (at most 14 states and 5
points), so plain graph searches are fast enough to check every item.
"""

from __future__ import annotations


def solve_stationary(rows: list[list[float]]) -> list[float]:
    """The unique m with m K = m and sum(m) = 1, by Gaussian elimination.

    Only meaningful for a kernel with a single closed class; the generator
    calls it on irreducible kernels and on each closed class separately.
    """
    n = len(rows)
    # Equations: sum_y m_y (K[y][z] - [y == z]) = 0 for z < n - 1, sum m = 1.
    a = [[rows[y][z] - (1.0 if y == z else 0.0) for y in range(n)] for z in range(n)]
    a[n - 1] = [1.0] * n
    b = [0.0] * (n - 1) + [1.0]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
                b[r] -= f * b[col]
    m = [0.0] * n
    for r in range(n - 1, -1, -1):
        m[r] = (b[r] - sum(a[r][c] * m[c] for c in range(r + 1, n))) / a[r][r]
    total = sum(m)
    return [v / total for v in m]


def sccs(nodes, succ) -> list[frozenset]:
    """Strongly connected components (iterative Tarjan) of a digraph."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list[frozenset] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                out.append(frozenset(comp))
    return out


def groups(nodes, edges) -> list[frozenset]:
    """Connected components of the undirected graph on nodes with edges."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    out: dict = {}
    for v in nodes:
        out.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in out.values()]


def canon(blocks, label) -> list[list[str]]:
    """Order-free form of a partition: sorted blocks of sorted labels."""
    return sorted(sorted(label(i) for i in b) for b in blocks)


def _rows_support(kernel, supp):
    return {y: [z for z in supp if kernel[y][z] > 0.0] for y in supp}


def _pair_classes(supp, rows, tables, xsupp):
    pairs = [(y, x) for y in supp for x in xsupp]

    def succ(p):
        y, x = p
        tx = tables[y][x]
        return [(z, tx) for z in rows[y]]

    return sccs(pairs, succ)


def _product_sections(classes, supp):
    """The point sections if every class is (all active states) x section."""
    sections = []
    for block in classes:
        by_state: dict = {}
        for y, x in block:
            by_state.setdefault(y, set()).add(x)
        first = next(iter(by_state.values()))
        if set(by_state) != set(supp) or any(s != first for s in by_state.values()):
            return None
        sections.append(frozenset(first))
    return sections


def _reach(supp, rows, target):
    """States from which target is hit in one or more steps."""
    preds: dict = {z: [] for z in supp}
    for y in supp:
        for z in rows[y]:
            preds[z].append(y)
    seen: set = set()
    frontier = list(target)
    while frontier:
        z = frontier.pop()
        for y in preds[z]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def expected_verdicts(doc: dict) -> dict:
    """Every structural field of `check` and `skew` for one config document."""
    states = doc["states"]
    kernel = doc["kernel"]
    n = len(states)
    m = doc.get("stationary") or solve_stationary(kernel)
    points = doc["space"]["points"]
    mu = doc["space"]["mu"]
    pidx = {p: i for i, p in enumerate(points)}
    tables = [[pidx[p] for p in doc["family"][s]] for s in states]
    supp = [y for y in range(n) if m[y] > 0.0]
    xsupp = [x for x in range(len(points)) if mu[x] > 0.0]
    rows = _rows_support(kernel, supp)
    cols = {z: [y for y in supp if z in rows[y]] for z in supp}
    slab = states.__getitem__
    plab = points.__getitem__

    def chain_edges(lists):
        return [(a, b) for lst in lists for a, b in zip(lst, lst[1:])]

    def overlap_connected(lists):
        sets = [set(lst) for lst in lists]
        return len(sccs(supp, lambda a: [b for b in supp if any(a in s and b in s for s in sets)])) == 1

    irreducible = len(sccs(supp, rows.__getitem__)) == 1
    sim = groups(supp, chain_edges(rows.values()))
    dual = groups(supp, chain_edges(cols.values()))
    routes = {
        "sim": len(sim) <= 1,
        "dual_sim": len(dual) <= 1,
        "gram": overlap_connected(rows.values()),
        "dual_gram": overlap_connected(cols.values()),
    }
    sigma = groups(xsupp, [(x, tables[y][x]) for y in supp for x in xsupp])
    classes = _pair_classes(supp, rows, tables, xsupp)
    sections = _product_sections(classes, supp)
    return {
        "irreducible": irreducible,
        "strict": routes["sim"],
        "routes": routes,
        "sim_classes": canon(sim, slab),
        "dual_sim_classes": canon(dual, slab),
        "family_ergodic": len(sigma) <= 1,
        "sigma_partition": canon(sigma, plab),
        "skew_ergodic": len(classes) == 1,
        "classes": sorted(
            [
                sorted(f"({slab(y)},{plab(x)})" for y, x in block),
                sum(m[y] * mu[x] for y, x in block),
            ]
            for block in classes
        ),
        "product_structure": sections is not None and set(sections) == set(sigma),
        "counterexample": _expected_counterexample(supp, rows, m, irreducible, routes["sim"], sim, slab),
    }


def _expected_counterexample(supp, rows, m, irreducible, strict, sim, slab):
    two = [[0, 1], [1, 0]]  # identity, swap on the uniform two-point fiber
    if irreducible and not strict:
        b = min(sim, key=min)
        swaps = [y for y in supp if (y in b) != (set(rows[y]) <= b)]
        tables = {y: two[y in swaps] for y in supp}
        classes = _pair_classes(supp, rows, tables, [0, 1])
        return {
            "kind": "family",
            "swap_states": sorted(slab(y) for y in swaps),
            "skew_ergodic": len(classes) == 1,
            "witness_mass": sum(m[y] * 0.5 for y in supp),
            "product_structure": None,
        }
    if irreducible:
        return {"kind": "none"}
    absorbing = None
    for b in supp:
        u = _reach(supp, rows, {b})
        if not set(supp) <= u:
            absorbing = set(supp) - u
            break
    swaps = [y for y in supp if y not in absorbing]
    tables = {y: two[y in swaps] for y in supp}
    classes = _pair_classes(supp, rows, tables, [0, 1])
    return {
        "kind": "base",
        "swap_states": sorted(slab(y) for y in swaps),
        "skew_ergodic": len(classes) == 1,
        "witness_mass": None,
        "product_structure": _product_sections(classes, supp) is not None,
    }
