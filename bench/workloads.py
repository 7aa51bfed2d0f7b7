"""The three workloads: their inputs in batches, one item each, and the gate.

A workload hands out batches of items. Every batch runs the same kinds of
item in the same order, each position doing the same work as in batch 0 on
a relabelled system or with another simulation seed, so no input repeats
within a run and a cache keyed on whole inputs cannot help. Batch 0 is
built during set-up and later batches between items, outside every item
timer. Items call the
program only through `stepskew.cli` and the public functions of its layer
modules, always looked up on the module at call time so that the layer trace
can swap them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import gen

EXPECTED = Path(__file__).resolve().parent / "expected"
FLOAT_TOL = 1e-9  # verdict_sweep float fields
LIMIT_TOL = 1e-10  # pair_scaling exact limits
CESARO_TOL = 1e-12  # simulate_mc cesaro_partial column

_BLOCK = re.compile(r"\{([^{}]*)\}")
_PAIR = re.compile(r"\(([^,()]+),([^,()]+)\)")


def _blocks(text: str) -> list[list[str]]:
    return sorted(sorted(b.split(",")) if b else [] for b in _BLOCK.findall(text))


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


def parse_report(text: str) -> dict:
    """The structural fields of `check` + `skew` output, independent of float format."""
    fields: dict[str, list[str]] = {}
    for line in text.splitlines():
        if ": " in line and not line.startswith(" "):
            key, value = line.split(": ", 1)
            fields.setdefault(key, []).append(value)

    def one(key):
        (value,) = fields[key]
        return value

    classes = []
    for value in fields.get("CLASS", []):
        members, mass = value.rsplit(" mass=", 1)
        classes.append([sorted(f"({y},{x})" for y, x in _PAIR.findall(members)), float(mass)])
    if int(one("CLASSES")) != len(classes):
        raise ValueError("CLASSES count differs from the CLASS lines")
    head = one("COUNTEREXAMPLE")
    if head.startswith("none"):
        counter = {"kind": "none"}
    else:
        witness = fields.get("COUNTEREXAMPLE_WITNESS_MASS")
        product = fields.get("COUNTEREXAMPLE_PRODUCT_STRUCTURE")
        counter = {
            "kind": "family" if head.startswith("ergodic two-point family") else "base",
            "swap_states": _blocks(one("COUNTEREXAMPLE_SWAP_STATES"))[0],
            "skew_ergodic": _bool(one("COUNTEREXAMPLE_SKEW_ERGODIC")),
            "witness_mass": float(witness[0]) if witness else None,
            "product_structure": _bool(product[0]) if product else None,
        }
    return {
        "irreducible": _bool(one("IRREDUCIBLE")),
        "strict": _bool(one("STRICT")),
        "routes": {k: _bool(v) for k, v in (r.split("=") for r in one("STRICT_ROUTES").split())},
        "sim_classes": _blocks(one("SIM_CLASSES")),
        "dual_sim_classes": _blocks(one("DUAL_SIM_CLASSES")),
        "family_ergodic": _bool(one("FAMILY_ERGODIC")),
        "sigma_partition": _blocks(one("SIGMA_PARTITION")),
        "skew_ergodic": _bool(one("SKEW_ERGODIC")),
        "classes": sorted(classes),
        "product_structure": _bool(one("PRODUCT_STRUCTURE")),
        "counterexample": counter,
    }


def _close(a, b, tol) -> bool:
    return a is None and b is None or (a is not None and b is not None and abs(a - b) <= tol)


def verdict_mismatches(got: dict, want: dict) -> list[str]:
    """Exact on structure, FLOAT_TOL on masses."""
    bad = [k for k in want if k not in ("classes", "counterexample") and got.get(k) != want[k]]
    gc, wc = got["classes"], want["classes"]
    if [c[0] for c in gc] != [c[0] for c in wc]:
        bad.append("classes")
    elif not all(_close(g[1], w[1], FLOAT_TOL) for g, w in zip(gc, wc)):
        bad.append("class masses")
    g, w = got["counterexample"], want["counterexample"]
    if {k: v for k, v in g.items() if k != "witness_mass"} != {
        k: v for k, v in w.items() if k != "witness_mass"
    } or not _close(g.get("witness_mass"), w.get("witness_mass"), FLOAT_TOL):
        bad.append("counterexample")
    if want["irreducible"] and not want["strict"] and not _close(g.get("witness_mass"), 0.5, FLOAT_TOL):
        bad.append("witness mass is not 1/2")
    return bad


@dataclass
class Item:
    id: int  # position in the batch
    name: str  # the item's kind
    payload: Any
    cfg: Any = None
    rep: int = 0  # the batch it belongs to


class _Workload:
    """Batch 0 is made at construction, during set-up; later ones on demand.

    A run stops after `max_batches` batches even before its time is up, where
    more batches would repeat inputs.
    """

    max_batches = None

    def __init__(self, seed: int):
        self.seed = seed
        self._first = self._make(0)

    def batch(self, b: int) -> list[Item]:
        return self._first if b == 0 else self._make(b)


class VerdictSweep(_Workload):
    """Many small independent systems through parse_config, check and skew."""

    name = "verdict_sweep"

    def __init__(self, seed: int):
        import stepskew.cli

        self.cli = stepskew.cli
        self.pinned = json.loads((EXPECTED / "verdict_sweep.json").read_text()).get(str(seed), [])
        self.docs = [gen.verdict_doc(seed, i) for i in range(gen.VERDICT_ITEMS)]
        super().__init__(seed)

    def _make(self, b: int) -> list[Item]:
        return [
            Item(i, gen.verdict_kind(i), json.dumps(gen.verdict_twin(doc, self.seed, i, b)), rep=b)
            for i, doc in enumerate(self.docs)
        ]

    def run(self, item: Item) -> str:
        cli = self.cli
        cfg = cli.parse_config(item.payload)
        return cli.cmd_check(cfg) + cli.cmd_skew(cfg)

    def check(self, item: Item, out: str) -> list[str]:
        got = parse_report(out)
        bad = verdict_mismatches(got, gen.verdict_expectation(item.payload))
        if item.rep == 0 and item.id < len(self.pinned):
            bad += [f"pinned: {b}" for b in verdict_mismatches(got, self.pinned[item.id])]
        return bad


class PairScaling(_Workload):
    """A ladder of growing systems through skew, the invariant basis and exact limits."""

    name = "pair_scaling"

    def __init__(self, seed: int):
        import stepskew.cli
        import stepskew.ergodic
        import stepskew.skew

        self.cli, self.skew, self.ergodic = stepskew.cli, stepskew.skew, stepskew.ergodic
        super().__init__(seed)

    def _make(self, b: int) -> list[Item]:
        return [
            Item(j, r["name"], r, self.cli.parse_config(r["text"]), rep=b)
            for j, r in enumerate(gen.ladder(self.seed, b))
        ]

    def run(self, item: Item):
        cli, skew, ergodic = self.cli, self.skew, self.ergodic
        r, cfg = item.payload, item.cfg
        report = cli.cmd_skew(cfg)
        system = cli.config_system(cfg)
        basis = skew.invariant_function_basis(system)
        limits = [ergodic.exact_birkhoff_limit(system, y, x, r["f"]) for y, x in r["birkhoff"]]
        limits += [ergodic.exact_cesaro_limit(system, r["f"], x) for x in r["cesaro"]]
        return report, len(basis), limits

    def check(self, item: Item, out) -> list[str]:
        report, nbasis, limits = out
        r = item.payload
        fields = dict(line.split(": ", 1) for line in report.splitlines() if ": " in line)
        bad = []
        if int(fields["CLASSES"]) != r["blocks"] or nbasis != r["blocks"]:
            bad.append(f"class count {fields['CLASSES']}/{nbasis}, planted {r['blocks']}")
        if fields["SKEW_ERGODIC"] != "false" or fields["PRODUCT_STRUCTURE"] != "true":
            bad.append("verdicts differ from the planted structure")
        cond = r["conditional_expectation"]
        want = [cond[x] for _, x in r["birkhoff"]] + [cond[x] for x in r["cesaro"]]
        if not all(abs(a - b) <= LIMIT_TOL for a, b in zip(limits, want)):
            bad.append("exact limits differ from the conditional expectation")
        return bad


def parse_csv(text: str) -> dict[str, list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    cols = list(zip(*(ln.split(",") for ln in lines[1:])))
    return dict(zip(header, (list(c) for c in cols)))


def csv_mismatches(got_text: str, want_text: str) -> list[str]:
    got, want = parse_csv(got_text), parse_csv(want_text)
    bad = [c for c in ("n", "empirical_birkhoff", "mc_mean") if got.get(c) != want[c]]
    g, w = got.get("cesaro_partial", []), want["cesaro_partial"]
    if len(g) != len(w) or not all(abs(float(a) - float(b)) <= CESARO_TOL for a, b in zip(g, w)):
        bad.append("cesaro_partial")
    return bad


class SimulateMC(_Workload):
    """Monte Carlo convergence traces to 10^3 steps with the default 200 trials."""

    name = "simulate_mc"
    max_batches = gen.SIM_ROUNDS

    def __init__(self, seed: int):
        import stepskew.cli

        self.cli = stepskew.cli
        self.pinned = json.loads((EXPECTED / "simulate.json").read_text())
        super().__init__(seed)

    def _make(self, b: int) -> list[Item]:
        variant = gen.simulate_variant(self.seed, b)
        return [
            Item(j, name, variant, self.cli.parse_config(text), rep=b)
            for j, (name, text) in enumerate(gen.simulate_texts(variant))
        ]

    def run(self, item: Item) -> str:
        return self.cli.cmd_simulate(item.cfg, seed=item.payload, horizons=gen.SIM_HORIZONS)

    def check(self, item: Item, out: str) -> list[str]:
        return csv_mismatches(out, self.pinned[f"{item.name}-v{item.payload}"])


WORKLOADS = {w.name: w for w in (VerdictSweep, PairScaling, SimulateMC)}
