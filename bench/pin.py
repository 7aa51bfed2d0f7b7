#!/usr/bin/env python3
"""Write the benchmark's pinned expectations from the program in ./src.

    python3 bench/pin.py

It writes expected/simulate.json, the full `simulate` CSV of both items of
every variant, keyed <item>-v<variant>, and expected/verdict_sweep.json, the parsed
structural report of the first PINNED_ITEMS verdict items (one of them a
wide lattice) for the development seed (0) and the confirmation seed (1);
every other item is checked against the reference answers alone.

Pin again only for an intended, reviewed change of the program's output.
"""

from __future__ import annotations

import json

import run  # sets the BLAS thread count before numpy loads

run._import_program()

import gen  # noqa: E402
import workloads  # noqa: E402
from stepskew import cli  # noqa: E402

PINNED_SEEDS = (0, 1)
PINNED_ITEMS = gen.WIDE_EVERY


def pin_simulate() -> None:
    pinned = {}
    for variant in range(gen.SIM_VARIANTS):
        for name, text in gen.simulate_texts(variant):
            cfg = cli.parse_config(text)
            pinned[f"{name}-v{variant}"] = cli.cmd_simulate(cfg, seed=variant, horizons=gen.SIM_HORIZONS)
    (workloads.EXPECTED / "simulate.json").write_text(json.dumps(pinned, indent=0) + "\n")


def pin_verdicts() -> None:
    parts = []
    for seed in PINNED_SEEDS:
        records = []
        for text in gen.verdict_texts(seed, PINNED_ITEMS):
            cfg = cli.parse_config(text)
            record = workloads.parse_report(cli.cmd_check(cfg) + cli.cmd_skew(cfg))
            records.append(json.dumps(record, separators=(",", ":")))
        parts.append(f'"{seed}": [\n' + ",\n".join(records) + "\n]")
    path = workloads.EXPECTED / "verdict_sweep.json"
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    pin_simulate()
    pin_verdicts()
