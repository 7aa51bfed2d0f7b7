"""Smoke tests of the benchmark itself; they run in seconds.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run

run._import_program()

import gen  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = 40

# Every metric the benchmark's specification names. Three are not metrics of
# the result line but fields of its detail record. error_rate: an end-to-end
# metric must never read 0, so the failure rate travels as the result's
# `failed` / `attempted` and as detail.error_rate. item_tail_ms and
# max_item_s: too unsteady on a shared host to gate (see run.untraced).
NAMED_END_TO_END = {"setup_s", "items_per_s", "item_p50_ms", "item_tail_ms", "max_item_s",
                    "peak_rss_mb", "error_rate"}
RECORDED_ELSEWHERE = {"error_rate", "item_tail_ms", "max_item_s"}


def smoke(cls):
    w = cls(0)
    w._first = w._first[:SMOKE]
    return w


def test_same_seed_gives_identical_input_bytes():
    assert gen.verdict_texts(0, SMOKE) == gen.verdict_texts(0, SMOKE)
    assert gen.verdict_texts(0, SMOKE) != gen.verdict_texts(1, SMOKE)
    twins = [json.dumps(gen.verdict_twin(gen.verdict_doc(0, i), 0, i, 2)) for i in range(SMOKE)]
    assert twins == [it.payload for it in workloads.VerdictSweep(0)._make(2)[:SMOKE]]
    assert [r["text"] for r in gen.ladder(0, 0)] == [r["text"] for r in gen.ladder(0, 0)]
    assert [r["text"] for r in gen.ladder(0, 0)] != [r["text"] for r in gen.ladder(0, 1)]
    assert gen.simulate_texts(3) == gen.simulate_texts(3)


def test_seeds_0_and_1_share_no_simulate_inputs():
    def inputs(seed):
        rounds = workloads.SimulateMC.max_batches
        variants = {gen.simulate_variant(seed, b) for b in range(rounds)}
        assert len(variants) == rounds  # no input repeats within a run
        return variants, {text for v in variants for _, text in gen.simulate_texts(v)}

    (v0, t0), (v1, t1) = inputs(0), inputs(1)
    assert not v0 & v1
    assert not (t0 - {gen.ROTATION_TEXT}) & (t1 - {gen.ROTATION_TEXT})
    pinned = json.loads((workloads.EXPECTED / "simulate.json").read_text())
    assert {f"rotation-v{v}" for v in v0 | v1} <= set(pinned)


def test_verdict_twins_repeat_the_work_not_the_text():
    w = smoke(workloads.VerdictSweep)
    texts = [it.payload for b in range(3) for it in w._make(b)]
    assert len(set(texts)) == len(texts) == 3 * gen.VERDICT_ITEMS
    base, twins = w.batch(0), w.batch(1)[:SMOKE]
    _, failures = run.run_items(w, twins)
    assert failures == []
    for b, t in zip(base, twins):
        # The twin's answer is the item's own, name for name, except for the
        # states a counterexample swaps: those follow the listing order.
        got = workloads.parse_report(re.sub(r"_1\b", "", w.run(t)))
        want = copy.deepcopy(w.pinned[b.id])
        for r in (got, want):
            r["counterexample"].pop("swap_states", None)
        assert workloads.verdict_mismatches(got, want) == []


def test_relabelled_rungs_and_simulate_rounds_pass_the_gate():
    pair = workloads.PairScaling(0)
    rungs = [pair.batch(b)[0] for b in range(3)]
    assert len({it.payload["text"] for it in rungs}) == 3
    sim = workloads.SimulateMC(0)
    rounds = [sim.batch(b)[1] for b in range(2)]
    for w, items in ((pair, rungs), (sim, rounds)):
        _, failures = run.run_items(w, items)
        assert failures == []


def test_rotation_text_is_the_gallery_config():
    from stepskew.cli import render_config
    from stepskew.gallery import gallery_config

    assert gen.ROTATION_TEXT == render_config(gallery_config("bernoulli_rotation"))


@pytest.mark.parametrize("seed", ["0", "1"])
def test_reference_answers_agree_with_pinned_records(seed):
    pinned = json.loads((workloads.EXPECTED / "verdict_sweep.json").read_text())[seed]
    texts = gen.verdict_texts(int(seed), len(pinned))
    for text, record in zip(texts, pinned):
        assert workloads.verdict_mismatches(record, gen.verdict_expectation(text)) == []


def test_corrupted_pinned_verdict_raises_error_rate():
    w = smoke(workloads.VerdictSweep)
    items = w.batch(0)[:5]
    times, failures = run.run_items(w, items)
    assert failures == []
    bad = copy.deepcopy(w.pinned)
    bad[2]["skew_ergodic"] = not bad[2]["skew_ergodic"]
    w.pinned = bad
    times, failures = run.run_items(w, items)
    assert len(failures) / len(times) > 0
    assert [f["item"] for f in failures] == [2]


def test_malformed_output_is_a_failed_item():
    w = smoke(workloads.VerdictSweep)
    items = w.batch(0)[:3]
    run_program = w.run

    def drop_a_line(it):
        lines = run_program(it).splitlines(keepends=True)
        return "".join(ln for ln in lines if not ln.startswith("SKEW_ERGODIC:"))

    w.run = drop_a_line
    times, failures = run.run_items(w, items)
    assert len(times) == 3
    assert [f["item"] for f in failures] == [0, 1, 2]
    assert all(f["problems"][0].startswith("unreadable output: KeyError") for f in failures)


def test_corrupted_pinned_csv_is_caught():
    text = json.loads((workloads.EXPECTED / "simulate.json").read_text())["rotation-v0"]
    assert workloads.csv_mismatches(text, text) == []
    lines = text.splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("100,"))
    cells = lines[row].split(",")
    cells[2] = cells[2] + "1"  # one more digit in mc_mean
    lines[row] = ",".join(cells)
    assert workloads.csv_mismatches(text, "".join(lines)) == ["mc_mean"]


def test_traced_self_times_sum_to_traced_wall_time():
    w = smoke(workloads.VerdictSweep)
    metrics, detail, failures, attempted = run.traced(w, SimpleNamespace(seed=0))
    assert failures == [] and attempted == 2 * SMOKE
    # Self times partition the item spans exactly; what the item timers see
    # beyond them is the entry and exit of the root span itself.
    assert detail["self_time_sum_s"] == pytest.approx(detail["traced_wall_s"], rel=0.02)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["graphs.scc_calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_every_named_end_to_end_metric_is_emitted():
    w = smoke(workloads.VerdictSweep)
    args = SimpleNamespace(workload="verdict_sweep", seed=0, seconds=0.0)
    metrics, detail, failures, attempted = run.untraced(w, args, 0.5)
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(metrics) == names
    assert NAMED_END_TO_END == names | RECORDED_ELSEWHERE
    assert all(name in detail for name in RECORDED_ELSEWHERE)
    assert detail["error_rate"] == 0 and attempted == SMOKE
    assert all(m["value"] > 0 for m in metrics.values())


def test_per_layer_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdict_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
