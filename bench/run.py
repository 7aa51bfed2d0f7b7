#!/usr/bin/env python3
"""stepskew benchmark: one workload per run, untraced or traced.

    python3 bench/run.py --workload verdict_sweep --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones
of BENCHMARK.json, measured with nothing patched; with `--trace 1` they are
the per-layer ones. Everything else (environment, per-item detail, error
rate, metrics undefined on this workload) goes to
.bench_out/<workload>-seed<seed>-trace<t>.json and to a `DETAIL` line above
the result.

Untraced run: set-up, then whole batches of items until the items' own time
reaches --seconds. Every batch does the same work item for item on fresh
inputs, and each item's time is its fastest over the run's batches; the
rate and median are taken over those times, and so are the tail and the
slowest item, which go to the detail record only. Set-up
(importing stepskew, generating the inputs, parsing configs) is timed here
and in six fresh interpreters, one after the other, and the median is
reported.

Traced run: each item of the workload's first batch runs once untraced and
then once with every layer wrapped; the per-layer metrics come from the
traced runs and the ratio of the two totals is the tracing overhead. Its
length does not depend on --seconds.

All work happens in this one single-threaded process; BLAS is pinned to one
thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6
TAIL_BEYOND = 10  # items the reported tail percentile must leave above it


def _import_program() -> None:
    if not (SRC / "stepskew" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {SRC / 'stepskew'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import stepskew  # noqa: F401


def set_up(workload: str, seed: int):
    """Import the program and build the workload's first inputs; returns (object, seconds)."""
    t0 = perf_counter()
    _import_program()
    import workloads

    w = workloads.WORKLOADS[workload](seed)
    return w, perf_counter() - t0


def _probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_items(w, items, around=contextlib.nullcontext):
    """Run items one by one; returns per-item seconds and the failures seen."""
    times, failures = [], []
    for it in items:
        t0 = perf_counter()
        try:
            with around(it):
                out = w.run(it)
        except Exception as e:  # a raising item is a failed item, not a crashed run
            times.append(perf_counter() - t0)
            problems = [f"{type(e).__name__}: {e}"]
        else:
            times.append(perf_counter() - t0)
            try:
                problems = w.check(it, out)
            except Exception as e:  # output the gate cannot read fails the gate
                problems = [f"unreadable output: {type(e).__name__}: {e}"]
        if problems:
            failures.append({"item": it.id, "rep": it.rep, "name": it.name,
                             "problems": problems[:5]})
    return times, failures


def timed_phase(w, seconds: float):
    """Whole batches until the items' own time reaches `seconds`; times per batch."""
    batches, failures = [], []
    while not batches or (sum(map(sum, batches)) < seconds and len(batches) != w.max_batches):
        t, f = run_items(w, w.batch(len(batches)))
        batches.append(t)
        failures += f
    return batches, failures


def tail(times: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND items above it.

    None when that percentile would lie below the 90th, i.e. with fewer than
    TAIL_BEYOND * 10 items.
    """
    if len(times) < TAIL_BEYOND * 10:
        return None
    s = sorted(times)
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.strip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": rev or "unavailable (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or "unknown",
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_runtime": _blas_threads(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(w, args, setup_s: float) -> tuple[dict, dict, list, int]:
    samples = [setup_s] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    batches, failures = timed_phase(w, args.seconds)
    # A shared host's speed swings by up to a half, for under a second up
    # to minutes, as other tenants come and go; that only ever adds time. Every
    # batch repeats batch 0's work position for position, so each position
    # keeps its fastest run and every statistic is taken over those times.
    # The tail and the slowest item are recorded but not gated: the largest
    # items slow by up to twice as much as the median one in a slow spell,
    # and spells lasting minutes left no fast pass to take them from.
    # A tail percentile needs 100 positions; with fewer it is the slowest.
    fastest = [min(col) for col in zip(*batches)]
    t_tail, pct = tail(fastest) or (max(fastest), 100.0)
    metrics = {
        "setup_s": _metric(statistics.median(samples), "s"),
        "items_per_s": _metric(len(fastest) / sum(fastest), "1/s"),
        "item_p50_ms": _metric(statistics.median(fastest) * 1e3, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    times = [t for batch in batches for t in batch]
    by_kind: dict[str, list[float]] = {}
    for it, t in zip(w.batch(0), fastest):
        by_kind.setdefault(it.name, []).append(t)
    detail = {
        "setup_samples_s": samples,
        "items": len(fastest),
        "batches": len(batches),
        "timed_s": sum(times),
        "batch_seconds": [sum(b) for b in batches],
        "mean_rate_per_s": len(times) / sum(times),
        "error_rate": len(failures) / len(times),
        "item_tail_ms": t_tail * 1e3,
        "item_tail": {"percentile": pct, "items": len(fastest),
                      "beyond": TAIL_BEYOND if pct < 100.0 else 0},
        "max_item_s": max(fastest),
        "per_kind_median_s": {k: statistics.median(v) for k, v in by_kind.items()},
        "per_kind_count": {k: len(v) for k, v in by_kind.items()},
    }
    if args.workload == "pair_scaling":
        import gen

        pairs = {f"rung-{n}x{k}": n * k for n, k in gen.RUNGS}
        med = detail["per_kind_median_s"]
        detail["rung_seconds"] = {f"{name} ({pairs[name]} pairs)": med[name] for name in pairs}
        detail["loglog_slope_time_vs_pairs"] = loglog_slope(
            [pairs[n] for n in pairs], [med[n] for n in pairs])
    return metrics, detail, failures, len(times)


def traced(w, args) -> tuple[dict, dict, list, int]:
    import layers
    from spans import Tracer

    items = w.batch(0)
    tracer = Tracer()

    def root_span(it):
        tracer.current_item = it.id
        return tracer.span(layers.ROOT_LAYER, f"item.{w.name}")

    # Each item runs untraced and then traced, back to back, so that a change
    # in host speed between the two passes does not read as tracing overhead.
    plain, with_trace, failures = [], [], []
    for it in items:
        t, f = run_items(w, [it])
        plain += t
        failures += f
        tracer.install(layers.HOOKS)
        try:
            t, f = run_items(w, [it], root_span)
        finally:
            tracer.uninstall()
        with_trace += t
        failures += f
    metrics, detail = layers.layer_metrics(tracer, sum(with_trace), sum(plain))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{w.name}-seed{args.seed}-spans.jsonl.gz"
    tracer.write(spans)
    detail.update({"spans_file": str(spans.relative_to(ROOT)), "spans": len(tracer.start),
                   "items": len(items), "untraced_s": sum(plain),
                   "error_rate": len(failures) / (2 * len(items))})
    return metrics, detail, failures, 2 * len(items)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("verdict_sweep", "pair_scaling", "simulate_mc"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    w, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if args.trace:
        metrics, detail, failures, attempted = traced(w, args)
    else:
        metrics, detail, failures, attempted = untraced(w, args, setup_s)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "detail": detail, "failures": failures[:20],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print("DETAIL " + json.dumps({k: record[k] for k in ("environment", "detail", "failures")}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
