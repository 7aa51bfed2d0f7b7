"""Per-layer metrics derived from one traced pass.

Totals over the traced items. `<layer>.self_s` is time in the layer's own
code with its callees' spans taken out; any other `_s` metric is wall time
inside the named functions with nested calls counted once. The comments in
UNITS say which end-to-end metric, on which workload, each one should move.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import LAYERS, Tracer

ROOT_LAYER = "bench"

STRICT = {"kernels.is_strictly_irreducible", "kernels.strict_irreducibility_routes"}
INGEST = {"kernels.StochasticMatrix.from_rows", "kernels.ProbVector.from_values", "kernels.validate_spec"}
RENDER = {"cli.cmd_check", "cli.cmd_skew", "cli.cmd_simulate"}
COUNTER = {"skew.build_counterexample_family", "skew.build_base_counterexample"}
LIMITS = {"ergodic.exact_birkhoff_limit", "ergodic.exact_cesaro_limit"}
SCC = {"graphs.strongly_connected_components"}
BUILD = {"skew.build_pair_chain"}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _scc(c, args, kwargs, result):
    c["scc_nodes"] += int(_arg(args, kwargs, 0, "adj").shape[0])


def _det_sets(c, args, kwargs, result):
    c["det_sets"] += len(result.sets)


def _pair_chain(c, args, kwargs, result):
    k = result.kernel
    if hasattr(k, "nnz"):  # a sparse kernel stores only its data array's entries
        stored, nz = k.data.size, int(np.count_nonzero(k.data))
        nbytes = k.data.nbytes + k.indices.nbytes + k.indptr.nbytes
    else:
        stored, nz, nbytes = k.size, int(np.count_nonzero(k)), k.nbytes
    c["pair_stored"] += stored
    c["pair_nonzero"] += nz
    c["pair_bytes_max"] = max(c["pair_bytes_max"], nbytes)


def _occupancy(c, args, kwargs, result):
    steps = int(_arg(args, kwargs, 2, "trials")) * max(_arg(args, kwargs, 3, "checkpoints"))
    c["mc_steps"] += steps


def _cesaro(c, args, kwargs, result):
    system = _arg(args, kwargs, 0, "sys")
    pairs = len(system.spec.support) * len(system.family.space.support)
    c["dp_updates"] += max(_arg(args, kwargs, 3, "horizons")) * pairs


HOOKS = {
    "graphs.strongly_connected_components": _scc,
    "kernels.deterministic_sets": _det_sets,
    "skew.build_pair_chain": _pair_chain,
    "ergodic.orbit_occupancy": _occupancy,
    "ergodic.cesaro_partial_averages": _cesaro,
}

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    # the split of each workload's wall time
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    # items_per_s on verdict_sweep
    "cli.parse_s": "s",
    "cli.render_self_s": "s",
    "kernels.ingest_s": "s",
    # item_p50_ms on verdict_sweep
    "kernels.stationary_calls": "count",
    "kernels.stationary_s": "s",
    # items_per_s on verdict_sweep; the call counts show strict routes recomputed
    "kernels.strict_calls": "count",
    "kernels.sim_class_calls": "count",
    "kernels.strict_s": "s",
    # item_tail_ms on verdict_sweep
    "kernels.deterministic_sets_s": "s",
    "kernels.deterministic_sets_emitted": "count",
    # items_per_s on verdict_sweep
    "kernels.reverse_s": "s",
    # items_per_s on verdict_sweep (small graphs), max_item_s on pair_scaling
    "graphs.scc_calls": "count",
    "graphs.scc_s": "s",
    "graphs.scc_nodes_mean": "count",
    # items_per_s on verdict_sweep
    "dynamics.validate_map_s": "s",
    "dynamics.partition_s": "s",
    # items_per_s on pair_scaling and verdict_sweep
    "skew.pair_chain_builds": "count",
    "skew.pair_chain_build_s": "s",
    # peak_rss_mb on pair_scaling
    "skew.pair_kernel_bytes_max": "B",
    "skew.pair_kernel_fill": "ratio",
    # max_item_s on pair_scaling
    "skew.closed_classes_s": "s",
    "skew.basis_s": "s",
    # items_per_s on verdict_sweep
    "skew.counterexample_attempts": "count",
    "skew.counterexample_yield": "ratio",
    # items_per_s on pair_scaling
    "ergodic.exact_limit_calls": "count",
    "ergodic.exact_limit_s": "s",
    "ergodic.chain_builds_per_limit": "ratio",
    # items_per_s on simulate_mc, mainly its rotation item
    "ergodic.occupancy_s": "s",
    "ergodic.mc_trial_steps": "count",
    "ergodic.mc_trial_steps_per_s": "1/s",
    # max_item_s on simulate_mc, mainly its 8 x 64 item
    "ergodic.cesaro_dp_s": "s",
    "ergodic.dp_pair_updates": "count",
    # exceptions leaving each layer's wrapped calls
    **{f"{layer}.raised": "count" for layer in LAYERS},
    # traced over untraced wall time of the same items, minus 1
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(t: Tracer, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
    """(metrics, detail): every UNITS entry, plus what explains the zeros."""
    selfs = t.self_times()
    by_layer: dict[str, float] = defaultdict(float)
    by_func: dict[str, float] = defaultdict(float)
    for sid, st in enumerate(selfs):
        layer, name = t.names[t.func[sid]]
        by_layer[layer] += st
        by_func[name] += st
    c = t.counters
    undefined = {}

    def ratio(name, num, den, why):
        if den:
            return num / den
        undefined[name] = why
        return 0.0

    scc_calls = t.calls(SCC)
    builds = t.calls(BUILD)
    attempts = t.calls(COUNTER)
    limit_calls = t.calls(LIMITS)
    occupancy_s = t.outermost_time({"ergodic.orbit_occupancy"})
    values = {
        **{f"{layer}.self_s": by_layer[layer] for layer in LAYERS},
        "cli.parse_s": t.outermost_time({"cli.parse_config"}),
        "cli.render_self_s": sum(by_func[n] for n in RENDER),
        "kernels.ingest_s": t.outermost_time(INGEST),
        "kernels.stationary_calls": t.calls({"kernels.stationary_distribution"}),
        "kernels.stationary_s": t.outermost_time({"kernels.stationary_distribution"}),
        "kernels.strict_calls": t.calls(STRICT),
        "kernels.sim_class_calls": t.calls({"kernels.sim_classes", "kernels.dual_sim_classes"}),
        "kernels.strict_s": t.outermost_time(STRICT),
        "kernels.deterministic_sets_s": t.outermost_time({"kernels.deterministic_sets"}),
        "kernels.deterministic_sets_emitted": c["det_sets"],
        "kernels.reverse_s": t.outermost_time({"kernels.reverse_kernel"}),
        "graphs.scc_calls": scc_calls,
        "graphs.scc_s": t.outermost_time(SCC),
        "graphs.scc_nodes_mean": ratio(
            "graphs.scc_nodes_mean", c["scc_nodes"], scc_calls, "no SCC call"),
        "dynamics.validate_map_s": t.outermost_time({"dynamics.validate_map"}),
        "dynamics.partition_s": t.outermost_time({"dynamics.family_invariant_partition"}),
        "skew.pair_chain_builds": builds,
        "skew.pair_chain_build_s": t.outermost_time(BUILD),
        "skew.pair_kernel_bytes_max": c["pair_bytes_max"],
        "skew.pair_kernel_fill": ratio(
            "skew.pair_kernel_fill", c["pair_nonzero"], c["pair_stored"],
            "no pair chain built"),
        "skew.closed_classes_s": t.outermost_time({"skew.PairChain.closed_classes"}),
        "skew.basis_s": t.outermost_time({"skew.invariant_function_basis"}),
        "skew.counterexample_attempts": attempts,
        "skew.counterexample_yield": ratio(
            "skew.counterexample_yield", t.calls(COUNTER, raised=False), attempts,
            "no counterexample construction attempted"),
        "ergodic.exact_limit_calls": limit_calls,
        "ergodic.exact_limit_s": t.outermost_time(LIMITS),
        "ergodic.chain_builds_per_limit": ratio(
            "ergodic.chain_builds_per_limit", t.calls_within(BUILD, LIMITS), limit_calls,
            "no exact-limit query on this workload"),
        "ergodic.occupancy_s": occupancy_s,
        "ergodic.mc_trial_steps": c["mc_steps"],
        "ergodic.mc_trial_steps_per_s": ratio(
            "ergodic.mc_trial_steps_per_s", c["mc_steps"], occupancy_s,
            "no Monte Carlo sampling on this workload"),
        "ergodic.cesaro_dp_s": t.outermost_time({"ergodic.cesaro_partial_averages"}),
        "ergodic.dp_pair_updates": c["dp_updates"],
        **{f"{layer}.raised": sum(
            1 for sid, f in enumerate(t.func) if t.raised[sid] and t.names[f][0] == layer)
           for layer in LAYERS},
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    detail = {
        "undefined": undefined,
        "self_time_sum_s": sum(selfs),
        "bench_self_s": by_layer[ROOT_LAYER],
        "traced_wall_s": traced_s,
        "self_s_by_function": dict(sorted(by_func.items(), key=lambda kv: -kv[1])[:25]),
    }
    return metrics, detail
