"""Config ingestion, subcommands, and report rendering.

Configs are single JSON documents describing the driving kernel, the fiber
space, the family, and optionally a stationary vector and a named test
function. Reports are plain text with stable line prefixes (IRREDUCIBLE:,
STRICT:, SKEW_ERGODIC:, ...) so scripts can grep them. The simulate
subcommand emits the convergence-trace CSV defined in the ergodic module
and is byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys as _sys
from itertools import islice

import numpy as np

from . import ergodic
from .config import SystemConfig
from .errors import ParseError, TooLarge, ValidationError
from .gallery import gallery_config
from .graphs import Partition, indices_by_label
from .kernels import (
    MarkovSpec,
    is_irreducible,
    is_strictly_irreducible,
    reverse_kernel,
)
from .skew import (
    SkewSystem,
    build_base_counterexample,
    build_counterexample_family,
    check_product_structure,
    counterexample_invariant_set,
)

DEFAULT_HORIZONS = (100, 1_000, 10_000, 100_000)
DEFAULT_TRIALS = 200


def _require(doc: dict, field: str, kind, where: str = ""):
    label = f"{where}{field}"
    if field not in doc:
        raise ParseError(label, "missing")
    value = doc[field]
    if kind is list and not isinstance(value, list):
        raise ParseError(label, "must be a list")
    if kind is dict and not isinstance(value, dict):
        raise ParseError(label, "must be an object")
    return value


def _floats(values, field: str) -> tuple[float, ...]:
    try:
        types = set(map(type, values))
        if types <= {float, int}:  # floats are kept as they are
            return tuple(map(float, values) if int in types else values)
        for v in values:  # the first offender: not a number, or an int too large
            if type(v) not in (float, int):
                raise ParseError(field, f"expected a number, got {reprlib.repr(v)}")
            float(v)
    except OverflowError:
        raise ParseError(field, "integer too large for a float") from None


def _labels(values, field: str) -> tuple[str, ...]:
    if not values or not set(map(type, values)) <= {str}:
        raise ParseError(field, "must be a non-empty list of strings")
    if len(set(values)) != len(values):
        raise ParseError(field, "labels must be unique")
    try:
        "".join(values).encode("utf-8")
    except UnicodeEncodeError as e:  # a lone surrogate: valid JSON, but no report prints it
        raise ParseError(field, f"{e.object[e.start]!r} is not UTF-8 text") from None
    return tuple(values)


def parse_config(text: str) -> SystemConfig:
    """Parse and shape-check a JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("document", f"invalid JSON at line {e.lineno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # the integer digit limit, deep nesting
        raise ParseError("document", str(e).split(";")[0]) from None
    if not isinstance(doc, dict):
        raise ParseError("document", "top level must be an object")
    states = _labels(_require(doc, "states", list), "states")
    kernel_rows = _require(doc, "kernel", list)
    if len(kernel_rows) != len(states):
        raise ParseError("kernel", f"expected {len(states)} rows")
    kernel = []
    for i, row in enumerate(kernel_rows):
        if not isinstance(row, list) or len(row) != len(states):
            raise ParseError(f"kernel[{i}]", f"expected a list of {len(states)} numbers")
        kernel.append(_floats(row, f"kernel[{i}]"))
    stationary = None
    if doc.get("stationary") is not None:
        stat = _require(doc, "stationary", list)
        if len(stat) != len(states):
            raise ParseError("stationary", f"expected {len(states)} entries")
        stationary = _floats(stat, "stationary")
    space = _require(doc, "space", dict)
    points = _labels(_require(space, "points", list, "space."), "space.points")
    mu = _floats(_require(space, "mu", list, "space."), "space.mu")
    if len(mu) != len(points) or not np.isfinite(mu).all():  # check never builds the space
        raise ParseError("space.mu", f"expected {len(points)} finite entries")
    fam_doc = _require(doc, "family", dict)
    missing = [s for s in states if s not in fam_doc]
    if missing:
        raise ParseError("family", f"missing maps for states {reprlib.repr(missing)}")
    known_states = dict.fromkeys(states)
    extra = [s for s in fam_doc if s not in known_states]
    if extra:
        raise ParseError("family", f"maps for unknown states {reprlib.repr(extra)}")
    known_points = frozenset(points)
    family = []
    for s in states:
        images = fam_doc[s]
        if not isinstance(images, list) or len(images) != len(points):
            raise ParseError(f"family.{s}", f"expected a list of {len(points)} point labels")
        try:  # no value that is not a string equals a label
            known = known_points.issuperset(images)
        except TypeError:  # an unhashable list or object
            known = False
        if not known:
            bad = [p for p in images if not isinstance(p, str) or p not in known_points]
            raise ParseError(f"family.{s}", f"unknown point labels {reprlib.repr(bad)}")
        family.append((s, tuple(images)))
    function = None
    if doc.get("function") is not None:
        fn = _require(doc, "function", dict)
        name = fn.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError("function.name", "must be a non-empty string")
        _labels([name], "function.name")  # its UTF-8 check
        values = _require(fn, "values", list, "function.")
        if len(values) != len(points):
            raise ParseError("function.values", f"expected {len(points)} entries")
        function = (name, _floats(values, "function.values"))
    return SystemConfig(
        states=states,
        kernel=tuple(kernel),
        stationary=stationary,
        points=points,
        mu=mu,
        family=tuple(family),
        function=function,
    )


def render_config(cfg: SystemConfig) -> str:
    """Canonical JSON for a config; parse_config . render_config == id."""
    doc: dict = {
        "states": list(cfg.states),
        "kernel": [list(row) for row in cfg.kernel],
    }
    if cfg.stationary is not None:
        doc["stationary"] = list(cfg.stationary)
    doc["space"] = {"points": list(cfg.points), "mu": list(cfg.mu)}
    doc["family"] = {s: list(images) for s, images in cfg.family}
    if cfg.function is not None:
        doc["function"] = {"name": cfg.function[0], "values": list(cfg.function[1])}
    return json.dumps(doc, indent=2) + "\n"


def config_system(cfg: SystemConfig) -> SkewSystem:
    """The config's skew system over its spec: cfg.system, as a function."""
    return cfg.system


def _set_str(labels, indices) -> str:
    return "{" + ",".join(labels[i] for i in sorted(indices)) + "}"


def _block_strs(names: np.ndarray, labels: np.ndarray) -> list[str]:
    """The string {a,b,...} of each block of a label array, in label order,
    members in index order; names is an object array holding the name of
    each labelled element (labels >= 0), in index order."""
    return ["{" + ",".join(names[idx]) + "}" for idx in indices_by_label(labels)]


def _partition_str(names, part: Partition) -> str:
    on = part.labels >= 0
    return " ".join(_block_strs(np.array(names, dtype=object)[on], part.labels))


def _bool(b) -> str:
    return "true" if b else "false"


def cmd_check(cfg: SystemConfig) -> str:
    """Kernel-level report: invariance, reachability classes, reversal."""
    spec = cfg.spec
    labels = cfg.states
    dev = float(np.abs(spec.m.values @ spec.kernel.values - spec.m.values).max())
    lines = [
        f"STATES: {spec.n} support={_set_str(labels, spec.support)}",
        f"STATIONARY: {' '.join(repr(float(v)) for v in spec.m.values)}",
        f"INVARIANT: ok max_deviation={dev:.3e}",
        f"IRREDUCIBLE: {_bool(is_irreducible(spec))}",
        f"STRICT: {_bool(is_strictly_irreducible(spec))}",
        "STRICT_ROUTES: "
        + " ".join(f"{k}={_bool(v)}" for k, v in spec.strict_routes.items()),
        "SIM_CLASSES: " + _partition_str(labels, spec.sim),
        "DUAL_SIM_CLASSES: " + _partition_str(labels, spec.dual_sim),
    ]
    shown = [_set_str(labels, s) for s in islice(spec.deterministic_sets, 65)]
    if len(shown) > 64:
        shown[64] = "..."  # 64 sets, and a mark that more follow
    lines.append("DETERMINISTIC_SETS (complete): " + " ".join(shown))
    rev = reverse_kernel(spec)
    lines.append("REVERSE_KERNEL:")
    for i, label in enumerate(labels):
        lines.append(f"  {label}: " + " ".join(repr(float(v)) for v in rev.values[i]))
    return "\n".join(lines) + "\n"


def cmd_skew(cfg: SystemConfig) -> str:
    """Skew-product report: family invariants, classes, product structure."""
    sys_ = cfg.system
    sigma = sys_.family_partition
    report = sys_.closed_classes
    lines = [
        f"FAMILY_ERGODIC: {_bool(sigma.trivial)}",
        "SIGMA_PARTITION: " + _partition_str(cfg.points, sigma),
        f"SKEW_ERGODIC: {_bool(report.ergodic)}",
        f"CLASSES: {len(report.class_masses)}",
    ]
    ys, xs = np.nonzero(report.labels >= 0)
    heads = np.array([f"({s}," for s in cfg.states], dtype=object)
    tails = np.array([f"{p})" for p in cfg.points], dtype=object)
    pairs = heads[ys] + tails[xs]  # "(state,point)" per active pair
    for members, mass in zip(_block_strs(pairs, report.labels), report.class_masses.tolist()):
        lines.append(f"CLASS: {members} mass={mass!r}")
    lines.append(f"PRODUCT_STRUCTURE: {_bool(check_product_structure(sys_))}")
    lines.extend(_counterexample_lines(cfg, sys_.spec))
    return "\n".join(lines) + "\n"


def _counterexample_lines(cfg: SystemConfig, spec: MarkovSpec) -> list[str]:
    witness = None
    if not is_irreducible(spec):
        counter = build_base_counterexample(spec)
        title = "reducible base; two-point system with non-product invariant structure"
    elif is_strictly_irreducible(spec):
        return ["COUNTEREXAMPLE: none (kernel is strictly irreducible)"]
    else:
        counter = build_counterexample_family(spec)
        title = "ergodic two-point family with non-ergodic skew product"
        witness = counterexample_invariant_set(spec)
    verdict = counter.closed_classes
    swaps = spec.support[counter.family.tables[spec.support, 0] == 1]
    lines = [
        f"COUNTEREXAMPLE: {title}",
        f"COUNTEREXAMPLE_SWAP_STATES: {_set_str(cfg.states, swaps)}",
        f"COUNTEREXAMPLE_SKEW_ERGODIC: {_bool(verdict.ergodic)}",
    ]
    if witness is None:
        lines.append(f"COUNTEREXAMPLE_PRODUCT_STRUCTURE: {_bool(verdict.product_structured)}")
    else:
        mu = counter.family.space.mu.values
        mass = sum(spec.m.values[y] * mu[x] for y, x in witness)
        lines.append(f"COUNTEREXAMPLE_WITNESS_MASS: {float(mass)!r}")
    return lines


def _resolve_function(cfg: SystemConfig, name: str | None) -> tuple[str, np.ndarray]:
    if name is None:
        name = f"indicator:{cfg.points[0]}" if cfg.function is None else cfg.function[0]
    if cfg.function is not None and name == cfg.function[0]:
        return name, np.asarray(cfg.function[1], dtype=float)
    if name.startswith("indicator:"):
        label = name.split(":", 1)[1]
        if label not in cfg.points:
            raise ValidationError(f"unknown point label {label!r} in --f")
        return name, (np.arange(len(cfg.points)) == cfg.points.index(label)).astype(float)
    raise ValidationError(
        f"unknown function {name!r}; use the config function name or indicator:<point>"
    )


def cmd_simulate(
    cfg: SystemConfig,
    seed: int = 0,
    horizons=DEFAULT_HORIZONS,
    trials: int = DEFAULT_TRIALS,
    f_name: str | None = None,
    x_label: str | None = None,
) -> str:
    """Run the convergence experiment and return its CSV."""
    sys_ = cfg.system
    label, f = _resolve_function(cfg, f_name)
    if x_label is not None and x_label not in cfg.points:
        raise ValidationError(f"unknown point label {x_label!r} in --x")
    x = int(sys_.family.space.support[0]) if x_label is None else cfg.points.index(x_label)
    trace = ergodic.convergence_report(
        sys_,
        f,
        x,
        seed=seed,
        horizons=horizons,
        trials=trials,
        f_label=label,
        x_label=cfg.points[x],
    )
    return trace.to_csv()


def _parse_horizons(text: str) -> list[int]:
    try:
        return [int(h) for h in text.split(",") if h]
    except ValueError:
        raise ValidationError(
            f"--horizons must be comma-separated integers, got {text!r}"
        ) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stepskew",
        description=(
            "Decide irreducibility, strict irreducibility, and skew-product "
            "ergodicity for finite Markov-driven systems, and run ergodic-"
            "average experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="kernel-level structure report")
    p_check.add_argument("file")

    p_skew = sub.add_parser("skew", help="skew-product structure report")
    p_skew.add_argument("file")

    p_sim = sub.add_parser("simulate", help="convergence experiment CSV")
    p_sim.add_argument("file")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--horizons",
        default=",".join(str(h) for h in DEFAULT_HORIZONS),
        help="comma-separated increasing horizons",
    )
    p_sim.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_sim.add_argument("--f", dest="f_name", default=None)
    p_sim.add_argument("--x", dest="x_label", default=None)
    p_sim.add_argument("--out", default=None)

    p_gal = sub.add_parser("gallery", help="emit a built-in example config")
    p_gal.add_argument("name")
    p_gal.add_argument("--emit", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "gallery":
            text = render_config(gallery_config(args.name))
            if args.emit:
                with open(args.emit, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                _sys.stdout.write(text)
            return 0
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError("document", f"not UTF-8 at byte {e.start}") from None
        cfg = parse_config(text)
        if args.command == "check":
            _sys.stdout.write(cmd_check(cfg))
        elif args.command == "skew":
            _sys.stdout.write(cmd_skew(cfg))
        elif args.command == "simulate":
            csv = cmd_simulate(
                cfg,
                seed=args.seed,
                horizons=_parse_horizons(args.horizons),
                trials=args.trials,
                f_name=args.f_name,
                x_label=args.x_label,
            )
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(csv)
            else:
                _sys.stdout.write(csv)
        return 0
    except (ParseError, ValidationError, TooLarge, OSError, UnicodeEncodeError) as e:
        print(f"error: {e}", file=_sys.stderr)  # also when stdout cannot encode the report
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
