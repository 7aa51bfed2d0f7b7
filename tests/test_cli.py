"""Config parsing, report rendering, subcommand wiring, and CSV emission."""

from __future__ import annotations

import dataclasses
import json
import reprlib
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepskew as sk
import stepskew.ergodic as ergodic
from conftest import fresh_python, sorted_unions
from stepskew.cli import (
    DEFAULT_HORIZONS,
    DEFAULT_TRIALS,
    cmd_check,
    cmd_simulate,
    cmd_skew,
    main,
    parse_config,
    render_config,
)
from stepskew.gallery import GALLERY_NAMES, gallery_config


def grep(report: str, prefix: str) -> str:
    for line in report.splitlines():
        if line.startswith(prefix):
            return line
    raise AssertionError(f"no line with prefix {prefix!r} in:\n{report}")


# ---------------------------------------------------------------------------
# parsing and round trips
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_round_trip(name):
    cfg = gallery_config(name)
    assert parse_config(render_config(cfg)) == cfg


def test_parse_rejects_bad_json():
    with pytest.raises(sk.ParseError):
        parse_config("{not json")


def test_parse_names_missing_field():
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    del doc["space"]
    with pytest.raises(sk.ParseError) as err:
        parse_config(json.dumps(doc))
    assert "space" in str(err.value)


def test_parse_rejects_unknown_point_label():
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    doc["family"]["0"][0] = "9"
    with pytest.raises(sk.ParseError) as err:
        parse_config(json.dumps(doc))
    assert "family.0" in str(err.value)


def test_parse_rejects_incomplete_family():
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    del doc["family"]["1"]
    with pytest.raises(sk.ParseError):
        parse_config(json.dumps(doc))


# Malformed family documents: the field and message each must name, with
# the offenders in document order.
MALFORMED_FAMILIES = {
    "unknown labels": (
        lambda d: d["family"].__setitem__("1", ["9", "1", None]),
        "family.1",
        "unknown point labels ['9', None]",
    ),
    "unhashable labels": (
        lambda d: d["family"].__setitem__("1", [3, "x", ["2"]]),
        "family.1",
        "unknown point labels [3, 'x', ['2']]",
    ),
    "an object label": (
        lambda d: d["family"].__setitem__("1", ["1", {"p": 1}, "1"]),
        "family.1",
        "unknown point labels [{'p': 1}]",
    ),
    "unknown states": (
        lambda d: d["family"].update({"7": ["1", "2", "3"], "0x": ["1", "2", "3"]}),
        "family",
        "maps for unknown states ['7', '0x']",
    ),
    "a missing state": (lambda d: d["family"].pop("0"), "family", "missing maps for states ['0']"),
    "images not a list": (
        lambda d: d["family"].__setitem__("0", "123"),
        "family.0",
        "expected a list of 3 point labels",
    ),
    "short images": (
        lambda d: d["family"].__setitem__("1", ["1", "2"]),
        "family.1",
        "expected a list of 3 point labels",
    ),
    "duplicate points": (
        lambda d: d["space"].__setitem__("points", ["1", "1", "3"]),
        "space.points",
        "labels must be unique",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FAMILIES))
def test_parse_error_names_field_and_first_offenders(case):
    mutate, field, reason = MALFORMED_FAMILIES[case]
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    mutate(doc)
    with pytest.raises(sk.ParseError) as err:
        parse_config(json.dumps(doc))
    assert err.value.field == field
    assert str(err.value) == f"config field '{field}': {reason}"


def _three_state_doc() -> dict:
    return {
        "states": ["a", "b", "c"],
        "kernel": [[0, 1, 0], [0, 0, 1.0], [1, 0, 0]],
        "stationary": [1 / 3] * 3,
        "space": {"points": ["p", "q", "r"], "mu": [1 / 3] * 3},
        "family": {"a": ["p", "q", "r"], "b": ["q", "r", "p"], "c": ["r", "p", "q"]},
        "function": {"name": "g", "values": [1, -0.5, 2.0]},
    }


def _slow_floats_error(values, field: str) -> str:
    """The message of the per-entry check that the one-pass check replaced:
    the oracle for its first offender."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return f"config field '{field}': expected a number, got {reprlib.repr(v)}"
        try:
            float(v)
        except OverflowError:
            return f"config field '{field}': integer too large for a float"
    raise AssertionError("no offender")


NUMBER_LISTS = {
    "kernel[1]": lambda d: d["kernel"][1],
    "stationary": lambda d: d["stationary"],
    "space.mu": lambda d: d["space"]["mu"],
    "function.values": lambda d: d["function"]["values"],
}
NOT_NUMBERS = {
    "true": True,
    "false": False,
    "null": None,
    "string": "0.5",
    "list": [0.5],
    "object": {"v": 1},
    "1e400": 10**400,
    "-1e400": -(10**400),
}


@pytest.mark.parametrize("field", sorted(NUMBER_LISTS))
@pytest.mark.parametrize("offender", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
@pytest.mark.parametrize("at", [0, 1, 2])
def test_parse_names_the_first_offender_in_a_number_list(field, offender, at):
    doc = _three_state_doc()
    values = NUMBER_LISTS[field](doc)
    values[at] = offender
    with pytest.raises(sk.ParseError) as err:
        parse_config(json.dumps(doc))
    assert err.value.field == field
    assert str(err.value) == _slow_floats_error(values, field)


@pytest.mark.parametrize("field", sorted(NUMBER_LISTS))
def test_parse_reports_whichever_offender_comes_first(field):
    expect = {
        (10**400, "x"): "integer too large for a float",
        ("x", 10**400): "expected a number, got 'x'",
    }
    for (first, second), reason in expect.items():
        doc = _three_state_doc()
        values = NUMBER_LISTS[field](doc)
        values[1], values[2] = first, second
        with pytest.raises(sk.ParseError) as err:
            parse_config(json.dumps(doc))
        assert (err.value.field, str(err.value)) == (field, f"config field '{field}': {reason}")


@pytest.mark.parametrize("entry", [[], {}, 3, 2.5, True, None], ids=repr)
@pytest.mark.parametrize("at", [0, 1, 2])
def test_parse_refuses_a_family_row_holding_a_non_label(entry, at):
    doc = _three_state_doc()
    doc["family"]["b"][at] = entry
    with pytest.raises(sk.ParseError) as err:
        parse_config(json.dumps(doc))
    assert err.value.field == "family.b"
    assert str(err.value) == f"config field 'family.b': unknown point labels {[entry]!r}"


@pytest.mark.parametrize("row", [[], {}, 3, "pqr"], ids=repr)
def test_parse_refuses_a_family_row_that_is_not_a_list_of_labels(row):
    doc = _three_state_doc()
    doc["family"]["c"] = row
    with pytest.raises(sk.ParseError) as err:
        parse_config(json.dumps(doc))
    assert err.value.field == "family.c"
    assert str(err.value) == "config field 'family.c': expected a list of 3 point labels"


finite_numbers = st.one_of(
    st.integers(min_value=-(2**1023), max_value=2**1023),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -0.0, 0.0, 2**53 + 1, -(2**53 + 1), 2**1023]),
)


@given(st.lists(finite_numbers, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_parse_reads_valid_mixed_number_rows_bit_for_bit(row):
    doc = _three_state_doc()
    doc["space"] = {"points": [f"p{i}" for i in range(len(row))], "mu": row}
    doc["family"] = {s: doc["space"]["points"] for s in doc["states"]}
    doc["function"]["values"] = row
    cfg = parse_config(json.dumps(doc))
    want = list(map(float.hex, (float(v) for v in row)))  # the per-entry conversion
    assert list(map(float.hex, cfg.mu)) == want
    assert list(map(float.hex, cfg.function[1])) == want


def test_row_sum_failure_delegated():
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    doc["kernel"][0] = [0.0, 0.9]
    with pytest.raises(sk.RowNotStochastic):
        parse_config(json.dumps(doc)).spec


def test_missing_stationary_is_computed():
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    del doc["stationary"]
    spec = parse_config(json.dumps(doc)).spec
    assert spec.m.values == pytest.approx([0.5, 0.5], abs=1e-12)


def test_missing_stationary_ambiguous_kernel_fails():
    doc = json.loads(render_config(gallery_config("nonergodic_base")))
    del doc["stationary"]
    with pytest.raises(sk.MultipleStationary):
        parse_config(json.dumps(doc)).spec


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------
def test_check_bufetov_lines():
    report = cmd_check(gallery_config("bufetov_period2"))
    assert grep(report, "IRREDUCIBLE:") == "IRREDUCIBLE: true"
    assert grep(report, "STRICT:") == "STRICT: false"
    assert "sim=false" in grep(report, "STRICT_ROUTES:")


def test_check_bernoulli_strict():
    report = cmd_check(gallery_config("bernoulli_rotation"))
    assert grep(report, "STRICT:") == "STRICT: true"
    assert grep(report, "IRREDUCIBLE:") == "IRREDUCIBLE: true"


def test_check_nonergodic_base():
    report = cmd_check(gallery_config("nonergodic_base"))
    assert grep(report, "IRREDUCIBLE:") == "IRREDUCIBLE: false"


def test_check_deterministic_block():
    report = cmd_check(gallery_config("deterministic_block"))
    assert grep(report, "IRREDUCIBLE:") == "IRREDUCIBLE: true"
    assert grep(report, "STRICT:") == "STRICT: false"


def test_skew_bufetov_lines():
    report = cmd_skew(gallery_config("bufetov_period2"))
    assert grep(report, "FAMILY_ERGODIC:") == "FAMILY_ERGODIC: true"
    assert grep(report, "SKEW_ERGODIC:") == "SKEW_ERGODIC: false"
    assert grep(report, "CLASSES:") == "CLASSES: 3"
    assert grep(report, "PRODUCT_STRUCTURE:") == "PRODUCT_STRUCTURE: false"
    assert grep(report, "COUNTEREXAMPLE_WITNESS_MASS:").endswith("0.5")


def test_skew_rotation_lines():
    report = cmd_skew(gallery_config("bernoulli_rotation"))
    assert grep(report, "SKEW_ERGODIC:") == "SKEW_ERGODIC: true"
    assert grep(report, "PRODUCT_STRUCTURE:") == "PRODUCT_STRUCTURE: true"
    assert "strictly irreducible" in grep(report, "COUNTEREXAMPLE:")


def test_skew_base_counterexample_lines():
    report = cmd_skew(gallery_config("nonergodic_base"))
    assert grep(report, "SKEW_ERGODIC:") == "SKEW_ERGODIC: false"
    assert "reducible base" in grep(report, "COUNTEREXAMPLE:")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------
def test_simulate_csv_header_and_indicator_function():
    csv = cmd_simulate(
        gallery_config("bufetov_period2"),
        seed=5,
        horizons=[10, 100],
        trials=4,
        f_name="indicator:2",
        x_label="1",
    )
    body = [l for l in csv.splitlines() if not l.startswith("#")]
    assert body[0].startswith("n,empirical_birkhoff,mc_mean")
    assert len(body) == 3
    assert "# f: indicator:2" in csv
    assert "# x: 1" in csv


def test_simulate_unknown_function_rejected():
    with pytest.raises(sk.ValidationError):
        cmd_simulate(gallery_config("bufetov_period2"), f_name="nope", horizons=[10])


def test_simulate_default_function_from_config():
    csv = cmd_simulate(gallery_config("bufetov_period2"), horizons=[10], trials=4)
    assert "# f: ind1" in csv


# ---------------------------------------------------------------------------
# main() wiring
# ---------------------------------------------------------------------------
def test_main_gallery_and_check(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    assert main(["gallery", "bufetov_period2", "--emit", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    captured = capsys.readouterr()
    assert "IRREDUCIBLE: true" in captured.out


def test_main_unknown_gallery(capsys):
    assert main(["gallery", "missing_name"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown gallery name 'missing_name'")
    assert all(name in err for name in GALLERY_NAMES)


def test_main_rejects_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    doc["kernel"][1] = [0.7, 0.7]
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 1
    assert "row 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "skew"])
def test_main_refuses_mass_on_a_transient_state(tmp_path, capsys, command):
    # stationary within tolerance, but state 0 is transient
    path = tmp_path / "transient.json"
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    doc["kernel"], doc["stationary"] = [[0, 1], [0, 1]], [1e-10, 0.9999999999]
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "state 0" in err
    assert "Traceback" not in err


def _period2_with_first_kernel_entry(literal: str) -> bytes:
    text = render_config(gallery_config("bufetov_period2"))
    doc = text.replace('"kernel": [\n    [\n      0.0', '"kernel": [\n    [\n      ' + literal, 1)
    assert doc != text
    return doc.encode()


# Documents that once ended in a Python traceback, and the field each names.
MALFORMED = {
    "invalid_utf8": (b"\xff\xfe" + render_config(gallery_config("bufetov_period2")).encode(), "document"),
    "deep_nesting": (b"[" * 100_000, "document"),
    "int_beyond_float": (_period2_with_first_kernel_entry("9" * 401), "kernel[0]"),
    "int_beyond_digit_limit": (_period2_with_first_kernel_entry("9" * 5_000), "document"),
    "lone_surrogate_state": (
        render_config(gallery_config("bufetov_period2")).replace('"0"', '"\\ud800"').encode(),
        "states",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_main_reports_a_malformed_document_without_a_traceback(tmp_path, capsys, case):
    data, field = MALFORMED[case]
    path = tmp_path / "malformed.json"
    path.write_bytes(data)
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}': ")
    assert "Traceback" not in err


# A label holding a lone surrogate is valid JSON but cannot be printed.
LONE_SURROGATES = {
    "states": lambda text: text.replace('"0"', '"\\ud800"'),
    "space.points": lambda text: text.replace('"3"', '"\\udfff"'),
    "function.name": lambda text: text.replace('"ind1"', '"ind\\ud800"'),
}


@pytest.mark.parametrize("field", sorted(LONE_SURROGATES))
def test_parse_refuses_a_label_that_is_not_utf8(field):
    text = LONE_SURROGATES[field](render_config(gallery_config("bufetov_period2")))
    with pytest.raises(sk.ParseError) as err:
        parse_config(text)
    assert err.value.field == field
    assert str(err.value).endswith("is not UTF-8 text")


def test_parse_error_text_is_bounded():
    deep = _period2_with_first_kernel_entry("[" * 900 + "0" + "]" * 900).decode()
    with pytest.raises(sk.ParseError) as err:
        parse_config(deep)
    assert err.value.field == "kernel[0]"
    assert str(err.value).startswith("config field 'kernel[0]': expected a number, got [[[")
    assert len(str(err.value)) < 100
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    doc["family"].update({f"x{i}": ["1", "2", "3"] for i in range(1000)})
    with pytest.raises(sk.ParseError) as err:
        parse_config(json.dumps(doc))
    assert err.value.field == "family"
    assert str(err.value).startswith("config field 'family': maps for unknown states ['x0', 'x1', ")
    assert len(str(err.value)) < 100


def _one_point_config(kernel) -> str:
    n = len(kernel)
    return json.dumps({
        "states": [str(y) for y in range(n)],
        "kernel": kernel,
        "stationary": [1.0 / n] * n,
        "space": {"points": ["a"], "mu": [1.0]},
        "family": {str(y): ["a"] for y in range(n)},
    })


@pytest.mark.parametrize(
    "kernel",
    [np.roll(np.eye(20), 1, axis=1), np.eye(24), np.eye(64), np.eye(500)],
    ids=["cycle-20", "identity-24", "identity-64", "identity-500"],
)
def test_check_prints_the_first_unions_quickly(kernel):
    n = len(kernel)  # one sim block per state
    cfg = parse_config(_one_point_config(kernel.tolist()))
    t0 = time.perf_counter()
    report = cmd_check(cfg)
    assert time.perf_counter() - t0 < 1.0
    want = sorted_unions([frozenset({y}) for y in range(n)], max_size=2)
    assert len(want) > 64  # so its first 64 are the full order's
    shown = " ".join("{" + ",".join(str(y) for y in sorted(s)) + "}" for s in want[:64])
    assert grep(report, "DETERMINISTIC_SETS") == f"DETERMINISTIC_SETS (complete): {shown} ..."


def test_main_missing_file(capsys):
    assert main(["check", "/nonexistent/x.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_off_support_start_fails_cleanly(tmp_path, capsys):
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    doc["space"]["mu"] = [0.5, 0.5, 0.0]
    doc["family"] = {"0": ["2", "1", "3"], "1": ["2", "1", "3"]}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", str(path), "--x", "3", "--horizons", "10"])
    assert code == 1
    assert "zero-mass" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--trials", "0"], "trials"),
        (["--trials", "-3"], "trials"),
        (["--horizons", "10,abc"], "--horizons"),
        (["--horizons", "100,10"], "horizons"),
    ],
)
def test_simulate_bad_flags_fail_cleanly(tmp_path, capsys, flags, needle):
    path = tmp_path / "cfg.json"
    path.write_text(render_config(gallery_config("bufetov_period2")))
    code = main(["simulate", str(path), "--horizons", "10"] + flags)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_simulate_refuses_a_function_that_is_not_finite(tmp_path, capsys, bad):
    # json writes and reads NaN and Infinity, so the parsed config holds them
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    doc["function"]["values"][0] = float(bad)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert bad in path.read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(path), "--horizons", "10", "--trials", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: function value ") and "not finite" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["check", "skew"])
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_commands_refuse_a_point_mass_that_is_not_finite(tmp_path, capsys, command, bad):
    doc = json.loads(render_config(gallery_config("bufetov_period2")))
    doc["space"]["mu"][0] = float(bad)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert bad in path.read_text()
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "space.mu" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flags, cap",
    [
        (["--horizons", "1,100000000000"], "MAX_HORIZON"),
        (["--horizons", "10,100000", "--trials", "10000"], "MAX_TRIAL_STEPS"),
        (["--trials", "1000000000"], "MAX_TRIALS"),
    ],
)
def test_simulate_beyond_a_cap_fails_before_sampling(tmp_path, capsys, monkeypatch, flags, cap):
    def refuse(*args):
        raise AssertionError("the sampler started")

    monkeypatch.setattr(ergodic, "_walk_pairs", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(render_config(gallery_config("bufetov_period2")))
    code = main(["simulate", str(path)] + flags)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and cap in err
    assert "Traceback" not in err


def test_default_simulate_is_well_under_the_caps():
    assert DEFAULT_HORIZONS[-1] * 10 <= ergodic.MAX_HORIZON
    assert DEFAULT_TRIALS * 10 <= ergodic.MAX_TRIALS
    assert DEFAULT_HORIZONS[-1] * DEFAULT_TRIALS * 10 <= ergodic.MAX_TRIAL_STEPS


def test_main_simulate_writes_identical_csv(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    assert main(["gallery", "bernoulli_rotation", "--emit", str(cfg_path)]) == 0
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["simulate", str(cfg_path), "--seed", "9", "--horizons", "10,100",
             "--trials", "8", "--f", "indicator:1", "--x", "1"]
    assert main(flags + ["--out", str(out1)]) == 0
    assert main(flags + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# work done per command, and pinned simulate traces
# ---------------------------------------------------------------------------
# The most calls one report may make; sim partitions, strict routes and
# closed classes are cached on the spec and the system.
CALL_LIMITS = {
    "sim_classes": 1,
    "dual_sim_classes": 1,
    "strict_irreducibility_routes": 1,
    "family_invariant_partition": 1,
}


@pytest.mark.parametrize("name", GALLERY_NAMES)
@pytest.mark.parametrize("command", ["cmd_check", "cmd_skew"])
def test_check_computes_each_sim_partition_once(monkeypatch, command, name):
    import sys

    import stepskew.skew as skew

    calls = dict.fromkeys(CALL_LIMITS, 0)
    for fname in calls:
        original = getattr(sk, fname)

        def counted(*args, _name=fname, _original=original):
            calls[_name] += 1
            return _original(*args)

        # every stepskew module that bound the name at import time
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("stepskew") and getattr(mod, fname, None) is original:
                monkeypatch.setattr(mod, fname, counted)
    closed_classes = skew.SkewSystem.__dict__["closed_classes"]
    owners = []

    def counted_classes(system, _original=closed_classes.func):
        owners.append(system)
        return _original(system)

    monkeypatch.setattr(closed_classes, "func", counted_classes)
    globals()[command](gallery_config(name))
    assert all(calls[f] <= CALL_LIMITS[f] for f in calls), calls
    if command == "cmd_check":
        assert calls["sim_classes"] == calls["dual_sim_classes"] == 1
    assert len({id(system) for system in owners}) == len(owners)


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_check_then_skew_analyse_the_config_once(monkeypatch, name):
    # One kernel labelling, one build of the strict routes and one check of
    # the config's family across both commands; the counterexample systems
    # share the config's spec, and their own two-point families are checked
    # apart.
    import stepskew.dynamics as dynamics
    import stepskew.kernels as kernels

    labelled, routes, checked = [], [], []
    closed = kernels.StochasticMatrix.__dict__["closed_classes"]

    def label(kernel, _original=closed.func):
        labelled.append(kernel)
        return _original(kernel)

    def build_routes(spec, _original=kernels.strict_irreducibility_routes):
        routes.append(spec)
        return _original(spec)

    def check_tables(space, tables, _original=dynamics._check_tables):
        checked.append(space)
        return _original(space, tables)

    monkeypatch.setattr(closed, "func", label)
    monkeypatch.setattr(kernels, "strict_irreducibility_routes", build_routes)
    monkeypatch.setattr(dynamics, "_check_tables", check_tables)
    cfg = gallery_config(name)
    cmd_check(cfg)
    cmd_skew(cfg)
    assert len(labelled) == 1 and labelled[0] is cfg.spec.kernel
    assert len(routes) == 1 and routes[0] is cfg.spec
    assert sum(space is cfg.system.family.space for space in checked) == 1


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_reports_render_partitions_from_labels(name):
    # The text reads the label arrays: no partition caches anything beside
    # them, frozenset blocks included.
    cfg = gallery_config(name)
    cmd_skew(cfg)
    spec, system = cfg.spec, cfg.system
    partitions = [spec.sim, spec.dual_sim, system.family_partition, system.closed_classes.sections]
    assert all(set(vars(part)) == {"labels", "n_blocks"} for part in partitions if part is not None)
    cmd_check(cfg)
    assert set(vars(spec.dual_sim)) == {"labels", "n_blocks"}


def test_check_passes_a_config_whose_only_fault_is_a_map(tmp_path, capsys):
    # check never builds the family; skew reports the map's fault as before.
    good = gallery_config("bufetov_period2")
    cfg = dataclasses.replace(good, family=(("0", ("2", "3", "1")), ("1", ("1", "1", "2"))))
    assert cmd_check(cfg) == cmd_check(good)
    with pytest.raises(sk.NotMeasurePreserving) as err:
        cmd_skew(cfg)
    assert str(err.value) == "map is not measure preserving (worst point 0, deviation 3.333e-01)"
    assert (err.value.point, err.value.deviation) == (0, 1 / 3)
    path = tmp_path / "bad_map.json"
    path.write_text(render_config(cfg))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    assert main(["skew", str(path)]) == 1
    assert "not measure preserving" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_simulate_matches_golden_trace(name):
    # Regenerate only on a deliberate change of the sampler or the DP:
    # cmd_simulate(gallery_config(name), seed=7, horizons=(10, 100), trials=16)
    csv = cmd_simulate(gallery_config(name), seed=7, horizons=(10, 100), trials=16)
    assert csv.encode() == (GOLDEN / f"simulate_{name}.csv").read_bytes()


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_simulate_matches_long_golden_trace(name):
    # 200 trials to 10^4 steps cross the 4096-word chunk edge, where each
    # stream's state is saved and restored, and walk many blocks of bins.
    # Regenerate only on a deliberate change of the sampler or the DP:
    # cmd_simulate(gallery_config(name), seed=7, horizons=(10, 100, 1000, 10000), trials=200)
    csv = cmd_simulate(gallery_config(name), seed=7, horizons=(10, 100, 1000, 10000), trials=200)
    assert csv.encode() == (GOLDEN / f"simulate_long_{name}.csv").read_bytes()


@pytest.mark.parametrize("name", GALLERY_NAMES)
@pytest.mark.parametrize("command", ["check", "skew"])
def test_report_matches_golden(command, name):
    # Pinned byte for byte, float digits included; regenerate only on a
    # deliberate change of the report: cmd_check / cmd_skew(gallery_config(name))
    report = {"check": cmd_check, "skew": cmd_skew}[command](gallery_config(name))
    assert report.encode() == (GOLDEN / f"{command}_{name}.txt").read_bytes()


# ---------------------------------------------------------------------------
# cold start: scipy stays unloaded unless a graph is above the SCC split
# ---------------------------------------------------------------------------
def _strict_config(n: int, k: int) -> str:
    """n states stepping y -> y, y + 1, y + 3 (mod n) with weight 1/3 each,
    which is strictly irreducible, and a random permutation of k points on
    each state."""
    rng = np.random.default_rng(k)
    kernel = np.zeros((n, n))
    for y in range(n):
        kernel[y, [y, (y + 1) % n, (y + 3) % n]] = 1 / 3
    points = [f"x{i}" for i in range(k)]
    return json.dumps({
        "states": [str(y) for y in range(n)],
        "kernel": kernel.tolist(),
        "space": {"points": points, "mu": [1 / k] * k},
        "family": {str(y): [points[i] for i in rng.permutation(k)] for y in range(n)},
    })


COLD_RUN = """
import sys
import numpy
with_numpy = "_hashlib" in sys.modules  # OpenSSL comes with numpy.random, which some numpy versions import
from stepskew.cli import main
assert "scipy" not in sys.modules, "import"
for args in (["check"], ["skew"], ["simulate", "--horizons", "10,100", "--trials", "8"]):
    for path in sys.argv[1:]:
        assert main([args[0], path, *args[1:]]) == 0, (args, path)
        assert "scipy" not in sys.modules, (args, path)
        assert with_numpy or args[0] == "simulate" or "_hashlib" not in sys.modules, (args, path)
"""


def test_commands_do_not_load_scipy(tmp_path, monkeypatch):
    from stepskew import graphs

    texts = {"strict_8x64": _strict_config(8, 64), "strict_64x8": _strict_config(64, 8)}
    sizes = []
    components = graphs._components
    monkeypatch.setattr(graphs, "_components", lambda n, *e: sizes.append(n) or components(n, *e))
    cfg = parse_config(texts["strict_64x8"])
    cmd_skew(cfg)
    assert sk.is_strictly_irreducible(cfg.spec)
    assert max(sizes) == graphs.SMALL_SCC_MAX_NODES  # its kernel is the largest small graph
    paths = []
    for name, text in texts.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(text)
    for name in GALLERY_NAMES:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(render_config(gallery_config(name)))
    run = fresh_python(COLD_RUN, *map(str, paths))
    assert run.returncode == 0, run.stderr


def test_skew_on_a_large_quotient_does_not_load_scipy(tmp_path):
    # A periodic driving chain makes each of the 8 states its own sim block,
    # so the quotient has 8 x 200 nodes, far above the SCC split; its
    # classes are connected components, which need no SCC route.
    rng = np.random.default_rng(200)
    points = [f"x{i}" for i in range(200)]
    path = tmp_path / "periodic_8x200.json"
    path.write_text(json.dumps({
        "states": [str(y) for y in range(8)],
        "kernel": np.roll(np.eye(8), 1, axis=1).tolist(),
        "stationary": [1 / 8] * 8,
        "space": {"points": points, "mu": [1 / 200] * 200},
        "family": {str(y): [points[i] for i in rng.permutation(200)] for y in range(8)},
    }))
    assert parse_config(path.read_text()).spec.sim.n_blocks == 8
    run = fresh_python(COLD_RUN, str(path))
    assert run.returncode == 0, run.stderr
