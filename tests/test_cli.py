"""CLI: validation, artifacts, determinism, exit codes, SVG structure."""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr as scipy_ndtr

from summand_lab import row_statistics
from summand_lab.arrays import generator_from_json
from summand_lab.cf import eval_cf
from summand_lab.cli import REQUIRED, TASKS, _parse_sim_limit, main
from summand_lab.montecarlo import ecf_distance, ks_distance
from summand_lab.svgplot import PlotError, line_plot_svg

RADEMACHER_ARRAY = {
    "generator": "standardized_iid",
    "base": {"kind": "finite_discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
}


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=2))
    return str(p)


def test_psi_sweep_matches_parabola(tmp_path):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "task": "psi-sweep",
            "measure": {"kind": "dirac_zero", "mass": 1.0},
            "u_grid": {"start": -5.0, "stop": 5.0, "step": 0.1},
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
    rows = (out / "tables" / "psi_sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 101
    for line in rows:
        u, re, im = (float(v) for v in line.split(","))
        assert abs(re - (-0.5 * u * u)) <= 1e-12
        assert im == 0.0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["task"] == "psi-sweep"
    # Psi''(0) = -mass, reported on every sweep
    assert report["results"]["curvature"] == {"second_difference": -1.0, "target": -1.0}


def test_verdict_gaussian_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        "vg.json",
        {
            "task": "verdict-gaussian",
            "array": RADEMACHER_ARRAY,
            "n_list": [100, 1000, 10000],
            "eps_list": [0.05, 0.1, 0.5],
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["results"]["verdict"]["reasons"] == []
    assert (out / "tables" / "lindeberg_gaussian.csv").exists()
    assert (out / "plots" / "lindeberg_gaussian.svg").exists()


def test_verdict_failure_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        "vp.json",
        {
            "task": "verdict-poisson",
            "array": RADEMACHER_ARRAY,
            "n_list": [100, 1000],
            "eps_list": [0.5],
            "target": {"b": -1.0, "lambda": 1.0},
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["reasons"]


def test_verdict_general_fails_rows_that_are_not_infinitesimal(tmp_path):
    # four fair coin flips of +-0.5 at every n: S_n never converges, yet K_n
    # equals the limit's at each grid point, so only max-variance (B_n = 0.25) fails
    coins = [{"kind": "finite_discrete", "atoms": [[-0.5, 0.5], [0.5, 0.5]]}] * 4
    cfg = write_config(tmp_path, "vgen.json", {
        "task": "verdict-general",
        "array": {"generator": "explicit",
                  "rows": [{"n": n, "components": coins} for n in (10, 20, 40)]},
        "n_list": [10, 20, 40],
        "limit": {"kind": "dirac_zero", "mass": 1},
        "grid": [-2, -1, 1, 2],
        "shift_target": 0,
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["reasons"] == ["max-variance"]
    check = report["results"]["verdict"]["checks"][0]
    assert (check["code"], check["values"]) == ("max-variance", [0.25, 0.25, 0.25])


def test_missing_field_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {"task": "verdict-gaussian", "array": RADEMACHER_ARRAY, "n_list": [10, 100]},
    )
    assert main(["--config", cfg, "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "/eps_list" in err
    assert not (tmp_path / "out").exists()


def test_unknown_task_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"task": "warp-drive"})
    assert main(["--config", cfg, "--out-dir", str(tmp_path / "out")]) == 3
    assert "/task" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["quadrature", "atom_merge"])
def test_retired_tolerances_exit_3(tmp_path, capsys, field):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "task": "psi-sweep",
            "measure": {"kind": "dirac_zero", "mass": 1.0},
            "u_grid": [1.0],
            "tolerances": {field: 1e-6},
        },
    )
    assert main(["--config", cfg, "--out-dir", str(tmp_path / "out")]) == 3
    assert "/tolerances" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["tol", "tolerence", "c_target"])
def test_unknown_top_level_field_exits_3(tmp_path, capsys, field):
    # a retired knob, a misspelling, and an optional field of another task
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "task": "psi-sweep",
            "measure": {"kind": "dirac_zero", "mass": 1.0},
            "u_grid": [1.0],
            field: 1e-6,
        },
    )
    assert main(["--config", cfg, "--out-dir", str(tmp_path / "out")]) == 3
    assert f"/{field}: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_syntax_error_reports_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"task": "psi-sweep",\n  "measure": }')
    assert main(["--config", str(p), "--out-dir", str(tmp_path / "out")]) == 3
    assert "line 2" in capsys.readouterr().err


def test_partial_outputs_removed_on_error(tmp_path, capsys):
    # grid point 1.0 sits on the limit discontinuity: the task dies after
    # out-dir creation and must leave nothing behind
    cfg = write_config(
        tmp_path,
        "vgen.json",
        {
            "task": "verdict-general",
            "array": {"generator": "bernoulli_poisson", "lambda": 1.0},
            "n_list": [10, 100],
            "limit": {"kind": "scaled_dirac_one", "lambda": 1.0},
            "grid": [0.5, 1.0],
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out-dir", str(out)]) == 3
    assert "discontinuity" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_report_value_exits_3(tmp_path, capsys, literal):
    # Python's JSON reader accepts these literals, which are not JSON, as
    # non-finite floats; report.json copies the config's text, so the field's
    # parser refuses the config before any work
    p = tmp_path / "hyp.json"
    p.write_text(
        '{"task": "hypotheses", "array": %s, "n_list": [10, 100], "eps_list": [0.5], '
        '"c_target": %s}' % (json.dumps(RADEMACHER_ARRAY), literal)
    )
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out-dir", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "config error: /c_target: not a finite double" in err
    assert not out.exists() or not any(out.iterdir())


def test_non_finite_config_value_is_named_by_its_pointer(tmp_path, capsys):
    array = {"generator": "explicit",
             "rows": [{"n": 1, "components": [{"kind": "gaussian", "mean": 0.0, "var": 1.0}]},
                      {"n": 2, "components": [{"kind": "gaussian", "mean": 0.0, "var": 0.5},
                                              {"kind": "gaussian", "mean": 0.0, "var": 0.5}]}]}
    text = json.dumps({"task": "hypotheses", "array": array, "n_list": [1, 2], "eps_list": [0.5]})
    p = tmp_path / "hyp.json"
    p.write_text(text.replace('"var": 0.5}]', '"var": -Infinity}]'))
    assert main(["--config", str(p), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 3
    assert "config error: /array/rows/1/components/1/var: " in capsys.readouterr().err


def _hypotheses(**fields):
    return dict({"task": "hypotheses", "array": RADEMACHER_ARRAY, "n_list": [10, 100],
                 "eps_list": [0.5]}, **fields)


def _sweep(measure):
    return {"task": "psi-sweep", "measure": measure, "u_grid": [0.5, 1.0]}


def _simulate(limit, **fields):
    return dict({"task": "simulate", "array": RADEMACHER_ARRAY, "n_list": [10],
                 "samples_per_n": 100, "seed": 1, "u_grid": [0.5], "limit": limit}, **fields)


def _verdict(task, **fields):
    cfg = {"task": task, "array": RADEMACHER_ARRAY, "n_list": [10, 100], "eps_list": [0.5]}
    if task == "verdict-poisson":
        cfg["target"] = {"b": 0.0, "lambda": 1.0}
    elif task == "verdict-general":
        cfg |= {"limit": {"kind": "dirac_zero"}, "grid": [0.5]}
    return cfg | fields


def _approx(**fields):
    return {"task": "poisson-approx", "measure": {"kind": "scaled_dirac_one"}, "window": 1.5,
            "mesh_cells": [4], "u_grid": [0.5]} | fields


def _power(p):
    return {"kind": "cf", "spec": {"family": "power", "params": {
        "base": {"family": "gaussian", "params": {"m": 0.0, "var": 1.0}}, "p": p}}}


_SHORT_ATOM = {"atoms": [[1.0]]}
_TWIN_ROWS = {"generator": "explicit", "rows": [
    {"n": 10, "components": [{"kind": "gaussian", "mean": 0.0, "var": 1.0}]},
    {"n": 10, "components": [{"kind": "gaussian", "mean": 0.0, "var": 0.5}]},
]}


def _atoms(*atoms):
    """A hypotheses config over a standardized finite_discrete base."""
    base = {"kind": "finite_discrete", "atoms": list(atoms)}
    return _hypotheses(array={"generator": "standardized_iid", "base": base})


def _row_components(components):
    return _hypotheses(array={"generator": "explicit",
                              "rows": [{"n": 10, "components": components}]}, n_list=[10])


# a number literal too large for a double, in place of "c_target": 1.0
_HUGE = json.dumps(_hypotheses(c_target=1.0))
REFUSED = {
    "short-atom": (_sweep({"kind": "explicit", "measure": _SHORT_ATOM}),
                   "/measure/measure/atoms/0: expected [site, mass]"),
    "short-atom-in-a-cf-limit": (
        _simulate({"kind": "cf", "spec": {"family": "kolmogorov",
                                          "params": {"shift": 0.0, "measure": _SHORT_ATOM}}}),
        "/limit/spec/params/measure/atoms/0: expected [site, mass]"),
    "piece-without-dist": (_sweep({"kind": "explicit", "measure": {"pieces": [{"weight": 1.0}]}}),
                           "/measure/measure/pieces/0: "),
    "exponent-overflow": (_HUGE.replace('"c_target": 1.0', '"c_target": 1e999'), "/c_target: "),
    "long-float-literal": (_HUGE.replace('"c_target": 1.0', '"c_target": ' + "9" * 400 + ".0"),
                           "/c_target: "),
    "long-integer": (_HUGE.replace('"c_target": 1.0', '"c_target": ' + "9" * 401), "/c_target: "),
    # faults are refused in parse order: the seed before the literal after it
    "nan-after-a-long-integer": (
        _HUGE.replace('"c_target": 1.0', '"seed": ' + "9" * 401 + ', "c_target": NaN'),
        "/seed: not a finite double"),
    "string-atom": (_atoms(["-1", "0.5"], [True, 0.5]),
                    "/array/base/atoms/0/0: expected a number, got '-1'"),
    "string-atom-prob": (_atoms([-1.0, "0.5"], [1.0, 0.5]),
                         "/array/base/atoms/0/1: expected a number, got '0.5'"),
    "boolean-atom": (_atoms([-1.0, 0.5], [True, 0.5]),
                     "/array/base/atoms/1/0: expected a number, got True"),
    "three-entry-atom": (_atoms([-1.0, 0.5, 7.0], [1.0, 0.5]),
                         "/array/base/atoms/0: expected [site, prob]"),
    "object-atom": (_atoms({"site": -1.0, "prob": 0.5}, [1.0, 0.5]),
                    "/array/base/atoms/0: expected [site, prob]"),
    "atom-overflow": (json.dumps(_atoms([-1.0, 0.5], [1.0, 0.5])).replace("[1.0, 0.5]", "[1e999, 0.5]"),
                      "/array/base/atoms/1/0: not a finite double"),
    "empty-components": (_row_components([]), "/array/rows/0/components: expected a nonempty list"),
    "object-components": (_row_components({"kind": "gaussian", "mean": 0.0, "var": 1.0}),
                          "/array/rows/0/components: expected a nonempty list"),
    "fractional-n": (_hypotheses(n_list=[10.9, 100]), "/n_list/0: expected an integer"),
    "boolean-n": (_hypotheses(n_list=[True, 100]), "/n_list/0: expected an integer"),
    "string-eps": (_hypotheses(eps_list=["0.5"]), "/eps_list/0: expected a number"),
    "string-grid": ({"task": "verdict-general", "array": RADEMACHER_ARRAY, "n_list": [10, 100],
                     "limit": {"kind": "dirac_zero"}, "grid": [0.5, "1.5"]},
                    "/grid/1: expected a number"),
    "string-u": (_sweep({"kind": "dirac_zero"}) | {"u_grid": [0.5, "1"]}, "/u_grid/1: "),
    "fractional-seed": (_hypotheses(seed=1.5), "/seed: expected an integer"),
    "fractional-samples": (_simulate({"kind": "std_gaussian"}, samples_per_n=100.5),
                           "/samples_per_n: expected an integer"),
    "repeated-row": (_hypotheses(array=_TWIN_ROWS, n_list=[10]),
                     "/array/rows/1/n: row n=10 repeats an earlier row"),
    "zero-mass": (_sweep({"kind": "dirac_zero", "mass": 0}), "/measure/mass: must be positive"),
    "negative-mass": (_sweep({"kind": "dirac_zero", "mass": -1}), "/measure/mass: must be positive"),
    "string-mass": (_sweep({"kind": "dirac_zero", "mass": "x"}), "/measure/mass: expected a number"),
    "zero-lambda": (_sweep({"kind": "scaled_dirac_one", "lambda": 0}),
                    "/measure/lambda: must be positive"),
    "zero-limit-mass": ({"task": "verdict-general", "array": RADEMACHER_ARRAY, "n_list": [10, 100],
                         "limit": {"kind": "dirac_zero", "mass": 0}, "grid": [0.5]},
                        "/limit/mass: must be positive"),
    "string-centered": (
        _sweep({"kind": "from_array", "n": 16, "centered": "no"}) | {"array": RADEMACHER_ARRAY},
        "/measure/centered: expected a boolean, got 'no'"),
    "string-plots": (_hypotheses(plots="no"), "/plots: expected a boolean, got 'no'"),
    "string-dump-samples": (_simulate({"kind": "std_gaussian"}, dump_samples="no"),
                            "/dump_samples: expected a boolean, got 'no'"),
    "string-tolerance": (_sweep({"kind": "dirac_zero"}) | {"tolerances": {"exact_stat": "0.1"}},
                         "/tolerances/exact_stat: expected a number, got '0.1'"),
    "boolean-c-target": (_hypotheses(c_target=True), "/c_target: expected a number, got True"),
    "string-window": ({"task": "poisson-approx", "measure": {"kind": "scaled_dirac_one"},
                       "window": "1.5", "mesh_cells": [4], "u_grid": [0.5]},
                      "/window: expected a number, got '1.5'"),
    "string-target": ({"task": "verdict-poisson", "array": RADEMACHER_ARRAY, "n_list": [10],
                       "eps_list": [0.5], "target": {"b": "0", "lambda": 1.0}},
                      "/target/b: expected a number, got '0'"),
    "string-shift-target": ({"task": "verdict-general", "array": RADEMACHER_ARRAY, "n_list": [10],
                             "limit": {"kind": "dirac_zero"}, "grid": [0.5], "shift_target": "0"},
                            "/shift_target: expected a number, got '0'"),
    "string-ks-threshold": (_simulate({"kind": "std_gaussian"}, ks_threshold="0.1"),
                            "/ks_threshold: expected a number, got '0.1'"),
    "string-ecf-threshold": (_simulate({"kind": "std_gaussian"}, ecf_threshold="0.1"),
                             "/ecf_threshold: expected a number, got '0.1'"),
    "string-poisson-limit": (_simulate({"kind": "translated_poisson", "b": 0.0, "lambda": "1"}),
                             "/limit/lambda: expected a number, got '1'"),
    "fractional-power": (_simulate(_power(2.7)), "/limit/spec/params/p: expected an integer, got 2.7"),
    "zero-power": (_simulate(_power(0)), "/limit/spec/params/p: expected an integer >= 1, got 0"),
    "string-cf-param": (
        _simulate({"kind": "cf", "spec": {"family": "gaussian", "params": {"m": 0.0, "var": "1"}}}),
        "/limit/spec/params/var: expected a number, got '1'"),
    # every object under /array names its fields; a field it does not read is refused
    "unknown-component-field": (
        _row_components([{"kind": "gaussian", "mean": 0.0, "var": 1.0},
                         {"kind": "gaussian", "mean": 0.0, "var": 1.0, "note": 1}]),
        "/array/rows/0/components/1/note: unknown field"),
    "unknown-component-field-overflow": (
        json.dumps(_row_components([{"kind": "uniform", "lo": -1.0, "hi": 1.0, "note": 1.0}]))
        .replace('"note": 1.0', '"note": 1e999'),
        "/array/rows/0/components/0/note: unknown field"),
    "unknown-atoms-field": (_row_components([{"kind": "finite_discrete", "atoms": [[0.0, 1.0]],
                                               "weights": [1.0]}]),
                            "/array/rows/0/components/0/weights: unknown field"),
    "unknown-base-field": (_hypotheses(array={"generator": "standardized_iid",
                                              "base": {"kind": "gaussian", "mean": 0.0, "var": 1.0,
                                                       "a/b~": 0}}),
                           "/array/base/a~1b~0: unknown field"),
    "unknown-row-field": (_hypotheses(array={"generator": "explicit", "rows": [
        {"n": 10, "components": [{"kind": "gaussian", "mean": 0.0, "var": 1.0}], "count": 2}]},
        n_list=[10]), "/array/rows/0/count: unknown field"),
    "unknown-iid-field": (_hypotheses(array=dict(RADEMACHER_ARRAY, n=3)), "/array/n: unknown field"),
    "unknown-bernoulli-field": (
        _hypotheses(array={"generator": "bernoulli_poisson", "lambda": 1.0, "p": 0.5}),
        "/array/p: unknown field"),
    "unknown-explicit-field": (_hypotheses(array=dict(_TWIN_ROWS, scale=1.0)),
                               "/array/scale: unknown field"),
    "unknown-piece-dist-field": (
        _sweep({"kind": "explicit", "measure": {"pieces": [
            {"weight": 1.0, "dist": {"kind": "uniform", "lo": -1.0, "hi": 1.0, "n": 2}}]}}),
        "/measure/measure/pieces/0/dist/n: unknown field"),
    # /array is read only for a from_array measure
    "array-beside-explicit-measure": (_sweep({"kind": "dirac_zero"}) | {"array": RADEMACHER_ARRAY},
                                      "/array: read only when /measure/kind is 'from_array'"),
    "malformed-array-beside-one-atom-measure": (
        {"task": "poisson-approx", "measure": {"kind": "scaled_dirac_one"}, "window": 1.5,
         "mesh_cells": [4], "u_grid": [0.5], "array": {"generator": "warp"}},
        "/array: read only when /measure/kind is 'from_array'"),
    # every other object names its fields too
    "unknown-piece-field": (
        _sweep({"kind": "explicit", "measure": {"pieces": [
            {"weight": 1.0, "wieght": 1.0, "dist": {"kind": "uniform", "lo": -1.0, "hi": 1.0}}]}}),
        "/measure/measure/pieces/0/wieght: unknown field"),
    "unknown-measure-field": (
        _sweep({"kind": "explicit", "measure": {"atoms": [[1.0, 1.0]], "peices": []}}),
        "/measure/measure/peices: unknown field"),
    "unknown-measure-kind-field": (
        _sweep({"kind": "explicit", "measure": {"atoms": [[1.0, 1.0]]}, "bogus": 1}),
        "/measure/bogus: unknown field"),
    "unknown-from-array-field": (
        _sweep({"kind": "from_array", "n": 16, "centred": False}) | {"array": RADEMACHER_ARRAY},
        "/measure/centred: unknown field"),
    "unknown-limit-field": ({"task": "verdict-general", "array": RADEMACHER_ARRAY, "n_list": [10],
                             "limit": {"kind": "dirac_zero", "mass": 1.0, "lambda": 1.0},
                             "grid": [0.5]},
                            "/limit/lambda: unknown field"),
    "unknown-sim-limit-field": (_simulate({"kind": "std_gaussian", "var": 2.0}),
                                "/limit/var: unknown field"),
    "unknown-poisson-limit-field": (
        _simulate({"kind": "translated_poisson", "b": 0.0, "lamda": 2.0}),
        "/limit/lamda: unknown field"),
    "unknown-cf-param": (
        _simulate({"kind": "cf", "spec": {"family": "gaussian",
                                          "params": {"m": 0.0, "var": 1.0, "sigma": 1.0}}}),
        "/limit/spec/params/sigma: unknown field"),
    "unknown-cf-field": (
        _simulate({"kind": "cf", "spec": {"family": "gaussian", "params": {"m": 0.0, "var": 1.0},
                                          "extra": 1}}),
        "/limit/spec/extra: unknown field"),
    "unknown-cf-term-field": (
        _simulate({"kind": "cf", "spec": {"family": "poisson_type_product", "params": {
            "terms": [{"drift": 0.0, "intensity": 1.0, "site": 1.0, "shfit": 0.0}]}}}),
        "/limit/spec/params/terms/0/shfit: unknown field"),
    "unknown-target-field": ({"task": "verdict-poisson", "array": RADEMACHER_ARRAY, "n_list": [10],
                              "eps_list": [0.5], "target": {"b": 0.0, "lambda": 1.0, "lamda": 1.0}},
                             "/target/lamda: unknown field"),
    "unknown-u-grid-field": (
        _sweep({"kind": "dirac_zero"}) | {"u_grid": {"start": 0.0, "stop": 1.0, "step": 0.5,
                                                      "num": 3}},
        "/u_grid/num: unknown field"),
    "unknown-tolerance": (_sweep({"kind": "dirac_zero"}) | {"tolerances": {"exact": 0.1}},
                          "/tolerances/exact: unknown field"),
    # a component whose moments do not fit in a double
    "uniform-moment-overflow": (
        _hypotheses(array={"generator": "standardized_iid",
                           "base": {"kind": "uniform", "lo": -1e200, "hi": 1e200}}),
        "/array/base/lo: |-1e+200| exceeds"),
    "discrete-moment-overflow": (
        _row_components([{"kind": "finite_discrete", "atoms": [[-1e200, 0.5], [1e200, 0.5]]}]),
        "/array/rows/0/components/0/atoms/0/0: |-1e+200| exceeds"),
    "gaussian-moment-overflow": (
        _row_components([{"kind": "gaussian", "mean": 0.0, "var": 1.0},
                         {"kind": "gaussian", "mean": 1e200, "var": 1.0}]),
        "/array/rows/0/components/1/mean: |1e+200| exceeds"),
    "string-cf-term": (
        _simulate({"kind": "cf", "spec": {"family": "poisson_type_product", "params": {
            "terms": [{"drift": 0.0, "intensity": True, "site": 1.0}]}}}),
        "/limit/spec/params/terms/0/intensity: expected a number, got True"),
    # an n_list entry that names no row is refused before any row is built
    "n-list-without-explicit-row": (
        _simulate({"kind": "std_gaussian"}, n_list=[3, 2], array={"generator": "explicit", "rows": [
            {"n": 2, "components": [{"kind": "gaussian", "mean": 0.0, "var": 0.5}]}]}),
        "/n_list/0: no explicit row for n=3; available: [2]"),
    "n-list-below-one": (_hypotheses(n_list=[0, 10]), "/n_list/0: row index must be >= 1"),
    "n-list-past-bernoulli-lambda": (
        {"task": "verdict-poisson", "array": {"generator": "bernoulli_poisson", "lambda": 4.0},
         "n_list": [2, 10], "eps_list": [0.5], "target": {"b": 0.0, "lambda": 4.0}},
        "/n_list/0: row 2 would need success probability 2.0 > 1"),
    # every value rule names the entry or field at fault, before any output
    "decreasing-n-list": (_hypotheses(n_list=[100, 10]), "/n_list/1: n_list must be strictly"),
    "decreasing-simulate-n-list": (_simulate({"kind": "std_gaussian"}, n_list=[100, 10]),
                                   "/n_list/1: n_list must be strictly"),
    "empty-n-list": (_hypotheses(n_list=[]), "/n_list: expected a nonempty list"),
    "negative-eps": (_verdict("verdict-gaussian", eps_list=[-0.5]), "/eps_list/0: must be positive"),
    "empty-eps-list": (_verdict("verdict-gaussian", eps_list=[]), "/eps_list: expected a nonempty"),
    "empty-grid": (_verdict("verdict-general", grid=[]), "/grid: expected a nonempty list"),
    "grid-point-on-a-limit-atom": (_verdict("verdict-general", grid=[0.5, 0.0]),
                                   "/grid/1: grid point 0.0 is a discontinuity point"),
    "negative-target-lambda": (_verdict("verdict-poisson", target={"b": 0.0, "lambda": -1}),
                               "/target/lambda: must be positive, got -1.0"),
    "zero-samples": (_simulate({"kind": "std_gaussian"}, samples_per_n=0),
                     "/samples_per_n: must be >= 1, got 0"),
    "negative-poisson-limit-lambda": (
        _simulate({"kind": "translated_poisson", "b": 0.0, "lambda": -1}),
        "/limit/lambda: must be positive, got -1.0"),
    "measure-n-without-explicit-row": (
        _sweep({"kind": "from_array", "n": 3}) | {"array": {"generator": "explicit", "rows": [
            {"n": 2, "components": [{"kind": "gaussian", "mean": 0.0, "var": 0.5}]}]}},
        "/measure/n: no explicit row for n=3; available: [2]"),
    "measure-n-below-one": (_sweep({"kind": "from_array", "n": 0}) | {"array": RADEMACHER_ARRAY},
                            "/measure/n: row index must be >= 1"),
    "negative-window": (_approx(window=-1), "/window: must be positive, got -1.0"),
    # 2 window overflows, and 1/4 of 2 window rounds to a breakpoint already taken
    "window-near-the-largest-double": (_approx(window=1e308),
                                       "/mesh_cells/0: mesh breakpoints must be strictly increasing"),
    "subnormal-window": (_approx(window=5e-324),
                         "/mesh_cells/0: mesh breakpoints must be strictly increasing"),
    "one-cell-mesh": (_approx(mesh_cells=[4, 1]), "/mesh_cells/1: must be >= 2, got 1"),
    "approx-measure-with-mass-at-zero": (_approx(measure={"kind": "dirac_zero"}),
                                         "/measure: measure has positive mass exactly at 0"),
    "integer-out-dir": (_sweep({"kind": "dirac_zero"}) | {"out_dir": 5},
                        "/out_dir: expected a string, got 5"),
    "u-grid-span-overflow": (
        _sweep({"kind": "dirac_zero"}) | {"u_grid": {"start": -1e308, "stop": 1e308,
                                                      "step": 1e-300}},
        "/u_grid: (stop - start) / step is inf"),
    "u-grid-past-its-point-bound": (
        _sweep({"kind": "dirac_zero"}) | {"u_grid": {"start": 0, "stop": 1e300, "step": 1}},
        "/u_grid: (stop - start) / step is 1e+300; a grid holds at most 1000000 points"),
    "u-grid-last-point-overflow": (
        _sweep({"kind": "dirac_zero"}) | {"u_grid": {"start": 1e308, "stop": 1.7e308,
                                                      "step": 1.3e308}},
        "/u_grid: the last point, start + 1 step, overflows"),
    "list-task": ({"task": ["psi-sweep"]}, "/task: unknown task"),
    # an integer past the largest double, where a float would overflow
    "long-integer-n": (_HUGE.replace('"n_list": [10, 100]', '"n_list": [10, 1' + "0" * 400 + "]"),
                       "/n_list/1: not a finite double"),
    "long-integer-measure-n": (json.dumps(_sweep({"kind": "from_array", "n": 1}) | {
        "array": RADEMACHER_ARRAY}).replace('"n": 1', '"n": 1' + "0" * 400),
        "/measure/n: not a finite double"),
    "long-integer-mesh-cells": (json.dumps(_approx()).replace('"mesh_cells": [4]',
                                                              '"mesh_cells": [4' + "0" * 400 + "]"),
                                "/mesh_cells/0: not a finite double"),
    "long-integer-seed": (_HUGE.replace('"c_target": 1.0', '"seed": 1' + "0" * 400),
                          "/seed: not a finite double"),
    "long-integer-power": (json.dumps(_simulate(_power(2))).replace('"p": 2', '"p": 1' + "0" * 400),
                           "/limit/spec/params/p: not a finite double"),
    # a characteristic function's constructor names the params it refuses
    "negative-cf-variance": (
        _simulate({"kind": "cf", "spec": {"family": "gaussian", "params": {"m": 0.0, "var": -1}}}),
        "/limit/spec/params: variance must be >= 0, got -1.0"),
    "empty-product-in-a-power": (
        _simulate({"kind": "cf", "spec": {"family": "power", "params": {
            "base": {"family": "product", "params": {"factors": []}}, "p": 2}}}),
        "/limit/spec/params/base/params: product needs at least one factor"),
    "zero-site-cf-term": (
        _simulate({"kind": "cf", "spec": {"family": "poisson_type_product", "params": {
            "terms": [{"drift": 0.0, "intensity": 1.0, "site": 0}]}}}),
        "/limit/spec/params/terms/0: site must be nonzero"),
    # found by the config generators: each died with a traceback or wrote nan or inf
    "standardized-copy-past-the-scale-bound": (
        _hypotheses(array={"generator": "standardized_iid", "base": {
            "kind": "gaussian", "mean": 2.5e76, "var": 5e-324}}, n_list=[4]),
        "/n_list/0: row 4 scales a value of the base to"),
    "standardized-uniform-that-rounds-to-a-point": (
        _hypotheses(array={"generator": "standardized_iid", "base": {
            "kind": "uniform", "lo": 5.789604461865809e+76, "hi": 5.78960446186581e+76}}),
        "/n_list/1: Uniform needs lo < hi"),
    "limit-mass-overflow": (
        _verdict("verdict-general", limit={"kind": "explicit", "measure": {
            "atoms": [[1.0, 1e308], [2.0, 1e308]]}}),
        "/limit/measure: the total mass overflows a double"),
    "piece-mass-overflow": (
        _sweep({"kind": "explicit", "measure": {"pieces": [
            {"weight": 1e300, "dist": {"kind": "gaussian", "mean": 0.0, "var": 1e153}}]}}),
        "/measure/measure: the total mass overflows a double"),
    "non-centred-gaussian-verdict": (
        _verdict("verdict-gaussian", array={"generator": "bernoulli_poisson", "lambda": 0.5}),
        "/array: row n=10 component 0"),
    # refused before the 7.28 TiB of samples, and the 10^8-float mesh, are asked for
    "samples-past-the-bound": (_simulate({"kind": "std_gaussian"}, samples_per_n=10 ** 12),
                               "/samples_per_n: must be <= 10000000, got 1000000000000"),
    "mesh-cells-past-the-bound": (_approx(mesh_cells=[4, 10 ** 8]),
                                  "/mesh_cells/1: must be <= 999999, got 100000000"),
    "approx-tag-too-near-zero": (
        _approx(measure={"kind": "explicit", "measure": {"atoms": [[2.2250738585072014e-308,
                                                                   1e300]]}},
                window=1e-300, mesh_cells=[3]),
        "/mesh_cells/0: cell (-3.3333333333333334e-301, 3.3333333333333334e-301] tags at"),
}


def test_out_dir_that_is_no_string_exits_3_without_the_flag(tmp_path, capsys):
    # Path(5) raised a TypeError traceback once no --out-dir replaced it
    cfg = write_config(tmp_path, "bad.json", _sweep({"kind": "dirac_zero"}) | {"out_dir": 5})
    assert main(["--config", cfg, "--quiet"]) == 3
    assert "config error: /out_dir: expected a string, got 5" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_malformed_config_is_refused_with_its_pointer(tmp_path, capsys, case):
    cfg, pointer = REFUSED[case]
    p = tmp_path / "bad.json"
    p.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out-dir", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert f"config error: {pointer}" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


_MIXED_ROWS = {"generator": "explicit", "rows": [
    {"n": 2, "components": [{"kind": "gaussian", "mean": 0.0, "var": 0.5},
                            {"kind": "uniform", "lo": -0.5, "hi": 0.5}]},
    {"n": 3, "components": [{"kind": "finite_discrete", "atoms": [[-1.0, 0.5], [1, 0.5]]}]},
]}
_MEASURE = {"kind": "explicit", "measure": {
    "atoms": [[1.0, 0.5]], "pieces": [{"weight": 2.0, "dist": {"kind": "gaussian", "mean": 0.0,
                                                                "var": 1.0}}]}}
#: one config per task, each with every kind of numeric field the task reads
LEAF_CONFIGS = {
    "hypotheses": _hypotheses(array=_MIXED_ROWS, n_list=[2, 3], c_target=1,
                              tolerances={"exact_stat": 1e-3, "coarse_stat": 0.01}),
    "verdict-gaussian": _verdict("verdict-gaussian", array=_MIXED_ROWS, n_list=[2, 3]),
    "verdict-poisson": _verdict("verdict-poisson", eps_list=[0.5, 1.0]),
    "verdict-general": _verdict("verdict-general", limit=_MEASURE, shift_target=0.0,
                                grid=[0.5, -0.5]),
    "psi-sweep": _sweep(_MEASURE) | {"u_grid": {"start": 0.0, "stop": 1.0, "step": 0.5}},
    "poisson-approx": _approx(measure={"kind": "from_array", "n": 2}, array=_MIXED_ROWS,
                              mesh_cells=[4, 8], seed=3),
    "simulate": _simulate({"kind": "translated_poisson", "b": 0.0, "lambda": 1.0},
                          array=_MIXED_ROWS, n_list=[2, 3], ks_threshold=0.5,
                          ecf_threshold=0.5),
}


def _numeric_leaves(obj, pointer=""):
    """(JSON pointer, container, key) of every number in obj, in document order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, f"{pointer}/{key}")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield f"{pointer}/{key}", obj, key


@pytest.mark.parametrize("task", LEAF_CONFIGS)
def test_non_finite_literal_at_every_leaf_is_named_by_its_pointer(tmp_path, capsys, task):
    # json.dumps writes these floats as the literals NaN, Infinity and -Infinity
    doc = json.loads(json.dumps(LEAF_CONFIGS[task]))
    assert doc["task"] == task
    for i, literal in enumerate((math.nan, math.inf, -math.inf)):
        for j, (pointer, container, key) in enumerate(list(_numeric_leaves(doc))):
            number, container[key] = container[key], literal
            p, out = tmp_path / f"{i}-{j}.json", tmp_path / f"out-{i}-{j}"
            p.write_text(json.dumps(doc))
            container[key] = number
            assert main(["--config", str(p), "--out-dir", str(out), "--quiet"]) == 3, pointer
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {pointer}: "), err
            assert not out.exists() or not any(out.iterdir())


def _explicit_array(ns, seed):
    """Rows of distinct centered components, a third of each family, with
    variances summing to 1 per row."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        var = rng.uniform(0.5, 1.5, n)
        var /= var.sum()
        comps = []
        for i, v in enumerate(var):
            if i % 3 == 0:
                p = rng.uniform(0.2, 0.8)
                s = math.sqrt(v)
                atoms = [[-s * math.sqrt(p / (1.0 - p)), 1.0 - p], [s * math.sqrt((1.0 - p) / p), p]]
                comps.append({"kind": "finite_discrete", "atoms": atoms})
            elif i % 3 == 1:
                comps.append({"kind": "gaussian", "mean": 0.0, "var": float(v)})
            else:
                h = math.sqrt(3.0 * v)
                comps.append({"kind": "uniform", "lo": -h, "hi": h})
        rows.append({"n": n, "components": comps})
    return {"generator": "explicit", "rows": rows}


def documented_report(report: dict, config_text: str) -> str:
    """report.json as docs/SCHEMAS.md states it: the stdlib's indent=2
    encoding of the report, with the config file's text, stripped of the JSON
    whitespace around it, as the value of "config"."""
    text = json.dumps(dict(report, config=None), indent=2, allow_nan=False) + "\n"
    assert text.count('\n  "config": null,\n') == 1
    return text.replace('\n  "config": null,\n', '\n  "config": ' + config_text + ',\n')


def test_explicit_rows_report_is_stable(tmp_path):
    ns, eps_list = [60, 90, 150], [0.05, 0.1, 0.5]
    array = _explicit_array(ns, seed=3)
    configs = {
        "verdict": {"task": "verdict-gaussian", "array": array, "n_list": ns, "eps_list": eps_list},
        "simulate": {
            "task": "simulate", "array": array, "n_list": [60, 150], "samples_per_n": 2000,
            "seed": 5, "u_grid": {"start": -2.0, "stop": 2.0, "step": 0.5},
            "limit": {"kind": "std_gaussian"}, "dump_samples": True,
        },
    }
    reports = {}
    for name, cfg in configs.items():
        out = tmp_path / name
        path = write_config(tmp_path, f"{name}.json", cfg)
        code = main(["--config", path, "--out-dir", str(out), "--quiet"])
        text = (out / "report.json").read_text()
        reports[name] = json.loads(text)
        assert reports[name]["config"] == cfg
        # the stdlib's indent=2 encoding, byte for byte, around the config's own text
        assert text == documented_report(reports[name], Path(path).read_text().strip(" \t\n\r"))
        # the small eps fail the Lindeberg checks on rows this short
        assert code == (0 if reports[name]["passed"] else 2)

    verdict = reports["verdict"]["results"]["verdict"]
    hyp = verdict["hypothesis"]
    gen = generator_from_json(array)
    for i, n in enumerate(ns):
        row = gen.row(n)
        assert len(row.components) == n  # no two components are equal
        for eps in eps_list:
            st = row_statistics(row, eps)
            assert hyp["u_table"][repr(eps)][i] == st.u
            assert (hyp["mv"][i], hyp["b"][i], hyp["a"][i]) == (st.mv, st.b, st.a)
            assert (verdict["columns"]["mv"][i], verdict["columns"]["b"][i]) == (st.mv, st.b)
            m2 = max(d.second_moment() for d, _ in row.components)
            assert hyp["markov_bound"][repr(eps)][i] == m2 / (eps * eps)


def _escaped(text: str) -> str:
    """text with each non-ASCII character as the stdlib's \\u escape."""
    return "".join(c if c.isascii() else json.dumps(c)[1:-1] for c in text)


@pytest.mark.parametrize("name", ["crlf", "non-ascii"])
def test_report_embeds_the_config_text(tmp_path, name):
    cfg = _hypotheses(c_target=1.0)
    if name == "crlf":
        text = "\r\n \t" + json.dumps(cfg, indent=4).replace("\n", "\r\n") + "\r\n"
        # read with universal newlines: the report's line breaks are "\n"
        expected = json.dumps(cfg, indent=4)
    else:
        cfg["out_dir"] = "r\u00e9sultats/\u20ac \U0001f600 \u00e9t\u00e9"
        text = json.dumps(cfg, indent=1, ensure_ascii=False) + "\n"
        expected = _escaped(text.strip())
        assert not text.isascii() and expected != text.strip()
    path = tmp_path / "cfg.json"
    path.write_bytes(text.encode("utf-8"))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out-dir", str(out), "--quiet"]) == 0
    raw = (out / "report.json").read_bytes()
    assert raw.isascii() and b"\r" not in raw
    report = json.loads(raw)
    assert report["config"] == cfg
    assert raw.decode() == documented_report(report, expected)


def test_config_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(_hypotheses(out_dir="x")).encode().replace(b'"x"', b'"\xff"'))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out-dir", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: ") and "utf-8" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_and_byte_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim.json",
        {
            "task": "simulate",
            "array": RADEMACHER_ARRAY,
            "n_list": [64, 256],
            "samples_per_n": 3000,
            "seed": 20260810,
            "u_grid": [-2.0, -1.0, 1.0, 2.0],
            "limit": {"kind": "std_gaussian"},
            "ks_threshold": 0.25,
        },
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", cfg, "--out-dir", str(out1), "--quiet"]) == 0
    assert main(["--config", cfg, "--out-dir", str(out2), "--quiet"]) == 0
    for rel in ("report.json", "tables/simulate.csv", "plots/simulate.svg"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def _csv_column(path, name):
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(name)
    return [line.split(",")[col] for line in lines[1:]]


@pytest.mark.parametrize("array, limit", [
    (_explicit_array([40], seed=4), {"kind": "std_gaussian"}),
    ({"generator": "bernoulli_poisson", "lambda": 1.0},
     {"kind": "translated_poisson", "b": 0.0, "lambda": 1.0}),
])
def test_simulate_distances_match_the_dumped_samples(tmp_path, array, limit):
    # more samples than one substream chunk, so the dump spans two streams
    cfg = {"task": "simulate", "array": array, "n_list": [40], "samples_per_n": 20000,
           "seed": 77, "u_grid": [-3.0, -0.7, 0.1, 1.3, 4.0], "limit": limit}
    plain, dumped = tmp_path / "plain", tmp_path / "dumped"
    for out, extra in ((plain, {}), (dumped, {"dump_samples": True})):
        path = write_config(tmp_path, f"{out.name}.json", cfg | extra)
        assert main(["--config", path, "--out-dir", str(out), "--quiet"]) == 0
    table = (plain / "tables" / "simulate.csv").read_bytes()
    assert table == (dumped / "tables" / "simulate.csv").read_bytes()

    samples = np.array([float(x) for x in _csv_column(dumped / "tables" / "samples_40.csv", "sample")])
    assert samples.size == 20000
    ks = float(_csv_column(plain / "tables" / "simulate.csv", "ks_distance")[0])
    ecf = float(_csv_column(plain / "tables" / "simulate.csv", "ecf_distance")[0])
    lim = _parse_sim_limit(limit, "/limit")
    assert abs(ks - ks_distance(samples, lim.cdf, lim.lattice)) <= 1e-12
    assert abs(ecf - ecf_distance(samples, lim.cf, cfg["u_grid"])) <= 1e-12
    # and against the definitions, computed here without the package
    direct = max(abs(np.mean(np.exp(1j * u * samples)) - complex(eval_cf(lim.cf, u)))
                 for u in cfg["u_grid"])
    assert abs(ecf - direct) <= 1e-12
    if limit["kind"] == "std_gaussian":
        values, first = np.unique(np.sort(samples), return_index=True)
        at = np.append(first[1:], samples.size) / samples.size
        f = scipy_ndtr(values)
        direct = max(np.max(np.abs(at - f)), np.max(np.abs(first / samples.size - f)))
        assert abs(ks - direct) <= 1e-12


#: the largest site, bound or Gaussian mean the schema accepts (a var: its square)
_BOUND = 2.0 ** 255
_EDGES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                          1e-300, 1e76, -1e76, _BOUND, -_BOUND])
_NUMBERS = st.one_of(_EDGES, st.floats(-_BOUND, _BOUND))


@st.composite
def _sim_components(draw):
    kind = draw(st.sampled_from(["finite_discrete", "gaussian", "uniform"]))
    if kind == "finite_discrete":
        probs = draw(st.sampled_from([[1.0], [0.5, 0.5], [0.25, 0.25, 0.5]]))
        return {"kind": kind, "atoms": [[draw(_NUMBERS), p] for p in probs]}
    if kind == "gaussian":
        var = draw(st.sampled_from([5e-324, 1e-300, 0.25, 1.0, 1e300, _BOUND * _BOUND]))
        return {"kind": kind, "mean": draw(_NUMBERS), "var": var}
    # widths down to subnormal ones, each bound within the schema's limit
    lo = draw(_NUMBERS)
    hi = min(max(lo + draw(st.sampled_from([5e-324, 1e-310, 1.0, 1e76, _BOUND])),
                 math.nextafter(lo, math.inf)), _BOUND)
    if not lo < hi:
        lo = math.nextafter(hi, -math.inf)
    return {"kind": kind, "lo": lo, "hi": hi}


_SIM_LIMITS = st.one_of(
    st.just({"kind": "std_gaussian"}),
    # lambda stays off 1e8..1e78, where translated_poisson_cdf walks about
    # 75 sqrt(lambda) pmf terms (ROADMAP, Smaller fixes); 1e300 lies above every sum
    st.builds(lambda b, lam: {"kind": "translated_poisson", "b": b, "lambda": lam},
              _NUMBERS, st.sampled_from([5e-324, 0.5, 1.0, 700.0, 1e300])),
    st.builds(lambda m, v: {"kind": "cf", "spec": {"family": "gaussian", "params": {"m": m, "var": v}}},
              _NUMBERS, st.sampled_from([0.0, 1.0, 1e300])),
)


@st.composite
def simulate_configs(draw):
    """A simulate config the schema accepts: explicit rows that mix the three
    families with copies, numbers across the double range, one-point grids
    and a few samples."""
    ns = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True)))
    rows = []
    for n in ns:
        comps = []
        for c in draw(st.lists(_sim_components(), min_size=1, max_size=3)):
            comps += [c] * draw(st.sampled_from([1, 2, 5, 40]))
        rows.append({"n": n, "components": comps})
    u = st.one_of(_EDGES, st.floats(-1e300, 1e300))
    u_grid = draw(st.one_of(
        st.lists(u, min_size=1, max_size=3),
        st.builds(lambda x: {"start": x, "stop": x, "step": 1.0}, u),
        st.just({"start": -2.0, "stop": 2.0, "step": 0.5}),
    ))
    cfg = {"task": "simulate", "array": {"generator": "explicit", "rows": rows},
           "n_list": draw(st.lists(st.sampled_from(ns), min_size=1, unique=True).map(sorted)),
           "samples_per_n": draw(st.integers(1, 40)), "seed": draw(st.integers(0, 2**64)),
           "u_grid": u_grid, "limit": draw(_SIM_LIMITS),
           "dump_samples": draw(st.booleans()), "plots": draw(st.booleans())}
    if draw(st.booleans()):
        cfg["ks_threshold"] = 0.5
    return cfg


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def run_checked(cfg: dict, where: Path) -> tuple[int, str]:
    """Exit code and stderr of cli.main on cfg, after the checks every
    schema-valid config must pass: exit 0, 2 or 3 and no exception; on 3 a
    message naming a JSON pointer or the u it failed at, and an empty out
    dir; otherwise no nan or inf in any artifact."""
    where.mkdir(parents=True, exist_ok=True)
    path, out = where / "cfg.json", where / "out"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out-dir", str(out), "--quiet"])
    err = err.getvalue()
    assert code in (0, 2, 3), err
    if code == 3:
        assert re.search(r"(^|\s)/\S*: |at u = ", err), err
        assert not out.exists() or not any(out.iterdir())
    else:
        for f in out.rglob("*"):
            if f.is_file():
                assert not _NON_FINITE.search(f.read_text()), f.name
    return code, err


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(simulate_configs())
def test_generated_simulate_configs_run_or_exit_3(cfg):
    with tempfile.TemporaryDirectory() as where:
        run_checked(cfg, Path(where))


#: eps across the double range: subnormal, zero, tiny, huge and negative
_EPS = st.sampled_from([5e-324, 1e-310, 1e-200, 1e-160, 0.0, -0.5, 0.05, 0.5, 1.0, 1e76, 1e300])
#: positive scales across the double range
_SCALES = st.one_of(st.sampled_from([5e-324, 1e-310, 1e-300, 0.5, 1.0, 1.5, 1e76, 1e300, 1e308,
                                     _BOUND]),
                    st.floats(5e-324, 1.7e308))


@st.composite
def _arrays(draw):
    """An array of each generator over small n, and the n it has rows for."""
    kind = draw(st.sampled_from(["standardized_iid", "bernoulli_poisson", "explicit"]))
    if kind == "standardized_iid":
        return {"generator": kind, "base": draw(_sim_components())}, range(1, 7)
    if kind == "bernoulli_poisson":
        lam = draw(st.sampled_from([5e-324, 0.5, 1.0, 3.0, 1e300]))
        return {"generator": kind, "lambda": lam}, range(1, 7)
    ns = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True)))
    rows = []
    for n in ns:
        comps = []
        for c in draw(st.lists(_sim_components(), min_size=1, max_size=2)):
            comps += [c] * draw(st.sampled_from([1, 2, 40]))
        rows.append({"n": n, "components": comps})
    return {"generator": kind, "rows": rows}, ns


@st.composite
def _rows_fields(draw):
    """/array and an /n_list that mostly names its rows in order: sometimes
    an entry names no row, sometimes the entries do not increase."""
    array, ns = draw(_arrays())
    n_list = sorted(draw(st.lists(st.sampled_from(list(ns)), min_size=1, max_size=3, unique=True)))
    if draw(st.integers(0, 9)) == 0:
        n_list.append(draw(st.sampled_from([0, 7, n_list[0]])))
    return {"array": array, "n_list": n_list}


def _grids(numbers):
    """Nonempty lists of numbers, with one-point and repeated-point lists."""
    return st.one_of(st.lists(numbers, min_size=1, max_size=3),
                     st.builds(lambda x, k: [x] * k, numbers, st.integers(1, 3)))


_U_GRIDS = st.one_of(_grids(st.one_of(_EDGES, st.floats(-1e300, 1e300))),
                     st.builds(lambda x: {"start": x, "stop": x, "step": 1.0}, _EDGES),
                     st.just({"start": -2.0, "stop": 2.0, "step": 0.5}))


@st.composite
def _limit_measures(draw):
    """Every limit-measure form: dirac_zero, scaled_dirac_one and explicit."""
    kind = draw(st.sampled_from(["dirac_zero", "scaled_dirac_one", "explicit"]))
    if kind != "explicit":
        field = "mass" if kind == "dirac_zero" else "lambda"
        return {"kind": kind, field: draw(st.sampled_from([5e-324, 1e-300, 0.5, 1.0, 1e300]))}
    atoms = draw(st.lists(st.tuples(_NUMBERS, st.sampled_from([0.0, 5e-324, 0.5, 1e300])),
                          max_size=3))
    pieces = [{"weight": w, "dist": c} for w, c in draw(st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, 1e300]), _sim_components()), max_size=2))
        if c["kind"] != "finite_discrete"]
    return {"kind": "explicit", "measure": {"atoms": [list(a) for a in atoms], "pieces": pieces}}


@st.composite
def _sweep_measures(draw):
    """/measure of psi-sweep and poisson-approx, any form, with /array beside
    a from_array one."""
    if draw(st.booleans()):
        return {"measure": draw(_limit_measures())}
    array, _ = draw(_arrays())
    return {"measure": {"kind": "from_array", "n": draw(st.integers(0, 7)),
                        "centered": draw(st.booleans())}, "array": array}


@st.composite
def task_configs(draw):
    """A config of hypotheses, a verdict, psi-sweep or poisson-approx that the
    schema accepts, or that breaks one value rule."""
    task = draw(st.sampled_from(["hypotheses", "verdict-gaussian", "verdict-poisson",
                                 "verdict-general", "psi-sweep", "poisson-approx"]))
    cfg = {"task": task, "plots": draw(st.booleans())}
    if task in ("psi-sweep", "poisson-approx"):
        cfg |= draw(_sweep_measures()) | {"u_grid": draw(_U_GRIDS)}
        if task == "poisson-approx":
            cfg["window"] = draw(_SCALES)
            cfg["mesh_cells"] = draw(st.lists(st.sampled_from([2, 3, 4, 48]), min_size=1,
                                              max_size=3))
        return cfg
    cfg |= draw(_rows_fields())
    if task != "verdict-general" or draw(st.booleans()):
        cfg["eps_list"] = draw(st.lists(_EPS, min_size=1, max_size=3, unique=True))
    if task == "hypotheses" and draw(st.booleans()):
        cfg["c_target"] = draw(_NUMBERS)
    if task == "verdict-poisson":
        cfg["target"] = {"b": draw(_NUMBERS), "lambda": draw(_SCALES)}
    if task == "verdict-general":
        cfg |= {"limit": draw(_limit_measures()), "grid": draw(_grids(_NUMBERS))}
        if draw(st.booleans()):
            cfg["shift_target"] = draw(_NUMBERS)
    return cfg


@settings(max_examples=900, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(task_configs())
def test_generated_task_configs_run_or_exit_3(cfg):
    with tempfile.TemporaryDirectory() as where:
        run_checked(cfg, Path(where))


@pytest.mark.parametrize("cfg", [
    # eps^2 underflows to 0, or eps^-2 E X^2 overflows: the Markov bound is capped
    pytest.param(_hypotheses(eps_list=[1e-200]), id="hypotheses-eps-squared-underflow"),
    pytest.param(_hypotheses(eps_list=[1e-160]), id="hypotheses-markov-bound-overflow"),
    pytest.param(_verdict("verdict-gaussian", eps_list=[1e-200]), id="verdict-eps-squared-underflow"),
    pytest.param(_verdict("verdict-gaussian", eps_list=[1e-160]), id="verdict-markov-bound-overflow"),
])
def test_tiny_eps_runs_with_finite_artifacts(tmp_path, cfg):
    code, _ = run_checked(cfg, tmp_path)
    assert code in (0, 2)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    hyp = report["results"]["hypothesis"] if cfg["task"] == "hypotheses" else \
        report["results"]["verdict"]["hypothesis"]
    assert hyp["markov_bound"][repr(cfg["eps_list"][0])] == [sys.float_info.max] * 2


def test_gaussian_piece_far_from_a_huge_mesh_breakpoint_runs(tmp_path):
    # the piece's partial third moment at -window read 0 * inf: the product
    # and its error came out nan, and the report writer exited 3
    cfg = _approx(measure={"kind": "explicit", "measure": {"pieces": [
        {"weight": 1.0, "dist": {"kind": "gaussian", "mean": 1.0, "var": 1e-300}}]}},
        window=1e8, mesh_cells=[2])
    assert run_checked(cfg, tmp_path)[0] == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["terms"] == 1


def test_schemas_table_lists_the_fields_of_each_task():
    """docs/SCHEMAS.md's "Required fields per task" table lists, task by
    task and in order, the required and the optional fields of cli.TASKS."""
    text = (Path(__file__).parents[1] / "docs" / "SCHEMAS.md").read_text()
    table = text.split("Required fields per task:\n\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines()[2:]:
        task, required, optional = (re.findall(r"`([^`]+)`", cell)
                                    for cell in line.strip().strip("|").split("|"))
        documented[task[0]] = (required, optional)
    assert documented == {
        task: ([f for f, spec in t.fields.items() if spec.default is REQUIRED],
               [f for f, spec in t.fields.items() if spec.default is not REQUIRED])
        for task, t in TASKS.items()
    }


def _one_row(components):
    return {"generator": "explicit", "rows": [{"n": 2, "components": components}]}


def test_translated_poisson_ks_reads_sums_past_2_to_the_63(tmp_path):
    # the CDF indexed its pmf in int64: past 2^63 the index wrapped and F read
    # 0 where it is 1, and against lambda = 1e300 it raised OverflowError
    coin = {"kind": "finite_discrete", "atoms": [[0.0, 0.5], [_BOUND, 0.5]]}
    cfg = {"task": "simulate", "array": _one_row([coin]), "n_list": [2], "samples_per_n": 40,
           "seed": 1, "u_grid": [0.5], "dump_samples": True}
    for lam, f0, f_big in ((1.0, math.exp(-1.0), 1.0), (1e300, 0.0, 0.0)):
        cfg["limit"] = {"kind": "translated_poisson", "b": 0.0, "lambda": lam}
        out = tmp_path / str(lam) / "out"
        assert run_checked(cfg, out.parent)[0] == 0
        samples = [float(x) for x in _csv_column(out / "tables" / "samples_2.csv", "sample")]
        p0 = samples.count(0.0) / len(samples)
        assert 0.0 < p0 < 1.0
        ks = float(_csv_column(out / "tables" / "simulate.csv", "ks_distance")[0])
        # the ECDF against F at 0, and at 2^255 and just below it
        assert abs(ks - max(abs(p0 - f0), abs(1.0 - f_big), abs(p0 - f_big))) <= 1e-12


@pytest.mark.parametrize("component, limit", [
    # u x overflows for the samples (x = 1e76) and for the limit's mean
    pytest.param({"kind": "finite_discrete", "atoms": [[1e76, 0.5], [0.5, 0.5]]},
                 {"kind": "std_gaussian"}, id="sample"),
    pytest.param({"kind": "uniform", "lo": 0.0, "hi": 1e-300},
                 {"kind": "cf", "spec": {"family": "gaussian", "params": {"m": -1e76, "var": 0.0}}},
                 id="limit"),
])
def test_ecf_that_is_not_finite_exits_3_naming_its_u(tmp_path, component, limit):
    # it exited 3 from the report writer, on the nan it had computed
    cfg = {"task": "simulate", "array": _one_row([component] * 2), "n_list": [2],
           "samples_per_n": 5, "seed": 1, "u_grid": [0.5, -1e300], "limit": limit}
    code, err = run_checked(cfg, tmp_path)
    assert code == 3
    assert "error: the ECF distance is not finite at u = -1e+300" in err


def test_seed_override_changes_results(tmp_path):
    base = {
        "task": "simulate",
        "array": RADEMACHER_ARRAY,
        "n_list": [64],
        "samples_per_n": 1000,
        "seed": 1,
        "u_grid": [1.0],
        "limit": {"kind": "std_gaussian"},
    }
    cfg = write_config(tmp_path, "sim.json", base)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", cfg, "--out-dir", str(out1), "--quiet"]) == 0
    assert main(["--config", cfg, "--out-dir", str(out2), "--seed-override", "2", "--quiet"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["results"]["rows"] != r2["results"]["rows"]


def test_poisson_approx_task(tmp_path):
    cfg = write_config(
        tmp_path,
        "pa.json",
        {
            "task": "poisson-approx",
            "measure": {"kind": "scaled_dirac_one", "lambda": 1.0},
            "window": 2.0,
            "mesh_cells": [4, 8],
            "u_grid": [-2.0, -1.0, 1.0, 2.0],
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
    prod = json.loads((out / "poisson_product.json").read_text())
    assert prod["family"] == "poisson_type_product"
    report = json.loads((out / "report.json").read_text())
    assert max(report["results"]["errors"].values()) <= 1e-12


def test_hypotheses_task(tmp_path):
    cfg = write_config(
        tmp_path,
        "hyp.json",
        {
            "task": "hypotheses",
            "array": RADEMACHER_ARRAY,
            "n_list": [10, 100, 1000],
            "eps_list": [0.1],
            "c_target": 1.0,
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    table = report["results"]["hypothesis"]["u_table"]["0.1"]
    assert table == [1.0, 1.0, 0.0]


def test_from_array_measure(tmp_path):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "task": "psi-sweep",
            "array": RADEMACHER_ARRAY,
            "measure": {"kind": "from_array", "n": 16, "centered": False},
            "u_grid": [-1.0, 0.0, 1.0],
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
    rows = (out / "tables" / "psi_sweep.csv").read_text().strip().splitlines()[1:]
    # atoms at +-0.25, mass 1: Re Psi(1) = (cos(0.25) - 1) * 16
    u, re, im = (float(v) for v in rows[2].split(","))
    assert re == pytest.approx((math.cos(0.25) - 1.0) * 16.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 4, 16, 64, 100])
def test_psi_sweep_uniform_from_array(tmp_path, n):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "task": "psi-sweep",
            "array": {"generator": "standardized_iid",
                      "base": {"kind": "uniform", "lo": -1.0, "hi": 1.0}},
            "measure": {"kind": "from_array", "n": n, "centered": True},
            "u_grid": {"start": -10.0, "stop": 10.0, "step": 0.5},
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
    rows = (out / "tables" / "psi_sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 41
    # row n is n copies of Uniform(-h, h), h = sqrt(3 / n): K_n has one piece
    # of weight n, and Psi(u) = n E[e^{iuY} - 1 - iuY]
    h = math.sqrt(3.0 / n)
    for line in rows:
        u, re, im = (float(v) for v in line.split(","))
        want_re = n * quad(lambda y: math.cos(u * y) - 1.0, -h, h, epsabs=1e-12, limit=200)[0] / (2 * h)
        want_im = n * quad(lambda y: math.sin(u * y) - u * y, -h, h, epsabs=1e-12, limit=200)[0] / (2 * h)
        assert abs(complex(re, im) - complex(want_re, want_im)) <= 1e-9


def _one_atom_sweep(u_grid, **fields):
    return dict({"task": "psi-sweep", "u_grid": u_grid,
                 "measure": {"kind": "explicit", "measure": {"atoms": [[0.5, 1.0]]}}}, **fields)


@pytest.mark.parametrize("cfg,u", [
    # Psi(1e200) of dirac_zero is -1e400 / 2, which no double holds
    ({"task": "psi-sweep", "measure": {"kind": "dirac_zero", "mass": 1.0}, "u_grid": [0, 1e200]},
     "1e+200"),
])
def test_non_finite_psi_is_refused_with_its_u(tmp_path, capsys, cfg, u):
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, "sweep.json", cfg), "--out-dir", str(out),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert f"error: Psi is not finite at u = {u}" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_psi_of_one_atom_stays_finite_at_a_huge_u(tmp_path):
    # (e^{iux} - 1 - iux) / x^2 at x = 0.5, u = 1e300 is about -2e300 i, while
    # u^2 overflows: the atom kernel divides by x last; its real part,
    # (cos ux - 1) / x^2, is 1e-300 of |Psi| and is kept all the same
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, "sweep.json",
                                          _one_atom_sweep([1e300], plots=False)),
                 "--out-dir", str(out), "--quiet"]) == 0
    (line,) = (out / "tables" / "psi_sweep.csv").read_text().splitlines()[1:]
    u, re, im = (float(v) for v in line.split(","))
    assert u == 1e300
    assert re == pytest.approx((math.cos(5e299) - 1.0) / 0.25, rel=1e-12)
    assert im == pytest.approx(-2e300, rel=1e-15)


def test_one_huge_u_gets_an_axis_span_that_does_not_round_away(tmp_path):
    # padding the single x value 1e17 by 1.0 each way rounds to a zero span
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, "sweep.json", _one_atom_sweep([1e17])),
                 "--out-dir", str(out), "--quiet"]) == 0
    svg = (out / "plots" / "psi_sweep.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "nan" not in svg and "inf" not in svg


def test_plots_off_renders_no_svg(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rendered an SVG with plots off")

    monkeypatch.setattr("summand_lab.cli.line_plot_svg", refuse)
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, "sweep.json",
                                          _one_atom_sweep([1e17], plots=False)),
                 "--out-dir", str(out), "--quiet"]) == 0
    assert json.loads((out / "report.json").read_text())["artifacts"]["plots"] == []
    assert not (out / "plots").exists()


# ---------------------------------------------------------------------------
# SVG structure
# ---------------------------------------------------------------------------


def test_svg_polyline_structure():
    svg = line_plot_svg(
        [(f"eps={e}", [2.0, 3.0, 4.0], [1.0, 0.5, 0.0]) for e in (0.05, 0.1, 0.5)],
        title="tails",
    )
    assert svg.count("<polyline") == 3
    first = svg.split("<polyline")[1]
    assert first.split('points="')[1].split('"')[0].count(",") == 3


def test_svg_two_series_sweep():
    svg = line_plot_svg([("Re", [0.0, 1.0], [0.0, -0.5]), ("Im", [0.0, 1.0], [0.0, 0.0])])
    assert svg.count("<polyline") == 2


def test_svg_empty_raises():
    with pytest.raises(PlotError, match="nothing to plot"):
        line_plot_svg([])


def test_svg_deterministic():
    series = [("a", [0.0, 1.0, 2.0], [0.1, 0.4, 0.9])]
    assert line_plot_svg(series, title="t") == line_plot_svg(series, title="t")
