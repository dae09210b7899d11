"""Config-driven front end: one JSON config in, report + CSV tables + SVG
plots out. Exit code 0 on pass, 2 on a failed verdict, 3 on any error.

Flags are deliberately minimal (--config, --out-dir, --seed-override,
--quiet); everything else lives in the config file. Outputs are byte-stable
for a fixed (config, seed): no timestamps, repr-exact floats, fixed plot
geometry.
"""

from __future__ import annotations

import argparse
import json
from json.encoder import encode_basestring_ascii
# argparse's gettext imports locale in the first ArgumentParser(); loaded here,
# it is paid at start-up like every other import, not inside main()
import locale  # noqa: F401
import math
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .accumulation import AccumMeasure, build_accum, export_measure_csv, measure_from_json
from .arrays import (
    ArrayGenerator, ArraySpecError, check_lists, generator_from_json, hypothesis_check, json_number,
    refuse_unknown,
)
from .cf import CharFnError, from_json as cf_from_json, to_json as cf_to_json
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .criteria import VerdictReport, gaussian_verdict, general_verdict, poisson_verdict
from .exponent import curvature_check, exponent_eval, poisson_product_approx
from .jsontext import Verbatim, csv_text, json_text
from .montecarlo import (
    SimulationPlan,
    cf_only_limit,
    run_simulation,
    std_gaussian_limit,
    translated_poisson_limit,
)
from .svgplot import PlotError, line_plot_svg

#: fields every task accepts besides its own
_COMMON = ("task", "out_dir", "seed", "plots", "tolerances")
#: fields holding a JSON integer
_COUNTS = ("seed", "samples_per_n")
#: fields holding a list of JSON numbers: name -> whether its entries are integers
_LISTS = {"n_list": True, "eps_list": False, "grid": False, "mesh_cells": True}
#: fields holding a JSON boolean
_FLAGS = ("plots", "dump_samples")


class ConfigError(ValueError):
    """Config schema violation; message starts with a JSON pointer."""


def validate_config(cfg) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("/: config must be a JSON object")
    task = cfg.get("task")
    if task is None:
        raise ConfigError("/task: missing required field")
    if task not in TASKS:
        raise ConfigError(f"/task: unknown task {task!r}; expected one of {list(TASKS)}")
    spec = TASKS[task]
    for field in spec.required:
        if field not in cfg:
            raise ConfigError(f"/{field}: required for task {task!r}")
    allowed = set(_COMMON) | set(spec.required) | set(spec.optional)
    for field in cfg:
        if field not in allowed:
            raise ConfigError(f"/{field}: unknown field for task {task!r}")
    if task == "psi-sweep" or task == "poisson-approx":
        meas = cfg.get("measure")
        from_array = isinstance(meas, dict) and meas.get("kind") == "from_array"
        if from_array and "array" not in cfg:
            raise ConfigError("/array: required when /measure/kind is 'from_array'")
        if not from_array and "array" in cfg:
            raise ConfigError("/array: read only when /measure/kind is 'from_array'")
    for field in _COUNTS:
        if field in cfg:
            json_number(cfg[field], f"/{field}", integer=True)
    for field, integer in _LISTS.items():
        if field in cfg:
            _numbers(cfg[field], f"/{field}", integer)
    for field in _FLAGS:
        if field in cfg:
            _flag(cfg[field], f"/{field}")
    # the component parsers check every number under /array themselves
    bad = _first_non_finite({k: v for k, v in cfg.items() if k != "array"})
    if bad is not None:
        raise ConfigError(f"{bad}: number too large for a double")


# ---------------------------------------------------------------------------
# Field parsers
# ---------------------------------------------------------------------------


def _flag(v, pointer: str) -> bool:
    """A JSON boolean; a string such as "no" is refused, not read as true."""
    if not isinstance(v, bool):
        raise ConfigError(f"{pointer}: expected a boolean, got {v!r}")
    return v


def _optional_number(v, pointer: str) -> float | None:
    """A JSON number, or None where the field is absent or null."""
    return None if v is None else json_number(v, pointer)


def _numbers(obj, pointer: str, integer: bool = False) -> list:
    """A JSON list whose entries pass json_number."""
    if not isinstance(obj, list):
        raise ConfigError(f"{pointer}: expected a list")
    return [json_number(x, f"{pointer}/{i}", integer) for i, x in enumerate(obj)]


def _parse_u_grid(obj, pointer: str) -> tuple[float, ...]:
    if isinstance(obj, list):
        if not obj:
            raise ConfigError(f"{pointer}: must be nonempty")
        return tuple(_numbers(obj, pointer))
    if isinstance(obj, dict):
        refuse_unknown(obj, ("start", "stop", "step"), pointer)
        try:
            start, stop, step = (
                json_number(obj[k], f"{pointer}/{k}") for k in ("start", "stop", "step")
            )
        except KeyError as exc:
            raise ConfigError(f"{pointer}/{exc.args[0]}: missing required field") from exc
        if step <= 0 or stop < start:
            raise ConfigError(f"{pointer}: need step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step + 0.5)) + 1
        return tuple(start + i * step for i in range(count))
    raise ConfigError(f"{pointer}: expected a list or {{start, stop, step}}")


def _parse_tolerances(cfg) -> ToleranceConfig:
    overrides = cfg.get("tolerances")
    if overrides is None:
        return DEFAULT_TOLERANCES
    if not isinstance(overrides, dict):
        raise ConfigError("/tolerances: expected an object")
    refuse_unknown(overrides, ToleranceConfig.FIELDS, "/tolerances")
    return ToleranceConfig(**{k: json_number(v, f"/tolerances/{k}") for k, v in overrides.items()})


#: the one-atom measure kinds: kind -> (site, field holding the mass)
_ONE_ATOM = {"dirac_zero": (0.0, "mass"), "scaled_dirac_one": (1.0, "lambda")}


def _parse_measure(obj, pointer: str) -> AccumMeasure:
    """An accumulation measure: dirac_zero is {"atoms": [[0, mass]]},
    scaled_dirac_one is {"atoms": [[1, lambda]]}, explicit holds one."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{pointer}: expected an object")
    kind = obj.get("kind")
    if kind == "explicit":
        refuse_unknown(obj, ("kind", "measure"), pointer)
        if "measure" not in obj:
            raise ConfigError(f"{pointer}/measure: missing required field")
        return measure_from_json(obj["measure"], f"{pointer}/measure")
    if kind not in _ONE_ATOM:
        raise ConfigError(f"{pointer}/kind: expected dirac_zero | scaled_dirac_one | explicit")
    site, field = _ONE_ATOM[kind]
    refuse_unknown(obj, ("kind", field), pointer)
    mass = json_number(obj.get(field, 1.0), f"{pointer}/{field}")
    if not mass > 0.0:
        raise ConfigError(f"{pointer}/{field}: must be positive, got {mass!r}")
    return AccumMeasure(atoms=((site, mass),))


def _sweep_measure(cfg) -> AccumMeasure:
    """/measure of psi-sweep and poisson-approx: a measure form, or from_array,
    the accumulation measure of row n of /array."""
    obj = cfg["measure"]
    if not (isinstance(obj, dict) and obj.get("kind") == "from_array"):
        return _parse_measure(obj, "/measure")
    refuse_unknown(obj, ("kind", "n", "centered"), "/measure")
    gen = generator_from_json(cfg["array"], "/array")
    n = json_number(obj.get("n"), "/measure/n", integer=True)
    if n < 1:
        raise ConfigError("/measure/n: expected a positive integer")
    return build_accum(gen.row(n), _flag(obj.get("centered", True), "/measure/centered"))


def _parse_sim_limit(obj, pointer: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{pointer}: expected an object")
    kind = obj.get("kind")
    if kind == "std_gaussian":
        refuse_unknown(obj, ("kind",), pointer)
        return std_gaussian_limit()
    if kind == "translated_poisson":
        refuse_unknown(obj, ("kind", "b", "lambda"), pointer)
        return translated_poisson_limit(
            json_number(obj.get("b", 0.0), f"{pointer}/b"),
            json_number(obj.get("lambda", 1.0), f"{pointer}/lambda"),
        )
    if kind == "cf":
        refuse_unknown(obj, ("kind", "spec"), pointer)
        if "spec" not in obj:
            raise ConfigError(f"{pointer}/spec: missing required field")
        return cf_only_limit(cf_from_json(obj["spec"], f"{pointer}/spec"))
    raise ConfigError(f"{pointer}/kind: expected std_gaussian | translated_poisson | cf")


# ---------------------------------------------------------------------------
# Task runners: each returns (passed, results, tables, plots, extra_files)
# tables: list of (relpath, header, rows); plots: list of (relpath, series,
# title, xlabel, ylabel), rendered by main only when /plots is on
# ---------------------------------------------------------------------------


def _log_n(n_list):
    return [math.log10(n) for n in n_list]


def _array(cfg) -> ArrayGenerator:
    """/array, with every /n_list entry checked to name one of its rows."""
    gen = generator_from_json(cfg["array"], "/array")
    for i, n in enumerate(cfg["n_list"]):
        try:
            gen.check_row(n)
        except ValueError as exc:
            raise ConfigError(f"/n_list/{i}: {exc}") from None
    return gen


def _run_hypotheses(cfg, tolerances, seed):
    gen = _array(cfg)
    # checked, but passed on as written: the report echoes it
    _optional_number(cfg.get("c_target"), "/c_target")
    n_list, eps_list = check_lists(cfg["n_list"], cfg["eps_list"])
    hyp = hypothesis_check(
        [gen.row(n) for n in n_list],
        eps_list,
        c_target=cfg.get("c_target"),
        tol=tolerances.exact_stat,
    )
    tables = [
        (
            "tables/stats.csv",
            ["n", "mv", "b", "a"],
            [[n, mv, b, a] for n, mv, b, a in zip(hyp.n_list, hyp.mv, hyp.b, hyp.a)],
        ),
        (
            "tables/negligibility.csv",
            ["n", "eps", "u", "markov_bound"],
            [
                [n, eps, u, bound]
                for eps, ucol, bcol in zip(hyp.eps_list, hyp.u_table, hyp.markov_bound)
                for n, u, bound in zip(hyp.n_list, ucol, bcol)
            ],
        ),
    ]
    xs = _log_n(hyp.n_list)
    plots = [
        ("plots/variance_stats.svg", [("MV(n)", xs, hyp.mv), ("B_n", xs, hyp.b)],
         "variance statistics", "log10 n", "value"),
        ("plots/negligibility.svg",
         [(f"eps={eps!r}", xs, col) for eps, col in zip(hyp.eps_list, hyp.u_table)],
         "max exceedance probability", "log10 n", "U(n, eps)"),
    ]
    return True, {"hypothesis": hyp.to_dict()}, tables, plots, []


def _verdict_tables(rep: VerdictReport):
    tables = [
        (
            "tables/stats.csv",
            ["n"] + list(rep.columns),
            [
                [n] + [rep.columns[k][i] for k in rep.columns]
                for i, n in enumerate(rep.n_list)
            ],
        )
    ]
    plots = []
    xs = _log_n(rep.n_list)
    for name, table in rep.series.items():
        header = ["n"] + [f"eps={eps!r}" for eps in table]
        rows = [[n] + [table[eps][i] for eps in table] for i, n in enumerate(rep.n_list)]
        tables.append((f"tables/{name}.csv", header, rows))
        plots.append((f"plots/{name}.svg",
                      [(f"eps={eps!r}", xs, col) for eps, col in table.items()],
                      name, "log10 n", name))
    series = [(k, xs, v) for k, v in rep.columns.items()]
    plots.append(("plots/stats.svg", series, "per-row statistics", "log10 n", "value"))
    return tables, plots


def _run_verdict_gaussian(cfg, tolerances, seed):
    gen = _array(cfg)
    rep = gaussian_verdict(gen, cfg["n_list"], cfg["eps_list"], tolerances)
    tables, plots = _verdict_tables(rep)
    return rep.passed, {"verdict": rep.to_dict(), "summary_text": rep.to_text()}, tables, plots, []


def _run_verdict_poisson(cfg, tolerances, seed):
    gen = _array(cfg)
    target = cfg["target"]
    if not isinstance(target, dict) or "b" not in target or "lambda" not in target:
        raise ConfigError("/target: expected an object with 'b' and 'lambda'")
    if len(target) != 2:
        refuse_unknown(target, ("b", "lambda"), "/target")
    b, lam = (json_number(target[k], f"/target/{k}") for k in ("b", "lambda"))
    rep = poisson_verdict(gen, cfg["n_list"], cfg["eps_list"], (b, lam), tolerances)
    tables, plots = _verdict_tables(rep)
    return rep.passed, {"verdict": rep.to_dict(), "summary_text": rep.to_text()}, tables, plots, []


def _run_verdict_general(cfg, tolerances, seed):
    gen = _array(cfg)
    rep = general_verdict(
        gen,
        cfg["n_list"],
        _parse_measure(cfg["limit"], "/limit"),
        _optional_number(cfg.get("shift_target"), "/shift_target"),
        [float(x) for x in cfg["grid"]],
        tolerances,
        eps_list=[float(e) for e in cfg.get("eps_list", [0.5])],
    )
    tables, plots = _verdict_tables(rep)
    measure_csv, header = export_measure_csv(rep.accum_measure)
    extra = [("tables/accum_measure.csv", measure_csv), ("tables/accum_measure.json", header)]
    return rep.passed, {"verdict": rep.to_dict(), "summary_text": rep.to_text()}, tables, plots, extra


def _run_psi_sweep(cfg, tolerances, seed):
    measure = _sweep_measure(cfg)
    u_grid = _parse_u_grid(cfg["u_grid"], "/u_grid")
    psi = exponent_eval(measure, u_grid)
    re, im = psi.real.tolist(), psi.imag.tolist()
    tables = [("tables/psi_sweep.csv", ["u", "re", "im"], list(map(list, zip(u_grid, re, im))))]
    plots = [("plots/psi_sweep.svg", [("Re", u_grid, re), ("Im", u_grid, im)],
              "limit exponent", "u", "value")]
    cv = curvature_check(measure)
    results = {"total_mass": measure.total_mass, "points": len(u_grid),
               "curvature": {"second_difference": cv.second_difference, "target": cv.target}}
    measure_csv, header = export_measure_csv(measure)
    extra = [("tables/measure.csv", measure_csv), ("tables/measure.json", header)]
    return True, results, tables, plots, extra


def _run_poisson_approx(cfg, tolerances, seed):
    measure = _sweep_measure(cfg)
    u_grid = _parse_u_grid(cfg["u_grid"], "/u_grid")
    window = json_number(cfg["window"], "/window")
    cells = cfg["mesh_cells"]
    if not cells or min(cells) < 2:
        raise ConfigError("/mesh_cells: expected a nonempty list of integers >= 2")
    rows = []
    target = np.exp(exponent_eval(measure, u_grid))
    for count in cells:
        mesh = [-window + 2.0 * window * i / count for i in range(count + 1)]
        last_product, sup_error = poisson_product_approx(measure, window, mesh)
        rows.append([count, sup_error(u_grid, target)])
    tables = [("tables/approx_error.csv", ["mesh_cells", "sup_error"], rows)]
    plots = [("plots/approx_error.svg",
              [("sup error", [math.log10(r[0]) for r in rows], [r[1] for r in rows])],
              "Poisson-type product error", "log10 mesh cells", "sup |exp(S) - exp(Psi)|")]
    extra = [
        (
            "poisson_product.json",
            json_text(cf_to_json(last_product)) + "\n",
        )
    ]
    results = {"errors": {str(r[0]): r[1] for r in rows}, "terms": len(last_product.terms)}
    return True, results, tables, plots, extra


def _run_simulate(cfg, tolerances, seed):
    gen = _array(cfg)
    limit = _parse_sim_limit(cfg["limit"], "/limit")
    plan = SimulationPlan(
        generator=gen,
        n_list=tuple(cfg["n_list"]),
        samples_per_n=cfg["samples_per_n"],
        seed=seed,
        u_grid=_parse_u_grid(cfg["u_grid"], "/u_grid"),
        limit=limit,
    )
    ks_threshold = _optional_number(cfg.get("ks_threshold"), "/ks_threshold")
    ecf_threshold = _optional_number(cfg.get("ecf_threshold"), "/ecf_threshold")
    dump = cfg.get("dump_samples", False)
    results, kept = run_simulation(plan, keep_samples=dump)
    rows = [[r.n, r.ks, r.ecf, r.samples_per_n, r.seed] for r in results]
    tables = [
        ("tables/simulate.csv", ["n", "ks_distance", "ecf_distance", "samples_per_n", "seed"], rows)
    ]
    xs = _log_n(plan.n_list)
    series = [("ecf", xs, [r.ecf for r in results])]
    if limit.cdf is not None:
        series.insert(0, ("ks", xs, [r.ks for r in results]))
    plots = [("plots/simulate.svg", series, "distance to limit", "log10 n", "distance")]
    # report.json lists the sample dumps under "extra"
    extra = [(f"tables/samples_{n}.csv", csv_text(("sample",), zip(samples.tolist())))
             for n, samples in kept.items()]

    passed = True
    if ks_threshold is not None and limit.cdf is not None:
        passed = passed and all(r.ks <= ks_threshold for r in results)
    if ecf_threshold is not None:
        passed = passed and all(r.ecf <= ecf_threshold for r in results)
    summary = {
        "limit": limit.label,
        "rows": [
            {"n": r.n, "ks": r.ks, "ecf": r.ecf, "samples_per_n": r.samples_per_n, "seed": r.seed}
            for r in results
        ],
    }
    return passed, summary, tables, plots, extra


class _Task(NamedTuple):
    run: Callable
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()


#: task name -> its runner, required fields and optional fields, in the order
#: the unknown-task message lists them
TASKS = {
    "hypotheses": _Task(_run_hypotheses, ("array", "n_list", "eps_list"), ("c_target",)),
    "verdict-gaussian": _Task(_run_verdict_gaussian, ("array", "n_list", "eps_list")),
    "verdict-poisson": _Task(_run_verdict_poisson, ("array", "n_list", "eps_list", "target")),
    "verdict-general": _Task(
        _run_verdict_general, ("array", "n_list", "limit", "grid"), ("shift_target", "eps_list")
    ),
    "psi-sweep": _Task(_run_psi_sweep, ("measure", "u_grid"), ("array",)),
    "poisson-approx": _Task(
        _run_poisson_approx, ("measure", "window", "mesh_cells", "u_grid"), ("array",)
    ),
    "simulate": _Task(
        _run_simulate,
        ("array", "n_list", "samples_per_n", "seed", "u_grid", "limit"),
        ("ks_threshold", "ecf_threshold", "dump_samples"),
    ),
}


# ---------------------------------------------------------------------------
# Output handling
# ---------------------------------------------------------------------------


class _OutputTracker:
    """Records every path written this run so errors can remove partial output."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[Path] = []
        self.dirs: list[Path] = []

    def ensure_dir(self, rel: str) -> None:
        d = self.out_dir / rel if rel else self.out_dir
        if not d.exists():
            d.mkdir(parents=True)
            self.dirs.append(d)

    def write(self, rel: str, text: str) -> None:
        path = self.out_dir / rel
        if not path.parent.exists():
            path.parent.mkdir(parents=True)
            self.dirs.append(path.parent)
        path.write_text(text)
        self.files.append(path)

    def cleanup(self) -> None:
        for f in self.files:
            try:
                f.unlink()
            except OSError:
                pass
        for d in reversed(self.dirs):
            try:
                d.rmdir()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


#: a run of characters outside ASCII
_NON_ASCII = re.compile(r"[^\x00-\x7f]+")


def _config_text(text: str) -> Verbatim:
    """The config as report.json holds it: the file's own text, without the
    JSON whitespace around it, with non-ASCII escaped so the report stays
    ASCII. The text parsed, so non-ASCII can only sit inside strings, where
    an escape reads back as the same characters."""
    text = text.strip(" \t\n\r")
    if not text.isascii():
        text = _NON_ASCII.sub(lambda m: encode_basestring_ascii(m.group())[1:-1], text)
    return Verbatim(text)


def _reject_non_finite(literal: str):
    raise ConfigError(f"Out of range float values are not JSON compliant: {literal}")


def _first_non_finite(obj, pointer: str = "") -> str | None:
    """JSON pointer of the first number a double cannot hold, in document
    order: NaN, an infinity, or an integer past the largest double."""
    if isinstance(obj, (int, float)):
        return None if abs(obj) <= sys.float_info.max else pointer
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        found = _first_non_finite(value, f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}")
        if found is not None:
            return found
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="summand-lab",
        description="Numerical verification of weak limits of triangular-array sums.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out-dir", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed-override", type=int, default=None, help="replace the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = json.loads(text, parse_constant=_reject_non_finite)
    except json.JSONDecodeError as exc:
        print(
            f"config parse error: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 3
    except ConfigError as exc:
        # a failing config alone pays for this walk; numbers as text leave only the literal
        literal = _first_non_finite(json.loads(text, parse_int=str, parse_float=str))
        print(f"config error: {literal or '/'}: {exc}", file=sys.stderr)
        return 3
    try:
        validate_config(cfg)
        tolerances = _parse_tolerances(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    out_dir = args.out_dir or cfg.get("out_dir")
    if not out_dir:
        print("config error: /out_dir: required (or pass --out-dir)", file=sys.stderr)
        return 3
    seed = args.seed_override if args.seed_override is not None else cfg.get("seed", 0)

    tracker = _OutputTracker(Path(out_dir))
    task = cfg["task"]
    try:
        tracker.ensure_dir("")
        passed, results, tables, plots, extra = TASKS[task].run(cfg, tolerances, seed)
        summary_text = results.pop("summary_text", None)
        artifacts = {"tables": [], "plots": [], "extra": []}
        for rel, header, rows in tables:
            tracker.write(rel, csv_text(header, rows))
            artifacts["tables"].append(rel)
        if cfg.get("plots", True):
            for rel, series, title, xlabel, ylabel in plots:
                tracker.write(rel, line_plot_svg(series, title=title, xlabel=xlabel, ylabel=ylabel))
                artifacts["plots"].append(rel)
        for rel, content in extra:
            tracker.write(rel, content)
            artifacts["extra"].append(rel)
        report = {
            "task": task,
            "passed": passed,
            "reasons": results.get("verdict", {}).get("reasons", []),
            "seed": seed,
            # the text it was read from: re-encoding it costs per component
            "config": _config_text(text),
            "results": results,
            "artifacts": artifacts,
        }
        tracker.write("report.json", json_text(report) + "\n")
    except (ConfigError, ArraySpecError, CharFnError) as exc:
        tracker.cleanup()
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (PlotError, ValueError, RuntimeError, KeyError, TypeError) as exc:
        tracker.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if not args.quiet:
        if summary_text:
            print(summary_text)
        else:
            print(f"task {task}: {'PASS' if passed else 'FAIL'}")
        if report["reasons"]:
            print("  reasons: " + ", ".join(report["reasons"]))
        n_art = sum(len(v) for v in artifacts.values()) + 1
        print(f"  wrote {n_art} artifacts under {out_dir}")
    return 0 if passed else 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
