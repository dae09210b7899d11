"""Config-driven front end: one JSON config in, report + CSV tables + SVG
plots out. Exit code 0 on pass, 2 on a failed verdict, 3 on any error.

parse_config reads the config once, each field by its own parser (TASKS),
and refuses the first fault with its JSON pointer; the task runners read
only parsed values and name the pointer of a library check that refuses
one. Every artifact is rendered before the first is written, so a refused
run leaves no output.

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

from ._lazy import np
from .accumulation import AccumMeasure, build_accum, export_measure_csv, measure_from_json
from .arrays import (
    ArrayGenerator, ArraySpecError, EntryError, generator_from_json, hypothesis_check, json_number,
    refuse_unknown,
)
from .cf import CharFnError, from_json as cf_from_json, to_json as cf_to_json
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .criteria import (
    NonCenteredRowError, VerdictReport, gaussian_verdict, general_verdict, poisson_verdict,
)
from .exponent import MassAtZeroError, curvature_check, exponent_eval, poisson_product_approx
from .jsontext import Verbatim, csv_text, json_text
from .montecarlo import (
    SimulationPlan, cf_only_limit, run_simulation, std_gaussian_limit, translated_poisson_limit,
)
from .svgplot import PlotError, line_plot_svg

#: the most points a {start, stop, step} u_grid may ask for, and the most
#: breakpoints of a poisson-approx mesh (mesh_cells + 1)
MAX_GRID_POINTS = 10 ** 6
#: the most samples_per_n a simulate run may ask for
MAX_SAMPLES = 10 ** 7


class ConfigError(ValueError):
    """Config schema violation; message starts with a JSON pointer."""


# ---------------------------------------------------------------------------
# Field parsers: each takes (value, pointer), returns the value the runners
# read, and refuses a malformed one naming the pointer of the value at fault
# (the entry of a list, the field of a scalar)
# ---------------------------------------------------------------------------


def _of_type(cls: type, kind: str) -> Callable:
    """The parser of a JSON value of one type: a string such as "no" is
    refused as a boolean, not read as true."""
    def parse(v, pointer: str):
        if not isinstance(v, cls):
            raise ConfigError(f"{pointer}: expected {kind}, got {v!r}")
        return v
    return parse


_flag, _out_dir = _of_type(bool, "a boolean"), _of_type(str, "a string")


def _count(v, pointer: str, least: int | None = None, most: int | None = None) -> int:
    n = json_number(v, pointer, integer=True)
    if least is not None and n < least:
        raise ConfigError(f"{pointer}: must be >= {least}, got {n}")
    # refused before anything of that size is allocated
    if most is not None and n > most:
        raise ConfigError(f"{pointer}: must be <= {most}, got {n}")
    return n


def _positive(v, pointer: str) -> float:
    x = json_number(v, pointer)
    if not x > 0.0:
        raise ConfigError(f"{pointer}: must be positive, got {x!r}")
    return x


def _as_written(v, pointer: str):
    """A JSON number, passed on as written: the report echoes it."""
    json_number(v, pointer)
    return v


def _list_of(entry: Callable) -> Callable:
    """The parser of a nonempty JSON list whose entries pass entry(value, pointer)."""
    def parse(obj, pointer: str) -> tuple:
        if not isinstance(obj, list) or not obj:
            raise ConfigError(f"{pointer}: expected a nonempty list")
        return tuple(entry(x, f"{pointer}/{i}") for i, x in enumerate(obj))
    return parse


def _parse_u_grid(obj, pointer: str) -> tuple[float, ...]:
    if isinstance(obj, list):
        return _list_of(json_number)(obj, pointer)
    if isinstance(obj, dict):
        refuse_unknown(obj, ("start", "stop", "step"), pointer)
        missing = [k for k in ("start", "stop", "step") if k not in obj]
        if missing:
            raise ConfigError(f"{pointer}/{missing[0]}: missing required field")
        start, stop, step = (json_number(obj[k], f"{pointer}/{k}")
                             for k in ("start", "stop", "step"))
        if step <= 0 or stop < start:
            raise ConfigError(f"{pointer}: need step > 0 and stop >= start")
        # refused before anything is allocated; a span that overflows is inf
        steps = (stop - start) / step
        if not steps + 0.5 < MAX_GRID_POINTS:
            raise ConfigError(f"{pointer}: (stop - start) / step is {steps!r}; "
                              f"a grid holds at most {MAX_GRID_POINTS} points")
        grid = tuple(start + i * step for i in range(int(math.floor(steps + 0.5)) + 1))
        if not abs(grid[-1]) <= sys.float_info.max:
            raise ConfigError(f"{pointer}: the last point, start + {len(grid) - 1} step, "
                              "overflows a double")
        return grid
    raise ConfigError(f"{pointer}: expected a list or {{start, stop, step}}")


def _parse_tolerances(obj, pointer: str) -> ToleranceConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{pointer}: expected an object")
    refuse_unknown(obj, ToleranceConfig.FIELDS, pointer)
    return ToleranceConfig(**{k: json_number(v, f"{pointer}/{k}") for k, v in obj.items()})


def _parse_array(obj, pointer: str) -> ArrayGenerator:
    # looked up per call: a profiler that re-binds the name (bench/benchlib) sees it
    return generator_from_json(obj, pointer)


def _parse_target(obj, pointer: str) -> tuple[float, float]:
    if not isinstance(obj, dict) or "b" not in obj or "lambda" not in obj:
        raise ConfigError(f"{pointer}: expected an object with 'b' and 'lambda'")
    refuse_unknown(obj, ("b", "lambda"), pointer)
    return json_number(obj["b"], f"{pointer}/b"), _positive(obj["lambda"], f"{pointer}/lambda")


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
    return AccumMeasure(atoms=((site, _positive(obj.get(field, 1.0), f"{pointer}/{field}")),))


class _FromArray(NamedTuple):
    """A from_array measure before /array is read: row n, centred or not."""
    n: int
    centered: bool


def _sweep_measure(obj, pointer: str) -> AccumMeasure | _FromArray:
    """/measure of psi-sweep and poisson-approx: a measure form, or from_array,
    which parse_config builds from row n of /array."""
    if not (isinstance(obj, dict) and obj.get("kind") == "from_array"):
        return _parse_measure(obj, pointer)
    refuse_unknown(obj, ("kind", "n", "centered"), pointer)
    return _FromArray(json_number(obj.get("n"), f"{pointer}/n", integer=True),
                      _flag(obj.get("centered", True), f"{pointer}/centered"))


def _parse_sim_limit(obj, pointer: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{pointer}: expected an object")
    kind = obj.get("kind")
    if kind == "std_gaussian":
        refuse_unknown(obj, ("kind",), pointer)
        return std_gaussian_limit()
    if kind == "translated_poisson":
        refuse_unknown(obj, ("kind", "b", "lambda"), pointer)
        return translated_poisson_limit(json_number(obj.get("b", 0.0), f"{pointer}/b"),
                                        _positive(obj.get("lambda", 1.0), f"{pointer}/lambda"))
    if kind == "cf":
        refuse_unknown(obj, ("kind", "spec"), pointer)
        if "spec" not in obj:
            raise ConfigError(f"{pointer}/spec: missing required field")
        return cf_only_limit(cf_from_json(obj["spec"], f"{pointer}/spec"))
    raise ConfigError(f"{pointer}/kind: expected std_gaussian | translated_poisson | cf")


def _check_rows(v: dict) -> None:
    """Every /n_list entry and a from_array /measure/n name a row of /array,
    each refused with its pointer before any row is built; a from_array
    /measure is then built from its row. The other rules that read two
    fields are the library's, named by the task runners or by main."""
    gen, measure = v.get("array"), v.get("measure")
    rows = [(f"/n_list/{i}", n) for i, n in enumerate(v.get("n_list", ()))]
    if isinstance(measure, _FromArray):
        rows.append(("/measure/n", measure.n))
    for pointer, n in rows:
        try:
            gen.check_row(n)
        except ValueError as exc:
            raise ConfigError(f"{pointer}: {exc}") from None
    if isinstance(measure, _FromArray):
        v["measure"] = build_accum(gen.row(measure.n), measure.centered)


# ---------------------------------------------------------------------------
# Task runners: each reads the parsed config and returns (passed, results,
# tables, plots, extra_files). tables: list of (relpath, header, rows);
# plots: list of (relpath, series, title, xlabel, ylabel), rendered by main
# only when /plots is on
# ---------------------------------------------------------------------------


def _run_hypotheses(v):
    hyp = hypothesis_check([v["array"].row(n) for n in v["n_list"]], v["eps_list"],
                           c_target=v["c_target"], tol=v["tolerances"].exact_stat)
    tables = [
        ("tables/stats.csv", ["n", "mv", "b", "a"],
         [[n, mv, b, a] for n, mv, b, a in zip(hyp.n_list, hyp.mv, hyp.b, hyp.a)]),
        ("tables/negligibility.csv", ["n", "eps", "u", "markov_bound"],
         [[n, eps, u, bound]
          for eps, ucol, bcol in zip(hyp.eps_list, hyp.u_table, hyp.markov_bound)
          for n, u, bound in zip(hyp.n_list, ucol, bcol)]),
    ]
    xs = list(map(math.log10, hyp.n_list))
    plots = [
        ("plots/variance_stats.svg", [("MV(n)", xs, hyp.mv), ("B_n", xs, hyp.b)],
         "variance statistics", "log10 n", "value"),
        ("plots/negligibility.svg",
         [(f"eps={eps!r}", xs, col) for eps, col in zip(hyp.eps_list, hyp.u_table)],
         "max exceedance probability", "log10 n", "U(n, eps)"),
    ]
    return True, {"hypothesis": hyp.to_dict()}, tables, plots, []


def _verdict_outputs(rep: VerdictReport, extra=()):
    """The runner's return value for a verdict report: its tables and plots."""
    tables = [("tables/stats.csv", ["n", *rep.columns],
               [[n] + [rep.columns[k][i] for k in rep.columns] for i, n in enumerate(rep.n_list)])]
    plots = []
    xs = list(map(math.log10, rep.n_list))
    for name, table in rep.series.items():
        header = ["n"] + [f"eps={eps!r}" for eps in table]
        rows = [[n] + [table[eps][i] for eps in table] for i, n in enumerate(rep.n_list)]
        tables.append((f"tables/{name}.csv", header, rows))
        plots.append((f"plots/{name}.svg",
                      [(f"eps={eps!r}", xs, col) for eps, col in table.items()],
                      name, "log10 n", name))
    plots.append(("plots/stats.svg", [(k, xs, col) for k, col in rep.columns.items()],
                  "per-row statistics", "log10 n", "value"))
    results = {"verdict": rep.to_dict(), "summary_text": rep.to_text()}
    return rep.passed, results, tables, plots, list(extra)


def _run_verdict_gaussian(v):
    try:
        rep = gaussian_verdict(v["array"], v["n_list"], v["eps_list"], v["tolerances"])
    except NonCenteredRowError as exc:
        raise ConfigError(f"/array: {exc}") from None
    return _verdict_outputs(rep)


def _run_verdict_poisson(v):
    return _verdict_outputs(
        poisson_verdict(v["array"], v["n_list"], v["eps_list"], v["target"], v["tolerances"]))


def _run_verdict_general(v):
    rep = general_verdict(v["array"], v["n_list"], v["limit"], v["shift_target"], v["grid"],
                          v["tolerances"], eps_list=v["eps_list"])
    measure_csv, header = export_measure_csv(rep.accum_measure)
    return _verdict_outputs(
        rep, [("tables/accum_measure.csv", measure_csv), ("tables/accum_measure.json", header)])


def _run_psi_sweep(v):
    measure, u_grid = v["measure"], v["u_grid"]
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


def _run_poisson_approx(v):
    measure, u_grid, window = v["measure"], v["u_grid"], v["window"]
    rows = []
    target = np.exp(exponent_eval(measure, u_grid))
    for i, count in enumerate(v["mesh_cells"]):
        mesh = [-window + 2.0 * window * j / count for j in range(count + 1)]
        try:
            last_product, sup_error = poisson_product_approx(measure, window, mesh)
        except MassAtZeroError as exc:
            raise ConfigError(f"/measure: {exc}") from None
        except ValueError as exc:  # a mesh the window cannot build, or a MeshRefinementError
            raise ConfigError(f"/mesh_cells/{i}: {exc}") from None
        rows.append([count, sup_error(u_grid, target)])
    tables = [("tables/approx_error.csv", ["mesh_cells", "sup_error"], rows)]
    plots = [("plots/approx_error.svg",
              [("sup error", [math.log10(r[0]) for r in rows], [r[1] for r in rows])],
              "Poisson-type product error", "log10 mesh cells", "sup |exp(S) - exp(Psi)|")]
    extra = [("poisson_product.json", json_text(cf_to_json(last_product)) + "\n")]
    results = {"errors": {str(r[0]): r[1] for r in rows}, "terms": len(last_product.terms)}
    return True, results, tables, plots, extra


def _run_simulate(v):
    limit = v["limit"]
    plan = SimulationPlan(generator=v["array"], n_list=v["n_list"], seed=v["seed"],
                          samples_per_n=v["samples_per_n"], u_grid=v["u_grid"], limit=limit)
    ks_threshold, ecf_threshold = v["ks_threshold"], v["ecf_threshold"]
    results, kept = run_simulation(plan, keep_samples=v["dump_samples"])
    rows = [[r.n, r.ks, r.ecf, r.samples_per_n, r.seed] for r in results]
    tables = [
        ("tables/simulate.csv", ["n", "ks_distance", "ecf_distance", "samples_per_n", "seed"], rows)
    ]
    xs = list(map(math.log10, plan.n_list))
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


# ---------------------------------------------------------------------------
# The field table
# ---------------------------------------------------------------------------

#: the default of a field that must be present
REQUIRED = object()


class _Field(NamedTuple):
    parse: Callable  # (value, pointer) -> the parsed value
    default: object = REQUIRED  # the value of an absent field


class _Task(NamedTuple):
    run: Callable  # (parsed config) -> (passed, results, tables, plots, extra)
    fields: dict  # the fields the task reads besides COMMON_FIELDS, in parse order


#: the fields every task accepts besides its own (a task may require one)
COMMON_FIELDS = {
    "out_dir": _Field(_out_dir, None),
    "seed": _Field(_count, 0),
    "plots": _Field(_flag, True),
    "tolerances": _Field(_parse_tolerances, DEFAULT_TOLERANCES),
}
# each n_list entry names a row of /array: see _check_rows
_ROWS = {"array": _Field(_parse_array), "n_list": _Field(_list_of(_count))}
_EPS = {"eps_list": _Field(_list_of(_positive))}
#: /array beside a measure: read only, and required, for a from_array measure
_FROM_ARRAY = {"array": _Field(_parse_array, None)}

#: task name -> its runner and fields, in the order the unknown-task message
#: lists them
TASKS = {
    "hypotheses": _Task(_run_hypotheses, _ROWS | _EPS | {"c_target": _Field(_as_written, None)}),
    "verdict-gaussian": _Task(_run_verdict_gaussian, _ROWS | _EPS),
    "verdict-poisson": _Task(_run_verdict_poisson, _ROWS | _EPS | {"target": _Field(_parse_target)}),
    "verdict-general": _Task(_run_verdict_general, _ROWS | {
        "limit": _Field(_parse_measure), "grid": _Field(_list_of(json_number)),
        "shift_target": _Field(json_number, None), "eps_list": _Field(_list_of(_positive), (0.5,)),
    }),
    "psi-sweep": _Task(_run_psi_sweep, {
        "measure": _Field(_sweep_measure), "u_grid": _Field(_parse_u_grid),
    } | _FROM_ARRAY),
    "poisson-approx": _Task(_run_poisson_approx, {
        "measure": _Field(_sweep_measure), "window": _Field(_positive),
        "mesh_cells": _Field(_list_of(lambda x, p: _count(x, p, 2, MAX_GRID_POINTS - 1))),
        "u_grid": _Field(_parse_u_grid),
    } | _FROM_ARRAY),
    "simulate": _Task(_run_simulate, _ROWS | {
        "samples_per_n": _Field(lambda x, p: _count(x, p, 1, MAX_SAMPLES)),
        "seed": _Field(_count),
        "u_grid": _Field(_parse_u_grid), "limit": _Field(_parse_sim_limit),
        "ks_threshold": _Field(json_number, None), "ecf_threshold": _Field(json_number, None),
        "dump_samples": _Field(_flag, False),
    }),
}


def parse_config(cfg) -> dict:
    """The config with every field through its parser, once, and every row
    it names checked to exist: field name -> parsed value, with "task" and
    each absent optional field at its default. Refuses the first fault with
    its JSON pointer."""
    if not isinstance(cfg, dict):
        raise ConfigError("/: config must be a JSON object")
    task = cfg.get("task")
    if task is None:
        raise ConfigError("/task: missing required field")
    if not isinstance(task, str) or task not in TASKS:
        raise ConfigError(f"/task: unknown task {task!r}; expected one of {list(TASKS)}")
    fields = COMMON_FIELDS | TASKS[task].fields
    for name, field in fields.items():
        if field.default is REQUIRED and name not in cfg:
            raise ConfigError(f"/{name}: required for task {task!r}")
    for name in cfg:
        if name != "task" and name not in fields:
            raise ConfigError(f"/{name}: unknown field for task {task!r}")
    if "measure" in fields:
        meas = cfg["measure"]
        from_array = isinstance(meas, dict) and meas.get("kind") == "from_array"
        if from_array and "array" not in cfg:
            raise ConfigError("/array: required when /measure/kind is 'from_array'")
        if not from_array and "array" in cfg:
            raise ConfigError("/array: read only when /measure/kind is 'from_array'")
    v = {"task": task}
    for name, field in fields.items():
        v[name] = field.parse(cfg[name], f"/{name}") if name in cfg else field.default
    _check_rows(v)
    return v


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
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        print(
            f"config parse error: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 3
    try:
        v = parse_config(cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    if args.seed_override is not None:
        v["seed"] = args.seed_override
    out_dir = args.out_dir or v["out_dir"]
    if not out_dir:
        print("config error: /out_dir: required (or pass --out-dir)", file=sys.stderr)
        return 3

    task = v["task"]
    try:
        passed, results, tables, plots, extra = TASKS[task].run(v)
        summary_text = results.pop("summary_text", None)
        # every artifact is rendered before the first is written, so a run
        # that fails leaves no output
        files = {rel: csv_text(header, rows) for rel, header, rows in tables}
        artifacts = {"tables": list(files), "plots": [], "extra": []}
        if v["plots"]:
            for rel, series, title, xlabel, ylabel in plots:
                files[rel] = line_plot_svg(series, title=title, xlabel=xlabel, ylabel=ylabel)
                artifacts["plots"].append(rel)
        for rel, content in extra:
            files[rel] = content
            artifacts["extra"].append(rel)
        report = {
            "task": task,
            "passed": passed,
            "reasons": results.get("verdict", {}).get("reasons", []),
            "seed": v["seed"],
            # the text it was read from: re-encoding it costs per component
            "config": _config_text(text),
            "results": results,
            "artifacts": artifacts,
        }
        files["report.json"] = json_text(report) + "\n"
    except (PlotError, ValueError, RuntimeError, KeyError, TypeError) as exc:
        if isinstance(exc, EntryError):  # a library check of a list the config holds
            exc = ConfigError(f"{exc.pointer}: {exc}")
        config = isinstance(exc, (ConfigError, ArraySpecError, CharFnError))
        kind = "config error" if config else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 3
    out = Path(out_dir)
    try:
        for folder in {(out / rel).parent for rel in files}:
            folder.mkdir(parents=True, exist_ok=True)
        for rel, content in files.items():
            (out / rel).write_text(content)
    except OSError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
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
