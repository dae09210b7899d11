"""Config-driven front end: one JSON config in, report + CSV tables + SVG
plots out. Exit code 0 on pass, 2 on a failed verdict, 3 on any error.

Flags are deliberately minimal (--config, --out-dir, --seed-override,
--quiet); everything else lives in the config file. Outputs are byte-stable
for a fixed (config, seed): no timestamps, repr-exact floats, fixed plot
geometry.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
# argparse's gettext imports locale in the first ArgumentParser(); loaded here,
# it is paid at start-up like every other import, not inside main()
import locale  # noqa: F401
import math
import sys
from pathlib import Path

from .accumulation import (
    AccumMeasure,
    DiracAtZero,
    ExplicitLimit,
    ScaledDiracAtOne,
    build_accum,
    export_measure_csv,
    measure_from_json,
)
from .arrays import ArraySpecError, generator_from_json, hypothesis_check
from .cf import CharFnError, from_json as cf_from_json, to_json as cf_to_json
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .criteria import VerdictReport, gaussian_verdict, general_verdict, poisson_verdict
from .exponent import exp_psi, exponent_eval, poisson_product_approx
from .jsontext import json_text
from .montecarlo import (
    SimulationPlan,
    cf_only_limit,
    run_simulation,
    std_gaussian_limit,
    translated_poisson_limit,
)
from .svgplot import PlotError, line_plot_svg

TASKS = (
    "hypotheses",
    "verdict-gaussian",
    "verdict-poisson",
    "verdict-general",
    "psi-sweep",
    "poisson-approx",
    "simulate",
)

_REQUIRED = {
    "hypotheses": ("array", "n_list", "eps_list"),
    "verdict-gaussian": ("array", "n_list", "eps_list"),
    "verdict-poisson": ("array", "n_list", "eps_list", "target"),
    "verdict-general": ("array", "n_list", "limit", "grid"),
    "psi-sweep": ("measure", "u_grid"),
    "poisson-approx": ("measure", "window", "mesh_cells", "u_grid"),
    "simulate": ("array", "n_list", "samples_per_n", "seed", "u_grid", "limit"),
}


#: fields every task accepts, and the optional fields each task documents
_COMMON = ("task", "out_dir", "seed", "plots", "tolerances")
_OPTIONAL = {
    "hypotheses": ("c_target",),
    "verdict-gaussian": (),
    "verdict-poisson": (),
    "verdict-general": ("shift_target", "eps_list"),
    "psi-sweep": ("array",),
    "poisson-approx": ("array",),
    "simulate": ("ks_threshold", "ecf_threshold", "dump_samples"),
}


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
    for field in _REQUIRED[task]:
        if field not in cfg:
            raise ConfigError(f"/{field}: required for task {task!r}")
    allowed = set(_COMMON) | set(_REQUIRED[task]) | set(_OPTIONAL[task])
    for field in cfg:
        if field not in allowed:
            raise ConfigError(f"/{field}: unknown field for task {task!r}")
    if task == "psi-sweep" or task == "poisson-approx":
        meas = cfg.get("measure")
        if isinstance(meas, dict) and meas.get("kind") == "from_array" and "array" not in cfg:
            raise ConfigError("/array: required when /measure/kind is 'from_array'")


# ---------------------------------------------------------------------------
# Field parsers
# ---------------------------------------------------------------------------


def _parse_u_grid(obj, pointer: str) -> tuple[float, ...]:
    if isinstance(obj, list):
        if not obj:
            raise ConfigError(f"{pointer}: must be nonempty")
        return tuple(float(x) for x in obj)
    if isinstance(obj, dict):
        try:
            start, stop, step = float(obj["start"]), float(obj["stop"]), float(obj["step"])
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
    allowed = set(ToleranceConfig.__dataclass_fields__)
    unknown = set(overrides) - allowed
    if unknown:
        raise ConfigError(f"/tolerances: unknown fields {sorted(unknown)}")
    return dataclasses.replace(DEFAULT_TOLERANCES, **{k: float(v) for k, v in overrides.items()})


def _parse_limit_measure(obj, pointer: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{pointer}: expected an object")
    kind = obj.get("kind")
    if kind == "dirac_zero":
        return DiracAtZero(float(obj.get("mass", 1.0)))
    if kind == "scaled_dirac_one":
        return ScaledDiracAtOne(float(obj.get("lambda", 1.0)))
    if kind == "explicit":
        if "measure" not in obj:
            raise ConfigError(f"{pointer}/measure: missing required field")
        return ExplicitLimit(measure_from_json(obj["measure"], f"{pointer}/measure"))
    raise ConfigError(f"{pointer}/kind: expected dirac_zero | scaled_dirac_one | explicit")


def _parse_measure(cfg, pointer: str) -> AccumMeasure:
    obj = cfg["measure"]
    if not isinstance(obj, dict):
        raise ConfigError(f"{pointer}: expected an object")
    kind = obj.get("kind")
    if kind == "from_array":
        gen = generator_from_json(cfg["array"], "/array")
        n = obj.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigError(f"{pointer}/n: expected a positive integer")
        return build_accum(gen.row(n), bool(obj.get("centered", True)))
    if kind == "explicit":
        if "measure" not in obj:
            raise ConfigError(f"{pointer}/measure: missing required field")
        return measure_from_json(obj["measure"], f"{pointer}/measure")
    if kind in ("dirac_zero", "scaled_dirac_one"):
        return _parse_limit_measure(obj, pointer).to_measure()
    raise ConfigError(
        f"{pointer}/kind: expected dirac_zero | scaled_dirac_one | explicit | from_array"
    )


def _parse_sim_limit(obj, pointer: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{pointer}: expected an object")
    kind = obj.get("kind")
    if kind == "std_gaussian":
        return std_gaussian_limit()
    if kind == "translated_poisson":
        return translated_poisson_limit(float(obj.get("b", 0.0)), float(obj.get("lambda", 1.0)))
    if kind == "cf":
        if "spec" not in obj:
            raise ConfigError(f"{pointer}/spec: missing required field")
        return cf_only_limit(cf_from_json(obj["spec"], f"{pointer}/spec"))
    raise ConfigError(f"{pointer}/kind: expected std_gaussian | translated_poisson | cf")


# ---------------------------------------------------------------------------
# Task runners: each returns (passed, results, tables, plots, extra_files)
# tables: list of (relpath, header, rows); plots: list of (relpath, svg text)
# ---------------------------------------------------------------------------


def _log_n(n_list):
    return [math.log10(n) for n in n_list]


def _run_hypotheses(cfg, tolerances, seed):
    gen = generator_from_json(cfg["array"], "/array")
    hyp = hypothesis_check(
        gen,
        cfg["n_list"],
        cfg["eps_list"],
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
        (
            "plots/variance_stats.svg",
            line_plot_svg(
                [("MV(n)", xs, hyp.mv), ("B_n", xs, hyp.b)],
                title="variance statistics",
                xlabel="log10 n",
                ylabel="value",
            ),
        ),
        (
            "plots/negligibility.svg",
            line_plot_svg(
                [(f"eps={eps!r}", xs, col) for eps, col in zip(hyp.eps_list, hyp.u_table)],
                title="max exceedance probability",
                xlabel="log10 n",
                ylabel="U(n, eps)",
            ),
        ),
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
        plots.append(
            (
                f"plots/{name}.svg",
                line_plot_svg(
                    [(f"eps={eps!r}", xs, col) for eps, col in table.items()],
                    title=name,
                    xlabel="log10 n",
                    ylabel=name,
                ),
            )
        )
    series = [(k, xs, v) for k, v in rep.columns.items()]
    plots.append(
        (
            "plots/stats.svg",
            line_plot_svg(series, title="per-row statistics", xlabel="log10 n", ylabel="value"),
        )
    )
    return tables, plots


def _run_verdict_gaussian(cfg, tolerances, seed):
    gen = generator_from_json(cfg["array"], "/array")
    rep = gaussian_verdict(gen, cfg["n_list"], cfg["eps_list"], tolerances)
    tables, plots = _verdict_tables(rep)
    return rep.passed, {"verdict": rep.to_dict(), "summary_text": rep.to_text()}, tables, plots, []


def _run_verdict_poisson(cfg, tolerances, seed):
    gen = generator_from_json(cfg["array"], "/array")
    target = cfg["target"]
    if not isinstance(target, dict) or "b" not in target or "lambda" not in target:
        raise ConfigError("/target: expected an object with 'b' and 'lambda'")
    rep = poisson_verdict(
        gen, cfg["n_list"], cfg["eps_list"], (float(target["b"]), float(target["lambda"])), tolerances
    )
    tables, plots = _verdict_tables(rep)
    return rep.passed, {"verdict": rep.to_dict(), "summary_text": rep.to_text()}, tables, plots, []


def _run_verdict_general(cfg, tolerances, seed):
    gen = generator_from_json(cfg["array"], "/array")
    limit = _parse_limit_measure(cfg["limit"], "/limit")
    shift = cfg.get("shift_target")
    rep = general_verdict(
        gen,
        cfg["n_list"],
        limit,
        None if shift is None else float(shift),
        [float(x) for x in cfg["grid"]],
        tolerances,
        eps_list=[float(e) for e in cfg.get("eps_list", [0.5])],
    )
    tables, plots = _verdict_tables(rep)
    extra = []
    csv_text, header_text = export_measure_csv(rep.accum_measure)
    extra.append(("tables/accum_measure.csv", csv_text))
    extra.append(("tables/accum_measure.json", header_text))
    return rep.passed, {"verdict": rep.to_dict(), "summary_text": rep.to_text()}, tables, plots, extra


def _run_psi_sweep(cfg, tolerances, seed):
    measure = _parse_measure(cfg, "/measure")
    u_grid = _parse_u_grid(cfg["u_grid"], "/u_grid")
    rows = []
    for u in u_grid:
        psi = exponent_eval(measure, u)
        rows.append([u, psi.real, psi.imag])
    tables = [("tables/psi_sweep.csv", ["u", "re", "im"], rows)]
    plots = [
        (
            "plots/psi_sweep.svg",
            line_plot_svg(
                [
                    ("Re", u_grid, [r[1] for r in rows]),
                    ("Im", u_grid, [r[2] for r in rows]),
                ],
                title="limit exponent",
                xlabel="u",
                ylabel="value",
            ),
        )
    ]
    results = {"total_mass": measure.total_mass, "points": len(rows)}
    csv_text, header_text = export_measure_csv(measure)
    extra = [("tables/measure.csv", csv_text), ("tables/measure.json", header_text)]
    return True, results, tables, plots, extra


def _run_poisson_approx(cfg, tolerances, seed):
    measure = _parse_measure(cfg, "/measure")
    u_grid = _parse_u_grid(cfg["u_grid"], "/u_grid")
    window = float(cfg["window"])
    cells = cfg["mesh_cells"]
    if (
        not isinstance(cells, list)
        or not cells
        or not all(isinstance(c, int) and c >= 2 for c in cells)
    ):
        raise ConfigError("/mesh_cells: expected a nonempty list of integers >= 2")
    rows = []
    last_product = None
    target = exp_psi(measure, u_grid)
    for count in cells:
        mesh = [-window + 2.0 * window * i / count for i in range(count + 1)]
        product, sup_error = poisson_product_approx(measure, window, mesh)
        rows.append([count, sup_error(u_grid, target)])
        last_product = product
    tables = [("tables/approx_error.csv", ["mesh_cells", "sup_error"], rows)]
    plots = [
        (
            "plots/approx_error.svg",
            line_plot_svg(
                [("sup error", [math.log10(r[0]) for r in rows], [r[1] for r in rows])],
                title="Poisson-type product error",
                xlabel="log10 mesh cells",
                ylabel="sup |exp(S) - exp(Psi)|",
            ),
        )
    ]
    extra = [
        (
            "poisson_product.json",
            json_text(cf_to_json(last_product)) + "\n",
        )
    ]
    results = {"errors": {str(r[0]): r[1] for r in rows}, "terms": len(last_product.terms)}
    return True, results, tables, plots, extra


def _run_simulate(cfg, tolerances, seed):
    gen = generator_from_json(cfg["array"], "/array")
    limit = _parse_sim_limit(cfg["limit"], "/limit")
    plan = SimulationPlan(
        generator=gen,
        n_list=tuple(cfg["n_list"]),
        samples_per_n=int(cfg["samples_per_n"]),
        seed=seed,
        u_grid=_parse_u_grid(cfg["u_grid"], "/u_grid"),
        limit=limit,
    )
    dump = bool(cfg.get("dump_samples", False))
    results, kept = run_simulation(plan, keep_samples=dump)
    rows = [[r.n, r.ks, r.ecf, r.samples_per_n, r.seed] for r in results]
    tables = [
        ("tables/simulate.csv", ["n", "ks_distance", "ecf_distance", "samples_per_n", "seed"], rows)
    ]
    xs = _log_n(plan.n_list)
    series = [("ecf", xs, [r.ecf for r in results])]
    if limit.cdf is not None:
        series.insert(0, ("ks", xs, [r.ks for r in results]))
    plots = [
        (
            "plots/simulate.svg",
            line_plot_svg(series, title="distance to limit", xlabel="log10 n", ylabel="distance"),
        )
    ]
    extra = []
    if dump:
        for n, samples in kept.items():
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(["sample"])
            for x in samples:
                w.writerow([repr(float(x))])
            extra.append((f"tables/samples_{n}.csv", buf.getvalue()))

    passed = True
    ks_threshold = cfg.get("ks_threshold")
    ecf_threshold = cfg.get("ecf_threshold")
    if ks_threshold is not None and limit.cdf is not None:
        passed = passed and all(r.ks <= float(ks_threshold) for r in results)
    if ecf_threshold is not None:
        passed = passed and all(r.ecf <= float(ecf_threshold) for r in results)
    summary = {
        "limit": limit.label,
        "rows": [
            {"n": r.n, "ks": r.ks, "ecf": r.ecf, "samples_per_n": r.samples_per_n, "seed": r.seed}
            for r in results
        ],
    }
    return passed, summary, tables, plots, extra


_RUNNERS = {
    "hypotheses": _run_hypotheses,
    "verdict-gaussian": _run_verdict_gaussian,
    "verdict-poisson": _run_verdict_poisson,
    "verdict-general": _run_verdict_general,
    "psi-sweep": _run_psi_sweep,
    "poisson-approx": _run_poisson_approx,
    "simulate": _run_simulate,
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


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _reject_non_finite(literal: str):
    raise ConfigError(f"Out of range float values are not JSON compliant: {literal}")


def _first_non_finite(obj, pointer: str = "") -> str | None:
    """JSON pointer of the first non-finite number in document order."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return pointer
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
        text = Path(args.config).read_text()
    except OSError as exc:
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
        # only a failing config pays for the walk that finds the pointer
        print(f"config error: {_first_non_finite(json.loads(text)) or '/'}: {exc}", file=sys.stderr)
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
        passed, results, tables, plots, extra = _RUNNERS[task](cfg, tolerances, seed)
        summary_text = results.pop("summary_text", None) if isinstance(results, dict) else None
        artifacts = {"tables": [], "plots": [], "extra": []}
        for rel, header, rows in tables:
            tracker.write(rel, _csv_text(header, rows))
            artifacts["tables"].append(rel)
        if cfg.get("plots", True):
            for rel, svg in plots:
                tracker.write(rel, svg)
                artifacts["plots"].append(rel)
        for rel, content in extra:
            tracker.write(rel, content)
            artifacts["extra"].append(rel)
        report = {
            "task": task,
            "passed": passed,
            "reasons": results.get("verdict", {}).get("reasons", []) if isinstance(results, dict) else [],
            "seed": seed,
            "config": cfg,
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
