"""summand-lab benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run builds the workload's ops from the seed (benchlib/workloads.py) and
then, each pass in a fresh single-threaded interpreter (benchlib/passrun.py):

1. starts one untimed interpreter that imports ``summand_lab.cli``, so a
   fresh checkout is byte-compiled before anything is timed;
2. times the set-up in SETUP_PAIRS pairs of fresh interpreters (see
   ``setup_s`` below);
3. runs the ``simulate`` ops once untimed with ``dump_samples``, so the KS
   and ECF values can be recomputed from the samples;
4. runs passes over all ops, tracing off, for at least ``--seconds`` and at
   least two passes;
5. with ``--trace 1``, runs one more pass with the public functions wrapped
   and reports per-layer totals instead of the end-to-end metrics.

End-to-end metrics, each a median over the passes:

- ``wall_cal``: one pass's time in units of the calibration kernel timed in
  the same process (see passrun.py), summed over ops from each op's median.
  On a shared host the speed of a process can swing by up to 2x for seconds
  at a time, which raw seconds cannot be gated on; the ratio follows the
  code, not the host.
- ``setup_s``: interpreter start until ``import summand_lab.cli`` returns,
  at the host speed where the reference import (REF_IMPORT, the third-party
  modules ``summand_lab.cli`` loads) takes REF_SETUP_S. Each pair times both
  imports in fresh interpreters, one after the other; the metric is the
  median of their ratios times REF_SETUP_S. Raw set-up time follows the
  host's load over minutes (medians of ten runs moved by 26% between sets);
  the ratio does not, and it still grows with any work ``summand_lab`` adds
  to its own import.
- ``peak_rss_mb``: ``ru_maxrss`` of a pass process.

Raw ``wall_s``, raw set-up times, the throughputs over it and ``ops_failed_frac`` are printed
too, but not gated.

Every op is checked on every pass: its exit code and verdict reasons, byte
identity of its artifacts with the first pass, and the oracles in
benchlib/oracles.py. An op tagged with a known defect still counts as failed;
only a problem its defect does not explain (see ``Defect`` in
benchlib/workloads.py) makes ``correct`` false. The last line of stdout
is the JSON result; the lines before it print every metric with its unit and
sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from benchlib import oracles, workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
SETUP_PAIRS = 6
#: the third-party imports of summand_lab.cli, and the median time of that
#: import on the reference host (2 vCPU Intel Xeon, Python 3.11.7, numpy
#: 2.4.6, scipy 1.17.1); fixed, so setup_s moves only with the ratio
REF_IMPORT = "numpy, scipy.special"
REF_SETUP_S = 0.45
#: prints the seconds from the parent's time.monotonic() in argv[1]
#: (CLOCK_MONOTONIC is shared by all processes) until the import returns
SETUP_PROBE = "import sys, time; t = float(sys.argv[1]); import {}; print(time.monotonic() - t)"
#: the whole run, every pass included, ends within this many seconds
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def host_facts(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


class Runner:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])

    def _spawn(self, cmd: list) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=left)
        if proc.returncode != 0:
            raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc

    def warm_up(self) -> None:
        """Byte-compiles src/ on a fresh checkout and fills the file cache."""
        self._spawn([sys.executable, "-c", "import summand_lab.cli"])

    def setup_seconds(self, modules: str) -> float:
        """Interpreter start until ``import <modules>`` returns."""
        return float(self._spawn([sys.executable, "-c", SETUP_PROBE.format(modules),
                                  repr(time.monotonic())]).stdout)

    def setup_pairs(self) -> list:
        """(summand_lab.cli, reference) set-up times, which goes first alternating."""
        pairs = []
        for i in range(SETUP_PAIRS):
            order = ("summand_lab.cli", REF_IMPORT)[::1 if i % 2 == 0 else -1]
            times = {m: self.setup_seconds(m) for m in order}
            pairs.append((times["summand_lab.cli"], times[REF_IMPORT]))
        return pairs

    def run_pass(self, label: str, ops: list, configs: dict, trace: bool = False) -> dict:
        out = self.work / label
        spec = {
            "trace": trace,
            "result": str(self.work / f"{label}.result.json"),
            "ops": [{"name": op.name, "task": op.config["task"], "config": str(configs[op.name]),
                     "out_dir": str(out / op.name)} for op in ops],
        }
        spec_path = self.work / f"{label}.spec.json"
        spec_path.write_text(json.dumps(spec))
        self._spawn([sys.executable, str(BENCH / "benchlib" / "passrun.py"), str(spec_path)])
        result = json.loads(Path(spec["result"]).read_text())
        result["ops"] = {o["name"]: o for o in result["ops"]}
        result["out"] = out
        result["hashes"] = {op.name: _hashes(out / op.name) for op in ops}
        return result


def _hashes(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def write_configs(ops: list, where: Path, dump_samples: bool = False) -> dict:
    where.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        cfg = dict(op.config, dump_samples=True) if dump_samples else op.config
        paths[op.name] = where / f"{op.name}.json"
        paths[op.name].write_text(json.dumps(cfg))
    return paths


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def outcome_problems(op, run: dict) -> list:
    """Exit code and verdict reasons of one op in one pass."""
    got = run["ops"][op.name]
    if got["exit_code"] != op.exit_code:
        return [f"exit code {got['exit_code']}, expected {op.exit_code}: {got['stderr'].strip()}"]
    report = json.loads((run["out"] / op.name / "report.json").read_text())
    if tuple(report["reasons"]) != tuple(op.reasons):
        return [f"reasons {report['reasons']}, expected {list(op.reasons)}"]
    return []


def oracle_problems(op, out: Path, check_out: Path | None) -> list:
    cfg = op.config
    task = cfg["task"]
    if task == "psi-sweep":
        return oracles.check_psi_sweep(out, op.check)
    grid = cfg.get("u_grid")
    if task == "poisson-approx":
        return oracles.check_poisson_approx(out, op.check, workloads.grid_values(grid))
    if task == "simulate":
        problems = oracles.check_simulate(check_out, cfg["limit"], workloads.grid_values(grid))
        table = "tables/simulate.csv"
        if (out / table).read_bytes() != (check_out / table).read_bytes():
            problems.append("simulate.csv differs between the dumping and the timed run")
        return problems
    report = json.loads((out / "report.json").read_text())
    return oracles.check_row_stats(report, op.check)


def check_ops(ops: list, passes: list, check_run: dict | None, extra: list) -> dict:
    """Per op: the problems found, and in how many timed passes it failed.

    Exit codes, reasons and byte identity are checked on every pass; the
    oracles read the first pass (and the dumped samples of ``check_run``),
    whose artifacts every other pass reproduces, so they apply to all passes.
    """
    first = passes[0]
    status = {}
    for op in ops:
        per_pass = []
        for run in passes + extra:
            found = outcome_problems(op, run)
            if not found and run["hashes"][op.name] != first["hashes"][op.name]:
                found = [f"artifacts of {run['out'].name} differ from the first pass"]
            per_pass.append(found)
        oracle = []
        if not any(per_pass):
            dumped = None
            if op.config["task"] == "simulate":
                dumped = check_run["out"] / op.name
                oracle = outcome_problems(op, check_run)
            oracle = oracle or oracle_problems(op, first["out"] / op.name, dumped)
        status[op.name] = {
            "problems": list(dict.fromkeys(p for found in per_pass for p in found)) + oracle,
            "failed_passes": sum(1 for found in per_pass[:len(passes)] if found or oracle),
        }
    return status


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def per_op_median(passes: list, ops: list, calibrated: bool) -> float:
    """One pass's time: the sum over ops of each op's median over the passes.

    A host slowdown that hits one op in a minority of passes moves this less
    than it moves the median of whole passes. ``calibrated`` divides each op
    by its pass's calibration time (see benchlib/passrun.py).
    """
    return sum(
        statistics.median(p["ops"][op.name]["seconds"] / (p["cal_s"] if calibrated else 1.0)
                          for p in passes)
        for op in ops
    )


def run(args, root: Path, work: Path) -> tuple[dict, list]:
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(root, work)
    configs = write_configs(ops, work / "configs")

    runner.warm_up()
    setups = runner.setup_pairs()

    sim_ops = [op for op in ops if op.config["task"] == "simulate"]
    check_run = None
    if sim_ops:
        check_run = runner.run_pass("check", sim_ops, write_configs(sim_ops, work / "dump", True))

    passes = []
    started = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - started < args.seconds:
        passes.append(runner.run_pass(f"pass{len(passes)}", ops, configs))
    traced = runner.run_pass("trace", ops, configs, trace=True) if args.trace else None

    status = check_ops(ops, passes, check_run, [traced] if traced else [])
    unexpected = [f"{op.name}: {p}" for op in ops for p in status[op.name]["problems"]
                  if not (op.known_defect and op.known_defect.explains(p))]
    failed = sum(s["failed_passes"] for s in status.values())
    attempted = len(ops) * len(passes)

    n = len(passes)
    wall = per_op_median(passes, ops, calibrated=False)
    wall_cal = per_op_median(passes, ops, calibrated=True)
    work_counts = {k: sum(getattr(op, k) for op in ops) for k in ("components", "draws", "psi")}
    e2e = {
        "wall_cal": (wall_cal, "cal", n),
        "setup_s": (REF_SETUP_S * statistics.median(app / ref for app, ref in setups), "s",
                    len(setups)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB", n),
    }
    # printed, not gated: raw seconds follow the host's speed, and a rate is
    # zero on a workload without that kind of work
    info = {
        "wall_s": (wall, "s", n),
        "cal_s": (statistics.median(p["cal_s"] for p in passes), "s", n),
        "setup_raw_s": (statistics.median(app for app, _ in setups), "s", len(setups)),
        "setup_ref_s": (statistics.median(ref for _, ref in setups), "s", len(setups)),
        "components_per_s": (work_counts["components"] / wall, "1/s", n),
        "psi_evals_per_s": (work_counts["psi"] / wall, "1/s", n),
        "draws_per_s": (work_counts["draws"] / wall, "1/s", n),
        "ops_failed_frac": (failed / attempted, "ratio", attempted),
    }
    lines = [f"host {json.dumps(host_facts(args.seed))}",
             f"workload {args.workload}: {len(ops)} ops; logical work per pass {work_counts}",
             "pass wall_s/cal_s " + " ".join(f"{p['wall_s'] / p['cal_s']:.4g}" for p in passes)]
    for name, (value, unit, count) in {**e2e, **info}.items():
        lines.append(f"metric {name} = {value!r} {unit} (n={count})")
    for op in ops:
        problems = status[op.name]["problems"]
        state = "ok" if not problems else "FAILED"
        if op.known_defect and problems:
            state += f" (known defect: {op.known_defect.what})"
        lines.append(f"op {op.name}: {state}" + "".join(f"\n    {p}" for p in problems))

    if traced:
        trace = traced["trace"]
        layer = dict(trace["metrics"])
        written = sum(p.stat().st_size for p in traced["out"].rglob("*") if p.is_file())
        layer["cli.artifact_bytes"] = (written, "bytes")
        traced_cal = traced["wall_s"] / traced["cal_s"]
        layer["trace.overhead_frac"] = ((traced_cal - wall_cal) / wall_cal, "ratio")
        # the spans against a clock read outside them: a pass time the spans
        # miss or count twice shows here
        if abs(trace["layer_self_sum_s"] - trace["clock_wall_s"]) > 1e-3 * trace["clock_wall_s"]:
            unexpected.append(f"trace: layer self times sum to {trace['layer_self_sum_s']!r} s, "
                              f"the traced pass took {trace['clock_wall_s']!r} s")
        lines += [f"note {n}" for n in trace["notes"]]
        lines += [f"layer {name} = {value!r} {unit}" for name, (value, unit) in layer.items()]
        metrics = layer
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}

    lines += [f"unexpected: {p}" for p in unexpected]
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="summand-lab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "summand_lab" / "cli.py").is_file():
        print(f"error: no summand_lab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, lines = run(args, root, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
