"""Tests of the benchmark's own code: generator, tracer arithmetic, oracles."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from benchlib import oracles, tracer, workloads  # noqa: E402


def _dump(ops):
    return json.dumps([(op.name, op.config, op.check) for op in ops], sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert _dump(workloads.build(name, 7)) == _dump(workloads.build(name, 7))


def test_seed_changes_explicit_rows_but_not_their_work():
    a, b = workloads.build("explicit-rows", 1), workloads.build("explicit-rows", 2)
    assert _dump(a) != _dump(b)
    for attr in ("components", "draws", "psi"):
        assert sum(getattr(op, attr) for op in a) == sum(getattr(op, attr) for op in b)


def test_explicit_rows_are_centered_with_unit_variance():
    array, max_var = workloads.explicit_array(random.Random(3))
    for row in array["rows"]:
        assert len(row["components"]) == row["n"]
        total = 0.0
        for c in row["components"]:
            if c["kind"] == "finite_discrete":
                mean = sum(x * p for x, p in c["atoms"])
                var = sum(x * x * p for x, p in c["atoms"]) - mean * mean
            elif c["kind"] == "gaussian":
                mean, var = c["mean"], c["var"]
            else:
                mean, var = 0.5 * (c["lo"] + c["hi"]), (c["hi"] - c["lo"]) ** 2 / 12.0
            assert abs(mean) < 1e-15
            total += var
        assert total == pytest.approx(1.0, abs=1e-12)
        assert max_var[row["n"]] < 1.6 / row["n"]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_times_on_a_span_tree():
    S = tracer.Span
    spans = [S("cli.pass", 0.0, 10.0, -1), S("arrays.row", 1.0, 4.0, 0),
             S("cf.eval", 2.0, 3.0, 1), S("exponent.psi", 5.0, 9.0, 0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_sum_to_the_wall_and_skip_bookkeeping():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def leaf():
        clock.t += 2.0

    def slow_count(tr_, args, result):
        clock.t += 100.0  # bookkeeping: must not show in any span
        return result

    psi = tr.wrap("exponent.psi", leaf, slow_count)

    def verdict():
        clock.t += 1.0
        psi()
        clock.t += 0.5

    outer = tr.wrap("criteria.verdict", verdict)
    root = tr.begin("cli.pass")
    main = tr.begin("cli.main", "verdict-general")
    outer()
    clock.t += 0.25
    tr.end(main)
    tr.end(root)
    out = tracer.layer_metrics(tr)
    m = {k: v for k, (v, _) in out["metrics"].items()}
    assert m["trace.wall_s"] == 3.75
    assert out["layer_self_sum_s"] == 3.75
    assert m["criteria.self_s"] == 1.5
    assert m["exponent.psi_s"] == 2.0
    assert m["exponent.psi_evals"] == 1
    assert m["cli.self_s"] == 0.25
    assert m["cli.task.verdict-general_s"] == 3.75


def test_raised_calls_are_counted():
    tr = tracer.Tracer()

    def boom():
        raise RuntimeError("depth exhausted")

    wrapped = tr.wrap("exponent.psi", boom)
    with pytest.raises(RuntimeError):
        wrapped()
    assert tr.counts["exponent.psi.raised"] == 1
    assert tr.spans[0].end >= tr.spans[0].start


def test_install_patches_every_binding_in_a_fresh_interpreter(tmp_path):
    """cli, criteria and montecarlo import with ``from .x import y``; the
    tracer must see their calls, and a missing name becomes a note."""
    cfg = {
        "task": "psi-sweep",
        "measure": {"kind": "explicit", "measure": {"atoms": [[1.0, 0.5]], "pieces": []}},
        "u_grid": [-1.0, 0.5, 2.0],
    }
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    script = f"""
import json, sys
import summand_lab.cli as cli
from benchlib import tracer
tracer.TARGETS[("arrays", "no_such_function")] = "arrays.gone"
tr = tracer.Tracer()
tracer.install(tr)
import summand_lab.criteria as criteria, summand_lab.montecarlo as mc
assert hasattr(cli.exponent_eval, "__wrapped__")
assert hasattr(criteria.build_accum, "__wrapped__")
assert hasattr(mc.eval_cf, "__wrapped__")
root = tr.begin("cli.pass")
code = cli.main(["--config", {str(tmp_path / 'c.json')!r}, "--out-dir", {str(tmp_path / 'o')!r}, "--quiet"])
tr.end(root)
out = tracer.layer_metrics(tr)
print(json.dumps({{"code": code, "m": out["metrics"], "sum": out["layer_self_sum_s"], "notes": out["notes"]}}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["code"] == 0
    assert res["m"]["exponent.psi_evals"][0] == 3
    assert res["m"]["svgplot.plots"][0] == 1
    assert res["sum"] == pytest.approx(res["m"]["trace.wall_s"][0], rel=1e-9)
    assert res["notes"] == ["arrays.no_such_function: not found, 0 calls recorded"]


# ---------------------------------------------------------------------------
# KS oracle
# ---------------------------------------------------------------------------


def test_ks_oracle_against_a_step_cdf_by_hand():
    cdf, left, _ = oracles.limit_functions({"kind": "translated_poisson", "b": 0.0, "lambda": 1.0})
    # ECDF(0) = 0.5 against F(0) = e^-1 is the largest gap
    got = oracles.ks_oracle(np.array([0.0, 0.0, 1.0, 2.0]), cdf, left)
    assert got == pytest.approx(0.5 - math.exp(-1.0), abs=1e-15)


def test_ks_oracle_matches_scipy_for_a_continuous_cdf():
    samples = np.random.default_rng(5).normal(size=2000)
    cdf, left, _ = oracles.limit_functions({"kind": "std_gaussian"})
    want = stats.kstest(samples, "norm").statistic
    assert oracles.ks_oracle(samples, cdf, left) == pytest.approx(want, abs=1e-12)


def _write_simulation(out: Path, samples: np.ndarray, ks: float, ecf: float) -> None:
    (out / "tables").mkdir(parents=True)
    (out / "tables" / "samples_4.csv").write_text(
        "sample\n" + "".join(f"{x!r}\n" for x in samples.tolist()))
    (out / "tables" / "simulate.csv").write_text(
        f"n,ks_distance,ecf_distance,samples_per_n,seed\n4,{ks!r},{ecf!r},{samples.size},0\n")


def test_check_simulate_flags_a_wrong_ks_and_accepts_the_right_one(tmp_path):
    limit = {"kind": "translated_poisson", "b": 0.0, "lambda": 1.0}
    samples = np.random.default_rng(9).binomial(4, 0.25, size=5000).astype(float)
    cdf, left, cf = oracles.limit_functions(limit)
    u_grid = [-1.0, 0.0, 1.5]
    ks, ecf = oracles.ks_oracle(samples, cdf, left), oracles.ecf_oracle(samples, cf, u_grid)

    _write_simulation(tmp_path / "right", samples, ks, ecf)
    assert oracles.check_simulate(tmp_path / "right", limit, u_grid) == []

    # the known defect: d_minus against ECDF(x-) at every sorted sample point
    s = np.sort(samples)
    i = np.arange(1, s.size + 1)
    wrong = max(np.max(i / s.size - cdf(s)), np.max(cdf(s) - (i - 1.0) / s.size))
    assert wrong > ks + 0.1
    _write_simulation(tmp_path / "wrong", samples, float(wrong), ecf)
    problems = oracles.check_simulate(tmp_path / "wrong", limit, u_grid)
    assert len(problems) == 1 and "KS" in problems[0]


def test_psi_oracle_matches_closed_forms():
    # uniform on [-1, 1]: E[e^{iuY} - 1 - iuY] = sin(u)/u - 1
    u = 2.5
    got = oracles.psi_oracle({"pieces": [{"weight": 1.0, "dist": {"kind": "uniform", "lo": -1.0, "hi": 1.0}}]}, u)
    assert abs(got - (math.sin(u) / u - 1.0)) < 1e-12
    # N(0, 1): e^{-u^2/2} - 1
    got = oracles.psi_oracle({"pieces": [{"weight": 2.0, "dist": {"kind": "gaussian", "mean": 0.0, "var": 1.0}}]}, u)
    assert abs(got - 2.0 * (math.exp(-0.5 * u * u) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# Known defects excuse only their own problem
# ---------------------------------------------------------------------------


def test_sweep_defect_explains_only_its_exit():
    defect = workloads.SWEEP_DEFECT
    assert defect.explains("exit code 3, expected 0: error: adaptive refinement depth "
                           "exhausted (achieved error bound 1.89e-14)")
    assert not defect.explains("exit code -1, expected 0: Traceback ...")
    assert not defect.explains("exit code 3, expected 0: error: u_grid must be finite")
    assert not defect.explains("artifacts of pass1 differ from the first pass")


def test_ks_defect_explains_only_the_ks_lines():
    defect = workloads.KS_DEFECT
    assert defect.explains("n=256: KS 0.36787944117144233 but the oracle gives 0.0029")
    assert not defect.explains("n=256: ECF 0.1 but the oracle gives 0.2")
    assert not defect.explains("exit code 1, expected 0: error")
    assert not defect.explains("reasons ['x'], expected []")
    assert not defect.explains("simulate.csv differs between the dumping and the timed run")
