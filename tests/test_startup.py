"""Start-up: numpy is imported where it is first used (summand_lab._lazy), so
a verdict on a row of fewer than COLUMNAR_MIN_GROUPS groups runs without it.
Each check runs in a fresh interpreter, since the other tests load numpy
into this one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from summand_lab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
#: the modules that read numpy through summand_lab._lazy
NUMPY_USERS = ("accumulation", "arrays", "cf", "cli", "criteria", "exponent", "montecarlo",
               "normal")

#: runs cli.main on argv[1:], then prints its exit code and whether any numpy
#: submodule was loaded (a hasattr probe of numpy would load it)
RUN_MAIN = ("import sys, summand_lab.cli as cli; code = cli.main(sys.argv[1:]); "
            "print(code, any(m.startswith('numpy.') for m in sys.modules))")


def iid(base: dict) -> dict:
    return {"generator": "standardized_iid", "base": base}


RADEMACHER = {"kind": "finite_discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
#: one passing op per task that reads no sample and no Psi, each on one-group
#: rows (an explicit array is parsed into columns, arrays.GroupTable, by numpy)
SMALL_VERDICTS = {
    "hypotheses": {"task": "hypotheses", "array": iid(RADEMACHER), "n_list": [100, 10000],
                   "eps_list": [0.1, 0.5], "c_target": 1.0},
    "verdict-gaussian": {"task": "verdict-gaussian",
                         "array": iid({"kind": "uniform", "lo": -1.0, "hi": 1.0}),
                         "n_list": [100, 10000], "eps_list": [0.5]},
    "verdict-poisson": {"task": "verdict-poisson",
                        "array": {"generator": "bernoulli_poisson", "lambda": 1.0},
                        "n_list": [100, 10000], "eps_list": [0.5],
                        "target": {"b": 0.0, "lambda": 1.0}},
    "verdict-general": {"task": "verdict-general",
                        "array": iid({"kind": "gaussian", "mean": 0.0, "var": 1.0}),
                        "n_list": [100, 10000],
                        "limit": {"kind": "dirac_zero", "mass": 1.0}, "grid": [-1.0, 0.5],
                        "shift_target": 0.0, "eps_list": [0.5]},
}


def fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def run_args(tmp_path, cfg, out: str) -> list:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return ["--config", str(path), "--out-dir", str(tmp_path / out), "--quiet"]


@pytest.mark.parametrize("task", sorted(SMALL_VERDICTS))
def test_a_small_verdict_never_loads_numpy(tmp_path, task):
    assert fresh(RUN_MAIN, *run_args(tmp_path, SMALL_VERDICTS[task], "out")) == "0 False"


def test_a_numpy_imported_first_is_the_one_the_package_uses():
    code = ("import sys, numpy, summand_lab.cli; "
            f"print([sys.modules['summand_lab.' + m].np is numpy for m in {NUMPY_USERS!r}])")
    assert fresh(code) == repr([True] * len(NUMPY_USERS))


def test_threads_that_first_use_numpy_at_once_each_get_it_whole():
    # a module that loads into itself on first use (importlib.util.LazyLoader)
    # fails this on Python 3.11: three of the four threads read it half-built
    code = ("import threading, summand_lab.arrays as a; go = threading.Barrier(4); bad = []\n"
            "def use():\n"
            "    go.wait()\n"
            "    try:\n"
            "        a.complex_array([1.0], [2.0])\n"
            "    except Exception as exc:\n"
            "        bad.append(exc)\n"
            "threads = [threading.Thread(target=use) for _ in range(4)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(60)\n"
            "print(bad, any(t.is_alive() for t in threads))")
    assert fresh(code) == "[] False"


def test_psi_sweep_in_a_fresh_interpreter_writes_the_same_table(tmp_path):
    cfg = {"task": "psi-sweep", "u_grid": {"start": -3.0, "stop": 3.0, "step": 0.25},
           "measure": {"kind": "explicit", "measure": {
               "atoms": [[0.5, 1.0], [-2.0, 0.25]],
               "pieces": [{"weight": 0.5, "dist": {"kind": "uniform", "lo": -1.0, "hi": 2.0}}]}}}
    assert main(run_args(tmp_path, cfg, "here")) == 0
    assert fresh(RUN_MAIN, *run_args(tmp_path, cfg, "fresh")) == "0 True"
    table = Path("tables", "psi_sweep.csv")
    assert (tmp_path / "fresh" / table).read_bytes() == (tmp_path / "here" / table).read_bytes()
