"""The benchmark's pass runner, traced and untraced, gives the same artifacts.

``bench/benchlib/passrun.py`` runs a workload's ops through ``cli.main``; with
tracing on it first wraps the package's public functions from outside (see
``bench/benchlib/tracer.py``). A rename or a change of shape there breaks the
traced pass, or changes what it writes, while the untraced pass still works.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

from benchlib import workloads  # noqa: E402

#: every workload, so every bench config goes through the parsers, traced and untraced
NAMES = tuple(workloads.WORKLOADS)


def _files(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _pass(tmp_path: Path, ops: list, trace: bool) -> tuple[dict, dict]:
    label = "trace" if trace else "plain"
    configs = tmp_path / "configs"
    spec = {
        "trace": trace,
        "result": str(tmp_path / f"{label}.result.json"),
        "ops": [{"name": op.name, "task": op.config["task"], "config": str(configs / f"{op.name}.json"),
                 "out_dir": str(tmp_path / label / op.name)} for op in ops],
    }
    spec_path = tmp_path / f"{label}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(BENCH / "benchlib" / "passrun.py"), str(spec_path)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(Path(spec["result"]).read_text())
    return result, {op.name: _files(tmp_path / label / op.name) for op in ops}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("passrun")
    ops = [op for name in NAMES for op in workloads.build(name, 7)]
    (tmp_path / "configs").mkdir()
    for op in ops:
        (tmp_path / "configs" / f"{op.name}.json").write_text(json.dumps(op.config))
    return ops, _pass(tmp_path, ops, trace=False), _pass(tmp_path, ops, trace=True)


def test_traced_pass_writes_what_the_plain_pass_writes(passes):
    ops, (plain, plain_files), (traced, traced_files) = passes
    for op in ops:
        for result in (plain, traced):
            got = next(o for o in result["ops"] if o["name"] == op.name)
            assert (got["exit_code"], got["stderr"]) == (op.exit_code, ""), op.name
        assert plain_files[op.name], op.name
        assert traced_files[op.name] == plain_files[op.name], op.name


def test_tracer_finds_every_function_it_wraps(passes):
    _, _, (traced, _) = passes
    assert traced["trace"]["notes"] == []
    metrics = traced["trace"]["metrics"]
    assert metrics["arrays.rows"][0] > 0 and metrics["arrays.components"][0] > 0
