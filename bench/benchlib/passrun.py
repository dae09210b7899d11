"""One pass over a workload's ops in a fresh interpreter.

Usage: python3 passrun.py SPEC_JSON

The ops run through ``summand_lab.cli.main``; ``wall_s`` is the sum of their
durations.

Before the first op and after each op the pass times a fixed calibration
kernel (a Python dict loop, a numpy sort and a complex numpy pass; nothing
from summand_lab).
Other tenants of a shared host slow this process by up to 2x for seconds at
a time; the kernel slows with it, so ``wall_s / cal_s`` (``cal_s`` the
median kernel time of the pass) is a machine-speed-independent measure of
the pass, which the benchmark gates on.

With ``"trace": true`` in the spec the public functions are wrapped first
(see tracer.py) and per-layer totals are added, with ``clock_wall_s``: the
pass timed by perf_counter outside the spans, less the time the tracer took
off its clock, against which the layer self times are checked. The result is
written as JSON to the spec's ``result`` path.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import summand_lab.cli as cli
from benchlib import tracer as tracing

CAL_SIZE = 60000


def kernel(keys: tuple, values) -> None:
    counts = {}
    for x in keys:
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    values.argsort()
    abs(values * 1j).sum()


def calibrate(keys: tuple, values) -> float:
    """Seconds for one run of the calibration kernel.

    An untimed run goes first: the op before it has evicted the kernel's
    data from the caches, and how far depends on which op that was, so a
    cold run would time the op order (which the seed shuffles) as well.
    """
    kernel(keys, values)
    t0 = time.perf_counter()
    kernel(keys, values)
    return time.perf_counter() - t0


def main() -> int:
    keys = tuple(range(CAL_SIZE))
    values = np.random.default_rng(0).random(CAL_SIZE)

    with open(sys.argv[1]) as f:
        spec = json.load(f)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    cal = [calibrate(keys, values)]
    pass_t0 = time.perf_counter()
    root = tracer.begin("cli.pass") if tracer else None
    for op in spec["ops"]:
        err = io.StringIO()
        span = tracer.begin("cli.main", op["task"]) if tracer else None
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(["--config", op["config"], "--out-dir", op["out_dir"], "--quiet"])
            except Exception:
                # a crash fails this op, not the pass
                traceback.print_exc()
                code = -1
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
            # keeps the calibration out of the traced wall and the layers
            cal.append(tracer.off_clock(calibrate, keys, values))
        else:
            cal.append(calibrate(keys, values))
        ops.append({"name": op["name"], "exit_code": code, "stderr": err.getvalue(),
                    "seconds": seconds})
    if tracer:
        tracer.end(root)
        clock_wall_s = time.perf_counter() - pass_t0 - tracer.paused
    wall_s = sum(op["seconds"] for op in ops)

    result = {
        "wall_s": wall_s,
        "cal_s": statistics.median(cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
    }
    if tracer:
        result["trace"] = dict(tracing.layer_metrics(tracer), clock_wall_s=clock_wall_s)
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
