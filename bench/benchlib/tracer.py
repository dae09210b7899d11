"""Outside-in tracing of summand_lab's public functions.

The benchmark wraps functions from its own files: every binding of a traced
function is replaced in every ``summand_lab`` module that holds it, because
``cli``, ``criteria`` and ``montecarlo`` import names with ``from .x import
y``. Per-element helpers (``compensated_kernel``, component methods) are not
wrapped, so their cost lands in the caller's self time and the overhead stays
small. A name that no longer exists is recorded in ``notes`` with zero calls.

Spans (name, start, end, parent, tag) stay in memory until the pass ends. A
span's self time is its duration minus the durations of its direct children;
the process is single-threaded, so children never overlap and no layer waits.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: (module, attribute) -> span name; ``Class.method`` patches every subclass
#: that defines the method.
TARGETS = {
    ("arrays", "generator_from_json"): "arrays.parse",
    ("arrays", "ArrayGenerator.row"): "arrays.row",
    ("arrays", "row_statistics"): "arrays.stats",
    ("arrays", "hypothesis_check"): "arrays.stats",
    ("accumulation", "build_accum"): "accumulation.build",
    ("accumulation", "preweak_distance"): "accumulation.preweak",
    ("accumulation", "measure_from_json"): "accumulation.parse",
    ("accumulation", "export_measure_csv"): "accumulation.export",
    ("criteria", "gaussian_verdict"): "criteria.verdict",
    ("criteria", "poisson_verdict"): "criteria.verdict",
    ("criteria", "general_verdict"): "criteria.verdict",
    ("criteria", "lindeberg_gaussian"): "criteria.lindeberg",
    ("criteria", "lindeberg_poisson"): "criteria.lindeberg",
    ("exponent", "exponent_eval"): "exponent.psi",
    ("exponent", "poisson_product_approx"): "exponent.approx_build",
    ("exponent", "limit_char_fn"): "exponent.limit",
    ("cf", "eval_cf"): "cf.eval",
    ("cf", "from_json"): "cf.parse",
    ("cf", "to_json"): "cf.dump",
    ("montecarlo", "run_simulation"): "montecarlo.run",
    ("montecarlo", "sample_sums_chunked"): "montecarlo.sample",
    ("montecarlo", "ks_distance"): "montecarlo.ks",
    ("montecarlo", "ecf_distance"): "montecarlo.ecf",
    ("svgplot", "line_plot_svg"): "svgplot.render",
}

LAYERS = ("cli", "arrays", "accumulation", "criteria", "exponent", "cf", "montecarlo", "svgplot")
TASKS = (
    "hypotheses", "verdict-gaussian", "verdict-poisson", "verdict-general",
    "psi-sweep", "poisson-approx", "simulate",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    tag: str | None = None


def self_times(spans: list) -> list:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Span recorder. Time the tracer spends counting after a call returns
    is taken off its clock (``off_clock``), so spans and the traced wall
    leave it out."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.paused = 0.0
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.notes: list[str] = []

    def now(self) -> float:
        return self._clock() - self.paused

    def begin(self, name: str, tag: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.now(), 0.0, parent, tag))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.now()
        self._stack.pop()

    def off_clock(self, fn, *args):
        """fn(*args), with its time taken off the tracer's clock."""
        t0 = self._clock()
        try:
            return fn(*args)
        finally:
            self.paused += self._clock() - t0

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; ``after(tracer, args, result)`` may count and
        may return a replacement result, off the clock."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self.end(index)
            if after is not None:
                result = self.off_clock(after, self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# Counters taken after a traced call returns
# ---------------------------------------------------------------------------


def _after_row(tracer, args, row):
    tracer.counts["arrays.components"] += row.k()
    comps = row.components
    # dedupe by identity first, so k(n) references to one object cost one hash
    tracer.counts["arrays.distinct"] += len(set(dict(zip(map(id, comps), comps)).values()))
    return row


def _after_sample(tracer, args, result):
    tracer.counts["montecarlo.draws"] += args[0].k() * int(args[1])
    return result


def _after_ecf(tracer, args, result):
    tracer.counts["montecarlo.ecf_points"] += len(args[0]) * len(args[2])
    return result


def _after_approx(tracer, args, result):
    product, sup_error = result
    return product, tracer.wrap("exponent.sup_error", sup_error)


AFTER = {
    "arrays.row": _after_row,
    "montecarlo.sample": _after_sample,
    "montecarlo.ecf": _after_ecf,
    "exponent.approx_build": _after_approx,
}


def install(tracer: Tracer) -> None:
    """Wrap every target in TARGETS, rebinding it wherever it is imported."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "summand_lab" or k.startswith("summand_lab."))]
    for (mod_name, attr), span in TARGETS.items():
        module = sys.modules.get(f"summand_lab.{mod_name}")
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            base = getattr(module, cls_name, None)
            classes = [c for c in ([base] + _subclasses(base) if base else [])
                       if method in vars(c)]
            for c in classes:
                setattr(c, method, tracer.wrap(span, vars(c)[method], AFTER.get(span)))
            if not classes:
                tracer.notes.append(f"{mod_name}.{attr}: not found, 0 calls recorded")
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            tracer.notes.append(f"{mod_name}.{attr}: not found, 0 calls recorded")
            continue
        wrapped = tracer.wrap(span, original, AFTER.get(span))
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapped)


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals over the pass; the root span is ``cli.pass``."""
    selfs = self_times(tracer.spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_layer: dict[str, float] = defaultdict(float)
    task_s: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, selfs):
        by_name[span.name] += own
        calls[span.name] += 1
        by_layer[span.name.split(".", 1)[0]] += own
        if span.name == "cli.main":
            task_s[span.tag] += span.end - span.start
    counts = tracer.counts
    roots = [s for s in tracer.spans if s.parent < 0]
    psi_evals = calls["exponent.psi"]
    sample_s = by_name["montecarlo.sample"]
    components = counts["arrays.components"]

    m = {"cli.self_s": (by_layer["cli"], "s")}
    for task in TASKS:
        m[f"cli.task.{task}_s"] = (task_s[task], "s")
    m.update({
        "arrays.self_s": (by_layer["arrays"], "s"),
        "arrays.parse_s": (by_name["arrays.parse"], "s"),
        "arrays.row_s": (by_name["arrays.row"], "s"),
        "arrays.rows": (calls["arrays.row"], "count"),
        "arrays.components": (components, "count"),
        "arrays.distinct_ratio": (counts["arrays.distinct"] / components if components else 0.0,
                                  "ratio"),
        "arrays.stats_s": (by_name["arrays.stats"], "s"),
        "accumulation.self_s": (by_layer["accumulation"], "s"),
        "accumulation.build_s": (by_name["accumulation.build"], "s"),
        "accumulation.builds": (calls["accumulation.build"], "count"),
        "accumulation.preweak_s": (by_name["accumulation.preweak"], "s"),
        "criteria.self_s": (by_layer["criteria"], "s"),
        "criteria.lindeberg_s": (by_name["criteria.lindeberg"], "s"),
        "criteria.lindeberg_calls": (calls["criteria.lindeberg"], "count"),
        "exponent.self_s": (by_layer["exponent"], "s"),
        "exponent.psi_s": (by_name["exponent.psi"], "s"),
        "exponent.psi_evals": (psi_evals, "count"),
        "exponent.psi_us_per_eval": (
            1e6 * by_name["exponent.psi"] / psi_evals if psi_evals else 0.0, "us"),
        "exponent.failures": (counts["exponent.psi.raised"], "count"),
        "exponent.approx_build_s": (by_name["exponent.approx_build"], "s"),
        "exponent.sup_error_s": (by_name["exponent.sup_error"], "s"),
        "cf.self_s": (by_layer["cf"], "s"),
        "cf.eval_s": (by_name["cf.eval"], "s"),
        "cf.evals": (calls["cf.eval"], "count"),
        "montecarlo.self_s": (by_layer["montecarlo"], "s"),
        "montecarlo.sample_s": (sample_s, "s"),
        "montecarlo.draws": (counts["montecarlo.draws"], "count"),
        "montecarlo.draws_per_s": (
            counts["montecarlo.draws"] / sample_s if sample_s else 0.0, "1/s"),
        "montecarlo.ks_s": (by_name["montecarlo.ks"], "s"),
        "montecarlo.ecf_s": (by_name["montecarlo.ecf"], "s"),
        "montecarlo.ecf_points": (counts["montecarlo.ecf_points"], "count"),
        "svgplot.render_s": (by_name["svgplot.render"], "s"),
        "svgplot.plots": (calls["svgplot.render"], "count"),
        "trace.wall_s": (sum(s.end - s.start for s in roots), "s"),
    })
    layer_sum = sum(by_layer[layer] for layer in LAYERS)
    return {"metrics": m, "layer_self_sum_s": layer_sum, "notes": list(tracer.notes)}
