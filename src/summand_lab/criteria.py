"""Limit-criterion checks and verdicts.

Lindeberg tail sums (Gaussian and Poisson flavors), the log-vs-(f-1)
comparison residual with its quartic envelope, and pass/fail verdicts for
Gaussian, translated-Poisson, and general canonical limits.

"Trend below tolerance" means: the statistic at the largest n is below the
tolerance AND the statistic is nonincreasing over the last three n entries.
Both facts are recorded separately so failures are attributable.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._lazy import np
from .accumulation import AccumMeasure, build_accum, preweak_distance
from .arrays import (
    ArrayGenerator,
    HypothesisReport,
    RowSpec,
    check_lists,
    hypothesis_check,
    running_sum,
)
from .cf import CharFn, GaussianCF, to_json
from .config import DEFAULT_TOLERANCES, ToleranceConfig, Value
from .exponent import limit_char_fn

_MONOTONE_SLACK = 1e-12


class ComparisonRegimeError(ValueError):
    """max_k |f_k(u) - 1| >= 1: outside the principal-log comparison regime."""


class NonCenteredRowError(ValueError):
    """A centered-only verdict was fed rows with nonzero means."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def lindeberg_gaussian(row: RowSpec, eps: float) -> float:
    """Sum over k of the second moment carried by {|x| >= eps}."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if row.columnar:
        t = row.table
        return math.fsum((t.count * t.tail_m2(0.0, eps, inclusive=True)).tolist())
    return math.fsum(
        count * d.tail_m2(0.0, eps, inclusive=True)
        for d, count in row.components
    )


def lindeberg_poisson(row: RowSpec, eps: float) -> float:
    """Sum over k of the centered second moment carried by {|x - 1| > eps}.

    Components are centered at their own means before the tail is taken;
    the sum runs in group order.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if row.columnar:
        t = row.table
        return running_sum(t.count * t.centered.tail_m2(1.0, eps, inclusive=False))
    total = 0.0
    for d, count in row.components:
        centered = d.shifted(d.mean())
        total += count * centered.tail_m2(1.0, eps, inclusive=False)
    return total


def comparison_residual(row: RowSpec, u, c_bound: float):
    """|sum_k [Log f_k(u) - (f_k(u) - 1)]| and the envelope c u^4 B_n / 4, at
    a scalar u or at every point of an array u, each in u's shape.

    Principal logarithm, of GroupTable.cf; requires max_k |f_k(u) - 1| < 1,
    and names the first group and u where it fails. The envelope is the
    centered-row regime: feed rows of mean-zero components (RowSpec.centered()).
    """
    u = np.asarray(u, dtype=np.float64)
    t = row.table
    f = t.cf(u)
    gap = np.abs(f - 1.0).reshape(-1, t.fam.size)
    bad = np.argwhere(gap >= 1.0)  # in order of u, then of group
    if bad.size:
        j, i = bad[0].tolist()
        d, count = row.components[i]
        raise ComparisonRegimeError(
            f"component {i} ({count} x {d!r}) has |f(u) - 1| = {gap[j, i]:.6g} >= 1 "
            f"at u = {float(u.flat[j])!r}"
        )
    residual = np.abs((t.count * (np.log(f) - (f - 1.0))).sum(axis=-1))
    b = max(0.0, float(t.moments[1].max()))
    return residual[()], (c_bound * u ** 4 * b / 4.0)[()]


# ---------------------------------------------------------------------------
# Verdict plumbing
# ---------------------------------------------------------------------------


class TrendCheck(Value):
    def __init__(self, code: str, label: str, values: tuple[float, ...], tol: float,
                 final_ok: bool, monotone_ok: bool):
        vars(self).update(code=code, label=label, values=values, tol=tol, final_ok=final_ok,
                          monotone_ok=monotone_ok)

    @property
    def passed(self) -> bool:
        return self.final_ok and self.monotone_ok

    def to_dict(self) -> dict:
        return dict(vars(self), values=list(self.values), passed=self.passed)


def _trend(code: str, label: str, values: Sequence[float], tol: float) -> TrendCheck:
    values = tuple(float(v) for v in values)
    tail = values[-3:]
    monotone = all(b <= a + _MONOTONE_SLACK for a, b in zip(tail, tail[1:]))
    return TrendCheck(code, label, values, tol, values[-1] < tol, monotone)


def _level(code: str, label: str, values: Sequence[float], tol: float) -> TrendCheck:
    # an "all n" requirement rather than a limit: every entry below tol
    values = tuple(float(v) for v in values)
    return TrendCheck(code, label, values, tol, max(values) <= tol, True)


class VerdictReport(Value):
    """columns holds the per-n statistics and series the per-eps per-n
    tables; accum_measure, of verdict-general only, is the centred
    accumulation measure of the last row, not part of to_dict."""

    def __init__(
        self,
        task: str,
        n_list: tuple[int, ...],
        eps_list: tuple[float, ...],
        hypothesis: HypothesisReport,
        columns: dict[str, tuple[float, ...]],
        series: dict[str, dict[float, tuple[float, ...]]],
        checks: tuple[TrendCheck, ...],
        passed: bool,
        reasons: tuple[str, ...],
        predicted_limit: CharFn | None,
        accum_measure: AccumMeasure | None = None,
    ):
        vars(self).update(
            task=task, n_list=n_list, eps_list=eps_list, hypothesis=hypothesis, columns=columns,
            series=series, checks=checks, passed=passed, reasons=reasons,
            predicted_limit=predicted_limit, accum_measure=accum_measure,
        )

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "passed": self.passed,
            "reasons": list(self.reasons),
            "n_list": list(self.n_list),
            "eps_list": list(self.eps_list),
            "columns": {k: list(v) for k, v in self.columns.items()},
            "series": {
                name: {repr(eps): list(col) for eps, col in table.items()}
                for name, table in self.series.items()
            },
            "checks": [c.to_dict() for c in self.checks],
            "hypothesis": self.hypothesis.to_dict(),
            "predicted_limit": None if self.predicted_limit is None else to_json(self.predicted_limit),
        }

    def to_text(self) -> str:
        """Aligned one-row-per-check table for terminals."""
        width = max(len(c.code) for c in self.checks)
        lines = [f"{self.task}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            lines.append(
                f"  {'ok  ' if c.passed else 'FAIL'} {c.code:<{width}}  "
                f"final={c.values[-1]:.6g} (tol {c.tol:g})  "
                f"monotone={'yes' if c.monotone_ok else 'no'}"
            )
        return "\n".join(lines)


def _finish(task, n_list, eps_list, hyp, columns, series, checks, predicted,
            accum_measure=None) -> VerdictReport:
    reasons = tuple(c.code for c in checks if not c.passed)
    passed = not reasons
    return VerdictReport(
        task=task,
        n_list=tuple(n_list),
        eps_list=tuple(eps_list),
        hypothesis=hyp,
        columns=columns,
        series=series,
        checks=tuple(checks),
        passed=passed,
        reasons=reasons,
        predicted_limit=predicted if passed else None,
        accum_measure=accum_measure,
    )


def _verdict_lists(n_list, eps_list) -> tuple[tuple[int, ...], tuple[float, ...]]:
    n_list, eps_list = check_lists(n_list, eps_list)
    # a verdict with no eps would skip its tail checks and pass on less evidence
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    return n_list, eps_list


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def gaussian_verdict(
    gen: ArrayGenerator,
    n_list: Sequence[int],
    eps_list: Sequence[float],
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerdictReport:
    """Standard-normal limit: unit variance sum, vanishing Lindeberg tails,
    vanishing max variance. Rows must be centered."""
    n_list, eps_list = _verdict_lists(n_list, eps_list)
    rows = [gen.row(n) for n in n_list]
    for row in rows:
        if row.columnar:
            off = np.flatnonzero(np.abs(row.table.moments[0]) > tolerances.structural).tolist()
        else:
            off = [i for i, (d, _) in enumerate(row.components)
                   if abs(d.mean()) > tolerances.structural]
        if off:
            i = off[0]
            d, count = row.components[i]
            raise NonCenteredRowError(
                f"row n={row.n} component {i} ({count} x {d!r}) has mean {d.mean():.3g}; "
                "use general_verdict (or poisson_verdict) for non-centered arrays"
            )

    hyp = hypothesis_check(rows, eps_list, c_target=1.0, tol=tolerances.exact_stat)
    mv, b, a = hyp.mv, hyp.b, hyp.a

    checks = [
        _level("GC0 normalization", "|MV(n) - 1|", [abs(x - 1.0) for x in mv], tolerances.exact_stat),
        _trend("max-variance", "B_n", b, tolerances.exact_stat),
    ]
    lindeberg: dict[float, tuple[float, ...]] = {}
    for eps in eps_list:
        col = tuple(lindeberg_gaussian(r, eps) for r in rows)
        lindeberg[eps] = col
        checks.append(_trend(f"lindeberg eps={eps!r}", f"g_n({eps!r})", col, tolerances.exact_stat))

    return _finish(
        "verdict-gaussian", n_list, eps_list, hyp,
        {"mv": mv, "b": b, "a": a},
        {"lindeberg_gaussian": lindeberg},
        checks,
        GaussianCF(0.0, 1.0),
    )


def poisson_verdict(
    gen: ArrayGenerator,
    n_list: Sequence[int],
    eps_list: Sequence[float],
    target: tuple[float, float],
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerdictReport:
    """Translated-Poisson limit b + Poisson(lam): vanishing max variance,
    variance sum to lam, drift sum to b + lam, vanishing Poisson tails."""
    n_list, eps_list = _verdict_lists(n_list, eps_list)
    b_target, lam = float(target[0]), float(target[1])
    if lam <= 0.0:
        raise ValueError("target lambda must be positive")
    rows = [gen.row(n) for n in n_list]
    hyp = hypothesis_check(rows, eps_list, c_target=lam, tol=tolerances.exact_stat)
    mv, bvals, avals = hyp.mv, hyp.b, hyp.a

    checks = [
        _trend("max-variance", "B_n", bvals, tolerances.exact_stat),
        _trend("variance-sum", f"|MV(n) - {lam!r}|", [abs(x - lam) for x in mv], tolerances.exact_stat),
        _trend("drift", f"|a_n - {b_target + lam!r}|", [abs(x - (b_target + lam)) for x in avals], tolerances.exact_stat),
    ]
    table: dict[float, tuple[float, ...]] = {}
    for eps in eps_list:
        col = tuple(lindeberg_poisson(r, eps) for r in rows)
        table[eps] = col
        checks.append(
            _trend(f"lindeberg-poisson eps={eps!r}", f"g_n,pois({eps!r})", col, tolerances.exact_stat)
        )

    predicted = limit_char_fn(AccumMeasure(atoms=((1.0, lam),)), b_target + lam)
    return _finish(
        "verdict-poisson", n_list, eps_list, hyp,
        {"mv": mv, "b": bvals, "a": avals},
        {"lindeberg_poisson": table},
        checks,
        predicted,
    )


def general_verdict(
    gen: ArrayGenerator,
    n_list: Sequence[int],
    limit: AccumMeasure,
    shift_target: float | None,
    grid: Sequence[float],
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
    eps_list: Sequence[float] = (0.5,),
) -> VerdictReport:
    """Canonical limit via the centered accumulation measures: infinitesimality
    (max-variance, as the other verdicts check it), pre-weak grid distance,
    the total-mass gap (the weak upgrade), and the drift trend."""
    n_list, eps_list = _verdict_lists(n_list, eps_list)
    rows = [gen.row(n) for n in n_list]
    hyp = hypothesis_check(rows, eps_list, c_target=limit.total_mass, tol=tolerances.coarse_stat)
    measures = [build_accum(r, center=True) for r in rows]
    dists = preweak_distance(measures, limit, grid)
    avals = hyp.a

    sup_dev = tuple(d.sup_deviation for d in dists)
    mass_gap = tuple(d.mass_gap for d in dists)
    checks = [
        _trend("max-variance", "B_n", hyp.b, tolerances.exact_stat),
        _trend("preweak-distance", "sup grid deviation", sup_dev, tolerances.coarse_stat),
        _trend("mass-gap", "|mass(K_n) - mass(K)|", mass_gap, tolerances.coarse_stat),
    ]
    if shift_target is not None:
        checks.append(
            _trend("drift", f"|a_n - {shift_target!r}|", [abs(x - shift_target) for x in avals], tolerances.exact_stat)
        )

    predicted = limit_char_fn(limit, 0.0 if shift_target is None else shift_target)
    return _finish(
        "verdict-general", n_list, eps_list, hyp,
        {
            "a": avals,
            "sup_deviation": sup_dev,
            "mass_gap": mass_gap,
            "mv": hyp.mv,
            "b": hyp.b,
        },
        {},
        checks,
        predicted,
        measures[-1],
    )
