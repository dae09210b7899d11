"""Lindeberg functions, comparison residual, verdicts and their reason codes."""

import json
import math

import numpy as np
import pytest

from summand_lab import (
    AccumMeasure,
    ComparisonRegimeError,
    ExplicitArray,
    FiniteDiscrete,
    Gaussian,
    NonCenteredRowError,
    RowSpec,
    build_accum,
    comparison_residual,
    eval_cf,
    gaussian_verdict,
    general_verdict,
    lindeberg_gaussian,
    lindeberg_poisson,
    poisson_verdict,
    row_statistics,
    Uniform,
)


def mv2_generator(n_list):
    rows = []
    for n in n_list:
        s = math.sqrt(2.0 / n)
        rows.append(RowSpec(n, ((FiniteDiscrete(((-s, 0.5), (s, 0.5))), n),)))
    return ExplicitArray(tuple(rows))


# ---------------------------------------------------------------------------
# Lindeberg sums
# ---------------------------------------------------------------------------


def test_lindeberg_gaussian_rademacher(rademacher_gen):
    n = 64
    row = rademacher_gen.row(n)
    site = 1.0 / math.sqrt(n)
    assert lindeberg_gaussian(row, 2.0 * site) == 0.0
    assert lindeberg_gaussian(row, site) == pytest.approx(1.0, abs=1e-14)  # boundary included
    assert lindeberg_gaussian(row, 1e-300) == pytest.approx(row_statistics(row, 1.0).mv, abs=1e-14)
    with pytest.raises(ValueError):
        lindeberg_gaussian(row, 0.0)


def test_lindeberg_gaussian_monotone_in_eps(rademacher_gen, uniform_gen):
    for gen in (rademacher_gen, uniform_gen):
        row = gen.row(30)
        vals = [lindeberg_gaussian(row, e) for e in (0.01, 0.05, 0.1, 0.2, 0.5)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_lindeberg_poisson_bernoulli(bernoulli_gen):
    n = 1000
    p = 1.0 / n
    val = lindeberg_poisson(bernoulli_gen.row(n), 0.5)
    assert val == pytest.approx(n * (1 - p) * p * p, rel=1e-12)


def test_lindeberg_poisson_rademacher_stuck_at_mv(rademacher_gen):
    row = rademacher_gen.row(25)
    assert lindeberg_poisson(row, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_lindeberg_poisson_degenerate_rows():
    row = RowSpec(2, ((FiniteDiscrete(((3.0, 1.0),)), 1), (FiniteDiscrete(((-1.0, 1.0),)), 1)))
    assert lindeberg_poisson(row, 0.5) == 0.0


def test_max_variance_bound(rademacher_gen, uniform_gen, bernoulli_gen):
    # max_k var <= eps^2 + lindeberg_gaussian(eps) for every centered row
    for gen in (rademacher_gen, uniform_gen, bernoulli_gen):
        for n in (10, 100, 1000):
            row = gen.row(n).centered()
            b = row_statistics(row, 1.0).b
            for eps in (0.01, 0.1, 0.5, 1.0):
                assert b <= eps * eps + lindeberg_gaussian(row, eps) + 1e-12


# ---------------------------------------------------------------------------
# Comparison residual
# ---------------------------------------------------------------------------


def test_comparison_residual_zero_at_zero(rademacher_gen):
    res, bound = comparison_residual(rademacher_gen.row(10), 0.0, 1.0)
    assert res == 0.0
    assert bound == 0.0


def test_comparison_residual_rademacher_frozen(rademacher_gen):
    row = rademacher_gen.row(100)
    res, bound = comparison_residual(row, 1.0, 1.0)
    # scalar oracle: 100 | ln cos(0.1) - (cos(0.1) - 1) |
    f = math.cos(0.1)
    oracle = 100.0 * abs(math.log(f) - (f - 1.0))
    assert res == pytest.approx(oracle, rel=1e-12)
    assert res == pytest.approx(1.252090126107469e-3, rel=1e-9)
    assert bound == pytest.approx(0.0025, rel=1e-12)
    assert res <= bound


def test_comparison_residual_quartic_order():
    v = 1.0
    row = RowSpec(1, ((FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5))), 1),))
    u = 0.01
    res, bound = comparison_residual(row, u, 1.0)
    # Log(1+w) - w ~ -w^2/2 with w = cos(u sqrt(v)) - 1 ~ -u^2 v / 2
    assert res == pytest.approx(u ** 4 * v * v / 8.0, rel=0.01)
    assert res <= bound


def test_comparison_residual_on_a_grid_is_its_per_u_values():
    row = RowSpec(5, ((FiniteDiscrete(((-0.3, 0.25), (0.1, 0.5), (0.2, 0.25))), 3),
                      (Gaussian(0.0, 0.04), 1), (Uniform(-0.2, 0.2), 1)))
    u = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    res, bound = comparison_residual(row, u, 2.0)
    assert res.shape == bound.shape == u.shape
    for t, r, b in zip(u.ravel().tolist(), res.ravel().tolist(), bound.ravel().tolist()):
        assert (r, b) == comparison_residual(row, t, 2.0)


def test_comparison_regime_error_names_the_first_u_of_a_grid():
    row = RowSpec(1, ((FiniteDiscrete(((0.0, 1.0),)), 1), (FiniteDiscrete(((math.pi, 1.0),)), 1)))
    with pytest.raises(ComparisonRegimeError, match=r"component 1 .* at u = 1\.0$"):
        comparison_residual(row, [0.1, 1.0, 2.0], 1.0)


def test_comparison_regime_error():
    row = RowSpec(1, ((FiniteDiscrete(((math.pi, 1.0),)), 1),))
    with pytest.raises(ComparisonRegimeError, match="component 0"):
        comparison_residual(row, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

N_LIST = (100, 1000, 10000)
EPS_LIST = (0.05, 0.1, 0.5)


def test_gaussian_verdict_passes(rademacher_gen):
    rep = gaussian_verdict(rademacher_gen, N_LIST, EPS_LIST)
    assert rep.passed
    assert rep.reasons == ()
    for eps in EPS_LIST:
        assert rep.series["lindeberg_gaussian"][eps][-1] == 0.0
    assert rep.predicted_limit is not None
    assert abs(eval_cf(rep.predicted_limit, 1.0) - math.exp(-0.5)) <= 1e-12


def test_gaussian_verdict_uniform(uniform_gen):
    rep = gaussian_verdict(uniform_gen, N_LIST, EPS_LIST)
    assert rep.passed
    # support bound: tails vanish once n > 3 / eps^2
    assert rep.series["lindeberg_gaussian"][0.1][-1] == 0.0


def test_gaussian_verdict_mv2_fails():
    rep = gaussian_verdict(mv2_generator(N_LIST), N_LIST, EPS_LIST)
    assert not rep.passed
    assert "GC0 normalization" in rep.reasons
    assert rep.predicted_limit is None


def test_gaussian_verdict_rejects_noncentered(bernoulli_gen):
    with pytest.raises(NonCenteredRowError, match="general_verdict"):
        gaussian_verdict(bernoulli_gen, (10, 100), (0.5,))


def test_verdicts_reject_an_empty_eps_list(rademacher_gen, bernoulli_gen):
    with pytest.raises(ValueError, match="eps_list must be nonempty"):
        gaussian_verdict(rademacher_gen, (10, 100), ())
    with pytest.raises(ValueError, match="eps_list must be nonempty"):
        poisson_verdict(bernoulli_gen, (10, 100), (), (0.0, 1.0))
    with pytest.raises(ValueError, match="eps_list must be nonempty"):
        general_verdict(
            rademacher_gen, (10, 100), AccumMeasure(atoms=((0.0, 1.0),)), 0.0, (0.5,), eps_list=()
        )


def test_poisson_verdict_passes(bernoulli_gen):
    rep = poisson_verdict(bernoulli_gen, N_LIST, EPS_LIST, (0.0, 1.0))
    assert rep.passed
    assert rep.columns["a"][-1] == pytest.approx(1.0, abs=1e-12)
    g = rep.series["lindeberg_poisson"][0.5]
    assert g[-1] == pytest.approx(1e-4 * (1 - 1e-4), rel=1e-10)
    # predicted limit is the translated-Poisson characteristic function
    from summand_lab import TranslatedPoissonCF

    ref = TranslatedPoissonCF(0.0, 1.0)
    for u in (-2.0, 0.5, 3.0):
        assert abs(eval_cf(rep.predicted_limit, u) - eval_cf(ref, u)) <= 1e-12


def test_poisson_verdict_wrong_lambda(bernoulli_gen):
    rep = poisson_verdict(bernoulli_gen, N_LIST, EPS_LIST, (0.0, 2.0))
    assert not rep.passed
    assert "variance-sum" in rep.reasons


def test_poisson_verdict_rademacher_fails(rademacher_gen):
    rep = poisson_verdict(rademacher_gen, N_LIST, EPS_LIST, (-1.0, 1.0))
    assert not rep.passed
    assert any(code.startswith("lindeberg-poisson") for code in rep.reasons)
    for eps in EPS_LIST:
        assert rep.series["lindeberg_poisson"][eps][-1] == pytest.approx(1.0, abs=1e-12)


def test_general_verdict_rademacher(rademacher_gen):
    rep = general_verdict(
        rademacher_gen, N_LIST, AccumMeasure(atoms=((0.0, 1.0),)), 0.0,
        (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0),
    )
    assert rep.passed
    assert max(rep.columns["sup_deviation"]) <= 1e-14
    # the last row's centred measure, kept for the CLI's accum_measure export
    assert rep.accum_measure == build_accum(rademacher_gen.row(N_LIST[-1]), center=True)


def test_general_verdict_bernoulli(bernoulli_gen):
    rep = general_verdict(
        bernoulli_gen, N_LIST, AccumMeasure(atoms=((1.0, 1.0),)), 1.0, (0.5, 1.5)
    )
    assert rep.passed
    assert rep.columns["sup_deviation"][-1] == pytest.approx(1e-4, rel=1e-8)


def test_general_verdict_mismatched_limit_fails(rademacher_gen):
    rep = general_verdict(
        rademacher_gen, N_LIST, AccumMeasure(atoms=((1.0, 1.0),)), None, (0.5, 1.5)
    )
    assert not rep.passed
    assert "preweak-distance" in rep.reasons
    # the failure is structural: K_n(0.5) -> 1 while the limit has 0 there
    assert rep.columns["sup_deviation"][-1] >= 1.0 - 1e-10


def test_gaussian_implies_general(rademacher_gen, uniform_gen):
    for gen in (rademacher_gen, uniform_gen):
        assert gaussian_verdict(gen, N_LIST, EPS_LIST).passed
        assert general_verdict(
            gen, N_LIST, AccumMeasure(atoms=((0.0, 1.0),)), 0.0, (-1.0, -0.5, 0.5, 1.0)
        ).passed


def test_report_serialization_stable(bernoulli_gen):
    rep = poisson_verdict(bernoulli_gen, (10, 100), (0.5,), (0.0, 1.0))
    d1 = json.dumps(rep.to_dict(), indent=2)
    d2 = json.dumps(rep.to_dict(), indent=2)
    assert d1 == d2
    parsed = json.loads(d1)
    assert parsed["task"] == "verdict-poisson"
    assert "checks" in parsed and "hypothesis" in parsed
    # full-precision floats round-trip
    assert parsed["columns"]["mv"][0] == rep.columns["mv"][0]
