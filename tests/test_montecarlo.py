"""Sampling reproducibility, KS/ECF distances, exact binomial-Poisson TV."""

import math

import numpy as np
import pytest
from scipy.stats import binom, poisson

from summand_lab import (
    BernoulliPoisson,
    Degenerate,
    ExplicitArray,
    FiniteDiscrete,
    GaussianCF,
    Gaussian,
    RowSpec,
    SimulationPlan,
    Uniform,
    ecf_distance,
    eval_cf,
    ks_distance,
    run_simulation,
    sample_sums,
    sample_sums_chunked,
    std_normal_cdf,
    translated_poisson_cdf,
    tv_binomial_poisson,
)
from summand_lab.montecarlo import SUBSTREAM_CHUNK, std_gaussian_limit, translated_poisson_limit
from scipy.special import ndtri


def test_degenerate_row_sums_exact():
    row = RowSpec(3, ((FiniteDiscrete(((1.5, 1.0),)), 1), (FiniteDiscrete(((-0.5, 1.0),)), 1)))
    s = sample_sums(row, 100, seed=1)
    assert (s == 1.0).all()


def test_bernoulli_sums_are_integers(bernoulli_gen):
    row = bernoulli_gen.row(50)
    s = sample_sums(row, 2000, seed=5)
    assert np.array_equal(s, np.round(s))
    assert s.min() >= 0 and s.max() <= 50


def test_rademacher_sample_mean(rademacher_gen):
    row = rademacher_gen.row(16)
    s = sample_sums_chunked(row, 100_000, seed=99)
    assert abs(s.mean()) <= 0.013  # 4 sigma of the 1e5-sample mean


def test_chunked_equals_ordered_merge(rademacher_gen):
    row = rademacher_gen.row(32)
    count = 2 * SUBSTREAM_CHUNK + 700
    ref = sample_sums_chunked(row, count, seed=7)
    parts = {}
    for j in (2, 0, 1):  # any execution order
        start = j * SUBSTREAM_CHUNK
        m = min(SUBSTREAM_CHUNK, count - start)
        parts[j] = sample_sums(row, m, 7, stream_id=j)
    manual = np.concatenate([parts[j] for j in sorted(parts)])
    assert manual.tobytes() == ref.tobytes()


def test_run_simulation_reproducible(rademacher_gen):
    plan = SimulationPlan(
        generator=rademacher_gen,
        n_list=(16, 64),
        samples_per_n=4000,
        seed=123,
        u_grid=(-2.0, 1.0),
        limit=std_gaussian_limit(),
    )
    r1, _ = run_simulation(plan)
    r2, _ = run_simulation(plan)
    assert r1 == r2
    assert all(0.0 <= r.ks <= 1.0 for r in r1)
    assert all(0.0 <= r.ecf <= 2.0 for r in r1)


def test_ks_single_median_sample():
    assert ks_distance([0.0], std_normal_cdf) == 0.5


def test_ks_interleaved_quantiles():
    n = 1000
    samples = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert ks_distance(samples, std_normal_cdf) == pytest.approx(1.0 / (2 * n), abs=1e-12)


def test_ks_from_the_limit_itself():
    g = Gaussian(0.0, 1.0)
    row = RowSpec(1, ((g, 1),))
    n = 100_000
    s = sample_sums_chunked(row, n, seed=42)
    dkw = math.sqrt(math.log(2.0 / 1e-3) / (2 * n))  # 0.0062 at delta = 1e-3
    assert ks_distance(s, std_normal_cdf) <= dkw


def test_ks_against_step_cdf():
    cdf = translated_poisson_cdf(0.0, 1.0)
    # all mass at 0 vs Poisson(1): gap at 0 is 1 - e^{-1}
    assert ks_distance([0.0], cdf) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    vals = cdf(np.array([-0.5, 0.0, 0.9, 1.0, 5.0]))
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert vals[2] == vals[1]
    assert vals[3] == pytest.approx(2 * math.exp(-1.0), abs=1e-15)


def test_ks_bernoulli_sums_against_poisson(bernoulli_gen):
    # integer sums against an integer step CDF: both are constant on every
    # [k, k + 1), so the supremum is a maximum over the integers
    s = sample_sums_chunked(bernoulli_gen.row(256), 20_000, seed=8)
    k = np.arange(-1, int(s.max()) + 1)
    ecdf = (s[None, :] <= k[:, None]).mean(axis=1)
    direct = float(np.max(np.abs(ecdf - poisson.cdf(k, 1.0))))
    assert ks_distance(s, translated_poisson_cdf(0.0, 1.0)) == pytest.approx(direct, abs=1e-12)
    assert direct < 0.02


def test_ecf_examples():
    zeros = np.zeros(10)
    assert ecf_distance(zeros, Degenerate(0.0), (0.5, 2.0)) == 0.0
    d = ecf_distance(zeros, GaussianCF(0.0, 1.0), (2.0,))
    assert d == pytest.approx(1.0 - math.exp(-2.0), abs=1e-14)
    assert d == pytest.approx(0.8646647167633873, abs=1e-14)


def test_ecf_of_gaussian_samples():
    row = RowSpec(1, ((Gaussian(0.0, 1.0), 1),))
    s = sample_sums_chunked(row, 100_000, seed=4242)
    grid = [u / 2 for u in range(-10, 11)]
    assert ecf_distance(s, GaussianCF(0.0, 1.0), grid) <= 0.02


def test_tv_binomial_poisson_le_cam():
    for n in (100, 1000, 10000):
        lam = 1.0
        tv = tv_binomial_poisson(n, lam / n, lam)
        assert 0.0 <= tv <= lam * lam / n


def test_tv_against_scipy():
    for n, lam in ((100, 1.0), (500, 2.0)):
        p = lam / n
        mine = tv_binomial_poisson(n, p, lam)
        ks = np.arange(0, n + 1)
        ref = 0.5 * (np.abs(binom.pmf(ks, n, p) - poisson.pmf(ks, lam)).sum() + poisson.sf(n, lam))
        assert mine == pytest.approx(ref, rel=1e-10)


def test_tv_validation():
    with pytest.raises(ValueError):
        tv_binomial_poisson(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        tv_binomial_poisson(10, 1.0, 1.0)


def test_named_limits():
    lim = translated_poisson_limit(1.0, 2.0)
    assert lim.cdf is not None
    assert abs(lim.cf(0.0) - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# Exact grouped sampling
# ---------------------------------------------------------------------------

RADEMACHER = FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5)))


def dkw(n: int, delta: float = 1e-3) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2 * n))


@pytest.mark.parametrize("m", [1, 7, 1000])
def test_rademacher_group_is_binomial_on_its_lattice(m):
    count = 20_000
    s = sample_sums_chunked(RowSpec(m, ((RADEMACHER, m),)), count, seed=31)
    assert np.array_equal(s, np.round(s))
    assert ((s + m) % 2 == 0).all() and np.abs(s).max() <= m

    # S = 2 Binomial(m, 1/2) - m; lattice points are compared exactly, so
    # the CDF is also exact at the left limits ks_distance takes
    lattice = np.arange(-m, m + 1, 2, dtype=np.float64)
    cum = np.concatenate(([0.0], binom.cdf(np.arange(m + 1), m, 0.5)))

    def cdf(x):
        return cum[np.searchsorted(lattice, x, side="right")]

    assert ks_distance(s, cdf) <= dkw(count)


def test_gaussian_groups_draw_once_from_the_summed_law():
    row = RowSpec(6, ((Gaussian(0.5, 1.0), 3), (Gaussian(-1.0, 2.0), 1), (Gaussian(0.0, 0.25), 2)))
    mean, var = 0.5, 5.5  # sum of count * mean, sum of count * var
    single = RowSpec(1, ((Gaussian(mean, var), 1),))
    count = 20_000
    s = sample_sums(row, count, seed=17)
    assert s.tobytes() == sample_sums(single, count, seed=17).tobytes()
    assert ks_distance((s - mean) / math.sqrt(var), std_normal_cdf) <= dkw(count)


def mixed_group_row() -> RowSpec:
    skew = FiniteDiscrete(((-0.5, 0.2), (0.25, 0.5), (3.0, 0.3)))
    return RowSpec(
        9, ((RADEMACHER, 4), (Gaussian(0.1, 0.5), 2), (Uniform(-1.0, 1.0), 2), (skew, 1))
    )


def test_mixed_groups_chunked_deterministic_and_order_free():
    row = mixed_group_row()
    count = 2 * SUBSTREAM_CHUNK + 700
    ref = sample_sums_chunked(row, count, seed=5)
    assert ref.tobytes() == sample_sums_chunked(row, count, seed=5).tobytes()
    parts = {}
    for j in (1, 2, 0):
        start = j * SUBSTREAM_CHUNK
        parts[j] = sample_sums(row, min(SUBSTREAM_CHUNK, count - start), 5, stream_id=j)
    assert np.concatenate([parts[j] for j in sorted(parts)]).tobytes() == ref.tobytes()


def test_mixed_groups_sample_the_row_law():
    row = mixed_group_row()
    count = 100_000
    s = sample_sums_chunked(row, count, seed=6)
    mean = math.fsum(c * d.mean() for d, c in row.components)
    var = math.fsum(c * d.var() for d, c in row.components)
    # 5 standard errors of the mean and of the variance (kurtosis below 3 here)
    assert abs(s.mean() - mean) <= 5.0 * math.sqrt(var / count)
    assert abs(s.var() - var) <= 5.0 * var * math.sqrt(2.0 / count)


def test_ecf_over_distinct_values_matches_direct_mean():
    rng = np.random.default_rng(3)
    lattice = rng.integers(-5, 6, size=4000).astype(np.float64)
    spread = rng.normal(size=4000)
    grid = [-3.0, -0.7, 0.0, 0.4, 2.5]
    for s in (lattice, spread):
        direct = max(abs(complex(np.mean(np.exp(1j * u * s))) - eval_cf(GaussianCF(0.0, 1.0), u))
                     for u in grid)
        assert ecf_distance(s, GaussianCF(0.0, 1.0), grid) == pytest.approx(direct, abs=1e-13)


def _ecf_distance_per_u(samples, limit_cf, u_grid):
    """The per-u reference: cos/sin over the distinct values at each u."""
    values, counts = np.unique(samples, return_counts=True)
    weights = counts / samples.size
    return max(
        abs(complex(weights @ np.cos(u * values), weights @ np.sin(u * values)) - eval_cf(limit_cf, u))
        for u in u_grid
    )


def test_ecf_on_an_arithmetic_grid_matches_the_per_u_mean(rademacher_gen):
    grid = tuple(-5.0 + 0.1 * i for i in range(101))
    spread = sample_sums_chunked(RowSpec(1, ((Gaussian(0.0, 1.0), 1),)), 20_000, seed=21)
    lattice = sample_sums_chunked(rademacher_gen.row(64), 20_000, seed=22)
    for s in (spread, lattice):
        want = _ecf_distance_per_u(s, GaussianCF(0.0, 1.0), grid)
        assert ecf_distance(s, GaussianCF(0.0, 1.0), grid) == pytest.approx(want, abs=1e-12)


def test_ks_centered_bernoulli_sums_against_translated_poisson():
    # centered Bernoulli(1/100) sums land on -1 + Z only up to rounding (a few
    # ulps below some lattice points); each must still count as its lattice
    # point, on both sides of the step
    row = BernoulliPoisson(1.0).row(100).centered()
    s = sample_sums_chunked(row, 20_000, seed=3)
    assert not np.array_equal(s, np.round(s))
    limit = translated_poisson_limit(-1.0, 1.0)
    ks = ks_distance(s, limit.cdf, limit.lattice)
    assert ks == pytest.approx(ks_distance(np.round(s) + 1.0, translated_poisson_cdf(0.0, 1.0)), abs=1e-15)
    assert ks <= 0.02
    # run_simulation hands the limit's lattice to the KS
    plan = SimulationPlan(ExplicitArray((row,)), (100,), 20_000, seed=3, u_grid=(1.0,), limit=limit)
    assert run_simulation(plan)[0][0].ks == ks
