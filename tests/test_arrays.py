"""Component moments, row statistics, generators, hypothesis tables, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from arrayref import generator_to_json, sample
from summand_lab import (
    ArraySpecError,
    BernoulliPoisson,
    ExplicitArray,
    FiniteDiscrete,
    Gaussian,
    RowSpec,
    StandardizedIid,
    Uniform,
    build_accum,
    hypothesis_check,
    lindeberg_gaussian,
    lindeberg_poisson,
    row_statistics,
)
from summand_lab.arrays import (
    component_to_json,
    exp_sums,
    generator_from_json,
    grid_step,
)
from summand_lab.cli import _parse_u_grid
from summand_lab.montecarlo import sample_sums


def test_finite_discrete_validation():
    with pytest.raises(ValueError):
        FiniteDiscrete(((0.0, 0.6), (1.0, 0.6)))
    with pytest.raises(ValueError):
        FiniteDiscrete(((0.0, -0.1), (1.0, 1.1)))
    with pytest.raises(ValueError):
        FiniteDiscrete(())


def test_rademacher_moments(rademacher):
    assert rademacher.mean() == 0.0
    assert rademacher.var() == 1.0
    assert rademacher.partial_m2(0.0) == 0.5
    assert rademacher.partial_m2(1.0) == 1.0
    assert rademacher.partial_m2(-2.0) == 0.0


def test_bernoulli_tail_about_one():
    # site 1 lies inside the band, site 0 carries zero weight: tail is 0
    p = 0.3
    bern = FiniteDiscrete(((0.0, 1.0 - p), (1.0, p)))
    assert bern.tail_m2(1.0, 0.5) == 0.0


def test_uniform_moments():
    u = Uniform(-1.0, 1.0)
    assert u.var() == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert u.partial_m2(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert u.partial_m2(0.5) == pytest.approx((0.125 + 1.0) / 6.0, abs=1e-15)
    assert u.partial_m2(-1.5) == 0.0
    # support entirely inside the band: tails vanish exactly
    assert u.tail_m2(0.0, 1.0) == 0.0
    assert u.tail_m2(0.0, 2.0) == 0.0


GAUSS_PM2_CASES = [
    # frozen via scipy.integrate.quad of y^2 phi_{mu,sd}(y)
    (0.3, 2.0, 0.7, 0.7356568121725189),
    (-1.0, 0.5, -0.2, 1.4850714594079861),
    (0.0, 1.0, 1.0, 0.5993740215493997),
]


@pytest.mark.parametrize("mu,var,x,expected", GAUSS_PM2_CASES)
def test_gaussian_partial_m2_frozen(mu, var, x, expected):
    assert Gaussian(mu, var).partial_m2(x) == pytest.approx(expected, abs=1e-12)


GAUSS_PM3_CASES = [
    (0.3, 2.0, 0.7, -1.479563999872376),
    (0.0, 1.0, 0.5, -0.792146985219674),
]


@pytest.mark.parametrize("mu,var,x,expected", GAUSS_PM3_CASES)
def test_gaussian_partial_m3_frozen(mu, var, x, expected):
    assert Gaussian(mu, var).partial_m3(x) == pytest.approx(expected, abs=1e-12)


def test_gaussian_partials_against_quadrature():
    g = Gaussian(0.4, 1.3)
    sd = math.sqrt(g.v)
    for x in (-1.7, 0.0, 0.9, 3.2):
        ref, _ = quad(lambda y: y * y * math.exp(-0.5 * ((y - g.m) / sd) ** 2)
                      / (sd * math.sqrt(2 * math.pi)), g.m - 14 * sd, x, limit=200)
        assert g.partial_m2(x) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize(
    "dist",
    [
        FiniteDiscrete(((-1.0, 0.25), (0.3, 0.5), (2.0, 0.25))),
        Gaussian(0.5, 2.0),
        Uniform(-0.5, 2.0),
    ],
    ids=["discrete", "gaussian", "uniform"],
)
def test_partial_m2_monotone_with_limits(dist):
    grid = [x / 4 for x in range(-40, 41)]
    vals = [dist.partial_m2(x) for x in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert dist.partial_m2(-1e9) == 0.0
    assert dist.partial_m2(1e9) == pytest.approx(dist.second_moment(), rel=1e-12)


def test_tail_m2_inclusive_boundary():
    coin = FiniteDiscrete(((-0.5, 0.5), (0.5, 0.5)))
    assert coin.tail_m2(0.0, 0.5, inclusive=True) == pytest.approx(0.25, abs=1e-15)
    assert coin.tail_m2(0.0, 0.5, inclusive=False) == 0.0


def test_shift_and_scale():
    g = Gaussian(1.0, 4.0)
    assert g.shifted(1.0) == Gaussian(0.0, 4.0)
    assert g.scaled(2.0) == Gaussian(0.5, 1.0)
    u = Uniform(0.0, 2.0)
    assert u.shifted(1.0) == Uniform(-1.0, 1.0)
    coin = FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5)))
    assert coin.scaled(2.0).atoms == ((-0.5, 0.5), (0.5, 0.5))


def test_row_statistics_rademacher(rademacher_gen):
    n = 100
    row = rademacher_gen.row(n)
    st = row_statistics(row, 2.0 / math.sqrt(n))
    assert st.u == 0.0
    assert st.mv == pytest.approx(1.0, abs=1e-14)
    assert st.b == pytest.approx(1.0 / n, abs=1e-16)
    assert st.a == 0.0
    st2 = row_statistics(row, 0.5 / math.sqrt(n))
    assert st2.u == 1.0


def test_row_statistics_bernoulli(bernoulli_gen):
    st = row_statistics(bernoulli_gen.row(100), 0.5)
    assert st.mv == pytest.approx(0.99, abs=1e-14)
    assert st.a == pytest.approx(1.0, abs=1e-15)
    assert st.b == pytest.approx(0.0099, abs=1e-15)
    assert st.u == pytest.approx(0.01, abs=1e-15)


def test_uniform_standardized_support():
    gen = StandardizedIid(Uniform(-1.0, 1.0))
    n = 400
    comp, _ = gen.row(n).components[0]
    # scaled support is +-sqrt(3/n)
    bound = math.sqrt(3.0 / n)
    assert comp.prob_abs_ge(bound * 1.0000001) == 0.0
    assert comp.prob_abs_ge(bound * 0.5) > 0.0


def test_centered_rows(bernoulli_gen):
    row = bernoulli_gen.row(50).centered()
    for comp, _ in row.components[:1]:
        assert abs(comp.mean()) <= 1e-15


def test_markov_envelope_on_centered_rows(rademacher_gen, uniform_gen):
    for gen in (rademacher_gen, uniform_gen):
        for n in (10, 100, 1000):
            row = gen.row(n)
            st_b = row_statistics(row, 1.0).b
            for eps in (0.01, 0.1, 0.5, 1.0):
                st = row_statistics(row, eps)
                assert st.u <= st_b / (eps * eps) + 1e-12


def test_hypothesis_check_tables(rademacher_gen, bernoulli_gen):
    hyp = hypothesis_check([rademacher_gen.row(n) for n in (10, 100, 1000)], (0.1,), c_target=1.0)
    assert hyp.u_table[0] == (1.0, 1.0, 0.0)
    assert hyp.markov_ok
    assert all(abs(v - 1.0) <= 1e-14 for v in hyp.mv)

    hyp2 = hypothesis_check([bernoulli_gen.row(n) for n in (10, 100, 1000)], (0.5,), c_target=1.0)
    gaps = hyp2.vch_gap
    assert gaps == pytest.approx((0.1, 0.01, 0.001), abs=1e-12)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))

    # eps larger than every atom: U identically zero
    hyp3 = hypothesis_check([rademacher_gen.row(n) for n in (10, 100)], (50.0,))
    assert hyp3.u_table[0] == (0.0, 0.0)


def test_statistics_additive_under_concatenation(rademacher_gen, bernoulli_gen):
    a = rademacher_gen.row(9)
    b = bernoulli_gen.row(16)
    joined = RowSpec(1, a.components + b.components)
    for eps in (0.1, 0.5):
        sa, sb, sj = (row_statistics(r, eps) for r in (a, b, joined))
        assert sj.mv == pytest.approx(sa.mv + sb.mv, rel=1e-14)
        assert sj.a == pytest.approx(sa.a + sb.a, rel=1e-14)
        assert sj.b == max(sa.b, sb.b)
        assert sj.u == max(sa.u, sb.u)


def test_hypothesis_check_validation(rademacher_gen):
    with pytest.raises(ValueError):
        hypothesis_check([], (0.1,))
    with pytest.raises(ValueError):
        hypothesis_check([rademacher_gen.row(n) for n in (100, 10)], (0.1,))
    with pytest.raises(ValueError):
        hypothesis_check([rademacher_gen.row(n) for n in (10, 100)], (-0.1,))


def test_bernoulli_generator_bounds():
    gen = BernoulliPoisson(2.0)
    with pytest.raises(ValueError):
        gen.row(1)  # p = 2 > 1
    row = gen.row(2)
    assert row.components[0][0].atoms[1] == (1.0, 1.0)


def test_explicit_array_lookup(rademacher):
    gen = ExplicitArray((RowSpec(3, ((rademacher, 3),)),))
    assert gen.row(3).k() == 3
    with pytest.raises(ValueError, match="available"):
        gen.row(5)


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 5])
def test_check_row_refuses_what_row_refuses(rademacher_gen, rademacher, n):
    explicit = ExplicitArray((RowSpec(3, ((rademacher, 3),)),))
    for gen in (rademacher_gen, BernoulliPoisson(2.0), explicit):
        try:
            gen.row(n)
        except ValueError as exc:
            with pytest.raises(ValueError) as checked:
                gen.check_row(n)
            assert str(checked.value) == str(exc)
        else:
            gen.check_row(n)


def test_json_round_trip(rademacher_gen, bernoulli_gen, rademacher):
    for gen in (rademacher_gen, bernoulli_gen, ExplicitArray((RowSpec(2, ((rademacher, 2),)),))):
        doc = generator_to_json(gen)
        again = generator_from_json(json.loads(json.dumps(doc)))
        assert generator_to_json(again) == doc


def test_json_errors_carry_pointers():
    with pytest.raises(ArraySpecError, match="/generator"):
        generator_from_json({"base": {}})
    with pytest.raises(ArraySpecError, match="unknown generator"):
        generator_from_json({"generator": "warp"})
    with pytest.raises(ArraySpecError, match="/base/kind"):
        generator_from_json({"generator": "standardized_iid", "base": {"atoms": []}})
    with pytest.raises(ArraySpecError, match="/rows/0"):
        generator_from_json({"generator": "explicit", "rows": [{"n": 1}]})
    with pytest.raises(ArraySpecError, match="/lambda"):
        generator_from_json({"generator": "bernoulli_poisson", "lambda": -1.0})


def test_sampler_determinism(rademacher_gen):
    row = rademacher_gen.row(16)
    a = sample_sums(row, 500, seed=11, stream_id=3)
    b = sample_sums(row, 500, seed=11, stream_id=3)
    c = sample_sums(row, 500, seed=11, stream_id=4)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def _philox(key):
    return np.random.Generator(np.random.Philox(key=np.array([key, 7], dtype=np.uint64)))


def _searchsorted_sample(dist, rng, size):
    """The binary-search inversion that arrayref.sample must reproduce."""
    sites = np.array([x for x, _ in dist.atoms])
    cum = np.cumsum([p for _, p in dist.atoms])
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return sites[np.minimum(idx, len(sites) - 1)]


def _atoms(probs):
    return tuple((float(i) - 0.5 * len(probs), p) for i, p in enumerate(probs))


_many = np.random.default_rng(5).random(200)


@pytest.mark.parametrize(
    "probs",
    [
        (1.0,),
        (0.5, 0.5),
        (0.1, 0.2, 0.3, 0.15, 0.25),
        tuple(_many[:40] / _many[:40].sum()),  # above the comparison cut-off
        tuple(_many / _many.sum()),
        (0.0, 0.5, 0.0, 0.5, 0.0),  # zero-probability atoms, first and last too
        (0.0, 1.0),
        (0.25, 0.25, 0.5 - 0.9e-12),  # sums 1 - 1e-12: the last atom takes the gap
        (0.25, 0.25, 0.5 + 0.9e-12),
    ],
)
@pytest.mark.parametrize("size", [1, 1000, 16384])
def test_finite_discrete_sample_matches_searchsorted(probs, size):
    dist = FiniteDiscrete(_atoms(probs))
    for key in (1, 2, 3):
        got_rng, ref_rng = _philox(key), _philox(key)
        got = sample(dist, got_rng, size)
        ref = _searchsorted_sample(dist, ref_rng, size)
        assert got.tobytes() == ref.tobytes()
        # the same uniforms were consumed: the streams continue in step
        assert got_rng.random() == ref_rng.random()
    zero = [x for x, p in dist.atoms if p == 0.0]
    if zero:
        assert not np.isin(sample(dist, _philox(9), 20000), zero).any()


def test_gaussian_sampler_moments():
    g = Gaussian(2.0, 9.0)
    s = g.sample(np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64))), 200_000)
    assert np.isfinite(s).all()
    assert s.mean() == pytest.approx(2.0, abs=0.05)
    assert s.var() == pytest.approx(9.0, rel=0.02)


# ---------------------------------------------------------------------------
# Grouped rows against direct sums over the flat component list
# ---------------------------------------------------------------------------

# every draw builds a fresh object, so equal values repeat as distinct objects
_POOL = (
    lambda: FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5))),
    lambda: FiniteDiscrete(((0.0, 0.7), (2.0, 0.3))),
    lambda: FiniteDiscrete(((0.0, 0.9), (1.0, 0.1))),
    lambda: FiniteDiscrete(((-0.5, 0.2), (0.25, 0.5), (3.0, 0.3))),
    lambda: Gaussian(0.5, 2.0),
    lambda: Gaussian(0.0, 0.25),
    lambda: Uniform(-1.0, 3.0),
    lambda: Uniform(-0.5, 0.5),
)
flat_rows = st.lists(st.sampled_from(_POOL).map(lambda make: make()), min_size=1, max_size=40)
epsilons = st.sampled_from((0.05, 0.3, 0.5, 1.0, 2.5))
GROUPED = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@GROUPED
@given(flat_rows, epsilons)
def test_grouped_row_matches_flat_sums(flat, eps):
    row = RowSpec(len(flat), [(c, 1) for c in flat])
    assert row.k() == len(flat)
    assert [c for c, _ in row.components] == list(dict.fromkeys(flat))  # first-appearance order

    stats = row_statistics(row, eps)
    assert stats.u == max(d.prob_abs_ge(eps) for d in flat)
    assert stats.b == max(d.var() for d in flat)
    assert stats.mv == pytest.approx(math.fsum(d.var() for d in flat), rel=1e-12)
    scale = math.fsum(abs(d.mean()) for d in flat)
    assert abs(stats.a - math.fsum(d.mean() for d in flat)) <= 1e-12 * scale

    gauss = math.fsum(d.tail_m2(0.0, eps, inclusive=True) for d in flat)
    pois = math.fsum(d.shifted(d.mean()).tail_m2(1.0, eps) for d in flat)
    assert lindeberg_gaussian(row, eps) == pytest.approx(gauss, rel=1e-12)
    assert lindeberg_poisson(row, eps) == pytest.approx(pois, rel=1e-12)

    m2 = math.fsum(d.second_moment() for d in flat)
    var = math.fsum(d.var() for d in flat)
    assert build_accum(row, center=False).total_mass == pytest.approx(m2, rel=1e-12)
    assert build_accum(row, center=True).total_mass == pytest.approx(var, rel=1e-12)


@GROUPED
@given(st.lists(flat_rows, min_size=1, max_size=3))
def test_explicit_json_grouping_is_a_fixed_point(flats):
    doc = {
        "generator": "explicit",
        "rows": [
            {"n": i + 1, "components": [component_to_json(c) for c in flat]}
            for i, flat in enumerate(flats)
        ],
    }
    once = generator_to_json(generator_from_json(doc))
    twice = generator_to_json(generator_from_json(json.loads(json.dumps(once))))
    assert json.dumps(twice) == json.dumps(once)
    for raw, grouped in zip(doc["rows"], once["rows"]):
        # the same multiset of components, written out count times each
        assert sorted(map(json.dumps, grouped["components"])) == sorted(map(json.dumps, raw["components"]))


def test_row_rejects_flat_components(rademacher):
    with pytest.raises(ValueError, match="component 0"):
        RowSpec(2, (rademacher, rademacher))
    with pytest.raises(ValueError, match="count must be a positive integer"):
        RowSpec(1, ((rademacher, 0),))
    with pytest.raises(ValueError, match="at least one component"):
        RowSpec(1, ())


def test_equal_components_merge(rademacher):
    twin = FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5)))
    row = RowSpec(5, ((rademacher, 2), (Uniform(0.0, 1.0), 1), (twin, 2)))
    assert row.components == ((rademacher, 4), (Uniform(0.0, 1.0), 1))
    assert row.k() == 5


# ---------------------------------------------------------------------------
# Weighted exponential sums on a u-grid
# ---------------------------------------------------------------------------


def _direct_exp_sums(u, x, w):
    return np.exp(1j * np.outer(u, x)) @ np.asarray(w, dtype=np.float64)


def _frequencies(s):
    values, counts = np.unique(s, return_counts=True)
    return values, counts / s.size


_RNG = np.random.default_rng(11)
_CONTINUOUS = _frequencies(_RNG.normal(size=3000))
_LATTICE = _frequencies(_RNG.binomial(40, 0.3, size=3000).astype(np.float64) - 12.0)
_ARITHMETIC = _parse_u_grid({"start": -5.0, "stop": 5.0, "step": 0.1}, "/u_grid")


@pytest.mark.parametrize(
    "u,data",
    [
        (_ARITHMETIC, _CONTINUOUS),
        (_ARITHMETIC, _LATTICE),
        ((-3.0, -0.7, 0.0, 0.4, 2.5, 11.0), _CONTINUOUS),
        ((1.7,), _LATTICE),
    ],
    ids=["continuous", "lattice", "list-grid", "one-point"],
)
def test_exp_sums_matches_direct_sum(u, data):
    x, w = data
    got = exp_sums(u, x, w)
    assert got.shape == (len(u),)
    assert np.max(np.abs(got - _direct_exp_sums(u, x, w))) <= 1e-12


def test_exp_sums_reseeding_bounds_the_drift():
    # angle addition alone drifts by about 1e-16 per step (4e-13 after 1e4
    # steps for one term at x = 0.7); re-seeding every few dozen steps keeps
    # the whole 10001-point grid at the accuracy of a short one
    u = np.linspace(-50.0, 50.0, 10001)
    rng = np.random.default_rng(12)
    x = rng.uniform(-2.0, 2.0, 50)
    w = rng.random(50)
    w /= w.sum()
    assert grid_step(u, 2.0) == pytest.approx(0.01, rel=1e-12)
    assert np.max(np.abs(exp_sums(u, x, w) - _direct_exp_sums(u, x, w))) <= 1e-12
    one = exp_sums(u, [0.7], [1.0])
    assert np.max(np.abs(one - np.exp(0.7j * u))) <= 1e-13


def test_grid_step_tells_arithmetic_grids_apart():
    u = np.asarray(_ARITHMETIC)
    assert grid_step(u, 1e3) == pytest.approx(0.1, rel=1e-12)
    assert grid_step(np.array([-3.0, -0.7, 0.0, 0.4, 2.5]), 1.0) is None
    assert grid_step(np.array([1.7]), 1.0) is None
    # a point off the line by more than 1e-12 of phase at the largest |x|
    bent = u.copy()
    bent[40] += 1e-11
    assert grid_step(bent, 1.0) is None
    assert grid_step(bent, 1e-2) == pytest.approx(0.1, rel=1e-9)

