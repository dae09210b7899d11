"""Accumulation measures: construction, CDF evaluation, pre-weak distances."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from summand_lab import (
    AccumMeasure,
    DiscontinuityPointError,
    FiniteDiscrete,
    Gaussian,
    RowSpec,
    Uniform,
    build_accum,
    preweak_distance,
)
from summand_lab.accumulation import ATOM_MERGE, export_measure_csv, measure_from_json, measure_to_json


def test_rademacher_measure(rademacher_gen):
    n = 4
    m = build_accum(rademacher_gen.row(n), center=False)
    assert m.atoms == ((-0.5, 0.5), (0.5, 0.5))
    assert m.total_mass == 1.0
    assert m.cdf(0.0) == 0.5
    assert m.cdf(10.0) == 1.0
    assert m.cdf(-10.0) == 0.0


def test_bernoulli_centered_measure(bernoulli_gen):
    n = 100
    p = 1.0 / n
    m = build_accum(bernoulli_gen.row(n), center=True)
    sites = dict(m.atoms)
    assert sites[1.0 - p] == pytest.approx(n * p * (1 - p) ** 2, abs=1e-15)
    assert sites[-p] == pytest.approx(n * (1 - p) * p * p, abs=1e-18)
    # mass of (-inf, 0.5] is the negative atom alone: 99 * 1e-4
    assert m.cdf(0.5) == pytest.approx(0.0099, abs=1e-15)
    assert m.total_mass == pytest.approx(1.0 - p, abs=1e-14)


def test_zero_site_atom_dropped():
    row = RowSpec(1, ((FiniteDiscrete(((0.0, 1.0),)), 1),))
    m = build_accum(row, center=False)
    assert m.atoms == ()
    assert m.total_mass == 0.0


def test_total_mass_decomposition():
    coin = FiniteDiscrete(((0.0, 0.7), (2.0, 0.3)))
    g = Gaussian(0.5, 2.0)
    u = Uniform(-1.0, 3.0)
    flat = (coin, coin, g, u, u)
    row = RowSpec(5, tuple((d, 1) for d in flat))
    # independent oracle: sum over components of E X^2 (uncentered), Var (centered)
    m2 = sum(d.second_moment() for d in flat)
    vv = sum(d.var() for d in flat)
    assert build_accum(row, center=False).total_mass == pytest.approx(m2, rel=1e-12)
    assert build_accum(row, center=True).total_mass == pytest.approx(vv, rel=1e-12)


def test_mixed_measure_cdf():
    row = RowSpec(3, ((FiniteDiscrete(((-0.6, 0.5), (0.6, 0.5))), 1), (Uniform(-1.0, 1.0), 1)))
    m = build_accum(row, center=False)
    # uniform piece alone: K(x) = (x^3 + 1) / 6 on [-1, 1]
    assert m.cdf(-0.7) == pytest.approx((-0.343 + 1.0) / 6.0, abs=1e-14)
    assert m.cdf(0.5) == pytest.approx(0.18 + (0.125 + 1.0) / 6.0, abs=1e-14)
    grid = [x / 8 for x in range(-16, 17)]
    vals = [m.cdf(x) for x in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert m.cdf(99.0) == pytest.approx(m.total_mass, rel=1e-14)


def test_atom_merging_and_validation():
    m = AccumMeasure(atoms=((1.0, 0.25), (1.0 + 5e-15, 0.25), (2.0, 0.5)))
    assert len(m.atoms) == 2
    assert m.atoms[0][1] == 0.5
    with pytest.raises(ValueError):
        AccumMeasure(atoms=((0.0, -1.0),))
    with pytest.raises(ValueError):
        AccumMeasure(pieces=((1.0, FiniteDiscrete(((0.0, 1.0),))),))


def test_preweak_rademacher_vs_dirac(rademacher_gen):
    grid = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    limit = AccumMeasure(atoms=((0.0, 1.0),))
    # n = 4 puts atoms exactly at +-0.5: half the mass sits at or below -0.5
    d4 = preweak_distance([build_accum(rademacher_gen.row(4), False)], limit, grid)[0]
    assert d4.sup_deviation == pytest.approx(0.5, abs=1e-15)
    # from n = 5 on, every atom is strictly inside (-0.5, 0.5): deviation is
    # representation dust only (exactly zero whenever 1/sqrt(n) is dyadic)
    for n in range(5, 41):
        d = preweak_distance([build_accum(rademacher_gen.row(n), False)], limit, grid)[0]
        assert d.sup_deviation <= 2.0 ** -50
    d16 = preweak_distance([build_accum(rademacher_gen.row(16), False)], limit, grid)[0]
    assert d16.sup_deviation == 0.0
    assert d16.mass_gap == 0.0


def test_preweak_bernoulli_vs_scaled_dirac(bernoulli_gen):
    limit = AccumMeasure(atoms=((1.0, 1.0),))
    for n in (100, 1000, 10000):
        m = build_accum(bernoulli_gen.row(n), center=True)
        d = preweak_distance([m], limit, (0.5, 1.5))[0]
        assert d.sup_deviation == pytest.approx(1.0 / n, rel=1e-10)
        assert d.sup_deviation <= 3.0 / n
        assert d.mass_gap == pytest.approx(1.0 / n, rel=1e-10)


def test_preweak_self_is_zero(rademacher_gen):
    m = build_accum(rademacher_gen.row(7), center=False)
    d = preweak_distance([m], m, (-0.9, 0.1, 0.9))[0]
    assert d.sup_deviation == 0.0
    assert d.mass_gap == 0.0


ONE_ATOM = settings(max_examples=300, deadline=None, derandomize=True, database=None)
finite = st.floats(allow_nan=False, allow_infinity=False)


@ONE_ATOM
@given(
    st.sampled_from((0.0, 1.0)),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.one_of(finite, st.sampled_from((-1.0, -0.0, 0.0, 1.0, 2.0))),
)
def test_one_atom_measure_is_the_step(s, m, x):
    # dirac_zero and scaled_dirac_one limits: K(x) = m 1_(x >= s), bit for bit
    k = AccumMeasure(atoms=((s, m),))
    assert k.total_mass.hex() == m.hex()
    for y in (x, s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)):
        assert k.cdf(y).hex() == (m if y >= s else 0.0).hex()


def test_discontinuity_grid_rejected(rademacher_gen):
    m = build_accum(rademacher_gen.row(9), center=False)
    with pytest.raises(DiscontinuityPointError):
        preweak_distance([m], AccumMeasure(atoms=((0.0, 1.0),)), (0.0, 1.0))


def test_portmanteau_atom_mass_vanishes(rademacher_gen):
    x = 0.25

    def mass_at(m):
        return math.fsum(mass for s, mass in m.atoms if abs(s - x) <= ATOM_MERGE)

    for n in (17, 33, 100):  # 1/sqrt(n) != 0.25 for these
        assert mass_at(build_accum(rademacher_gen.row(n), center=False)) == 0.0
    assert mass_at(build_accum(rademacher_gen.row(16), center=False)) == 0.5


def test_measure_json_round_trip():
    row = RowSpec(3, ((FiniteDiscrete(((-0.6, 0.5), (0.6, 0.5))), 1), (Gaussian(0.0, 1.0), 1)))
    m = build_accum(row, center=False)
    again = measure_from_json(measure_to_json(m))
    assert again.atoms == m.atoms
    assert again.pieces == m.pieces
    assert again.total_mass == pytest.approx(m.total_mass, rel=1e-15)


def test_export_csv(rademacher_gen):
    m = build_accum(rademacher_gen.row(4), center=False)
    csv_text, header = export_measure_csv(m)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "site,mass"
    assert len(lines) == 3
    assert "\"total_mass\": 1.0" in header
    assert "\"n\": 4" in header
