"""Limit exponent: kernel, closed-form evaluation on grids against the scalar
reference in cfref, curvature, Poisson-type products."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from summand_lab import (
    FiniteDiscrete,
    Gaussian,
    MeshRefinementError,
    RowSpec,
    Uniform,
    build_accum,
    curvature_check,
    eval_cf,
    exponent_eval,
    limit_char_fn,
    poisson_product_approx,
)
from summand_lab.accumulation import AccumMeasure
from summand_lab.cf import Degenerate, GaussianCF, TranslatedPoissonCF

import cfref
from cfref import compensated_kernel


def mixed_measure():
    coin = FiniteDiscrete(((-0.6, 0.5), (0.6, 0.5)))
    row = RowSpec(7, ((coin, 2), (Uniform(-1.0, 1.0), 1)))
    return build_accum(row, center=False)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_removable_singularity():
    assert compensated_kernel(2.0, 0.0) == complex(-2.0, 0.0)
    assert compensated_kernel(0.0, 3.7) == 0.0


def test_kernel_direct_value():
    # (e^{i pi} - 1 - i pi) / 1
    v = compensated_kernel(math.pi, 1.0)
    assert v.real == pytest.approx(-2.0, abs=1e-15)
    assert v.imag == pytest.approx(-math.pi, abs=1e-15)


KERNEL_ORACLES = [
    # frozen at 50-digit precision
    (0.01, 0.01, -4.9999999958333335429e-05, -1.6666666658333334723e-09),
    (1.0, 1e-08, -0.49999999999999999583, -1.6666666666666666932e-09),
    (3.0, 0.7, -3.0711144991833827093, -2.5240625170431146648),
    (5.0, -1.3, -0.013853475900577838036, 3.7188639123740734033),
]


@pytest.mark.parametrize("u,x,re,im", KERNEL_ORACLES)
def test_kernel_against_high_precision(u, x, re, im):
    v = compensated_kernel(u, x)
    assert v.real == pytest.approx(re, rel=1e-13, abs=1e-18)
    assert v.imag == pytest.approx(im, rel=1e-13, abs=1e-18)


def test_kernel_tiny_site():
    # x^2 underflows to 0 here; the kernel is -u^2/2 to double rounding
    assert compensated_kernel(2.0, 1e-300) == pytest.approx(-2.0, abs=1e-15)


def test_kernel_branches_agree_near_switch():
    for u, x in ((1.0, 0.499), (1.0, 0.501)):
        series_side = compensated_kernel(u, x)
        direct = (cmath.exp(1j * u * x) - 1 - 1j * u * x) / (x * x)
        assert abs(series_side - direct) <= 1e-9 * abs(u * u)


# ---------------------------------------------------------------------------
# exponent evaluation
# ---------------------------------------------------------------------------


def test_dirac_zero_gives_parabola():
    m = AccumMeasure(atoms=((0.0, 1.0),))
    for u in (-3.0, 0.0, 0.5, 3.0):
        assert exponent_eval(m, u) == complex(-0.5 * u * u, 0.0)


def test_scaled_dirac_one_closed_form():
    ev = exponent_eval(AccumMeasure(atoms=((1.0, 2.0),)), 1.0)
    # 2 (e^i - 1 - i), frozen at 50 digits
    assert ev.real == pytest.approx(-0.9193953882637205652, abs=1e-15)
    assert ev.imag == pytest.approx(-0.31705803038420698669, abs=1e-15)


def test_gaussian_piece_cancels_nothing_at_large_u():
    # a centred piece gives e^{-vu^2/2} - 1; adding Re z = -vu^2/2 = -1600
    # back to e^z - 1 - z, as the reference does, is off by about 1e-13 here
    m = AccumMeasure(pieces=((1.0, Gaussian(0.0, 8.0)),))
    assert exponent_eval(m, 20.0) == -1.0
    assert eval_cf(limit_char_fn(m, 0.0), 20.0) == math.exp(-1.0)
    assert abs(cfref.exponent_eval(m, 20.0) + 1.0) > 1e-14
    # off centre: e^{imu - vu^2/2} - 1 - imu
    m = AccumMeasure(pieces=((1.0, Gaussian(0.5, 8.0)),))
    want = cmath.exp(complex(-1600.0, 10.0)) - 1.0 - 10j
    assert abs(exponent_eval(m, 20.0) - want) <= 1e-15 * abs(want)


def test_off_centre_piece_keeps_its_real_part_past_cu_of_1e154():
    # a piece centred at c = 1 so narrow that e^{-vu^2/2} = 0 at cu = 1e200:
    # E[e^{iuX} - 1 - iuX] = -e^{icu} + (e^{icu} - 1 - icu) = -1 - icu, whose
    # real part is lost if phi2(icu)'s, (1 - cos cu) / (cu)^2, underflows
    psi = exponent_eval(AccumMeasure(pieces=((1.0, Gaussian(1.0, 1e-300)),)), 1e200)
    assert psi.real == pytest.approx(-1.0, rel=1e-12)
    assert psi.imag == -1e200


def test_exponent_zero_is_exact():
    for m in (mixed_measure(), AccumMeasure(atoms=((1.0, 3.0),))):
        assert exponent_eval(m, 0.0) == 0.0


def test_continuous_measure_against_quadrature_oracle():
    m = mixed_measure()

    def oracle(u):
        atoms = sum(mass * compensated_kernel(u, s) for s, mass in m.atoms)
        re, _ = quad(lambda y: (math.cos(u * y) - 1.0) * 0.5, -1, 1, limit=400)
        im, _ = quad(lambda y: (math.sin(u * y) - u * y) * 0.5, -1, 1, limit=400)
        return atoms + complex(re, im)

    for u in (0.5, 1.7, 5.0, -3.3):
        assert abs(exponent_eval(m, u) - oracle(u)) <= 1e-9


def test_exponent_invariants_on_grid():
    m = mixed_measure()
    for u in [x / 2 for x in range(-10, 11)]:
        psi = exponent_eval(m, u)
        assert abs(psi) <= 0.5 * u * u * m.total_mass + 1e-9
        assert abs(exponent_eval(m, -u) - psi.conjugate()) <= 2e-6
        assert abs(cmath.exp(psi)) <= 1.0 + 1e-10
    assert cmath.exp(exponent_eval(m, 0.0)) == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# properties of Psi on random measures
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_masses = st.floats(1e-3, 2.0)
_atoms = st.lists(
    st.tuples(st.floats(-3.0, 3.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3), _masses),
    max_size=3,
)
_gaussians = st.builds(Gaussian, st.floats(-3.0, 3.0), st.floats(1e-4, 4.0))
# narrow widths with an offset lo give the narrow off-centre uniforms
_uniforms = st.builds(
    lambda lo, width: Uniform(lo, lo + width),
    st.floats(-3.0, 3.0),
    st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 4.0)),
)
_pieces = st.lists(st.tuples(_masses, st.one_of(_gaussians, _uniforms)), max_size=3)
measures = st.builds(
    lambda atoms, pieces: AccumMeasure(atoms=tuple(atoms), pieces=tuple(pieces)), _atoms, _pieces
).filter(lambda m: m.total_mass > 0.0)
us = st.floats(-50.0, 50.0)


def quad_oracle(m: AccumMeasure, u: float) -> complex:
    """Psi(u) with every piece integrated against its density by scipy quad."""
    if u == 0.0:
        return 0j
    value = 0j
    for x, mass in m.atoms:
        if x == 0.0:
            value += -0.5 * u * u * mass
        else:
            value += mass * complex(math.cos(u * x) - 1.0, math.sin(u * x) - u * x) / (x * x)
    for w, d in m.pieces:
        if isinstance(d, Gaussian):
            sd = math.sqrt(d.v)
            lo, hi = d.m - 12.0 * sd, d.m + 12.0 * sd

            def pdf(y, d=d, sd=sd):
                return math.exp(-0.5 * ((y - d.m) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        else:
            lo, hi = d.lo, d.hi

            def pdf(y, d=d):
                return 1.0 / (d.hi - d.lo)
        opts = {"epsabs": 1e-13, "limit": 200}
        re = quad(pdf, lo, hi, weight="cos", wvar=u, **opts)[0] - 1.0
        im = quad(pdf, lo, hi, weight="sin", wvar=u, **opts)[0] - u * d.mean()
        value += w * complex(re, im)
    return value


@PROPERTY_SETTINGS
@given(measures, us)
def test_psi_invariants(m, u):
    assert exponent_eval(m, 0.0) == 0.0
    psi = exponent_eval(m, u)
    assert abs(exponent_eval(m, -u) - psi.conjugate()) <= 1e-12
    # |exp Psi| = exp(Re Psi)
    assert psi.real <= 0.0


@PROPERTY_SETTINGS
@given(measures, st.lists(us, min_size=1, max_size=12).map(np.array))
def test_psi_grid_invariants(m, u):
    grid = np.concatenate(([0.0], u, -u))
    psi = exponent_eval(m, grid)
    assert psi.shape == grid.shape
    assert psi[0] == 0.0
    assert np.array_equal(psi[1 + u.size:], np.conj(psi[1:1 + u.size]))
    assert np.all(np.abs(np.exp(psi)) <= 1.0 + 1e-15)


@PROPERTY_SETTINGS
@given(measures, st.lists(st.one_of(us, st.sampled_from([0.0, 1e-8, -1e-8])), max_size=12))
def test_psi_grid_matches_the_scalar_reference(m, u):
    psi = exponent_eval(m, u)
    assert psi.shape == (len(u),)
    for t, value in zip(u, psi.tolist()):
        ref = cfref.exponent_eval(m, t)
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref), cfref.cancelled(m, t))
        assert exponent_eval(m, t) == value


@PROPERTY_SETTINGS
@given(measures)
def test_psi_curvature_property(m):
    cv = curvature_check(m)
    assert abs(cv.second_difference - cv.target) <= 1e-6 * abs(cv.target)


@PROPERTY_SETTINGS
@given(measures, us)
def test_psi_against_quad_oracle(m, u):
    assert abs(exponent_eval(m, u) - quad_oracle(m, u)) <= 1e-9


_discretes = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 1.0)),
                      min_size=1, max_size=3).map(
    lambda atoms: FiniteDiscrete(tuple((x, w / math.fsum(w for _, w in atoms)) for x, w in atoms)))
_groups = st.tuples(st.one_of(_discretes, _gaussians, _uniforms), st.integers(1, 3))
# below and above COLUMNAR_MIN_GROUPS, so both ways of build_accum run
rows = st.one_of(st.lists(_groups, min_size=1, max_size=12),
                 st.lists(_groups, min_size=32, max_size=40)).map(
    lambda groups: RowSpec(7, tuple(groups)))


@PROPERTY_SETTINGS
@given(rows, st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=12).map(np.array))
def test_psi_of_a_centred_row_is_its_accompanying_exponent(row, u):
    # K_n of the centred row gives Psi = sum over groups of count (f(u) - 1):
    # exp Psi is the product of the Poisson-type characteristic functions
    # e^{count (f(u) - 1)}, the row's accompanying infinitely divisible law
    t = row.table.centered
    want = (t.count * (t.cf(u) - 1.0)).sum(-1)
    psi = exponent_eval(build_accum(row, center=True), u)
    assert np.all(np.abs(psi - want) <= 1e-13 * np.maximum(1.0, np.abs(psi)))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_curvature_dirac_zero_exact():
    cv = curvature_check(AccumMeasure(atoms=((0.0, 1.0),)))
    assert cv.second_difference == -1.0
    assert cv.target == -1.0


def test_curvature_scaled_dirac_one():
    cv = curvature_check(AccumMeasure(atoms=((1.0, 1.0),)))
    assert cv.second_difference == pytest.approx(-1.0, abs=1e-8)


def test_curvature_empty_measure():
    cv = curvature_check(AccumMeasure())
    assert cv.second_difference == 0.0
    assert cv.target == 0.0


# ---------------------------------------------------------------------------
# Poisson-type product approximation
# ---------------------------------------------------------------------------


def test_single_atom_cell_is_exact():
    lam = 1.7
    m = AccumMeasure(atoms=((1.0, lam),))
    prod, sup_err = poisson_product_approx(m, 2.0, (-2.0, 0.0, 2.0))
    assert len(prod.terms) == 1
    t = prod.terms[0]
    assert t.site == 1.0
    assert t.intensity == pytest.approx(lam, rel=1e-15)
    assert t.drift == pytest.approx(lam, rel=1e-15)
    assert sup_err([x / 4 for x in range(-20, 21)]) <= 1e-13


def test_empty_measure_empty_product():
    prod, sup_err = poisson_product_approx(AccumMeasure(), 1.0, (-1.0, 0.0, 1.0))
    assert prod.terms == ()
    assert sup_err((0.5, 1.0)) == 0.0


def test_atomic_measure_tags_hit_atoms(rademacher_gen):
    n = 16
    m = build_accum(rademacher_gen.row(n), center=False)
    prod, sup_err = poisson_product_approx(m, 1.0, (-1.0, 0.0, 1.0))
    sites = sorted(t.site for t in prod.terms)
    assert sites == [-0.25, 0.25]
    assert sup_err([x / 4 for x in range(-20, 21)]) <= 1e-13


def test_refinement_chain_monotone_on_continuous_measure():
    m = AccumMeasure(pieces=((1.0, Uniform(-1.0, 1.0)),))
    grid = [x / 5 for x in range(-25, 26)]
    errs = []
    for cells in (8, 32, 128):
        mesh = [-1.0 + 2.0 * i / cells for i in range(cells + 1)]
        _, sup_err = poisson_product_approx(m, 1.0, mesh)
        errs.append(sup_err(grid))
    assert errs[0] > errs[1] > errs[2]


def _product_per_u(prod, u):
    """The scalar reference: the product's exponent summed term by term."""
    expo = 0j
    for term in prod.terms:
        expo += 1j * (term.shift - term.drift) * u
        expo += term.intensity * (cmath.exp(1j * term.site * u) - 1.0)
    return cmath.exp(expo)


@pytest.mark.parametrize("cells", [48, 768])
def test_sup_error_matches_per_u_product(cells):
    m = AccumMeasure(atoms=((-0.6, 0.36), (0.6, 0.36)), pieces=((1.0, Uniform(-1.0, 1.0)),))
    mesh = [-1.5 + 3.0 * i / cells for i in range(cells + 1)]
    prod, sup_err = poisson_product_approx(m, 1.5, mesh)
    for grid in (tuple(-5.0 + 0.1 * i for i in range(101)), (-4.2, -0.3, 0.0, 1.1, 3.7)):
        want = max(abs(_product_per_u(prod, u) - cmath.exp(exponent_eval(m, u))) for u in grid)
        assert sup_err(grid) == pytest.approx(want, abs=1e-12)
        # a target computed once per grid gives the same error as computing it inside
        target = np.exp(exponent_eval(m, grid))
        assert list(target) == [cmath.exp(exponent_eval(m, u)) for u in grid]
        assert sup_err(grid, target) == sup_err(grid)
        with pytest.raises(ValueError, match="target has shape"):
            sup_err(grid, target[:1])
        for u in grid[::7]:
            assert abs(eval_cf(prod, u) - _product_per_u(prod, u)) <= 1e-12


def test_balanced_straddling_cell_rejected(rademacher_gen):
    m = build_accum(rademacher_gen.row(4), center=False)  # atoms at +-0.5
    with pytest.raises(MeshRefinementError, match="refine mesh"):
        poisson_product_approx(m, 1.0, (-1.0, 1.0))


def test_atom_at_zero_rejected():
    with pytest.raises(MeshRefinementError):
        poisson_product_approx(AccumMeasure(atoms=((0.0, 1.0),)), 1.0, (-1.0, 0.0, 1.0))


def test_mesh_validation():
    m = AccumMeasure(atoms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        poisson_product_approx(m, 2.0, (-2.0,))
    with pytest.raises(ValueError):
        poisson_product_approx(m, 2.0, (-2.0, -2.0, 2.0))
    with pytest.raises(ValueError):
        poisson_product_approx(m, 2.0, (-1.0, 0.0, 2.0))


# ---------------------------------------------------------------------------
# limit characteristic functions
# ---------------------------------------------------------------------------


def test_limit_cf_std_gaussian():
    cf = limit_char_fn(AccumMeasure(atoms=((0.0, 1.0),)), 0.0)
    ref = GaussianCF(0.0, 1.0)
    for u in (-4.0, -0.5, 0.0, 1.0, 3.0):
        assert abs(eval_cf(cf, u) - eval_cf(ref, u)) <= 1e-12


def test_limit_cf_translated_poisson():
    b, lam = -1.0, 2.0
    cf = limit_char_fn(AccumMeasure(atoms=((1.0, lam),)), b + lam)
    ref = TranslatedPoissonCF(b, lam)
    for u in (-3.0, 0.0, 0.7, 2.0):
        assert abs(eval_cf(cf, u) - eval_cf(ref, u)) <= 1e-12


def test_limit_cf_empty_measure_is_degenerate():
    cf = limit_char_fn(AccumMeasure(), 1.5)
    ref = Degenerate(1.5)
    for u in (-2.0, 0.0, 3.0):
        assert eval_cf(cf, u) == eval_cf(ref, u)
