"""Characteristic-function algebra: closed forms, roots, products, JSON, and the
grid evaluation against the scalar reference in cfref."""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from summand_lab import (
    CauchyCF,
    CharFnError,
    ConjugateCF,
    Degenerate,
    GammaCF,
    GaussianCF,
    KolmogorovCF,
    NoClosedFormRootError,
    PoissonTypeProduct,
    PoissonTypeTerm,
    PowerCF,
    ProductCF,
    TranslatedPoissonCF,
    eval_cf,
    pth_root,
)
from summand_lab.accumulation import AccumMeasure
from summand_lab.arrays import Gaussian, Uniform
from summand_lab.cf import FAMILIES as REGISTRY, CharFn, from_json, to_json

import cfref
from cfref import conjugate_and_norm, root_limit_profile
from grids import standard_t_grid

FAMILIES = [
    Degenerate(2.5),
    GaussianCF(0.3, 1.7),
    TranslatedPoissonCF(-0.5, 2.0),
    GammaCF(3.0, 2.0),
    CauchyCF(1.0, 2.0),
]

ALL_SPECS = FAMILIES + [
    PoissonTypeProduct((PoissonTypeTerm(0.5, 1.2, -0.7, 0.1), PoissonTypeTerm(0.0, 0.4, 1.5))),
    KolmogorovCF(0.3, AccumMeasure(atoms=((1.0, 2.0),))),
    ProductCF((GaussianCF(0.0, 1.0), CauchyCF(0.0, 0.5))),
    PowerCF(GammaCF(3.0, 2.0), 4),
    ConjugateCF(TranslatedPoissonCF(1.0, 0.7)),
]

GRID = standard_t_grid()


def test_eval_at_zero_is_one():
    for spec in ALL_SPECS:
        assert abs(eval_cf(spec, 0.0) - 1.0) <= 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_grid_invariants(spec):
    for t in GRID:
        v = eval_cf(spec, t)
        assert abs(v) <= 1.0 + 1e-12
        assert abs(eval_cf(spec, -t) - v.conjugate()) <= 1e-12


def test_gaussian_closed_form():
    # exp(-sigma^2 t^2 / 2) at t = 2, unit variance
    assert eval_cf(GaussianCF(0.0, 1.0), 0.0) == 1.0 + 0.0j
    v = eval_cf(GaussianCF(0.0, 1.0), 2.0)
    assert v == pytest.approx(math.exp(-2.0) + 0.0j, abs=1e-12)
    assert math.exp(-2.0) == pytest.approx(0.1353352832366127, abs=1e-16)


def test_translated_poisson_closed_form():
    # exp(lambda (e^{it} - 1)) at t = pi equals exp(-2)
    v = eval_cf(TranslatedPoissonCF(0.0, 1.0), math.pi)
    assert v.real == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert abs(v.imag) <= 1e-12


def test_gaussian_var_zero_aliases_degenerate():
    g = GaussianCF(1.5, 0.0)
    d = Degenerate(1.5)
    for t in GRID[::10]:
        assert eval_cf(g, t) == eval_cf(d, t)


@pytest.mark.parametrize(
    "spec,p,expected",
    [
        (GammaCF(3.0, 2.0), 3, GammaCF(1.0, 2.0)),
        (CauchyCF(1.0, 2.0), 2, CauchyCF(0.5, 1.0)),
        (Degenerate(5.0), 5, Degenerate(1.0)),
        (GaussianCF(1.0, 2.0), 2, GaussianCF(0.5, 1.0)),
        (TranslatedPoissonCF(1.0, 3.0), 3, TranslatedPoissonCF(1.0 / 3.0, 1.0)),
    ],
)
def test_root_parameter_maps_exact(spec, p, expected):
    assert pth_root(spec, p) == expected


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_root_round_trip(spec, p):
    root = pth_root(spec, p)
    for t in GRID:
        assert abs(eval_cf(root, t) ** p - eval_cf(spec, t)) <= 1e-12


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_product_of_p_root_copies(spec):
    p = 3
    prod = ProductCF((pth_root(spec, p),) * p)
    for t in GRID[::5]:
        assert abs(eval_cf(prod, t) - eval_cf(spec, t)) <= 1e-12


def test_root_of_poisson_type_and_kolmogorov():
    prod = PoissonTypeProduct((PoissonTypeTerm(0.6, 1.2, -0.7, 0.3),))
    r = pth_root(prod, 3)
    assert r.terms[0] == PoissonTypeTerm(0.6 / 3, 1.2 / 3, -0.7, 0.3 / 3)
    k = KolmogorovCF(0.9, AccumMeasure(atoms=((1.0, 3.0),)))
    rk = pth_root(k, 3)
    assert rk.shift == pytest.approx(0.3)
    assert rk.measure.total_mass == pytest.approx(1.0)
    for t in GRID[::20]:
        assert abs(eval_cf(rk, t) ** 3 - eval_cf(k, t)) <= 1e-10


def test_no_closed_form_root():
    with pytest.raises(NoClosedFormRootError):
        pth_root(ProductCF((GaussianCF(0.0, 1.0), CauchyCF(0.0, 1.0))), 2)
    with pytest.raises(NoClosedFormRootError):
        PowerCF(ProductCF((GaussianCF(0.0, 1.0),)), 2)
    with pytest.raises(NoClosedFormRootError):
        pth_root(ConjugateCF(GaussianCF(0.0, 1.0)), 2)


def test_power_evaluates_via_symbolic_root():
    pw = PowerCF(GammaCF(3.0, 2.0), 3)
    r = pth_root(GammaCF(3.0, 2.0), 3)
    for t in GRID[::10]:
        assert eval_cf(pw, t) == eval_cf(r, t)


def test_product_rules():
    # two standard normals multiply to variance-2 normal: exp(-t^2)
    prod = ProductCF((GaussianCF(0.0, 1.0), GaussianCF(0.0, 1.0)))
    for t in GRID[::10]:
        assert abs(eval_cf(prod, t) - cmath.exp(-t * t)) <= 1e-12
    single = ProductCF((CauchyCF(0.7, 1.1),))
    for t in (-3.0, 0.0, 2.5):
        assert eval_cf(single, t) == eval_cf(CauchyCF(0.7, 1.1), t)
    degs = ProductCF((Degenerate(1.2), Degenerate(-0.4)))
    for t in (-2.0, 1.0):
        assert abs(eval_cf(degs, t) - cmath.exp(1j * 0.8 * t)) <= 1e-15
    with pytest.raises(CharFnError):
        ProductCF(())


def test_conjugate_and_norm():
    conj, norm2 = conjugate_and_norm(GaussianCF(0.7, 1.3))
    for t in GRID[::10]:
        expected = cmath.exp(complex(-0.5 * 1.3 * t * t, -0.7 * t))
        assert abs(eval_cf(conj, t) - expected) <= 1e-12
    # |Cauchy(a,b)|^2 = exp(-2 b |t|)
    _, norm2 = conjugate_and_norm(CauchyCF(1.0, 2.0))
    for t in GRID[::10]:
        v = eval_cf(norm2, t)
        assert abs(v.imag) <= 1e-14
        assert v.real == pytest.approx(math.exp(-4.0 * abs(t)), abs=1e-12)
        assert -1e-14 <= v.real <= 1.0 + 1e-12
    _, n0 = conjugate_and_norm(TranslatedPoissonCF(0.3, 1.0))
    assert abs(eval_cf(n0, 0.0) - 1.0) <= 1e-14


def test_root_limit_profile_degenerate():
    # |e^{i a t / n} - 1| = 2 |sin(a t / 2n)|
    prof = root_limit_profile(Degenerate(2.0), (0.5, 1.0), 40)
    for n in (1, 5, 40):
        for j, t in enumerate((0.5, 1.0)):
            assert prof[n - 1, j] == pytest.approx(2.0 * abs(math.sin(2.0 * t / (2 * n))), abs=1e-14)
    # monotone decay toward one everywhere
    assert all(prof[i + 1, 1] < prof[i, 1] for i in range(39))


def test_root_limit_profile_gaussian_and_zero():
    prof = root_limit_profile(GaussianCF(0.0, 1.0), (0.0, 1.0), 30)
    assert all(prof[i, 0] == 0.0 for i in range(30))
    for n in (1, 7, 30):
        assert prof[n - 1, 1] == pytest.approx(abs(math.exp(-1.0 / (2 * n)) - 1.0), abs=1e-14)


def test_log_limit_of_scaled_roots():
    # p (psi^{1/p} - 1) converges to the closed-form log exponent
    t = 1.3
    cases = [
        (GaussianCF(0.5, 2.0), complex(-t * t, 0.5 * t)),
        (GammaCF(3.0, 2.0), -3.0 * cmath.log(1 - 0.5j * t)),
        (CauchyCF(1.0, 2.0), complex(-2.0 * abs(t), t)),
        (TranslatedPoissonCF(0.0, 1.5), 1.5 * (cmath.exp(1j * t) - 1)),
        (Degenerate(2.0), 2j * t),
    ]
    for spec, logpsi in cases:
        errs = [abs(p * (eval_cf(pth_root(spec, p), t) - 1.0) - logpsi) for p in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-3


@pytest.mark.parametrize(
    "bad",
    [
        lambda: GaussianCF(0.0, -1.0),
        lambda: TranslatedPoissonCF(0.0, 0.0),
        lambda: GammaCF(0.0, 1.0),
        lambda: GammaCF(1.0, -2.0),
        lambda: CauchyCF(0.0, 0.0),
        lambda: PoissonTypeTerm(0.0, -1.0, 1.0),
        lambda: PoissonTypeTerm(0.0, 1.0, 0.0),
        lambda: PowerCF(GaussianCF(0.0, 1.0), 0),
    ],
)
def test_malformed_parameters_rejected_at_construction(bad):
    with pytest.raises(CharFnError):
        bad()


def test_json_round_trip():
    for spec in ALL_SPECS:
        again = from_json(to_json(spec))
        assert again == spec
        for t in (-2.0, 0.0, 1.5):
            assert eval_cf(again, t) == eval_cf(spec, t)


def test_json_errors_carry_pointers():
    with pytest.raises(CharFnError, match="/family"):
        from_json({"params": {}})
    with pytest.raises(CharFnError, match="unknown family"):
        from_json({"family": "zeta", "params": {}})
    with pytest.raises(CharFnError, match="missing required field"):
        from_json({"family": "gaussian", "params": {"m": 0.0}})


# ---------------------------------------------------------------------------
# JSON round trips on random specs
# ---------------------------------------------------------------------------

_finite = st.floats(-1e6, 1e6)
_positive = st.floats(0.0, 1e6, exclude_min=True)
_gaussian_cfs = st.builds(GaussianCF, _finite, st.floats(0.0, 1e6))
_poisson_cfs = st.builds(TranslatedPoissonCF, _finite, _positive)
_gaussian_pieces = st.builds(Gaussian, st.floats(-10.0, 10.0), st.floats(1e-6, 10.0))
_uniform_pieces = st.builds(lambda lo, width: Uniform(lo, lo + width),
                            st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))
_pieces = st.one_of(_gaussian_pieces, _uniform_pieces)
_measures = st.builds(
    lambda atoms, pieces: AccumMeasure(atoms=tuple(atoms), pieces=tuple(pieces)),
    st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)), max_size=6),
    st.lists(st.tuples(st.floats(0.0, 10.0), _pieces), max_size=3),
)
_kolmogorov_cfs = st.builds(KolmogorovCF, _finite, _measures)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(_gaussian_cfs, _poisson_cfs, _kolmogorov_cfs))
def test_json_round_trip_random_specs(spec):
    text = json.dumps(to_json(spec))
    again = from_json(json.loads(text))
    assert again == spec
    assert json.dumps(to_json(again)) == text


def _subclasses(cls) -> set:
    return {c for sub in cls.__subclasses__() for c in {sub} | _subclasses(sub)}


def test_every_family_goes_through_the_one_registry():
    assert set(REGISTRY.values()) == _subclasses(CharFn)
    assert {type(spec) for spec in ALL_SPECS} == _subclasses(CharFn)
    schemas = (Path(__file__).resolve().parents[1] / "docs" / "SCHEMAS.md").read_text()
    for spec in ALL_SPECS:
        obj = to_json(spec)
        assert REGISTRY[obj["family"]] is type(spec) and obj["family"] == spec.FAMILY
        assert list(obj["params"]) == [key for key, _ in spec.PARAMS]
        assert f"| `{spec.FAMILY}` |" in schemas


# ---------------------------------------------------------------------------
# The grid evaluation against the scalar reference
# ---------------------------------------------------------------------------

_weights = st.floats(1e-3, 10.0)
_mixed_measures = st.builds(
    lambda atoms, gauss, unif: AccumMeasure(atoms=tuple(atoms), pieces=(*gauss, *unif)),
    st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)), min_size=1, max_size=6),
    st.lists(st.tuples(_weights, _gaussian_pieces), min_size=1, max_size=2),
    st.lists(st.tuples(_weights, _uniform_pieces), min_size=1, max_size=2),
)
# u = 0 and |u| = 1e-8 put every atom and piece on the series side of phi2;
# the random u up to 20 reach the direct side
_grids = st.lists(st.floats(-20.0, 20.0), max_size=8).map(
    lambda us: np.array([0.0, 1e-8, -1e-8, *us]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_gaussian_cfs, _poisson_cfs, _kolmogorov_cfs,
                 st.builds(KolmogorovCF, _finite, _mixed_measures)), _grids)
def test_log_cf_and_eval_cf_match_the_scalar_reference(spec, u):
    logs, values = spec.log_cf(u), eval_cf(spec, u)
    assert logs.shape == values.shape == u.shape
    for t, log, value in zip(u.tolist(), logs.tolist(), values.tolist()):
        ref_log = cfref.log_cf(spec, t)
        # the size of the log, or of what the reference's Gaussian form
        # cancels: either sets the reference's own rounding error
        size = max(abs(ref_log), cfref.cancelled(spec.measure, t)
                   if isinstance(spec, KolmogorovCF) else 0.0)
        assert abs(log - ref_log) <= 1e-13 * max(1.0, size)
        # the CF is exp of the log: an ulp of a log of size L moves it by L ulps
        ref = cfref.eval_cf(spec, t)
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref) * size)
        # a scalar is the 0-d case of the grid
        assert eval_cf(spec, t) == value


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_every_family_matches_the_scalar_reference_on_the_grid(spec):
    values = eval_cf(spec, np.array(GRID))
    for t, value in zip(GRID, values.tolist()):
        ref, size = cfref.eval_cf(spec, t), abs(cfref.log_cf(spec, t))
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref) * size)


# ---------------------------------------------------------------------------
# p-th root algebra on random specs
# ---------------------------------------------------------------------------

_loc = st.floats(-10.0, 10.0)
_scale = st.floats(1e-3, 10.0)
_terms = st.builds(
    PoissonTypeTerm,
    st.floats(-5.0, 5.0),
    st.floats(0.0, 5.0),
    st.one_of(st.floats(-3.0, -0.01), st.floats(0.01, 3.0)),
    st.floats(-5.0, 5.0),
)
_small_measures = st.builds(
    lambda atoms, pieces: AccumMeasure(atoms=tuple(atoms), pieces=tuple(pieces)),
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 3.0)), max_size=4),
    st.lists(st.tuples(st.floats(0.0, 3.0), _pieces), max_size=2),
)
_rootable = st.one_of(
    st.builds(Degenerate, _loc),
    st.builds(GaussianCF, _loc, st.floats(0.0, 10.0)),
    st.builds(TranslatedPoissonCF, _loc, _scale),
    st.builds(GammaCF, st.floats(1e-2, 10.0), st.floats(1e-2, 10.0)),
    st.builds(CauchyCF, _loc, _scale),
    st.builds(PoissonTypeProduct, st.lists(_terms, max_size=5).map(tuple)),
    st.builds(KolmogorovCF, st.floats(-5.0, 5.0), _small_measures),
)
_roots = st.integers(1, 6)
_u = st.floats(-20.0, 20.0)
_ROOT_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@_ROOT_SETTINGS
@given(_rootable, _roots, _u)
def test_pth_root_power_recovers_the_cf(spec, p, u):
    assert abs(eval_cf(pth_root(spec, p), u) ** p - eval_cf(spec, u)) <= 1e-12


@_ROOT_SETTINGS
@given(_rootable, _roots, _roots, _u)
def test_nested_roots_compose(spec, p, q, u):
    nested = pth_root(pth_root(spec, p), q)
    assert abs(eval_cf(nested, u) - eval_cf(pth_root(spec, p * q), u)) <= 1e-12


@_ROOT_SETTINGS
@given(_rootable, _roots, _u)
def test_pth_root_is_a_cf_bounded_by_one(spec, p, u):
    # the exponent's real part is <= 0; abs() of e^{iy} itself may round up an ulp
    assert abs(eval_cf(pth_root(spec, p), u)) <= 1.0 + 1e-15
