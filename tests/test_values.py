"""The immutable value classes: construction, equality, hash, repr, and
immutability, as a frozen dataclass of the same fields has them."""

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from summand_lab import (
    AccumMeasure,
    BernoulliPoisson,
    CauchyCF,
    ConjugateCF,
    Degenerate,
    ExplicitArray,
    FiniteDiscrete,
    GammaCF,
    Gaussian,
    GaussianCF,
    KolmogorovCF,
    PoissonTypeProduct,
    PoissonTypeTerm,
    PowerCF,
    ProductCF,
    RowSpec,
    SimulationPlan,
    StandardizedIid,
    ToleranceConfig,
    TranslatedPoissonCF,
    Uniform,
    curvature_check,
    gaussian_verdict,
    preweak_distance,
)
from summand_lab.arrays import ArrayGenerator, ComponentDist
from summand_lab.cf import CharFn
from summand_lab.config import Value
from summand_lab.montecarlo import SimResult, std_gaussian_limit, tally

_COIN = FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5)))
_MEASURE = AccumMeasure(atoms=((1.0, 2.0),))
_VERDICT = gaussian_verdict(StandardizedIid(_COIN), [10, 100], [0.5])


def _plan():
    return SimulationPlan(StandardizedIid(_COIN), [10], 100, 3, [0.5, 1.0], std_gaussian_limit())


#: class name -> (a factory of one instance, its fields in declaration order)
VALUES = {
    "PreweakDistance": (lambda: preweak_distance([_MEASURE], _MEASURE, [0.5])[0],
                        ("sup_deviation", "mass_gap")),
    "FiniteDiscrete": (lambda: _COIN, ("atoms",)),
    "Gaussian": (lambda: Gaussian(0.0, 1.0), ("m", "v")),
    "Uniform": (lambda: Uniform(0.0, 1.0), ("lo", "hi")),
    "StandardizedIid": (lambda: StandardizedIid(_COIN), ("base",)),
    "BernoulliPoisson": (lambda: BernoulliPoisson(2.0), ("lam",)),
    "ExplicitArray": (lambda: ExplicitArray([RowSpec(3, ((_COIN, 3),))]), ("rows",)),
    "HypothesisReport": (lambda: _VERDICT.hypothesis, (
        "n_list", "eps_list", "mv", "b", "a", "sup_mv", "c_target", "vch_gap", "u_table",
        "markov_bound", "markov_ok", "uan_final", "uan_ok", "vch_ok")),
    "Degenerate": (lambda: Degenerate(0.0), ("a",)),
    "GaussianCF": (lambda: GaussianCF(0.0, 1.0), ("m", "var")),
    "TranslatedPoissonCF": (lambda: TranslatedPoissonCF(-1.0, 1.0), ("a", "lam")),
    "GammaCF": (lambda: GammaCF(2.0, 0.5), ("shape", "rate")),
    "CauchyCF": (lambda: CauchyCF(0.0, 1.0), ("loc", "scale")),
    "PoissonTypeTerm": (lambda: PoissonTypeTerm(0.0, 1.0, 2.0),
                        ("drift", "intensity", "site", "shift")),
    "PoissonTypeProduct": (lambda: PoissonTypeProduct([PoissonTypeTerm(0.0, 1.0, 2.0)]),
                           ("terms",)),
    "KolmogorovCF": (lambda: KolmogorovCF(0.5, _MEASURE), ("shift", "measure")),
    "ProductCF": (lambda: ProductCF([Degenerate(1.0), GaussianCF(0.0, 1.0)]), ("factors",)),
    "PowerCF": (lambda: PowerCF(GaussianCF(0.0, 1.0), 2), ("base", "p")),
    "ConjugateCF": (lambda: ConjugateCF(CauchyCF(1.0, 1.0)), ("base",)),
    "ToleranceConfig": (lambda: ToleranceConfig(), ("structural", "exact_stat", "coarse_stat")),
    "TrendCheck": (lambda: _VERDICT.checks[0],
                   ("code", "label", "values", "tol", "final_ok", "monotone_ok")),
    "VerdictReport": (lambda: _VERDICT, (
        "task", "n_list", "eps_list", "hypothesis", "columns", "series", "checks", "passed",
        "reasons", "predicted_limit", "accum_measure")),
    "CurvatureCheck": (lambda: curvature_check(_MEASURE), ("second_difference", "target")),
    "Tally": (lambda: tally([2.0, 1.0, 2.0]), ("values", "counts", "size")),
    "NamedLimit": (lambda: std_gaussian_limit(), ("label", "cf", "cdf", "lattice")),
    "SimulationPlan": (_plan, ("generator", "n_list", "samples_per_n", "seed", "u_grid", "limit")),
    "SimResult": (lambda: SimResult(10, 0.25, 0.125, 100, 3),
                  ("n", "ks", "ecf", "samples_per_n", "seed")),
}
#: a dict or an array among the fields: hashing raises, as for the dataclass
UNHASHABLE = {"VerdictReport", "Tally"}


def _subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


def test_every_value_class_is_covered():
    bases = {CharFn, ComponentDist, ArrayGenerator}
    assert {c.__name__ for c in _subclasses(Value) - bases} == set(VALUES)
    assert len(VALUES) == 27


def _as_dataclass(value):
    """A frozen dataclass of the value's class name and fields, holding its
    field values: what the class was before it was a Value."""
    cls = dataclasses.make_dataclass(type(value).__name__, list(vars(value)), frozen=True)
    return cls(**vars(value))


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_behaves_as_a_frozen_dataclass(name):
    make, fields = VALUES[name]
    value = make()
    assert type(value).__name__ == name
    assert tuple(vars(value)) == fields
    again = type(value)(**vars(value))
    assert again == value and not again != value
    assert copy.copy(value) == value
    assert repr(value) == repr(_as_dataclass(value))
    # another value class holding the same fields is not equal
    other = object.__new__(Degenerate if name != "Degenerate" else Gaussian)
    vars(other).update(vars(value))
    assert value != other and other != value
    assert value != tuple(vars(value).values())
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(again) == hash(_as_dataclass(value))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(vars(value)) == fields


def test_equality_needs_the_same_type():
    assert Gaussian(0.0, 1.0) != Uniform(0.0, 1.0)
    assert GaussianCF(0.0, 1.0) != Degenerate(0.0)
    assert Gaussian(0.0, 1.0) == Gaussian(0, 1)
    assert hash(Gaussian(0.0, 1.0)) == hash(Gaussian(0, 1)) == hash((0.0, 1.0))
    assert len({Gaussian(0.0, 1.0), Uniform(0.0, 1.0), Gaussian(0.0, 1.0)}) == 2


def test_reprs_are_the_dataclass_text():
    assert repr(Gaussian(0.0, 1.0)) == "Gaussian(m=0.0, v=1.0)"
    assert repr(_COIN) == "FiniteDiscrete(atoms=((-1.0, 0.5), (1.0, 0.5)))"
    assert repr(StandardizedIid(Uniform(-1, 1))) == "StandardizedIid(base=Uniform(lo=-1.0, hi=1.0))"
    assert repr(PoissonTypeTerm(0.0, 1.0, 2.0)) == (
        "PoissonTypeTerm(drift=0.0, intensity=1.0, site=2.0, shift=0.0)")
    assert repr(ToleranceConfig(exact_stat=0.1)) == (
        "ToleranceConfig(structural=1e-12, exact_stat=0.1, coarse_stat=0.01)")
    assert repr(PowerCF(GaussianCF(0.0, 1.0), 2)) == "PowerCF(base=GaussianCF(m=0.0, var=1.0), p=2)"


def test_cli_import_does_not_load_dataclasses():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, summand_lab.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
