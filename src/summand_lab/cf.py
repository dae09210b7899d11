"""Closed-form characteristic-function algebra for infinitely decomposable laws.

Every variant evaluates by an explicit non-vanishing closed form, so p-th
roots are computed symbolically per family (parameter rescaling), never via
a numerical complex logarithm; no branch tracking is needed anywhere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .accumulation import AccumMeasure, measure_from_json, measure_to_json
from .arrays import exp_sums


class CharFnError(ValueError):
    """Malformed characteristic-function parameters (rejected at construction)."""


class NoClosedFormRootError(CharFnError):
    """The requested variant has no symbolic p-th root."""


class CharFn:
    """Base class. Instances are immutable values; evaluation is pure."""

    def __call__(self, t: float) -> complex:
        return eval_cf(self, t)


@dataclass(frozen=True)
class Degenerate(CharFn):
    """Point mass at a: e^{iat}."""

    a: float

    def __post_init__(self):
        _require_finite(self.a, "a")


@dataclass(frozen=True)
class GaussianCF(CharFn):
    """exp(imt - var t^2 / 2). var = 0 is allowed and behaves as Degenerate(m)."""

    m: float
    var: float

    def __post_init__(self):
        _require_finite(self.m, "m")
        _require_finite(self.var, "var")
        if self.var < 0.0:
            raise CharFnError(f"variance must be >= 0, got {self.var}")


@dataclass(frozen=True)
class TranslatedPoissonCF(CharFn):
    """Law of a + Poisson(lam): exp(iat + lam(e^{it} - 1))."""

    a: float
    lam: float

    def __post_init__(self):
        _require_finite(self.a, "a")
        if not self.lam > 0.0:
            raise CharFnError(f"lambda must be > 0, got {self.lam}")


@dataclass(frozen=True)
class GammaCF(CharFn):
    """(1 - it/rate)^{-shape}, principal power (the base has real part 1)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not self.shape > 0.0:
            raise CharFnError(f"shape must be > 0, got {self.shape}")
        if not self.rate > 0.0:
            raise CharFnError(f"rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class CauchyCF(CharFn):
    """exp(i loc t - scale |t|)."""

    loc: float
    scale: float

    def __post_init__(self):
        _require_finite(self.loc, "loc")
        if not self.scale > 0.0:
            raise CharFnError(f"scale must be > 0, got {self.scale}")


@dataclass(frozen=True)
class PoissonTypeTerm:
    """One factor exp(i(shift - drift)u + intensity(e^{i site u} - 1))."""

    drift: float
    intensity: float
    site: float
    shift: float = 0.0

    def __post_init__(self):
        if self.intensity < 0.0:
            raise CharFnError(f"intensity must be >= 0, got {self.intensity}")
        if self.site == 0.0:
            raise CharFnError("site must be nonzero")


@dataclass(frozen=True)
class PoissonTypeProduct(CharFn):
    terms: tuple[PoissonTypeTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class KolmogorovCF(CharFn):
    """Canonical finite-variance form exp(i shift u + ∫ g(u,x) dK(x)).

    Evaluation of the integral lives in the exponent module, in closed form:
    atoms through the compensated kernel, continuous pieces through their
    compensated characteristic functions.
    """

    shift: float
    measure: AccumMeasure

    def __post_init__(self):
        _require_finite(self.shift, "shift")


@dataclass(frozen=True)
class ProductCF(CharFn):
    factors: tuple[CharFn, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise CharFnError("product needs at least one factor")


@dataclass(frozen=True)
class PowerCF(CharFn):
    """base^{1/p}; only bases with a symbolic root are representable."""

    base: CharFn
    p: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and self.p >= 1):
            raise CharFnError(f"exponent denominator must be a positive integer, got {self.p}")
        pth_root(self.base, self.p)  # raises NoClosedFormRootError for bad bases


@dataclass(frozen=True)
class ConjugateCF(CharFn):
    base: CharFn


def _require_finite(x: float, name: str) -> None:
    if not math.isfinite(x):
        raise CharFnError(f"{name} must be finite, got {x}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def eval_cf(spec: CharFn, t: float) -> complex:
    """Closed-form evaluation at a real argument."""
    if isinstance(spec, Degenerate):
        return cmath.exp(1j * spec.a * t)
    if isinstance(spec, GaussianCF):
        return cmath.exp(complex(-0.5 * spec.var * t * t, spec.m * t))
    if isinstance(spec, TranslatedPoissonCF):
        return cmath.exp(1j * spec.a * t + spec.lam * (cmath.exp(1j * t) - 1.0))
    if isinstance(spec, GammaCF):
        return (1.0 - 1j * t / spec.rate) ** (-spec.shape)
    if isinstance(spec, CauchyCF):
        return cmath.exp(complex(-spec.scale * abs(t), spec.loc * t))
    if isinstance(spec, PoissonTypeProduct):
        return cmath.exp(complex(product_exponent(spec, (t,))[0]))
    if isinstance(spec, KolmogorovCF):
        from .exponent import exponent_eval  # deferred: exponent imports this module

        val = exponent_eval(spec.measure, t)
        return cmath.exp(1j * spec.shift * t + val)
    if isinstance(spec, ProductCF):
        out = 1.0 + 0.0j
        for f in spec.factors:
            out *= eval_cf(f, t)
        return out
    if isinstance(spec, PowerCF):
        return eval_cf(pth_root(spec.base, spec.p), t)
    if isinstance(spec, ConjugateCF):
        return eval_cf(spec.base, t).conjugate()
    raise TypeError(f"unknown characteristic-function type {type(spec).__name__}")


def product_exponent(spec: PoissonTypeProduct, u_grid) -> np.ndarray:
    """Log of a Poisson-type product on a u-grid, as a complex array:
    sum_j intensity_j (e^{iu site_j} - 1) + iu sum_j (shift_j - drift_j).
    """
    sites = np.array([term.site for term in spec.terms], dtype=np.float64)
    intensities = np.array([term.intensity for term in spec.terms], dtype=np.float64)
    net_shift = math.fsum(term.shift - term.drift for term in spec.terms)
    u = np.asarray(u_grid, dtype=np.float64)
    expo = exp_sums(u, sites, intensities) - math.fsum(intensities)
    # the real part, sum_j intensity_j (cos(u site_j) - 1), is <= 0; summed
    # as two totals it can round a few ulps above, and |product| would pass 1
    np.minimum(expo.real, 0.0, out=expo.real)
    return expo + 1j * net_shift * u


def pth_root(spec: CharFn, p: int) -> CharFn:
    """Symbolic p-th root: the same family with rescaled parameters."""
    if not (isinstance(p, int) and p >= 1):
        raise CharFnError(f"p must be a positive integer, got {p}")
    if isinstance(spec, Degenerate):
        return Degenerate(spec.a / p)
    if isinstance(spec, GaussianCF):
        return GaussianCF(spec.m / p, spec.var / p)
    if isinstance(spec, TranslatedPoissonCF):
        return TranslatedPoissonCF(spec.a / p, spec.lam / p)
    if isinstance(spec, GammaCF):
        return GammaCF(spec.shape / p, spec.rate)
    if isinstance(spec, CauchyCF):
        return CauchyCF(spec.loc / p, spec.scale / p)
    if isinstance(spec, PoissonTypeProduct):
        return PoissonTypeProduct(
            tuple(
                PoissonTypeTerm(t.drift / p, t.intensity / p, t.site, t.shift / p)
                for t in spec.terms
            )
        )
    if isinstance(spec, KolmogorovCF):
        return KolmogorovCF(spec.shift / p, spec.measure.scaled_mass(1.0 / p))
    raise NoClosedFormRootError(
        f"no closed-form root for {type(spec).__name__}; "
        "roots exist for the named families, Poisson-type products, and canonical forms"
    )


def product(factors) -> CharFn:
    """Pointwise product; evaluation multiplies factor values."""
    factors = tuple(factors)
    if not factors:
        raise CharFnError("product needs at least one factor")
    return ProductCF(factors)


def conjugate_and_norm(spec: CharFn) -> tuple[CharFn, CharFn]:
    """(conjugate, |psi|^2 as a product); the norm square is real in [0, 1]."""
    conj = ConjugateCF(spec)
    return conj, ProductCF((spec, conj))


def root_limit_profile(spec: CharFn, t_grid, n_max: int) -> np.ndarray:
    """Deviation table |psi^{1/n}(t) - 1|, shape (n_max, len(t_grid)).

    Row n-1 holds the deviations for the n-th root; the trend toward zero is
    asserted by the test suite.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t_grid = tuple(float(t) for t in t_grid)
    out = np.empty((n_max, len(t_grid)))
    for n in range(1, n_max + 1):
        root = pth_root(spec, n)
        for j, t in enumerate(t_grid):
            out[n - 1, j] = abs(eval_cf(root, t) - 1.0)
    return out


# ---------------------------------------------------------------------------
# JSON schema (documented in docs/SCHEMAS.md)
# ---------------------------------------------------------------------------


def to_json(spec: CharFn) -> dict:
    if isinstance(spec, Degenerate):
        return {"family": "degenerate", "params": {"a": spec.a}}
    if isinstance(spec, GaussianCF):
        return {"family": "gaussian", "params": {"m": spec.m, "var": spec.var}}
    if isinstance(spec, TranslatedPoissonCF):
        return {"family": "translated_poisson", "params": {"a": spec.a, "lambda": spec.lam}}
    if isinstance(spec, GammaCF):
        return {"family": "gamma", "params": {"shape": spec.shape, "rate": spec.rate}}
    if isinstance(spec, CauchyCF):
        return {"family": "cauchy", "params": {"loc": spec.loc, "scale": spec.scale}}
    if isinstance(spec, PoissonTypeProduct):
        return {
            "family": "poisson_type_product",
            "params": {
                "terms": [
                    {"drift": t.drift, "intensity": t.intensity, "site": t.site, "shift": t.shift}
                    for t in spec.terms
                ]
            },
        }
    if isinstance(spec, KolmogorovCF):
        return {
            "family": "kolmogorov",
            "params": {"shift": spec.shift, "measure": measure_to_json(spec.measure)},
        }
    if isinstance(spec, ProductCF):
        return {"family": "product", "params": {"factors": [to_json(f) for f in spec.factors]}}
    if isinstance(spec, PowerCF):
        return {"family": "power", "params": {"base": to_json(spec.base), "p": spec.p}}
    if isinstance(spec, ConjugateCF):
        return {"family": "conjugate", "params": {"base": to_json(spec.base)}}
    raise TypeError(f"unknown characteristic-function type {type(spec).__name__}")


def from_json(obj, path: str = "") -> CharFn:
    if not isinstance(obj, dict):
        raise CharFnError(f"{path or '/'}: expected an object")
    family = obj.get("family")
    if family is None:
        raise CharFnError(f"{path}/family: missing required field")
    params = obj.get("params")
    if not isinstance(params, dict):
        raise CharFnError(f"{path}/params: missing or not an object")
    pp = f"{path}/params"
    try:
        if family == "degenerate":
            return Degenerate(float(params["a"]))
        if family == "gaussian":
            return GaussianCF(float(params["m"]), float(params["var"]))
        if family == "translated_poisson":
            return TranslatedPoissonCF(float(params["a"]), float(params["lambda"]))
        if family == "gamma":
            return GammaCF(float(params["shape"]), float(params["rate"]))
        if family == "cauchy":
            return CauchyCF(float(params["loc"]), float(params["scale"]))
        if family == "poisson_type_product":
            return PoissonTypeProduct(
                tuple(
                    PoissonTypeTerm(
                        float(t["drift"]), float(t["intensity"]), float(t["site"]),
                        float(t.get("shift", 0.0)),
                    )
                    for t in params["terms"]
                )
            )
        if family == "kolmogorov":
            return KolmogorovCF(
                float(params["shift"]), measure_from_json(params["measure"], f"{pp}/measure")
            )
        if family == "product":
            return ProductCF(
                tuple(from_json(f, f"{pp}/factors/{i}") for i, f in enumerate(params["factors"]))
            )
        if family == "power":
            return PowerCF(from_json(params["base"], f"{pp}/base"), int(params["p"]))
        if family == "conjugate":
            return ConjugateCF(from_json(params["base"], f"{pp}/base"))
    except KeyError as exc:
        raise CharFnError(f"{pp}/{exc.args[0]}: missing required field") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, CharFnError):
            raise
        raise CharFnError(f"{pp}: {exc}") from exc
    raise CharFnError(f"{path}/family: unknown family {family!r}")
