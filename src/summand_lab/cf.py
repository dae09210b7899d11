"""Closed-form characteristic-function algebra for infinitely decomposable laws.

Each family owns its formula. ``log_cf(u)`` takes a float array and returns
a complex array whose exp is the characteristic function: a closed form,
continuous in u (not the principal logarithm), so nothing needs branch
tracking. p-th roots are computed symbolically per family (parameter
rescaling), never via a numerical complex logarithm. Each family declares
its JSON name and fields, and to_json and from_json read one registry.
"""

from __future__ import annotations

import math
from typing import ClassVar

from ._lazy import np
from .accumulation import AccumMeasure, measure_from_json, measure_to_json
from .arrays import ArraySpecError, complex_array, exp_sums, json_number, refuse_unknown
from .config import Value


class CharFnError(ValueError):
    """Malformed characteristic-function parameters (rejected at construction)."""


class NoClosedFormRootError(CharFnError):
    """The requested variant has no symbolic p-th root."""


class CharFn(Value):
    """Base class. Instances are immutable values; evaluation is pure.

    A family sets FAMILY, its JSON name, and PARAMS, its (JSON key,
    attribute) pairs in JSON order, and has one entry in FAMILIES.
    """

    FAMILY: ClassVar[str]
    PARAMS: ClassVar[tuple[tuple[str, str], ...]]

    def __call__(self, t):
        return eval_cf(self, t)

    def log_cf(self, u: np.ndarray) -> np.ndarray:
        """A complex array, of u's shape, whose exp is the CF at u."""
        raise NotImplementedError

    def root(self, p: int) -> "CharFn":
        """The p-th root as the same family with rescaled parameters."""
        raise NoClosedFormRootError(
            f"no closed-form root for {type(self).__name__}; "
            "roots exist for the named families, Poisson-type products, and canonical forms"
        )

    @classmethod
    def from_params(cls, params: dict, pointer: str) -> "CharFn":
        """The spec of a JSON params object; here, one number per PARAMS pair."""
        return _made(cls, pointer,
                     **{attr: _param(params, key, pointer) for key, attr in cls.PARAMS})


class Degenerate(CharFn):
    """Point mass at a: e^{iau}."""

    FAMILY = "degenerate"
    PARAMS = (("a", "a"),)

    def __init__(self, a: float):
        _require_finite(a, "a")
        vars(self).update(a=a)

    def log_cf(self, u):
        return complex_array(0.0, self.a * u)

    def root(self, p):
        return Degenerate(self.a / p)


class GaussianCF(CharFn):
    """exp(imu - var u^2 / 2). var = 0 is allowed and behaves as Degenerate(m)."""

    FAMILY = "gaussian"
    PARAMS = (("m", "m"), ("var", "var"))

    def __init__(self, m: float, var: float):
        _require_finite(m, "m")
        _require_finite(var, "var")
        if var < 0.0:
            raise CharFnError(f"variance must be >= 0, got {var}")
        vars(self).update(m=m, var=var)

    def log_cf(self, u):
        return complex_array(-0.5 * self.var * u * u, self.m * u)

    def root(self, p):
        return GaussianCF(self.m / p, self.var / p)


class TranslatedPoissonCF(CharFn):
    """Law of a + Poisson(lam): exp(iau + lam(e^{iu} - 1))."""

    FAMILY = "translated_poisson"
    PARAMS = (("a", "a"), ("lambda", "lam"))

    def __init__(self, a: float, lam: float):
        _require_finite(a, "a")
        if not lam > 0.0:
            raise CharFnError(f"lambda must be > 0, got {lam}")
        vars(self).update(a=a, lam=lam)

    def log_cf(self, u):
        return complex_array(self.lam * (np.cos(u) - 1.0), self.a * u + self.lam * np.sin(u))

    def root(self, p):
        return TranslatedPoissonCF(self.a / p, self.lam / p)


class GammaCF(CharFn):
    """(1 - iu/rate)^{-shape}, principal power (the base has real part 1)."""

    FAMILY = "gamma"
    PARAMS = (("shape", "shape"), ("rate", "rate"))

    def __init__(self, shape: float, rate: float):
        if not shape > 0.0:
            raise CharFnError(f"shape must be > 0, got {shape}")
        if not rate > 0.0:
            raise CharFnError(f"rate must be > 0, got {rate}")
        vars(self).update(shape=shape, rate=rate)

    def log_cf(self, u):
        return -self.shape * np.log(complex_array(1.0, -u / self.rate))

    def root(self, p):
        return GammaCF(self.shape / p, self.rate)


class CauchyCF(CharFn):
    """exp(i loc u - scale |u|)."""

    FAMILY = "cauchy"
    PARAMS = (("loc", "loc"), ("scale", "scale"))

    def __init__(self, loc: float, scale: float):
        _require_finite(loc, "loc")
        if not scale > 0.0:
            raise CharFnError(f"scale must be > 0, got {scale}")
        vars(self).update(loc=loc, scale=scale)

    def log_cf(self, u):
        return complex_array(-self.scale * np.abs(u), self.loc * u)

    def root(self, p):
        return CauchyCF(self.loc / p, self.scale / p)


class PoissonTypeTerm(Value):
    """One factor exp(i(shift - drift)u + intensity(e^{i site u} - 1))."""

    #: the fields, which are also the keys of a term's JSON object
    FIELDS = ("drift", "intensity", "site", "shift")

    def __init__(self, drift: float, intensity: float, site: float, shift: float = 0.0):
        if intensity < 0.0:
            raise CharFnError(f"intensity must be >= 0, got {intensity}")
        if site == 0.0:
            raise CharFnError("site must be nonzero")
        vars(self).update(drift=drift, intensity=intensity, site=site, shift=shift)


class PoissonTypeProduct(CharFn):
    FAMILY = "poisson_type_product"
    PARAMS = (("terms", "terms"),)

    def __init__(self, terms: tuple[PoissonTypeTerm, ...]):
        vars(self).update(terms=tuple(terms))

    def log_cf(self, u):
        """sum_j intensity_j (e^{iu site_j} - 1) + iu sum_j (shift_j - drift_j),
        the exponential sums taken by exp_sums over the whole grid."""
        sites = np.array([t.site for t in self.terms], dtype=np.float64)
        intensities = np.array([t.intensity for t in self.terms], dtype=np.float64)
        net_shift = math.fsum(t.shift - t.drift for t in self.terms)
        expo = (exp_sums(u, sites, intensities) - math.fsum(intensities)).reshape(np.shape(u))
        # the real part, sum_j intensity_j (cos(u site_j) - 1), is <= 0; summed
        # as two totals it can round a few ulps above, and |product| would pass 1
        np.minimum(expo.real, 0.0, out=expo.real)
        return expo + 1j * net_shift * u

    def root(self, p):
        return PoissonTypeProduct(tuple(
            PoissonTypeTerm(t.drift / p, t.intensity / p, t.site, t.shift / p) for t in self.terms
        ))

    @classmethod
    def from_params(cls, params, pointer):
        return cls(tuple(_term(t, f"{pointer}/terms/{i}") for i, t in enumerate(params["terms"])))


def _term(obj, pointer: str) -> PoissonTypeTerm:
    """A term's JSON object, whose keys are the term's fields; shift may be
    left out."""
    values = [_param(obj, k, pointer) for k in ("drift", "intensity", "site")]
    refuse_unknown(obj, PoissonTypeTerm.FIELDS, pointer)
    return _made(PoissonTypeTerm, pointer, *values, _param(obj, "shift", pointer, default=0.0))


class KolmogorovCF(CharFn):
    """Canonical finite-variance form exp(i shift u + Psi(u)), with
    Psi(u) = ∫ (e^{iux} - 1 - iux) / x^2 dK(x) from exponent.exponent_eval."""

    FAMILY = "kolmogorov"
    PARAMS = (("shift", "shift"), ("measure", "measure"))

    def __init__(self, shift: float, measure: AccumMeasure):
        _require_finite(shift, "shift")
        vars(self).update(shift=shift, measure=measure)

    def log_cf(self, u):
        from .exponent import exponent_eval  # deferred: exponent imports this module

        return complex_array(0.0, self.shift * u) + exponent_eval(self.measure, u)

    def root(self, p):
        return KolmogorovCF(self.shift / p, self.measure.scaled_mass(1.0 / p))

    @classmethod
    def from_params(cls, params, pointer):
        return cls(_param(params, "shift", pointer),
                   measure_from_json(params["measure"], f"{pointer}/measure"))


class ProductCF(CharFn):
    FAMILY = "product"
    PARAMS = (("factors", "factors"),)

    def __init__(self, factors: tuple[CharFn, ...]):
        factors = tuple(factors)
        if not factors:
            raise CharFnError("product needs at least one factor")
        vars(self).update(factors=factors)

    def log_cf(self, u):
        return sum((f.log_cf(u) for f in self.factors), 0j)

    @classmethod
    def from_params(cls, params, pointer):
        return _made(cls, pointer, tuple(from_json(f, f"{pointer}/factors/{i}")
                                         for i, f in enumerate(params["factors"])))


class PowerCF(CharFn):
    """base^{1/p}; only bases with a symbolic root are representable."""

    FAMILY = "power"
    PARAMS = (("base", "base"), ("p", "p"))

    def __init__(self, base: CharFn, p: int):
        if not (isinstance(p, int) and p >= 1):
            raise CharFnError(f"exponent denominator must be a positive integer, got {p}")
        pth_root(base, p)  # raises NoClosedFormRootError for bad bases
        vars(self).update(base=base, p=p)

    def log_cf(self, u):
        return pth_root(self.base, self.p).log_cf(u)

    @classmethod
    def from_params(cls, params, pointer):
        p = _param(params, "p", pointer, integer=True)
        if p < 1:
            raise CharFnError(f"{pointer}/p: expected an integer >= 1, got {p}")
        return _made(cls, pointer, from_json(params["base"], f"{pointer}/base"), p)


class ConjugateCF(CharFn):
    FAMILY = "conjugate"
    PARAMS = (("base", "base"),)

    def __init__(self, base: CharFn):
        vars(self).update(base=base)

    def log_cf(self, u):
        return np.conj(self.base.log_cf(u))

    @classmethod
    def from_params(cls, params, pointer):
        return cls(from_json(params["base"], f"{pointer}/base"))


#: JSON family name -> class: the one table to_json and from_json read
FAMILIES = {cls.FAMILY: cls for cls in (
    Degenerate, GaussianCF, TranslatedPoissonCF, GammaCF, CauchyCF,
    PoissonTypeProduct, KolmogorovCF, ProductCF, PowerCF, ConjugateCF,
)}


def _require_finite(x: float, name: str) -> None:
    if not math.isfinite(x):
        raise CharFnError(f"{name} must be finite, got {x}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def eval_cf(spec: CharFn, u):
    """The characteristic function at a scalar u or at every point of an
    array u, in u's shape: exp of the family's log_cf."""
    with np.errstate(over="ignore"):  # an overflowing exponent is -inf: exp is 0
        return np.exp(spec.log_cf(np.asarray(u, dtype=np.float64)))[()]


def pth_root(spec: CharFn, p: int) -> CharFn:
    """Symbolic p-th root: the same family with rescaled parameters."""
    if not (isinstance(p, int) and p >= 1):
        raise CharFnError(f"p must be a positive integer, got {p}")
    return spec.root(p)


# ---------------------------------------------------------------------------
# JSON schema (documented in docs/SCHEMAS.md)
# ---------------------------------------------------------------------------


def to_json(spec: CharFn) -> dict:
    return {"family": spec.FAMILY,
            "params": {key: _json_value(getattr(spec, attr)) for key, attr in spec.PARAMS}}


def _json_value(v):
    """A parameter as JSON: a term as its fields, which are its JSON keys, a
    spec as its object, a tuple as a list, a measure by its schema, a number
    as itself. Terms come first: a product has hundreds."""
    if isinstance(v, PoissonTypeTerm):
        return dict(vars(v))
    if isinstance(v, CharFn):
        return to_json(v)
    if isinstance(v, AccumMeasure):
        return measure_to_json(v)
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


def _param(obj: dict, key: str, pointer: str, default: float | None = None, integer: bool = False):
    """obj[key] (or default where it is absent) through json_number, which
    refuses strings, booleans and non-finite values, with its pointer."""
    if not isinstance(obj, dict):
        raise CharFnError(f"{pointer}: expected an object")
    if key not in obj and default is None:
        raise CharFnError(f"{pointer}/{key}: missing required field")
    try:
        return json_number(obj.get(key, default), f"{pointer}/{key}", integer)
    except ArraySpecError as exc:
        raise CharFnError(str(exc)) from None


def _made(cls, pointer: str, *args, **kwargs):
    """cls(*args, **kwargs), its refusal named by pointer; a nested spec names its own."""
    try:
        return cls(*args, **kwargs)
    except CharFnError as exc:
        raise type(exc)(f"{pointer}: {exc}") from None


def from_json(obj, path: str = "") -> CharFn:
    if not isinstance(obj, dict):
        raise CharFnError(f"{path or '/'}: expected an object")
    if len(obj) != 2:
        refuse_unknown(obj, ("family", "params"), path)
    family = obj.get("family")
    if family is None:
        raise CharFnError(f"{path}/family: missing required field")
    params = obj.get("params")
    if not isinstance(params, dict):
        raise CharFnError(f"{path}/params: missing or not an object")
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise CharFnError(f"{path}/family: unknown family {family!r}")
    pp = f"{path}/params"
    refuse_unknown(params, [key for key, _ in cls.PARAMS], pp)
    try:
        return cls.from_params(params, pp)
    except KeyError as exc:
        raise CharFnError(f"{pp}/{exc.args[0]}: missing required field") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, (CharFnError, ArraySpecError)):
            raise
        raise CharFnError(f"{pp}: {exc}") from exc
