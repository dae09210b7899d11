"""Scalar references for the characteristic functions and the limit exponent.

The package evaluates every family on a whole u-grid (``log_cf``,
``exponent.exponent_eval``, ``GroupTable.cf``). These are the forms it
evaluated one u at a time before, kept as the reference the grid code is
tested against: a chain over the families for the characteristic function
and its exponent, the characteristic function of each component family, and
Psi as a sum over the atoms of the compensated kernel and over the pieces of
their compensated characteristic functions. ``conjugate_and_norm`` and
``root_limit_profile`` are helpers that only the tests use.
"""

import cmath
import math

import numpy as np

from summand_lab import cf
from summand_lab.arrays import _PHI2_COEFFS, _SERIES_SWITCH, FiniteDiscrete, Gaussian, Uniform
from summand_lab.cf import (
    CauchyCF,
    ConjugateCF,
    Degenerate,
    GammaCF,
    GaussianCF,
    KolmogorovCF,
    PoissonTypeProduct,
    PowerCF,
    ProductCF,
    TranslatedPoissonCF,
    pth_root,
)


def cexp(imag_arg: float, real_arg: float) -> complex:
    """exp(real_arg + i*imag_arg)."""
    r = math.exp(real_arg)
    return complex(r * math.cos(imag_arg), r * math.sin(imag_arg))


def _sinc(z: float) -> float:
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return math.sin(z) / z


def component_cf(d, t: float) -> complex:
    """The characteristic function of a component at t."""
    if isinstance(d, FiniteDiscrete):
        return sum(p * complex(math.cos(t * x), math.sin(t * x)) for x, p in d.atoms)
    if isinstance(d, Gaussian):
        return cexp(d.m * t, -0.5 * d.v * t * t)
    assert isinstance(d, Uniform)
    half = 0.5 * (d.hi - d.lo) * t
    mid = 0.5 * (d.hi + d.lo) * t
    return cexp(mid, 0.0) * _sinc(half)


def phi2(w: complex) -> complex:
    """(e^w - 1 - w) / w^2, with the removable value 1/2 at w = 0."""
    if abs(w) < _SERIES_SWITCH:
        acc = 0j
        for c in _PHI2_COEFFS:
            acc = acc * w + c
        return acc
    return (cmath.exp(w) - 1.0 - w) / (w * w)


def compensated_kernel(u: float, x: float) -> complex:
    """(e^{iux} - 1 - iux) / x^2, with the removable value -u^2/2 at x = 0."""
    return -u * u * phi2(complex(0.0, u * x))


def compensated_cf(d, t: float) -> complex:
    """E[e^{itX} - 1 - itX] of a Gaussian or uniform X."""
    if isinstance(d, Gaussian):
        z = complex(-0.5 * d.v * t * t, d.m * t)
        return z * z * phi2(z) + z.real  # (e^z - 1 - z) + Re z
    assert isinstance(d, Uniform)
    ct = 0.5 * (d.hi + d.lo) * t
    theta = 0.5 * (d.hi - d.lo) * t
    sinc_m1 = -theta * phi2(complex(0.0, theta)).imag  # (sin(theta) - theta) / theta
    w = complex(0.0, ct)
    return cexp(ct, 0.0) * sinc_m1 + w * w * phi2(w)


def exponent_eval(measure, u: float) -> complex:
    """Psi(u) of the measure, one atom and one piece at a time."""
    u = float(u)
    value = sum(mass * compensated_kernel(u, site) for site, mass in measure.atoms)
    value += sum(w * compensated_cf(d, u) for w, d in measure.pieces)
    return complex(value)


def cancelled(measure, u: float) -> float:
    """What the Gaussian pieces' form here cancels at u: it adds Re z =
    -v u^2 / 2 back to e^z - 1 - z, z = imu - v u^2 / 2, both of size about
    |z|, so this reference is off by a few 1e-16 of w v u^2 / 2 per piece
    where Psi is of size 1. The package's form cancels nothing."""
    return sum(w * 0.5 * d.v * u * u for w, d in measure.pieces if isinstance(d, Gaussian))


def product_exponent(spec: PoissonTypeProduct, u: float) -> complex:
    """The exponent of a Poisson-type product, summed term by term."""
    expo = 0j
    for term in spec.terms:
        expo += 1j * (term.shift - term.drift) * u
        expo += term.intensity * (cmath.exp(1j * term.site * u) - 1.0)
    return expo


def log_cf(spec, t: float) -> complex:
    """The exponent whose exp is eval_cf(spec, t)."""
    if isinstance(spec, Degenerate):
        return 1j * spec.a * t
    if isinstance(spec, GaussianCF):
        return complex(-0.5 * spec.var * t * t, spec.m * t)
    if isinstance(spec, TranslatedPoissonCF):
        return 1j * spec.a * t + spec.lam * (cmath.exp(1j * t) - 1.0)
    if isinstance(spec, GammaCF):
        return -spec.shape * cmath.log(1.0 - 1j * t / spec.rate)
    if isinstance(spec, CauchyCF):
        return complex(-spec.scale * abs(t), spec.loc * t)
    if isinstance(spec, PoissonTypeProduct):
        return product_exponent(spec, t)
    if isinstance(spec, KolmogorovCF):
        return 1j * spec.shift * t + exponent_eval(spec.measure, t)
    if isinstance(spec, ProductCF):
        return sum(log_cf(f, t) for f in spec.factors)
    if isinstance(spec, PowerCF):
        return log_cf(pth_root(spec.base, spec.p), t)
    if isinstance(spec, ConjugateCF):
        return log_cf(spec.base, t).conjugate()
    raise TypeError(f"unknown characteristic-function type {type(spec).__name__}")


def eval_cf(spec, t: float) -> complex:
    """Closed-form evaluation at one real argument."""
    if isinstance(spec, GammaCF):
        return (1.0 - 1j * t / spec.rate) ** (-spec.shape)
    if isinstance(spec, ProductCF):
        out = 1.0 + 0.0j
        for f in spec.factors:
            out *= eval_cf(f, t)
        return out
    if isinstance(spec, PowerCF):
        return eval_cf(pth_root(spec.base, spec.p), t)
    if isinstance(spec, ConjugateCF):
        return eval_cf(spec.base, t).conjugate()
    return cmath.exp(log_cf(spec, t))


def conjugate_and_norm(spec):
    """(conjugate, |psi|^2 as a product); the norm square is real in [0, 1]."""
    conj = ConjugateCF(spec)
    return conj, ProductCF((spec, conj))


def root_limit_profile(spec, t_grid, n_max: int) -> np.ndarray:
    """Deviation table |psi^{1/n}(t) - 1|, shape (n_max, len(t_grid)).

    Row n-1 holds the deviations for the n-th root.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t_grid = tuple(float(t) for t in t_grid)
    out = np.empty((n_max, len(t_grid)))
    for n in range(1, n_max + 1):
        root = pth_root(spec, n)
        for j, t in enumerate(t_grid):
            out[n - 1, j] = abs(cf.eval_cf(root, t) - 1.0)
    return out

