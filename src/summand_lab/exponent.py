"""The limit exponent Psi(u) = ∫ (e^{iux} - 1 - iux) / x^2 dK(x).

Evaluated in closed form: atoms contribute through the compensated kernel,
and a continuous piece w y^2 dF(y) contributes w E[e^{iuY} - 1 - iuY] for
Y ~ F, its compensated characteristic function. Also builds the finite
Poisson-type product that approximates exp(Psi).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .accumulation import AccumMeasure
from .arrays import phi2
from .cf import CharFn, KolmogorovCF, PoissonTypeProduct, PoissonTypeTerm, product_exponent


class MeshRefinementError(ValueError):
    """A mesh cell has positive mass but no admissible nonzero tag."""


def compensated_kernel(u: float, x: float) -> complex:
    """(e^{iux} - 1 - iux) / x^2, with the removable value -u^2/2 at x = 0."""
    return -u * u * phi2(complex(0.0, u * x))


def exponent_eval(measure: AccumMeasure, u: float) -> complex:
    """Psi(u) of the measure, exact up to double rounding."""
    u = float(u)
    value = sum(mass * compensated_kernel(u, site) for site, mass in measure.atoms)
    value += sum(w * d.compensated_cf(u) for w, d in measure.pieces)
    return complex(value)


@dataclass(frozen=True)
class CurvatureCheck:
    second_difference: float
    target: float  # -total_mass


def curvature_check(measure: AccumMeasure, h: float = 1e-4) -> CurvatureCheck:
    """Symmetric second difference of Re Psi at 0 against -total_mass.

    Psi(0) = 0 exactly, so the difference quotient needs only Psi(+-h).
    """
    if not (0.0 < h <= 1e-3):
        raise ValueError("h must lie in (0, 1e-3]")
    plus = exponent_eval(measure, h).real
    minus = exponent_eval(measure, -h).real
    return CurvatureCheck((plus + minus) / (h * h), -measure.total_mass)


def exp_psi(measure: AccumMeasure, u_grid: Sequence[float]) -> np.ndarray:
    """exp(Psi(u)) at every grid point, one scalar Psi evaluation per u."""
    return np.array([cmath.exp(exponent_eval(measure, u)) for u in u_grid], dtype=complex)


# ---------------------------------------------------------------------------
# Poisson-type product approximation
# ---------------------------------------------------------------------------


def poisson_product_approx(
    measure: AccumMeasure,
    window: float,
    mesh: Sequence[float],
) -> tuple[PoissonTypeProduct, Callable[[Sequence[float]], float]]:
    """Riemann-sum Poisson-type product over a partition of [-window, window].

    Per cell with mass m and tag c (the cell's mass centroid, which falls on
    an atom whenever the cell isolates one): intensity m/c^2, drift m/c.
    Returns the product and a sup-error function over a u-grid against
    exp(Psi) of the full measure.
    """
    if not window > 0.0:
        raise ValueError("window must be positive")
    mesh = tuple(float(x) for x in mesh)
    if len(mesh) < 2:
        raise ValueError("mesh needs at least two breakpoints")
    if any(b <= a for a, b in zip(mesh, mesh[1:])):
        raise ValueError("mesh breakpoints must be strictly increasing")
    edge_tol = 1e-12 * max(1.0, window)
    if abs(mesh[0] + window) > edge_tol or abs(mesh[-1] - window) > edge_tol:
        raise ValueError(f"mesh must span [-{window}, {window}]")
    for site, mass in measure.atoms:
        if site == 0.0 and mass > 0.0:
            raise MeshRefinementError(
                "measure has positive mass exactly at 0; no nonzero tag can carry it"
            )

    terms = []
    for j in range(len(mesh) - 1):
        lo, hi = mesh[j], mesh[j + 1]
        mass = 0.0
        first = 0.0
        for site, m in measure.atoms:
            inside = (lo <= site <= hi) if j == 0 else (lo < site <= hi)
            if inside:
                mass += m
                first += m * site
        for w, d in measure.pieces:
            mass += w * (d.partial_m2(hi) - d.partial_m2(lo))
            first += w * (d.partial_m3(hi) - d.partial_m3(lo))
        if mass <= 0.0:
            continue
        c = first / mass
        c = min(max(c, lo), hi)
        if abs(c) <= 1e-9 * (hi - lo):
            raise MeshRefinementError(
                f"cell ({lo}, {hi}] carries mass balanced around 0; refine mesh near origin"
            )
        terms.append(PoissonTypeTerm(drift=mass / c, intensity=mass / (c * c), site=c))
    prod = PoissonTypeProduct(tuple(terms))

    def sup_error(u_grid: Sequence[float], target=None) -> float:
        """max over the grid of |product(u) - exp(Psi(u))|.

        ``target`` is exp(Psi) on the grid, exp_psi(measure, u_grid); pass it
        when several meshes share one grid, so Psi is evaluated once per u.
        The product's exponent comes from exp_sums over the whole grid (angle
        addition with exact re-seeding, accurate to about 1e-13 of the total
        intensity).
        """
        approx = np.exp(product_exponent(prod, u_grid))
        exact = exp_psi(measure, u_grid) if target is None else np.asarray(target)
        if exact.shape != approx.shape:
            raise ValueError(f"target has shape {exact.shape}; the u-grid needs {approx.shape}")
        return float(np.max(np.abs(approx - exact), initial=0.0))

    return prod, sup_error


def limit_char_fn(measure: AccumMeasure, shift: float) -> CharFn:
    """Characteristic function exp(i shift u + Psi(u)) of the limit law."""
    return KolmogorovCF(shift=float(shift), measure=measure)
