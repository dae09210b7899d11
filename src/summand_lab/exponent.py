"""The limit exponent Psi(u) = ∫ (e^{iux} - 1 - iux) / x^2 dK(x).

Evaluated in closed form on a whole u-grid at once: an atom of mass m at x
contributes m (e^{iux} - 1 - iux) / x^2 (see _kernel), and a continuous piece
w y^2 dF(y) contributes w E[e^{iuY} - 1 - iuY] for Y ~ F, its compensated
characteristic function, through the same kernel (see _compensated). Also
builds the finite Poisson-type product that approximates exp(Psi).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ._lazy import np
from .accumulation import AccumMeasure
from .arrays import (
    _SERIES_SWITCH, GAUSSIAN, UNIFORM, GroupTable, complex_array, phi2_series, sinc_m1,
)
from .cf import CharFn, KolmogorovCF, PoissonTypeProduct, PoissonTypeTerm
from .config import Value


class MeshRefinementError(ValueError):
    """A mesh cell has positive mass but no admissible nonzero tag."""


class MassAtZeroError(MeshRefinementError):
    """The measure has positive mass exactly at 0, which no mesh cell can tag."""


#: u-points times atoms (or pieces) per block of exponent_eval, which bounds
#: its temporaries at about a megabyte each
_BLOCK = 1 << 16


def exponent_eval(measure: AccumMeasure, u):
    """Psi at a scalar u or at every point of an array u, in u's shape, exact
    up to double rounding: O(atoms + pieces) numpy work per grid.

    Raises ValueError naming the first u where Psi is not finite.
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.ravel()
    sites, masses = measure.atom_arrays
    table = measure.piece_table
    step = max(1, _BLOCK // max(1, sites.size, table.fam.size))
    value = np.empty(flat.size, dtype=np.complex128)
    with np.errstate(all="ignore"):  # a non-finite value is refused below
        for i in range(0, flat.size, step):
            value[i:i + step] = _psi_block(flat[i:i + step, None], sites, masses, table)
    bad = ~np.isfinite(value)
    if bad.any():
        raise ValueError(f"Psi is not finite at u = {float(flat[bad.argmax()])!r}")
    return value.reshape(u.shape)[()]


def _psi_block(u: np.ndarray, sites: np.ndarray, masses: np.ndarray, t: GroupTable) -> np.ndarray:
    """Psi at a column of u values: each family's terms as a (u, group)
    array, summed along the groups from 0.0."""
    value = np.zeros(u.shape[0], dtype=np.complex128)
    if sites.size:
        value += (_kernel(u, sites) * masses).sum(axis=1)
    g = t.index[GAUSSIAN]
    if g.size:
        # X = m + sd G: E[e^{iuX}] - 1 = e^{imu} (e^{-vu^2/2} - 1) + (e^{imu} - 1)
        value += (_compensated(t.m * u, np.expm1(-0.5 * t.v * u * u)) * t.count[g]).sum(axis=1)
    g = t.index[UNIFORM]
    if g.size:
        # X = c + h U, U uniform on [-1, 1]: the factor is sinc(hu) - 1
        factor_m1 = sinc_m1(0.5 * (t.hi - t.lo) * u)
        value += (_compensated(0.5 * (t.hi + t.lo) * u, factor_m1) * t.count[g]).sum(axis=1)
    return value


def _kernel(u: np.ndarray, x) -> np.ndarray:
    """(e^{iux} - 1 - iux) / x^2 elementwise, broadcast: -u (u phi2(iux)) by
    phi2's series where |ux| < _SERIES_SWITCH, the direct form divided by x
    twice elsewhere. Neither squares u, so a finite value stays finite where
    u^2 alone overflows; and the direct form keeps the real part
    (cos ux - 1) / x^2, which phi2's underflows past |ux| of about 1e154."""
    ux = u * x
    out = np.empty(ux.shape, dtype=np.complex128)
    series = np.abs(ux) < _SERIES_SWITCH
    us = np.broadcast_to(u, ux.shape)[series]
    out[series] = -us * (us * phi2_series(complex_array(0.0, ux[series])))
    direct = ~series
    y, xd = ux[direct], np.broadcast_to(x, ux.shape)[direct]
    out[direct] = complex_array((np.cos(y) - 1.0) / xd / xd, (np.sin(y) - y) / xd / xd)
    return out


def _compensated(cu: np.ndarray, factor_m1: np.ndarray) -> np.ndarray:
    """E[e^{iuX} - 1 - iuX] for X = c + Y, E Y = 0, E e^{iuY} = 1 + factor_m1:
    e^{icu} factor_m1 + (e^{icu} - 1 - icu). At small |u| both terms have the
    sign of the whole, and at large |u| neither is much larger than the
    whole, so nothing cancels."""
    e = complex_array(np.cos(cu), np.sin(cu))
    return e * factor_m1 + _kernel(cu, 1.0)


class CurvatureCheck(Value):
    """A second difference of Re Psi at 0 and its target, -total_mass."""

    def __init__(self, second_difference: float, target: float):
        vars(self).update(second_difference=second_difference, target=target)


def curvature_check(measure: AccumMeasure) -> CurvatureCheck:
    """Symmetric second difference of Re Psi at 0, step h = 1e-4, against
    -total_mass.

    Psi(0) = 0 exactly, so the difference quotient needs only Psi(+-h).
    """
    h = 1e-4
    plus = float(exponent_eval(measure, h).real)
    minus = float(exponent_eval(measure, -h).real)
    return CurvatureCheck((plus + minus) / (h * h), -measure.total_mass)


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
            raise MassAtZeroError("measure has positive mass exactly at 0; no nonzero tag can carry it")

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
        if c * c == 0.0 or not math.isfinite(mass / (c * c)):
            raise MeshRefinementError(f"cell ({lo}, {hi}] tags at {c!r}, too near 0 for m/c^2")
        terms.append(PoissonTypeTerm(drift=mass / c, intensity=mass / (c * c), site=c))
    prod = PoissonTypeProduct(tuple(terms))

    def sup_error(u_grid: Sequence[float], target=None) -> float:
        """max over the grid of |product(u) - exp(Psi(u))|.

        ``target`` is exp(Psi) on the grid, np.exp(exponent_eval(measure,
        u_grid)); pass it when several meshes share one grid, so Psi is
        evaluated once per grid. The product's exponent comes from exp_sums
        over the whole grid (angle addition with exact re-seeding, accurate
        to about 1e-13 of the total intensity).
        """
        u = np.asarray(u_grid, dtype=np.float64)
        approx = np.exp(prod.log_cf(u))
        exact = np.exp(exponent_eval(measure, u)) if target is None else np.asarray(target)
        if exact.shape != approx.shape:
            raise ValueError(f"target has shape {exact.shape}; the u-grid needs {approx.shape}")
        return float(np.max(np.abs(approx - exact), initial=0.0))

    return prod, sup_error


def limit_char_fn(measure: AccumMeasure, shift: float) -> CharFn:
    """Characteristic function exp(i shift u + Psi(u)) of the limit law."""
    return KolmogorovCF(shift=float(shift), measure=measure)
