"""Triangular-array rows: component distributions, row statistics, generators.

Component families are restricted to those with closed-form partial and
tail second moments (finite-discrete, Gaussian, uniform), so accumulation
measures and Lindeberg sums downstream carry no quadrature error; the
continuous ones also have closed-form compensated characteristic
functions, so the limit exponent needs none either.

A row keeps its distinct components as a GroupTable, one array per family
and parameter. Rows of many groups compute their statistics from it as
array expressions that equal the component methods to the last bit; the
component classes stay the reference, and rows of few groups loop over
them.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple, Sequence

from ._lazy import np
from .config import Value
from .normal import ndtr, ndtr_scalar

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_MAX_DOUBLE = sys.float_info.max
#: the largest magnitude of a parsed component's site, bound or Gaussian mean,
#: whose square bounds a Gaussian variance: partial moments take up to the
#: fourth power of a value, which then stays below 2^1021
_MAX_SCALE = 2.0 ** 255


class ArraySpecError(ValueError):
    """An array JSON document violates the schema; message carries a JSON pointer."""


class EntryError(ValueError):
    """An entry of a list argument is refused; pointer names it, /name/index."""

    def __init__(self, message: str, name: str, index: int):
        super().__init__(message)
        self.pointer = f"/{name}/{index}"


# ---------------------------------------------------------------------------
# Component distributions
# ---------------------------------------------------------------------------


class ComponentDist(Value):
    """One array entry's distribution, with exact moment functionals.

    Instances are immutable values; all methods are pure.
    """

    def mean(self) -> float:
        raise NotImplementedError

    def var(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        return self.var() + self.mean() ** 2

    def prob_abs_ge(self, eps: float) -> float:
        """P(|X| >= eps)."""
        raise NotImplementedError

    def partial_m2(self, x: float) -> float:
        """Partial second moment: integral of y^2 dF(y) over (-inf, x]."""
        raise NotImplementedError

    def partial_m3(self, x: float) -> float:
        """Partial third moment: integral of y^3 dF(y) over (-inf, x]."""
        raise NotImplementedError

    def tail_m2(self, center: float, eps: float, inclusive: bool = False) -> float:
        """Integral of y^2 dF(y) over |y - center| > eps (or >= eps if inclusive)."""
        raise NotImplementedError

    def shifted(self, c: float) -> "ComponentDist":
        """Distribution of X - c."""
        raise NotImplementedError

    def scaled(self, s: float) -> "ComponentDist":
        """Distribution of X / s, s > 0."""
        raise NotImplementedError


class FiniteDiscrete(ComponentDist):
    def __init__(self, atoms: tuple[tuple[float, float], ...]):
        if not atoms:
            raise ValueError("FiniteDiscrete needs at least one atom")
        coerced = []
        total = 0.0
        for site, prob in atoms:
            site, prob = float(site), float(prob)
            if not (math.isfinite(site) and math.isfinite(prob)):
                raise ValueError(f"non-finite atom ({site}, {prob})")
            if prob < 0.0:
                raise ValueError(f"negative probability {prob} at site {site}")
            coerced.append((site, prob))
            total += prob
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {total}, expected 1")
        vars(self).update(atoms=tuple(coerced))

    def mean(self):
        return math.fsum(x * p for x, p in self.atoms)

    def var(self):
        m = self.mean()
        return math.fsum((x - m) ** 2 * p for x, p in self.atoms)

    def second_moment(self):
        return math.fsum(x * x * p for x, p in self.atoms)

    def prob_abs_ge(self, eps):
        return math.fsum(p for x, p in self.atoms if abs(x) >= eps)

    def partial_m2(self, x):
        return math.fsum(s * s * p for s, p in self.atoms if s <= x)

    def partial_m3(self, x):
        return math.fsum(s * s * s * p for s, p in self.atoms if s <= x)

    def tail_m2(self, center, eps, inclusive=False):
        if inclusive:
            return math.fsum(s * s * p for s, p in self.atoms if abs(s - center) >= eps)
        return math.fsum(s * s * p for s, p in self.atoms if abs(s - center) > eps)

    def shifted(self, c):
        if c == 0.0:
            return self
        return FiniteDiscrete(tuple((x - c, p) for x, p in self.atoms))

    def scaled(self, s):
        if s <= 0.0:
            raise ValueError("scale must be positive")
        return FiniteDiscrete(tuple((x / s, p) for x, p in self.atoms))


class Gaussian(ComponentDist):
    """Mean m and variance v, strictly positive."""

    def __init__(self, m: float, v: float):
        m, v = float(m), float(v)
        if not (v > 0.0 and math.isfinite(v) and math.isfinite(m)):
            raise ValueError(f"Gaussian needs finite mean and variance > 0, got ({m}, {v})")
        vars(self).update(m=m, v=v)

    def mean(self):
        return self.m

    def var(self):
        return self.v

    def prob_abs_ge(self, eps):
        sd = math.sqrt(self.v)
        return ndtr_scalar((self.m - eps) / sd) + ndtr_scalar((-eps - self.m) / sd)

    def partial_m2(self, x):
        sd = math.sqrt(self.v)
        z = (x - self.m) / sd
        phi = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
        head = (self.m * self.m + self.v) * ndtr_scalar(z)
        return head - sd * (x + self.m) * phi if phi else head

    def partial_m3(self, x):
        sd = math.sqrt(self.v)
        z = (x - self.m) / sd
        phi = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
        head = (self.m ** 3 + 3.0 * self.m * self.v) * ndtr_scalar(z)
        if not phi:  # far in a tail; as in partial_m2, 0 * inf would read nan
            return head
        return head - phi * (3.0 * self.m * self.m * sd + 3.0 * self.m * self.v * z + sd ** 3 * (z * z + 2.0))

    def tail_m2(self, center, eps, inclusive=False):
        left = self.partial_m2(center - eps)
        right = self.second_moment() - self.partial_m2(center + eps)
        return left + max(right, 0.0)

    def shifted(self, c):
        return self if c == 0.0 else Gaussian(self.m - c, self.v)

    def scaled(self, s):
        if s <= 0.0:
            raise ValueError("scale must be positive")
        return Gaussian(self.m / s, self.v / (s * s))

    def sample(self, rng, size):
        """size draws of N(m, v) by the Generator's normal sampler (a ziggurat),
        a pure function of the bit stream as its other draws are."""
        return self.m + math.sqrt(self.v) * rng.standard_normal(size)


class Uniform(ComponentDist):
    def __init__(self, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"Uniform needs lo < hi, got ({lo}, {hi})")
        vars(self).update(lo=lo, hi=hi)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def var(self):
        return (self.hi - self.lo) ** 2 / 12.0

    def prob_abs_ge(self, eps):
        overlap = max(0.0, min(self.hi, eps) - max(self.lo, -eps))
        return 1.0 - overlap / (self.hi - self.lo)

    def _m2_raw(self, x):
        return (x ** 3 - self.lo ** 3) / (3.0 * (self.hi - self.lo))

    def partial_m2(self, x):
        if x <= self.lo:
            return 0.0
        return self._m2_raw(min(x, self.hi))

    def partial_m3(self, x):
        if x <= self.lo:
            return 0.0
        xx = min(x, self.hi)
        return (xx ** 4 - self.lo ** 4) / (4.0 * (self.hi - self.lo))

    def tail_m2(self, center, eps, inclusive=False):
        left = self.partial_m2(center - eps)
        right = self._m2_raw(self.hi) - self.partial_m2(center + eps)
        return left + max(right, 0.0)

    def shifted(self, c):
        return self if c == 0.0 else Uniform(self.lo - c, self.hi - c)

    def scaled(self, s):
        if s <= 0.0:
            raise ValueError("scale must be positive")
        return Uniform(self.lo / s, self.hi / s)


#: below this |w| the direct (e^w - 1 - w) / w^2 loses more than ~1e-14
#: relative accuracy to cancellation; there the Taylor series through w^13
#: is exact to double rounding (the first omitted term is below 1e-17 of it)
_SERIES_SWITCH = 0.5
_PHI2_COEFFS = tuple(1.0 / math.factorial(j) for j in range(15, 1, -1))


def phi2(w) -> np.ndarray:
    """(e^w - 1 - w) / w^2 elementwise on a complex array, with the removable
    value 1/2 at w = 0.

    The one small-argument series behind every compensated exponential:
    atoms of the limit exponent and the compensated characteristic functions
    of its pieces. Entries with |w| < _SERIES_SWITCH take the series, the
    others the direct form, divided by w twice: w^2 would overflow first
    where |w| passes 1e154.
    """
    w = np.asarray(w, dtype=np.complex128)
    out = np.empty_like(w)
    small = np.abs(w) < _SERIES_SWITCH
    out[small] = phi2_series(w[small])
    wb = w[~small]
    out[~small] = (np.exp(wb) - 1.0 - wb) / wb / wb
    return out


def phi2_series(w: np.ndarray) -> np.ndarray:
    """phi2 of a complex array whose every |w| < _SERIES_SWITCH, by its
    Taylor series."""
    acc = np.zeros_like(w)
    for c in _PHI2_COEFFS:
        acc = acc * w + c
    return acc


def sinc_m1(theta: np.ndarray) -> np.ndarray:
    """sin(theta) / theta - 1 elementwise, 0.0 at theta = 0: -theta Im
    phi2(i theta), which does not cancel at small theta."""
    return -theta * phi2(complex_array(0.0, theta)).imag


def complex_array(re, im) -> np.ndarray:
    """re + i im elementwise, broadcast; unlike re + 1j * im, an infinite im
    does not turn the real part into NaN."""
    re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


#: angle-addition steps between exact re-seeds in exp_sums: each step adds
#: about one rounding (1e-16 relative) to every term, so no term drifts by
#: more than a few 1e-15 before it is seeded again
_RESEED_EVERY = 32
#: a grid counts as arithmetic when no point is off u_0 + k h by more than
#: this much phase at the largest |x|
_PHASE_TOL = 1e-12


def grid_step(u: np.ndarray, x_max: float) -> float | None:
    """The step h of an arithmetic grid, or None for any other grid.

    A grid of two or more points is arithmetic when every u_k lies within
    _PHASE_TOL / x_max of u_0 + k h, h = (u_last - u_0) / (len(u) - 1): the
    phases u_k x, |x| <= x_max, then differ from u_0 x + k h x by at most
    _PHASE_TOL.
    """
    if u.size < 2:
        return None
    h = (u[-1] - u[0]) / (u.size - 1)
    off = np.max(np.abs(u - (u[0] + h * np.arange(u.size))))
    return float(h) if off * x_max <= _PHASE_TOL else None


def exp_sums(u_grid, x, w) -> np.ndarray:
    """sum_j w_j e^{i u_k x_j} for every grid point u_k, as a complex array.

    On an arithmetic grid (u_k = u_0 + k h up to _PHASE_TOL of phase) the
    terms advance by angle addition, z <- z e^{ihx}, one complex multiply per
    point, and are re-seeded exactly from cos/sin every _RESEED_EVERY points;
    any other grid is seeded at every point. The weighted sum is one complex
    BLAS dot per point (it keeps several partial sums, so it rounds less than
    a real (n, 2) matrix-vector product), and temporaries stay the size of x.
    """
    u = np.asarray(u_grid, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    w = np.asarray(w, dtype=np.complex128).ravel()
    out = np.empty(u.size, dtype=np.complex128)
    h = grid_step(u, float(np.max(np.abs(x), initial=0.0)))
    if h is None:
        reseed = 1
    else:
        reseed, step = _RESEED_EVERY, np.exp(1j * (h * x))
    z = np.empty(x.size, dtype=np.complex128)
    angle = np.empty(x.size)
    for k in range(u.size):
        if k % reseed == 0:
            np.multiply(u[k], x, out=angle)
            np.cos(angle, out=z.real)
            np.sin(angle, out=z.imag)
        else:
            z *= step
        out[k] = w @ z
    return out


# ---------------------------------------------------------------------------
# Rows and their group tables
# ---------------------------------------------------------------------------


def _pow(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p elementwise through float.__pow__, the C library's pow, as the
    component methods take it: numpy squares by multiplying, which differs
    from pow in the last bit of about one square in 1200."""
    return np.fromiter(map(pow, x.ravel().tolist(), repeat(p)), np.float64, x.size).reshape(x.shape)


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp elementwise: numpy's exp may differ from it by one ulp."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _fsum_rows(t: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """math.fsum of each row of t, a discrete group's terms per atom padded
    with zeros.

    fsum rounds the exact sum once, as one addition of two doubles does, and
    gives +0.0 for a zero sum; the rows of more than two atoms (wide) go
    through fsum itself.
    """
    out = t[:, 0] + t[:, 1]
    out += 0.0
    if wide.size:
        out[wide] = [math.fsum(r) for r in t[wide].tolist()]
    return out


def running_sum(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., added left to right as a loop adds
    them: np.cumsum adds in order (np.sum adds pairwise), and the last + 0.0
    turns a -0.0 into the loop's +0.0."""
    return float(np.cumsum(terms)[-1]) + 0.0


#: family codes of a GroupTable
DISCRETE, GAUSSIAN, UNIFORM = 0, 1, 2
#: rows (and accumulation measures) of at least this many groups (atoms and
#: pieces) are read through their GroupTable, the others by a loop over
#: their components, which the table's methods equal bit for bit: each numpy
#: call costs about a microsecond whatever its size, and on fresh rows of
#: mixed families the loop stays the faster up to about 50 groups
COLUMNAR_MIN_GROUPS = 32


def columnar(groups: int) -> bool:
    """Whether a row or measure of this many groups reads its GroupTable."""
    return groups >= COLUMNAR_MIN_GROUPS


def component_key(d: ComponentDist) -> tuple:
    """A component as (family, params), the form the JSON parser groups by:
    two components are equal exactly when their keys are."""
    if isinstance(d, FiniteDiscrete):
        return (DISCRETE, d.atoms)
    if isinstance(d, Gaussian):
        return (GAUSSIAN, d.m, d.v)
    if isinstance(d, Uniform):
        return (UNIFORM, d.lo, d.hi)
    raise TypeError(f"unknown component type {type(d).__name__}")


class GroupTable:
    """Groups of equal components as arrays, in group order.

    fam[i] is group i's family (DISCRETE, GAUSSIAN or UNIFORM) and count[i]
    its count as a float; an accumulation measure's pieces use a table with
    their weights as counts. Each family keeps its parameters in arrays of
    its own, in group order: m and v of the Gaussian groups, lo and hi of
    the uniform ones, and the atoms of each discrete group as one row of
    sites and probs, padded with zeros to the widest group and to at least
    two columns; natoms counts a row's own atoms. A padded atom adds an
    exact zero to every sum below.

    Each method but cf is the ComponentDist method of the same name, one
    value per group in group order, equal to it to the last bit: the same
    operations in the same order, math.fsum where the method uses it
    (_fsum_rows), and pow and exp of the C library (_pow, _exp).
    """

    def __init__(self, fam, count, m, v, lo, hi, sites, probs, natoms):
        self.fam, self.count = fam, count
        self.m, self.v, self.lo, self.hi = m, v, lo, hi
        self.sites, self.probs, self.natoms = sites, probs, natoms
        self.index = tuple(np.flatnonzero(fam == f) for f in (DISCRETE, GAUSSIAN, UNIFORM))
        self.wide = np.flatnonzero(natoms > 2)

    @classmethod
    def of_keys(cls, keys, counts) -> "GroupTable":
        """The table of components given by their keys (see component_key)."""
        fam, m, v, lo, hi, atoms = [], [], [], [], [], []
        for key in keys:
            fam.append(key[0])
            if key[0] == DISCRETE:
                atoms.append(key[1])
            elif key[0] == GAUSSIAN:
                m.append(key[1])
                v.append(key[2])
            else:
                lo.append(key[1])
                hi.append(key[2])
        natoms = np.fromiter(map(len, atoms), np.intp, len(atoms))
        width = max(2, int(natoms.max(initial=0)))
        sites = np.zeros((len(atoms), width))
        probs = np.zeros((len(atoms), width))
        if atoms:
            flat = np.fromiter(chain.from_iterable(chain.from_iterable(atoms)), np.float64)
            filled = np.arange(width) < natoms[:, None]
            sites[filled] = flat[0::2]
            probs[filled] = flat[1::2]
        return cls(np.array(fam, dtype=np.int8), np.fromiter(counts, np.float64, len(fam)),
                   np.array(m, dtype=np.float64), np.array(v, dtype=np.float64),
                   np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64),
                   sites, probs, natoms)

    def groups(self):
        """(family, count, params) per group in group order: params is a
        discrete group's (sites, probs) arrays, or the floats (m, v) or
        (lo, hi)."""
        params = {
            DISCRETE: ((s[:k], p[:k])
                       for s, p, k in zip(self.sites, self.probs, self.natoms.tolist())),
            GAUSSIAN: zip(self.m.tolist(), self.v.tolist()),
            UNIFORM: zip(self.lo.tolist(), self.hi.tolist()),
        }
        for f, c in zip(self.fam.tolist(), self.count.tolist()):
            yield f, c, next(params[f])

    def components(self) -> list:
        """The groups as ComponentDist objects."""
        out = []
        for f, _, p in self.groups():
            if f == DISCRETE:
                out.append(FiniteDiscrete(tuple(zip(p[0].tolist(), p[1].tolist()))))
            else:
                out.append((Gaussian if f == GAUSSIAN else Uniform)(*p))
        return out

    def join(self, disc, gauss, unif) -> np.ndarray:
        """One value per group in group order, from the values per family."""
        out = np.empty(self.fam.size)
        for i, x in zip(self.index, (disc, gauss, unif)):
            out[i] = x
        return out

    @cached_property
    def sd(self) -> np.ndarray:
        return np.sqrt(self.v)

    @cached_property
    def _gauss_m2(self) -> np.ndarray:
        return self.v + _pow(self.m, 2.0)

    @cached_property
    def _uniform_mean(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @cached_property
    def _lo_cubed(self) -> np.ndarray:
        return _pow(self.lo, 3.0)

    @cached_property
    def _uniform_m2_hi(self) -> np.ndarray:
        # Uniform._m2_raw(hi): the whole second moment, as tail_m2 takes it
        return (_pow(self.hi, 3.0) - self._lo_cubed) / (3.0 * (self.hi - self.lo))

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mean, var, second_moment) per group."""
        s, p, wide = self.sites, self.probs, self.wide
        dm = _fsum_rows(s * p, wide)
        dv = _fsum_rows(_pow(s - dm[:, None], 2.0) * p, wide)
        d2 = _fsum_rows(s * s * p, wide)
        uv = _pow(self.hi - self.lo, 2.0) / 12.0
        return (self.join(dm, self.m, self._uniform_mean),
                self.join(dv, self.v, uv),
                self.join(d2, self._gauss_m2, uv + _pow(self._uniform_mean, 2.0)))

    def prob_abs_ge(self, eps: float) -> np.ndarray:
        d = _fsum_rows(np.where(np.abs(self.sites) >= eps, self.probs, 0.0), self.wide)
        g = ndtr((self.m - eps) / self.sd) + ndtr((-eps - self.m) / self.sd)
        overlap = np.maximum(0.0, np.minimum(self.hi, eps) - np.maximum(self.lo, -eps))
        return self.join(d, g, 1.0 - overlap / (self.hi - self.lo))

    def _gauss_partial_m2(self, x: float) -> np.ndarray:
        m, v, sd = self.m, self.v, self.sd
        z = (x - m) / sd
        phi = _INV_SQRT_2PI * _exp(-0.5 * z * z)
        return (m * m + v) * ndtr(z) - sd * (x + m) * phi

    def _uniform_partial_m2(self, x: float) -> np.ndarray:
        out = np.zeros(self.lo.size)
        inside = x > self.lo  # 0.0 where x <= lo
        lo, hi = self.lo[inside], self.hi[inside]
        out[inside] = (_pow(np.minimum(x, hi), 3.0) - self._lo_cubed[inside]) / (3.0 * (hi - lo))
        return out

    def partial_m2(self, x: float) -> np.ndarray:
        s = self.sites
        d = _fsum_rows(np.where(s <= x, s * s * self.probs, 0.0), self.wide)
        return self.join(d, self._gauss_partial_m2(x), self._uniform_partial_m2(x))

    def tail_m2(self, center: float, eps: float, inclusive: bool = False) -> np.ndarray:
        s = self.sites
        off = np.abs(s - center)
        d = _fsum_rows(np.where(off >= eps if inclusive else off > eps, s * s * self.probs, 0.0),
                       self.wide)
        g = (self._gauss_partial_m2(center - eps)
             + np.maximum(self._gauss_m2 - self._gauss_partial_m2(center + eps), 0.0))
        u = (self._uniform_partial_m2(center - eps)
             + np.maximum(self._uniform_m2_hi - self._uniform_partial_m2(center + eps), 0.0))
        return self.join(d, g, u)

    def cf(self, u) -> np.ndarray:
        """Each group's characteristic function at every u, of shape
        u.shape + (groups,): sum p e^{iux} over a discrete group's atoms,
        e^{imu - vu^2/2} for a Gaussian, and e^{i mid u} (1 + sinc_m1(hu))
        for a uniform of midpoint mid and half-width h."""
        u = np.asarray(u, dtype=np.float64)[..., None]
        out = np.empty(u.shape[:-1] + (self.fam.size,), dtype=np.complex128)
        angle = u[..., None] * self.sites
        out[..., self.index[DISCRETE]] = (
            self.probs * complex_array(np.cos(angle), np.sin(angle))).sum(axis=-1)
        out[..., self.index[GAUSSIAN]] = np.exp(complex_array(-0.5 * self.v * u * u, self.m * u))
        mid = self._uniform_mean * u
        out[..., self.index[UNIFORM]] = (complex_array(np.cos(mid), np.sin(mid))
                                         * (1.0 + sinc_m1(0.5 * (self.hi - self.lo) * u)))
        return out

    @cached_property
    def centered(self) -> "GroupTable":
        """Every group shifted by its own mean, as ComponentDist.shifted
        shifts it (a zero mean shifts nothing); groups that become equal
        stay apart."""
        c = self.moments[0][self.index[DISCRETE]][:, None]
        u = self._uniform_mean
        return GroupTable(
            self.fam, self.count,
            np.where(self.m == 0.0, self.m, self.m - self.m), self.v,
            np.where(u == 0.0, self.lo, self.lo - u), np.where(u == 0.0, self.hi, self.hi - u),
            np.where(c == 0.0, self.sites, self.sites - c), self.probs, self.natoms,
        )


class RowSpec:
    """Row n of an array as groups of equal components with their counts.

    ``RowSpec(n, pairs)`` takes (ComponentDist, count) pairs; equal-valued
    components are merged into one group, kept in order of first appearance,
    so every per-row sum costs O(#groups) rather than O(k(n)). ``table``
    holds the groups as a GroupTable and ``components`` as (ComponentDist,
    count) pairs; each is made from the other when first read, so a row
    parsed from JSON (from_table) makes no component object on the way to a
    verdict. ``columnar``, fixed when the row is built, says whether the
    per-row statistics read the table (see COLUMNAR_MIN_GROUPS) or loop
    over the components.
    """

    def __init__(self, n: int, components):
        # component -> its group's index in counts: one hash per pair
        groups: dict[ComponentDist, int] = {}
        counts: list[int] = []
        for i, pair in enumerate(components):
            try:
                comp, count = pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"component {i}: expected a (component, count) pair, got {pair!r}"
                ) from None
            if not isinstance(comp, ComponentDist):
                raise ValueError(f"component {i}: expected a component distribution, got {comp!r}")
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ValueError(f"component {i}: count must be a positive integer, got {count!r}")
            j = groups.setdefault(comp, len(counts))
            if j < len(counts):
                counts[j] += count
            else:
                counts.append(count)
        if not groups:
            raise ValueError("a row needs at least one component")
        self.n = n
        self.components = tuple(zip(groups, counts))
        self._k = sum(counts)
        self.columnar = columnar(len(groups))

    @classmethod
    def from_table(cls, n: int, table: GroupTable) -> "RowSpec":
        """The row whose groups, already distinct, are the table's."""
        row = cls.__new__(cls)
        row.n, row.table = n, table
        row._k = int(table.count.sum())
        row.columnar = columnar(table.fam.size)
        return row

    @cached_property
    def components(self) -> tuple[tuple[ComponentDist, int], ...]:
        t = self.table
        return tuple(zip(t.components(), map(int, t.count.tolist())))

    @cached_property
    def table(self) -> GroupTable:
        return GroupTable.of_keys((component_key(d) for d, _ in self.components),
                                  [count for _, count in self.components])

    def k(self) -> int:
        return self._k

    def centered(self) -> "RowSpec":
        """Row with every component shifted by its own mean."""
        return RowSpec(self.n, tuple((d.shifted(d.mean()), count) for d, count in self.components))

    def __eq__(self, other):
        if not isinstance(other, RowSpec):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def __hash__(self):
        return hash((self.n, self.components))

    def __repr__(self):
        return f"RowSpec(n={self.n!r}, components={self.components!r})"


class RowStats(NamedTuple):
    u: float   # max_k P(|X_k| >= eps)
    mv: float  # sum of variances
    b: float   # max variance
    a: float   # sum of means


def _row_stats(row: RowSpec, eps_list) -> tuple:
    """(MV(n), B_n, a_n, max_k E X_k^2, [U(n, eps) per eps]) of a row, in one
    pass; the sums run in group order and every maximum starts at 0.0."""
    if row.columnar:
        t = row.table
        mean, var, m2 = t.moments
        u = [max(0.0, float(t.prob_abs_ge(eps).max())) for eps in eps_list]
        return (running_sum(var * t.count), max(0.0, float(var.max())),
                running_sum(mean * t.count), max(0.0, float(m2.max())), u)
    mv = b = a = max_m2 = 0.0
    u = [0.0] * len(eps_list)
    for dist, count in row.components:
        v = dist.var()
        mv += v * count
        b = max(b, v)
        a += dist.mean() * count
        max_m2 = max(max_m2, dist.second_moment())
        for j, eps in enumerate(eps_list):
            u[j] = max(u[j], dist.prob_abs_ge(eps))
    return mv, b, a, max_m2, u


def row_statistics(row: RowSpec, eps: float) -> RowStats:
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    mv, b, a, _, (u,) = _row_stats(row, (eps,))
    return RowStats(u, mv, b, a)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


class ArrayGenerator(Value):
    """Deterministic pure rule n -> RowSpec."""

    def check_row(self, n: int) -> None:
        """Raise ValueError, as row(n) would, unless n names a row."""
        if n < 1:
            raise ValueError("row index must be >= 1")

    def row(self, n: int) -> RowSpec:
        raise NotImplementedError


class StandardizedIid(ArrayGenerator):
    """n copies of base / s_n with s_n^2 = n * Var(base)."""

    def __init__(self, base: ComponentDist):
        if base.var() <= 0.0:
            raise ValueError("StandardizedIid base needs positive variance")
        vars(self).update(base=base)

    def check_row(self, n):
        self._copy(n)

    def _copy(self, n: int) -> ComponentDist:
        """base / s_n, refused where a site or parameter (a Gaussian's variance
        is about 1 / n) passes _MAX_SCALE, as the JSON parser refuses one."""
        super().check_row(n)
        comp = self.base.scaled(math.sqrt(n * self.base.var()))
        key = component_key(comp)
        big = max(abs(x) for x in ([s for s, _ in key[1]] if key[0] == DISCRETE else key[1:]))
        if not big <= _MAX_SCALE:
            raise ValueError(f"row {n} scales a value of the base to {big!r}, past "
                             f"{_MAX_SCALE!r}; its moments would not fit in a double")
        return comp

    def row(self, n):
        return RowSpec(n, ((self._copy(n), n),))


class BernoulliPoisson(ArrayGenerator):
    """n copies of Bernoulli(lam / n) on {0, 1}."""

    def __init__(self, lam: float):
        lam = float(lam)
        if not (lam > 0.0 and math.isfinite(lam)):
            raise ValueError("lambda must be positive and finite")
        vars(self).update(lam=lam)

    def check_row(self, n):
        super().check_row(n)
        p = self.lam / n
        if p > 1.0:
            raise ValueError(f"row {n} would need success probability {p} > 1")

    def row(self, n):
        self.check_row(n)
        p = self.lam / n
        comp = FiniteDiscrete(((0.0, 1.0 - p), (1.0, p)))
        return RowSpec(n, ((comp, n),))


class ExplicitArray(ArrayGenerator):
    def __init__(self, rows: tuple[RowSpec, ...]):
        rows = tuple(rows)
        if not rows:
            raise ValueError("ExplicitArray needs at least one row")
        vars(self).update(rows=rows)

    def check_row(self, n):
        if all(r.n != n for r in self.rows):
            have = sorted(r.n for r in self.rows)
            raise ValueError(f"no explicit row for n={n}; available: {have}")

    def row(self, n):
        self.check_row(n)
        return next(r for r in self.rows if r.n == n)


# ---------------------------------------------------------------------------
# Hypothesis statistics over a list of row indices
# ---------------------------------------------------------------------------


class HypothesisReport(Value):
    """Raw bounded-variance / variance-convergence / negligibility statistics.

    markov_bound holds eps^-2 * max_k E[X_{k,n}^2], capped at the largest
    double; for centered rows this is the classical Chebyshev envelope for
    the per-term exceedance probability.
    u_table and markov_bound are indexed [i_eps][i_n], and uan_final holds U
    at the largest n, per eps.
    """

    def __init__(
        self,
        n_list: tuple[int, ...],
        eps_list: tuple[float, ...],
        mv: tuple[float, ...],
        b: tuple[float, ...],
        a: tuple[float, ...],
        sup_mv: float,
        c_target: float | None,
        vch_gap: tuple[float, ...] | None,
        u_table: tuple[tuple[float, ...], ...],
        markov_bound: tuple[tuple[float, ...], ...],
        markov_ok: bool,
        uan_final: tuple[float, ...],
        uan_ok: bool,
        vch_ok: bool | None,
    ):
        vars(self).update(
            n_list=n_list, eps_list=eps_list, mv=mv, b=b, a=a, sup_mv=sup_mv, c_target=c_target,
            vch_gap=vch_gap, u_table=u_table, markov_bound=markov_bound, markov_ok=markov_ok,
            uan_final=uan_final, uan_ok=uan_ok, vch_ok=vch_ok,
        )

    def to_dict(self) -> dict:
        """The fields in order, tuples as lists and the two tables keyed by
        repr(eps)."""
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}
        for name in ("u_table", "markov_bound"):
            d[name] = {repr(e): list(col) for e, col in zip(self.eps_list, d[name])}
        return d


def check_lists(n_list, eps_list) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """n_list as a nonempty, strictly increasing tuple of ints and eps_list as
    a tuple of positive floats; hypothesis_check, the verdicts and
    SimulationPlan check their lists here."""
    n_list = tuple(int(n) for n in n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    for i in range(1, len(n_list)):
        if n_list[i] <= n_list[i - 1]:
            raise EntryError("n_list must be strictly increasing", "n_list", i)
    eps_list = tuple(float(e) for e in eps_list)
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    return n_list, eps_list


def hypothesis_check(
    rows: Sequence[RowSpec],
    eps_list: Sequence[float],
    c_target: float | None = None,
    tol: float = 1e-3,
) -> HypothesisReport:
    """Tabulate MV(n), B_n, a_n and U(n, eps), plus the Markov envelope, over
    rows given in increasing order of n.

    Each row is read once, for all eps, by the kernel behind row_statistics,
    so the values equal row_statistics(row, eps) field for field, to the
    last bit.
    """
    n_list, eps_list = check_lists([r.n for r in rows], eps_list)

    mv, b, a = [], [], []
    u_cols = [[] for _ in eps_list]
    bound_cols = [[] for _ in eps_list]
    markov_ok = True
    for row in rows:
        row_mv, row_b, row_a, max_m2, row_u = _row_stats(row, eps_list)
        mv.append(row_mv)
        b.append(row_b)
        a.append(row_a)
        for eps, u, ucol, bcol in zip(eps_list, row_u, u_cols, bound_cols):
            # a bound of a probability still holds capped at the largest double
            bound = min(max_m2 / (eps * eps), _MAX_DOUBLE) if eps * eps else _MAX_DOUBLE
            ucol.append(u)
            bcol.append(bound)
            if u > bound + 1e-12:
                markov_ok = False
    u_table = [tuple(col) for col in u_cols]
    bound_table = [tuple(col) for col in bound_cols]

    uan_final = tuple(col[-1] for col in u_table)
    uan_ok = all(f <= tol for f in uan_final)
    vch_gap = None
    vch_ok = None
    if c_target is not None:
        vch_gap = tuple(abs(x - c_target) for x in mv)
        vch_ok = vch_gap[-1] <= tol

    return HypothesisReport(
        n_list=n_list,
        eps_list=eps_list,
        mv=tuple(mv),
        b=tuple(b),
        a=tuple(a),
        sup_mv=max(mv),
        c_target=c_target,
        vch_gap=vch_gap,
        u_table=tuple(u_table),
        markov_bound=tuple(bound_table),
        markov_ok=markov_ok,
        uan_final=uan_final,
        uan_ok=uan_ok,
        vch_ok=vch_ok,
    )


# ---------------------------------------------------------------------------
# JSON loading / dumping
# ---------------------------------------------------------------------------


def component_to_json(d: ComponentDist) -> dict:
    key = component_key(d)
    kind = list(_COMPONENT_FIELDS)[key[0]]
    if key[0] == DISCRETE:
        return {"kind": kind, "atoms": [list(a) for a in key[1]]}
    return dict(zip(_COMPONENT_FIELDS[kind], (kind, *key[1:])))


#: the fields of each component kind, in the order of the family codes
_COMPONENT_FIELDS = {
    "finite_discrete": ("kind", "atoms"),
    "gaussian": ("kind", "mean", "var"),
    "uniform": ("kind", "lo", "hi"),
}


def refuse_unknown(obj: dict, fields, path: str) -> None:
    """Refuse the first key of obj that is not in fields, with its pointer.
    Where every field is required, a caller may ask only when len(obj)
    differs from len(fields)."""
    for key in obj:
        if key not in fields:
            token = key.replace("~", "~0").replace("/", "~1")
            raise ArraySpecError(f"{path}/{token}: unknown field")


def _component_key(obj, path: str) -> tuple:
    """A component's JSON object as its key (see component_key), with every check of
    the component classes; anything malformed is refused with its pointer.

    A float within _MAX_SCALE (a finite one, for a probability) passes with
    a type test and a comparison, and the pointer of a number is built only
    when it fails them.
    """
    if not isinstance(obj, dict):
        raise ArraySpecError(f"{path or '/'}: expected an object")
    kind = obj.get("kind")
    if kind is None:
        raise ArraySpecError(f"{path}/kind: missing required field")
    fields = _COMPONENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ArraySpecError(f"{path}/kind: unknown component kind {kind!r}")
    if len(obj) != len(fields):
        refuse_unknown(obj, fields, path)
    if kind == "finite_discrete":
        atoms = obj.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ArraySpecError(f"{path}/atoms: expected a nonempty list")
        pairs = []
        total = 0.0
        negative = None
        for i, a in enumerate(atoms):
            if not isinstance(a, list) or len(a) != 2:
                raise ArraySpecError(f"{path}/atoms/{i}: expected [site, prob]")
            site, prob = a
            if type(site) is not float or not abs(site) <= _MAX_SCALE:
                pointer = f"{path}/atoms/{i}/0"
                site = _bounded(json_number(site, pointer), pointer, _MAX_SCALE)
            if type(prob) is not float or not abs(prob) <= _MAX_DOUBLE:
                prob = json_number(prob, f"{path}/atoms/{i}/1")
            if prob < 0.0 and negative is None:
                negative = (site, prob)
            total += prob
            pairs.append((site, prob))
        # FiniteDiscrete's checks, in its order
        if negative is not None:
            site, prob = negative
            raise ArraySpecError(f"{path}: negative probability {prob} at site {site}")
        if abs(total - 1.0) > 1e-12:
            raise ArraySpecError(f"{path}: atom probabilities sum to {total}, expected 1")
        return (DISCRETE, tuple(pairs))
    first, second = fields[1], fields[2]
    x, y = obj.get(first), obj.get(second)
    if type(x) is not float or not abs(x) <= _MAX_SCALE:
        x = _bounded(_req_num(obj, first, path), f"{path}/{first}", _MAX_SCALE)
    y_max = _MAX_SCALE * _MAX_SCALE if kind == "gaussian" else _MAX_SCALE
    if type(y) is not float or not abs(y) <= y_max:
        y = _bounded(_req_num(obj, second, path), f"{path}/{second}", y_max)
    if kind == "gaussian":
        if not y > 0.0:
            raise ArraySpecError(
                f"{path}: Gaussian needs finite mean and variance > 0, got ({x}, {y})")
        return (GAUSSIAN, x, y)
    if not x < y:
        raise ArraySpecError(f"{path}: Uniform needs lo < hi, got ({x}, {y})")
    return (UNIFORM, x, y)


def _bounded(x: float, pointer: str, bound: float) -> float:
    """x, refused with its pointer where its magnitude passes bound."""
    if not abs(x) <= bound:
        raise ArraySpecError(f"{pointer}: |{x!r}| exceeds {bound!r}; the moments of the "
                             "component would not fit in a double")
    return x


def component_from_json(obj, path: str = "") -> ComponentDist:
    key = _component_key(obj, path)
    if key[0] == DISCRETE:
        return FiniteDiscrete(key[1])
    return (Gaussian if key[0] == GAUSSIAN else Uniform)(key[1], key[2])


def json_number(v, pointer: str, integer: bool = False):
    """A JSON number as a finite float, or with integer=True a JSON integer as
    an int; booleans, strings and numbers a double cannot hold are refused."""
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ArraySpecError(f"{pointer}: expected {kind}, got {v!r}")
    # NaN, the infinities and integers past the largest double fail this test
    if not abs(v) <= _MAX_DOUBLE:
        raise ArraySpecError(f"{pointer}: not a finite double")
    return v if integer else float(v)


def _req_num(obj: dict, key: str, path: str) -> float:
    if key not in obj:
        raise ArraySpecError(f"{path}/{key}: missing required field")
    return json_number(obj[key], f"{path}/{key}")


def generator_from_json(obj, path: str = "") -> ArrayGenerator:
    """Explicit rows are parsed straight into group tables: components group
    by key, so no component object is made."""
    if not isinstance(obj, dict):
        raise ArraySpecError(f"{path or '/'}: expected an object")
    name = obj.get("generator")
    if name is None:
        raise ArraySpecError(f"{path}/generator: missing required field")
    if name == "standardized_iid":
        if len(obj) != 2:
            refuse_unknown(obj, ("generator", "base"), path)
        if "base" not in obj:
            raise ArraySpecError(f"{path}/base: missing required field")
        base = component_from_json(obj["base"], f"{path}/base")
        try:
            return StandardizedIid(base)
        except ValueError as exc:
            raise ArraySpecError(f"{path}/base: {exc}") from exc
    if name == "bernoulli_poisson":
        if len(obj) != 2:
            refuse_unknown(obj, ("generator", "lambda"), path)
        lam = _req_num(obj, "lambda", path)
        try:
            return BernoulliPoisson(lam)
        except ValueError as exc:
            raise ArraySpecError(f"{path}/lambda: {exc}") from exc
    if name == "explicit":
        if len(obj) != 2:
            refuse_unknown(obj, ("generator", "rows"), path)
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ArraySpecError(f"{path}/rows: expected a nonempty list")
        built = []
        seen = set()
        for i, robj in enumerate(rows):
            rpath = f"{path}/rows/{i}"
            if not isinstance(robj, dict) or "n" not in robj or "components" not in robj:
                raise ArraySpecError(f"{rpath}: expected an object with 'n' and 'components'")
            if len(robj) != 2:
                refuse_unknown(robj, ("n", "components"), rpath)
            n = json_number(robj["n"], f"{rpath}/n", integer=True)
            if n in seen:
                raise ArraySpecError(f"{rpath}/n: row n={n} repeats an earlier row")
            seen.add(n)
            comps = robj["components"]
            if not isinstance(comps, list) or not comps:
                raise ArraySpecError(f"{rpath}/components: expected a nonempty list")
            try:
                keys = [_component_key(c, "") for c in comps]
            except ArraySpecError:
                # the pointer of the first bad component, built only now
                for j, c in enumerate(comps):
                    _component_key(c, f"{rpath}/components/{j}")
                raise
            # equal components merge, the first appearance kept, as in RowSpec
            groups = Counter(keys)
            built.append(RowSpec.from_table(n, GroupTable.of_keys(groups, groups.values())))
        return ExplicitArray(tuple(built))
    raise ArraySpecError(f"{path}/generator: unknown generator {name!r}")
