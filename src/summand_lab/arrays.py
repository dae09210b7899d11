"""Triangular-array rows: component distributions, row statistics, generators.

Component families are restricted to those with closed-form partial and
tail second moments (finite-discrete, Gaussian, uniform), so accumulation
measures and Lindeberg sums downstream carry no quadrature error; the
continuous ones also carry a closed-form compensated characteristic
function, so the limit exponent needs none either.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ArraySpecError(ValueError):
    """An array JSON document violates the schema; message carries a JSON pointer."""


# ---------------------------------------------------------------------------
# Component distributions
# ---------------------------------------------------------------------------


class ComponentDist:
    """One array entry's distribution, with exact moment functionals.

    Subclasses are frozen dataclasses; all methods are pure.
    """

    def mean(self) -> float:
        raise NotImplementedError

    def var(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        return self.var() + self.mean() ** 2

    def cf(self, t: float) -> complex:
        """Characteristic function at t."""
        raise NotImplementedError

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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteDiscrete(ComponentDist):
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("FiniteDiscrete needs at least one atom")
        coerced = []
        total = 0.0
        for site, prob in self.atoms:
            site, prob = float(site), float(prob)
            if not (math.isfinite(site) and math.isfinite(prob)):
                raise ValueError(f"non-finite atom ({site}, {prob})")
            if prob < 0.0:
                raise ValueError(f"negative probability {prob} at site {site}")
            coerced.append((site, prob))
            total += prob
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {total}, expected 1")
        object.__setattr__(self, "atoms", tuple(coerced))

    def mean(self):
        return math.fsum(x * p for x, p in self.atoms)

    def var(self):
        m = self.mean()
        return math.fsum((x - m) ** 2 * p for x, p in self.atoms)

    def second_moment(self):
        return math.fsum(x * x * p for x, p in self.atoms)

    def cf(self, t):
        return sum(p * complex(math.cos(t * x), math.sin(t * x)) for x, p in self.atoms)

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

    def sample(self, rng, size):
        sites = np.array([x for x, _ in self.atoms])
        cum = np.cumsum([p for _, p in self.atoms])
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return sites[np.minimum(idx, len(sites) - 1)]


@dataclass(frozen=True)
class Gaussian(ComponentDist):
    m: float
    v: float  # variance, strictly positive

    def __post_init__(self):
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "v", float(self.v))
        if not (self.v > 0.0 and math.isfinite(self.v) and math.isfinite(self.m)):
            raise ValueError(f"Gaussian needs finite mean and variance > 0, got ({self.m}, {self.v})")

    def mean(self):
        return self.m

    def var(self):
        return self.v

    def cf(self, t):
        return cexp(self.m * t, -0.5 * self.v * t * t)

    def compensated_cf(self, t: float) -> complex:
        """E[e^{itX} - 1 - itX] = e^z - 1 - imt with z = imt - vt^2/2."""
        z = complex(-0.5 * self.v * t * t, self.m * t)
        return z * z * phi2(z) + z.real  # (e^z - 1 - z) + Re z

    def prob_abs_ge(self, eps):
        sd = math.sqrt(self.v)
        return float(ndtr((self.m - eps) / sd) + ndtr((-eps - self.m) / sd))

    def partial_m2(self, x):
        sd = math.sqrt(self.v)
        z = (x - self.m) / sd
        phi = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
        return (self.m * self.m + self.v) * float(ndtr(z)) - sd * (x + self.m) * phi

    def partial_m3(self, x):
        sd = math.sqrt(self.v)
        z = (x - self.m) / sd
        phi = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
        head = (self.m ** 3 + 3.0 * self.m * self.v) * float(ndtr(z))
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
        # inverse-CDF on an open-(0,1) uniform so the draw is a pure function
        # of the bit stream (no rejection steps)
        u = _uniform_open(rng, size)
        return self.m + math.sqrt(self.v) * ndtri(u)


@dataclass(frozen=True)
class Uniform(ComponentDist):
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"Uniform needs lo < hi, got ({self.lo}, {self.hi})")

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def var(self):
        return (self.hi - self.lo) ** 2 / 12.0

    def cf(self, t):
        half = 0.5 * (self.hi - self.lo) * t
        mid = 0.5 * (self.hi + self.lo) * t
        return cexp(mid, 0.0) * _sinc(half)

    def compensated_cf(self, t: float) -> complex:
        """E[e^{itX} - 1 - itX], cancellation-safe for small |t| and narrow,
        off-centre supports.

        With X = c + h U, U uniform on [-1, 1], the value is
        e^{ict} (sinc(ht) - 1) + (e^{ict} - 1 - ict), and both terms have
        the sign of the whole at small |t|, so nothing cancels.
        """
        ct = 0.5 * (self.hi + self.lo) * t
        theta = 0.5 * (self.hi - self.lo) * t
        sinc_m1 = -theta * phi2(complex(0.0, theta)).imag  # (sin(theta) - theta) / theta
        w = complex(0.0, ct)
        return cexp(ct, 0.0) * sinc_m1 + w * w * phi2(w)

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

    def sample(self, rng, size):
        return self.lo + (self.hi - self.lo) * rng.random(size)


def cexp(imag_arg: float, real_arg: float) -> complex:
    """exp(real_arg + i*imag_arg)."""
    r = math.exp(real_arg)
    return complex(r * math.cos(imag_arg), r * math.sin(imag_arg))


#: below this |w| the direct (e^w - 1 - w) / w^2 loses more than ~1e-14
#: relative accuracy to cancellation; there the Taylor series through w^13
#: is exact to double rounding (the first omitted term is below 1e-17 of it)
_SERIES_SWITCH = 0.5
_PHI2_COEFFS = tuple(1.0 / math.factorial(j) for j in range(15, 1, -1))


def phi2(w: complex) -> complex:
    """(e^w - 1 - w) / w^2, with the removable value 1/2 at w = 0.

    The one small-argument series behind every compensated exponential:
    atoms of the limit exponent and the compensated characteristic functions.
    """
    if abs(w) < _SERIES_SWITCH:
        acc = 0j
        for c in _PHI2_COEFFS:
            acc = acc * w + c
        return acc
    return (cmath.exp(w) - 1.0 - w) / (w * w)


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


def _sinc(z: float) -> float:
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return math.sin(z) / z


def _uniform_open(rng: np.random.Generator, size: int) -> np.ndarray:
    # 53-bit uniforms on the open interval (0,1); ndtri stays finite
    return rng.integers(1, 1 << 53, size=size).astype(np.float64) / float(1 << 53)


# ---------------------------------------------------------------------------
# Rows and generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowSpec:
    """Row n of an array as (component, count) groups.

    ``components`` takes (ComponentDist, count) pairs; equal-valued components
    are merged into one group, kept in order of first appearance, so every
    per-row sum costs O(#groups) rather than O(k(n)).
    """

    n: int
    components: tuple[tuple[ComponentDist, int], ...]

    def __post_init__(self):
        groups: dict[ComponentDist, int] = {}
        for i, pair in enumerate(self.components):
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
            groups[comp] = groups.get(comp, 0) + count
        if not groups:
            raise ValueError("a row needs at least one component")
        object.__setattr__(self, "components", tuple(groups.items()))

    def k(self) -> int:
        return sum(count for _, count in self.components)

    def centered(self) -> "RowSpec":
        """Row with every component shifted by its own mean."""
        return RowSpec(self.n, tuple((d.shifted(d.mean()), count) for d, count in self.components))


class RowStats(NamedTuple):
    u: float   # max_k P(|X_k| >= eps)
    mv: float  # sum of variances
    b: float   # max variance
    a: float   # sum of means


def row_statistics(row: RowSpec, eps: float) -> RowStats:
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    u = 0.0
    mv = 0.0
    b = 0.0
    a = 0.0
    for dist, count in row.components:
        u = max(u, dist.prob_abs_ge(eps))
        v = dist.var()
        mv += v * count
        b = max(b, v)
        a += dist.mean() * count
    return RowStats(u, mv, b, a)


class ArrayGenerator:
    """Deterministic pure rule n -> RowSpec."""

    def row(self, n: int) -> RowSpec:
        raise NotImplementedError


@dataclass(frozen=True)
class StandardizedIid(ArrayGenerator):
    """n copies of base / s_n with s_n^2 = n * Var(base)."""

    base: ComponentDist

    def __post_init__(self):
        if self.base.var() <= 0.0:
            raise ValueError("StandardizedIid base needs positive variance")

    def row(self, n):
        if n < 1:
            raise ValueError("row index must be >= 1")
        comp = self.base.scaled(math.sqrt(n * self.base.var()))
        return RowSpec(n, ((comp, n),))


@dataclass(frozen=True)
class BernoulliPoisson(ArrayGenerator):
    """n copies of Bernoulli(lam / n) on {0, 1}."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError("lambda must be positive and finite")

    def row(self, n):
        if n < 1:
            raise ValueError("row index must be >= 1")
        p = self.lam / n
        if p > 1.0:
            raise ValueError(f"row {n} would need success probability {p} > 1")
        comp = FiniteDiscrete(((0.0, 1.0 - p), (1.0, p)))
        return RowSpec(n, ((comp, n),))


@dataclass(frozen=True)
class ExplicitArray(ArrayGenerator):
    rows: tuple[RowSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("ExplicitArray needs at least one row")

    def row(self, n):
        for r in self.rows:
            if r.n == n:
                return r
        have = sorted(r.n for r in self.rows)
        raise ValueError(f"no explicit row for n={n}; available: {have}")


# ---------------------------------------------------------------------------
# Hypothesis statistics over a list of row indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Raw bounded-variance / variance-convergence / negligibility statistics.

    markov_bound holds eps^-2 * max_k E[X_{k,n}^2]; for centered rows this is
    the classical Chebyshev envelope for the per-term exceedance probability.
    """

    n_list: tuple[int, ...]
    eps_list: tuple[float, ...]
    mv: tuple[float, ...]
    b: tuple[float, ...]
    a: tuple[float, ...]
    sup_mv: float
    c_target: float | None
    vch_gap: tuple[float, ...] | None
    u_table: tuple[tuple[float, ...], ...]        # [i_eps][i_n]
    markov_bound: tuple[tuple[float, ...], ...]   # [i_eps][i_n]
    markov_ok: bool
    uan_final: tuple[float, ...]                  # U at largest n, per eps
    uan_ok: bool
    vch_ok: bool | None

    def to_dict(self) -> dict:
        d = {
            "n_list": list(self.n_list),
            "eps_list": list(self.eps_list),
            "mv": list(self.mv),
            "b": list(self.b),
            "a": list(self.a),
            "sup_mv": self.sup_mv,
            "c_target": self.c_target,
            "vch_gap": None if self.vch_gap is None else list(self.vch_gap),
            "u_table": {repr(e): list(col) for e, col in zip(self.eps_list, self.u_table)},
            "markov_bound": {repr(e): list(col) for e, col in zip(self.eps_list, self.markov_bound)},
            "markov_ok": self.markov_ok,
            "uan_final": list(self.uan_final),
            "uan_ok": self.uan_ok,
            "vch_ok": self.vch_ok,
        }
        return d


def hypothesis_check(
    gen: ArrayGenerator,
    n_list: Sequence[int],
    eps_list: Sequence[float],
    c_target: float | None = None,
    tol: float = 1e-3,
) -> HypothesisReport:
    """Tabulate MV(n), B_n, a_n and U(n, eps), plus the Markov envelope."""
    n_list = tuple(int(n) for n in n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    eps_list = tuple(float(e) for e in eps_list)
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")

    rows = [gen.row(n) for n in n_list]
    mv, b, a, max_m2 = [], [], [], []
    for row in rows:
        st = row_statistics(row, eps_list[0] if eps_list else 1.0)
        mv.append(st.mv)
        b.append(st.b)
        a.append(st.a)
        max_m2.append(max(d.second_moment() for d, _ in row.components))

    u_table, bound_table = [], []
    markov_ok = True
    for eps in eps_list:
        col, bcol = [], []
        for row, m2 in zip(rows, max_m2):
            u = row_statistics(row, eps).u
            bound = m2 / (eps * eps)
            col.append(u)
            bcol.append(bound)
            if u > bound + 1e-12:
                markov_ok = False
        u_table.append(tuple(col))
        bound_table.append(tuple(bcol))

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
    if isinstance(d, FiniteDiscrete):
        return {"kind": "finite_discrete", "atoms": [[x, p] for x, p in d.atoms]}
    if isinstance(d, Gaussian):
        return {"kind": "gaussian", "mean": d.m, "var": d.v}
    if isinstance(d, Uniform):
        return {"kind": "uniform", "lo": d.lo, "hi": d.hi}
    raise TypeError(f"unknown component type {type(d).__name__}")


def component_from_json(obj, path: str = "") -> ComponentDist:
    if not isinstance(obj, dict):
        raise ArraySpecError(f"{path or '/'}: expected an object")
    kind = obj.get("kind")
    if kind is None:
        raise ArraySpecError(f"{path}/kind: missing required field")
    try:
        if kind == "finite_discrete":
            atoms = obj.get("atoms")
            if not isinstance(atoms, list) or not atoms:
                raise ArraySpecError(f"{path}/atoms: expected a nonempty list")
            return FiniteDiscrete(tuple((float(a[0]), float(a[1])) for a in atoms))
        if kind == "gaussian":
            return Gaussian(_req_num(obj, "mean", path), _req_num(obj, "var", path))
        if kind == "uniform":
            return Uniform(_req_num(obj, "lo", path), _req_num(obj, "hi", path))
    except (ValueError, TypeError, IndexError) as exc:
        if isinstance(exc, ArraySpecError):
            raise
        raise ArraySpecError(f"{path}: {exc}") from exc
    raise ArraySpecError(f"{path}/kind: unknown component kind {kind!r}")


def _req_num(obj: dict, key: str, path: str) -> float:
    if key not in obj:
        raise ArraySpecError(f"{path}/{key}: missing required field")
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ArraySpecError(f"{path}/{key}: expected a number, got {v!r}")
    return float(v)


def generator_to_json(gen: ArrayGenerator) -> dict:
    if isinstance(gen, StandardizedIid):
        return {"generator": "standardized_iid", "base": component_to_json(gen.base)}
    if isinstance(gen, BernoulliPoisson):
        return {"generator": "bernoulli_poisson", "lambda": gen.lam}
    if isinstance(gen, ExplicitArray):
        return {
            "generator": "explicit",
            "rows": [
                {
                    "n": r.n,
                    "components": [
                        component_to_json(c) for c, count in r.components for _ in range(count)
                    ],
                }
                for r in gen.rows
            ],
        }
    raise TypeError(f"unknown generator type {type(gen).__name__}")


def generator_from_json(obj, path: str = "") -> ArrayGenerator:
    if not isinstance(obj, dict):
        raise ArraySpecError(f"{path or '/'}: expected an object")
    name = obj.get("generator")
    if name is None:
        raise ArraySpecError(f"{path}/generator: missing required field")
    if name == "standardized_iid":
        if "base" not in obj:
            raise ArraySpecError(f"{path}/base: missing required field")
        base = component_from_json(obj["base"], f"{path}/base")
        try:
            return StandardizedIid(base)
        except ValueError as exc:
            raise ArraySpecError(f"{path}/base: {exc}") from exc
    if name == "bernoulli_poisson":
        lam = _req_num(obj, "lambda", path)
        try:
            return BernoulliPoisson(lam)
        except ValueError as exc:
            raise ArraySpecError(f"{path}/lambda: {exc}") from exc
    if name == "explicit":
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ArraySpecError(f"{path}/rows: expected a nonempty list")
        built = []
        for i, robj in enumerate(rows):
            rpath = f"{path}/rows/{i}"
            if not isinstance(robj, dict) or "n" not in robj or "components" not in robj:
                raise ArraySpecError(f"{rpath}: expected an object with 'n' and 'components'")
            comps = [
                component_from_json(c, f"{rpath}/components/{j}")
                for j, c in enumerate(robj["components"])
            ]
            try:
                # a generator, so no tuple of k(n) pairs outlives the grouping
                built.append(RowSpec(int(robj["n"]), ((c, 1) for c in comps)))
            except (ValueError, TypeError) as exc:
                raise ArraySpecError(f"{rpath}: {exc}") from exc
        return ExplicitArray(tuple(built))
    raise ArraySpecError(f"{path}/generator: unknown generator {name!r}")
