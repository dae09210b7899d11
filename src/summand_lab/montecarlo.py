"""Monte Carlo verification of weak limits.

Row sums are sampled from Philox counter-based substreams keyed by
(seed, stream_id), so any fixed chunking of the work reproduces bit-identical
output regardless of how many workers execute the chunks. Distances to the
predicted limit: exact one-sample Kolmogorov-Smirnov over the distinct sample
values, and the max empirical-characteristic-function gap on a u-grid, whose
empirical side is arrays.exp_sums over the whole grid (angle addition with
exact re-seeding, accurate to about 1e-13). For Bernoulli rows the
binomial-vs-Poisson total variation is computed exactly from pmfs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .arrays import ArrayGenerator, ComponentDist, FiniteDiscrete, Gaussian, RowSpec, exp_sums
from .cf import CharFn, GaussianCF, TranslatedPoissonCF, eval_cf

#: samples per logical substream; chunk j of row index i draws from
#: stream_id = (i << 32) | j.  Fixed once: changing it changes the streams.
SUBSTREAM_CHUNK = 16384


def _substream(seed: int, stream_id: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(stream_id & (2**64 - 1))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_sums(row: RowSpec, count: int, seed: int, stream_id: int = 0) -> np.ndarray:
    """count independent realizations of the row sum, one fixed substream.

    Groups draw in row order from the single (seed, stream_id) stream, each
    from the exact law of its sum, and all Gaussian groups together draw last
    as one N(sum c m, sum c v); the result is a pure function of the two
    integers.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _substream(seed, stream_id)
    total = np.zeros(count, dtype=np.float64)
    gauss_m, gauss_v = [], []
    for comp, copies in row.components:
        if isinstance(comp, Gaussian):
            gauss_m.append(copies * comp.m)
            gauss_v.append(copies * comp.v)
        else:
            total += _group_sums(comp, copies, rng, count)
    if gauss_v:
        total += Gaussian(math.fsum(gauss_m), math.fsum(gauss_v)).sample(rng, count)
    return total


def _group_sums(comp: ComponentDist, copies: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """size realizations of the sum of `copies` independent draws of comp.

    A finite-discrete group is sites . Multinomial(copies, probs); any other
    family draws once per copy (Irwin-Hall sums have no cheap exact sampler).
    """
    if isinstance(comp, FiniteDiscrete) and copies > 1:
        sites = np.array([x for x, _ in comp.atoms])
        probs = np.array([p for _, p in comp.atoms])
        # atoms may sum to 1 +- 1e-12, which numpy's own check can reject
        return rng.multinomial(copies, probs / probs.sum(), size=size) @ sites
    total = comp.sample(rng, size)
    for _ in range(copies - 1):
        total += comp.sample(rng, size)
    return total


def sample_sums_chunked(
    row: RowSpec, count: int, seed: int, base_stream: int = 0, chunk: int = SUBSTREAM_CHUNK
) -> np.ndarray:
    """Same law as sample_sums, split over logical substreams.

    Chunk j uses stream base_stream + j and fills a fixed slice of the output,
    so chunks may run in any order (or on any number of workers) and the merge
    is still byte-identical.
    """
    out = np.empty(count, dtype=np.float64)
    for j, start in enumerate(range(0, count, chunk)):
        m = min(chunk, count - start)
        out[start:start + m] = sample_sums(row, m, seed, base_stream + j)
    return out


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def ks_distance(
    samples: Sequence[float], limit_cdf: Callable, lattice: float | None = None
) -> float:
    """sup_x |ECDF(x) - F(x)|, exact for continuous and step CDFs alike.

    Between consecutive distinct sample values the ECDF is constant and F is
    monotone, so the supremum is reached at a sample value x (ECDF(x) against
    F(x)) or just below one (ECDF(x-) against the left limit F(x-)). F(x-) is
    F at the next double below x: exact for a CDF evaluated in floating point.

    A lattice offset b says that F jumps only on b + Z (a translated Poisson
    limit). Row sums reach that lattice only up to rounding, so here a sample
    within 1e-9 max(1, |x|) of a lattice point counts as that point, and F(x)
    and F(x-) at a lattice point are read half a step to either side, where
    F is flat and a rounding in the CDF's own arithmetic cannot move a step.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.size == 0:
        raise ValueError("samples must be nonempty")
    if lattice is not None:
        point = lattice + np.round(s - lattice)
        s = np.where(np.abs(s - point) <= 1e-9 * np.maximum(1.0, np.abs(s)), point, s)
    values, first = np.unique(np.sort(s), return_index=True)
    n = s.size
    below = first / n
    at = np.append(first[1:], n) / n
    x_at, x_left = values, np.nextafter(values, -np.inf)
    if lattice is not None:
        on = values == lattice + np.round(values - lattice)
        x_at, x_left = np.where(on, values + 0.5, x_at), np.where(on, values - 0.5, x_left)
    f = np.asarray(limit_cdf(x_at), dtype=np.float64)
    f_left = np.asarray(limit_cdf(x_left), dtype=np.float64)
    return float(max(np.max(np.abs(at - f)), np.max(np.abs(below - f_left))))


def ecf_distance(samples: Sequence[float], limit_cf: CharFn, u_grid: Sequence[float]) -> float:
    """max over the grid of |mean e^{iuS} - limit(u)|.

    The empirical mean is exp_sums over the distinct sample values weighted
    by their frequencies, for the whole grid at once: angle addition with
    exact re-seeding, accurate to about 1e-13. Lattice sums have few distinct
    values, and the temporaries stay the size of the sample.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.size == 0 or len(u_grid) == 0:
        raise ValueError("samples and u_grid must be nonempty")
    values, counts = np.unique(s, return_counts=True)
    emp = exp_sums(u_grid, values, counts / s.size)
    return max(abs(complex(e) - eval_cf(limit_cf, float(u))) for u, e in zip(u_grid, emp))


def std_normal_cdf(x):
    return ndtr(np.asarray(x, dtype=np.float64))


def translated_poisson_cdf(b: float, lam: float) -> Callable:
    """CDF of b + Poisson(lam); pmf by the stable upward recursion.

    The jumps sit at the doubles b + k as floating point computes them, so
    F(x) is the mass of the k with b + k <= x. floor(x - b) alone can miss
    by one where x - b rounds across an integer: at x = b + 2 for b = 0.3,
    x - b is 1.9999999999999998.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        k = np.floor(x - b)
        k += b + (k + 1.0) <= x
        k -= b + k > x
        kmax = int(np.max(k)) if x.size else -1
        if kmax < 0:
            return np.zeros_like(x)
        pmf = np.empty(kmax + 1)
        pmf[0] = math.exp(-lam)
        for j in range(kmax):
            pmf[j + 1] = pmf[j] * lam / (j + 1)
        cum = np.concatenate(([0.0], np.cumsum(pmf)))
        idx = np.clip(k.astype(np.int64) + 1, 0, kmax + 1)
        return cum[idx]

    return cdf


def tv_binomial_poisson(n: int, p: float, lam: float) -> float:
    """Exact total variation between Binomial(n, p) and Poisson(lam).

    0.5 * sum_{k<=n} |b_k - q_k| plus half the Poisson mass beyond n; both
    pmfs by stable upward recursions.
    """
    if n < 1 or not (0.0 <= p < 1.0) or lam <= 0.0:
        raise ValueError("need n >= 1, 0 <= p < 1, lam > 0")
    bk = math.exp(n * math.log1p(-p))
    qk = math.exp(-lam)
    ratio = p / (1.0 - p)
    acc = 0.0
    qsum = 0.0
    for k in range(n + 1):
        acc += abs(bk - qk)
        qsum += qk
        bk *= (n - k) / (k + 1.0) * ratio
        qk *= lam / (k + 1.0)
    tail = max(0.0, 1.0 - qsum)
    return 0.5 * (acc + tail)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NamedLimit:
    """A limit with both characteristic function and CDF available."""

    label: str
    cf: CharFn
    cdf: Callable | None
    lattice: float | None = None  # offset b when the CDF jumps only on b + Z


def std_gaussian_limit() -> NamedLimit:
    return NamedLimit("std_gaussian", GaussianCF(0.0, 1.0), std_normal_cdf)


def translated_poisson_limit(b: float, lam: float) -> NamedLimit:
    return NamedLimit(
        f"translated_poisson(b={b!r}, lambda={lam!r})",
        TranslatedPoissonCF(b, lam),
        translated_poisson_cdf(b, lam),
        lattice=b,
    )


def cf_only_limit(cf: CharFn) -> NamedLimit:
    # no CDF: KS is skipped for such limits
    return NamedLimit("cf", cf, None)


@dataclass(frozen=True)
class SimulationPlan:
    generator: ArrayGenerator
    n_list: tuple[int, ...]
    samples_per_n: int
    seed: int
    u_grid: tuple[float, ...]
    limit: NamedLimit

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "u_grid", tuple(float(u) for u in self.u_grid))
        if self.samples_per_n < 1:
            raise ValueError("samples_per_n must be >= 1")


@dataclass(frozen=True)
class SimResult:
    n: int
    ks: float | None
    ecf: float
    samples_per_n: int
    seed: int


def run_simulation(plan: SimulationPlan, keep_samples: bool = False):
    """Per n: sample sums on substreams (i << 32 | chunk) and measure distances.

    Returns (results, samples_by_n); the dict is empty unless keep_samples.
    """
    results: list[SimResult] = []
    kept: dict[int, np.ndarray] = {}
    for i, n in enumerate(plan.n_list):
        row = plan.generator.row(n)
        s = sample_sums_chunked(row, plan.samples_per_n, plan.seed, base_stream=i << 32)
        ks = None if plan.limit.cdf is None else ks_distance(s, plan.limit.cdf, plan.limit.lattice)
        ecf = ecf_distance(s, plan.limit.cf, plan.u_grid)
        results.append(SimResult(n, ks, ecf, plan.samples_per_n, plan.seed))
        if keep_samples:
            kept[n] = s
    return results, kept
