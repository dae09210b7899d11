"""Monte Carlo verification of weak limits.

Row sums are sampled from SFC64 substreams, each seeded by
SeedSequence(seed, spawn_key=(stream_id,)), so a stream is a pure function of
(seed, stream_id) and any fixed chunking of the work reproduces bit-identical
output regardless of how many workers execute the chunks. A row's draws are
planned once from its GroupTable (_RowDraws) and run per chunk into one
reused buffer: a two-atom group by compare-and-take, a uniform copy scaled
in place, and every Gaussian group together as one draw of the Generator's
normal sampler. The streams and roundings are those of a per-component draw
into fresh arrays, which the tests keep as the reference. Distances to the
predicted limit: exact one-sample Kolmogorov-Smirnov over the distinct sample
values, and the max empirical-characteristic-function gap on a u-grid, whose
empirical side is arrays.exp_sums over the whole grid (angle addition with
exact re-seeding, accurate to about 1e-13). Both read one Tally of the
sample: its distinct values and their counts, from the one sort of
np.unique. For Bernoulli rows the binomial-vs-Poisson total variation is
computed exactly from pmfs.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

from ._lazy import np
from .arrays import (
    DISCRETE, GAUSSIAN, UNIFORM, ArrayGenerator, Gaussian, GroupTable, RowSpec, check_lists,
    exp_sums,
)
from .cf import CharFn, GaussianCF, TranslatedPoissonCF, eval_cf
from .config import Value
from .normal import ndtr

#: samples per logical substream; chunk j of row index i draws from
#: stream_id = (i << 32) | j.  Fixed once: changing it changes the streams.
SUBSTREAM_CHUNK = 16384
_U64 = 2**64 - 1


def _substream(seed: int, stream_id: int) -> np.random.Generator:
    """The generator of stream (seed, stream_id), both read modulo 2^64.

    SeedSequence hashes the seed and the spawn key into SFC64's state, so
    distinct ids give independent streams; SFC64 draws a double in about a
    third of Philox's time. numpy keeps the output of a bit generator and of
    SeedSequence stable across releases for a fixed seed; Generator methods
    may change with a release.
    """
    r = np.random
    return r.Generator(r.SFC64(r.SeedSequence(seed & _U64, spawn_key=(stream_id & _U64,))))


def sample_sums(row: RowSpec, count: int, seed: int, stream_id: int = 0) -> np.ndarray:
    """count independent realizations of the row sum, one fixed substream.

    Groups draw in row order from the single (seed, stream_id) stream, each
    from the exact law of its sum, and all Gaussian groups together draw last
    as one N(sum c m, sum c v); the result is a pure function of the two
    integers. The draws go into one buffer of count doubles, reused by every
    group (see _RowDraws); their order and every rounding are those of a
    per-component draw into fresh arrays.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    total = np.empty(count, dtype=np.float64)
    _RowDraws(row.table).fill(total, seed, stream_id)
    return total


def sample_sums_chunked(row: RowSpec, count: int, seed: int, base_stream: int = 0) -> np.ndarray:
    """Same law as sample_sums, split over logical substreams.

    Chunk j, of SUBSTREAM_CHUNK samples, uses stream base_stream + j and
    fills a fixed slice of the output, so chunks may run in any order (or on
    any number of workers) and the merge is still byte-identical.
    """
    draws = _RowDraws(row.table)
    out = np.empty(count, dtype=np.float64)
    for j, start in enumerate(range(0, count, SUBSTREAM_CHUNK)):
        draws.fill(out[start:start + SUBSTREAM_CHUNK], seed, base_stream + j)
    return out


# the steps of _RowDraws, one per discrete or uniform group
_TAKE, _COMPARE, _SEARCH, _MULTINOMIAL, _UNIFORM = range(5)
#: _RowDraws counts a single copy's atoms by comparison up to this many atoms
#: and binary-searches above it: on 1e4 unsorted draws the two cost about the
#: same near 32 atoms, and the comparisons win by 1.7x at 16 atoms and 7x at 2
_COMPARE_MAX_ATOMS = 32


class _RowDraws:
    """The draws of one row's sum, planned once per row from its GroupTable
    and run once per chunk into buffers of the chunk's size.

    Each discrete or uniform group is one step, in group order:

    - _TAKE, a single copy of at most two atoms: one uniform u per sample
      picks sites[u >= probs[0]] (probs[0] is +inf for one atom), by
      compare-and-take on a bool mask;
    - _COMPARE and _SEARCH, a single copy of more atoms: the atom index of
      u is the number of cumulative probabilities before the last that are
      <= u, counted into one intp buffer by comparisons up to
      _COMPARE_MAX_ATOMS atoms (_COMPARE) and by binary search above
      (_SEARCH);
    - _MULTINOMIAL, c > 1 copies of a discrete law: sites . Multinomial(c,
      probs) per sample;
    - _UNIFORM, c copies of Uniform(lo, lo + width): each copy is
      buf *= width; buf += lo on one rng.random(out=buf), and c > 1 copies
      add up in a second buffer before they join the total.

    These are the draws, in the order and with the roundings, of the
    reference samplers in tests/arrayref.py (discrete_draws by inversion,
    uniform_draws as lo + (hi - lo) u) and of the multinomial sum: only the
    arrays those allocate per group are gone. The Gaussian groups draw last,
    as one Gaussian, by the Generator's normal sampler (arrays.Gaussian.sample).
    """

    def __init__(self, table: GroupTable):
        steps = []
        disc = zip(table.sites, table.probs, table.natoms.tolist())
        unif = zip(table.lo.tolist(), table.hi.tolist())
        for f, c in zip(table.fam.tolist(), table.count.tolist()):
            c = int(c)
            if f == DISCRETE:
                sites, probs, k = next(disc)
                if c > 1:
                    # atoms may sum to 1 +- 1e-12, which numpy's own check can reject
                    steps.append((_MULTINOMIAL, c, sites[:k], probs[:k] / probs[:k].sum()))
                elif k <= 2:
                    # one atom is padded with a zero atom, which u >= inf never picks
                    steps.append((_TAKE, sites[:2], float(probs[0]) if k == 2 else math.inf))
                elif k <= _COMPARE_MAX_ATOMS:
                    steps.append((_COMPARE, sites[:k], np.cumsum(probs[:k])[:-1].tolist()))
                else:
                    steps.append((_SEARCH, sites[:k], np.cumsum(probs[:k])))
            elif f == UNIFORM:
                lo, hi = next(unif)
                steps.append((_UNIFORM, c, lo, hi - lo))
        kinds = {s[0] for s in steps}
        self.steps = steps
        self.buffered = bool(kinds - {_MULTINOMIAL})
        self.indexed = bool(kinds & {_COMPARE, _SEARCH})
        self.summed = any(s[0] == _UNIFORM and s[1] > 1 for s in steps)
        g = table.index[GAUSSIAN]
        self.gaussian = None
        if g.size:
            c = table.count[g]
            self.gaussian = Gaussian(math.fsum(c * table.m), math.fsum(c * table.v))

    def fill(self, total: np.ndarray, seed: int, stream_id: int) -> None:
        """Write total.size realizations of the row sum, drawn from stream
        (seed, stream_id), into total."""
        rng = _substream(seed, stream_id)
        size = total.size
        total.fill(0.0)
        # a row of multinomial groups alone allocates none of these
        buf = np.empty(size) if self.buffered else None
        mask = np.empty(size, dtype=bool) if self.buffered else None
        idx = np.empty(size, dtype=np.intp) if self.indexed else None
        acc = np.empty(size) if self.summed else None
        for step in self.steps:
            kind = step[0]
            if kind == _TAKE:
                _, sites, cut = step
                rng.random(out=buf)
                np.greater_equal(buf, cut, out=mask)
                total += sites.take(mask.view(np.uint8))
            elif kind == _COMPARE:
                _, sites, cuts = step
                rng.random(out=buf)
                idx.fill(0)
                for cut in cuts:
                    np.greater_equal(buf, cut, out=mask)
                    idx += mask
                total += sites.take(idx)
            elif kind == _SEARCH:
                _, sites, cum = step
                rng.random(out=buf)
                np.minimum(np.searchsorted(cum, buf, side="right"), sites.size - 1, out=idx)
                total += sites.take(idx)
            elif kind == _MULTINOMIAL:
                _, copies, sites, probs = step
                total += rng.multinomial(copies, probs, size=size) @ sites
            else:
                _, copies, lo, width = step
                into = buf if copies == 1 else acc
                rng.random(out=into)
                into *= width
                into += lo
                for _ in range(copies - 1):
                    rng.random(out=buf)
                    buf *= width
                    buf += lo
                    acc += buf
                total += into
        if self.gaussian is not None:
            total += self.gaussian.sample(rng, size)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


class Tally(Value):
    """A sample as its distinct values, increasing, and how often each occurs.

    len() is the sample size, so a Tally stands in for the sample it counts.
    """

    def __init__(self, values: np.ndarray, counts: np.ndarray, size: int):
        vars(self).update(values=values, counts=counts, size=size)

    def __len__(self) -> int:
        return self.size


def tally(samples: Sequence[float]) -> Tally:
    """The Tally of a sample from one sort."""
    s = np.asarray(samples, dtype=np.float64).ravel()
    return Tally(*np.unique(s, return_counts=True), s.size)


def ks_distance(
    samples: Sequence[float] | Tally,
    limit_cdf: Callable,
    lattice: float | None = None,
    continuous: bool = False,
) -> float:
    """sup_x |ECDF(x) - F(x)|, exact for continuous and step CDFs alike.

    Between consecutive distinct sample values the ECDF is constant and F is
    monotone, so the supremum is reached at a sample value x (ECDF(x) against
    F(x)) or just below one (ECDF(x-) against the left limit F(x-)). F(x-) is
    F at the next double below x: exact for a CDF evaluated in floating point.
    A CDF passed as continuous has F(x-) = F(x), which moves the distance by
    at most the CDF's slope times one ulp of x (about 1e-16 for the standard
    normal), and F is read at only some of the values (see _continuous_ks).

    A lattice offset b says that F jumps only on b + Z (a translated Poisson
    limit). Row sums reach that lattice only up to rounding, so here a sample
    within 1e-9 max(1, |x|) of a lattice point counts as that point, and F(x)
    and F(x-) at a lattice point are read half a step to either side, where
    F is flat and a rounding in the CDF's own arithmetic cannot move a step.
    """
    t = samples if isinstance(samples, Tally) else tally(samples)
    if t.size == 0:
        raise ValueError("samples must be nonempty")
    values, counts = t.values, t.counts
    if lattice is not None:
        point = lattice + np.round(values - lattice)
        snapped = np.where(np.abs(values - point) <= 1e-9 * np.maximum(1.0, np.abs(values)),
                           point, values)
        values, inverse = np.unique(snapped, return_inverse=True)
        counts = np.bincount(inverse, weights=counts)
    # cumulative counts below 2^53 are exact in float64
    at = np.cumsum(counts, dtype=np.float64)
    below = at - counts
    at /= t.size
    below /= t.size
    if lattice is not None:
        on = values == lattice + np.round(values - lattice)
        f = limit_cdf(np.where(on, values + 0.5, values))
        f_left = limit_cdf(np.where(on, values - 0.5, np.nextafter(values, -np.inf)))
    elif continuous:
        return _continuous_ks(values, at, below, limit_cdf)
    else:
        f = limit_cdf(values)
        f_left = limit_cdf(np.nextafter(values, -np.inf))
    f = np.asarray(f, dtype=np.float64)
    f_left = np.asarray(f_left, dtype=np.float64)
    return float(max(np.max(np.abs(at - f)), np.max(np.abs(below - f_left))))


#: _continuous_ks reads F exactly at every KS_STRIDE-th distinct value first
KS_STRIDE = 16


def _continuous_ks(values: np.ndarray, at: np.ndarray, below: np.ndarray, cdf: Callable) -> float:
    """max |at - F| and |below - F| over the values, F read where it can matter.

    F is read at every KS_STRIDE-th value and at the last. Between two such
    anchors F lies between their readings, as F is monotone, so
    max(at - F(lo), F(hi) - below) bounds both gaps there; F is read only at
    the values whose bound reaches the largest anchor gap, less 1e-12 of
    slack for a CDF that is monotone only up to its rounding. The result is
    the largest gap over all values: with 2e4 continuous samples F is read
    at about a tenth of them.
    """
    m = values.size
    anchors = np.minimum(np.arange(0, m - 1 + KS_STRIDE, KS_STRIDE), m - 1)
    fa = np.asarray(cdf(values[anchors]), dtype=np.float64)
    gap = max(np.max(np.abs(at[anchors] - fa)), np.max(np.abs(below[anchors] - fa)))
    # value i lies between anchors i // KS_STRIDE and the next one; in place,
    # as each temporary of this size costs fresh pages
    bound = np.repeat(fa, KS_STRIDE)[:m]
    np.subtract(at, bound, out=bound)
    hi = np.repeat(np.append(fa[1:], fa[-1]), KS_STRIDE)[:m]
    np.subtract(hi, below, out=hi)
    np.maximum(bound, hi, out=bound)
    read = np.flatnonzero(bound > gap - 1e-12)
    if read.size:
        f = np.asarray(cdf(values[read]), dtype=np.float64)
        gap = max(gap, np.max(np.abs(at[read] - f)), np.max(np.abs(below[read] - f)))
    return float(gap)


def ecf_distance(samples: Sequence[float] | Tally, limit_cf: CharFn, u_grid: Sequence[float]) -> float:
    """max over the grid of |mean e^{iuS} - limit(u)|.

    The empirical mean is exp_sums over the distinct sample values weighted
    by their frequencies, for the whole grid at once: angle addition with
    exact re-seeding, accurate to about 1e-13. Lattice sums have few distinct
    values, and the temporaries stay the size of the sample.
    """
    t = samples if isinstance(samples, Tally) else tally(samples)
    if t.size == 0 or len(u_grid) == 0:
        raise ValueError("samples and u_grid must be nonempty")
    with np.errstate(all="ignore"):  # a non-finite gap is refused below
        gap = np.abs(exp_sums(u_grid, t.values, t.counts / t.size) - eval_cf(limit_cf, u_grid))
    bad = ~np.isfinite(gap)
    if bad.any():
        # u x overflows a double, for a sample x or a parameter of the limit
        raise ValueError("the ECF distance is not finite at "
                         f"u = {float(np.ravel(u_grid)[bad.argmax()])!r}")
    return float(np.max(gap))


std_normal_cdf = ndtr


def translated_poisson_cdf(b: float, lam: float) -> Callable:
    """CDF of b + Poisson(lam): running sums of _poisson_pmf up to the
    largest k asked for, and 0.0 below the first k of the pmf.

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
        first, pmf = _poisson_pmf(lam, kmax)
        cum = np.concatenate(([0.0], np.cumsum(pmf)))
        # in doubles: k and first may pass 2^63 (a sum near 1e76, lambda 1e300)
        return cum[np.clip(k - float(first - 1), 0, pmf.size).astype(np.intp)]

    return cdf


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(k: int) -> float:
    """log k! - ((k + 1/2) log k - k + log sqrt(2 pi)), for k >= 1.

    Past 15 by the Stirling series, whose terms Loader (2000), "Fast and
    accurate computation of binomial probabilities", truncates by k.
    """
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LOG_SQRT_2PI
    nn = float(k) * k
    s0, s1, s2, s3, s4 = 1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0
    if k > 500:
        return (s0 - s1 / nn) / k
    if k > 80:
        return (s0 - (s1 - s2 / nn) / nn) / k
    if k > 35:
        return (s0 - (s1 - (s2 - s3 / nn) / nn) / nn) / k
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / k


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x, without its cancellation near x = m (Loader 2000)."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    ej = 2.0 * x * v
    v *= v
    j = 1
    while True:
        ej *= v
        s1 = s + ej / (2 * j + 1)
        if s1 == s:
            return s
        s = s1
        j += 1


def _pmf_from_mode(mode: int, log_pmf: float, up: Callable, down: Callable, last: float) -> tuple:
    """(first k, pmf from there on) of a unimodal pmf on 0..last.

    Starts at the mode, or at last where that lies below it, from its log and
    recurses outward with the ratios up(k) = p(k+1)/p(k) and down(k) =
    p(k-1)/p(k); each side stops at last or 0 or past the first term below
    the smallest normal double (the rest add up to less than 6e-306 for a
    Poisson pmf at lam = 1e8). Waiting for 0.0 would walk about lam terms,
    not sqrt(lam): a subnormal times a ratio near 1 rounds back to itself.
    """
    pk = math.exp(log_pmf)
    left = []
    k, q = mode, pk
    while k > 0 and q >= sys.float_info.min:
        q *= down(k)
        k -= 1
        left.append(q)
    right = [pk]
    k, q = mode, pk
    while k < last and q >= sys.float_info.min:
        q *= up(k)
        k += 1
        right.append(q)
    return mode - len(left), np.array(left[::-1] + right)


def _poisson_pmf(lam: float, last: float = math.inf) -> tuple:
    """(first k, pmf from there on) of Poisson(lam) on k <= last by
    _pmf_from_mode, in saddle-point form (Loader 2000): no e^{-lam}, which
    underflows for lam above about 745."""
    k = min(math.floor(lam), last)
    log_q = -lam if k == 0 else -_stirlerr(k) - _bd0(k, lam) - 0.5 * math.log(k) - _LOG_SQRT_2PI
    return _pmf_from_mode(k, log_q, lambda j: lam / (j + 1.0), lambda j: j / lam, last)


def tv_binomial_poisson(n: int, p: float, lam: float) -> float:
    """Exact total variation between Binomial(n, p) and Poisson(lam).

    0.5 * sum_{k<=n} |b_k - q_k| plus half the Poisson mass beyond n. Each
    pmf starts at its mode, in saddle-point form (Loader 2000), accurate to
    about 1e-14 relative, and is extended outward by its term ratio until
    it underflows. Neither needs e^{-lam} or (1-p)^n, which underflow for
    lam or n log(1/(1-p)) above about 745.
    """
    if n < 1 or not (0.0 <= p < 1.0) or lam <= 0.0:
        raise ValueError("need n >= 1, 0 <= p < 1, lam > 0")
    mb = min(n, math.floor((n + 1) * p))
    if mb == 0:
        log_b = n * math.log1p(-p)
    elif mb == n:
        log_b = n * math.log(p)
    else:
        log_b = (_stirlerr(n) - _stirlerr(mb) - _stirlerr(n - mb)
                 - _bd0(mb, n * p) - _bd0(n - mb, n * (1.0 - p))
                 - 0.5 * (2.0 * _LOG_SQRT_2PI + math.log(mb) + math.log1p(-mb / n)))
    odds = p / (1.0 - p)
    b0, b = _pmf_from_mode(mb, log_b, lambda k: (n - k) / (k + 1.0) * odds,
                           lambda k: k / (n - k + 1.0) / odds, n)
    q0, q = _poisson_pmf(lam)
    # both on k = lo..hi, where hi <= n ends the later window; 0.0 outside
    lo, hi = min(b0, q0), min(n, max(b0 + b.size, q0 + q.size) - 1)
    diff = np.zeros(hi + 1 - lo)
    diff[b0 - lo:b0 - lo + b.size] = b
    inside = q[:max(0, hi + 1 - q0)]
    diff[q0 - lo:q0 - lo + inside.size] -= inside
    return 0.5 * (math.fsum(np.abs(diff)) + math.fsum(q[inside.size:]))


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class NamedLimit(Value):
    """A limit with both characteristic function and CDF available; lattice
    is the offset b when the CDF jumps only on b + Z."""

    def __init__(self, label: str, cf: CharFn, cdf: Callable | None, lattice: float | None = None):
        vars(self).update(label=label, cf=cf, cdf=cdf, lattice=lattice)


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


class SimulationPlan(Value):
    def __init__(self, generator: ArrayGenerator, n_list: tuple[int, ...], samples_per_n: int,
                 seed: int, u_grid: tuple[float, ...], limit: NamedLimit):
        n_list, _ = check_lists(n_list, ())
        u_grid = tuple(float(u) for u in u_grid)
        if samples_per_n < 1:
            raise ValueError("samples_per_n must be >= 1")
        vars(self).update(generator=generator, n_list=n_list, samples_per_n=samples_per_n,
                          seed=seed, u_grid=u_grid, limit=limit)


class SimResult(Value):
    def __init__(self, n: int, ks: float | None, ecf: float, samples_per_n: int, seed: int):
        vars(self).update(n=n, ks=ks, ecf=ecf, samples_per_n=samples_per_n, seed=seed)


def run_simulation(plan: SimulationPlan, keep_samples: bool = False):
    """Per n: sample sums on substreams (i << 32 | chunk) and measure distances.

    Returns (results, samples_by_n); the dict is empty unless keep_samples.
    """
    results: list[SimResult] = []
    kept: dict[int, np.ndarray] = {}
    for i, n in enumerate(plan.n_list):
        row = plan.generator.row(n)
        s = sample_sums_chunked(row, plan.samples_per_n, plan.seed, base_stream=i << 32)
        t = tally(s)
        lim = plan.limit
        # a named limit's CDF is a lattice step function or continuous
        ks = None if lim.cdf is None else ks_distance(t, lim.cdf, lim.lattice, lim.lattice is None)
        ecf = ecf_distance(t, lim.cf, plan.u_grid)
        results.append(SimResult(n, ks, ecf, plan.samples_per_n, plan.seed))
        if keep_samples:
            kept[n] = s
    return results, kept
