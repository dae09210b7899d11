"""References for the arrays module that only the tests use.

The row sampler (``montecarlo._RowDraws``) draws every group of a row into
reused buffers. ``sample`` draws one finite-discrete or uniform component
into fresh arrays: by inversion for a finite-discrete law
(``discrete_draws``), and as ``lo + (hi - lo) u`` for a uniform
(``uniform_draws``). A row's Gaussian groups draw together as one
``gaussian_draws``, written from the Generator's normal sampler and not
through ``arrays.Gaussian.sample``, so a change to that draw shows. The
sampler's tests compare its sums with these draws bit for bit.
``generator_to_json`` writes a generator back as the JSON that
``arrays.generator_from_json`` reads.
"""

import math

import numpy as np

from summand_lab.arrays import (
    BernoulliPoisson,
    ExplicitArray,
    FiniteDiscrete,
    StandardizedIid,
    Uniform,
    component_to_json,
)
from summand_lab.montecarlo import _COMPARE_MAX_ATOMS


def discrete_draws(sites: np.ndarray, probs: np.ndarray, rng: np.random.Generator,
                   size: int) -> np.ndarray:
    """size draws of the atoms (sites, probs) by inversion, one rng.random
    value per draw.

    The atom of a uniform u is the number of cumulative probabilities
    before the last that are <= u, which equals
    min(searchsorted(cum, u, "right"), K - 1) exactly. Up to
    _COMPARE_MAX_ATOMS atoms it is counted with one vector comparison per
    atom, as the row sampler counts it; more atoms take the search. Both
    give the same draws.
    """
    cum = np.cumsum(probs)
    u = rng.random(size)
    if len(sites) > _COMPARE_MAX_ATOMS:
        return sites[np.minimum(np.searchsorted(cum, u, side="right"), len(sites) - 1)]
    idx = np.zeros(size, dtype=np.intp)
    for c in cum[:-1]:
        idx += u >= c
    return sites[idx]


def uniform_draws(lo: float, hi: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """size draws of Uniform(lo, hi): the reference for the row sampler's
    in-place buf *= hi - lo; buf += lo, which rounds the same two
    operations."""
    return lo + (hi - lo) * rng.random(size)


def gaussian_draws(rng: np.random.Generator, m: float, v: float, size: int) -> np.ndarray:
    """size draws of N(m, v): the reference for arrays.Gaussian.sample."""
    return m + math.sqrt(v) * rng.standard_normal(size)


def sample(dist, rng: np.random.Generator, size: int) -> np.ndarray:
    """size independent draws of one component."""
    if isinstance(dist, FiniteDiscrete):
        return discrete_draws(np.array([x for x, _ in dist.atoms]),
                              np.array([p for _, p in dist.atoms]), rng, size)
    if isinstance(dist, Uniform):
        return uniform_draws(dist.lo, dist.hi, rng, size)
    raise TypeError(f"unknown component type {type(dist).__name__}")


def generator_to_json(gen) -> dict:
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
