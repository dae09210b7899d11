"""Seeded workload generator.

A workload is a fixed list of ops; one op is one ``summand-lab`` run config
together with what the benchmark expects of it. Sizes and tasks are fixed per
workload, so every seed asks for the same logical work; the seed chooses the
values that do not change the cost (atom sites and weights, the explicit
rows' components, the Monte Carlo seeds, the order of the ops and the points
the oracles check).

Logical work is counted from the configs, not from calls inside the program:
``components`` is the sum of k(n) over the rows an op names, ``draws`` is
samples_per_n * k(n) summed over simulated rows, and ``psi`` is the number of
Psi(u) values the op requests.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

#: 201 points, -10..10 step 0.1
U_SWEEP = {"start": -10.0, "stop": 10.0, "step": 0.1}
#: 101 points, -5..5 step 0.1
U_101 = {"start": -5.0, "stop": 5.0, "step": 0.1}
#: u values of each psi-sweep that the oracle recomputes by quadrature
CHECKED_US = 3
DECADES = [100, 1000, 10000, 100000]
EXPLICIT_NS = [500, 1000, 2000, 4000]

RADEMACHER = {"kind": "finite_discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
STD_GAUSSIAN = {"kind": "gaussian", "mean": 0.0, "var": 1.0}
UNIFORM = {"kind": "uniform", "lo": -1.0, "hi": 1.0}


@dataclass(frozen=True)
class Defect:
    """A documented defect an op exposes, and the one problem it causes.

    ``problem`` is a regular expression that each problem line the defect
    causes matches from its start; any other problem on the op is unexpected.
    """

    what: str
    problem: str

    def explains(self, problem: str) -> bool:
        return re.match(self.problem, problem, re.DOTALL) is not None


KS_DEFECT = Defect(
    "ks_distance against a step CDF compares F(x) with ECDF(x-) instead of "
    "F(x-) in d_minus, so KS against translated_poisson is wrong",
    # only the KS lines of the simulate oracle; exit code, reasons, ECF and
    # byte identity must still pass
    r"n=\d+: KS ",
)
SWEEP_DEFECT = Defect(
    "psi-sweep over a uniform from_array measure exits 3 with "
    "'adaptive refinement depth exhausted'",
    r"exit code 3, expected 0: .*adaptive refinement depth exhausted",
)


@dataclass
class Op:
    name: str
    config: dict
    exit_code: int = 0
    reasons: tuple = ()
    #: the documented defect this op exposes; it still counts as failed
    known_defect: Defect | None = None
    components: int = 0
    draws: int = 0
    psi: int = 0
    #: oracle inputs for the correctness checks (see oracles.py)
    check: dict = field(default_factory=dict)


def grid_size(grid: dict) -> int:
    """Point count of a {start, stop, step} grid, as the CLI computes it."""
    return int(math.floor((grid["stop"] - grid["start"]) / grid["step"] + 0.5)) + 1


def grid_values(grid: dict) -> list:
    """The u values of a {start, stop, step} grid, as the CLI computes them."""
    return [grid["start"] + i * grid["step"] for i in range(grid_size(grid))]


def _random_atoms(rng: random.Random, count: int) -> list:
    sites = sorted(rng.uniform(-2.0, 2.0) for _ in range(count))
    weights = [rng.uniform(0.5, 1.5) for _ in range(count)]
    total = sum(weights)
    probs = [w / total for w in weights[:-1]]
    probs.append(1.0 - sum(probs))
    return [[s, p] for s, p in zip(sites, probs)]


def _check_us(rng: random.Random, grid: dict) -> list:
    """Indices into the grid for the oracle, always including a negative u."""
    size = grid_size(grid)
    picks = rng.sample(range(size // 2), 1) + rng.sample(range(size // 2, size), CHECKED_US - 1)
    return sorted(picks)


# ---------------------------------------------------------------------------
# verdict-iid
# ---------------------------------------------------------------------------


def verdict_iid(rng: random.Random) -> list:
    """k(n) identical components: arrays, criteria and accumulation do all the
    work, exponent and montecarlo none. Grouping rows by value shows here.
    n stops at 1e5 so a pass is short enough to repeat many times a run."""
    ns = sum(DECADES)
    eps = [0.05, 0.1, 0.5]
    rad = {"generator": "standardized_iid", "base": RADEMACHER}
    gauss = {"generator": "standardized_iid", "base": STD_GAUSSIAN}
    bern = {"generator": "bernoulli_poisson", "lambda": 1.0}
    iid_check = {"mv": 1.0, "b_times_n": 1.0}
    return [
        Op("hypotheses-rademacher",
           {"task": "hypotheses", "array": rad, "n_list": DECADES, "eps_list": eps,
            "c_target": 1.0},
           components=ns, check=iid_check),
        Op("verdict-gaussian-rademacher",
           {"task": "verdict-gaussian", "array": rad, "n_list": DECADES, "eps_list": eps},
           components=ns, check=iid_check),
        Op("verdict-general-gaussian",
           {"task": "verdict-general", "array": gauss, "n_list": DECADES,
            "limit": {"kind": "dirac_zero", "mass": 1.0},
            "grid": [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0], "shift_target": 0.0,
            "eps_list": eps},
           components=ns, check=iid_check),
        # Bernoulli(1/n) rows: MV(n) = 1 - 1/n, B_n = (1 - 1/n) / n
        Op("verdict-poisson-bernoulli",
           {"task": "verdict-poisson", "array": bern, "n_list": DECADES, "eps_list": eps,
            "target": {"b": 0.0, "lambda": 1.0}},
           components=ns, check={"bernoulli_lambda": 1.0}),
    ]


# ---------------------------------------------------------------------------
# psi-grid
# ---------------------------------------------------------------------------


def psi_grid(rng: random.Random) -> list:
    """Psi quadrature and cf evaluation dominate; arrays is trivial."""
    sweep_points = grid_size(U_SWEEP)
    # the Gaussian pieces fix the quadrature cost; only the atoms are seeded
    mixed = {
        "atoms": [[s, 0.1 + 0.2 * p] for s, p in _random_atoms(rng, 2)],
        "pieces": [
            {"weight": 0.4, "dist": {"kind": "gaussian", "mean": 0.0, "var": 1.0}},
            {"weight": 0.3, "dist": {"kind": "gaussian", "mean": 1.5, "var": 0.25}},
        ],
    }
    atoms_base = {"kind": "finite_discrete", "atoms": _random_atoms(rng, 5)}
    c7 = {
        "atoms": [[-0.6, 0.36], [0.6, 0.36]],
        "pieces": [{"weight": 1.0, "dist": UNIFORM}],
    }
    cells = [48, 192, 768]
    return [
        Op("psi-sweep-gaussian-pieces",
           {"task": "psi-sweep", "measure": {"kind": "explicit", "measure": mixed},
            "u_grid": U_SWEEP},
           psi=sweep_points,
           check={"measure": mixed, "u_index": _check_us(rng, U_SWEEP)}),
        # atoms only: the bypass, where a change to continuous pieces predicts no change
        Op("psi-sweep-atoms-from-array",
           {"task": "psi-sweep",
            "array": {"generator": "standardized_iid", "base": atoms_base},
            "measure": {"kind": "from_array", "n": 1000, "centered": True},
            "u_grid": U_SWEEP},
           components=1000, psi=sweep_points,
           check={"iid_base": atoms_base, "n": 1000, "u_index": _check_us(rng, U_SWEEP)}),
        Op("psi-sweep-uniform-from-array",
           {"task": "psi-sweep",
            "array": {"generator": "standardized_iid", "base": UNIFORM},
            "measure": {"kind": "from_array", "n": 100, "centered": True},
            "u_grid": U_SWEEP},
           known_defect=SWEEP_DEFECT, components=100, psi=sweep_points,
           check={"iid_base": UNIFORM, "n": 100, "u_index": _check_us(rng, U_SWEEP)}),
        Op("poisson-approx-c7",
           {"task": "poisson-approx", "measure": {"kind": "explicit", "measure": c7},
            "window": 1.5, "mesh_cells": cells, "u_grid": U_101},
           psi=len(cells) * grid_size(U_101),
           check={"measure": c7}),
    ]


# ---------------------------------------------------------------------------
# simulate-mc
# ---------------------------------------------------------------------------


def simulate_mc(rng: random.Random) -> list:
    """Sampling, KS and ECF dominate."""
    ns = [16, 64, 256]
    samples = 20000
    common = {"task": "simulate", "n_list": ns, "samples_per_n": samples, "u_grid": U_101}
    cases = [
        ("simulate-rademacher", {"generator": "standardized_iid", "base": RADEMACHER},
         {"kind": "std_gaussian"}, None),
        # uniform rows keep the per-draw sampling path that grouping cannot shortcut
        ("simulate-uniform", {"generator": "standardized_iid", "base": UNIFORM},
         {"kind": "std_gaussian"}, None),
        ("simulate-bernoulli", {"generator": "bernoulli_poisson", "lambda": 1.0},
         {"kind": "translated_poisson", "b": 0.0, "lambda": 1.0}, KS_DEFECT),
    ]
    return [
        Op(name,
           dict(common, array=array, limit=limit, seed=rng.randrange(2**31)),
           known_defect=defect, components=sum(ns), draws=samples * sum(ns))
        for name, array, limit, defect in cases
    ]


# ---------------------------------------------------------------------------
# explicit-rows
# ---------------------------------------------------------------------------


def _explicit_component(rng: random.Random, kind: int, var: float) -> dict:
    """A centered component of the given variance."""
    if kind == 0:
        # two-point, zero mean, success probability p
        p = rng.uniform(0.2, 0.8)
        s = math.sqrt(var)
        return {"kind": "finite_discrete",
                "atoms": [[-s * math.sqrt(p / (1.0 - p)), 1.0 - p],
                          [s * math.sqrt((1.0 - p) / p), p]]}
    if kind == 1:
        return {"kind": "gaussian", "mean": 0.0, "var": var}
    h = math.sqrt(3.0 * var)
    return {"kind": "uniform", "lo": -h, "hi": h}


def explicit_array(rng: random.Random) -> tuple[dict, dict]:
    """Rows of distinct centered components whose variances sum to 1.

    Each row holds the three kinds in equal thirds, so every seed costs the
    same; the order of kinds, the variances and the discrete skews are seeded.
    Returns the array config and the per-row maximum variance.
    """
    rows, max_var = [], {}
    for n in EXPLICIT_NS:
        weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
        total = math.fsum(weights)
        kinds = [i % 3 for i in range(n)]
        rng.shuffle(kinds)
        comps = [_explicit_component(rng, kd, w / total) for kd, w in zip(kinds, weights)]
        rows.append({"n": n, "components": comps})
        max_var[n] = max(weights) / total
    return {"generator": "explicit", "rows": rows}, max_var


def explicit_rows(rng: random.Random) -> list:
    """No component repeats, so grouping by value can only add hashing. The
    600 KB config also loads the JSON component parser and the report path,
    since report.json embeds the config."""
    array, max_var = explicit_array(rng)
    ns = sum(EXPLICIT_NS)
    sim_ns = [EXPLICIT_NS[0], EXPLICIT_NS[-1]]
    samples = 10000
    check = {"mv": 1.0, "max_var": {str(n): v for n, v in max_var.items()}}
    return [
        Op("verdict-gaussian-explicit",
           {"task": "verdict-gaussian", "array": array, "n_list": EXPLICIT_NS,
            "eps_list": [0.1, 0.2, 0.5]},
           components=ns, check=check),
        Op("verdict-general-explicit",
           {"task": "verdict-general", "array": array, "n_list": EXPLICIT_NS,
            "limit": {"kind": "dirac_zero", "mass": 1.0},
            "grid": [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0], "shift_target": 0.0,
            "eps_list": [0.1]},
           components=ns, check=check),
        Op("simulate-explicit",
           {"task": "simulate", "array": array, "n_list": sim_ns, "samples_per_n": samples,
            "u_grid": U_101, "limit": {"kind": "std_gaussian"},
            "seed": rng.randrange(2**31)},
           components=sum(sim_ns), draws=samples * sum(sim_ns)),
    ]


WORKLOADS = {
    "verdict-iid": verdict_iid,
    "psi-grid": psi_grid,
    "simulate-mc": simulate_mc,
    "explicit-rows": explicit_rows,
}


def build(name: str, seed: int) -> list:
    """The ops of one workload for one seed, in their seeded order."""
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng)
    rng.shuffle(ops)
    return ops
