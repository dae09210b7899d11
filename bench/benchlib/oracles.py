"""Independent correctness checks for the ops' outputs.

Every check reads the artifacts a run wrote and recomputes what it can with
the benchmark's own numpy/scipy code. Nothing here compares against stored
hashes: sampling streams may change between commits, so byte identity is
only required between runs of the same commit (see run.py). CSV columns are
read by header name, so dropped or added columns elsewhere do not matter.

Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special

PSI_TOL = 1e-6
DIST_TOL = 1e-9


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# ---------------------------------------------------------------------------
# Psi(u) = sum_atoms m g(u, x) + sum_pieces w E[e^{iuY} - 1 - iuY]
# ---------------------------------------------------------------------------


def _atom_kernel(u: float, x: float) -> complex:
    """(e^{iux} - 1 - iux) / x^2 with the removable value -u^2/2 at 0."""
    if x == 0.0:
        return complex(-0.5 * u * u, 0.0)
    ux = u * x
    return complex(-2.0 * math.sin(0.5 * ux) ** 2, math.sin(ux) - ux) / (x * x)


def _piece_integral(u: float, dist: dict) -> complex:
    """E[e^{iuY} - 1 - iuY] for a Gaussian or uniform Y, by scipy quad."""
    if dist["kind"] == "gaussian":
        m, sd = dist["mean"], math.sqrt(dist["var"])
        lo, hi = m - 40.0 * sd, m + 40.0 * sd

        def pdf(y):
            return math.exp(-0.5 * ((y - m) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))

        points = [m - sd, m, m + sd]
    elif dist["kind"] == "uniform":
        lo, hi = dist["lo"], dist["hi"]
        density = 1.0 / (hi - lo)

        def pdf(y):
            return density

        points = None
    else:
        raise ValueError(f"no oracle for piece kind {dist['kind']!r}")
    opts = {"epsabs": 1e-12, "epsrel": 1e-12, "limit": 500, "points": points}
    re = integrate.quad(lambda y: -2.0 * math.sin(0.5 * u * y) ** 2 * pdf(y), lo, hi, **opts)[0]
    im = integrate.quad(lambda y: (math.sin(u * y) - u * y) * pdf(y), lo, hi, **opts)[0]
    return complex(re, im)


def psi_oracle(measure: dict, u: float) -> complex:
    value = sum(m * _atom_kernel(u, x) for x, m in measure.get("atoms", []))
    for piece in measure.get("pieces", []):
        value += piece["weight"] * _piece_integral(u, piece["dist"])
    return complex(value)


def iid_measure(base: dict, n: int) -> dict:
    """Centered accumulation measure of row n of standardized_iid(base)."""
    if base["kind"] == "finite_discrete":
        mean = math.fsum(x * p for x, p in base["atoms"])
        var = math.fsum((x - mean) ** 2 * p for x, p in base["atoms"])
        s = math.sqrt(n * var)
        sites = [((x - mean) / s, p) for x, p in base["atoms"]]
        return {"atoms": [[y, n * p * y * y] for y, p in sites if y != 0.0]}
    if base["kind"] == "uniform":
        lo, hi = base["lo"], base["hi"]
        mean, var = 0.5 * (lo + hi), (hi - lo) ** 2 / 12.0
        s = math.sqrt(n * var)
        dist = {"kind": "uniform", "lo": (lo - mean) / s, "hi": (hi - mean) / s}
        return {"pieces": [{"weight": float(n), "dist": dist}]}
    raise ValueError(f"no oracle for base kind {base['kind']!r}")


def check_psi_sweep(out: Path, check: dict) -> list:
    measure = check.get("measure") or iid_measure(check["iid_base"], check["n"])
    rows = read_csv(out / "tables" / "psi_sweep.csv")
    problems = []
    for i in check["u_index"]:
        u = float(rows[i]["u"])
        got = complex(float(rows[i]["re"]), float(rows[i]["im"]))
        want = psi_oracle(measure, u)
        if not abs(got - want) <= PSI_TOL:
            problems.append(f"Psi({u!r}) = {got} but quad gives {want}")
    return problems


def product_cf(spec: dict, u: float) -> complex:
    expo = 0j
    for t in spec["params"]["terms"]:
        expo += 1j * (t["shift"] - t["drift"]) * u
        expo += t["intensity"] * (cmath.exp(1j * t["site"] * u) - 1.0)
    return cmath.exp(expo)


def check_poisson_approx(out: Path, check: dict, u_grid: list) -> list:
    rows = read_csv(out / "tables" / "approx_error.csv")
    errors = [float(r["sup_error"]) for r in rows]
    problems = []
    if not all(a > b for a, b in zip(errors, errors[1:])) or errors[-1] > 1e-3:
        problems.append(f"sup errors {errors} do not decrease to 1e-3")
    spec = json.loads((out / "poisson_product.json").read_text())
    exact = [cmath.exp(psi_oracle(check["measure"], u)) for u in u_grid]
    sup = max(abs(product_cf(spec, u) - e) for u, e in zip(u_grid, exact))
    if not abs(sup - errors[-1]) <= PSI_TOL:
        problems.append(f"finest sup error {errors[-1]!r} but the oracle gives {sup!r}")
    return problems


# ---------------------------------------------------------------------------
# Verdicts: exact row statistics
# ---------------------------------------------------------------------------


def check_row_stats(report: dict, check: dict) -> list:
    """MV(n) and B_n from the report against their closed forms."""
    results = report["results"]
    block = results["verdict"]["columns"] if "verdict" in results else results["hypothesis"]
    n_list = report["config"]["n_list"]
    problems = []
    for n, mv, b in zip(n_list, block["mv"], block["b"]):
        if "bernoulli_lambda" in check:
            p = check["bernoulli_lambda"] / n
            want_mv, want_b = n * p * (1.0 - p), p * (1.0 - p)
        elif "max_var" in check:
            want_mv, want_b = check["mv"], check["max_var"][str(n)]
        else:
            want_mv, want_b = check["mv"], check["b_times_n"] / n
        if not (abs(mv - want_mv) <= 1e-9 and abs(b - want_b) <= 1e-9 * want_b):
            problems.append(f"n={n}: MV={mv!r}, B={b!r}; expected {want_mv!r}, {want_b!r}")
    return problems


# ---------------------------------------------------------------------------
# simulate: KS and ECF recomputed from dumped samples
# ---------------------------------------------------------------------------


def limit_functions(limit: dict):
    """(cdf, left_cdf, cf) of a simulation limit, vectorised over numpy input."""
    if limit["kind"] == "std_gaussian":
        return special.ndtr, special.ndtr, lambda u: np.exp(-0.5 * u * u)
    if limit["kind"] == "translated_poisson":
        b, lam = limit.get("b", 0.0), limit.get("lambda", 1.0)

        def at_most(k):
            return np.where(k < 0.0, 0.0, special.pdtr(np.maximum(k, 0.0), lam))

        def cdf(x):
            return at_most(np.floor(np.asarray(x) - b))

        def left_cdf(x):
            return at_most(np.ceil(np.asarray(x) - b) - 1.0)

        return cdf, left_cdf, lambda u: np.exp(1j * b * u + lam * np.expm1(1j * u))
    raise ValueError(f"no oracle for limit kind {limit['kind']!r}")


def ks_oracle(samples: np.ndarray, cdf, left_cdf) -> float:
    """sup_x |ECDF(x) - F(x)|, exact for any F.

    Between consecutive distinct sample values the ECDF is constant and F is
    monotone, so the supremum is reached at a sample value x (against F(x))
    or just below one (ECDF(x-) against F(x-)).
    """
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    values, first = np.unique(s, return_index=True)
    below = first / n
    at = np.append(first[1:], n) / n
    return float(max(np.max(np.abs(at - cdf(values))),
                     np.max(np.abs(below - left_cdf(values)))))


def ecf_oracle(samples: np.ndarray, cf, u_grid) -> float:
    s = np.asarray(samples, dtype=np.float64)
    return max(abs(complex(np.mean(np.exp(1j * u * s))) - complex(cf(u))) for u in u_grid)


def check_simulate(out: Path, limit: dict, u_grid: list) -> list:
    cdf, left_cdf, cf = limit_functions(limit)
    problems = []
    for row in read_csv(out / "tables" / "simulate.csv"):
        n = row["n"]
        samples = np.array([float(r["sample"]) for r in read_csv(out / "tables" / f"samples_{n}.csv")])
        ks = ks_oracle(samples, cdf, left_cdf)
        ecf = ecf_oracle(samples, cf, u_grid)
        if not abs(float(row["ks_distance"]) - ks) <= DIST_TOL:
            problems.append(f"n={n}: KS {row['ks_distance']} but the oracle gives {ks!r}")
        if not abs(float(row["ecf_distance"]) - ecf) <= DIST_TOL:
            problems.append(f"n={n}: ECF {row['ecf_distance']} but the oracle gives {ecf!r}")
    return problems
