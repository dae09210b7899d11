"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import cmath
import json
import math

from summand_lab import (
    AccumMeasure,
    BernoulliPoisson,
    CauchyCF,
    Degenerate,
    ExplicitArray,
    FiniteDiscrete,
    GammaCF,
    GaussianCF,
    RowSpec,
    StandardizedIid,
    TranslatedPoissonCF,
    Uniform,
    build_accum,
    comparison_residual,
    curvature_check,
    eval_cf,
    exponent_eval,
    gaussian_verdict,
    ks_distance,
    poisson_product_approx,
    poisson_verdict,
    preweak_distance,
    pth_root,
    row_statistics,
    sample_sums_chunked,
    std_normal_cdf,
    tv_binomial_poisson,
)
from summand_lab.cli import main

from grids import standard_t_grid

RADEMACHER = FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5)))
N_LIST = (100, 1000, 10000)
EPS_LIST = (0.05, 0.1, 0.5)
SEED = 20260810


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def mixed_row() -> RowSpec:
    coin = FiniteDiscrete(((-0.6, 0.5), (0.6, 0.5)))
    return RowSpec(7, ((coin, 2), (Uniform(-1.0, 1.0), 1)))


def test_c01_exponent_closed_form_oracles():
    u_grid = [i / 10.0 for i in range(-100, 101)]
    worst = 0.0
    m0 = AccumMeasure(atoms=((0.0, 1.0),))
    for u in u_grid:
        worst = max(worst, abs(exponent_eval(m0, u) - complex(-0.5 * u * u, 0.0)))
    lam = 2.0
    m1 = AccumMeasure(atoms=((1.0, lam),))
    for u in u_grid:
        ref = lam * (cmath.exp(1j * u) - 1.0 - 1j * u)
        worst = max(worst, abs(exponent_eval(m1, u) - ref))
    _report("C1 exponent closed forms", worst <= 1e-10, f"max deviation {worst:.3e} (tol 1e-10)")


def test_c02_gaussian_pipeline():
    gen = StandardizedIid(RADEMACHER)
    rep = gaussian_verdict(gen, N_LIST, EPS_LIST)
    tails_zero = all(rep.series["lindeberg_gaussian"][eps][-1] == 0.0 for eps in EPS_LIST)
    row = gen.row(10_000)
    samples = sample_sums_chunked(row, 50_000, seed=SEED)
    ks = ks_distance(samples, std_normal_cdf)
    ok = rep.passed and tails_zero and ks <= 0.02
    _report(
        "C2 Gaussian pipeline",
        ok,
        f"verdict={rep.passed}, tails exactly 0 at n=1e4: {tails_zero}, ks={ks:.5f} (tol 0.02)",
    )


def test_c03_poisson_pipeline():
    gen = BernoulliPoisson(1.0)
    rep = poisson_verdict(gen, N_LIST, EPS_LIST, (0.0, 1.0))
    tvs = {n: tv_binomial_poisson(n, 1.0 / n, 1.0) for n in N_LIST}
    tv_ok = all(tv <= 1.1 / n for n, tv in tvs.items())
    ok = rep.passed and tv_ok
    _report(
        "C3 Poisson pipeline",
        ok,
        f"verdict={rep.passed}, tv={ {n: f'{v:.2e}' for n, v in tvs.items()} } <= 1.1/n: {tv_ok}",
    )


def test_c04_accumulation_convergence():
    gen = StandardizedIid(RADEMACHER)
    grid = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    limit = AccumMeasure(atoms=((0.0, 1.0),))
    # all approximation error vanishes from n >= 5 (atoms strictly inside the
    # innermost grid gap); what remains is input-representation rounding, and
    # the deviation is literally 0.0 whenever 1/sqrt(n) is dyadic
    worst = 0.0
    for n in list(range(5, 41)) + [100, 1000, 10000]:
        m = build_accum(gen.row(n), center=False)
        d = preweak_distance([m], limit, grid)[0]
        worst = max(worst, d.sup_deviation)
        assert m.cdf(-0.5) == 0.0
    exact_ok = all(
        preweak_distance([build_accum(gen.row(n), center=False)], limit, grid)[0].sup_deviation == 0.0
        for n in (16, 64, 256, 1024, 4096)
    )
    bp = BernoulliPoisson(1.0)
    bp_ok = True
    for n in N_LIST:
        d = preweak_distance(
            [build_accum(bp.row(n), center=True)], AccumMeasure(atoms=((1.0, 1.0),)), (0.5, 1.5)
        )[0]
        bp_ok = bp_ok and d.sup_deviation <= 3.0 / n
    ok = worst <= 2.0 ** -50 and exact_ok and bp_ok
    _report(
        "C4 accumulation convergence",
        ok,
        f"max deviation {worst:.3e} (representation dust; 0.0 on dyadic n), "
        f"centered Bernoulli <= 3/n: {bp_ok}",
    )


def test_c05_comparison_lemma():
    arrays = {
        "rademacher": StandardizedIid(RADEMACHER),
        "uniform": StandardizedIid(Uniform(-1.0, 1.0)),
        "bernoulli(centered)": BernoulliPoisson(1.0),
    }
    worst_margin = 0.0
    for name, gen in arrays.items():
        rows = [gen.row(n).centered() for n in N_LIST]
        c = max(row_statistics(r, 1.0).mv for r in rows)
        for row in rows:
            for u in (0.5, 1.0, 2.0):
                res, bound = comparison_residual(row, u, c)
                if bound > 0:
                    worst_margin = max(worst_margin, res / bound)
                assert res <= bound, f"{name} n={row.n} u={u}: {res} > {bound}"
    _report(
        "C5 comparison lemma",
        worst_margin <= 1.0,
        f"residual <= c u^4 B_n / 4 everywhere; worst residual/bound = {worst_margin:.3f}",
    )


def test_c06_root_algebra():
    families = [
        Degenerate(2.5),
        GaussianCF(0.3, 1.7),
        TranslatedPoissonCF(-0.5, 2.0),
        GammaCF(3.0, 2.0),
        CauchyCF(1.0, 2.0),
    ]
    grid = standard_t_grid()
    worst = 0.0
    for spec in families:
        for p in (2, 3, 7):
            root = pth_root(spec, p)
            for t in grid:
                worst = max(worst, abs(eval_cf(root, t) ** p - eval_cf(spec, t)))
    maps_ok = (
        pth_root(GammaCF(3.0, 2.0), 3) == GammaCF(1.0, 2.0)
        and pth_root(CauchyCF(1.0, 2.0), 2) == CauchyCF(0.5, 1.0)
        and pth_root(Degenerate(5.0), 5) == Degenerate(1.0)
        and pth_root(GaussianCF(1.0, 2.0), 2) == GaussianCF(0.5, 1.0)
        and pth_root(TranslatedPoissonCF(1.0, 3.0), 3) == TranslatedPoissonCF(1.0 / 3.0, 1.0)
    )
    ok = worst <= 1e-12 and maps_ok
    _report(
        "C6 infinite-divisibility algebra",
        ok,
        f"(psi^(1/p))^p deviation {worst:.2e} (tol 1e-12), parameter maps exact: {maps_ok}",
    )


def test_c07_poisson_type_approximation():
    m = build_accum(mixed_row(), center=False)
    u_grid = [x / 10.0 for x in range(-50, 51)]
    errors = []
    for cells in (48, 192, 768):
        mesh = [-1.5 + 3.0 * i / cells for i in range(cells + 1)]
        _, sup_err = poisson_product_approx(m, 1.5, mesh)
        errors.append(sup_err(u_grid))
    decreasing = errors[0] > errors[1] > errors[2]
    ok = decreasing and errors[-1] <= 1e-3
    _report(
        "C7 Poisson-type approximation",
        ok,
        f"sup errors along refinement {['%.2e' % e for e in errors]} (final tol 1e-3)",
    )


def test_c08_curvature_identity():
    measures = {
        "rademacher K_16": build_accum(StandardizedIid(RADEMACHER).row(16), center=False),
        "bernoulli K*_100": build_accum(BernoulliPoisson(1.0).row(100), center=True),
        "mixed": build_accum(mixed_row(), center=False),
        "dirac0": AccumMeasure(atoms=((0.0, 1.0),)),
        "dirac1(2)": AccumMeasure(atoms=((1.0, 2.0),)),
    }
    worst = 0.0
    for name, m in measures.items():
        cv = curvature_check(m)
        rel = abs(cv.second_difference - cv.target) / abs(cv.target)
        worst = max(worst, rel)
    _report("C8 curvature identity", worst <= 1e-4, f"worst relative error {worst:.2e} (tol 1e-4)")


def test_c09_cli_reproducibility(tmp_path):
    configs = {
        "sweep.json": {
            "task": "psi-sweep",
            "measure": {"kind": "dirac_zero", "mass": 1.0},
            "u_grid": {"start": -3.0, "stop": 3.0, "step": 0.25},
        },
        "verdict.json": {
            "task": "verdict-gaussian",
            "array": {
                "generator": "standardized_iid",
                "base": {"kind": "finite_discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
            },
            "n_list": [100, 1000, 10000],
            "eps_list": [0.05, 0.1, 0.5],
        },
        "sim.json": {
            "task": "simulate",
            "array": {
                "generator": "standardized_iid",
                "base": {"kind": "finite_discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
            },
            "n_list": [64, 256],
            "samples_per_n": 3000,
            "seed": SEED,
            "u_grid": [-2.0, -1.0, 1.0, 2.0],
            "limit": {"kind": "std_gaussian"},
        },
        "approx.json": {
            "task": "poisson-approx",
            "measure": {"kind": "scaled_dirac_one", "lambda": 1.0},
            "window": 2.0,
            "mesh_cells": [4, 16],
            "u_grid": [-2.0, 1.0, 2.0],
        },
    }
    identical = True
    compared = 0
    for name, cfg in configs.items():
        path = tmp_path / name
        path.write_text(json.dumps(cfg, indent=2))
        out1 = tmp_path / (name + ".run1")
        out2 = tmp_path / (name + ".run2")
        code1 = main(["--config", str(path), "--out-dir", str(out1), "--quiet"])
        code2 = main(["--config", str(path), "--out-dir", str(out2), "--quiet"])
        identical = identical and code1 == code2
        for f1 in sorted(out1.rglob("*")):
            if f1.is_file():
                f2 = out2 / f1.relative_to(out1)
                identical = identical and f1.read_bytes() == f2.read_bytes()
                compared += 1
    _report("C9 reproducibility", identical and compared > 0, f"{compared} artifacts byte-identical")


def test_c10_negative_controls():
    rows = []
    for n in N_LIST:
        s = math.sqrt(2.0 / n)
        rows.append(RowSpec(n, ((FiniteDiscrete(((-s, 0.5), (s, 0.5))), n),)))
    bad = ExplicitArray(tuple(rows))
    rep1 = gaussian_verdict(bad, N_LIST, EPS_LIST)
    ctrl1 = (not rep1.passed) and ("GC0 normalization" in rep1.reasons)

    rad = StandardizedIid(RADEMACHER)
    rep2 = poisson_verdict(rad, N_LIST, EPS_LIST, (-1.0, 1.0))
    stuck = all(
        abs(rep2.series["lindeberg_poisson"][eps][-1] - 1.0) <= 1e-12 for eps in EPS_LIST
    )
    ctrl2 = (not rep2.passed) and stuck
    _report(
        "C10 negative controls",
        ctrl1 and ctrl2,
        f"MV=2 fails GC0: {ctrl1}; Poisson verdict on Rademacher stuck at 1: {ctrl2}",
    )
