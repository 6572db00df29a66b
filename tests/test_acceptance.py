"""Acceptance gate: thirteen end-to-end checks, one test (and one printed
PASS/FAIL line) per criterion, each with an explicit tolerance and
runtime budget."""

import hashlib
import json
import time

import numpy as np
import pytest

from msmbounds._ranks import lower_mass_v, upper_mass_v
from msmbounds.cli import main as cli_main
from msmbounds.data import Dataset, PanelDataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.gamma import (
    GammaSpec,
    conditional_quantile_beta_bounds,
    fit_parametric_bounds,
    linear_curve_bounds,
    local_beta_bounds,
    marginal_quantile_beta_bounds,
    marginal_quantile_grid_bounds,
)
from msmbounds.homotopy import coordinate_ascent_bounds, homotopy_bounds
from msmbounds.inference import HulcSpec, hulc_ci
from msmbounds.msm import (
    PairKernel,
    fit_msm,
    intercept_msm,
    polynomial_msm,
    u_statistic_with_variance,
)
from msmbounds.nuisance import NuisanceConfig, SelfFit, fixed_weight_nuisances
from msmbounds.oracles import (
    oracle_conditional_box_mean,
    oracle_exhaustive_beta_bound,
    oracle_linear_box_mean,
)
from msmbounds.outcome import (
    DeltaSpec,
    outcome_beta_bounds_linear,
    outcome_curve_bounds,
    outcome_nonlinear_grid_bounds,
    outcome_parametric_bounds,
)
from msmbounds.panel import cumulative_panel_msm, panel_weights
from msmbounds.subset import (
    EpsilonSpec,
    subset_independent_bounds,
    subset_linear_beta_bounds,
    subset_outcome_beta_bounds,
    subset_parametric_bounds,
    subset_theta_bounds,
)

LINE = "criterion {num:>2} {status}: {detail}"


def _report(num, ok, detail):
    print(LINE.format(num=num, status="PASS" if ok else "FAIL", detail=detail))
    assert ok, f"criterion {num}: {detail}"


def _dr_point_fit(data, model, nuis):
    """Pair-kernel fit with the plain regression-adjusted kernel, rebuilt
    from nuisance primitives so the collapse target is independent code."""
    n = data.n
    h = model.features(data.a)
    w = nuis.weights
    mu_own = nuis.mu_units
    base = w * (data.y - mu_own)
    target = np.zeros(model.dim)
    for i in range(n):
        mu_row = nuis.mu_row(i)
        row_sum = (n - 1) * base[i] + (mu_row.sum() - mu_row[i])
        target += h[i] * row_sum
    target /= n * (n - 1)
    b = model.basis_matrix(data.a)
    return np.linalg.solve(h.T @ b / n, target)


def test_criterion_01_collapse_identities():
    t0 = time.monotonic()
    model = polynomial_msm(1)
    g1 = GammaSpec(1.0)
    d0 = DeltaSpec(0.0)
    worst = 0.0

    def track(*vals):
        nonlocal worst
        worst = max(worst, *[abs(v) for v in vals])

    for seed in range(20):
        data = generate(DgpSpec("gauss-line", seed=seed), 200)
        nuis = SelfFit(data)
        point = fit_msm(data, model, weights=nuis.weights).beta
        a0 = 0.7
        curve_pt = point[0] + point[1] * a0

        lo, hi = marginal_quantile_beta_bounds(data, model, nuis, g1, 1)
        track(lo - point[1], hi - point[1])
        lo, hi = conditional_quantile_beta_bounds(data, model, nuis, g1, 1)
        track(lo - point[1], hi - point[1])
        lo, hi = local_beta_bounds(data, model, nuis, g1, 1)
        track(lo - point[1], hi - point[1])
        trace = homotopy_bounds(data, model, nuisances=nuis, grid=[1.0], coord=1)
        track(trace.lower[0] - point[1], trace.upper[0] - point[1])
        trace = coordinate_ascent_bounds(data, model, nuis.weights, [1.0],
                                         coord=1, n_orderings=1, seed=seed)
        track(trace.lower[0] - point[1], trace.upper[0] - point[1])

        dr = _dr_point_fit(data, model, nuis)
        est_low, est_high = fit_parametric_bounds(data, model, nuis, g1)
        track(np.max(np.abs(est_low.beta - est_high.beta)),
              np.max(np.abs(est_low.beta - dr)))
        glo, ghi, _ = linear_curve_bounds(data, model, nuis, g1, a0)
        track(glo - curve_pt, ghi - curve_pt)

        lo, hi = outcome_beta_bounds_linear(data, model, nuis, d0, 1)
        track(lo - point[1], hi - point[1])
        est_low, est_high = outcome_parametric_bounds(data, model, nuis, d0)
        track(np.max(np.abs(est_low.beta - est_high.beta)),
              np.max(np.abs(est_low.beta - dr)))
        glo, ghi, _ = outcome_curve_bounds(data, model, nuis, d0, a0)
        track(glo - curve_pt, ghi - curve_pt)
        lo, hi = outcome_nonlinear_grid_bounds(data, model, nuis, d0, 1)
        track(lo - point[1], hi - point[1])

        eps0 = EpsilonSpec(0.0, GammaSpec(2.0))
        tl, tu = subset_theta_bounds(data, nuis, eps0, a0)
        center = nuis.mu_at_units(a0).mean()
        track(tl - center, tu - center)
        lo, hi = subset_linear_beta_bounds(data, model, nuis, eps0, 1)
        track(lo - point[1], hi - point[1])
        est_low, est_high = subset_parametric_bounds(data, model, nuis, eps0)
        track(np.max(np.abs(est_low.beta - est_high.beta)),
              np.max(np.abs(est_low.beta - dr)))
        lo, hi = subset_outcome_beta_bounds(
            data, model, nuis, EpsilonSpec(0.0, DeltaSpec(1.0)), 1)
        track(lo - point[1], hi - point[1])
        trace = subset_independent_bounds(data, model, nuis, [1.0], 1, 0.5)
        track(trace.lower[0] - point[1], trace.upper[0] - point[1])

    elapsed = time.monotonic() - t0
    _report(1, worst <= 1e-8 and elapsed < 60,
            f"worst collapse gap {worst:.2e} over 20 datasets, {elapsed:.1f}s")


def test_criterion_02_synthetic_line_reproduction():
    t0 = time.monotonic()
    model = polynomial_msm(1)
    points = []
    for seed in range(200):
        data = generate(DgpSpec("gauss-line", seed=seed), 100)
        points.append(fit_msm(data, model, weights=SelfFit(data).weights).beta[1])
    points = np.asarray(points)
    mc_se = points.std(ddof=1) / np.sqrt(points.size)
    point_ok = abs(points.mean() - 3.0) <= 3 * mc_se

    grid = np.round(np.arange(1.0, 2.0001, 0.1), 10)
    widths_ok = True
    rel_worst = 0.0
    for seed in range(3):
        data = generate(DgpSpec("gauss-line", seed=seed), 100)
        nuis = SelfFit(data)
        trace = homotopy_bounds(data, model, nuisances=nuis, grid=grid,
                                flavor="exact", coord=1, inner_iterations=4)
        w_hom = trace.upper - trace.lower
        widths_ok &= bool(np.all(np.diff(w_hom) > 1e-10))
        w_mq = np.array([
            np.diff(marginal_quantile_beta_bounds(data, model, nuis,
                                                  GammaSpec(g), 1))[0]
            for g in grid
        ])
        widths_ok &= bool(np.all(np.diff(w_mq) > 1e-10))
        for j, g in enumerate(grid[1:], start=1):
            lo, hi = local_beta_bounds(data, model, nuis, GammaSpec(g), 1)
            rel_worst = max(rel_worst, abs((hi - lo) - w_hom[j]) / w_hom[j])

    elapsed = time.monotonic() - t0
    ok = point_ok and widths_ok and rel_worst <= 0.10 and elapsed < 300
    _report(2, ok,
            f"mean slope {points.mean():.4f} (3 MC SE {3 * mc_se:.4f}), "
            f"widths strictly increasing {widths_ok}, "
            f"local vs homotopy rel gap {rel_worst:.4f}, {elapsed:.1f}s")


def test_criterion_03_closed_form_vs_lp_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    gammas = [1.5, 2.0, 3.0]
    worst_slack_ratio = 0.0
    worst_integral = 0.0
    n_integral = 0
    for _ in range(100):
        n = int(rng.integers(7, 51))
        gamma = gammas[int(rng.integers(0, 3))]
        f = rng.standard_normal(n)
        hi = float(np.mean(f * upper_mass_v(f, gamma)))
        lo = float(np.mean(f * lower_mass_v(f, gamma)))
        o_hi = oracle_linear_box_mean(f, gamma, "max").value
        o_lo = oracle_linear_box_mean(f, gamma, "min").value
        gap = max(abs(hi - o_hi), abs(lo - o_lo))
        slack = (gamma - 1.0 / gamma) * np.max(np.abs(f)) / n
        worst_slack_ratio = max(worst_slack_ratio, gap / slack)
        tau_u = gamma / (1.0 + gamma)
        if abs(n * tau_u - round(n * tau_u)) < 1e-9:
            n_integral += 1
            worst_integral = max(worst_integral, gap)
    elapsed = time.monotonic() - t0
    ok = (worst_slack_ratio <= 1.0 + 1e-9 and worst_integral <= 1e-10
          and n_integral > 0 and elapsed < 60)
    _report(3, ok,
            f"100 instances, worst gap/slack {worst_slack_ratio:.3f}, "
            f"{n_integral} integral cases worst gap {worst_integral:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_04_conditional_plugin_vs_cell_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    config = NuisanceConfig(propensity_method="discrete",
                            quantile_method="empirical")
    model = intercept_msm()
    # cell size keeps n_c / (1 + gamma) integral so quantile levels sit on atoms
    setups = [(2.0, 3), (3.0, 4), (1.5, 5)]
    worst = 0.0
    for trial in range(25):
        gamma, cell_n = setups[trial % 3]
        k = int(rng.integers(2, 5))
        a = np.repeat(np.arange(k, dtype=float), cell_n)
        y = rng.standard_normal(k * cell_n)
        data = Dataset(None, a, y)
        nuis = SelfFit(data, config)
        lo, hi = conditional_quantile_beta_bounds(data, model, nuis,
                                                  GammaSpec(gamma), 0)
        w = nuis.weights
        f = w * y / w.mean()
        cells = [{"values": f[a == lev], "weight": cell_n / a.size}
                 for lev in np.unique(a)]
        o_hi = oracle_conditional_box_mean(cells, gamma, "max").value
        o_lo = oracle_conditional_box_mean(cells, gamma, "min").value
        worst = max(worst, abs(hi - o_hi), abs(lo - o_lo))
    elapsed = time.monotonic() - t0
    _report(4, worst <= 1e-8 and elapsed < 60,
            f"25 discrete instances, worst plug-in vs oracle gap {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_05_homotopy_exact_at_tiny_n():
    t0 = time.monotonic()
    model = polynomial_msm(1)
    configs = [(6, 2.0), (9, 2.0), (8, 3.0), (10, 1.5)]
    gaps = []
    for i in range(20):
        n, gamma = configs[i % len(configs)]
        data = generate(DgpSpec("gauss-line", seed=1000 + i), n)
        w = SelfFit(data).weights
        steps = int(round((gamma - 1.0) / 0.05))
        grid = np.round(1.0 + 0.05 * np.arange(steps + 1), 10)
        trace = homotopy_bounds(data, model, grid=grid, flavor="exact",
                                coord=1, weights=w, inner_iterations=8)
        b = model.basis_matrix(data.a)
        o_hi = oracle_exhaustive_beta_bound(b, data.y, w, gamma, 1, "max").value
        o_lo = oracle_exhaustive_beta_bound(b, data.y, w, gamma, 1, "min").value
        gaps.append(max(abs(trace.upper[-1] - o_hi), abs(trace.lower[-1] - o_lo)))
    gaps = np.asarray(gaps)
    over = int(np.sum(gaps > 1e-4))
    elapsed = time.monotonic() - t0
    ok = gaps.mean() <= 1e-3 and np.max(gaps) <= 1e-4 and elapsed < 300
    _report(5, ok,
            f"20 instances, mean gap {gaps.mean():.2e}, max {gaps.max():.2e}, "
            f"{over} gaps over 1e-4, {elapsed:.1f}s")


def test_criterion_06_constraint_families_same_estimand():
    # independent replications per family: the identity under test is a
    # population one, and the two estimators carry different O(1/n) biases
    t0 = time.monotonic()
    config = NuisanceConfig(propensity_method="discrete",
                            quantile_method="empirical",
                            outcome_method="linear")
    model = polynomial_msm(1)
    gamma = 1.5
    via_homotopy = {"upper": [], "lower": []}
    via_quantile = {"upper": [], "lower": []}
    for rep in range(50):
        data = generate(DgpSpec("discrete-cells", seed=rep), 240)
        nuis = SelfFit(data, config)
        trace = homotopy_bounds(data, model, nuisances=nuis, grid=[1.0, gamma],
                                flavor="exact", constraint="conditional", coord=1)
        via_homotopy["upper"].append(trace.upper[-1])
        via_homotopy["lower"].append(trace.lower[-1])
        data = generate(DgpSpec("discrete-cells", seed=1000 + rep), 240)
        nuis = SelfFit(data, config)
        lo, hi = conditional_quantile_beta_bounds(data, model, nuis,
                                                  GammaSpec(gamma), 1)
        via_quantile["upper"].append(hi)
        via_quantile["lower"].append(lo)
    detail = []
    ok = True
    for side in ("upper", "lower"):
        a = np.asarray(via_homotopy[side])
        b = np.asarray(via_quantile[side])
        se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        gap = abs(a.mean() - b.mean())
        ok &= gap <= 3 * se
        detail.append(f"{side} gap {gap:.2e} vs 3 MC SE {3 * se:.2e}")
    elapsed = time.monotonic() - t0
    _report(6, ok, "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_07_outcome_width_identity():
    t0 = time.monotonic()
    model = polynomial_msm(1)
    data = generate(DgpSpec("gauss-line", seed=3), 150)
    nuis = SelfFit(data)
    b = model.basis_matrix(data.a)
    w = nuis.weights
    q = (b * w[:, None]).T @ b / data.n
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        a0 = float(rng.normal()) * 1.5
        delta = float(rng.uniform(0.1, 2.0))
        glo, ghi, _ = outcome_curve_bounds(data, model, nuis,
                                           DeltaSpec(delta), a0)
        b0 = np.array([1.0, a0])
        leverage = float(np.mean(np.abs(b @ np.linalg.solve(q, b0))))
        worst = max(worst, abs((ghi - glo) - 2.0 * delta * leverage))
    elapsed = time.monotonic() - t0
    _report(7, worst <= 1e-10,
            f"20 (a0, delta) probes, worst width identity gap {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_08_subset_endpoints_and_monotonicity():
    t0 = time.monotonic()
    data = generate(DgpSpec("confounded-line", seed=5), 80)
    nuis = SelfFit(data)
    model = polynomial_msm(1)
    spec = GammaSpec(2.0)
    s_low, s_high = subset_parametric_bounds(data, model, nuis,
                                             EpsilonSpec(1.0, spec))
    g_low, g_high = fit_parametric_bounds(data, model, nuis, spec)
    endpoint = max(np.max(np.abs(s_low.beta - g_low.beta)),
                   np.max(np.abs(s_high.beta - g_high.beta)))

    th_w, lb_w, pi_w = [], [], []
    for eps in (0.0, 0.1, 0.25, 0.5, 1.0):
        es = EpsilonSpec(eps, spec)
        tl, tu = subset_theta_bounds(data, nuis, es, 0.5)
        th_w.append(tu - tl)
        ll, lh = subset_linear_beta_bounds(data, model, nuis, es, 1)
        lb_w.append(lh - ll)
        pl, ph = subset_parametric_bounds(data, intercept_msm(), nuis, es)
        pi_w.append(ph.beta[0] - pl.beta[0])
    mono = all(
        all(w2 >= w1 - 1e-10 for w1, w2 in zip(ws, ws[1:]))
        for ws in (th_w, lb_w, pi_w)
    )
    elapsed = time.monotonic() - t0
    _report(8, endpoint <= 1e-8 and mono,
            f"eps=1 endpoint gap {endpoint:.2e}, widths monotone {mono}, "
            f"{elapsed:.1f}s")


def test_criterion_09_rank_one_updates_match_refits():
    t0 = time.monotonic()
    model = polynomial_msm(1)
    worst = 0.0
    for seed in range(10):
        data = generate(DgpSpec("gauss-line", seed=100 + seed), 60)
        w = SelfFit(data).weights
        trace = coordinate_ascent_bounds(data, model, w, [1.0, 1.5, 2.0],
                                         coord=1, n_orderings=3, seed=seed,
                                         check_refits=True)
        worst = max(worst, trace.diagnostics["worst_refit_gap"])
    elapsed = time.monotonic() - t0
    _report(9, worst <= 1e-10,
            f"10 runs, worst rank-one vs refit gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_10_u_statistic_clt():
    t0 = time.monotonic()
    n, reps = 200, 500
    rng = np.random.default_rng(0)
    us, vs = [], []
    for _ in range(reps):
        z = rng.standard_normal(n)

        def row(i, z=z):
            return (z[i] * z ** 2 + np.sin(z[i]) * z)[:, None]

        u, cov = u_statistic_with_variance(PairKernel(n, 1, row))
        us.append(u[0])
        vs.append(cov[0, 0])
    ratio = n * np.var(us, ddof=1) / np.mean(vs)
    elapsed = time.monotonic() - t0
    _report(10, abs(ratio - 1.0) <= 0.15,
            f"500 reps n=200, var(sqrt(n) U) / (4 mean proj var) = {ratio:.4f}, "
            f"{elapsed:.1f}s")


def test_criterion_11_hulc_coverage():
    t0 = time.monotonic()
    model = intercept_msm()
    spec = GammaSpec(1.5)

    def upper_bound(d):
        est_low, est_high = fit_parametric_bounds(d, model, SelfFit(d), spec)
        return max(est_low.beta[0], est_high.beta[0])

    truth = float(np.mean([
        upper_bound(generate(DgpSpec("gauss-line", seed=9000 + k), 2000))
        for k in range(20)
    ]))
    covered = 0
    reps = 500
    for rep in range(reps):
        data = generate(DgpSpec("gauss-line", seed=rep), 120)
        ci = hulc_ci(data, upper_bound, HulcSpec(alpha=0.05, seed=rep))
        covered += ci.low <= truth <= ci.high
    coverage = covered / reps
    elapsed = time.monotonic() - t0
    _report(11, coverage >= 0.90 and elapsed < 600,
            f"coverage {coverage:.3f} of true bound {truth:.4f} "
            f"over {reps} reps, {elapsed:.1f}s")


def test_criterion_12_single_period_panel_reduction():
    t0 = time.monotonic()
    model_p = cumulative_panel_msm()
    model_s = polynomial_msm(1)
    grid = [1.0, 1.5, 2.0]
    worst = 0.0
    for seed in range(10):
        data = generate(DgpSpec("gauss-line", seed=200 + seed), 60)
        panel = PanelDataset(range(60), data.x[:, None, :], data.a[:, None],
                             data.y)
        static = panel.to_static()
        w_panel = panel_weights(panel)
        w_static = SelfFit(static).weights
        worst = max(worst, float(np.max(np.abs(w_panel - w_static))))
        est_p = fit_msm(panel, model_p, weights=w_panel)
        est_s = fit_msm(static, model_s, weights=w_panel)
        worst = max(worst, float(np.max(np.abs(est_p.beta - est_s.beta))))
        tr_p = homotopy_bounds(panel, model_p, grid=grid, coord=1,
                               weights=w_panel)
        tr_s = homotopy_bounds(static, model_s, grid=grid, coord=1,
                               weights=w_panel)
        worst = max(worst,
                    float(np.max(np.abs(tr_p.lower - tr_s.lower))),
                    float(np.max(np.abs(tr_p.upper - tr_s.upper))))
        shim = fixed_weight_nuisances(static, w_panel)
        mq = marginal_quantile_grid_bounds(
            panel, model_p, fixed_weight_nuisances(panel, w_panel), grid, 1)
        for j, g in enumerate(grid):
            lo, hi = marginal_quantile_beta_bounds(static, model_s, shim,
                                                   GammaSpec(g), 1)
            worst = max(worst, abs(mq.lower[j] - lo), abs(mq.upper[j] - hi))
    elapsed = time.monotonic() - t0
    _report(12, worst <= 1e-10,
            f"10 datasets, worst panel vs static gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_13_cli_determinism(tmp_path):
    t0 = time.monotonic()

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def run(cmd, cfg_payload, outdir, extra=()):
        cfg = tmp_path / f"{outdir.name}.json"
        cfg.write_text(json.dumps(cfg_payload))
        code = cli_main([cmd, "--config", str(cfg), "--out", str(outdir),
                         *extra])
        assert code == 0, f"{cmd} exited {code}"

    configs = {
        "fit": {
            "data": {"dgp": {"name": "gauss-line", "n": 80, "seed": 1}},
            "model": {"kind": "polynomial", "degree": 1},
        },
        "bounds": {
            "data": {"dgp": {"name": "gauss-line", "n": 80, "seed": 1}},
            "model": {"kind": "polynomial", "degree": 1},
            "nuisance": {"in_sample": True},
            "sensitivity": {"family": "propensity",
                            "method": "marginal-quantile",
                            "grid": [1.0, 1.5, 2.0], "coord": 1},
        },
        "curve": {
            "data": {"dgp": {"name": "gauss-line", "n": 60, "seed": 2}},
            "model": {"kind": "polynomial", "degree": 1},
            "nuisance": {"in_sample": True},
            "sensitivity": {"family": "propensity", "gamma": 1.5,
                            "a0_grid": [0.0, 0.5, 1.0]},
        },
        "simulate": {"dgp": {"name": "discrete-cells", "n": 40, "seed": 3}},
    }
    outputs = {
        "fit": ["fit_result.csv", "fit_meta.json"],
        "bounds": ["bounds_result.csv", "bounds_meta.json"],
        "curve": ["curve_result.csv", "curve_meta.json"],
        "simulate": ["simulated.csv", "simulate_meta.json"],
    }
    mismatches = []
    for cmd, payload in configs.items():
        d1, d2 = tmp_path / f"{cmd}1", tmp_path / f"{cmd}2"
        run(cmd, payload, d1)
        run(cmd, payload, d2)
        for name in outputs[cmd]:
            if digest(d1 / name) != digest(d2 / name):
                mismatches.append(f"{cmd}/{name}")

    oc_cfg = {"instances": 8, "tiny_instances": 2}
    hashes = set()
    for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / f"oracle{tag}"
        run("oracle-check", oc_cfg, out, ("--seed", "7", "--workers", workers))
        hashes.add(digest(out / "oracle_report.json"))
    if len(hashes) != 1:
        mismatches.append("oracle-check/oracle_report.json")

    elapsed = time.monotonic() - t0
    _report(13, not mismatches,
            f"5 commands hashed across reruns and worker counts, "
            f"mismatches: {mismatches or 'none'}, {elapsed:.1f}s")
