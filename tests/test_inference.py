"""Interval machinery: subsample extremes, Wald, result containers."""

import numpy as np
import pytest

from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import DegenerateVariance, NegativeVariance, SubsampleTooSmall
from msmbounds.inference import (
    HulcSpec,
    band_over_grid,
    hulc_ci,
    subsample_partition,
    wald_ci,
)
from msmbounds.results import (
    BetaEstimate,
    BoundCurve,
    ConfidenceInterval,
    HomotopyTrace,
)


def test_subsample_count_from_alpha():
    # smallest B with 2^(1-B) <= alpha
    assert HulcSpec(alpha=0.05).n_subsamples == 6
    assert HulcSpec(alpha=0.5).n_subsamples == 2
    assert HulcSpec(alpha=0.25).n_subsamples == 3
    assert HulcSpec(alpha=0.01).n_subsamples == 8
    with pytest.raises(ValueError):
        HulcSpec(alpha=0.0)
    with pytest.raises(ValueError):
        HulcSpec(alpha=1.0)


def test_partition_disjoint_exhaustive():
    blocks = subsample_partition(23, 6, seed=5)
    assert len(blocks) == 6
    sizes = [b.size for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 23
    flat = np.concatenate(blocks)
    assert np.array_equal(np.sort(flat), np.arange(23))
    again = subsample_partition(23, 6, seed=5)
    for b1, b2 in zip(blocks, again):
        assert np.array_equal(b1, b2)
    other = subsample_partition(23, 6, seed=6)
    assert any(not np.array_equal(b1, b2) for b1, b2 in zip(blocks, other))


def test_hulc_is_block_extremes():
    data = generate(DgpSpec("gauss-line", seed=0), 60)
    spec = HulcSpec(alpha=0.05, seed=11)

    def mean_outcome(d):
        return d.y.mean()

    ci = hulc_ci(data, mean_outcome, spec)
    vals = [data.take(idx).y.mean()
            for idx in subsample_partition(60, 6, seed=11)]
    assert ci.low == pytest.approx(min(vals), abs=1e-12)
    assert ci.high == pytest.approx(max(vals), abs=1e-12)
    assert ci.method == "hulc"
    assert ci.level == pytest.approx(0.95)


def test_hulc_respects_estimator_min_n():
    data = generate(DgpSpec("gauss-line", seed=1), 30)

    def needs_ten(d):
        return d.y.mean()

    needs_ten.min_n = 10
    with pytest.raises(SubsampleTooSmall):
        hulc_ci(data, needs_ten)


def test_wald_hand_value():
    ci = wald_ci(0.0, 4.0, 100, alpha=0.05)
    half = 1.959963984540054 * 0.2
    assert ci.low == pytest.approx(-half, abs=1e-12)
    assert ci.high == pytest.approx(half, abs=1e-12)
    assert ci.method == "wald"
    with pytest.raises(NegativeVariance):
        wald_ci(0.0, -1.0, 100)


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.2, 0.32, 0.5])
def test_wald_z_within_two_eps_of_scipy_at_common_levels(alpha):
    scipy_stats = pytest.importorskip("scipy.stats")
    z = wald_ci(0.0, 1.0, 1, alpha=alpha).high  # estimate 0, sd 1: high is z
    want = float(scipy_stats.norm.ppf(1.0 - alpha / 2.0))
    assert abs(z - want) <= 2 * np.finfo(float).eps * want


def test_wald_z_within_a_few_eps_of_scipy_over_alpha():
    # AS241 in double (statistics.NormalDist) and scipy's ndtri are each
    # within 3.4 eps relative of the exact quantile on this grid (checked
    # against 40-digit mpmath), so they may differ by up to twice that
    scipy_stats = pytest.importorskip("scipy.stats")
    alphas = np.concatenate([np.geomspace(1e-12, 1e-3, 50), np.linspace(1e-3, 0.999, 999)])
    z = np.array([wald_ci(0.0, 1.0, 1, alpha=a).high for a in alphas])
    want = scipy_stats.norm.ppf(1.0 - alphas / 2.0)
    assert np.all(np.abs(z - want) <= 7 * np.finfo(float).eps * want)


def test_confidence_interval_order_checked():
    with pytest.raises(ValueError):
        ConfidenceInterval(low=1.0, high=0.0, method="wald", level=0.95)


def test_beta_estimate_validation():
    est = BetaEstimate(beta=[1.0, 2.0], covariance=np.eye(2))
    assert est.k == 2
    with pytest.raises(ValueError):
        BetaEstimate(beta=[1.0, 2.0], covariance=np.eye(3))
    with pytest.raises(DegenerateVariance):
        BetaEstimate(beta=[1.0, 2.0], covariance=[[1.0, 0.5], [0.0, 1.0]])


def test_bound_curve_validation():
    with pytest.raises(ValueError):
        BoundCurve(grid=[1.0, 2.0], lower=[0.0, 1.0], upper=[0.0, 0.5],
                   target="beta[0]")
    with pytest.raises(ValueError):
        BoundCurve(grid=[1.0, 2.0], lower=[0.0], upper=[0.0, 0.5],
                   target="beta[0]")


def test_band_over_grid_assembly():
    cis_lo = [ConfidenceInterval(-1.0, 0.5, "hulc", 0.95),
              ConfidenceInterval(-2.0, 0.6, "hulc", 0.95)]
    cis_hi = [ConfidenceInterval(0.8, 2.0, "hulc", 0.95),
              ConfidenceInterval(0.9, 3.0, "hulc", 0.95)]
    band = band_over_grid([1.0, 2.0], [0.0, -0.1], [1.0, 1.5], "beta[1]",
                          cis_lower=cis_lo, cis_upper=cis_hi,
                          metadata={"gamma_grid": True})
    np.testing.assert_allclose(band.ci_lower, [-1.0, -2.0])
    np.testing.assert_allclose(band.ci_upper, [2.0, 3.0])
    assert band.metadata["gamma_grid"]
    solo = band_over_grid([1.0], [0.0], [1.0], "t", cis_lower=[cis_lo[0]])
    np.testing.assert_allclose(solo.ci_upper, [0.5])


def test_trace_width_and_curve_view():
    trace = HomotopyTrace(grid=[1.0, 2.0], lower=[0.0, -1.0],
                          upper=[0.0, 1.0], target="beta[0]")
    np.testing.assert_allclose(trace.width(), [0.0, 2.0])
    assert np.all(trace.valid)
    curve = trace.as_curve()
    assert isinstance(curve, BoundCurve)
    np.testing.assert_allclose(curve.lower, trace.lower)
    with pytest.raises(ValueError):
        HomotopyTrace(grid=[2.0, 1.0], lower=[0.0, 0.0],
                      upper=[0.0, 0.0], target="t")
