"""Interval machinery: subsample extremes, Wald, result containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import (
    ConfigError,
    DegenerateVariance,
    NegativeVariance,
    SubsampleTooSmall,
)
from msmbounds.inference import HulcSpec, hulc_ci, subsample_partition, wald_ci
from msmbounds.results import BetaEstimate, ConfidenceInterval, HomotopyTrace


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


def _loop_partition(n, b, seed):
    """The block loop that ``subsample_partition`` replaced: the reference."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base = n // b
    extra = n % b
    blocks = []
    start = 0
    for i in range(b):
        size = base + (1 if i < extra else 0)
        blocks.append(np.sort(perm[start:start + size]))
        start += size
    return blocks


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(b=st.sampled_from([2, 3, 6, 8]), data=st.data(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_partition_matches_the_block_loop_bit_for_bit(b, data, seed):
    n = data.draw(st.integers(min_value=b, max_value=400), label="n")
    got = subsample_partition(n, b, seed)
    want = _loop_partition(n, b, seed)
    assert len(got) == len(want) == b
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


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


def test_hulc_needs_four_units_per_block():
    def mean_outcome(d):
        return d.y.mean()

    spec = HulcSpec(alpha=0.05)
    with pytest.raises(SubsampleTooSmall,
                       match="^hulc needs at least 24 units for 6 subsamples, have 23$") as err:
        hulc_ci(generate(DgpSpec("gauss-line", seed=1), 23), mean_outcome, spec)
    assert isinstance(err.value, ConfigError)  # the CLI's exit 2
    ci = hulc_ci(generate(DgpSpec("gauss-line", seed=1), 24), mean_outcome, spec)
    assert ci.low <= ci.high


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


def test_trace_defaults_and_grid_validation():
    trace = HomotopyTrace(grid=[1.0, 2.0], lower=[0.0, -1.0],
                          upper=[0.0, 1.0], target="beta[0]")
    assert np.all(trace.valid)
    with pytest.raises(ValueError):
        HomotopyTrace(grid=[2.0, 1.0], lower=[0.0, 0.0],
                      upper=[0.0, 0.0], target="t")
