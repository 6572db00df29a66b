"""The vectorised (a, x)-cell paths, checked against the per-unit and
per-cell loops they replaced: the cell partition (and the row-sorting
``np.unique(axis=0)`` labels it replaced), the per-cell rank rule,
the empirical cell quantiles and the cell plug-in of the conditional
outcome bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds._ranks import ceil_count, cell_rank_mask, rank_mask
from msmbounds.data import Dataset
from msmbounds.datagen import DgpSpec, generate, registry
from msmbounds.errors import BadTau
from msmbounds.gamma import GammaSpec, conditional_outcome_bounds
from msmbounds.nuisance import (
    EmpiricalQuantileFit,
    _cell_rows,
    _Rows,
    cell_labels,
    clipped_pseudo_outcome,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# values on few atoms, so cells and ties are common
A_LEVELS = [0.0, 1.0, 2.5, -1.0]
X_LEVELS = [0.0, 1.0, 0.3]
Y_VALUES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                     st.floats(-5, 5, allow_nan=False))
GAMMAS = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(1.0, 5.0))


def _reference_group_cells(a, x):
    """Unit indices of each (a, x) cell, keyed on Python-rounded value tuples."""
    a = np.asarray(a, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    cells = {}
    for i in range(a.size):
        key = (round(float(a[i]), 9),) + tuple(round(float(v), 9) for v in x[i])
        cells.setdefault(key, []).append(i)
    return {k: np.asarray(v) for k, v in cells.items()}


def _reference_quantiles(taus, a, x, y, probe_a, probe_x):
    """Type-1 cell quantiles at each probe row, one row and one tau at a time;
    an unseen cell takes the pooled sample."""
    y = np.asarray(y, dtype=float)
    # stable sorts keep tied values, -0.0 and 0.0 among them, in index order
    cells = {key: np.sort(y[idx], kind="stable")
             for key, idx in _reference_group_cells(a, x).items()}
    pooled = np.sort(y, kind="stable")
    probe = _reference_group_cells(probe_a, probe_x)
    out = np.empty((len(probe_a), len(taus)))
    for key, rows in probe.items():
        vals = cells.get(key, pooled)
        for i in rows:
            for j, tau in enumerate(taus):
                if not 0.0 < tau < 1.0:
                    raise BadTau(f"tau must be in (0, 1), got {tau}")
                out[i, j] = vals[max(int(math.ceil(vals.size * tau - 1e-12)), 1) - 1]
    order = np.argsort(np.asarray(taus, dtype=float), kind="stable")
    out[:, order] = np.sort(out[:, order], axis=1)
    return out


def _same_partition(labels, cells):
    """Do the labels and the reference cells split the units the same way?"""
    cell_of = np.empty(labels.size, dtype=int)
    for c, idx in enumerate(cells.values()):
        cell_of[idx] = c
    pairs = set(zip(labels.tolist(), cell_of.tolist()))
    return len(pairs) == len(cells) == np.unique(labels).size


@st.composite
def _cell_data(draw, k=None, a_levels=A_LEVELS):
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, 2)) if k is None else k
    a = np.array(draw(st.lists(st.sampled_from(a_levels), min_size=n, max_size=n)))
    x = np.array(draw(st.lists(
        st.lists(st.sampled_from(X_LEVELS), min_size=k, max_size=k), min_size=n, max_size=n)))
    return a, x.reshape(n, k)


@pytest.mark.parametrize("name", [name for name in registry() if name != "panel-mix"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cell_labels_match_reference_partition_on_generators(name, seed):
    data = generate(DgpSpec(name, seed=seed))
    labels = cell_labels(data.a, data.x)
    assert _same_partition(labels, _reference_group_cells(data.a, data.x))


@PROPERTY
@given(_cell_data())
def test_cell_labels_match_reference_partition(cells):
    a, x = cells
    assert _same_partition(cell_labels(a, x), _reference_group_cells(a, x))


# signed zeros and values a rounding step apart at the 9-decimal cell key
EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1.4e-9, 1.5e-9, 2e-9, 0.3, -2.5]),
    st.floats(-3, 3, allow_nan=False))


@PROPERTY
@given(st.data())
def test_cell_labels_match_unique_rows(data):
    # the per-column codes give the labels of the row-sorting np.unique(axis=0):
    # the same partition, numbered in the same lexicographic order
    n = data.draw(st.integers(1, 50))
    k = data.draw(st.integers(0, 3))
    a = np.array(data.draw(st.lists(EDGE_VALUES, min_size=n, max_size=n)))
    x = np.array(data.draw(st.lists(
        st.lists(EDGE_VALUES, min_size=k, max_size=k), min_size=n, max_size=n))).reshape(n, k)
    want = np.unique(_cell_rows(a, x), axis=0, return_inverse=True)[1].ravel()
    np.testing.assert_array_equal(cell_labels(a, x), want)


@PROPERTY
@given(st.data(), GAMMAS, st.booleans())
def test_cell_rank_mask_matches_per_cell_loop(data, gamma, upper):
    n = data.draw(st.integers(1, 60))
    labels = np.array(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    values = np.array(data.draw(st.lists(Y_VALUES, min_size=n, max_size=n)))
    want = np.zeros(n, dtype=bool)
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        want[idx] = rank_mask(values[idx], gamma, upper)
    np.testing.assert_array_equal(cell_rank_mask(values, labels, gamma, upper), want)


def test_cell_rank_mask_rejects_gamma_below_one():
    with pytest.raises(ValueError):
        cell_rank_mask(np.zeros(3), np.zeros(3, dtype=int), 0.5, True)


@PROPERTY
@given(st.data(), st.integers(0, 2))
def test_empirical_quantiles_match_per_unit_loop(data, k):
    # the probe rows take one more treatment level, so some of their cells are unseen
    a, x = data.draw(_cell_data(k))
    probe_a, probe_x = data.draw(_cell_data(k, A_LEVELS + [7.0]))
    y = np.array(data.draw(st.lists(Y_VALUES, min_size=a.size, max_size=a.size)))
    taus = data.draw(st.lists(
        st.one_of(st.sampled_from([0.5, 1 / 3, 2 / 3, 0.25]), st.floats(0.01, 0.99)),
        min_size=1, max_size=3))
    got = EmpiricalQuantileFit(_Rows(a, x), y).evaluate_many(taus, _Rows(probe_a, probe_x))
    want = _reference_quantiles(taus, a, x, y, probe_a, probe_x)
    assert got.tobytes() == want.tobytes()


def test_empirical_quantiles_reject_bad_tau():
    fit = EmpiricalQuantileFit(_Rows([0.0, 1.0], np.zeros((2, 0))), [0.0, 1.0])
    for tau in (0.0, 1.0):
        with pytest.raises(BadTau):
            fit.evaluate_many([0.5, tau], _Rows([0.0, 3.0], np.zeros((2, 0))))


def _reference_cell_plugin(data, spec):
    """Per-cell pseudo-outcomes at the cell quantiles, then per-cell means."""
    out = []
    for side in ("lower", "upper"):
        bound = np.empty(data.n)
        for idx in _reference_group_cells(data.a, data.x).values():
            yv = data.y[idx]
            order = np.lexsort((np.arange(yv.size), yv))
            q_low = yv[order[ceil_count(yv.size, spec.tau_low) - 1]]
            q_high = yv[order[ceil_count(yv.size, spec.tau_high) - 1]]
            bound[idx] = clipped_pseudo_outcome(yv, q_low, q_high, spec.gamma, side).mean()
        out.append(bound)
    return out


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 4.0])
def test_cell_plugin_matches_per_cell_loop(gamma):
    data = generate(DgpSpec("discrete-cells", seed=3))
    got = conditional_outcome_bounds(data, GammaSpec(gamma))
    for g, w in zip(got, _reference_cell_plugin(data, GammaSpec(gamma))):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


def test_cell_plugin_with_unlabelled_covariates():
    data = Dataset(None, np.repeat([0.0, 1.0], 4), np.arange(8.0))
    got = conditional_outcome_bounds(data, GammaSpec(3.0))
    for g, w in zip(got, _reference_cell_plugin(data, GammaSpec(3.0))):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
