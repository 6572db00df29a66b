"""The partition select of the rank rules and the homotopy's swap band,
checked against the lexsort cuts they replaced: the ascending (value, index)
order, the top side taking its last entries and the bottom side its first,
and the band taking the first ``_SWAP_BAND`` entries of the (key, index)
order. Also the NaN rule of every rank rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds import homotopy
from msmbounds._ranks import (
    cell_rank_mask,
    gamma_count,
    rank_mask,
    rank_masks,
    select_bottom_mask,
    select_top_mask,
)
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import NaNRank, NumericalError
from msmbounds.msm import linear_msm

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# few atoms, so ties are heavy; the signed zeros and infinities rank too
ATOMS = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]
VALUES = st.lists(
    st.one_of(st.sampled_from(ATOMS), st.floats(-1e3, 1e3, allow_nan=False)),
    min_size=1, max_size=200)
GAMMAS = st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 50.0))


def _reference_cut(values, count, top):
    """The last (top) or first ``count`` entries of the (value, index) lexsort."""
    order = np.lexsort((np.arange(values.size), values))
    mask = np.zeros(values.size, dtype=bool)
    mask[order[values.size - count:] if top else order[:count]] = True
    return mask


def _reference_band(idx, key):
    return idx[np.lexsort((idx, key))][:homotopy._SWAP_BAND]


def _counts(n):
    return sorted({0, 1, max(n - 1, 0), n})


@PROPERTY
@given(VALUES, st.data())
def test_select_matches_lexsort_cut(values, data):
    values = np.array(values)
    n = values.size
    count = data.draw(st.one_of(st.sampled_from(_counts(n)), st.integers(0, n)))
    for select, top in ((select_top_mask, True), (select_bottom_mask, False)):
        want = _reference_cut(values, count, top)
        assert select(values, count).tobytes() == want.tobytes()


@PROPERTY
@given(VALUES, GAMMAS)
def test_rank_mask_matches_lexsort_cut(values, gamma):
    values = np.array(values)
    count = gamma_count(values.size, gamma)
    for upper in (False, True):
        want = _reference_cut(values, count, upper)
        assert rank_mask(values, gamma, upper).tobytes() == want.tobytes()
    masks = rank_masks(values, [gamma])[0]
    assert [m.tobytes() for m in masks] == [
        rank_mask(values, gamma, upper).tobytes() for upper in (False, True)]


@pytest.mark.parametrize("n", [1, 2, 3, 9, 200])
@pytest.mark.parametrize("atoms", [1, 2, 5])
def test_select_counts_at_the_edges(n, atoms):
    # every value one of a few atoms (one atom: all tied), both zeros among them
    values = np.array([0.0, -0.0, 1.0, -2.0, 7.5])[np.arange(n) * 7 % atoms]
    for count in _counts(n):
        for select, top in ((select_top_mask, True), (select_bottom_mask, False)):
            mask = select(values, count)
            assert mask.sum() == count
            assert mask.tobytes() == _reference_cut(values, count, top).tobytes()


def test_select_ties_fill_from_the_cut_side():
    values = np.zeros(6)
    np.testing.assert_array_equal(np.flatnonzero(select_top_mask(values, 2)), [4, 5])
    np.testing.assert_array_equal(np.flatnonzero(select_bottom_mask(values, 2)), [0, 1])
    values = np.array([1.0, 3.0, 3.0, -0.0, 3.0, 0.0])
    np.testing.assert_array_equal(np.flatnonzero(select_top_mask(values, 2)), [2, 4])
    np.testing.assert_array_equal(np.flatnonzero(select_bottom_mask(values, 1)), [3])


@PROPERTY
@given(VALUES, st.data())
def test_swap_band_matches_lexsort(values, data):
    key = np.array(values)
    # the band's units are an ascending subset of the sample's indices
    idx = np.sort(data.draw(st.lists(st.integers(0, 10 * key.size), min_size=key.size,
                                     max_size=key.size, unique=True)))
    assert homotopy._band(idx, key).tobytes() == _reference_band(idx, key).tobytes()


def test_swap_band_lower_index_wins_ties(monkeypatch):
    """A derivative full of ties: each band holds the lowest indices of its side."""
    data = generate(DgpSpec("gauss-line", seed=1), 60)
    model = linear_msm()
    h = model.features(data.a)
    w = np.ones(data.n)
    mask = np.zeros(data.n, dtype=bool)
    mask[::3] = True
    beta, gram = homotopy.weighted_fit(model, data.a, data.y, w * np.where(mask, 2.0, 0.5))

    def tied(model, a, h, y, w, coord, beta, m):
        return np.ones(y.size), np.zeros(y.size), np.full(y.size, 0.25)

    bands = []

    def spy(idx, key):
        band = band_of(idx, key)
        bands.append((idx, band))
        return band

    band_of = homotopy._band
    monkeypatch.setattr(homotopy, "_derivative", tied)
    monkeypatch.setattr(homotopy, "_band", spy)
    runs = [homotopy._swap_phase(model, data.a, h, data.y, w, (0.5, 2.0), mask, beta,
                                 sense, 1, gram) for sense in (1.0, -1.0, 1.0)]
    assert bands
    for idx, band in bands:
        np.testing.assert_array_equal(band, idx[:homotopy._SWAP_BAND])
    for (v1, b1, c1), (v2, b2, c2) in zip(runs[0], runs[2]):
        assert v1.tobytes() == v2.tobytes() and b1.tobytes() == b2.tobytes() and c1 == c2


@pytest.mark.parametrize("top", [True, False])
def test_nan_raises_a_numerical_error_naming_its_count(top):
    values = np.array([1.0, np.nan, 0.0, np.nan, 2.0, 3.0])
    select = select_top_mask if top else select_bottom_mask
    with pytest.raises(NaNRank, match="2 NaN value"):
        select(values, 1)
    with pytest.raises(NaNRank, match="2 NaN value"):
        rank_mask(values, 2.0, top)
    assert issubclass(NaNRank, NumericalError)  # CLI exit 4


def test_sorting_rules_raise_on_nan_too():
    values = np.array([np.nan, 1.0, 0.5, 2.0])
    with pytest.raises(NaNRank, match="1 NaN value"):
        rank_masks(values, [1.0, 2.0])
    with pytest.raises(NaNRank, match="1 NaN value"):
        cell_rank_mask(values, np.array([0, 0, 1, 1]), 2.0, True)
