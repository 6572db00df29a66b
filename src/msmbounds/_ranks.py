"""Empirical quantile and rank-selection conventions.

Single home for the deterministic conventions used everywhere: ties
broken toward the lower index, and the strict-above / inclusive-below
split that makes rank-based weight assignments hit the LP vertex exactly
when n*tau is integral. ``_select`` is the one marginal mask rule:
``rank_mask``, the marginal rank rule behind every propensity coordinate
bound and every kept weight vector of a gamma grid, the ``select_*_mask``
pair and the homotopy's swap band all call it. ``rank_sums`` gives the sums
of the values ``rank_mask`` marks over a whole gamma grid, and
``cell_rank_mask`` applies the rule inside every (a, x) cell.

Every rule follows the ascending (value, index) order of ``np.lexsort``,
but only ``rank_sums`` and ``cell_rank_mask`` sort, because a whole grid's
sums or every cell need that order. ``_select`` needs one cut of it: it
takes the threshold from a partition, marks every value strictly past it,
and fills the remaining count from the values tied with it in index order,
the highest indices for the top side and the lowest for the bottom side,
which is where lexsort puts them. ±inf rank like any other value and -0.0
ties with 0.0. A NaN has no rank (lexsort would put it past +inf), so every
rule here raises ``NaNRank`` (a ``NumericalError``, CLI exit 4) naming
the count of NaN values instead of placing them.
"""

import math

import numpy as np

from .errors import NaNRank


def _ranked(values):
    """``values`` as a flat float array; ``NaNRank`` when any of them is NaN."""
    values = np.asarray(values, dtype=float).ravel()
    nans = np.count_nonzero(np.isnan(values))
    if nans:
        raise NaNRank(f"cannot rank {nans} NaN value(s) among {values.size}")
    return values


def _select(values, count, top):
    """Mask of the last ``count`` entries of the ascending (value, index) order
    (``top``) or of its first, without the sort.

    The threshold is the value at the cut's inner end; the values strictly
    past it are in, and the rest of ``count`` comes from the values equal
    to it, the highest indices for the top side and the lowest for the
    bottom side.
    """
    values = _ranked(values)
    count = int(count)
    n = values.size
    if not 0 <= count <= n:
        raise ValueError("count out of range")
    if not count:
        return np.zeros(n, dtype=bool)
    kth = n - count if top else count - 1
    part = values.copy()
    part.partition(kth)
    threshold = part[kth]
    mask = values > threshold if top else values < threshold
    ties = (values == threshold).nonzero()[0]
    fill = count - np.count_nonzero(mask)
    mask[ties[ties.size - fill:] if top else ties[:fill]] = True
    return mask


def _levels(mask, box):
    """v = box[1] on the boolean ``mask`` and box[0] elsewhere: the bytes of
    ``np.where(mask, box[1], box[0])``, by a table lookup on the mask's bytes."""
    return np.array(box, dtype=float).take(mask.view(np.uint8))


def select_top_mask(values, count):
    """Boolean mask of the ``count`` largest values (ties toward the lower index stay out)."""
    return _select(values, count, True)


def select_bottom_mask(values, count):
    """Boolean mask of the ``count`` smallest values (ties toward the lower index get in)."""
    return _select(values, count, False)


def ceil_count(n, tau):
    """ceil(n*tau) with a guard against float fuzz at integral points."""
    return int(math.ceil(n * tau - 1e-12))


def gamma_count(n, gamma):
    """Number of units assigned the high weight by either branch's rank rule.

    n - ceil(n*tau_u) = floor(n/(1+gamma)): the gamma-atom count of every
    vertex of {v in [1/gamma, gamma]^n : mean(v) = 1}, because the mean-one
    budget divided by the atom gap is n/(1+gamma). Both branches use it (the
    exact mirror under values -> -values), so each plug-in is a true vertex
    with its single fractional coordinate rounded down to the box floor, and
    coincides with the vertex exactly when n/(1+gamma) is integral. One more
    gamma atom (the ceil) has no nearby feasible vertex: its mean overshoots
    1 from above.
    """
    if gamma == 1.0:
        return 0
    return n - ceil_count(n, gamma / (1.0 + gamma))


def rank_mask(values, gamma, upper):
    """Units the rank rule puts at the high weight gamma.

    The ``gamma_count(n, gamma)`` largest values for the upper side
    (ties toward the lower index stay out), the same count of smallest for
    the lower side (ties toward the lower index get in). The marginal
    quantile bounds and the homotopy's threshold steps place their weights
    through this one rule, and ``cell_rank_mask`` applies it per cell.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    values = np.asarray(values, dtype=float).ravel()
    return _select(values, gamma_count(values.size, gamma), upper)


def rank_sums(values, gammas):
    """The sums of the values that ``rank_mask`` marks at every gamma, from one
    sort of ``values``.

    Returns one (lower sum, upper sum) pair per gamma: the sums of the first
    and the last ``gamma_count(n, gamma)`` entries of the ascending order.
    Tied values are equal, so the sums need no index tie-break.
    """
    if any(gamma < 1 for gamma in gammas):
        raise ValueError("gamma must be >= 1")
    ranked = np.sort(_ranked(values))
    n = ranked.size
    counts = [gamma_count(n, gamma) for gamma in gammas]
    return [(np.sum(ranked[:count]), np.sum(ranked[n - count:])) for count in counts]


def cell_rank_mask(values, labels, gamma, upper):
    """``rank_mask`` inside every cell of ``labels`` (one integer per unit): each
    cell's ``gamma_count`` first or last entries of the (cell, value, index) order."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    values = _ranked(values)
    order = np.lexsort((np.arange(values.size), values, labels))
    sizes = np.bincount(labels)
    distinct, size_at = np.unique(sizes, return_inverse=True)
    counts = np.array([gamma_count(int(size), gamma) for size in distinct])[size_at]
    cell = labels[order]
    rank = np.arange(values.size) - (np.cumsum(sizes) - sizes)[cell]  # within its cell
    keep = rank >= (sizes - counts)[cell] if upper else rank < counts[cell]
    mask = np.zeros(values.size, dtype=bool)
    mask[order[keep]] = True
    return mask


def upper_mass_v(values, gamma):
    """Weight vector maximizing mean(values*v) under the box and one-atom mean slack.

    gamma goes to ranks strictly above ceil(n*tau_u) in ascending order
    (tau_u = gamma/(1+gamma)); 1/gamma elsewhere. mean(v) = 1 exactly when
    n*tau_u is integral, otherwise short by at most one atom.
    """
    return _levels(rank_mask(values, gamma, True), (1.0 / gamma, gamma))


def lower_mass_v(values, gamma):
    """Weight vector minimizing mean(values*v): gamma on the lowest ranks.

    Mirror of ``upper_mass_v`` through ``rank_mask``.
    """
    return _levels(rank_mask(values, gamma, False), (1.0 / gamma, gamma))
