"""Empirical quantile and rank-selection conventions.

Single home for the deterministic conventions used everywhere: ties
broken toward the lower index, and the strict-above / inclusive-below
split that makes rank-based weight assignments hit the LP vertex exactly
when n*tau is integral. ``rank_mask`` is the one marginal rank rule behind
every propensity coordinate bound.
"""

import math

import numpy as np


def _ascending_order(values):
    values = np.asarray(values, dtype=float)
    return np.lexsort((np.arange(values.size), values))


def select_top_mask(values, count):
    """Boolean mask of the ``count`` largest values (ties toward the lower index stay out)."""
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    count = int(count)
    if not 0 <= count <= n:
        raise ValueError("count out of range")
    mask = np.zeros(n, dtype=bool)
    if count:
        order = _ascending_order(values)
        mask[order[n - count:]] = True
    return mask


def select_bottom_mask(values, count):
    """Boolean mask of the ``count`` smallest values (ties toward the lower index get in)."""
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    count = int(count)
    if not 0 <= count <= n:
        raise ValueError("count out of range")
    mask = np.zeros(n, dtype=bool)
    if count:
        order = _ascending_order(values)
        mask[order[:count]] = True
    return mask


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
    quantile bounds, the homotopy's threshold steps and the per-cell
    conditional rule all place their weights through this one mask.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    values = np.asarray(values, dtype=float).ravel()
    count = gamma_count(values.size, gamma)
    return select_top_mask(values, count) if upper else select_bottom_mask(values, count)


def upper_mass_v(values, gamma):
    """Weight vector maximizing mean(values*v) under the box and one-atom mean slack.

    gamma goes to ranks strictly above ceil(n*tau_u) in ascending order
    (tau_u = gamma/(1+gamma)); 1/gamma elsewhere. mean(v) = 1 exactly when
    n*tau_u is integral, otherwise short by at most one atom.
    """
    return np.where(rank_mask(values, gamma, True), gamma, 1.0 / gamma)


def lower_mass_v(values, gamma):
    """Weight vector minimizing mean(values*v): gamma on the lowest ranks.

    Mirror of ``upper_mass_v`` through ``rank_mask``.
    """
    return np.where(rank_mask(values, gamma, False), gamma, 1.0 / gamma)
