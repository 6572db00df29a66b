"""The nuisance protocol of ``CrossFit``, checked bit for bit against the
per-method evaluators and per-class design builders it replaced.

``additive_parts`` is checked against the pair-kernel rows it replaces in
the linear case. The references below are the earlier ``_poly_design``, the
kernel outcome fit, both propensity models, the bundle's clipped-outcome
regression, the ``CrossFit`` evaluators (one method body per regression and
shape) and the bundle loop that ``gamma.conditional_outcome_bounds`` ran at
probe points. At gamma = 1 they take the null-knob rule: s = y and kappa-hat
is mu-hat.
The reference fits run with ``nuisance._poly_design`` swapped for the
earlier builder, so every design they use comes from the old code.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds import nuisance
from msmbounds.data import Dataset, split_folds
from msmbounds.datagen import DgpSpec, generate
from msmbounds.gamma import GammaSpec, conditional_outcome_bounds
from msmbounds.nuisance import CrossFit, NuisanceConfig, SelfFit, clipped_pseudo_outcome

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
SIDES = ("lower", "upper")


def _reference_poly_design(a, x, degree):
    a = np.asarray(a, dtype=float).ravel()
    cols = [np.ones_like(a)]
    for p in range(1, degree + 1):
        cols.append(a ** p)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    for j in range(x.shape[1]):
        cols.append(x[:, j])
    return np.column_stack(cols)


class _ReferenceKernelOutcomeFit:
    def __init__(self, a, x, y, bandwidth_scale=1.0):
        a = np.asarray(a, dtype=float).ravel()
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        self.train = np.column_stack([a, x]) if x.shape[1] else a[:, None]
        self.y = np.asarray(y, dtype=float).ravel()
        n = self.train.shape[0]
        sd = self.train.std(axis=0)
        sd = np.where(sd < 1e-12, 1.0, sd)
        self.bandwidth = 1.06 * sd * n ** (-0.2) * float(bandwidth_scale)

    def __call__(self, a, x):
        a = np.asarray(a, dtype=float).ravel()
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        probe = np.column_stack([a, x]) if x.shape[1] else a[:, None]
        out = np.empty(probe.shape[0])
        for start in range(0, probe.shape[0], 512):
            block = probe[start:start + 512]
            z = (block[:, None, :] - self.train[None, :, :]) / self.bandwidth
            logk = -0.5 * np.sum(z * z, axis=2)
            logk -= logk.max(axis=1, keepdims=True)
            k = np.exp(logk)
            out[start:start + block.shape[0]] = (k @ self.y) / k.sum(axis=1)
        return out


class _ReferenceGaussianPropensity(nuisance.GaussianPropensity):
    def __init__(self, a, x, clip=nuisance.PROPENSITY_CLIP):
        a = np.asarray(a, dtype=float).ravel()
        design = _reference_poly_design(np.zeros_like(a), x, 1)
        design = np.delete(design, 1, axis=1)
        self.coef = nuisance._lstsq(design, a)
        resid = a - design @ self.coef
        self.sigma2 = float(np.mean(resid ** 2))
        self.marg_mean = float(a.mean())
        self.marg_var = float(a.var())
        self.clip = float(clip)

    def _mean(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        n = x.shape[0]
        design = np.column_stack([np.ones(n), x]) if x.shape[1] else np.ones((n, 1))
        return design @ self.coef

    def conditional_density(self, a, x):
        a = np.asarray(a, dtype=float).ravel()
        dens = np.exp(-0.5 * (a - self._mean(x)) ** 2 / self.sigma2)
        dens /= math.sqrt(2.0 * math.pi * self.sigma2)
        return np.maximum(dens, self.clip)


class _ReferenceDiscretePropensity(nuisance.DiscretePropensity):
    def __init__(self, a, x, clip=nuisance.PROPENSITY_CLIP):
        a = np.asarray(a, dtype=float).ravel()
        self.levels = np.unique(a)
        labels = np.searchsorted(self.levels, a)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        n = a.size
        self.marg = np.bincount(labels, minlength=self.levels.size) / n
        if x.shape[1] == 0:
            self.theta = None
        else:
            z = np.column_stack([np.ones(n), x])
            self.theta = nuisance._fit_multinomial_logistic(z, labels, self.levels.size)
        self.clip = float(clip)

    def conditional_density(self, a, x):
        lab = self._label_of(a)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if self.theta is None:
            probs = np.tile(self.marg, (lab.size, 1))
        else:
            z = np.column_stack([np.ones(x.shape[0]), x])
            probs = nuisance._logistic_probs(z, self.theta)
        return np.maximum(probs[np.arange(lab.size), lab], self.clip)


def _reference_outcome_fit(a, x, y, config):
    if config.outcome_method == "linear":
        fit = nuisance.LinearOutcomeFit(nuisance._Rows(a, x), y, degree=config.outcome_degree)
        return lambda a, x: fit(nuisance._Rows(a, x))
    return _ReferenceKernelOutcomeFit(a, x, y, bandwidth_scale=config.bandwidth_scale)


class _ReferenceBundle:
    def __init__(self, data, train_idx, config):
        self.config = config
        sub = data.take(np.asarray(train_idx))
        self._train_data = sub
        self.outcome = _reference_outcome_fit(sub.a, sub.x, sub.y, config)
        propensity = (_ReferenceGaussianPropensity if config.propensity_method == "gaussian"
                      else _ReferenceDiscretePropensity)
        self.propensity = propensity(sub.a, sub.x, clip=config.propensity_clip)
        self.quantile = nuisance.fit_quantile(sub, config)
        self._kappa = {}

    def weight(self, a, x):
        cond = self.propensity.conditional_density(a, x)
        if self.config.weight_flavor == "stabilized":
            return self.propensity.marginal_density(a) / cond
        return 1.0 / cond

    def quantile_pair(self, gamma, a, x):
        q = self.quantile.evaluate_many([1.0 / (1.0 + gamma), gamma / (1.0 + gamma)],
                                        nuisance._Rows(a, x))
        return q[:, 0], q[:, 1]

    def kappa_fit(self, gamma, side):
        key = (round(float(gamma), 12), side)
        if key[0] == 1.0:
            # the null knob: s = y, so kappa-hat is mu-hat
            return self.outcome
        if key not in self._kappa:
            sub = self._train_data
            q_low, q_high = self.quantile_pair(gamma, sub.a, sub.x)
            s = clipped_pseudo_outcome(sub.y, q_low, q_high, gamma, side)
            self._kappa[key] = _reference_outcome_fit(sub.a, sub.x, s, self.config)
        return self._kappa[key]


class _ReferenceCrossFit:
    """The earlier evaluators, on reference bundles trained on the folds of
    ``split_folds(n, config.folds, seed)``, or in-sample on every unit with
    ``seed`` None. Its unit indices are its own, not those ``cf`` holds."""

    def __init__(self, cf, seed):
        self.data = cf.data
        n = cf.data.n
        if seed is None:
            self.fold_of_unit = np.zeros(n, dtype=int)
        else:
            self.fold_of_unit = split_folds(n, cf.config.folds, seed).fold_of_unit
        folds = range(self.fold_of_unit.max() + 1)
        self._scored = [np.flatnonzero(self.fold_of_unit == f) for f in folds]
        train = ([np.arange(n)] if seed is None
                 else [np.flatnonzero(self.fold_of_unit != f) for f in folds])
        self.bundles = [_ReferenceBundle(cf.data, idx, cf.config) for idx in train]

    def bundle_for(self, i):
        return self.bundles[self.fold_of_unit[i]]

    def _per_unit(self, fn):
        if len(self.bundles) == 1:
            return fn(self.bundles[0], self._scored[0])
        out = np.empty(self.data.n)
        for bundle, units in zip(self.bundles, self._scored):
            out[units] = fn(bundle, units)
        return out

    @property
    def weights(self):
        return self._per_unit(lambda b, m: b.weight(self.data.a[m], self.data.x[m]))

    @property
    def mu_units(self):
        return self._per_unit(lambda b, m: b.outcome(self.data.a[m], self.data.x[m]))

    def mu_row(self, i):
        return self.bundle_for(i).outcome(np.full(self.data.n, self.data.a[i]), self.data.x)

    def mu_at_units(self, a0):
        return self._per_unit(
            lambda b, m: b.outcome(np.full(m.size, float(a0)), self.data.x[m]))

    def quantile_units(self, gamma):
        pairs = {b: b.quantile_pair(gamma, self.data.a[m], self.data.x[m])
                 for b, m in zip(self.bundles, self._scored)}
        return tuple(self._per_unit(lambda b, m, k=k: pairs[b][k]) for k in (0, 1))

    def s_units(self, gamma, side):
        if gamma == 1.0:
            return self.data.y
        q_low, q_high = self.quantile_units(gamma)
        return clipped_pseudo_outcome(self.data.y, q_low, q_high, gamma, side)

    def kappa_units(self, gamma, side):
        return self._per_unit(
            lambda b, m: b.kappa_fit(gamma, side)(self.data.a[m], self.data.x[m]))

    def kappa_row(self, gamma, side, i):
        fit = self.bundle_for(i).kappa_fit(gamma, side)
        return fit(np.full(self.data.n, self.data.a[i]), self.data.x)

    def kappa_at_units(self, gamma, side, a0):
        return self._per_unit(lambda b, m: b.kappa_fit(gamma, side)(
            np.full(m.size, float(a0)), self.data.x[m]))

    def kappa_at(self, gamma, side, probe_a, probe_x):
        # the bundle loop of gamma.conditional_outcome_bounds at probe points
        probe_a = np.asarray(probe_a, dtype=float).ravel()
        probe_x = np.asarray(probe_x, dtype=float)
        if probe_x.ndim == 1 and self.data.x.shape[1] == 1:
            probe_x = probe_x[:, None]
        return np.mean([b.kappa_fit(gamma, side)(probe_a, probe_x) for b in self.bundles], axis=0)


def _protocol(nuis, gammas, rows, a0, probes):
    """Every protocol member's value, keyed by the call that gave it."""
    out = {"weights": nuis.weights, "mu_units": nuis.mu_units, "mu_at_units": nuis.mu_at_units(a0)}
    for i in rows:
        out[f"mu_row {i}"] = nuis.mu_row(i)
    for gamma in gammas:
        out[f"quantile_units {gamma}"] = np.stack(nuis.quantile_units(gamma))
        for side in SIDES:
            key = f"{gamma} {side}"
            out[f"s_units {key}"] = nuis.s_units(gamma, side)
            out[f"kappa_units {key}"] = nuis.kappa_units(gamma, side)
            out[f"kappa_at_units {key}"] = nuis.kappa_at_units(gamma, side, a0)
            for i in rows:
                out[f"kappa_row {key} {i}"] = nuis.kappa_row(gamma, side, i)
            for p, (probe_a, probe_x) in enumerate(probes):
                out[f"kappa_at {key} {p}"] = nuis.kappa_at(gamma, side, probe_a, probe_x)
    return out


@st.composite
def _cases(draw):
    propensity = draw(st.sampled_from(["gaussian", "discrete"]))
    names = ["discrete-cells"] if propensity == "discrete" else [
        "gauss-line", "confounded-line", "hidden-dose", "discrete-cells"]
    data = generate(DgpSpec(draw(st.sampled_from(names)), seed=draw(st.integers(0, 3))),
                    n=draw(st.integers(30, 60)))
    covariates = draw(st.sampled_from(["as drawn", "none", "two"]))
    if covariates == "none":
        data = Dataset(None, data.a, data.y)
    elif covariates == "two":
        data = Dataset(np.column_stack([data.x, np.sin(np.arange(data.n))]), data.a, data.y)
    config = NuisanceConfig(
        outcome_method=draw(st.sampled_from(["linear", "kernel"])),
        outcome_degree=draw(st.integers(1, 2)),
        propensity_method=propensity,
        quantile_method=draw(st.sampled_from(["pinball", "empirical"])),
        weight_flavor=draw(st.sampled_from(["stabilized", "unstabilized"])),
        folds=draw(st.sampled_from([2, 3])),
    )
    in_sample = draw(st.booleans())
    gammas = draw(st.lists(st.sampled_from([1.0, 1.25, 2.0, 3.5]), min_size=1, max_size=3,
                           unique=True))
    return data, config, in_sample, gammas


@PROPERTY
@given(_cases())
def test_protocol_matches_the_per_method_evaluators(case):
    data, config, in_sample, gammas = case
    seed = None if in_sample else 3
    cf = SelfFit(data, config) if in_sample else CrossFit(data, config, seed=seed)
    rows = (0, data.n // 2, data.n - 1)
    a0 = float(data.a[1])
    probes = [(data.a[:5], data.x[:5])]
    if data.x.shape[1] == 1:
        probes.append((data.a[-4:].tolist(), data.x[-4:, 0]))
    with mock.patch.object(nuisance, "_poly_design", _reference_poly_design):
        want = _protocol(_ReferenceCrossFit(cf, seed), gammas, rows, a0, probes)
    got = _protocol(cf, gammas, rows, a0, probes)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key
    # the additive split of each regression reproduces its pair-kernel rows
    for gamma, side in [(None, None), *((g, s) for g in gammas for s in SIDES)]:
        parts = cf.additive_parts(gamma, side)
        if config.outcome_method == "kernel":
            assert parts is None
            continue
        assert cf.additive_parts(gamma, side) is parts
        g, c = parts
        for i in rows:
            name = "mu_row" if gamma is None else f"kappa_row {gamma} {side}"
            np.testing.assert_allclose(g[i] + data.x @ c[i], want[f"{name} {i}"],
                                       rtol=1e-12, atol=0, err_msg=f"{name} {i}")


@PROPERTY
@given(
    n=st.integers(1, 12),
    columns=st.sampled_from([None, 0, 1, 3]),
    degree=st.integers(0, 3),
    seed=st.integers(0, 5),
)
def test_poly_design_matches_the_reference(n, columns, degree, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    x = rng.standard_normal(n) if columns is None else rng.standard_normal((n, columns))
    got = nuisance._poly_design(a, x, degree)
    want = _reference_poly_design(a, x, degree)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_conditional_outcome_bounds_at_probe_points_use_kappa_at():
    data = generate(DgpSpec("confounded-line", seed=1), n=50)
    cf = CrossFit(data, NuisanceConfig(folds=3), seed=0)
    low, high = conditional_outcome_bounds(data, GammaSpec(2.0), cf, data.a[:6], data.x[:6, 0])
    with mock.patch.object(nuisance, "_poly_design", _reference_poly_design):
        ref = _ReferenceCrossFit(cf, 0)
        want = [ref.kappa_at(2.0, side, data.a[:6], data.x[:6, 0]) for side in SIDES]
    assert np.array_equal(low, np.minimum(*want)) and np.array_equal(high, np.maximum(*want))
