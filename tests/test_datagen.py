"""Generator registry: determinism, shapes, and documented structure."""

import numpy as np
import pytest

from msmbounds import datagen
from msmbounds.data import Dataset, PanelDataset
from msmbounds.datagen import MAX_N, MAX_ROWS, DgpSpec, generate, registry
from msmbounds.errors import ConfigError, UnknownDgp


def test_registry_names():
    assert registry() == ["confounded-line", "discrete-cells", "gauss-line",
                          "hidden-dose", "panel-mix"]


def test_unknown_name_raises():
    with pytest.raises(UnknownDgp):
        generate(DgpSpec(name="nope"))


def test_deterministic_in_seed():
    a = generate(DgpSpec("gauss-line", seed=3), 50)
    b = generate(DgpSpec("gauss-line", seed=3), 50)
    c = generate(DgpSpec("gauss-line", seed=4), 50)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_default_sizes():
    assert generate(DgpSpec("gauss-line")).n == 100
    assert generate(DgpSpec("confounded-line")).n == 1000
    assert generate(DgpSpec("discrete-cells")).n == 400
    p = generate(DgpSpec("panel-mix"))
    assert isinstance(p, PanelDataset) and p.n == 500 and p.T == 2


def test_gauss_line_structure():
    d = generate(DgpSpec("gauss-line", seed=0), 5000)
    assert isinstance(d, Dataset) and d.d == 0
    # slope 3 recoverable by OLS on this unconfounded design
    slope = np.polyfit(d.a, d.y, 1)[0]
    assert slope == pytest.approx(3.0, abs=0.1)


def test_gauss_line_slope_param():
    d = generate(DgpSpec("gauss-line", params={"slope": -1.0}, seed=0), 5000)
    slope = np.polyfit(d.a, d.y, 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_hidden_dose_support():
    d = generate(DgpSpec("hidden-dose", seed=2), 2000)
    assert d.a.min() > 2.0 and d.a.max() < 2.5


def test_discrete_cells_supports():
    d = generate(DgpSpec("discrete-cells", seed=1), 500)
    assert set(np.unique(d.x)) <= {0.0, 1.0}
    assert set(np.unique(d.a)) <= {0.0, 1.0, 2.0}


def test_panel_mix_custom_horizon():
    p = generate(DgpSpec("panel-mix", params={"T": 3}, seed=0), 40)
    assert p.T == 3 and p.x.shape == (40, 3, 1)


@pytest.mark.parametrize("name,params,message", [
    ("gauss-line", {"bogus": 1}, "dgp 'gauss-line' takes no param 'bogus'; its params are n, slope"),
    ("confounded-line", {"slope": 2.0, "T": 3},
     "dgp 'confounded-line' takes no param 'T', 'slope'; its params are n"),
    ("gauss-line", {"slope": "x"}, "param 'slope' must be a finite number, got 'x'"),
    ("gauss-line", {"slope": [1, 2]}, "param 'slope' must be a finite number, got [1, 2]"),
    ("gauss-line", {"slope": True}, "param 'slope' must be a finite number, got True"),
    ("gauss-line", {"slope": float("nan")}, "param 'slope' must be a finite number, got nan"),
    ("gauss-line", {"slope": 10**400}, "param 'slope' must be a finite number"),
    ("gauss-line", {"n": "a"}, "param 'n' must be an integer >= 2, got 'a'"),
    ("hidden-dose", {"n": 1}, "param 'n' must be an integer >= 2, got 1"),
    ("panel-mix", {"T": "x"}, "param 'T' must be an integer >= 1, got 'x'"),
    ("panel-mix", {"T": -1}, "param 'T' must be an integer >= 1, got -1"),
    ("panel-mix", {"T": 0}, "param 'T' must be an integer >= 1, got 0"),
    ("panel-mix", {"T": 1.5}, "param 'T' must be an integer >= 1, got 1.5"),
    ("panel-mix", {"effect": "x"}, "param 'effect' must be a finite number, got 'x'"),
])
def test_generate_rejects_unknown_params_and_bad_values(name, params, message):
    with pytest.raises(ConfigError) as info:
        generate(DgpSpec(name, params=params))
    assert str(info.value).startswith(f"dgp {name!r} ") and message in str(info.value)


def test_generate_checks_its_n_argument_like_the_n_param():
    with pytest.raises(ConfigError, match="param 'n' must be an integer >= 2, got 1"):
        generate(DgpSpec("gauss-line"), 1)
    # the argument overrides the param, and a numpy integer is an integer
    assert generate(DgpSpec("gauss-line", params={"n": 7}), np.int64(5)).n == 5


@pytest.mark.parametrize("name", registry())
def test_generate_rejects_an_n_above_its_maximum_before_drawing(name):
    # 10**12 units would ask numpy for terabytes; the check comes first
    for n in (MAX_N + 1, 10**12):
        message = f"param 'n' must be at most {MAX_N}, got {n}"
        with pytest.raises(ConfigError, match=message):
            generate(DgpSpec(name, params={"n": n}))
        with pytest.raises(ConfigError, match=message):
            generate(DgpSpec(name), n)
    declared = datagen._REGISTRY[name][1]["n"]
    assert datagen._param(name, "n", declared, float(MAX_N)) == MAX_N


@pytest.mark.parametrize("n, T", [(100, 10**12), (6666667, 3)])
def test_generate_rejects_panel_rows_above_their_maximum_before_drawing(n, T):
    # 10**12 periods would ask numpy for 728 TiB; n * T = MAX_ROWS + 1 is the first refused
    assert n * T > MAX_ROWS
    message = f"rows n \\* T must be at most {MAX_ROWS}, got {n * T}"
    with pytest.raises(ConfigError, match=message):
        generate(DgpSpec("panel-mix", params={"n": n, "T": T}))
    with pytest.raises(ConfigError, match=message):
        generate(DgpSpec("panel-mix", params={"T": T}), n)


@pytest.mark.parametrize("n, T", [(MAX_N, 2), (6666666, 3), (2, MAX_ROWS // 2)])
def test_panel_row_maximum_admits_every_count_up_to_it(monkeypatch, n, T):
    # MAX_N units at the default T = 2 still run; the stub draws nothing
    drawn = {}
    declared = datagen._REGISTRY["panel-mix"][1]
    monkeypatch.setitem(datagen._REGISTRY, "panel-mix",
                        (lambda rng, **params: drawn.update(params), declared))
    generate(DgpSpec("panel-mix", params={"T": T}), n)
    assert drawn["n"] * drawn["T"] == n * T <= MAX_ROWS


def test_integral_float_and_int_params_give_the_same_data():
    # T = 3.0 is the integer 3 and slope = 2 the number 2.0, as the config schema counts them
    p3, p3f = (generate(DgpSpec("panel-mix", params={"T": t, "n": n}, seed=1))
               for t, n in ((3, 40), (3.0, 40.0)))
    assert p3f.T == 3 and p3.y.tobytes() == p3f.y.tobytes()
    d2, d2f = (generate(DgpSpec("gauss-line", params={"slope": s}, seed=1), 30) for s in (2, 2.0))
    assert d2.y.tobytes() == d2f.y.tobytes()


def test_panel_mix_runs_at_one_period():
    p = generate(DgpSpec("panel-mix", params={"T": 1}, seed=0), 20)
    assert p.T == 1 and p.x.shape == (20, 1, 1)
