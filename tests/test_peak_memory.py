"""Peak memory of the in-sample rank-rule path, traced with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc``, so a traced peak counts
every n-length array alive at once. Each bound is a multiple of n * 8 bytes,
one float64 per unit.

- The exact homotopy's swap search keeps one weight vector and one mask,
  however many swaps it accepts. On ``confounded-line`` n = 12,000 seed 0
  (grid 1 to 3 by 0.2, 5 inner iterations) one swap phase accepts 125
  swaps; a search that copied its state at every swap peaked at about 146
  vectors here, and this one at 23.
- An in-sample ``marginal_quantile_grid_bounds`` run at n = 100,000, its
  ``SelfFit`` included, holds no index array and copies no column: it peaks
  at 5 vectors, the moment matrix's h and h w among them. With three
  n-length index arrays and a copy of (a, x) it peaked at 8.
"""

import tracemalloc

import numpy as np

from msmbounds import homotopy
from msmbounds.datagen import DgpSpec, generate
from msmbounds.gamma import marginal_quantile_grid_bounds
from msmbounds.homotopy import homotopy_bounds
from msmbounds.msm import linear_msm
from msmbounds.nuisance import SelfFit


def _traced_peak(run):
    """The largest traced allocation while ``run()`` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_swap_search_memory_does_not_grow_with_its_swaps(monkeypatch):
    data = generate(DgpSpec("confounded-line", seed=0), 12000)
    w = SelfFit(data).weights
    grid = np.round(np.arange(1.0, 3.0 + 1e-9, 0.2), 10)
    batches = []
    solve = homotopy._solve_candidates
    monkeypatch.setattr(homotopy, "_solve_candidates",
                        lambda *args: batches.append(1) or solve(*args))
    peak = _traced_peak(lambda: homotopy_bounds(
        data, linear_msm(), weights=w, grid=grid, coord=1, inner_iterations=5))
    # one candidate batch per swap search iteration: the searches accept many swaps
    assert len(batches) >= 150
    assert peak <= 40 * 8 * data.n


def test_in_sample_marginal_quantile_run_holds_no_copies():
    data = generate(DgpSpec("confounded-line", seed=0), 100_000)
    grid = np.round(np.arange(1.0, 3.0 + 1e-9, 0.1), 10)
    peak = _traced_peak(lambda: marginal_quantile_grid_bounds(
        data, linear_msm(), SelfFit(data), grid, 1))
    assert peak <= 6 * 8 * data.n
