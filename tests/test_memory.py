"""Memory of the paper fishery's PG solve and noise comparison, traced by tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a run
is deterministic and counts every array it holds at once.  A T = 1000 solve
that kept all 1001 of its iterates would hold 16 MB of them, and a noise
comparison that kept its runs' states and actions about 10 MB.
"""

import tracemalloc

import numpy as np
import pytest

from dyngames.benchmarks import FisheryParams, fishery_game, noise_comparison
from dyngames.feedback import stagewise_newton_backward
from dyngames.projgrad import ProjGradConfig, projected_gradient_solve


def traced_peak_mb(fn):
    """fn() and the peak memory traced while it ran, in MB above that at its start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak / 1e6


@pytest.fixture(scope="module")
def fishery_pg():
    """The benchmark's T = 1000 fishery PG solve and the peak memory it traced."""
    params = FisheryParams()
    game = fishery_game(params)
    u0 = np.zeros((game.horizon + 1, 2))
    projected_gradient_solve(game, u0, ProjGradConfig(max_iter=2))  # first-call set-up
    cfg = ProjGradConfig(step_size=0.01, max_iter=1000, tol=1e-8)
    report, peak = traced_peak_mb(lambda: projected_gradient_solve(game, u0, cfg))
    return params, game, report, peak


def test_a_long_solve_keeps_its_sampled_iterates_only(fishery_pg):
    _, _, report, peak = fishery_pg
    assert peak < 2.0, f"{peak:.2f} MB traced"
    assert report.iterations == 1000
    assert list(report.distance_iterations) == [0, 1, 2, 5, 10, 20, 50, 100, 200, 500,
                                                999, 1000]


def test_the_noise_comparison_keeps_only_what_it_reports(fishery_pg):
    params, game, report, _ = fishery_pg
    policy = stagewise_newton_backward(game, report.trajectory,
                                       stage_reg=0.1).equilibrium_form()
    cmp, peak = traced_peak_mb(lambda: noise_comparison(
        game, report.trajectory, policy, noise_var=2.0, n_runs=100, seed=1,
        noise_scale=params.dt))
    assert cmp.feedback_deviation.shape == (100,)
    # the noise (0.8 MB) and the per-stage squared distances of 200 runs (1.6 MB)
    assert peak < 4.0, f"{peak:.2f} MB traced"
