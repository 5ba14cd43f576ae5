"""The shared fixed-point loop `report.iterate`: stop tests, lists, records and the polish."""

import dataclasses

import numpy as np
import pytest

from dyngames import certificate, lq, projgrad, report, splitting
from dyngames.benchmarks import FisheryParams, fishery_game, lq_rendezvous_game
from dyngames.certificate import ActiveSetPolish, active_set_polish, natural_residual
from dyngames.errors import NonFiniteStateError
from dyngames.model import Trajectory, all_player_costs, rollout
from dyngames.projgrad import ProjGradConfig
from dyngames.report import (
    TERM_DIVERGENCE,
    TERM_MAX_ITER,
    TERM_TOLERANCE,
    fit_log_decay,
    iterate,
    on_record_grid,
)
from dyngames.splitting import ANDERSON_MEMORY, ANDERSON_WARMUP, DrConfig

from instances import cross_scheme_lq_instance


def halving(w, count):
    """Contracting map; the candidate counts the iterations."""
    return w / 2, count + 1


class TestIterate:
    def test_accept_holds_the_run_until_it_agrees(self):
        # steps 2, 1, 0.5, 0.25, ...: only from iteration 3 on is a step <= 0.6
        asked, images = [], []

        def accept(count):
            asked.append(count)
            return count >= 5

        def step(w, count):
            images.append(w / 2)
            return images[-1], count + 1

        run = iterate(step, np.array([1.0, -4.0]), 0, max_iter=50, tol=0.6, accept=accept)
        assert run.termination == TERM_TOLERANCE
        assert run.candidate == 5
        assert asked == [3, 4, 5]
        assert run.step_norms == [2.0, 1.0, 0.5, 0.25, 0.125]
        assert len(images) == 5
        np.testing.assert_array_equal(images[-1], np.array([1.0, -4.0]) / 32)
        # the start, the grid images 1, 2 and the last two
        assert run.iterate_iterations == [0, 1, 2, 4, 5]
        assert all(w is images[t - 1] for w, t in zip(run.iterates[1:], [1, 2, 4, 5]))

    def test_expanding_map_diverges(self, monkeypatch):
        # |w0| = 1, so the bound is 10 * (1 + 1) = 20: w = 3, 9, 27 stops at 27
        monkeypatch.setattr(report, "DIVERGENCE_FACTOR", 10.0)
        run = iterate(lambda w, c: (3 * w, c + 1), np.array([1.0]), 0, max_iter=50,
                      tol=1e-8)
        assert run.termination == TERM_DIVERGENCE
        assert run.candidate == 3
        assert run.step_norms == [2.0, 6.0, 18.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_iterate_ends_the_run_as_divergence(self, bad, monkeypatch):
        # NaN fails every comparison, so a norm test alone never stops on it
        monkeypatch.setattr(report, "DIVERGENCE_FACTOR", np.inf)

        def step(w, count):
            return (w / 2 if count < 2 else np.full_like(w, bad)), count + 1

        run = iterate(step, np.array([1.0, 2.0]), 0, max_iter=50, tol=1e-12)
        assert run.termination == TERM_DIVERGENCE
        assert run.candidate == 3 and len(run.step_norms) == 3

    def test_a_non_finite_dr_run_stops_at_once_and_raises(self, rng, monkeypatch):
        game, _, _ = cross_scheme_lq_instance(rng)
        calls = []
        project = splitting.project_stage_constraints

        def poisoned(*args):
            calls.append(None)
            x, u = project(*args)
            return (x, u) if len(calls) < 3 else (x, np.full_like(u, np.nan))

        monkeypatch.setattr(splitting, "project_stage_constraints", poisoned)
        with pytest.raises(NonFiniteStateError):  # the result's rollout
            splitting.dr_solve(dataclasses.replace(game, quadratic_costs=False),
                               DrConfig(eta=0.4, max_iter=50, record_costs=False,
                                        run_checks=False))
        assert len(calls) == 3

    def test_no_budget_returns_the_start(self):
        w0, cand0 = np.array([1.0, 2.0]), object()
        run = iterate(halving, w0, cand0, max_iter=0, tol=1.0,
                      accept=lambda c: True, record=lambda c: c)
        assert run.termination == TERM_MAX_ITER
        assert run.candidate is cand0
        assert run.iterates == [w0] and run.iterate_iterations == [0]
        assert run.step_norms == [] and run.records == [] and run.record_iterations == []

    def test_record_runs_on_the_1_2_5_grid(self):
        calls = []

        def record(count):
            calls.append(count)
            return 10 * count

        grid = [0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]  # the start at t = 0 first
        run = iterate(lambda w, c: (w + 1.0, c + 1), np.zeros(3), 0, max_iter=1200,
                      tol=1e-8, record=record)
        assert run.termination == TERM_MAX_ITER
        assert calls == grid and run.record_iterations == grid
        assert run.records == [10 * t for t in grid]
        assert run.step_norms == [1.0] * 1200
        run = iterate(halving, np.array([1.0]), 0, max_iter=0, tol=1.0,
                      record=lambda c: pytest.fail("recorded"))
        assert run.records == [] and run.record_iterations == []
        run = iterate(halving, np.array([1.0]), 0, max_iter=3, tol=1e-12)
        assert run.records is None and run.record_iterations is None

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 7, 50, 51, 999, 1234])
    def test_a_run_keeps_the_start_the_grid_and_the_last_two_images(self, max_iter):
        images = []

        def step(w, count):
            images.append(w + 1.0)
            return images[-1], count + 1

        w0 = np.zeros(2)
        run = iterate(step, w0, 0, max_iter=max_iter, tol=1e-8)
        grid = [t for t in range(1, max_iter + 1) if on_record_grid(t)]
        kept = sorted({0, *grid, max(max_iter - 1, 0), max_iter})
        assert run.iterate_iterations == kept and len(kept) <= len(grid) + 3
        assert run.iterates[0] is w0
        assert all(w is images[t - 1] for w, t in zip(run.iterates[1:], kept[1:]))

    @pytest.mark.parametrize("max_iter, accept_from, recorded", [
        (100, None, [0, 1, 2, 5, 10, 20, 50]),  # ends on the budget at a grid point
        (50, 20, [0, 1, 2, 5, 10]),  # ends on the tolerance at a grid point
    ])
    def test_the_last_iteration_is_not_recorded(self, max_iter, accept_from, recorded):
        # steps 0.5, 0.25, ...: every one is <= tol, so accept decides the stop
        run = iterate(halving, np.array([1.0]), 0, max_iter=max_iter, tol=1.0, record=lambda c: c,
                      accept=lambda c: accept_from is not None and c >= accept_from)
        assert len(run.step_norms) == (accept_from or max_iter)
        assert run.records == run.record_iterations == recorded


def evaluated_points(g, w0, next_point, max_iter, tol):
    """An ``iterate`` run of the map g, every point the loop evaluated g at and its image."""
    points, images = [], []

    def step(w, count):
        points.append(w.copy())
        images.append(g(w))
        return images[-1], count + 1

    run = iterate(step, w0, 0, max_iter=max_iter, tol=tol, next_point=next_point)
    return run, points, images


def anderson(w0):
    """DR's extrapolation rule for a run from w0, bounded as ``iterate`` bounds it."""
    return splitting._Anderson(w0.size, 1e8 * (1.0 + float(np.linalg.norm(w0))))


class TestAnderson:
    def test_affine_contraction_converges_within_its_dimension(self, rng):
        n = 6  # fewer than the pairs the extrapolation keeps
        assert n < ANDERSON_MEMORY
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = Q @ np.diag(np.linspace(0.5, 0.99, n)) @ Q.T
        c = rng.standard_normal(n)
        fixed = np.linalg.solve(np.eye(n) - M, c)
        w0 = np.zeros(n)
        plain, _, _ = evaluated_points(lambda w: M @ w + c, w0, None, 5000, 1e-10)
        fast, _, _ = evaluated_points(lambda w: M @ w + c, w0, anderson(w0).next_point, 5000,
                                      1e-10)
        assert plain.termination == fast.termination == TERM_TOLERANCE
        assert len(plain.step_norms) > 500
        assert len(fast.step_norms) <= n + ANDERSON_WARMUP + 2
        np.testing.assert_allclose(fast.iterates[-1], fixed, atol=1e-8)

    def test_a_rejected_trial_gives_way_to_the_plain_image(self):
        # nonexpansive, but its slope halves at 1: extrapolating across the
        # kink overshoots
        def g(w):
            return np.where(w > 1.0, w - 0.5, 0.5 * w)

        w0 = np.array([5.0, 3.2, 7.1])
        run, points, images = evaluated_points(g, w0, anderson(w0).next_point, 100, 1e-12)
        assert run.termination == TERM_TOLERANCE
        kept, rejected = 0, 0  # the last point kept, and the trials dropped
        for i in range(1, len(points)):
            residual = np.linalg.norm(images[i] - points[i])
            if residual > np.linalg.norm(images[kept] - points[kept]):
                rejected += 1
                assert i + 1 < len(points)
                assert not np.array_equal(points[i], images[i - 1])  # an extrapolation
                np.testing.assert_array_equal(points[i + 1], images[kept])
            else:
                kept = i
        assert rejected >= 1

    def test_constant_residual_takes_plain_steps(self):
        # f = g(w) - w is exactly -1 everywhere, so every difference of f is
        # zero; the iterate may have any shape
        w0 = np.zeros((2, 3))
        run, points, _ = evaluated_points(lambda w: w - 1.0, w0, anderson(w0).next_point, 40,
                                          1e-8)
        assert run.termination == TERM_MAX_ITER
        for t, w in enumerate(points):
            np.testing.assert_array_equal(w, np.full((2, 3), -float(t)))


class TestNextPointHook:
    def test_a_reset_point_is_evaluated_next_and_clears_the_extrapolation(self, rng):
        # the shape of dr_solve's rule: a change of the map returns a new
        # point and resets the extrapolation, else the extrapolation decides
        n = 6
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = Q @ np.diag(np.linspace(0.5, 0.99, n)) @ Q.T
        rule, asked = anderson(np.zeros(n)), []

        def next_point(t, w, g):
            asked.append(t)
            if t == 8:
                rule.reset()
                return np.full(n, 100.0)
            return rule.next_point(t, w, g)

        run, points, images = evaluated_points(lambda w: M @ w + 1.0, np.zeros(n), next_point,
                                               12, 1e-12)
        assert asked == list(range(1, 13))
        np.testing.assert_array_equal(points[8], np.full(n, 100.0))
        # the differences kept before belong to the old map: the point after
        # the reset is its plain image, and the next extrapolates again
        np.testing.assert_array_equal(points[9], images[8])
        assert not np.array_equal(points[10], images[9])
        assert not run.plain

    def test_a_run_whose_hook_returns_the_image_stays_plain(self):
        run, points, images = evaluated_points(lambda w: 0.5 * w, np.array([1.0]),
                                               lambda t, w, g: g, 6, 1e-12)
        assert run.plain and all(np.array_equal(p, g) for p, g in zip(points[1:], images))
        moved, _, _ = evaluated_points(lambda w: 0.5 * w, np.array([1.0]),
                                       lambda t, w, g: g.copy() if t == 3 else g, 6, 1e-12)
        assert not moved.plain
        w0 = np.array([1.0, 4.0])
        accelerated, _, _ = evaluated_points(lambda w: 0.5 * w + 1.0, w0,
                                             anderson(w0).next_point, 20, 1e-12)
        assert not accelerated.plain


def test_rate_is_fitted_only_to_a_plain_run():
    pg = short_fishery_pg(30, False)
    assert np.isfinite(pg.fitted_rate)
    assert (pg.fitted_rate, pg.rate_fit_rmse) == fit_log_decay(pg.step_norms)
    dr = rendezvous_dr(30, False)
    assert np.isnan(dr.fitted_rate) and np.isnan(dr.rate_fit_rmse)


def test_distances_are_measured_at_the_kept_iterates():
    rep = short_fishery_pg(30, False)
    assert list(rep.distance_iterations) == [0, 1, 2, 5, 10, 20, 29, 30]
    # a plain PG run's iterate t is the result of the run cut off after t steps
    last = rep.trajectory.actions
    expected = [np.linalg.norm(short_fishery_pg(int(t), False).trajectory.actions - last)
                for t in rep.distance_iterations]
    np.testing.assert_array_equal(rep.distance_trace, expected)
    assert rep.distance_trace[-1] == 0.0


class TestPolishHook:
    def test_hook_runs_once_per_iteration(self):
        offered = []

        def polish(count):
            offered.append(count)

        run = iterate(halving, np.array([1.0]), 0, max_iter=6, tol=1e-12, polish=polish)
        assert run.termination == TERM_MAX_ITER and run.residual is None
        assert offered == [1, 2, 3, 4, 5, 6]

    def test_accepted_polish_ends_the_run_at_that_iteration(self):
        # the step test alone would stop at iteration 3 (step 0.5 <= 0.6)
        run = iterate(halving, np.array([1.0, -4.0]), 0, max_iter=50, tol=0.6,
                      accept=lambda c: pytest.fail("accept asked"),
                      polish=lambda count: ("polished", 1e-9) if count == 2 else None)
        assert run.termination == TERM_TOLERANCE
        assert (run.candidate, run.residual) == ("polished", 1e-9)
        assert run.step_norms == [2.0, 1.0]

    def test_unchanged_pinned_set_does_not_call_the_kernel(self, rng, monkeypatch):
        game, _, _ = cross_scheme_lq_instance(rng, con_stage=2)
        calls = []
        kernel = lq.solve_pinned

        def counted(*args):
            calls.append(args[-1].copy())
            return kernel(*args)

        monkeypatch.setattr(lq, "solve_pinned", counted)
        polish = active_set_polish(game, 1e-8)

        def with_row_value(target):
            """Zero actions, but the one row (stage 2) moved to ``target``."""
            cand = rollout(game, game.initial_state, np.zeros((game.horizon + 1, 2)))
            s = polish.rows.S[2, 0]
            cand.actions[2] += (target - polish.rows.values(cand)[2, 0]) * s / (s @ s)
            return cand

        for target in (-0.5, -0.4, -0.5):  # the row is slack: nothing is pinned
            polish(with_row_value(target))
        assert len(calls) == 1 and not calls[0].any()
        for target in (0.3, 0.0, -1e-4):  # the row is pinned
            polish(with_row_value(target))
        assert len(calls) == 2 and calls[1][2, 0] and calls[1].sum() == 1

    @pytest.mark.parametrize("case", ["fishery", "undeclared twin"])
    def test_out_of_scope_games_never_build_the_hook(self, rng, monkeypatch, case):
        hooks = []

        def spy(*args, **kwargs):
            hooks.append(kwargs.get("polish"))
            return iterate(*args, **kwargs)

        monkeypatch.setattr(splitting, "iterate", spy)
        monkeypatch.setattr(projgrad, "iterate", spy)
        game, _, _ = cross_scheme_lq_instance(rng)
        dr = DrConfig(eta=0.4, max_iter=2, record_costs=False, run_checks=False)
        splitting.dr_solve(game, dr)  # the declared LQ game gets the hook
        if case == "fishery":
            fish = fishery_game()
            projgrad.projected_gradient_solve(
                fish, np.zeros((fish.horizon + 1, 2)),
                ProjGradConfig(max_iter=2, record_costs=False, run_checks=False))
        else:
            splitting.dr_solve(dataclasses.replace(game, quadratic_costs=False), dr)
        assert isinstance(hooks[0], ActiveSetPolish)
        assert hooks[1:] == [None]

    def test_curved_rows_of_a_declared_lq_game_get_the_newton_polish(self, rng):
        game, _, _ = cross_scheme_lq_instance(rng)
        assert not active_set_polish(game, 1e-8).curved
        polish = active_set_polish(lq_rendezvous_game(), 1e-8)
        assert polish.curved and polish.rows is None


def test_report_carries_the_natural_residual(rng):
    game, _, _ = cross_scheme_lq_instance(rng)
    rep = splitting.dr_solve(game, DrConfig(eta=0.4, max_iter=50, record_costs=False,
                                            run_checks=False))
    assert rep.termination == TERM_TOLERANCE and rep.natural_residual <= 1e-8
    # the polish's certificate is the residual of the reported actions
    assert rep.natural_residual == natural_residual(game, rep.trajectory.actions)
    twin = splitting.dr_solve(dataclasses.replace(game, quadratic_costs=False),
                              DrConfig(eta=0.4, max_iter=5, record_costs=False,
                                       run_checks=False))
    assert twin.natural_residual == natural_residual(game, twin.trajectory.actions) > 1e-8
    assert rep.kkt_residual <= 1e-8 and np.isnan(twin.kkt_residual)
    rendezvous = splitting.dr_solve(lq_rendezvous_game(),
                                    DrConfig(max_iter=2, record_costs=False, run_checks=False))
    assert np.isnan(rendezvous.natural_residual) and rendezvous.kkt_residual <= 1e-8


def short_fishery_pg(max_iter, record_costs):
    game = fishery_game(FisheryParams(horizon_time=2.0))
    return projgrad.projected_gradient_solve(
        game, np.ones((game.horizon + 1, 2)),  # zero harvest is a fixed point
        ProjGradConfig(max_iter=max_iter, record_costs=record_costs, run_checks=False))


# The active-set polish certifies the rendezvous after one DR step at tol 1e-8,
# but its KKT residual stops near 1e-9; at this tol it cannot end a run, and
# DR runs on as it did before the polish reached curved rows.
UNPOLISHED_TOL = 1e-12


def rendezvous_dr(max_iter, record_costs):
    return splitting.dr_solve(lq_rendezvous_game(),
                              DrConfig(max_iter=max_iter, tol=UNPOLISHED_TOL,
                                       record_costs=record_costs, run_checks=False))


@pytest.mark.parametrize("solve", [short_fishery_pg, rendezvous_dr])
def test_cost_rows_are_the_final_costs_of_the_run_cut_off_there(solve):
    # neither run ends on a polish, whose final row would be the polished
    # point's, and both end on the budget
    rep = solve(90, True)
    assert rep.iterations == 90
    assert list(rep.cost_iterations) == [0, 1, 2, 5, 10, 20, 50, 90]
    assert rep.cost_trace.shape == (8, 2 if solve is short_fishery_pg else 3)
    for t, row in zip(rep.cost_iterations, rep.cost_trace):
        np.testing.assert_array_equal(row, solve(int(t), False).final_costs)
    empty = solve(0, True)
    assert list(empty.cost_iterations) == [0]
    np.testing.assert_array_equal(empty.cost_trace, [empty.final_costs])
    assert solve(5, False).cost_trace is None and solve(5, False).cost_iterations is None


def test_dr_cost_record_rolls_out_only_on_the_grid(monkeypatch):
    rollouts = []
    real = splitting.rollout

    def counted(*args):
        rollouts.append(args)
        return real(*args)

    monkeypatch.setattr(splitting, "rollout", counted)
    rep = rendezvous_dr(90, True)
    grid = [1, 2, 5, 10, 20, 50]
    assert rep.iterations == 90
    # the start is rolled out once, for the run and its t = 0 record; then one
    # rollout per later record and one for the report
    assert len(rollouts) <= 2 + len(grid)


@pytest.mark.parametrize("scheme", splitting.SCHEMES)
def test_a_certified_point_is_rolled_out_once(scheme, monkeypatch, rng):
    rollouts = []
    real = splitting.rollout

    def counted(*args):
        rollouts.append(args)
        return real(*args)

    for module in (splitting, certificate):
        monkeypatch.setattr(module, "rollout", counted)
    game, _, _ = cross_scheme_lq_instance(rng)
    rep = splitting.dr_solve(game, DrConfig(scheme=scheme, eta=0.4, max_iter=50))
    assert rep.termination == TERM_TOLERANCE and rep.natural_residual <= 1e-8
    # the start's and the polish's: the certificate and the report read the polish's
    assert len(rollouts) == 2
    np.testing.assert_array_equal(rollouts[-1][2], rep.trajectory.actions)


def one_trajectory_case(case, rng):
    """(game, tol, report) of one of the solves a report must describe as one trajectory."""
    if case == "fishery_pg":
        game = fishery_game(FisheryParams(horizon_time=2.0))  # short_fishery_pg's game
        return game, ProjGradConfig().tol, short_fishery_pg(50, True)
    if case == "rendezvous_30":
        return lq_rendezvous_game(), UNPOLISHED_TOL, rendezvous_dr(30, True)
    if case == "rendezvous_budget":  # ends on the polish
        return lq_rendezvous_game(), DrConfig().tol, splitting.dr_solve(lq_rendezvous_game(),
                                                                         DrConfig())
    game, _, _ = cross_scheme_lq_instance(rng)
    scheme = splitting.SCHEME_CONSTRAINTS if case == "newton" else case
    if case == "newton":  # the Newton resolvent, without the polish
        game = dataclasses.replace(game, quadratic_costs=False)
    cfg = DrConfig(scheme=scheme, eta=0.4, max_iter=200)
    return game, cfg.tol, splitting.dr_solve(game, cfg)


@pytest.mark.parametrize("case, termination", [
    ("fishery_pg", TERM_MAX_ITER), ("rendezvous_30", TERM_MAX_ITER),
    ("rendezvous_budget", TERM_TOLERANCE),
    *((scheme, TERM_TOLERANCE) for scheme in splitting.SCHEMES), ("newton", TERM_TOLERANCE)])
def test_the_report_describes_the_rollout_of_its_actions(case, termination, rng):
    game, tol, rep = one_trajectory_case(case, rng)
    assert rep.termination == termination
    traj = rep.trajectory
    np.testing.assert_array_equal(rollout(game, game.initial_state, traj.actions).states,
                                  traj.states)
    np.testing.assert_array_equal(all_player_costs(game, traj), rep.final_costs)
    assert rep.constraint_residual == traj.constraint_violation(game)
    if rep.termination == TERM_TOLERANCE:
        assert rep.constraint_residual <= tol
