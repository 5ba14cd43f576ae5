"""The shared fixed-point loop `report.iterate`: stop tests, lists, records and the polish."""

import dataclasses

import numpy as np
import pytest

from dyngames import lq, projgrad, splitting
from dyngames.benchmarks import FisheryParams, fishery_game, lq_rendezvous_game
from dyngames.certificate import ActiveSetPolish, active_set_polish, natural_residual
from dyngames.errors import NonFiniteStateError
from dyngames.model import Trajectory, rollout
from dyngames.projgrad import ProjGradConfig
from dyngames.report import TERM_DIVERGENCE, TERM_MAX_ITER, TERM_TOLERANCE, iterate
from dyngames.splitting import DrConfig

from instances import cross_scheme_lq_instance


def halving(w, count):
    """Contracting map; the candidate counts the iterations."""
    return w / 2, count + 1


class TestIterate:
    def test_accept_holds_the_run_until_it_agrees(self):
        # steps 2, 1, 0.5, 0.25, ...: only from iteration 3 on is a step <= 0.6
        asked = []

        def accept(count):
            asked.append(count)
            return count >= 5

        run = iterate(halving, np.array([1.0, -4.0]), 0, max_iter=50, tol=0.6,
                      divergence_factor=1e8, accept=accept)
        assert run.termination == TERM_TOLERANCE
        assert run.candidate == 5
        assert asked == [3, 4, 5]
        assert run.step_norms == [2.0, 1.0, 0.5, 0.25, 0.125]
        assert len(run.iterates) == 6
        np.testing.assert_array_equal(run.iterates[-1], np.array([1.0, -4.0]) / 32)

    def test_expanding_map_diverges(self):
        # |w0| = 1, so the bound is 10 * (1 + 1) = 20: w = 3, 9, 27 stops at 27
        run = iterate(lambda w, c: (3 * w, c + 1), np.array([1.0]), 0, max_iter=50,
                      tol=1e-8, divergence_factor=10.0)
        assert run.termination == TERM_DIVERGENCE
        assert run.candidate == 3
        assert run.step_norms == [2.0, 6.0, 18.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_iterate_ends_the_run_as_divergence(self, bad):
        # NaN fails every comparison, so a norm test alone never stops on it
        def step(w, count):
            return (w / 2 if count < 2 else np.full_like(w, bad)), count + 1

        run = iterate(step, np.array([1.0, 2.0]), 0, max_iter=50, tol=1e-12,
                      divergence_factor=np.inf)
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
        run = iterate(halving, w0, cand0, max_iter=0, tol=1.0, divergence_factor=1e8,
                      accept=lambda c: True, record=lambda c: c)
        assert run.termination == TERM_MAX_ITER
        assert run.candidate is cand0
        assert run.iterates == [w0]
        assert run.step_norms == [] and run.records == [] and run.record_iterations == []

    def test_record_runs_on_the_1_2_5_grid(self):
        calls = []

        def record(count):
            calls.append(count)
            return 10 * count

        grid = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
        run = iterate(lambda w, c: (w + 1.0, c + 1), np.zeros(3), 0, max_iter=1200,
                      tol=1e-8, divergence_factor=1e8, record=record)
        assert run.termination == TERM_MAX_ITER
        assert calls == grid and run.record_iterations == grid
        assert run.records == [10 * t for t in grid]
        assert run.step_norms == [1.0] * 1200
        run = iterate(halving, np.array([1.0]), 0, max_iter=0, tol=1.0, divergence_factor=1e8,
                      record=lambda c: pytest.fail("recorded"))
        assert run.records == [] and run.record_iterations == []

    @pytest.mark.parametrize("max_iter, accept_from, recorded", [
        (100, None, [1, 2, 5, 10, 20, 50]),  # ends on the budget at a grid point
        (50, 20, [1, 2, 5, 10]),  # ends on the tolerance at a grid point
    ])
    def test_the_last_iteration_is_not_recorded(self, max_iter, accept_from, recorded):
        # steps 0.5, 0.25, ...: every one is <= tol, so accept decides the stop
        run = iterate(halving, np.array([1.0]), 0, max_iter=max_iter, tol=1.0,
                      divergence_factor=1e8, record=lambda c: c,
                      accept=lambda c: accept_from is not None and c >= accept_from)
        assert len(run.step_norms) == (accept_from or max_iter)
        assert run.records == run.record_iterations == recorded


class TestPolishHook:
    def test_hook_runs_once_per_iteration(self):
        offered = []

        def polish(count):
            offered.append(count)

        run = iterate(halving, np.array([1.0]), 0, max_iter=6, tol=1e-12,
                      divergence_factor=1e8, polish=polish)
        assert run.termination == TERM_MAX_ITER and run.residual is None
        assert offered == [1, 2, 3, 4, 5, 6]

    def test_accepted_polish_ends_the_run_at_that_iteration(self):
        # the step test alone would stop at iteration 3 (step 0.5 <= 0.6)
        run = iterate(halving, np.array([1.0, -4.0]), 0, max_iter=50, tol=0.6,
                      divergence_factor=1e8, accept=lambda c: pytest.fail("accept asked"),
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

    @pytest.mark.parametrize("case", ["rendezvous", "fishery", "undeclared twin"])
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
        if case == "rendezvous":
            splitting.dr_solve(lq_rendezvous_game(), dr)
        elif case == "fishery":
            fish = fishery_game()
            projgrad.projected_gradient_solve(
                fish, np.zeros((fish.horizon + 1, 2)),
                ProjGradConfig(max_iter=2, record_costs=False, run_checks=False))
        else:
            splitting.dr_solve(dataclasses.replace(game, quadratic_costs=False), dr)
        assert isinstance(hooks[0], ActiveSetPolish)
        assert hooks[1:] == [None]


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
    rendezvous = splitting.dr_solve(lq_rendezvous_game(),
                                    DrConfig(max_iter=2, record_costs=False, run_checks=False))
    assert np.isnan(rendezvous.natural_residual)


def short_fishery_pg(max_iter, record_costs):
    game = fishery_game(FisheryParams(horizon_time=2.0))
    return projgrad.projected_gradient_solve(
        game, np.ones((game.horizon + 1, 2)),  # zero harvest is a fixed point
        ProjGradConfig(max_iter=max_iter, record_costs=record_costs, run_checks=False))


def rendezvous_dr(max_iter, record_costs):
    return splitting.dr_solve(lq_rendezvous_game(),
                              DrConfig(max_iter=max_iter, record_costs=record_costs,
                                       run_checks=False))


@pytest.mark.parametrize("solve", [short_fishery_pg, rendezvous_dr])
def test_cost_rows_are_the_final_costs_of_the_run_cut_off_there(solve):
    # neither run ends on a polish, whose final row would be the polished point's
    rep = solve(120, True)
    assert rep.iterations == 120
    assert list(rep.cost_iterations) == [0, 1, 2, 5, 10, 20, 50, 100, 120]
    assert rep.cost_trace.shape == (9, 2 if solve is short_fishery_pg else 3)
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
    rep = rendezvous_dr(2000, True)
    grid = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000]
    assert rep.iterations == 2000
    assert len(rollouts) <= 3 + len(grid)
