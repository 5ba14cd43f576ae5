"""Game model: rollouts, costs, quadraticization, active sets."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dyngames import lq
from dyngames.benchmarks import FisheryParams, fishery_game, lq_rendezvous_game
from dyngames.errors import (
    DimensionError,
    InfeasibleTrajectoryError,
    NonFiniteDerivativeError,
    NonFiniteStateError,
)
from dyngames.feedback import stagewise_newton_backward
from dyngames.gradient import playerwise_minimizer_check, pseudo_gradient
from dyngames.projgrad import project_onto_feasible
from dyngames.splitting import project_stage_constraints
from dyngames.model import (
    ACTIVE_TOL,
    GameDefinition,
    Trajectory,
    all_player_costs,
    check_feasible,
    quadraticize,
    read_rows,
    rollout,
    total_cost,
)

from conftest import identity_sum_game, random_lq_game, random_smooth_game
from instances import affine_quadratic_game, fishery_off_its_dynamics
from oracles import quadraticize_per_stage


def fishery_like_step(x, r=8.0, h=100.0, dt=0.1):
    return x + (r / h**2) * (2 * h * x - x**2) * dt


class TestRollout:
    def test_identity_zero_controls_stays_at_origin(self):
        game = identity_sum_game(T=4)
        traj = rollout(game, np.zeros(2), np.zeros((5, 2)))
        assert np.all(traj.states == 0.0)

    def test_logistic_growth_step_matches_hand_value(self):
        # Biomass at carrying-capacity midpoint grows by the max rate: from
        # x = 100 with growth rate 8 and dt 0.1 the next state is 100.8.
        game = GameDefinition(
            horizon=1, state_dim=1, action_dims=(1, 1), initial_state=[100.0],
            dynamics=lambda k, x, u: fishery_like_step(x),
            stage_costs=lambda k, x, u: np.zeros(2),
        )
        traj = rollout(game, np.array([100.0]), np.zeros((2, 2)))
        assert traj.states[1, 0] == pytest.approx(100.8, abs=1e-12)

    def test_matches_direct_recurrence(self, rng):
        game = random_smooth_game(rng, T=3)
        controls = rng.standard_normal((4, game.total_action_dim))
        traj = rollout(game, game.initial_state, controls)
        # Independent step-by-step evaluation of the recurrence.
        x = game.initial_state.copy()
        for k in range(3):
            x = game.eval_dynamics(k, x, controls[k])
            np.testing.assert_allclose(traj.states[k + 1], x, rtol=1e-12)

    def test_dimension_mismatch_is_reported(self):
        game = identity_sum_game(T=3)
        with pytest.raises(DimensionError):
            rollout(game, np.zeros(2), np.zeros((4, 3)))
        with pytest.raises(DimensionError):
            rollout(game, np.zeros(3), np.zeros((4, 2)))

    def test_short_control_array_gets_terminal_zero_block(self):
        game = identity_sum_game(T=3)
        traj = rollout(game, np.zeros(2), np.ones((3, 2)))
        assert traj.actions.shape == (4, 2)
        assert np.all(traj.actions[-1] == 0.0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_names_stage(self):
        game = GameDefinition(
            horizon=5, state_dim=1, action_dims=(1,), initial_state=[2.0],
            dynamics=lambda k, x, u: x**20,
            stage_costs=lambda k, x, u: np.zeros(1),
        )
        with pytest.raises(NonFiniteStateError) as exc:
            rollout(game, np.array([2.0]), np.zeros((6, 1)))
        # 2^20 and 2^400 are finite; stage 2 produces 2^8000 = inf.
        assert exc.value.stage == 2

    def test_error_after_non_finite_state_names_first_stage(self):
        def dynamics(k, x, u):
            if not np.all(np.isfinite(x)):
                raise ValueError("dynamics undefined off the reals")
            return x + (np.inf if k == 1 else 0.0)

        game = GameDefinition(
            horizon=5, state_dim=1, action_dims=(1,), initial_state=[0.0],
            dynamics=dynamics, stage_costs=lambda k, x, u: np.zeros(1),
        )
        with pytest.raises(NonFiniteStateError) as exc:
            rollout(game, np.zeros(1), np.zeros((6, 1)))
        assert exc.value.stage == 1

    def test_rollout_of_extracted_controls_reproduces_states(self, rng):
        game = random_smooth_game(rng, T=6)
        controls = 0.3 * rng.standard_normal((7, game.total_action_dim))
        traj = rollout(game, game.initial_state, controls)
        again = rollout(game, traj.states[0], traj.actions)
        np.testing.assert_allclose(again.states, traj.states, rtol=1e-12, atol=1e-12)

    def test_hook_replaces_the_per_stage_loop(self):
        def no_stage_calls(k, x, u):
            raise AssertionError("per-stage dynamics called")

        seen = []

        def hook(x0, actions):
            seen.append(actions.shape)
            return np.cumsum(np.vstack([x0, actions[:-1]]), axis=0)[1:]

        game = dataclasses.replace(identity_sum_game(T=3), dynamics=no_stage_calls,
                                   traj_rollout=hook)
        traj = rollout(game, np.ones(2), np.ones((3, 2)))
        assert seen == [(4, 2)]  # one call, on the normalized (T+1)-row controls
        np.testing.assert_array_equal(traj.states[:, 0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(traj.actions[-1], [0.0, 0.0])

    @pytest.mark.parametrize("shape", [(4, 2), (3, 1), (3,)])
    def test_hook_output_of_the_wrong_shape_is_rejected(self, shape):
        game = dataclasses.replace(identity_sum_game(T=3),
                                   traj_rollout=lambda x0, actions: np.zeros(shape))
        with pytest.raises(DimensionError, match="rolled-out states"):
            rollout(game, np.zeros(2), np.zeros((4, 2)))

    def test_hook_errors_propagate_as_raised(self):
        def hook(x0, actions):
            raise ValueError("dynamics undefined here")

        game = dataclasses.replace(identity_sum_game(T=3), traj_rollout=hook)
        with pytest.raises(ValueError, match="undefined here"):
            rollout(game, np.zeros(2), np.zeros((4, 2)))

    def test_non_finite_hook_output_names_first_stage(self):
        def hook(x0, actions):
            out = np.zeros((5, 1))
            out[2:] = np.nan
            return out

        game = GameDefinition(
            horizon=5, state_dim=1, action_dims=(1,), initial_state=[0.0],
            dynamics=lambda k, x, u: x, stage_costs=lambda k, x, u: np.zeros(1),
            traj_rollout=hook)
        with pytest.raises(NonFiniteStateError) as exc:
            rollout(game, np.zeros(1), np.zeros((6, 1)))
        assert exc.value.stage == 2


class TestTotalCost:
    def test_zero_costs(self):
        game = identity_sum_game(T=5)
        traj = rollout(game, np.zeros(2), np.zeros((6, 2)))
        for t in range(6):
            assert total_cost(game, traj, 0, t) == 0.0

    def test_harvest_profit_single_step_value(self):
        # One step of effort 0.4 at biomass 100: (1*0.1*100 - 9)*0.4*0.1.
        q1, p1, e1, dt = 0.1, 1.0, 9.0, 0.1
        game = GameDefinition(
            horizon=0, state_dim=1, action_dims=(1,), initial_state=[100.0],
            dynamics=lambda k, x, u: x,
            stage_costs=lambda k, x, u: np.array([(p1 * q1 * x[0] - e1) * u[0] * dt]),
        )
        traj = Trajectory(np.array([[100.0]]), np.array([[0.4]]))
        assert total_cost(game, traj, 0, 0) == pytest.approx(0.04, abs=1e-14)

    def test_matches_naive_summation(self, rng):
        game, _ = random_lq_game(rng, T=4)
        traj = rollout(game, game.initial_state,
                       rng.standard_normal((5, game.total_action_dim)))
        for n in range(game.num_players):
            expected = sum(
                float(game.eval_costs(k, traj.states[k], traj.actions[k])[n])
                for k in range(5))
            assert total_cost(game, traj, n, 0) == pytest.approx(expected, rel=1e-12)

    def test_telescoping(self, rng):
        game, _ = random_lq_game(rng, T=5)
        traj = rollout(game, game.initial_state,
                       rng.standard_normal((6, game.total_action_dim)))
        for n in range(game.num_players):
            for t in range(5):
                head = float(game.eval_costs(t, traj.states[t], traj.actions[t])[n])
                assert total_cost(game, traj, n, t) == pytest.approx(
                    head + total_cost(game, traj, n, t + 1), rel=1e-10, abs=1e-12)

    def test_start_out_of_range(self, rng):
        game, _ = random_lq_game(rng, T=3)
        traj = rollout(game, game.initial_state, np.zeros((4, game.total_action_dim)))
        with pytest.raises(ValueError):
            total_cost(game, traj, 0, 5)

    @pytest.mark.parametrize("start", [-1, 4, 99])
    def test_all_player_costs_rejects_start_outside_horizon(self, rng, start):
        game, _ = random_lq_game(rng, T=3)
        traj = rollout(game, game.initial_state, np.ones((4, game.total_action_dim)))
        with pytest.raises(ValueError, match="start stage"):
            all_player_costs(game, traj, start)
        with pytest.raises(ValueError, match="start stage"):
            total_cost(game, traj, 0, start)


class TestTrajectoryEvaluators:
    """Shapes returned by the whole-trajectory hooks are checked once per call."""

    @staticmethod
    def fishery_and_trajectory():
        game = fishery_game(FisheryParams(horizon_time=0.5))
        traj = rollout(game, game.initial_state,
                       np.tile([0.1, 0.25], (game.horizon + 1, 1)))
        return game, traj

    def test_cost_gradient_with_one_player_row_is_rejected(self):
        game, traj = self.fishery_and_trajectory()
        hook = game.traj_cost_gradients

        def one_row(states, actions):
            CX, CU = hook(states, actions)
            return CX[:, :1], CU

        bad = dataclasses.replace(game, traj_cost_gradients=one_row)
        with pytest.raises(DimensionError, match="cost state gradients"):
            pseudo_gradient(bad, traj)

    def test_dynamics_jacobians_with_terminal_row_are_rejected(self):
        game, traj = self.fishery_and_trajectory()
        hook = game.traj_dynamics_jacobians

        def with_terminal(states, actions):
            A, B = hook(states, actions)
            return np.concatenate([A, A[-1:]]), B

        bad = dataclasses.replace(game, traj_dynamics_jacobians=with_terminal)
        with pytest.raises(DimensionError, match="dynamics state Jacobians"):
            pseudo_gradient(bad, traj)

    def test_costs_of_wrong_shape_are_rejected(self):
        game, traj = self.fishery_and_trajectory()
        bad = dataclasses.replace(game, traj_costs=lambda s, a: np.zeros(game.horizon + 1))
        with pytest.raises(DimensionError, match="trajectory costs"):
            all_player_costs(bad, traj)

    def test_projection_of_wrong_shape_is_rejected(self):
        game, traj = self.fishery_and_trajectory()
        hook = game.traj_projector

        def one_action_column(states, actions):
            X, U = hook(states, actions)
            return X, U[:, :1]

        def no_terminal_state(states, actions):
            X, U = hook(states, actions)
            return X[:-1], U

        bad = dataclasses.replace(game, traj_projector=one_action_column)
        with pytest.raises(DimensionError, match="projected actions"):
            project_onto_feasible(bad, traj.actions)
        bad = dataclasses.replace(game, traj_projector=no_terminal_state)
        with pytest.raises(DimensionError, match="projected states"):
            project_stage_constraints(bad, traj.states, traj.actions)

    def test_ragged_stage_evaluators_are_rejected(self):
        game = identity_sum_game(T=3)
        traj = rollout(game, np.zeros(2), np.ones((4, 2)))
        ragged = dataclasses.replace(
            game, cost_gradients=lambda k, x, u: (np.zeros((1, 2 + k % 2)), np.zeros((1, 2))))
        with pytest.raises(DimensionError, match="at stage 1: expected") as exc:
            pseudo_gradient(ragged, traj)
        assert exc.value.stage == 1

    @staticmethod
    def fishery_misfit_at_stage_3(name, misfit, **hooks):
        """A fishery copy whose ``name`` callable returns ``misfit(out)`` at stage 3; a rollout."""
        game = fishery_game(FisheryParams(horizon_time=1.0))
        traj = rollout(game, game.initial_state, np.tile([0.2, 0.1], (11, 1)))
        fn = getattr(game, name)
        bad = dataclasses.replace(game, **hooks, **{
            name: lambda k, x, u: misfit(fn(k, x, u)) if k == 3 else fn(k, x, u)})
        return bad, traj

    @pytest.mark.parametrize("name, misfit, hooks, read", [
        ("constraints", lambda g: g[:, None], dict(batch_constraints=None,
                                                   traj_constraint_rows=None),
         lambda game, traj: traj.constraint_violation(game)),
        ("constraints", lambda g: g[:, None], dict(traj_constraint_rows=None),
         lambda game, traj: read_rows(game, traj.states, traj.actions)),
        ("constraints", lambda g: g[:, None], dict(traj_constraint_rows=None),
         lambda game, traj: quadraticize(game, traj)),
        ("dynamics", lambda f: np.append(f, f), {},
         lambda game, traj: check_feasible(game, traj)),
        ("dynamics", lambda f: np.append(f, f), {},
         lambda game, traj: quadraticize(game, traj)),
        ("stage_costs", lambda c: np.append(c, c), dict(traj_costs=None),
         lambda game, traj: game.eval_traj_costs(traj.states, traj.actions)),
        ("cost_gradients", lambda g: (g[0], g[1][:, :1]), dict(traj_cost_gradients=None),
         lambda game, traj: game.eval_traj_cost_gradients(traj.states, traj.actions)),
        ("dynamics_jacobians", lambda j: (j[0], j[1][:, :1]), dict(traj_dynamics_jacobians=None),
         lambda game, traj: game.eval_traj_dynamics_jacobians(traj.states, traj.actions))],
        ids=["constraint_violation", "read_rows", "quadraticize_rows", "check_feasible",
             "quadraticize_dynamics", "traj_costs", "traj_cost_gradients",
             "traj_dynamics_jacobians"])
    def test_a_misfit_stage_output_names_its_stage(self, name, misfit, hooks, read):
        # rows of shape (4, 1), two stock values, or a short gradient or Jacobian at stage 3
        game, traj = self.fishery_misfit_at_stage_3(name, misfit, **hooks)
        with pytest.raises(DimensionError, match="at stage 3") as exc:
            read(game, traj)
        assert exc.value.stage == 3


class TestBatchEvaluators:
    @staticmethod
    def fishery_points(n_runs=200):
        game = fishery_game(FisheryParams(horizon_time=1.0))
        rng = np.random.default_rng(5)
        return game, rng.uniform(0.0, 120.0, (n_runs, 1)), rng.uniform(-0.1, 0.5, (n_runs, 2))

    def test_fishery_hooks_match_stacked_stage_callables(self):
        game, X, U = self.fishery_points()
        stacked = dataclasses.replace(game, batch_dynamics=None, batch_constraints=None)
        for k in (0, game.horizon - 1):
            np.testing.assert_array_equal(game.eval_batch_dynamics(k, X, U),
                                          stacked.eval_batch_dynamics(k, X, U))
            np.testing.assert_array_equal(game.eval_batch_constraints(k, X, U),
                                          stacked.eval_batch_constraints(k, X, U))
        assert game.eval_batch_constraints(0, X, U).shape == (200, 4)

    @pytest.mark.parametrize("hook", [lambda k, X, U: X[:, 0],
                                      lambda k, X, U: np.hstack([X, X]),
                                      lambda k, X, U: X[1:]],
                             ids=["one_dim", "two_columns", "short"])
    def test_batch_dynamics_of_wrong_shape_are_rejected(self, hook):
        game, X, U = self.fishery_points()
        bad = dataclasses.replace(game, batch_dynamics=hook)
        with pytest.raises(DimensionError, match="batch dynamics at stage 3"):
            bad.eval_batch_dynamics(3, X, U)

    @pytest.mark.parametrize("hook", [lambda k, X, U: U.ravel(),
                                      lambda k, X, U: U[1:]],
                             ids=["one_dim", "short"])
    def test_batch_constraints_of_wrong_shape_are_rejected(self, hook):
        game, X, U = self.fishery_points()
        bad = dataclasses.replace(game, batch_constraints=hook)
        with pytest.raises(DimensionError, match="batch constraints at stage 3"):
            bad.eval_batch_constraints(3, X, U)

    def test_stacked_fallback_rejects_ragged_rows_and_has_none_without_constraints(self):
        game, X, U = self.fishery_points()
        ragged = dataclasses.replace(game, batch_constraints=None,
                                     constraints=lambda k, x, u: np.zeros(1 + (x[0] > 60.0)))
        with pytest.raises(DimensionError, match="ragged"):
            ragged.eval_batch_constraints(0, X, U)
        free = dataclasses.replace(game, constraints=None)
        assert free.eval_batch_constraints(0, X, U).shape == (200, 0)


class TestCheckFeasible:
    def test_names_the_first_stage_beyond_tolerance(self, rng):
        game = identity_sum_game(T=4)
        traj = rollout(game, np.zeros(2), rng.standard_normal((5, 2)))
        traj.states[2] += [1e-3, 0.0]  # breaks stage 1 (and stage 2 after it)
        traj.states[4] += [0.0, 1e-9]  # within tolerance
        with pytest.raises(InfeasibleTrajectoryError) as err:
            check_feasible(game, traj, tol=1e-6)
        assert err.value.stage == 1
        assert err.value.residual == pytest.approx(1e-3, rel=1e-6)
        traj.states[2] -= [1e-3, 0.0]
        check_feasible(game, traj, tol=1e-6)

    @pytest.mark.parametrize("feas_tol", [np.nan, -1e-3])
    def test_quadraticize_rejects_nan_or_negative_tolerances(self, feas_tol):
        game, traj = fishery_off_its_dynamics()
        quadraticize(game, traj, feas_tol=np.inf)  # inf still skips the check
        with pytest.raises(InfeasibleTrajectoryError):
            quadraticize(game, traj)
        with pytest.raises(ValueError, match="feas_tol must be nonnegative"):
            quadraticize(game, traj, feas_tol=feas_tol)

    @staticmethod
    def fishery_with_stage_10_stock_moved(shift):
        game = fishery_game(FisheryParams(horizon_time=2.0))
        traj = rollout(game, game.initial_state, np.full((game.horizon + 1, 2), 0.1))
        traj.states[10] += shift  # about 55.1
        return game, traj

    @pytest.mark.parametrize("shift, feasible", [(1e-7, True), (1e-6, False)])
    def test_one_relative_rule_for_both_feasibility_tests(self, shift, feasible):
        # a residual of 1.005e-7 passes 1e-8 * (1 + |x|), one of 1e-6 does not
        game, traj = self.fishery_with_stage_10_stock_moved(shift)
        assert traj.dynamically_feasible(game, 1e-8) == feasible
        if feasible:
            check_feasible(game, traj, 1e-8)
        else:
            with pytest.raises(InfeasibleTrajectoryError):
                check_feasible(game, traj, 1e-8)

    def test_a_nan_state_fails_every_feasibility_test(self):
        game, traj = self.fishery_with_stage_10_stock_moved(np.nan)
        assert not traj.dynamically_feasible(game, 1e-8)
        for check in (lambda: check_feasible(game, traj, 1e-8),
                      lambda: pseudo_gradient(game, traj), lambda: quadraticize(game, traj)):
            with pytest.raises(InfeasibleTrajectoryError) as err:
                check()
            assert err.value.stage == 9  # the stage whose dynamics produce x_10
        check_feasible(game, traj, np.inf)  # inf still skips the check


class TestTrajectoryFitsTheGame:
    """Every whole-trajectory reader rejects a trajectory of another horizon."""

    READERS = {
        "all_player_costs": lambda game, traj: all_player_costs(game, traj),
        "total_cost": lambda game, traj: total_cost(game, traj, 0),
        "check_feasible": lambda game, traj: check_feasible(game, traj, np.inf),
        "pseudo_gradient": lambda game, traj: pseudo_gradient(game, traj, feas_tol=np.inf),
        "quadraticize": lambda game, traj: quadraticize(game, traj, feas_tol=np.inf),
        "stagewise_newton_backward": stagewise_newton_backward,
        "playerwise_minimizer_check": playerwise_minimizer_check,
        "constraint_violation": lambda game, traj: traj.constraint_violation(game),
    }

    @pytest.mark.parametrize("stages", [6, 13])
    @pytest.mark.parametrize("reader", READERS)
    def test_a_trajectory_of_another_horizon_is_rejected(self, reader, stages):
        # a game without trajectory hooks, whose per-stage loops ran over the
        # first T+1 stages of a longer trajectory and indexed past a shorter one
        rows = lambda k, x, u: u - 1.0
        game, _ = random_lq_game(np.random.default_rng(0), T=10, constraints=rows)
        other, _ = random_lq_game(np.random.default_rng(1), T=stages - 1, constraints=rows)
        traj = rollout(other, other.initial_state, np.zeros((stages, 2)))
        with pytest.raises(DimensionError, match="trajectory states"):
            self.READERS[reader](game, traj)


def bare(game):
    """The game's per-stage maps alone: every derivative by finite differences."""
    return GameDefinition(horizon=game.horizon, state_dim=game.state_dim,
                          action_dims=game.action_dims, initial_state=game.initial_state,
                          dynamics=game.dynamics, stage_costs=game.stage_costs,
                          constraints=game.constraints)


class TestQuadraticize:
    def test_linear_dynamics_have_zero_second_derivatives(self, rng):
        game, _ = random_lq_game(rng, T=3)
        traj = rollout(game, game.initial_state,
                       rng.standard_normal((4, game.total_action_dim)))
        G = quadraticize(game, traj).G
        assert G.shape == (3, 2, 4, 4)
        assert np.all(G == 0.0)

    def test_quadratic_cost_blocks_are_exact(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.5]])
        game = GameDefinition(
            horizon=1, state_dim=1, action_dims=(2,), initial_state=[0.0],
            dynamics=lambda k, x, u: x,
            stage_costs=lambda k, x, u: np.array([0.5 * u @ Q @ u]),
        )
        ubar = np.array([0.7, -0.3])
        traj = rollout(game, np.zeros(1), np.vstack([ubar, ubar]))
        data = quadraticize(game, traj)
        np.testing.assert_allclose(data.C[0, 0, 1:, 1:], Q, atol=1e-6)
        np.testing.assert_allclose(data.c[0, 0, 1:], Q @ ubar, atol=1e-7)

    def test_fd_fallback_matches_analytic(self, rng):
        game = random_smooth_game(rng, T=3)
        controls = 0.2 * rng.standard_normal((4, game.total_action_dim))
        traj = rollout(game, game.initial_state, controls)
        qa = quadraticize(game, traj)
        qf = quadraticize(bare(game), traj)
        np.testing.assert_allclose(qf.A, qa.A, atol=1e-7)
        np.testing.assert_allclose(qf.B, qa.B, atol=1e-7)
        for name in ("c", "C", "G"):
            np.testing.assert_allclose(getattr(qf, name), getattr(qa, name), atol=2e-5)

    def test_fd_consistency_order(self, rng):
        # Jacobian error of a one-sided reimplementation decays ~quadratically
        # in the step, confirming the central scheme's order.
        game = random_smooth_game(rng, T=2)
        x = game.initial_state
        u = 0.1 * np.ones(game.total_action_dim)
        A_exact, _ = game.eval_dynamics_jacobians(0, x, u)

        def central_A(h):
            n = game.state_dim
            J = np.zeros((n, n))
            for i in range(n):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                J[:, i] = (game.eval_dynamics(0, xp, u)
                           - game.eval_dynamics(0, xm, u)) / (2 * h)
            return J

        e1 = np.max(np.abs(central_A(1e-2) - A_exact))
        e2 = np.max(np.abs(central_A(5e-3) - A_exact))
        assert e2 < e1 / 2.5

    def test_logistic_state_jacobian_at_peak(self):
        # d/dx of x + (r/h^2)(2hx - x^2)dt at x = h is exactly 1.
        game = GameDefinition(
            horizon=1, state_dim=1, action_dims=(1,), initial_state=[100.0],
            dynamics=lambda k, x, u: fishery_like_step(x),
            stage_costs=lambda k, x, u: np.zeros(1),
        )
        A, _ = game.eval_dynamics_jacobians(0, np.array([100.0]), np.zeros(1))
        assert A[0, 0] == pytest.approx(1.0, abs=1e-9)


def reader_case(name, rng):
    """A game and a feasible trajectory of it, some actions on their bounds."""
    if name.startswith("fishery") or name == "bare":
        params = FisheryParams(horizon_time=2.0)
        game = fishery_game(params)
        if name == "fishery_per_stage":
            game = dataclasses.replace(game, traj_costs=None, traj_cost_gradients=None,
                                       traj_dynamics_jacobians=None, traj_rollout=None,
                                       traj_cost_hessians=None, traj_dynamics_hessians=None)
        elif name == "bare":
            game = bare(game)
        hi = np.array([params.u1_max, params.u2_max])
        u = rng.uniform(0.0, 1.0, (game.horizon + 1, 2))
        snap = rng.random(u.shape) < 0.3
        u[snap] = np.round(u[snap])
        u *= hi
    elif name == "rendezvous":
        game = lq_rendezvous_game()
        u = 1.5 * rng.standard_normal((game.horizon + 1, 6))
    elif name == "random_lq":
        game, _ = random_lq_game(rng, T=4, state_dim=2, action_dims=(1, 2),
                                 constraints=lambda k, x, u: np.array(
                                     [u[0] - 0.5, x[0] + u[1] - 1.0, x[1] ** 2 - 2.0]))
        u = rng.standard_normal((5, 3))
    else:
        game = random_smooth_game(rng, T=4)
        u = 0.3 * rng.standard_normal((5, game.total_action_dim))
    return game, rollout(game, game.initial_state, u)


def assert_rel_close(got, want):
    """Equal to 1e-12 relative to the largest entry of the reference."""
    want = np.asarray(want, dtype=float)
    assert np.shape(got) == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * (1.0 + np.max(np.abs(want), initial=0.0)))


class TestStackedReader:
    @pytest.mark.parametrize("name", ["fishery", "fishery_per_stage", "rendezvous",
                                      "random_lq", "random_smooth", "bare"])
    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.0, 1e-3))
    def test_matches_per_stage_reference(self, name, seed, shift):
        # a shifted trajectory gives nonzero dynamics offsets b and x0 - xbar_0
        rng = np.random.default_rng(seed)
        game, traj = reader_case(name, rng)
        traj.states += shift * rng.standard_normal(traj.states.shape)
        data = quadraticize(game, traj, feas_tol=np.inf)
        ref = quadraticize_per_stage(game, traj)
        T = game.horizon
        assert data.A.shape[0] == data.B.shape[0] == data.b.shape[0] == data.G.shape[0] == T
        for k, want in enumerate(ref):
            M = want["M"]
            for got, block in [(data.c, M[:, 0, 1:]), (data.C, M[:, 1:, 1:])]:
                assert_rel_close(got[:, k], block)
            if k < T:
                for name_ in ("A", "B", "G", "b"):
                    assert_rel_close(getattr(data, name_)[k], want[name_])
            real = data.rows.real[k]
            for name_ in ("W", "S", "p"):
                assert_rel_close(getattr(data.rows, name_)[k][real], want[name_])
            np.testing.assert_array_equal(np.flatnonzero(data.active[k]), want["active"])
            assert not np.any(data.active[k] & ~real)
        assert_rel_close(data.initial_state, game.initial_state - traj.states[0])

    def test_linear_dynamics_read_no_second_derivatives(self, rng):
        game, traj = reader_case("random_lq", rng)

        def boom(k, x, u):
            raise AssertionError("dynamics Hessians read for declared linear dynamics")

        data = quadraticize(dataclasses.replace(game, dynamics_hessians=boom), traj)
        assert np.all(data.G == 0.0)

    def test_a_misshapen_dynamics_hessian_names_its_stage(self, rng):
        game, traj = reader_case("fishery_per_stage", rng)
        hess = game.dynamics_hessians

        def misshapen_at_3(k, x, u):
            return np.zeros((1, 2, 2)) if k == 3 else hess(k, x, u)

        with pytest.raises(DimensionError, match="dynamics Hessians at stage 3") as exc:
            quadraticize(dataclasses.replace(game, dynamics_hessians=misshapen_at_3), traj)
        assert exc.value.stage == 3


class TestConstraintHessians:
    @staticmethod
    def disc_game(hessians=None):
        # one row |u|^2 + x^2 - 1 <= 0, whose Hessian is 2 I
        return GameDefinition(
            horizon=2, state_dim=1, action_dims=(2,), initial_state=[0.0],
            dynamics=lambda k, x, u: x + u[:1], stage_costs=lambda k, x, u: np.array([0.0]),
            constraints=lambda k, x, u: np.array([u @ u + x @ x - 1.0]),
            constraint_hessians=hessians)

    def test_without_the_hook_the_hessians_are_finite_differences(self, rng):
        game = self.disc_game()
        x, u = rng.standard_normal(1), rng.standard_normal(2)
        H = game.eval_constraint_hessians(1, x, u)
        np.testing.assert_allclose(H, 2.0 * np.eye(3)[None], rtol=0, atol=1e-6)

    def test_the_hook_is_read_and_shape_checked(self, rng):
        exact = self.disc_game(lambda k, x, u: 2.0 * np.eye(3)[None])
        np.testing.assert_array_equal(
            exact.eval_constraint_hessians(0, np.zeros(1), np.zeros(2)), 2.0 * np.eye(3)[None])
        misshapen = self.disc_game(lambda k, x, u: np.zeros((1, 2, 2)))
        with pytest.raises(DimensionError, match="constraint Hessians at stage 1"):
            misshapen.eval_constraint_hessians(1, np.zeros(1), np.zeros(2))


def nan_below_zero(u):
    """u where u >= 0 and NaN elsewhere: finite at 0, not finite a step below it."""
    return np.where(u < 0, np.nan, u)


@pytest.mark.parametrize("method, what", [
    ("eval_dynamics_jacobians", "dynamics"), ("eval_dynamics_hessians", "dynamics"),
    ("eval_cost_gradients", "cost"), ("eval_cost_hessians", "cost"),
    ("eval_constraint_hessians", "constraint"), ("eval_constraint_rows", "constraint")])
def test_a_non_finite_difference_names_its_map_and_stage(method, what):
    # no analytic derivatives: every evaluator falls back to central
    # differences, and each map is finite at u = 0 but NaN one step below it
    game = GameDefinition(
        horizon=3, state_dim=1, action_dims=(1,), initial_state=[0.0],
        dynamics=lambda k, x, u: x + nan_below_zero(u),
        stage_costs=lambda k, x, u: nan_below_zero(u),
        constraints=lambda k, x, u: nan_below_zero(u) - 1.0)
    with pytest.raises(NonFiniteDerivativeError) as exc:
        getattr(game, method)(2, np.zeros(1), np.zeros(1))
    assert (exc.value.what, exc.value.stage) == (what, 2)


class TestActiveSets:
    @staticmethod
    def box_game(T=2, ubar=0.4):
        return GameDefinition(
            horizon=T, state_dim=1, action_dims=(1,), initial_state=[0.0],
            dynamics=lambda k, x, u: x + u,
            stage_costs=lambda k, x, u: np.array([0.0]),
            constraints=lambda k, x, u: np.array([u[0] - ubar, -u[0]]),
            constraint_jacobians=lambda k, x, u: (np.zeros((2, 1)),
                                                  np.array([[1.0], [-1.0]])),
            polyhedral_constraints=True,
            constraints_in_actions_only=True,
        )

    def test_no_constraints_gives_empty_sets(self, rng):
        game, _ = random_lq_game(rng, T=3)
        traj = rollout(game, game.initial_state, np.zeros((4, game.total_action_dim)))
        data = quadraticize(game, traj)
        assert data.active.shape == data.rows.p.shape == data.rows.real.shape == (4, 0)

    def test_boundary_point_is_active(self):
        game = self.box_game()
        controls = np.array([[0.4], [0.1], [0.0]])
        traj = rollout(game, np.zeros(1), controls)
        active = quadraticize(game, traj).active
        assert active.tolist() == [[True, False], [False, False], [False, True]]

    def test_partition_is_complement(self, rng):
        game = self.box_game(T=4)
        controls = rng.uniform(-0.1, 0.5, size=(5, 1))
        traj = rollout(game, np.zeros(1), controls)
        data = quadraticize(game, traj)
        p, act = data.rows.p, data.active
        assert data.rows.real.all()
        assert np.all(p[act] >= -1e-6) and np.all(p[~act] < -1e-6)

    def test_rows_are_evaluated_once_per_stage(self):
        game = fishery_game(FisheryParams(horizon_time=100.0))
        calls = []

        def counted(k, x, u):
            calls.append(k)
            return game.constraints(k, x, u)

        # the per-stage read, without the whole-trajectory hook
        counted_game = dataclasses.replace(game, constraints=counted, traj_constraint_rows=None)
        traj = rollout(game, game.initial_state, np.tile([0.2, 0.15], (1001, 1)))
        data = quadraticize(counted_game, traj)
        assert len(calls) == 1001
        assert data.active.shape == (1001, 4) and not data.active.any()
        # the hook reads every stage in one call, the same rows
        calls.clear()
        hooked = quadraticize(dataclasses.replace(game, constraints=counted), traj)
        assert calls == []
        for name in ("G", "p", "real"):
            np.testing.assert_array_equal(getattr(hooked.rows, name), getattr(data.rows, name))

    def test_jacobian_row_count_must_match_the_rows(self):
        game = dataclasses.replace(
            self.box_game(), constraint_jacobians=lambda k, x, u: (np.zeros((3, 1)),
                                                                   np.ones((3, 1))))
        traj = rollout(game, np.zeros(1), np.full((3, 1), 0.2))
        with pytest.raises(DimensionError) as exc:
            quadraticize(game, traj)
        assert exc.value.stage == 0

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(0, 4), max_rows=st.integers(0, 3),
           spread=st.floats(0.0, 3.0), near=st.booleans())
    def test_active_mask_is_the_solve_reads_mask(self, seed, T, max_rows, spread, near):
        # one mask semantics: the backward pass's active rows around a
        # trajectory are the rows a solve's read (the polish's) finds within
        # ACTIVE_TOL of active there; ``near`` moves every row to 0, 0.5 or 2
        # ACTIVE_TOL below active, on both sides of the tolerance
        rng = np.random.default_rng(seed)
        base, lq_data = random_lq_game(rng, T=T)
        counts = rng.integers(0, max_rows + 1, T + 1)
        stage_rows = {k: (rng.standard_normal((m, 2)), rng.standard_normal((m, 2)),
                          rng.standard_normal(m)) for k, m in enumerate(counts) if m}
        game = affine_quadratic_game(lq_data, base.initial_state, stage_rows)
        traj = rollout(game, game.initial_state,
                       spread * rng.standard_normal((T + 1, game.total_action_dim)))
        if near:  # the same dynamics, so traj is still the game's rollout
            stage_rows = {k: (W, S, -(W @ traj.states[k] + S @ traj.actions[k])
                              - ACTIVE_TOL * rng.choice([0.0, 0.5, 2.0], len(p)))
                          for k, (W, S, p) in stage_rows.items()}
            game = affine_quadratic_game(lq_data, base.initial_state, stage_rows)
        rows = lq.padded_rows(game)
        data = quadraticize(game, traj)
        np.testing.assert_array_equal(data.active,
                                      rows.real & (rows.values(traj) >= -ACTIVE_TOL))
