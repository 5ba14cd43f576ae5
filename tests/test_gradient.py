"""Pseudo-gradient backward pass against finite-difference oracles."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngames import gradient
from dyngames.benchmarks import FisheryParams, fishery_game
from dyngames.errors import InfeasibleTrajectoryError
from dyngames.gradient import (
    VERDICT_BLOCKED,
    VERDICT_CONVEX,
    VERDICT_INDETERMINATE,
    estimate_operator_constants,
    playerwise_minimizer_check,
    pseudo_gradient,
    solve_costates,
)
from dyngames.model import GameDefinition, Trajectory, all_player_costs, quadraticize, rollout

from conftest import identity_sum_game, random_lq_game, random_smooth_game
from instances import affine_quadratic_game, fishery_off_its_dynamics
from oracles import (
    costate_recursion,
    fd_own_block_hessian,
    feasible_direction_basis_loop,
    fd_stacked_gradient,
    player_major_operator,
    stacked_coordinates,
)


@pytest.mark.parametrize("check", [pseudo_gradient, playerwise_minimizer_check])
def test_infeasible_trajectory_is_rejected(check):
    game, traj = fishery_off_its_dynamics()
    with pytest.raises(InfeasibleTrajectoryError):
        check(game, traj)


def test_nan_feas_tol_is_rejected_not_skipped():
    game, traj = fishery_off_its_dynamics()
    with pytest.raises(ValueError, match="feas_tol must be nonnegative"):
        pseudo_gradient(game, traj, feas_tol=np.nan)


class TestPseudoGradient:
    def test_zero_costs_give_zero_gradient(self):
        game = identity_sum_game(T=4)
        traj = rollout(game, np.zeros(2), np.zeros((5, 2)))
        pg = pseudo_gradient(game, traj)
        assert np.all(pg.stacked == 0.0)
        assert np.all(pg.costates[:, -1] == 0.0)

    def test_single_stage_has_no_costate_contribution(self, rng):
        game, _ = random_lq_game(rng, T=0, state_dim=2, action_dims=(1, 1))
        u = rng.standard_normal((1, 2))
        traj = rollout(game, game.initial_state, u)
        pg = pseudo_gradient(game, traj)
        cx, cu = game.eval_cost_gradients(0, traj.states[0], traj.actions[0])
        for n in range(2):
            np.testing.assert_allclose(pg.block(n), cu[n, game.action_slice(n)])

    def test_matches_finite_differences_on_smooth_games(self, rng):
        for trial in range(4):
            game = random_smooth_game(rng, T=5, state_dim=2, action_dims=(1, 1))
            actions = 0.3 * rng.standard_normal((6, 2))
            traj = rollout(game, game.initial_state, actions)
            pg = pseudo_gradient(game, traj)
            fd = fd_stacked_gradient(game, actions, step=1e-5)
            scale = np.max(np.abs(fd)) + 1e-9
            assert np.max(np.abs(pg.stacked - fd)) / scale < 1e-6

    def test_fd_error_decays_quadratically(self, rng):
        game = random_smooth_game(rng, T=4)
        actions = 0.3 * rng.standard_normal((5, game.total_action_dim))
        traj = rollout(game, game.initial_state, actions)
        exact = pseudo_gradient(game, traj).stacked
        e1 = np.max(np.abs(fd_stacked_gradient(game, actions, step=2e-2) - exact))
        e2 = np.max(np.abs(fd_stacked_gradient(game, actions, step=1e-2) - exact))
        assert e2 < e1 / 2.5

    def test_stacked_blocks_match_stage_slices(self, rng):
        game, _ = random_lq_game(rng, T=3, action_dims=(2, 1))
        traj = rollout(game, game.initial_state, rng.standard_normal((4, 3)))
        pg = pseudo_gradient(game, traj)
        for n in range(2):
            sl = game.action_slice(n)
            manual = pg.stage_grads[n][:, sl].reshape(-1)
            np.testing.assert_allclose(pg.block(n), manual)

    def test_constant_cost_shift_leaves_gradient_unchanged(self, rng):
        game = random_smooth_game(rng, T=3)
        base_costs = game.stage_costs
        shifted = GameDefinition(
            horizon=game.horizon, state_dim=game.state_dim,
            action_dims=game.action_dims, initial_state=game.initial_state,
            dynamics=game.dynamics,
            stage_costs=lambda k, x, u: base_costs(k, x, u) + np.array([3.7, -1.2]),
            dynamics_jacobians=game.dynamics_jacobians,
            cost_gradients=game.cost_gradients,
        )
        actions = 0.2 * rng.standard_normal((4, game.total_action_dim))
        traj = rollout(game, game.initial_state, actions)
        g0 = pseudo_gradient(game, traj).stacked
        g1 = pseudo_gradient(shifted, traj).stacked
        np.testing.assert_allclose(g0, g1, rtol=1e-12)

    def test_rejects_infeasible_trajectory(self, rng):
        game, _ = random_lq_game(rng, T=3)
        traj = rollout(game, game.initial_state, np.zeros((4, game.total_action_dim)))
        broken = Trajectory(traj.states + 0.5, traj.actions)
        with pytest.raises(InfeasibleTrajectoryError):
            pseudo_gradient(game, broken)

    def test_operator_constants_match_construction(self, rng):
        # Static quadratic game: stacked operator rows are the own-block rows
        # of each player's Hessian.
        Q1 = np.array([[3.0, 0.4], [0.4, 2.0]])
        Q2 = np.array([[2.5, -0.3], [-0.3, 4.0]])
        game = GameDefinition(
            horizon=0, state_dim=1, action_dims=(1, 1), initial_state=[0.0],
            dynamics=lambda k, x, u: x,
            stage_costs=lambda k, x, u: np.array([0.5 * u @ Q1 @ u, 0.5 * u @ Q2 @ u]),
        )
        mu, L = estimate_operator_constants(game)
        op = np.vstack([Q1[0], Q2[1]])
        assert mu == pytest.approx(np.min(np.linalg.eigvalsh(0.5 * (op + op.T))), abs=1e-6)
        assert L == pytest.approx(np.max(np.linalg.svd(op, compute_uv=False)), abs=1e-6)


class TestOperatorProbe:
    """The joint-layout probe against the player-major oracles it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(0, 3), n_x=st.integers(1, 3),
           action_dims=st.sampled_from([(1,), (2,), (1, 1), (2, 1), (1, 2, 1)]))
    def test_matches_player_major_oracles(self, seed, T, n_x, action_dims):
        rng = np.random.default_rng(seed)
        game, _ = random_lq_game(rng, T=T, state_dim=n_x, action_dims=action_dims)
        base = rng.standard_normal((T + 1, game.total_action_dim))
        op, g0 = player_major_operator(game, base)
        mu_ref = float(np.min(np.linalg.eigvalsh(0.5 * (op + op.T))))
        L_ref = float(np.max(np.linalg.svd(op, compute_uv=False)))
        mu, L = estimate_operator_constants(game)  # F is affine: any base gives op
        assert abs(mu - mu_ref) <= 1e-10 * L_ref
        assert abs(L - L_ref) <= 1e-10 * L_ref
        # the stationary point of the affine operator, where the player-wise
        # check runs its Hessian
        u = base.copy()
        for (k, col), du in zip(stacked_coordinates(game), np.linalg.solve(op, -g0)):
            u[k, col] += du
        traj = rollout(game, game.initial_state, u)
        got = playerwise_minimizer_check(game, traj)
        with mock.patch.object(gradient, "_own_block_hessian", fd_own_block_hessian):
            want = playerwise_minimizer_check(game, traj)
        assert got == want


class TestCostateSolve:
    @settings(max_examples=200, deadline=None)
    @given(T=st.integers(0, 8), n_x=st.integers(1, 4), N=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 2.0))
    def test_banded_solve_matches_stage_recursion(self, T, n_x, N, seed, scale):
        rng = np.random.default_rng(seed)
        A = scale * rng.standard_normal((T, n_x, n_x))
        CX = rng.standard_normal((T + 1, N, n_x))
        expected = costate_recursion(A, CX)
        got = solve_costates(A, CX)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_fishery_trajectory_evaluators_match_stage_evaluators(self):
        game = fishery_game(FisheryParams(horizon_time=2.0))
        stagewise = dataclasses.replace(game, traj_costs=None, traj_cost_gradients=None,
                                        traj_dynamics_jacobians=None)
        actions = np.random.default_rng(3).uniform(0.0, 0.3, (game.horizon + 1, 2))
        traj = rollout(game, game.initial_state, actions)
        fast, slow = pseudo_gradient(game, traj), pseudo_gradient(stagewise, traj)
        for name in ("stacked", "stage_grads", "costates"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
        c_fast, c_slow = all_player_costs(game, traj), all_player_costs(stagewise, traj)
        assert np.max(np.abs(c_fast - c_slow)) <= 1e-12 * np.max(np.abs(c_slow))


class TestPlayerwiseCheck:
    def test_single_player_lqr_optimum_is_stationary_convex(self, rng):
        game, lq = random_lq_game(rng, T=3, state_dim=2, action_dims=(2,))
        # Solve the unconstrained optimum by gradient descent to stationarity.
        u = np.zeros((4, 2))
        for _ in range(4000):
            traj = rollout(game, game.initial_state, u)
            g = pseudo_gradient(game, traj)
            u = u - 0.05 * g.own_stage_grads()
        verdicts = playerwise_minimizer_check(game, rollout(game, game.initial_state, u))
        assert verdicts[0].verdict == VERDICT_CONVEX
        assert verdicts[0].passed

    def test_nonzero_gradient_without_constraints_is_flagged(self, rng):
        game, _ = random_lq_game(rng, T=2, action_dims=(1, 1))
        traj = rollout(game, game.initial_state,
                       rng.standard_normal((3, game.total_action_dim)))
        verdicts = playerwise_minimizer_check(game, traj)
        for v in verdicts:
            assert v.verdict == VERDICT_INDETERMINATE
            assert "nonzero-gradient-unconstrained" in v.flags
            assert not v.passed

    def test_nonzero_gradient_with_constraints_reports_blocked(self, rng):
        game, _ = random_lq_game(
            rng, T=2, action_dims=(1, 1),
            constraints=lambda k, x, u: np.concatenate([u - 5.0, -u - 5.0]),
            constraint_jacobians=lambda k, x, u: (
                np.zeros((4, 2)), np.vstack([np.eye(2), -np.eye(2)])),
            polyhedral=True, u_only=True)
        traj = rollout(game, game.initial_state, 5.0 * np.ones((3, 2)))
        verdicts = playerwise_minimizer_check(game, traj)
        assert all(v.verdict == VERDICT_BLOCKED for v in verdicts)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(0, 4),
       action_dims=st.sampled_from([(1, 1), (2, 1), (1, 2, 1)]), state_rows=st.booleans())
def test_feasible_direction_basis_matches_the_stage_loop(seed, T, action_dims, state_rows):
    # rows at the trajectory or 1 below it, so some are active and some not
    rng = np.random.default_rng(seed)
    base, lq = random_lq_game(rng, T=T, action_dims=action_dims)
    n_u = sum(action_dims)
    traj = rollout(base, base.initial_state, rng.standard_normal((T + 1, n_u)))
    rows = {}
    for k, m in enumerate(rng.integers(0, 4, T + 1)):
        if m:
            W = rng.standard_normal((m, 2)) * state_rows
            S = rng.standard_normal((m, n_u))
            slack = rng.choice([0.0, -1.0], m)
            rows[k] = (W, S, slack - W @ traj.states[k] - S @ traj.actions[k])
    game = affine_quadratic_game(lq, base.initial_state, rows, action_dims)
    data = quadraticize(game, traj)
    for n in range(len(action_dims)):
        got = gradient._feasible_direction_basis(game, data, n)
        want = feasible_direction_basis_loop(game, data, n)
        assert got.shape == want.shape
        # the same null space: equal orthogonal projectors onto it
        np.testing.assert_allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-12)
