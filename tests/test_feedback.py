"""Stagewise Newton backward pass, feedback rollouts and best-response gaps."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from dyngames import feedback
from dyngames.benchmarks import FisheryParams, fishery_game
from dyngames.errors import (
    DimensionError,
    NonFiniteStateError,
    StageSingularityError,
    SubproblemError,
)
from dyngames.feedback import (
    FeedbackPolicy,
    epsilon_nash_gap,
    feedback_rollout,
    solve_unconstrained_newton,
    stagewise_newton_backward,
)
from dyngames.gradient import pseudo_gradient
from dyngames.model import GameDefinition, Trajectory, rollout
from dyngames.parametric import solve_stage_kkt

from conftest import decoupled_lq_game, random_lq_game
from instances import (
    affine_quadratic_game,
    cost_blocks_from_lq,
    cross_scheme_lq_instance,
    equality_constrained_lq_instance,
    shift_rows,
    tightened_two_player_instance,
)
from oracles import (
    coupled_riccati_feedback,
    dense_best_response_gap,
    feedback_rollout_per_stage,
    stacked_lq_gne,
)


class TestStageGame:
    def test_pinned_action(self, rng):
        W = rng.standard_normal((2, 3))
        p = rng.standard_normal(2)
        law = solve_stage_kkt(np.eye(2), np.zeros((2, 3)), np.zeros(2), W, np.eye(2), p)
        np.testing.assert_allclose(law.K, -W, atol=1e-12)
        np.testing.assert_allclose(law.s, -p, atol=1e-12)

    def test_unconstrained_two_player_hand_solve(self):
        F = np.array([[2.0, 1.0], [-1.0, 4.0]])
        P = np.array([[1.0], [2.0]])
        H = np.array([3.0, -1.0])
        law = solve_stage_kkt(F, P, H, np.zeros((0, 1)), np.zeros((0, 2)), np.zeros(0))
        for x in (np.zeros(1), np.array([2.0])):
            np.testing.assert_allclose(law.K @ x + law.s,
                                       np.linalg.solve(F, -(P @ x + H)),
                                       atol=1e-12)

    @pytest.mark.parametrize("m", [0, 1])
    def test_nan_in_the_stage_matrix_is_rejected(self, m):
        F = np.array([[np.nan, 0.0], [0.0, 1.0]])
        S = np.array([[0.0, 1.0]])[:m]
        with pytest.raises(StageSingularityError, match="residual"):
            solve_stage_kkt(F, np.zeros((2, 1)), np.zeros(2), np.zeros((m, 1)), S, np.ones(m))

    def test_random_instance_against_per_x_kkt(self, rng):
        n_u, n_x = 3, 2
        F = rng.standard_normal((n_u, n_u)) + 3 * np.eye(n_u)
        P = rng.standard_normal((n_u, n_x))
        H = rng.standard_normal(n_u)
        S = rng.standard_normal((1, n_u))
        W = rng.standard_normal((1, n_x))
        p = rng.standard_normal(1)
        law = solve_stage_kkt(F, P, H, W, S, p)
        for _ in range(5):
            x = rng.standard_normal(n_x)
            K = np.block([[F, S.T], [S, np.zeros((1, 1))]])
            rhs = np.concatenate([-(P @ x + H), -(W @ x + p)])
            sol = np.linalg.solve(K, rhs)
            np.testing.assert_allclose(law.K @ x + law.s, sol[:n_u], atol=1e-9)


class TestBackwardPass:
    def test_unconstrained_matches_coupled_riccati(self, rng):
        game, lq = random_lq_game(rng, T=5, state_dim=3, action_dims=(2, 1))
        ref = rollout(game, game.initial_state,
                      0.3 * rng.standard_normal((6, 3)))
        policy = stagewise_newton_backward(game, ref)
        Ks, _ = coupled_riccati_feedback(lq, 5, (2, 1), 3)
        for k in range(6):
            np.testing.assert_allclose(policy.gains[k], Ks[k], atol=1e-8)

    def test_no_constraint_rows_equals_use_constraints_false(self, rng):
        game, _ = random_lq_game(rng, T=4)
        ref = rollout(game, game.initial_state,
                      rng.standard_normal((5, game.total_action_dim)))
        a = stagewise_newton_backward(game, ref, use_constraints=True)
        b = stagewise_newton_backward(game, ref, use_constraints=False)
        for k in range(5):
            np.testing.assert_allclose(a.gains[k], b.gains[k], atol=1e-12)

    @pytest.mark.parametrize("stage_reg", [np.nan, -5.0, np.inf])
    def test_stage_reg_must_be_finite_and_nonnegative(self, rng, stage_reg):
        game, _ = random_lq_game(rng, T=3)
        traj = rollout(game, game.initial_state, np.zeros((4, game.total_action_dim)))
        with pytest.raises(ValueError, match="stage_reg"):
            stagewise_newton_backward(game, traj, stage_reg=stage_reg)

    @pytest.mark.parametrize("tols", [dict(feas_tol=np.nan), dict(active_tol=np.nan),
                                      dict(active_tol=-1e-3)])
    def test_nan_or_negative_tolerances_are_rejected(self, tols):
        # player 0 at its upper bound and player 1 at zero: both pinned
        game = fishery_game(FisheryParams(horizon_time=1.0))
        ref = rollout(game, game.initial_state, np.tile([0.4, 0.0], (11, 1)))
        policy = stagewise_newton_backward(game, ref, stage_reg=0.1)
        np.testing.assert_array_equal(policy.gains[0], np.zeros((2, 1)))
        with pytest.raises(ValueError, match="must be nonnegative"):
            stagewise_newton_backward(game, ref, stage_reg=0.1, **tols)

    def test_value_matrices_symmetric_and_terminal_zero(self, rng):
        game, _ = random_lq_game(rng, T=4)
        ref = rollout(game, game.initial_state,
                      rng.standard_normal((5, game.total_action_dim)))
        policy = stagewise_newton_backward(game, ref)
        assert np.all(policy.lam[:, -1] == 0.0)
        assert np.all(policy.omega[:, -1] == 0.0)
        for n in range(2):
            for k in range(5):
                np.testing.assert_allclose(policy.lam[n, k], policy.lam[n, k].T,
                                           atol=1e-12)

    def test_terminal_value_equals_substituted_stage_cost(self, rng):
        game, _ = random_lq_game(rng, T=2)
        ref = rollout(game, game.initial_state,
                      rng.standard_normal((3, game.total_action_dim)))
        policy = stagewise_newton_backward(game, ref)
        k = 2  # terminal stage: V = 0.5 [1, dx]' Lam [1, dx]
        for _ in range(5):
            dx = rng.standard_normal(2)
            du = policy.gains[k] @ dx + policy.offsets[k]
            z = np.concatenate([[1.0], dx, du])
            direct = 0.5 * z @ policy.gamma[k][0] @ z
            via_lam = 0.5 * np.concatenate([[1.0], dx]) @ policy.lam[0, k] @ \
                np.concatenate([[1.0], dx])
            assert direct == pytest.approx(via_lam, rel=1e-10, abs=1e-12)

    def test_fixed_point_at_equality_constrained_equilibrium(self, rng):
        game, lq, rows, ref, _ = equality_constrained_lq_instance(rng)
        policy = stagewise_newton_backward(game, ref, feas_tol=1e-6)
        for k in range(game.horizon + 1):
            assert np.max(np.abs(policy.offsets[k]), initial=0.0) <= 1e-10

    def test_newton_solver_reaches_stationarity_on_lq(self, rng):
        game, _ = random_lq_game(rng, T=4)
        init = rollout(game, game.initial_state,
                       np.zeros((5, game.total_action_dim)))
        traj, iters = solve_unconstrained_newton(game, init, tol=1e-10)
        assert iters <= 40
        g = pseudo_gradient(game, traj)
        assert np.max(np.abs(g.stacked)) <= 1e-8

    def test_newton_solver_fast_on_separable_game(self, rng):
        # Player-separable costs and dynamics: stage solves decouple and the
        # sweep contracts superlinearly once near the solution.
        game, _ = decoupled_lq_game(rng, T=5)
        init = rollout(game, game.initial_state, np.zeros((6, 2)))
        traj, iters = solve_unconstrained_newton(game, init, tol=1e-9)
        assert iters <= 8
        assert np.max(np.abs(pseudo_gradient(game, traj).stacked)) <= 1e-9

    def test_newton_stops_at_the_first_pass_with_a_non_finite_state(self, monkeypatch):
        # The first Newton step asks for u = 1000 and exp(1000) overflows.
        # With analytic derivatives nothing else fails on the non-finite
        # state, so a solver that kept going would spend every pass on NaN.
        game = GameDefinition(
            horizon=3, state_dim=1, action_dims=(1,), initial_state=[0.0],
            dynamics=lambda k, x, u: np.exp(u),
            stage_costs=lambda k, x, u: np.array([0.5 * (u[0] - 1000.0) ** 2]),
            dynamics_jacobians=lambda k, x, u: (np.zeros((1, 1)), np.exp(u)[None, :]),
            dynamics_hessians=lambda k, x, u: np.array([[[0.0, 0.0], [0.0, np.exp(u[0])]]]),
            cost_gradients=lambda k, x, u: (np.zeros((1, 1)), (u - 1000.0)[None, :]),
            cost_hessians=lambda k, x, u: (np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
                                           np.ones((1, 1, 1))))
        passes = []
        backward = feedback.stagewise_newton_backward

        def counted(*args, **kwargs):
            passes.append(1)
            return backward(*args, **kwargs)

        monkeypatch.setattr(feedback, "stagewise_newton_backward", counted)
        init = rollout(game, game.initial_state, np.zeros((4, 1)))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as exc:
            solve_unconstrained_newton(game, init, max_iter=50)
        assert exc.value.stage == 0
        assert len(passes) == 1


class TestFeedbackRollout:
    def test_reference_state_reproduces_reference(self, rng):
        game, _ = random_lq_game(rng, T=4)
        ref = rollout(game, game.initial_state,
                      rng.standard_normal((5, game.total_action_dim)))
        policy = stagewise_newton_backward(game, ref)
        # zero the offsets so the policy replays the reference exactly
        for k in range(5):
            policy.offsets[k] = np.zeros_like(policy.offsets[k])
        out = feedback_rollout(game, policy, ref.states[0])
        np.testing.assert_allclose(out.trajectory.states, ref.states, atol=1e-9)
        np.testing.assert_allclose(out.trajectory.actions, ref.actions, atol=1e-9)

    def test_linear_deviation_propagates_through_closed_loop(self, rng):
        game, lq = random_lq_game(rng, T=4)
        ref = stacked_lq_gne(game, lq, [])
        policy = stagewise_newton_backward(game, ref)
        dx0 = np.array([0.01, -0.02])
        out = feedback_rollout(game, policy, ref.states[0] + dx0)
        dx = dx0.copy()
        for k in range(5):
            np.testing.assert_allclose(out.trajectory.states[k] - ref.states[k],
                                       dx, atol=1e-9)
            if k < 4:
                dx = (lq["A"][k] + lq["B"][k] @ policy.gains[k]) @ dx

    def test_violations_are_recorded_not_fatal(self, rng):
        game, lq, rows, ref, _ = equality_constrained_lq_instance(rng)
        policy = stagewise_newton_backward(game, ref)
        out = feedback_rollout(game, policy, ref.states[0] + 5.0)
        assert out.constraint_violations.shape == (game.horizon + 1,)


@functools.lru_cache(maxsize=None)
def rollout_case(name):
    """(game, policy) for the batch property: batch hooks, stacked fallback, rows."""
    rng = np.random.default_rng(11)
    if name == "fishery":
        game = fishery_game(FisheryParams(horizon_time=1.0))
        ref = rollout(game, game.initial_state, rng.uniform(0.05, 0.25, (11, 2)))
        return game, stagewise_newton_backward(game, ref, feas_tol=np.inf, stage_reg=0.1)
    if name == "lq":
        game, _ = random_lq_game(rng, T=5, state_dim=3, action_dims=(2, 1))
        ref = rollout(game, game.initial_state, rng.standard_normal((6, 3)))
    else:
        game, _, _, ref, _ = equality_constrained_lq_instance(rng)
    return game, stagewise_newton_backward(game, ref)


def overflowing_game(T=4):
    """x+ = x^20: finite from |x| <= 1, overflows at stage 2 from x = 2."""
    game = GameDefinition(
        horizon=T, state_dim=1, action_dims=(1,), initial_state=[1.0],
        dynamics=lambda k, x, u: x**20, stage_costs=lambda k, x, u: np.zeros(1))
    zeros = [np.zeros((1, 1))] * (T + 1)
    policy = FeedbackPolicy(reference=Trajectory(np.ones((T + 1, 1)), np.zeros((T + 1, 1))),
                            gains=zeros, offsets=[np.zeros(1)] * (T + 1), lam=None,
                            omega=None, gamma=None, action_dims=(1,))
    return game, policy


class TestBatchedFeedbackRollout:
    @given(case=st.sampled_from(["fishery", "lq", "constrained"]),
           n_runs=st.integers(1, 6), start_frac=st.floats(0.0, 1.0),
           with_noise=st.booleans(), one_dim=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_single_start_oracle(self, case, n_runs, start_frac, with_noise,
                                               one_dim, seed):
        game, policy = rollout_case(case)
        T, n_x = game.horizon, game.state_dim
        start = int(round(start_frac * T))
        rng = np.random.default_rng(seed)
        scale = 1.0 + float(np.max(np.abs(policy.reference.states)))
        starts = policy.reference.states[start] + 0.05 * scale * rng.standard_normal((n_runs, n_x))
        noise = (0.02 * scale * rng.standard_normal((n_runs, T - start, n_x))
                 if with_noise else None)
        if one_dim and n_runs == 1:
            out = feedback_rollout(game, policy, starts[0], start=start,
                                   noise=None if noise is None else noise[0])
            assert out.states.shape == (T - start + 1, n_x)
            assert out.constraint_violations.shape == (T - start + 1,)
            assert out.trajectory.horizon == T - start
            got = [(out.states, out.actions, out.constraint_violations)]
        else:
            out = feedback_rollout(game, policy, starts, start=start, noise=noise)
            assert out.states.shape == (n_runs, T - start + 1, n_x)
            got = zip(out.states, out.actions, out.constraint_violations)
        for b, mine in enumerate(got):
            oracle = feedback_rollout_per_stage(game, policy, starts[b], start=start,
                                                noise=None if noise is None else noise[b])
            for m, r in zip(mine, oracle):
                np.testing.assert_allclose(
                    m, r, rtol=1e-12, atol=1e-12 * (1.0 + float(np.max(np.abs(r)))))

    def test_batch_has_no_single_trajectory(self):
        game, policy = rollout_case("lq")
        out = feedback_rollout(game, policy, np.tile(policy.reference.states[0], (2, 1)))
        with pytest.raises(ValueError, match="batch"):
            out.trajectory

    def test_non_finite_state_names_first_stage(self):
        game, policy = overflowing_game()
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as exc:
            feedback_rollout(game, policy, np.array([2.0]))
        # 2^20 and 2^400 are finite; stage 2 produces 2^8000 = inf
        assert (exc.value.stage, exc.value.run) == (2, None)

    def test_non_finite_state_names_first_stage_then_first_run(self):
        game, policy = overflowing_game()
        starts = np.array([[1.0], [2.0], [1.5], [1e20]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError,
                                                       match="run 3") as exc:
            feedback_rollout(game, policy, starts)
        assert (exc.value.stage, exc.value.run) == (0, 3)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as exc:
            feedback_rollout(game, policy, starts[:3])
        assert (exc.value.stage, exc.value.run) == (2, 1)

    def test_wrong_shapes_are_rejected(self):
        game, policy = rollout_case("lq")
        x0 = policy.reference.states[0]
        with pytest.raises(DimensionError, match="start states"):
            feedback_rollout(game, policy, x0[:2])
        with pytest.raises(DimensionError, match="noise"):
            feedback_rollout(game, policy, x0, noise=np.zeros((game.horizon + 1, 3)))
        with pytest.raises(DimensionError, match="noise"):
            feedback_rollout(game, policy, np.tile(x0, (2, 1)),
                             noise=np.zeros((game.horizon, 3)))
        with pytest.raises(ValueError, match="start stage"):
            feedback_rollout(game, policy, x0, start=game.horizon + 1)

    def test_wrong_shaped_batch_hooks_are_rejected(self):
        game, policy = rollout_case("fishery")
        starts = np.tile(policy.reference.states[0], (3, 1))
        flat = dataclasses.replace(game, batch_dynamics=lambda k, X, U: X[:, 0])
        with pytest.raises(DimensionError, match="batch dynamics"):
            feedback_rollout(flat, policy, starts)
        flat = dataclasses.replace(game, batch_constraints=lambda k, X, U: U.ravel())
        with pytest.raises(DimensionError, match="batch constraints"):
            feedback_rollout(flat, policy, starts)


def oracle_gap(inst, lq, policy, player, start, x_start):
    """``dense_best_response_gap`` on the partially tightened rows of ``inst``."""
    T = inst.tight.horizon
    rows = shift_rows(inst.rows, inst.gamma, True)
    C = cost_blocks_from_lq(lq, 2, T, 2, 2)[player]
    ref = policy.reference
    return dense_best_response_gap(
        lq["A"], lq["B"], lq["b"], C, [rows.get(k) for k in range(T + 1)],
        policy.gains, policy.offsets, ref.states, ref.actions,
        inst.tight.action_slice(player), start, x_start)


def shifted_own_action_cost(lq, player, shifts):
    """Copy of ``lq`` with the player's own-action curvature at stage k moved by shifts[k]."""
    R = [list(per_player) for per_player in lq["R"]]
    for k, shift in enumerate(shifts):
        R[player][k] = R[player][k].copy()
        R[player][k][player, player] += shift
    return dict(lq, R=R)


class TestEpsilonGap:
    def test_zero_gap_at_reference(self, rng):
        inst = tightened_two_player_instance(rng)
        policy = stagewise_newton_backward(inst.tight, inst.ref, feas_tol=1e-6)
        for n in range(2):
            gap = epsilon_nash_gap(inst.partial, policy, n, 0, inst.ref.states[0])
            assert abs(gap) <= 1e-8

    def test_gap_nonnegative_for_perturbations(self, rng):
        inst = tightened_two_player_instance(rng)
        policy = stagewise_newton_backward(inst.tight, inst.ref, feas_tol=1e-6)
        for _ in range(6):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            x0 = inst.ref.states[0] + 1e-2 * d
            for n in range(2):
                gap = epsilon_nash_gap(inst.partial, policy, n, 0, x0)
                assert gap >= -1e-9

    def test_gap_with_a_row_at_every_stage_of_a_long_horizon(self, rng):
        # 21 horizon-wide rows in the best response: more than an active-set
        # enumeration can visit (2^21 subsets)
        T = 20
        inst = tightened_two_player_instance(rng, T=T, con_stages=range(T + 1))
        policy = stagewise_newton_backward(inst.tight, inst.ref, feas_tol=1e-6)
        x_ref = inst.ref.states[0]
        for n in range(2):
            assert abs(epsilon_nash_gap(inst.partial, policy, n, 0, x_ref)) <= 1e-8
        for _ in range(3):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            for n in range(2):
                assert epsilon_nash_gap(inst.partial, policy, n, 0, x_ref + 1e-2 * d) >= -1e-9

    def test_active_row_held_exactly_along_policy_rollout(self, rng):
        inst = tightened_two_player_instance(rng)
        policy = stagewise_newton_backward(inst.tight, inst.ref, feas_tol=1e-6)
        k = 2
        W, S, p, _ = inst.rows[k]
        for eps in (1e-3, 1e-2):
            out = feedback_rollout(inst.tight, policy, inst.ref.states[0] + eps / np.sqrt(2))
            x, u = out.trajectory.states[k], out.trajectory.actions[k]
            val = W[0] @ x + S[0] @ u + p[0]
            assert val == pytest.approx(-inst.gamma, abs=1e-8)

    def test_player_outside_range_is_rejected(self, rng):
        inst = tightened_two_player_instance(rng)
        policy = stagewise_newton_backward(inst.tight, inst.ref, feas_tol=1e-6)
        for player in (2, -1):
            with pytest.raises(ValueError, match=f"player {player} outside 0..1"):
                epsilon_nash_gap(inst.partial, policy, player, 0, inst.ref.states[0])

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 8),
           con=st.lists(st.integers(0, 8), max_size=4, unique=True),
           loose=st.lists(st.integers(0, 8), max_size=2, unique=True),
           start_frac=st.floats(0.0, 1.0), player=st.integers(0, 1),
           eps=st.floats(0.0, 0.05))
    def test_matches_dense_condensing(self, seed, T, con, loose, start_frac, player, eps):
        rng = np.random.default_rng(seed)
        inst = tightened_two_player_instance(rng, T=T, con_stages=con, loose_stages=loose)
        policy = stagewise_newton_backward(inst.tight, inst.ref, feas_tol=1e-6)
        start = int(start_frac * T + 0.5)
        d = rng.standard_normal(2)
        x0 = inst.ref.states[0] + eps * d / np.linalg.norm(d)
        x_start = feedback_rollout(inst.partial, policy, x0).states[start]
        gap = epsilon_nash_gap(inst.partial, policy, player, start, x_start)
        ref_gap, J_policy, _ = oracle_gap(inst, inst.lq, policy, player, start, x_start)
        assert abs(gap - ref_gap) <= 1e-9 * (1.0 + abs(J_policy))

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 6), player=st.integers(0, 1))
    def test_convexity_verdict_matches_condensed_hessian(self, seed, T, player):
        # Shifting the player's own-action curvature by up to -3 at about half
        # the stages makes some best responses nonconvex.
        rng = np.random.default_rng(seed)
        inst = tightened_two_player_instance(rng, T=T)
        policy = stagewise_newton_backward(inst.tight, inst.ref, feas_tol=1e-6)
        shifts = np.where(rng.random(T + 1) < 0.5, rng.uniform(-3.0, 0.0, T + 1), 0.0)
        lq = shifted_own_action_cost(inst.lq, player, shifts)
        game = affine_quadratic_game(lq, inst.ref.states[0],
                                     shift_rows(inst.rows, inst.gamma, True))
        x0 = inst.ref.states[0]
        ref_gap, J_policy, eigmin = oracle_gap(inst, lq, policy, player, 0, x0)
        assume(abs(eigmin) >= 1e-9)
        if eigmin < 0.0:
            with pytest.raises(SubproblemError, match=rf"player {player} .*stage \d+"):
                epsilon_nash_gap(game, policy, player, 0, x0)
        else:
            gap = epsilon_nash_gap(game, policy, player, 0, x0)
            assert abs(gap - ref_gap) <= 1e-9 * (1.0 + abs(J_policy))

    def test_zero_terminal_own_action_cost_is_rejected(self, rng):
        inst = tightened_two_player_instance(rng)
        policy = stagewise_newton_backward(inst.tight, inst.ref, feas_tol=1e-6)
        T = inst.tight.horizon
        for n in range(2):
            lq = shifted_own_action_cost(inst.lq, n, [0.0] * T + [-inst.lq["R"][n][T][n, n]])
            game = affine_quadratic_game(lq, inst.ref.states[0],
                                         shift_rows(inst.rows, inst.gamma, True))
            with pytest.raises(SubproblemError, match=f"player {n} .*stage {T}"):
                epsilon_nash_gap(game, policy, n, 0, inst.ref.states[0])

    def test_long_horizon_with_a_row_every_fifth_stage(self, rng):
        # Rows at every stage make this instance's closed-loop rollout diverge.
        T = 1000
        inst = tightened_two_player_instance(rng, T=T, con_stages=range(0, T + 1, 5))
        policy = stagewise_newton_backward(inst.tight, inst.ref, feas_tol=1e-6)
        x_ref = inst.ref.states[0]
        for n in range(2):
            assert abs(epsilon_nash_gap(inst.partial, policy, n, 0, x_ref)) <= 1e-8
        d = rng.standard_normal(2)
        x_start = x_ref + 1e-2 * d / np.linalg.norm(d)
        assert epsilon_nash_gap(inst.partial, policy, 1, 0, x_start) >= -1e-9
        tracemalloc.start()
        try:
            gap = epsilon_nash_gap(inst.partial, policy, 0, 0, x_start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap >= -1e-9
        # every array is O(T): the dense condensed Hessian alone would take
        # 8 (T + 1)^2 bytes
        assert peak < 8 * (T + 1) ** 2

    def test_open_loop_certificate(self, rng):
        # The open-loop replay of an equilibrium (zero gains and offsets) has
        # no best-response gap; moving one opponent's actions opens one.
        game, lq, rows = cross_scheme_lq_instance(rng)
        olne = stacked_lq_gne(game, lq, rows)
        policy = stagewise_newton_backward(game, olne)
        replay = dataclasses.replace(policy, gains=[np.zeros_like(K) for K in policy.gains],
                                     offsets=[np.zeros_like(s) for s in policy.offsets])
        for n in range(2):
            assert abs(epsilon_nash_gap(game, replay, n, 0, olne.states[0])) <= 1e-8
        moved = olne.actions.copy()
        moved[3:, 1] += 0.5  # after the row at stage 2, so the rollout stays feasible
        gap = epsilon_nash_gap(game, dataclasses.replace(replay, reference=Trajectory(
            olne.states, moved)), 0, 0, olne.states[0])
        assert gap > 1e-4
