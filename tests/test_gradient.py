"""Pseudo-gradient backward pass against finite-difference oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyngames import gradient
from dyngames.benchmarks import FisheryParams, fishery_game, lq_rendezvous_game
from dyngames.errors import InfeasibleTrajectoryError
from dyngames.gradient import (
    HESSIAN_EIG_TOL,
    VERDICT_BLOCKED,
    VERDICT_CONVEX,
    VERDICT_INDETERMINATE,
    estimate_operator_constants,
    playerwise_minimizer_check,
    pseudo_gradient,
    solve_costates,
)
from dyngames.model import (GameDefinition, LqGameData, PaddedRows, Trajectory,
                            all_player_costs, quadraticize, rollout)

from conftest import identity_sum_game, random_lq_game, random_smooth_game
from instances import fishery_off_its_dynamics
from oracles import (
    costate_recursion,
    dense_reduced_min_eig,
    exact_own_block_hessian,
    fd_own_block_hessian,
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
            manual = pg.own[:, game.action_slice(n)].reshape(-1)
            np.testing.assert_allclose(pg.block(n), manual)
        np.testing.assert_array_equal(pg.stacked, np.concatenate([pg.block(0), pg.block(1)]))

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
        for v in playerwise_minimizer_check(game, traj):
            if v.min_reduced_eig is None:  # not stationary to the check's tolerance
                assert v.flags == ("nonzero-gradient-unconstrained",)
                continue
            H = fd_own_block_hessian(game, traj, v.player)
            lam, scale = float(np.min(np.linalg.eigvalsh(H))), float(np.max(np.abs(H)))
            # a stage pivot's eigenvalue, not the Hessian's: only the signs agree
            assert (v.min_reduced_eig > 0.0) == (lam > 0.0) or abs(lam) <= 1e-6 * (1.0 + scale)
            convex = lam >= -HESSIAN_EIG_TOL * (1.0 + scale)
            assert v.verdict == (VERDICT_CONVEX if convex else VERDICT_INDETERMINATE)
            assert v.flags == (() if convex else ("negative-curvature",))


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
        a, b = fast.stacked, slow.stacked
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
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

    def test_curvature_carried_by_the_dynamics_hessian_alone(self):
        # x_1 = x_0 + cos u_0 with costs u_k^2 / 2 and 2 x_1 at the terminal
        # stage: at u = 0 the cost blocks alone give +1, but the costate 2
        # times cos'' = -1 makes d^2 J / du_0^2 = 1 - 2 = -1.
        game = GameDefinition(
            horizon=1, state_dim=1, action_dims=(1,), initial_state=[0.0],
            dynamics=lambda k, x, u: x + np.cos(u),
            stage_costs=lambda k, x, u: np.array([0.5 * u[0] ** 2 + 2.0 * k * x[0]]))
        [v] = playerwise_minimizer_check(game, rollout(game, game.initial_state,
                                                       np.zeros((2, 1))))
        assert v.verdict == VERDICT_INDETERMINATE and v.flags == ("negative-curvature",)
        assert v.min_reduced_eig == pytest.approx(-1.0, abs=1e-8)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["fishery", "rendezvous", "random_lq_state_rows",
                                  "random_smooth"])
def test_exact_own_block_hessian_matches_finite_differences(name, seed):
    rng = np.random.default_rng(seed)
    if name == "fishery":  # T = 20, some actions on their bounds
        params = FisheryParams(horizon_time=2.0)
        game = fishery_game(params)
        u = rng.uniform(0.0, 1.0, (game.horizon + 1, 2))
        u[rng.random(u.shape) < 0.3] = 1.0
        u *= [params.u1_max, params.u2_max]
    elif name == "rendezvous":
        game = lq_rendezvous_game()
        u = 1.5 * rng.standard_normal((game.horizon + 1, game.total_action_dim))
    elif name == "random_lq_state_rows":
        game, _ = random_lq_game(rng, T=4, state_dim=2, action_dims=(1, 2),
                                 constraints=lambda k, x, u: np.array(
                                     [u[0] - 5.0, x[0] + u[1] - 50.0]))
        u = rng.standard_normal((5, 3))
    else:
        game = random_smooth_game(rng, T=4)
        u = 0.3 * rng.standard_normal((5, game.total_action_dim))
    traj = rollout(game, game.initial_state, u)
    data = quadraticize(game, traj)
    for n in range(game.num_players):
        want = fd_own_block_hessian(game, traj, n)
        dz = gradient._sensitivities(data, np.flatnonzero(np.tile(game.owner == n,
                                                                  game.horizon + 1)))
        for got in (gradient._cost_hessian(data, n, dz), exact_own_block_hessian(game, data, n)):
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def random_curvature_case(rng, T, n_x, action_dims):
    """A local LQ game whose curvature tests need the whole pass.

    Each player's own-action block is, stage by stage, left positive
    definite, made indefinite, or removed with the player's own cross
    terms (and, at random, its dynamics columns), so the Hessian is exactly
    singular along it; at least one stage is one of the last two.  The
    costate-weighted dynamics Hessians are random.  Every stage has up to
    two rows, state-only, action-only or mixed, the second at times a
    multiple of the first, and about 60% of them active; an action-only row
    at a random stage and a state-only row at stage T, carried back through
    every stage, always are.
    """
    T1, n_u, N = T + 1, sum(action_dims), len(action_dims)
    n_z = n_x + n_u
    game = GameDefinition(horizon=T, state_dim=n_x, action_dims=action_dims,
                          initial_state=np.zeros(n_x), dynamics=None, stage_costs=None)
    A = np.eye(n_x) + 0.5 * rng.standard_normal((T, n_x, n_x))
    B = rng.standard_normal((T, n_x, n_u))
    R = rng.standard_normal((N, T1, n_z, n_z))
    C = R @ R.swapaxes(2, 3) / n_z
    for n in range(N):
        own = slice(n_x + game.action_offsets[n], n_x + game.action_offsets[n + 1])
        modes = rng.integers(0, 4, T1)
        modes[rng.integers(T1)] = rng.integers(1, 3)
        for k, mode in enumerate(modes):
            if mode == 1:
                C[n, k, own, own] -= rng.uniform(0.0, 3.0) * np.eye(own.stop - own.start)
            elif mode == 2:
                C[n, k, own], C[n, k, :, own] = 0.0, 0.0
                if k < T:
                    B[k][:, own.start - n_x:own.stop - n_x] *= rng.integers(2)
    G = rng.standard_normal((T, n_x, n_z, n_z)) * rng.uniform(0.0, 0.5)
    counts = rng.integers(0, 3, T1)
    real = np.arange(counts.max() + 2) < counts[:, None]
    real[rng.integers(T1), -2] = real[T, -1] = True  # the two rows always there
    rows = rng.standard_normal(real.shape + (n_z,)) * real[..., None]
    kind = rng.integers(0, 3, real.shape)
    kind[:, -2:] = [1, 0]
    rows[kind == 0, n_x:] = 0.0  # state-only
    rows[kind == 1, :n_x] = 0.0  # action-only
    again = (counts >= 2) & (rng.random(T1) < 0.2)
    rows[again, 1] = rows[again, 0] * rng.choice([1.0, -2.0])
    data = LqGameData(A=A, B=B, b=np.zeros((T, n_x)), C=C, c=rng.standard_normal((N, T1, n_z)),
                      action_dims=action_dims, initial_state=np.zeros(n_x),
                      G=0.5 * (G + G.swapaxes(2, 3)),
                      rows=PaddedRows(rows, np.zeros(real.shape), real, n_x),
                      active=real & (rng.random(real.shape) < 0.6))
    data.active[:, -2:] = real[:, -2:]
    return game, data


@settings(max_examples=1500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(0, 5), n_x=st.integers(1, 3),
       action_dims=st.sampled_from([(1,), (2,), (1, 1), (2, 1), (1, 2, 1)]))
# a state row left at rounding level (singular value 2e-15) was carried to
# stage 0 and pinned a free direction: player 1 passed at least eigenvalue -0.033
@example(seed=114180, T=4, n_x=1, action_dims=(1, 2, 1))
def test_convexity_pass_verdict_matches_the_dense_reduced_hessian(seed, T, n_x, action_dims):
    game, data = random_curvature_case(np.random.default_rng(seed), T, n_x, action_dims)
    for n in range(len(action_dims)):
        M = gradient._stage_hessians(data, n)
        scale = 1.0 + float(np.max(np.abs(M)))
        shift = HESSIAN_EIG_TOL * scale
        failed, lam = gradient._convexity_pass(M, data.A, data.B, game.action_slice(n),
                                               rows=data.rows.G, pinned=data.active,
                                               shift=shift)
        want = dense_reduced_min_eig(game, data, n)
        if want is None:  # the active rows pin every direction
            assert failed is None and lam is None
        elif abs(want + shift) > 1e-9 * scale:  # off the semidefinite boundary
            assert (failed is None) == (want > -shift)


def test_curvature_verdict_factors_only_stage_sized_matrices(monkeypatch):
    # T = 400 with about a third of the actions on their bounds; both players
    # run the curvature test.  The dense route factored matrices of hundreds of rows.
    params = FisheryParams(horizon_time=40.0)
    game = fishery_game(params)
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 1.0, (game.horizon + 1, 2))
    u[rng.random(u.shape) < 0.3] = 1.0
    u *= [params.u1_max, params.u2_max]
    traj = rollout(game, game.initial_state, u)
    m = quadraticize(game, traj).rows.p.shape[1]
    sizes = []
    for name in ("svd", "eigh", "eigvalsh", "solve"):
        def wrapped(a, *args, _f=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-2])
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)
    monkeypatch.setattr(gradient, "STATIONARITY_RTOL", np.inf)
    verdicts = playerwise_minimizer_check(game, traj)
    assert all(v.min_reduced_eig is not None for v in verdicts)
    assert sizes and max(sizes) <= game.state_dim + game.total_action_dim + m
