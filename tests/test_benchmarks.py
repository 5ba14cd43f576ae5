"""Built-in benchmark games: constants, derivatives, noise harness."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dyngames.benchmarks import (
    FisheryParams,
    LqRendezvousParams,
    cumulative_profits,
    fishery_game,
    lq_rendezvous_game,
    noise_comparison,
    rendezvous_residual,
)
from dyngames.errors import DimensionError, NonFiniteStateError
from dyngames.feedback import FeedbackPolicy, stagewise_newton_backward
from dyngames import model
from dyngames.model import GameDefinition, Trajectory, rollout, total_cost
from dyngames.projgrad import ProjGradConfig, project_onto_feasible, projected_gradient_solve
from dyngames.splitting import DrConfig, dr_solve

from conftest import stage_runs
from instances import RENDEZVOUS_VARIANTS, equality_constrained_lq_instance
from oracles import fishery_euler_step, fishery_stage_projection, rendezvous_stage_projection


_effort = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def fishery_cases(draw):
    """Parameters, stocks and efforts; efforts free, on a bound or beyond one."""
    u_max = (draw(st.sampled_from([0.3, 0.4, 1.0])), draw(st.sampled_from([0.2, 0.3])))
    params = FisheryParams(u1_max=u_max[0], u2_max=u_max[1],
                           horizon_time=0.1 * draw(st.integers(1, 6)))
    T1 = params.n_stages + 1
    states = np.array(draw(st.lists(st.floats(0.0, 150.0), min_size=T1, max_size=T1)))
    columns = [draw(st.lists(st.one_of(_effort, st.sampled_from([0.0, m, -m, 2.0 * m])),
                             min_size=T1, max_size=T1)) for m in u_max]
    return params, states.reshape(T1, 1), np.column_stack(columns)


@st.composite
def fishery_rollout_cases(draw):
    """Parameters, a start stock and T or T+1 effort rows, inside and beyond the bounds."""
    params = FisheryParams(horizon_time=0.1 * draw(st.integers(1, 8)))
    rows = params.n_stages + draw(st.integers(0, 1))
    x0 = np.array([draw(st.floats(-50.0, 200.0))])
    efforts = st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, 0.3, 0.4]))
    controls = draw(st.lists(efforts, min_size=2 * rows, max_size=2 * rows))
    return params, x0, np.array(controls).reshape(rows, 2)


class TestFisheryGame:
    def test_stage_count(self):
        assert FisheryParams().n_stages == 1000
        assert FisheryParams(horizon_time=2.0).n_stages == 20

    @pytest.mark.parametrize("bad", [{"r": np.nan}, {"x0": np.nan}, {"e1": np.inf},
                                     {"e2": -np.inf}, {"q2": 0.0},
                                     {"dt": np.nan}, {"u1_max": 0.0}])
    def test_bad_params_are_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            FisheryParams(**bad)

    def test_growth_peaks_at_half_capacity(self):
        game = fishery_game(FisheryParams(horizon_time=0.1))
        nxt = game.eval_dynamics(0, np.array([100.0]), np.zeros(2))
        assert nxt[0] == pytest.approx(100.8, abs=1e-12)

    def test_extinction_is_absorbing(self):
        game = fishery_game(FisheryParams(horizon_time=1.0))
        traj = rollout(game, np.array([0.0]), np.full((10, 2), 0.3))
        assert np.all(traj.states == 0.0)

    def test_bionomic_levels(self):
        lv = FisheryParams().bionomic_levels
        assert lv[0] == pytest.approx(90.0)
        assert lv[1] == pytest.approx(110.0)
        game = fishery_game(FisheryParams(horizon_time=0.1))
        for n, level in enumerate(lv):
            c = game.eval_costs(0, np.array([level]), np.array([0.3, 0.3]))
            assert c[n] == pytest.approx(0.0, abs=1e-12)

    def test_single_step_profit_value(self):
        game = fishery_game(FisheryParams(horizon_time=0.1))
        traj = Trajectory(np.array([[100.0], [100.0]]),
                          np.array([[0.4, 0.0], [0.0, 0.0]]))
        # player 1 cost is the negated profit (10 - 9) * 0.4 * 0.1
        assert total_cost(game, traj, 0, 0) == pytest.approx(-0.04, abs=1e-14)

    def test_analytic_derivatives_match_fd(self):
        params = FisheryParams(horizon_time=0.5)
        game = fishery_game(params)
        bare = GameDefinition(
            horizon=game.horizon, state_dim=1, action_dims=(1, 1),
            initial_state=game.initial_state,
            dynamics=game.dynamics, stage_costs=game.stage_costs,
            constraints=game.constraints)
        x = np.array([87.3])
        u = np.array([0.21, 0.17])
        A1, B1 = game.eval_dynamics_jacobians(1, x, u)
        A2, B2 = bare.eval_dynamics_jacobians(1, x, u)
        np.testing.assert_allclose(A1, A2, atol=1e-6)
        np.testing.assert_allclose(B1, B2, atol=1e-6)
        cx1, cu1 = game.eval_cost_gradients(1, x, u)
        cx2, cu2 = bare.eval_cost_gradients(1, x, u)
        np.testing.assert_allclose(cx1, cx2, atol=1e-7)
        np.testing.assert_allclose(cu1, cu2, atol=1e-7)
        G1 = game.eval_dynamics_hessians(1, x, u)
        G2 = bare.eval_dynamics_hessians(1, x, u)
        np.testing.assert_allclose(G1, G2, atol=2e-4)

    def test_trajectory_hooks_match_stage_evaluators(self):
        game = fishery_game(FisheryParams(horizon_time=0.5))
        traj = rollout(game, game.initial_state,
                       np.random.default_rng(0).uniform(0, 0.3, (6, 2)))
        C = game.traj_costs(traj.states, traj.actions)
        CX, CU = game.traj_cost_gradients(traj.states, traj.actions)
        AA, BB = game.traj_dynamics_jacobians(traj.states, traj.actions)
        assert C.shape == (6, 2) and CX.shape == (6, 2, 1) and CU.shape == (6, 2, 2)
        assert AA.shape == (5, 1, 1) and BB.shape == (5, 1, 2)
        for k in range(6):
            np.testing.assert_allclose(C[k], game.eval_costs(k, traj.states[k], traj.actions[k]))
            cx, cu = game.eval_cost_gradients(k, traj.states[k], traj.actions[k])
            np.testing.assert_allclose(CX[k], cx)
            np.testing.assert_allclose(CU[k], cu)
        for k in range(5):
            A, B = game.eval_dynamics_jacobians(k, traj.states[k], traj.actions[k])
            np.testing.assert_allclose(AA[k], A)
            np.testing.assert_allclose(BB[k], B)

    @given(fishery_rollout_cases())
    def test_rollout_hook_matches_per_stage_loop(self, case):
        params, x0, controls = case
        game = fishery_game(params)
        looped = rollout(dataclasses.replace(game, traj_rollout=None), x0, controls)
        assert np.array_equal(rollout(game, x0, controls).states, looped.states)

    @given(fishery_rollout_cases())
    def test_stock_map_matches_the_expanded_euler_step(self, case):
        # one step at a time, from the rolled-out stocks, so that no stage
        # compounds the rounding of the ones before it
        params, x0, controls = case
        game = fishery_game(params)
        traj = rollout(game, x0, controls)
        beta = params.r * params.dt / params.h**2
        fi = np.finfo(float)
        for k in range(game.horizon):
            x, u = traj.states[k, 0], traj.actions[k]
            a = 1.0 + params.dt * (2.0 * params.r / params.h - params.q1 * u[0] - params.q2 * u[1])
            # rounding scales with the terms of x (a - beta x), not with their
            # sum; below the normal range each operation rounds absolutely
            tol = 8.0 * (fi.eps * (abs(x) + abs(a * x) + beta * x * x) + fi.smallest_subnormal)
            got = game.eval_dynamics(k, traj.states[k], u)[0]
            assert abs(got - fishery_euler_step(params, x, u)) <= tol, (k, x, u)

    def test_three_dynamics_forms_agree(self):
        game = fishery_game(FisheryParams(horizon_time=2.0))
        rng = np.random.default_rng(3)
        T, B = game.horizon, 7
        U = rng.uniform(-0.2, 0.6, (B, T + 1, 2))
        per_stage = np.empty((B, T + 1, 1))
        batch = np.empty((B, T + 1, 1))
        per_stage[:, 0] = batch[:, 0] = rng.uniform(0.0, 150.0, (B, 1))
        for k in range(T):
            batch[:, k + 1] = game.eval_batch_dynamics(k, batch[:, k], U[:, k])
            for b in range(B):
                per_stage[b, k + 1] = game.eval_dynamics(k, per_stage[b, k], U[b, k])
        traj = np.stack([game.traj_rollout(per_stage[b, 0], U[b]) for b in range(B)])
        assert np.array_equal(batch, per_stage)
        assert np.array_equal(traj, per_stage[:, 1:])

    @pytest.mark.parametrize("effort, stage", [(400.0, 12), (1e300, 1)])
    def test_blow_up_names_the_same_stage_on_both_paths(self, effort, stage):
        game = fishery_game()
        controls = np.full((game.horizon + 1, 2), effort)
        for g in (game, dataclasses.replace(game, traj_rollout=None)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteStateError) as exc:
                rollout(g, game.initial_state, controls)
            assert exc.value.stage == stage

    def test_projector_clamps(self):
        game = fishery_game(FisheryParams(horizon_time=0.2))
        _, U = game.eval_traj_projection(None, np.tile([0.9, -0.2], (3, 1)))
        np.testing.assert_allclose(U, np.tile([0.4, 0.0], (3, 1)))

    @given(fishery_cases())
    def test_trajectory_projector_matches_stage_projector(self, case):
        params, states, actions = case
        game = fishery_game(params)
        X, U = game.traj_projector(states, actions)
        np.testing.assert_array_equal(X, states)
        for k in range(params.n_stages + 1):
            xk, uk = fishery_stage_projection(params, k, states[k], actions[k])
            np.testing.assert_allclose(X[k], xk, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(U[k], uk, rtol=1e-12, atol=1e-12)
        no_states, U_only = game.traj_projector(None, actions)
        assert no_states is None
        np.testing.assert_array_equal(U_only, U)
        # the action-only projection takes the hook without rolling out states
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dyngames.projgrad.rollout", None)
            np.testing.assert_array_equal(project_onto_feasible(game, actions), U)


_coord = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)


@st.composite
def rendezvous_cases(draw):
    """Parameters, states and actions; action blocks free, zero or on the ball."""
    T = draw(st.integers(0, 6))
    u_max = draw(st.sampled_from([0.5, 2.0, 3.0]))
    params = LqRendezvousParams(horizon=T, meet_stage=draw(st.integers(0, T)), u_max=u_max)
    states = np.array(draw(st.lists(_coord, min_size=6 * (T + 1),
                                    max_size=6 * (T + 1)))).reshape(T + 1, 6)
    on_ball = [(u_max, 0.0), (0.0, -u_max), (-u_max, 0.0), (0.0, u_max)]
    blocks = []
    for kind in draw(st.lists(st.sampled_from(["free", "zero", "ball"]),
                              min_size=3 * (T + 1), max_size=3 * (T + 1))):
        if kind == "free":
            blocks.append((draw(_coord), draw(_coord)))
        elif kind == "zero":
            blocks.append((0.0, 0.0))
        else:
            blocks.append(draw(st.sampled_from(on_ball)))
    return params, states, np.array(blocks, dtype=float).reshape(T + 1, 6)


class TestRendezvousGame:
    @pytest.mark.parametrize("bad, match", [
        ({"u_max": -1.0}, "u_max"), ({"u_max": 0.0}, "u_max"), ({"u_max": np.nan}, "u_max"),
        ({"u_max": np.inf}, "u_max"), ({"x0": (1.0, 1.0, np.nan, 0.0, 4.0, 0.0)}, "finite"),
        ({"targets": (np.inf,) * 6}, "finite"), ({"effort_weight": np.nan}, "finite")])
    def test_bad_params_are_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            LqRendezvousParams(**bad)

    @given(rendezvous_cases())
    def test_trajectory_hooks_match_stage_evaluators(self, case):
        params, states, actions = case
        game = lq_rendezvous_game(params)
        T = params.horizon
        C = game.traj_costs(states, actions)
        CX, CU = game.traj_cost_gradients(states, actions)
        X, U = game.traj_projector(states, actions)
        assert C.shape == (T + 1, 3) and X.shape == (T + 1, 6) and U.shape == (T + 1, 6)
        for k in range(T + 1):
            c = game.eval_costs(k, states[k], actions[k])
            np.testing.assert_allclose(C[k], c, rtol=1e-12, atol=1e-12)
            cx, cu = game.cost_gradients(k, states[k], actions[k])
            np.testing.assert_array_equal(CX[k], cx)
            np.testing.assert_array_equal(CU[k], cu)
            xk, uk = rendezvous_stage_projection(params, k, states[k], actions[k])
            np.testing.assert_allclose(X[k], xk, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(U[k], uk, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(np.delete(X, params.meet_stage, axis=0),
                                      np.delete(states, params.meet_stage, axis=0))
        no_states, U_only = game.traj_projector(None, actions)
        assert no_states is None
        np.testing.assert_array_equal(U_only, U)
        per_stage = dataclasses.replace(game, traj_dynamics_jacobians=None)
        for hooked, stacked in zip(game.eval_traj_dynamics_jacobians(states, actions),
                                   per_stage.eval_traj_dynamics_jacobians(states, actions)):
            np.testing.assert_array_equal(hooked, stacked)

    @given(rendezvous_cases())
    # a subnormal action norm: its reciprocal overflows, so it is read as the kink
    @example((LqRendezvousParams(horizon=0, u_max=0.5, meet_stage=0), np.zeros((1, 6)),
              np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 2.22507386e-313]])))
    def test_row_derivatives_match_finite_differences(self, case):
        params, states, actions = case
        game = lq_rendezvous_game(params)
        for k in range(params.horizon + 1):
            x, u = states[k], actions[k]

            def rows(z):
                return game.eval_constraints(k, z[:6], z[6:])

            z = np.concatenate([x, u])
            W, S, g = game.eval_constraint_rows(k, x, u)
            J, H = np.hstack([W, S]), game.eval_constraint_hessians(k, x, u)
            assert H.shape == (g.size, 12, 12) and np.all(np.isfinite(J))
            fd_J = model._fd_jacobian(rows, z, g.size, "constraint", k)
            fd_H = model._fd_hessian_vector(rows, z, g.size, "constraint", k)
            norms = np.hypot(u[0::2], u[1::2])
            # the ball rows away from their kink at u_n = 0, and the meeting rows
            smooth = np.concatenate([norms >= 0.5, np.ones(g.size - 3, dtype=bool)])
            np.testing.assert_allclose(J[smooth], fd_J[smooth], rtol=0, atol=1e-6)
            np.testing.assert_allclose(H[smooth], fd_H[smooth], rtol=0, atol=1e-4)
            # at u_n = 0 the ball row's gradient is a finite zero: the row is
            # -u_max there, never near active
            zero = np.flatnonzero(norms == 0.0)
            assert np.all(J[zero] == 0.0) and np.all(H[zero] == 0.0)
            np.testing.assert_array_equal(g[zero], -params.u_max)
            assert np.all(np.isfinite(H))
        assert np.all(np.isfinite(game.eval_traj_constraint_hessians(states, actions, 11)))

    def test_zero_actions_keep_states(self):
        game = lq_rendezvous_game()
        traj = rollout(game, game.initial_state, np.zeros((11, 6)))
        np.testing.assert_allclose(traj.states, np.tile(game.initial_state, (11, 1)))

    def test_stage_cost_at_start(self):
        game = lq_rendezvous_game()
        c = game.eval_costs(0, game.initial_state, np.zeros(6))
        # player 1 distance (1,1) -> (4,12): 9 + 121 = 130
        assert c[0] == pytest.approx(130.0)

    def test_meeting_projector_takes_mean(self):
        game = lq_rendezvous_game()
        x = np.array([0.0, 0.0, 3.0, 3.0, 6.0, 6.0])
        X, _ = game.traj_projector(np.tile(x, (11, 1)), np.zeros((11, 6)))
        np.testing.assert_allclose(X[5], [3.0, 3.0] * 3)
        np.testing.assert_allclose(X[4], x)

    def test_ball_rows_and_projector(self):
        game = lq_rendezvous_game()
        u = np.concatenate([[3.0, 4.0], [0.1, 0.1], [0.0, 0.0]])
        g = game.eval_constraints(0, game.initial_state, u)
        assert g[0] == pytest.approx(3.0)  # |(3,4)| - 2
        _, U = game.traj_projector(None, np.tile(u, (11, 1)))
        assert np.linalg.norm(U[0, :2]) == pytest.approx(2.0)
        np.testing.assert_allclose(U[0, 2:], u[2:])

    def test_residual_of_met_trajectory_is_zero(self):
        game = lq_rendezvous_game()
        states = np.tile(game.initial_state, (11, 1))
        states[5] = np.tile([1.0, 2.0], 3)
        traj = Trajectory(states, np.zeros((11, 6)))
        assert rendezvous_residual(traj) == 0.0

    def test_residual_reads_the_games_own_meeting_stage(self):
        params = LqRendezvousParams(meet_stage=3)
        cfg = DrConfig(eta=1e-2)
        rep = dr_solve(lq_rendezvous_game(params), cfg)
        assert rep.termination == "tolerance"
        # the reported states are the rollout, whose meeting rows each hold
        # a coordinate gap to tol: two gaps of two coordinates each
        assert rendezvous_residual(rep.trajectory, params) <= 2 * np.sqrt(2) * cfg.tol
        assert rendezvous_residual(rep.trajectory) > 1.0  # stage 5, where they have not met


def per_stage_rows(game):
    """The game without its whole-trajectory row evaluators."""
    return dataclasses.replace(game, traj_constraint_rows=None, traj_constraint_hessians=None)


def rows_game(variant):
    """The fishery for None, else the rendezvous of a ``RENDEZVOUS_VARIANTS`` entry."""
    if variant is None:
        return fishery_game()
    T, meet, u_max, weight = variant
    return lq_rendezvous_game(LqRendezvousParams(
        horizon=T, meet_stage=meet, u_max=u_max, terminal_weight=weight))


ROW_MISFITS = [
    (lambda G, p, real: (G[:, :-1], p, real), "trajectory constraint Jacobians"),
    (lambda G, p, real: (G[..., :-1], p, real), "trajectory constraint Jacobians"),
    (lambda G, p, real: (G, p[:-1], real), "trajectory constraint values"),
    (lambda G, p, real: (G, p.ravel(), real), "trajectory constraint values"),
    (lambda G, p, real: (G, p, real[:, :-1]), "trajectory real-row mask")]


class TestWholeTrajectoryRows:
    @pytest.mark.parametrize("variant", [None] + RENDEZVOUS_VARIANTS)  # None: the fishery
    @pytest.mark.parametrize("seed", [0, 1])
    def test_match_the_per_stage_read_bit_for_bit(self, variant, seed):
        game = rows_game(variant)
        rng = np.random.default_rng(seed)
        T1, n_u = game.horizon + 1, game.total_action_dim
        states = 5.0 * rng.standard_normal((T1, game.state_dim))
        some_zero = 2.0 * rng.standard_normal((T1, n_u))
        some_zero[rng.random(T1) < 0.3] = 0.0
        # at a zero action each ball row's unit direction is defined as 0
        for actions in (some_zero, np.zeros((T1, n_u))):
            hooked = model.read_rows(game, states, actions)
            stacked = model.read_rows(per_stage_rows(game), states, actions)
            for name in ("G", "p", "real"):
                np.testing.assert_array_equal(getattr(hooked, name), getattr(stacked, name))
            if game.traj_constraint_hessians is not None:
                m = hooked.p.shape[1]
                np.testing.assert_array_equal(
                    game.eval_traj_constraint_hessians(states, actions, m),
                    per_stage_rows(game).eval_traj_constraint_hessians(states, actions, m))

    @pytest.mark.parametrize("variant", [None] + RENDEZVOUS_VARIANTS)  # None: the fishery
    @pytest.mark.parametrize("seed", [0, 1])
    def test_violation_reads_the_hook_as_the_stages_bit_for_bit(self, variant, seed):
        game = rows_game(variant)
        rng = np.random.default_rng(seed)
        T1, n_u = game.horizon + 1, game.total_action_dim
        states = 5.0 * rng.standard_normal((T1, game.state_dim))
        actions = 2.0 * rng.standard_normal((T1, n_u))

        def no_stage_read(k, x, u):
            raise AssertionError(f"per-stage constraints read at stage {k}")

        hooked = dataclasses.replace(game, constraints=no_stage_read)
        nan_actions = actions.copy()
        nan_actions[rng.integers(T1), rng.integers(n_u)] = np.nan
        for acts in (actions, np.zeros((T1, n_u))):
            traj = Trajectory(states, acts)
            assert (traj.constraint_violation(hooked)
                    == traj.constraint_violation(per_stage_rows(game)))
        # a NaN row gives NaN on both paths
        traj = Trajectory(states, nan_actions)
        assert np.isnan(traj.constraint_violation(hooked))
        assert np.isnan(traj.constraint_violation(per_stage_rows(game)))

    @pytest.mark.parametrize("misfit, what", ROW_MISFITS)
    def test_misshapen_rows_fail_the_violation_read(self, misfit, what):
        game = fishery_game(FisheryParams(horizon_time=1.0))
        rows = game.traj_constraint_rows
        bad = dataclasses.replace(game, traj_constraint_rows=lambda X, U: misfit(*rows(X, U)))
        traj = rollout(game, game.initial_state, np.full((11, 2), 0.1))
        with pytest.raises(DimensionError, match=what):
            traj.constraint_violation(bad)

    @pytest.mark.parametrize("misfit, what", ROW_MISFITS)
    def test_misshapen_rows_are_rejected(self, misfit, what):
        game = lq_rendezvous_game()
        rows = game.traj_constraint_rows
        bad = dataclasses.replace(game, traj_constraint_rows=lambda X, U: misfit(*rows(X, U)))
        traj = rollout(game, game.initial_state, np.ones((11, 6)))
        with pytest.raises(DimensionError, match=what):
            model.read_rows(bad, traj.states, traj.actions)

    @pytest.mark.parametrize("misfit", [lambda H: H[:, :-1], lambda H: H[..., :-1],
                                        lambda H: H[:-1]])
    def test_misshapen_hessians_are_rejected(self, misfit):
        game = lq_rendezvous_game()
        hess = game.traj_constraint_hessians
        bad = dataclasses.replace(game, traj_constraint_hessians=lambda X, U: misfit(hess(X, U)))
        traj = rollout(game, game.initial_state, np.ones((11, 6)))
        with pytest.raises(DimensionError, match="trajectory constraint Hessians"):
            bad.eval_traj_constraint_hessians(traj.states, traj.actions, 11)
        # a stage with more rows than the padded count, on the per-stage path
        with pytest.raises(DimensionError, match="at stage 5"):
            per_stage_rows(game).eval_traj_constraint_hessians(traj.states, traj.actions, 3)


def per_stage_hessians(game):
    """The game without its whole-trajectory cost and dynamics Hessians."""
    return dataclasses.replace(game, traj_cost_hessians=None, traj_dynamics_hessians=None)


class TestWholeTrajectoryHessians:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_the_per_stage_read_bit_for_bit(self, seed):
        game = fishery_game()
        rng = np.random.default_rng(seed)
        T1 = game.horizon + 1
        states = 100.0 * rng.random((T1, game.state_dim))
        actions = rng.uniform(-0.1, 0.5, (T1, game.total_action_dim))
        stacked = per_stage_hessians(game)
        for read in ("eval_traj_cost_hessians", "eval_traj_dynamics_hessians"):
            got = getattr(game, read)(states, actions)
            want = getattr(stacked, read)(states, actions)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # and against the per-stage hooks themselves, joined by hand
        cxx, cxu, cuu = game.cost_hessians(3, states[3], actions[3])
        np.testing.assert_array_equal(game.eval_traj_cost_hessians(states, actions)[3],
                                      np.block([[cxx, cxu], [cxu.swapaxes(1, 2), cuu]]))
        np.testing.assert_array_equal(game.eval_traj_dynamics_hessians(states, actions)[3],
                                      game.dynamics_hessians(3, states[3], actions[3]))

    @pytest.mark.parametrize("hook", ["traj_cost_hessians", "traj_dynamics_hessians"])
    @pytest.mark.parametrize("misfit", [lambda H: H[:-1], lambda H: H[:, :-1],
                                        lambda H: H[..., :-1], lambda H: H[0]])
    def test_misshapen_hessians_are_rejected(self, hook, misfit):
        game = fishery_game(FisheryParams(horizon_time=1.0))
        real = getattr(game, hook)
        bad = dataclasses.replace(game, **{hook: lambda X, U: misfit(real(X, U))})
        traj = rollout(game, game.initial_state, np.full((11, 2), 0.1))
        what = "trajectory cost" if hook == "traj_cost_hessians" else "trajectory dynamics"
        with pytest.raises(DimensionError, match=f"{what} Hessians"):
            model.quadraticize(bad, traj)

    def test_quadraticize_is_the_same_without_the_hooks(self):
        game = fishery_game(FisheryParams(horizon_time=10.0))
        rng = np.random.default_rng(3)
        traj = rollout(game, game.initial_state, rng.uniform(0.0, 0.3, (101, 2)))
        got = model.quadraticize(game, traj)
        want = model.quadraticize(per_stage_hessians(game), traj)
        for name in ("A", "B", "b", "C", "c", "G", "initial_state", "active"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        for name in ("G", "p", "real"):
            np.testing.assert_array_equal(getattr(got.rows, name), getattr(want.rows, name))


class TestNoiseComparison:
    @staticmethod
    def solved_fishery(tmp_factor=1.0):
        params = FisheryParams(horizon_time=5.0)
        game = fishery_game(params)
        cfg = ProjGradConfig(step_size=0.01, max_iter=150, tol=1e-12,
                             record_costs=False, run_checks=False)
        rep = projected_gradient_solve(game, np.zeros((game.horizon + 1, 2)), cfg)
        policy = stagewise_newton_backward(game, rep.trajectory, stage_reg=0.1).equilibrium_form()
        return params, game, rep.trajectory, policy

    def test_zero_noise_gives_zero_deviation(self):
        params, game, traj, policy = self.solved_fishery()
        cmp = noise_comparison(game, traj, policy, noise_var=0.0, n_runs=3,
                               seed=1, noise_scale=params.dt)
        assert np.all(cmp.openloop_deviation == 0.0)
        assert np.all(cmp.feedback_deviation == 0.0)

    def test_same_seed_same_statistics(self):
        params, game, traj, policy = self.solved_fishery()
        a = noise_comparison(game, traj, policy, noise_var=2.0, n_runs=5,
                             seed=42, noise_scale=params.dt)
        b = noise_comparison(game, traj, policy, noise_var=2.0, n_runs=5,
                             seed=42, noise_scale=params.dt)
        np.testing.assert_array_equal(a.openloop_deviation, b.openloop_deviation)
        np.testing.assert_array_equal(a.feedback_deviation, b.feedback_deviation)
        c = noise_comparison(game, traj, policy, noise_var=2.0, n_runs=5,
                             seed=43, noise_scale=params.dt)
        assert not np.array_equal(a.openloop_deviation, c.openloop_deviation)

    @pytest.mark.parametrize("bad, match", [
        ({"noise_var": -1.0}, "noise_var"),
        ({"n_runs": 0}, "n_runs"),
        ({"noise_scale": np.nan}, "noise_scale"),
        ({"noise_scale": np.inf}, "noise_scale"),
        ({"noise_scale": -0.1}, "noise_scale"),
    ], ids=["noise_var<0", "n_runs=0", "noise_scale=nan", "noise_scale=inf",
            "noise_scale<0"])
    def test_bad_inputs_are_rejected(self, bad, match):
        params, game, traj, policy = self.solved_fishery()
        kwargs = {"noise_var": 2.0, "n_runs": 3, "seed": 1, "noise_scale": params.dt, **bad}
        with pytest.raises(ValueError, match=match):
            noise_comparison(game, traj, policy, **kwargs)

    def test_non_finite_run_raises_instead_of_counting_no_violation(self):
        params, game, traj, policy = self.solved_fishery()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteStateError, match="in run 0"):
            noise_comparison(game, traj, policy, noise_var=1e300, n_runs=3, seed=1,
                             noise_scale=params.dt)

    def test_nan_constraint_row_counts_as_violation(self):
        params, game, traj, policy = self.solved_fishery()
        nan_at_3 = dataclasses.replace(
            game, batch_constraints=lambda k, X, U: np.full((X.shape[0], 4),
                                                            np.nan if k == 3 else -1.0))
        cmp = noise_comparison(nan_at_3, traj, policy, noise_var=2.0, n_runs=3, seed=1,
                               noise_scale=params.dt)
        np.testing.assert_array_equal(cmp.openloop_violations, [1, 1, 1])
        np.testing.assert_array_equal(cmp.feedback_violations, [1, 1, 1])

    def test_non_finite_run_is_named_within_its_mode(self):
        params, game, traj, policy = self.solved_fishery()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteStateError) as exc:
            noise_comparison(game, traj, policy, noise_var=1e300, n_runs=3, seed=1,
                             noise_scale=params.dt)
        # both modes blow up at the same stage: the replay is named first
        assert (exc.value.run, exc.value.mode) == (0, "open-loop")

    def test_profit_sign_convention(self):
        params, game, traj, _ = self.solved_fishery()
        profits = cumulative_profits(game, traj)
        costs = [total_cost(game, traj, n, 0) for n in range(2)]
        np.testing.assert_allclose(profits, [-c for c in costs])


def noise_comparison_by_mode(game, olne, policy, noise_var, n_runs, seed, noise_scale=1.0,
                             violation_tol=1e-7):
    """The noise comparison as two ``feedback._stages`` batches, one per mode.

    The same noise as ``noise_comparison`` (run i from child i of
    ``SeedSequence(seed)``); the open-loop replay is the policy with the
    equilibrium as reference and zero gains and offsets.
    """
    T, n_x = game.horizon, game.state_dim
    std = float(np.sqrt(noise_var)) * noise_scale
    noise = std * np.stack([np.random.default_rng(s).standard_normal((T, n_x))
                            for s in np.random.SeedSequence(seed).spawn(n_runs)])
    starts = np.tile(olne.states[0], (n_runs, 1))
    replay = dataclasses.replace(policy, reference=olne,
                                 gains=[np.zeros_like(K) for K in policy.gains],
                                 offsets=[np.zeros_like(s) for s in policy.offsets])
    out = []
    for mode in (replay, policy):
        states, _, violations = stage_runs(game, mode, starts, 0, noise)
        out.append((np.mean(np.sum((states - olne.states) ** 2, axis=2), axis=1),
                    np.count_nonzero(~(violations <= violation_tol), axis=1)))
    return out


class TestOneBatchNoiseComparison:
    @staticmethod
    def case(name):
        """(game, equilibrium, policy, noise_var, noise_scale) for the two modes."""
        if name == "fishery":
            # efforts inside their bounds, so the gains do not vanish
            params = FisheryParams(horizon_time=3.0)
            game = fishery_game(params)
            actions = np.random.default_rng(5).uniform(0.05, 0.25, (game.horizon + 1, 2))
            ref = rollout(game, game.initial_state, actions)
            policy = stagewise_newton_backward(game, ref, stage_reg=0.1)
            return game, ref, policy.equilibrium_form(), 2.0, params.dt
        # n_x = 2, one equality row at stages 1 and 3, no batch hooks
        game, _, _, ref, _ = equality_constrained_lq_instance(np.random.default_rng(5))
        return game, ref, stagewise_newton_backward(game, ref).equilibrium_form(), 0.01, 1.0

    @pytest.mark.parametrize("name", ["fishery", "constrained_lq"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_equals_two_rollouts_bit_for_bit(self, name, seed):
        game, olne, policy, noise_var, noise_scale = self.case(name)
        cmp = noise_comparison(game, olne, policy, noise_var=noise_var, n_runs=6, seed=seed,
                               noise_scale=noise_scale)
        (ol_dev, ol_vio), (fb_dev, fb_vio) = noise_comparison_by_mode(
            game, olne, policy, noise_var, 6, seed, noise_scale)
        assert np.array_equal(cmp.openloop_deviation, ol_dev)
        assert np.array_equal(cmp.feedback_deviation, fb_dev)
        assert np.array_equal(cmp.openloop_violations, ol_vio)
        assert np.array_equal(cmp.feedback_violations, fb_vio)
        assert not np.array_equal(ol_dev, fb_dev)

    def test_both_modes_advance_as_one_batch(self):
        game, olne, policy, noise_var, noise_scale = self.case("fishery")
        batches = []

        def counted(k, X, U):
            batches.append(X.shape[0])
            return game.batch_dynamics(k, X, U)

        noise_comparison(dataclasses.replace(game, batch_dynamics=counted), olne, policy,
                         noise_var=noise_var, n_runs=6, seed=0, noise_scale=noise_scale)
        assert batches == [12] * game.horizon  # one call per stage, replay and policy runs

    def test_replay_rows_apply_the_equilibrium_actions(self):
        game, olne, policy, _, _ = self.case("constrained_lq")
        starts = olne.states[0] + np.array([[0.1, -0.2], [0.3, 0.0]])
        states, actions, _ = stage_runs(game, policy, starts, open_loop=olne.actions)
        assert states.shape == (4, game.horizon + 1, 2)
        np.testing.assert_array_equal(actions[:2], np.stack([olne.actions] * 2))
        alone = stage_runs(game, policy, starts)
        np.testing.assert_array_equal(states[2:], alone[0])
        np.testing.assert_array_equal(actions[2:], alone[1])
        with pytest.raises(DimensionError, match="open-loop actions"):
            stage_runs(game, policy, starts, open_loop=olne.actions[1:])

    def test_feedback_blow_up_names_its_stage_and_run_within_the_mode(self):
        # x+ = x + u, non-finite once |u| exceeds a threshold; the open-loop
        # replay applies u = 0 and stays finite, the feedback u_k = x_k first
        # crosses it at stage 1 in the run with the largest first disturbance
        T, n_runs, seed = 6, 5, 2
        first = np.array([np.random.default_rng(s).standard_normal((T, 1))[0, 0]
                          for s in np.random.SeedSequence(seed).spawn(n_runs)])
        top, second = np.sort(np.abs(first))[-2:][::-1]
        limit = 0.5 * (top + second)

        def dynamics(k, x, u):
            return np.where(np.abs(u) > limit, np.inf, x + u)

        game = GameDefinition(horizon=T, state_dim=1, action_dims=(1,), initial_state=[0.0],
                              dynamics=dynamics, stage_costs=lambda k, x, u: np.zeros(1))
        olne = Trajectory(np.zeros((T + 1, 1)), np.zeros((T + 1, 1)))
        policy = FeedbackPolicy(reference=olne, gains=[np.ones((1, 1))] * (T + 1),
                                offsets=[np.zeros(1)] * (T + 1))
        with pytest.raises(NonFiniteStateError, match=r"stage 1 in run \d \(feedback\)") as exc:
            noise_comparison(game, olne, policy, noise_var=1.0, n_runs=n_runs, seed=seed)
        assert (exc.value.stage, exc.value.run, exc.value.mode) == (
            1, int(np.argmax(np.abs(first))), "feedback")
