"""Operator-splitting resolvents and the reflected-resolvent solver."""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dyngames import lq, report, splitting
from dyngames.benchmarks import (
    FisheryParams,
    LqRendezvousParams,
    fishery_game,
    lq_rendezvous_game,
)
from dyngames.errors import (
    DynGameError,
    NonFiniteStateError,
    SubproblemError,
    UnsupportedConstraintError,
)
from dyngames.gradient import pseudo_gradient
from dyngames.model import GameDefinition, Trajectory, rollout
from dyngames.projgrad import project_onto_feasible
from dyngames.report import TERM_MAX_ITER, TERM_TOLERANCE, iterate
from dyngames.splitting import (
    DrConfig,
    SCHEME_CONSTRAINTS,
    SCHEME_DYNAMICS,
    SCHEME_GRADIENT,
    constrained_oc_projection,
    dr_solve,
    project_dynamics,
    project_stage_constraints,
    resolvent_reg_game,
    resolvent_reg_static_games,
    resolvent_static_games_uncon,
)

from conftest import identity_sum_game, random_lq_game, random_smooth_game
from instances import cross_scheme_lq_instance
from oracles import (
    brute_force_qp,
    dense_eq_least_squares,
    dr_constraints_scheme_trace,
    regularized_game,
    rendezvous_stage_projection,
    resolvent_by_feedback_newton,
    stacked_lq_gne,
    static_games_by_enumeration,
)


def zero_cost_linear_game(rng, T=3, state_dim=2, action_dims=(1, 1)):
    game, lq = random_lq_game(rng, T=T, state_dim=state_dim,
                              action_dims=action_dims)
    zeroed = GameDefinition(
        horizon=T, state_dim=state_dim, action_dims=tuple(action_dims),
        initial_state=game.initial_state,
        dynamics=game.dynamics,
        stage_costs=lambda k, x, u: np.zeros(len(action_dims)),
        dynamics_jacobians=game.dynamics_jacobians,
        dynamics_hessians=game.dynamics_hessians,
        cost_gradients=lambda k, x, u: (np.zeros((len(action_dims), state_dim)),
                                        np.zeros((len(action_dims), sum(action_dims)))),
        cost_hessians=lambda k, x, u: (np.zeros((len(action_dims), state_dim, state_dim)),
                                       np.zeros((len(action_dims), state_dim, sum(action_dims))),
                                       np.zeros((len(action_dims), sum(action_dims), sum(action_dims)))),
        linear_dynamics=True)
    return zeroed, lq


def shared_state_cost_game(rng, T=2, con_stage=1):
    """LQ game with identical state costs per player and one affine row."""
    game, lq = random_lq_game(rng, T=T, state_dim=2, action_dims=(1, 1),
                              shared_state_cost=True, cross_coupling=0.1)
    w = np.array([0.5, -0.3])
    s = np.array([1.0, 0.8])
    p = -0.4

    def constraint(k, x, u):
        if k == con_stage:
            return np.array([w @ x + s @ u + p])
        return np.zeros(0)

    def constraint_jac(k, x, u):
        if k == con_stage:
            return w[None, :], s[None, :]
        return np.zeros((0, 2)), np.zeros((0, 2))

    constrained = GameDefinition(
        horizon=T, state_dim=2, action_dims=(1, 1),
        initial_state=game.initial_state,
        dynamics=game.dynamics, stage_costs=game.stage_costs,
        constraints=constraint,
        dynamics_jacobians=game.dynamics_jacobians,
        dynamics_hessians=game.dynamics_hessians,
        cost_gradients=game.cost_gradients, cost_hessians=game.cost_hessians,
        constraint_jacobians=constraint_jac,
        linear_dynamics=True, polyhedral_constraints=True)
    rows = [(con_stage, w, s, p, "ineq")]
    return constrained, lq, rows


ROW_LAYOUTS = ("general", "duplicated", "opposite", "one_point")


def monotone_stage_game(seed, m, eta, layout, state_dim=2, action_dims=(1, 2)):
    """Two-stage quadratic game whose regularized stage games are monotone.

    Each stage's players get random symmetric cost Hessians, shifted by a
    multiple of the identity so that the symmetric part of I + eta J_k has
    smallest eigenvalue at least 0.05 while J_k itself may be indefinite.
    The m affine rows pass at a random slack around an anchor point, so the
    rows are feasible; ``layout`` makes them degenerate: a row copied
    (``duplicated``), a row and its negation (``opposite``, an equality when
    both slacks are zero) or every row through the anchor (``one_point``).
    Returns the game and prox centres (y, z) that usually violate some rows.
    """
    r = np.random.default_rng(seed)
    T, n_x, N = 1, state_dim, len(action_dims)
    n_u = sum(action_dims)
    n_v = n_x + n_u
    owner = np.repeat(np.arange(N), action_dims)
    Q, lin, G, p0 = [], [], [], []
    for _ in range(T + 1):
        Qk = r.standard_normal((N, n_v, n_v))
        Qk = Qk + Qk.transpose(0, 2, 1)
        J = np.vstack([Qk[:, :n_x].mean(axis=0), Qk[owner, n_x + np.arange(n_u)]])
        lam = np.min(np.linalg.eigvalsh(0.5 * (J + J.T)))
        margin = r.uniform(0.05, 1.0)
        Qk = Qk + max(0.0, (margin - 1.0) / eta - lam) * np.eye(n_v)
        Q.append(Qk)
        lin.append(r.standard_normal((N, n_v)))
        rows = r.standard_normal((m, n_v))
        slack = np.where(r.random(m) < 0.3, 0.0, r.uniform(0.0, 1.0, m))
        if layout == "duplicated" and m >= 2:
            rows[1], slack[1] = rows[0], slack[0]
        elif layout == "opposite" and m >= 2:
            rows[1], slack[1] = -rows[0], slack[0]
        elif layout == "one_point":
            slack[:] = 0.0
        anchor = r.standard_normal(n_v)
        G.append(rows)
        p0.append(-rows @ anchor - slack)

    def costs(k, x, u):
        v = np.concatenate([x, u])
        return np.array([0.5 * v @ Q[k][n] @ v + lin[k][n] @ v for n in range(N)])

    def grads(k, x, u):
        g = Q[k] @ np.concatenate([x, u]) + lin[k]
        return g[:, :n_x], g[:, n_x:]

    def hess(k, x, u):
        return Q[k][:, :n_x, :n_x], Q[k][:, :n_x, n_x:], Q[k][:, n_x:, n_x:]

    game = GameDefinition(
        horizon=T, state_dim=n_x, action_dims=tuple(action_dims),
        initial_state=np.zeros(n_x),
        dynamics=lambda k, x, u: x + u[:n_x],
        stage_costs=costs, cost_gradients=grads, cost_hessians=hess,
        constraints=lambda k, x, u: G[k] @ np.concatenate([x, u]) + p0[k],
        constraint_jacobians=lambda k, x, u: (G[k][:, :n_x], G[k][:, n_x:]),
        linear_dynamics=True, polyhedral_constraints=True)
    y = 2.0 * r.standard_normal((T + 1, n_x))
    z = 2.0 * r.standard_normal((T + 1, n_u))
    return game, y, z


class TestRegularizedGameResolvent:
    def test_zero_costs_reduce_to_dynamics_projection(self, rng):
        game, lq = zero_cost_linear_game(rng, T=3)
        y = rng.standard_normal((4, 2))
        z = rng.standard_normal((4, 2))
        xs, us = resolvent_reg_game(game, y, z, eta=0.7)
        px, pu = project_dynamics(game, y, z)
        np.testing.assert_allclose(us, pu, atol=1e-8)
        np.testing.assert_allclose(xs, px, atol=1e-8)

    def test_small_eta_returns_consistent_nominal(self, rng):
        game, _ = random_lq_game(rng, T=3)
        z = rng.standard_normal((4, 2))
        y = rollout(game, game.initial_state, z).states
        xs, us = resolvent_reg_game(game, y, z, eta=1e-8)
        assert np.max(np.abs(us - z)) <= 1e-4

    def test_undeclared_lq_game_matches_declared_twin_in_one_pass(self, rng, monkeypatch):
        # On an LQ game the local LQ game is the game itself, so one Newton
        # step reaches the factored resolvent of the declared twin.
        game, _ = random_lq_game(rng, T=4)
        twin = dataclasses.replace(game, quadratic_costs=True)
        y, z = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        monkeypatch.setattr(splitting, "INNER_MAX_ITER", 1)
        xs, us = resolvent_reg_game(game, y, z, eta=0.3)
        tx, tu = resolvent_reg_game(twin, y, z, eta=0.3)
        np.testing.assert_allclose(us, tu, rtol=0, atol=1e-10)
        np.testing.assert_allclose(xs, tx, rtol=0, atol=1e-10)

    @staticmethod
    def exp_action_game():
        """x+ = exp(u) with cost 0.5 (u - 1000)^2: full Newton steps overshoot."""
        return GameDefinition(
            horizon=3, state_dim=1, action_dims=(1,), initial_state=[0.0],
            dynamics=lambda k, x, u: np.exp(u),
            stage_costs=lambda k, x, u: np.array([0.5 * (u[0] - 1000.0) ** 2]),
            dynamics_jacobians=lambda k, x, u: (np.zeros((1, 1)), np.exp(u)[None, :]),
            dynamics_hessians=lambda k, x, u: np.array([[[0.0, 0.0], [0.0, np.exp(u[0])]]]),
            cost_gradients=lambda k, x, u: (np.zeros((1, 1)), (u - 1000.0)[None, :]),
            cost_hessians=lambda k, x, u: (np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
                                           np.ones((1, 1, 1))))

    @staticmethod
    def count_factors(monkeypatch):
        factored = []
        regularized_factor = lq.regularized_factor

        def counted(*args, **kwargs):
            factored.append(1)
            return regularized_factor(*args, **kwargs)

        monkeypatch.setattr(lq, "regularized_factor", counted)
        return factored

    def test_stops_at_the_first_pass_with_a_non_finite_state(self, monkeypatch):
        # The first Newton step asks for u near 909 and exp(909) overflows.
        # With analytic derivatives nothing else fails on the non-finite
        # state, so a solver that kept going would spend every pass on NaN.
        factored = self.count_factors(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as exc:
            resolvent_reg_game(self.exp_action_game(), np.zeros((4, 1)), np.zeros((4, 1)),
                               eta=10.0)
        assert exc.value.stage == 0
        assert len(factored) == 1

    def test_stops_once_the_residual_diverges(self, monkeypatch):
        # At eta = 1 the states stay finite, but the residual grows from 1e3
        # to about 1e217 in one step; the default budget is 300 steps.
        factored = self.count_factors(monkeypatch)
        with pytest.raises(SubproblemError, match="diverged"):
            resolvent_reg_game(self.exp_action_game(), np.zeros((4, 1)), np.zeros((4, 1)),
                               eta=1.0)
        assert len(factored) <= 2

    def test_newton_steps_read_the_shared_divergence_factor(self, monkeypatch):
        # Below 1 the first pass that does not meet the tolerance has diverged.
        monkeypatch.setattr(report, "DIVERGENCE_FACTOR", 0.5)
        factored = self.count_factors(monkeypatch)
        with pytest.raises(SubproblemError, match="after 0 Newton steps"):
            resolvent_reg_game(self.exp_action_game(), np.zeros((4, 1)), np.zeros((4, 1)),
                               eta=1.0)
        assert not factored

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 6),
           log_eta=st.floats(-4.0, -1.0))
    def test_newton_steps_match_feedback_newton_reference(self, seed, T, log_eta):
        # Newton steps converge quadratically from a near start: five suffice
        # where the reference's feedback-Newton passes take up to about eight.
        rng = np.random.default_rng(seed)
        game = random_smooth_game(rng, T=T)
        eta = 10.0 ** log_eta
        z = 0.5 * rng.standard_normal((T + 1, 2))
        y = rollout(game, game.initial_state, z).states + 0.1 * rng.standard_normal((T + 1, 2))
        try:
            ref_x, ref_u, _ = resolvent_by_feedback_newton(game, y, z, eta)
        except (DynGameError, RuntimeError):
            assume(False)
        with mock.patch.object(splitting, "INNER_MAX_ITER", 5):
            xs, us = resolvent_reg_game(game, y, z, eta)
        np.testing.assert_allclose(us, ref_u, rtol=0, atol=1e-8)
        np.testing.assert_allclose(xs, ref_x, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("T, eta, shift", [
        (100, 1e-4, 0.0), (100, 1e-4, 0.05), (100, 1e-2, 0.05), (100, 1.0, 0.05),
        (1000, 1e-4, 0.0)])
    def test_fishery_resolvent_is_stationary(self, T, eta, shift):
        # The paper's nonlinear game: checked on the per-stage regularized
        # game, which shares no evaluator with the resolvent's hooks.
        game = fishery_game(FisheryParams(horizon_time=T * 0.1))
        z = np.tile([0.2, 0.15], (T + 1, 1))
        y = rollout(game, game.initial_state, z).states
        z = z + shift
        xs, us = resolvent_reg_game(game, y, z, eta)
        reg = regularized_game(game, y, z, eta)
        traj = Trajectory(xs, us)
        assert traj.dynamically_feasible(game, tol=1e-12)
        grad = pseudo_gradient(reg, traj).stacked
        assert np.max(np.abs(grad)) <= 1e-9 * (1.0 + np.max(np.abs(z)))


class TestStageProjections:
    def test_feasible_input_unchanged(self, rng):
        game, _, _ = shared_state_cost_game(rng)
        y = np.zeros((3, 2))
        z = np.zeros((3, 2))
        xs, us = project_stage_constraints(game, y, z)
        np.testing.assert_allclose(xs, y)
        np.testing.assert_allclose(us, z)

    def test_ball_projection_rescales(self):
        g = identity_sum_game(T=1)
        withball = GameDefinition(
            horizon=1, state_dim=2, action_dims=(2,), initial_state=[0.0, 0.0],
            dynamics=g.dynamics, stage_costs=g.stage_costs,
            constraints=lambda k, x, u: np.array([np.linalg.norm(u) - 2.0]),
            traj_projector=lambda states, actions: (states, actions * (
                2.0 / np.maximum(np.linalg.norm(actions, axis=1, keepdims=True), 2.0))))
        z = np.array([[4.0, 0.0], [0.0, -6.0]])
        _, us = project_stage_constraints(withball, np.zeros((2, 2)), z)
        np.testing.assert_allclose(us[0], [2.0, 0.0])
        np.testing.assert_allclose(us[1], [0.0, -2.0])

    def test_consensus_projection_is_mean(self):
        # equality x1 = x2 = x3 encoded via a projector replacing the three
        # coordinates with their mean; check against the dense
        # least-squares projection onto the consensus subspace.
        def projector(states, actions):
            return np.repeat(states.mean(axis=1, keepdims=True), 3, axis=1), actions

        game = GameDefinition(
            horizon=0, state_dim=3, action_dims=(1,), initial_state=[0.0] * 3,
            dynamics=lambda k, x, u: x,
            stage_costs=lambda k, x, u: np.zeros(1),
            constraints=lambda k, x, u: np.array([x[0] - x[1], x[1] - x[0],
                                                  x[1] - x[2], x[2] - x[1]]),
            traj_projector=projector)
        y = np.array([[1.0, 4.0, -2.0]])
        xs, _ = project_stage_constraints(game, y, np.zeros((1, 1)))
        Aeq = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        oracle = dense_eq_least_squares(np.ones(3), y[0], Aeq, np.zeros(2))
        np.testing.assert_allclose(xs[0], oracle, atol=1e-12)

    def test_rows_without_projector_or_affine_declaration_are_unsupported(self):
        g = identity_sum_game(T=1)
        game = dataclasses.replace(
            g, constraints=lambda k, x, u: np.array([np.linalg.norm(u) - 2.0]),
            constraints_in_actions_only=True)
        z = np.full((2, 2), 3.0)
        with pytest.raises(UnsupportedConstraintError):
            project_stage_constraints(game, np.zeros((2, 2)), z)
        with pytest.raises(UnsupportedConstraintError):
            project_onto_feasible(game, z)

    def test_polyhedral_rows_without_projector(self, rng):
        game, _, rows = shared_state_cost_game(rng, T=2, con_stage=1)
        y = 2.0 * np.ones((3, 2))
        z = 2.0 * np.ones((3, 2))
        xs, us = project_stage_constraints(game, y, z)
        k, w, s, p = rows[0][0], rows[0][1], rows[0][2], rows[0][3]
        assert w @ xs[k] + s @ us[k] + p <= 1e-9
        # oracle: least-squares projection onto the halfspace
        v = np.concatenate([y[k], z[k]])
        normal = np.concatenate([w, s])
        viol = normal @ v + p
        expected = v - viol * normal / (normal @ normal)
        np.testing.assert_allclose(np.concatenate([xs[k], us[k]]), expected,
                                   atol=1e-9)


class TestStaticGameResolvents:
    def test_pure_prox_identity(self, rng):
        game, _ = zero_cost_linear_game(rng, T=2)
        y = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        xs, us = resolvent_reg_static_games(game, y, z, eta=0.3)
        np.testing.assert_allclose(xs, y, atol=1e-10)
        np.testing.assert_allclose(us, z, atol=1e-10)

    def test_constrained_stage_matches_vi_iteration(self, rng):
        game, lq, rows = shared_state_cost_game(rng, T=2, con_stage=1)
        eta = 0.4
        y = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        xs, us = resolvent_reg_static_games(game, y, z, eta=eta)
        k, w, s, p = 1, rows[0][1], rows[0][2], rows[0][3]

        # independent fixed-point iteration on the stage game
        v = np.concatenate([y[k], z[k]])
        cur = v.copy()
        G = np.concatenate([w, s])[None, :]
        for _ in range(200000):
            x_c, u_c = cur[:2], cur[2:]
            cx, cu = game.eval_cost_gradients(k, x_c, u_c)
            op = np.concatenate([
                eta * np.mean(cx, axis=0) + (x_c - y[k]),
                eta * np.array([cu[0][0], cu[1][1]]) + (u_c - z[k])])
            nxt = cur - 0.2 * op
            viol = G[0] @ nxt + p
            if viol > 0:
                nxt = nxt - viol * G[0] / (G[0] @ G[0])
            if np.max(np.abs(nxt - cur)) < 1e-14:
                cur = nxt
                break
            cur = nxt
        np.testing.assert_allclose(np.concatenate([xs[k], us[k]]), cur, atol=1e-7)

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 8),
           eta=st.floats(1e-3, 10.0), layout=st.sampled_from(ROW_LAYOUTS))
    def test_matches_enumeration_on_monotone_stage_games(self, seed, m, eta, layout):
        game, y, z = monotone_stage_game(seed, m, eta, layout)
        ref = static_games_by_enumeration(game, y, z, eta)
        # The enumeration's fixed 1e-8 dual and primal checks can reject every
        # subset when the multipliers are huge (rows through one point that
        # leave the anchor as the only feasible point).
        assume(ref is not None)
        xs, us = resolvent_reg_static_games(game, y, z, eta)
        expected = np.hstack(ref)
        err = np.max(np.abs(np.hstack([xs, us]) - expected))
        assert err <= 1e-9 * (1.0 + np.max(np.abs(expected)))

    def test_six_rows_through_one_point_in_four_dimensions(self):
        game, y, z = monotone_stage_game(11, 6, 0.8, "one_point", action_dims=(1, 1))
        xs, us = resolvent_reg_static_games(game, y, z, 0.8)
        ref_x, ref_u = static_games_by_enumeration(game, y, z, 0.8)
        for k in range(2):  # degenerate: all six rows active in four dimensions
            assert np.all(game.eval_constraints(k, ref_x[k], ref_u[k]) > -1e-9)
        np.testing.assert_allclose(xs, ref_x, rtol=0, atol=1e-9)
        np.testing.assert_allclose(us, ref_u, rtol=0, atol=1e-9)

    def test_twenty_rows_in_one_stage(self):
        # Beyond the 18 rows the former subset enumeration accepted.
        game, y, z = monotone_stage_game(0, 20, 0.5, "general")
        xs, us = resolvent_reg_static_games(game, y, z, 0.5)
        ref_x, ref_u = static_games_by_enumeration(game, y, z, 0.5)
        np.testing.assert_allclose(xs, ref_x, rtol=0, atol=1e-9)
        np.testing.assert_allclose(us, ref_u, rtol=0, atol=1e-9)

    def test_contradictory_rows_raise_naming_the_stage(self, rng):
        base, _ = random_lq_game(rng, T=2)

        def rows(k, x, u):  # u_0 <= -1 and u_0 >= 1 at stage 1
            return np.array([u[0] + 1.0, 1.0 - u[0]]) if k == 1 else np.zeros(0)

        def jac(k, x, u):
            m = 2 if k == 1 else 0
            return np.zeros((m, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]])[:m]

        game = dataclasses.replace(base, constraints=rows, constraint_jacobians=jac,
                                   polyhedral_constraints=True)
        y, z = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        with pytest.raises(SubproblemError, match="stage 1"):
            resolvent_reg_static_games(game, y, z, eta=0.3)

    def test_stage_permutation_equivariance(self, rng):
        game, _ = random_lq_game(rng, T=2)
        y = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        xs, us = resolvent_static_games_uncon(game, y, z, eta=0.2)
        # stage costs are k-dependent; permuting nominal stages and solving a
        # stage-permuted game permutes the outputs identically
        perm = [2, 0, 1]
        permuted = GameDefinition(
            horizon=2, state_dim=2, action_dims=(1, 1),
            initial_state=game.initial_state,
            dynamics=game.dynamics,
            stage_costs=lambda k, x, u: game.stage_costs(perm[k], x, u),
            cost_gradients=lambda k, x, u: game.cost_gradients(perm[k], x, u),
            cost_hessians=lambda k, x, u: game.cost_hessians(perm[k], x, u),
            dynamics_jacobians=game.dynamics_jacobians,
            linear_dynamics=True)
        xs2, us2 = resolvent_static_games_uncon(permuted, y[perm], z[perm], eta=0.2)
        np.testing.assert_allclose(xs2, xs[perm], atol=1e-10)
        np.testing.assert_allclose(us2, us[perm], atol=1e-10)

    def test_eta_halving_moves_closer_to_nominal(self, rng):
        game, _ = random_lq_game(rng, T=2)
        y = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        _, us1 = resolvent_static_games_uncon(game, y, z, eta=0.4)
        _, us2 = resolvent_static_games_uncon(game, y, z, eta=0.2)
        d1 = np.linalg.norm(us1 - z)
        d2 = np.linalg.norm(us2 - z)
        assert d2 < d1


class TestDynamicsProjection:
    def test_feasible_unchanged(self, rng):
        game, _ = random_lq_game(rng, T=3)
        z = rng.standard_normal((4, 2))
        traj = rollout(game, game.initial_state, z)
        xs, us = project_dynamics(game, traj.states, traj.actions)
        np.testing.assert_allclose(us, traj.actions, atol=1e-9)
        np.testing.assert_allclose(xs, traj.states, atol=1e-9)

    def test_two_term_scalar_average(self):
        game = GameDefinition(
            horizon=1, state_dim=1, action_dims=(1,), initial_state=[0.3],
            dynamics=lambda k, x, u: u.copy(),
            stage_costs=lambda k, x, u: np.zeros(1),
            dynamics_jacobians=lambda k, x, u: (np.zeros((1, 1)), np.eye(1)),
            linear_dynamics=True)
        y = np.array([[0.3], [2.0]])
        z = np.array([[1.0], [0.0]])
        xs, us = project_dynamics(game, y, z)
        assert us[0, 0] == pytest.approx(1.5, abs=1e-12)
        assert xs[1, 0] == pytest.approx(1.5, abs=1e-12)

    def test_matches_dense_least_squares(self, rng):
        game, lq = random_lq_game(rng, T=3)
        y = rng.standard_normal((4, 2))
        z = rng.standard_normal((4, 2))
        xs, us = project_dynamics(game, y, z)
        # dense oracle over (x_1..x_3, u_0..u_3)
        dim = 3 * 2 + 4 * 2
        target = np.concatenate([y[1:].ravel(), z.ravel()])
        Aeq = np.zeros((3 * 2, dim))
        beq = np.zeros(3 * 2)
        for k in range(3):
            for i in range(2):
                r = k * 2 + i
                Aeq[r, k * 2 + i] = 1.0
                if k >= 1:
                    Aeq[r, (k - 1) * 2:k * 2] -= lq["A"][k][i]
                    beq[r] += lq["b"][k][i]
                else:
                    beq[r] += lq["A"][0][i] @ game.initial_state + lq["b"][0][i]
                Aeq[r, 6 + k * 2:6 + (k + 1) * 2] -= lq["B"][k][i]
        sol = dense_eq_least_squares(np.ones(dim), target, Aeq, beq)
        np.testing.assert_allclose(np.concatenate([xs[1:].ravel(), us.ravel()]),
                                   sol, atol=1e-8)

    def test_nonlinear_without_flag_rejected(self, rng):
        from conftest import random_smooth_game
        game = random_smooth_game(rng, T=2)
        with pytest.raises(UnsupportedConstraintError):
            project_dynamics(game, np.zeros((3, 2)), np.zeros((3, 2)))


class TestIntersectionProjection:
    def test_feasible_point_unchanged(self, rng):
        game, _, _ = shared_state_cost_game(rng, T=2)
        z = np.zeros((3, 2))
        traj = rollout(game, game.initial_state, z)
        if max(float(np.max(game.eval_constraints(k, traj.states[k], z[k]), initial=-1))
               for k in range(3)) > 0:
            pytest.skip("zero actions infeasible for this draw")
        xs, us = constrained_oc_projection(game, traj.states, z)
        np.testing.assert_allclose(us, z, atol=1e-7)

    def test_empty_constraints_reduce_to_dynamics_projection(self, rng):
        game, _ = random_lq_game(rng, T=2)
        y = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        a = constrained_oc_projection(game, y, z)
        b = project_dynamics(game, y, z)
        np.testing.assert_allclose(a[1], b[1], atol=1e-9)

    def test_matches_dense_qp(self, rng):
        game, lq, rows = shared_state_cost_game(rng, T=2, con_stage=1)
        y = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        xs, us = constrained_oc_projection(game, y, z)
        # dense oracle over (x1, x2, u0, u1, u2)
        k, w, s, p = 1, rows[0][1], rows[0][2], rows[0][3]
        dim = 2 * 2 + 3 * 2
        target = np.concatenate([y[1:].ravel(), z.ravel()])
        Aeq = np.zeros((4, dim))
        beq = np.zeros(4)
        for kk in range(2):
            for i in range(2):
                r = kk * 2 + i
                Aeq[r, kk * 2 + i] = 1.0
                if kk >= 1:
                    Aeq[r, (kk - 1) * 2:kk * 2] -= lq["A"][kk][i]
                    beq[r] += lq["b"][kk][i]
                else:
                    beq[r] += lq["A"][0][i] @ game.initial_state + lq["b"][0][i]
                Aeq[r, 4 + kk * 2:4 + (kk + 1) * 2] -= lq["B"][kk][i]
        G = np.zeros((1, dim))
        G[0, 0:2] = w          # x_1 block
        G[0, 4 + 2:4 + 4] = s  # u_1 block
        h = np.array([-p])
        H = np.eye(dim)
        f = -target
        sol = brute_force_qp(H, f, G, h, Aeq=Aeq, beq=beq)
        np.testing.assert_allclose(np.concatenate([xs[1:].ravel(), us.ravel()]),
                                   sol, atol=1e-9)


class TestDrSolve:
    @pytest.mark.parametrize("eta, residual_gate_binds", [(1e-2, False), (1e-1, True)])
    def test_stops_at_first_iteration_with_step_and_residuals_within_tol(
            self, eta, residual_gate_binds):
        params = LqRendezvousParams()
        game = lq_rendezvous_game(params)
        tol = 1e-8
        cfg = DrConfig(scheme=SCHEME_CONSTRAINTS, eta=eta, alpha=0.5, max_iter=2000,
                       tol=tol, record_costs=False, run_checks=False)
        rep = dr_solve(game, cfg)
        assert rep.termination == TERM_TOLERANCE
        trace = dr_constraints_scheme_trace(
            game, functools.partial(rendezvous_stage_projection, params), eta, 0.5,
            rep.iterations)
        within = np.all(trace <= tol, axis=1)
        assert within[-1] and not within[:-1].any()
        np.testing.assert_allclose(rep.step_norms, trace[:, 0], rtol=1e-6, atol=1e-14)
        # started at eta = 1e-1 the step passes one iteration before the
        # candidate's dynamics residual does; the run must not stop there
        first_step_pass = int(np.argmax(trace[:, 0] <= tol)) + 1
        assert (first_step_pass < rep.iterations) == residual_gate_binds

    def test_violated_stage_never_reports_tolerance(self, rng):
        # The stage projector passes every point through, so the iteration
        # converges to the unconstrained equilibrium (the averaged step goes
        # to zero) while the candidate keeps violating the stage rows.
        game, _ = random_lq_game(rng, T=2, shared_state_cost=True)
        game = dataclasses.replace(game, quadratic_costs=True)
        cfg = DrConfig(scheme=SCHEME_CONSTRAINTS, eta=0.4, alpha=0.5, max_iter=400,
                       tol=1e-8, record_costs=False, run_checks=False)
        free = dr_solve(game, cfg)
        # the unconstrained LQ game ends on the certified polish
        assert free.converged and free.natural_residual <= cfg.tol
        bound = 0.5 * float(np.max(np.abs(free.trajectory.actions)))
        violated = dataclasses.replace(
            game, constraints=lambda k, x, u: np.abs(u) - bound,
            traj_projector=lambda states, actions: (states, actions))
        rep = dr_solve(violated, cfg)
        assert rep.termination == TERM_MAX_ITER
        assert np.min(rep.step_norms) <= cfg.tol
        assert rep.constraint_residual > 0.4 * bound

    def test_nan_constraint_is_not_read_as_satisfied(self, rng):
        game, _ = random_lq_game(rng, T=0, shared_state_cost=True)
        nan_rows = dataclasses.replace(
            game, quadratic_costs=True, constraints=lambda k, x, u: np.array([np.nan]),
            traj_projector=lambda states, actions: (states, actions))
        traj = Trajectory(np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.isnan(traj.constraint_violation(nan_rows))
        cfg = DrConfig(scheme=SCHEME_CONSTRAINTS, eta=0.4, alpha=0.5, max_iter=200,
                       tol=1e-8, record_costs=False, run_checks=False)
        rep = dr_solve(nan_rows, cfg)
        assert np.min(rep.step_norms) <= cfg.tol  # only the NaN row holds the run
        assert rep.termination != TERM_TOLERANCE
        assert np.isnan(rep.constraint_residual)

    def test_unconstrained_quadratic_game_reaches_kkt_solution(self, rng):
        game, lq = random_lq_game(rng, T=2, shared_state_cost=True)
        oracle = stacked_lq_gne(game, lq, [])
        for scheme in (SCHEME_CONSTRAINTS, SCHEME_DYNAMICS, SCHEME_GRADIENT):
            cfg = DrConfig(scheme=scheme, eta=0.4, alpha=0.5, max_iter=4000,
                           tol=1e-10, record_costs=False, run_checks=False)
            rep = dr_solve(game, cfg)
            assert rep.termination == TERM_TOLERANCE, scheme
            np.testing.assert_allclose(rep.trajectory.actions, oracle.actions,
                                       atol=2e-5, err_msg=scheme)

    def test_schemes_agree_with_constraint(self, rng):
        game, lq, rows = shared_state_cost_game(rng, T=2, con_stage=1)
        sols = {}
        for scheme in (SCHEME_CONSTRAINTS, SCHEME_DYNAMICS, SCHEME_GRADIENT):
            cfg = DrConfig(scheme=scheme, eta=0.4, alpha=0.5, max_iter=6000,
                           tol=1e-10, record_costs=False, run_checks=False)
            rep = dr_solve(game, cfg)
            assert rep.termination == TERM_TOLERANCE, scheme
            sols[scheme] = rep.trajectory.actions
        oracle = stacked_lq_gne(game, lq, rows)
        for scheme, u in sols.items():
            np.testing.assert_allclose(u, oracle.actions, atol=1e-4,
                                       err_msg=scheme)

    def test_averaged_step_norm_eventually_decreasing(self, rng):
        game, lq = random_lq_game(rng, T=2, shared_state_cost=True)
        cfg = DrConfig(scheme=SCHEME_CONSTRAINTS, eta=0.4, alpha=0.5,
                       max_iter=2000, tol=1e-11, record_costs=False,
                       run_checks=False)
        rep = dr_solve(game, cfg)
        steps = rep.step_norms
        tail = steps[len(steps) // 4:]
        viol = np.sum(np.diff(tail) > 1e-12)
        assert viol <= len(tail) * 0.02

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DrConfig(scheme="bogus")
        with pytest.raises(ValueError):
            DrConfig(alpha=1.5)
        with pytest.raises(ValueError):
            DrConfig(eta=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("max_iter", -5), ("tol", 0.0), ("tol", -1e-8), ("eta", np.nan), ("tol", np.nan),
        ("eta", np.inf), ("tol", np.inf)])
    def test_config_rejects_bad_budgets_and_tolerances(self, field, value):
        with pytest.raises(ValueError, match=field):
            DrConfig(scheme=SCHEME_GRADIENT, **{field: value})

    def test_zero_iteration_budget_runs_no_iteration(self, rng):
        game, _ = random_lq_game(rng, T=2, shared_state_cost=True)
        rep = dr_solve(game, DrConfig(max_iter=0, record_costs=False, run_checks=False))
        assert rep.iterations == 0 and rep.termination == TERM_MAX_ITER

    @pytest.mark.parametrize("scheme", [SCHEME_DYNAMICS, SCHEME_GRADIENT])
    def test_static_game_resolvents_get_the_inner_budget(self, rng, monkeypatch, scheme):
        # A quadratic stage game needs one Newton step plus the check that
        # follows it, so a budget of 1 cannot certify it and 2 can.
        game, _ = random_lq_game(rng, T=2, shared_state_cost=True)
        cfg = DrConfig(scheme=scheme, eta=0.4, max_iter=3, record_costs=False,
                       run_checks=False)
        monkeypatch.setattr(splitting, "INNER_MAX_ITER", 1)
        with pytest.raises(SubproblemError):
            dr_solve(game, cfg)
        monkeypatch.setattr(splitting, "INNER_MAX_ITER", 2)
        assert dr_solve(game, cfg).iterations == 3


class TestEtaBalancing:
    @staticmethod
    def rendezvous_map(game, eta, alpha=0.5):
        """The constraints-scheme DR map of ``game`` at eta, and its first resolvent."""
        T, n_x, n_u = game.horizon, game.state_dim, game.total_action_dim
        split = (T + 1) * n_x
        factor = lq.factor(game, eta)

        def parts(w):
            return w[:split].reshape(T + 1, n_x), w[split:].reshape(T + 1, n_u)

        def first(w):
            return np.concatenate([v.ravel() for v in factor.solve(*parts(w))])

        def g(w):
            r = 2 * first(w) - w
            b = np.concatenate([v.ravel() for v in project_stage_constraints(game, *parts(r))])
            return (1 - alpha) * w + alpha * (2 * b - r)

        return first, g

    def test_a_rescaled_fixed_point_is_a_fixed_point_of_the_new_map(self):
        game = lq_rendezvous_game()
        eta = 0.1
        first, g = self.rendezvous_map(game, eta)
        u0 = np.zeros((game.horizon + 1, game.total_action_dim))
        w0 = np.concatenate([rollout(game, game.initial_state, u0).states.ravel(), u0.ravel()])
        run = iterate(lambda w, c: (g(w), c), w0, None, 2000, 1e-15, 1e8, accelerate=True)
        w = run.iterates[-1]
        assert np.max(np.abs(g(w) - w)) <= 1e-12
        a = first(w)
        for new in (eta * splitting.BALANCE_FACTOR, eta / splitting.BALANCE_FACTOR):
            _, g_new = self.rendezvous_map(game, new)
            rescaled = a + (new / eta) * (w - a)
            assert np.max(np.abs(g_new(rescaled) - rescaled)) <= 1e-12
            assert np.max(np.abs(g_new(w) - w)) > 1e-2  # the unscaled point is not

    def test_eta_changes_by_the_factor_until_frozen(self, monkeypatch):
        etas = []
        real = lq.factor

        def spy(game, eta, *args):
            etas.append(eta)
            return real(game, eta, *args)

        monkeypatch.setattr(lq, "factor", spy)
        game = lq_rendezvous_game()
        cfg = DrConfig(eta=1e-4, record_costs=False, run_checks=False)
        rep = dr_solve(game, cfg)
        assert rep.termination == TERM_TOLERANCE and rep.iterations <= 300
        steps = np.log2(np.array(etas) / cfg.eta)
        assert 1 < len(etas) <= 1 + splitting.BALANCE_MAX_CHANGES
        np.testing.assert_allclose(np.abs(np.diff(steps)), 1.0)
        etas.clear()
        monkeypatch.setattr(splitting, "BALANCE_MAX_CHANGES", 3)
        frozen = dr_solve(game, cfg)
        np.testing.assert_allclose(etas, [1e-4, 2e-4, 4e-4, 8e-4])
        assert frozen.iterations > rep.iterations

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(2, 4),
           eta=st.sampled_from([1e-4, 1e-2, 1.0]))
    def test_every_scheme_reaches_the_equilibrium_from_any_starting_eta(self, seed, T, eta):
        rng = np.random.default_rng(seed)
        game, lq_data, rows = cross_scheme_lq_instance(rng, T=T)
        oracle = stacked_lq_gne(game, lq_data, rows)
        for scheme in (SCHEME_CONSTRAINTS, SCHEME_DYNAMICS, SCHEME_GRADIENT):
            rep = dr_solve(game, DrConfig(scheme=scheme, eta=eta, max_iter=2000, tol=1e-10,
                                          record_costs=False, run_checks=False))
            assert rep.termination == TERM_TOLERANCE, scheme
            np.testing.assert_allclose(rep.trajectory.actions, oracle.actions, atol=1e-8,
                                       err_msg=scheme)
