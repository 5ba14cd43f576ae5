"""Operator-splitting resolvents and the reflected-resolvent solver."""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dyngames import denseqp, lq, report, splitting
from dyngames.benchmarks import (
    FisheryParams,
    LqRendezvousParams,
    fishery_game,
    lq_rendezvous_game,
)
from dyngames.errors import (
    DimensionError,
    DynGameError,
    InfeasibleConstraintsError,
    NonFiniteStateError,
    SubproblemError,
    UnsupportedConstraintError,
)
from dyngames.gradient import pseudo_gradient
from dyngames.model import GameDefinition, Trajectory, local_lq, rollout
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
from instances import cross_scheme_lq_instance, tight_rendezvous
from oracles import (
    brute_force_lcp,
    brute_force_qp,
    dense_eq_least_squares,
    dr_constraints_scheme_trace,
    regularized_game,
    rendezvous_stage_projection,
    resolvent_by_feedback_newton,
    stacked_lq_gne,
    static_game_vi,
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


def quartic_stage_game(seed, quartic=(0.0, 0.0, 1.0, 2.0, 0.5), with_rows=False):
    """Two players, x+ = x + u, stage costs 0.5 v'Q v + l'v + a_k/4 sum(v^4) over v = (x, u).

    Stage k's quartic weight a_k is ``quartic[k]``: its stage game is
    quadratic (one Newton step and the check) where a_k is zero and needs
    more steps elsewhere.  ``with_rows`` adds one affine row per stage,
    which the prox centre violates by a distance of 1.  Returns the game and
    prox centres (y, z).
    """
    r = np.random.default_rng(seed)
    T, n_x, N, n_v = len(quartic) - 1, 2, 2, 4
    Q = r.standard_normal((T + 1, N, n_v, n_v))
    Q = np.eye(n_v) + 0.1 * (Q + Q.swapaxes(2, 3))
    lin = r.standard_normal((T + 1, N, n_v))
    a = np.asarray(quartic, dtype=float)
    y, z = 2.0 * r.standard_normal((T + 1, n_x)), 2.0 * r.standard_normal((T + 1, N))
    G = r.standard_normal((T + 1, 1, n_v))
    p0 = np.linalg.norm(G, axis=2) - (G @ np.concatenate([y, z], axis=1)[..., None])[..., 0]

    def costs(k, x, u):
        v = np.concatenate([x, u])
        return 0.5 * np.einsum("i,nij,j->n", v, Q[k], v) + lin[k] @ v + 0.25 * a[k] * np.sum(v**4)

    def grads(k, x, u):
        v = np.concatenate([x, u])
        g = Q[k] @ v + lin[k] + a[k] * v**3
        return g[:, :n_x], g[:, n_x:]

    def hess(k, x, u):
        H = Q[k] + 3.0 * a[k] * np.diag(np.concatenate([x, u]) ** 2)
        return H[:, :n_x, :n_x], H[:, :n_x, n_x:], H[:, n_x:, n_x:]

    rows = dict(constraints=lambda k, x, u: G[k] @ np.concatenate([x, u]) + p0[k],
                constraint_jacobians=lambda k, x, u: (G[k][:, :n_x], G[k][:, n_x:]),
                polyhedral_constraints=True) if with_rows else {}
    game = GameDefinition(
        horizon=T, state_dim=n_x, action_dims=(1, 1), initial_state=np.zeros(n_x),
        dynamics=lambda k, x, u: x + u, stage_costs=costs, cost_gradients=grads,
        cost_hessians=hess, linear_dynamics=True, **rows)
    return game, y, z


def at_stage(stage, callback, replacement):
    """``callback`` with stage ``stage`` answered by ``replacement`` instead."""
    return lambda k, x, u: replacement(k, x, u) if k == stage else callback(k, x, u)


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

    def test_contradictory_rows_raise_naming_the_stage(self, rng):
        # u_0 <= -1 and u_0 >= 1 at stage 2; the loose row at stage 1 projects
        def rows(k, x, u):
            return {1: np.array([u[1] - 5.0]), 2: np.array([u[0] + 1.0, 1.0 - u[0]])}.get(
                k, np.zeros(0))

        def jac(k, x, u):
            S = {1: [[0.0, 1.0]], 2: [[1.0, 0.0], [-1.0, 0.0]]}.get(k, np.zeros((0, 2)))
            return np.zeros((len(S), 2)), np.array(S)

        base, _ = random_lq_game(rng, T=3)
        game = dataclasses.replace(base, constraints=rows, constraint_jacobians=jac,
                                   polyhedral_constraints=True)
        y, z = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        with pytest.raises(InfeasibleConstraintsError, match="stage 2"):
            project_stage_constraints(game, y, z)
        with pytest.raises(SubproblemError, match="stage 2"):
            resolvent_reg_static_games(game, y, z, eta=0.3)
        # Lemke's method run out of pivots is no proof of infeasibility
        def cycling(M, q, stage):
            raise SubproblemError(f"stage {stage}: Lemke's method did not terminate")

        with mock.patch.object(denseqp, "_lemke", cycling):
            with pytest.raises(SubproblemError, match="stage 2") as failed:
                project_stage_constraints(game, y, z)
        assert not isinstance(failed.value, InfeasibleConstraintsError)


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


    @staticmethod
    def stage_operator(game, k, v, w, eta):
        """Stage k's regularized operator and Jacobian from a ``quartic_stage_game``."""
        cx, cu = game.cost_gradients(k, v[:2], v[2:])
        cxx, cxu, cuu = game.cost_hessians(k, v[:2], v[2:])
        own = ([0, 1], [0, 1])  # player n holds action n
        F = np.concatenate([cx.mean(axis=0), cu[own]])
        J = np.vstack([np.concatenate([cxx, cxu], axis=2).mean(axis=0),
                       np.concatenate([cxu.swapaxes(1, 2), cuu], axis=2)[own]])
        return eta * F + v - w, eta * J + np.eye(4)

    @pytest.mark.parametrize("with_rows", [False, True])
    def test_non_quadratic_stages_match_the_vi_oracle(self, with_rows):
        # Stages 0 and 1 are quadratic, 2-4 quartic: they leave the stacked
        # Newton loop after different numbers of steps.
        game, y, z = quartic_stage_game(3, with_rows=with_rows)
        eta = 0.3
        if with_rows:
            xs, us = resolvent_reg_static_games(game, y, z, eta)
        else:
            xs, us = resolvent_static_games_uncon(game, y, z, eta)
        binding = 0
        for k in range(game.horizon + 1):
            v, w = np.concatenate([xs[k], us[k]]), np.concatenate([y[k], z[k]])
            project = lambda v: v
            if with_rows:
                g = np.concatenate(game.constraint_jacobians(k, v[:2], v[2:]), axis=1)[0]
                p = game.constraints(k, np.zeros(2), np.zeros(2))[0]
                project = lambda v: v - max(0.0, g @ v + p) * g / (g @ g)
                binding += abs(g @ v + p) <= 1e-9
            # v solves the stage game exactly when it solves the VI of the
            # operator linearized at v, which the oracle solves on its own
            F, J = self.stage_operator(game, k, v, w, eta)
            ref = static_game_vi(J, np.zeros((4, 1)), F - J @ v, np.zeros(1), project)
            np.testing.assert_allclose(v, ref, rtol=0, atol=1e-8)
        assert binding or not with_rows

    @pytest.mark.parametrize("quartic", [(0.0,), (0.0, 1.0, 0.0)])
    @pytest.mark.parametrize("declared", [False, True])
    def test_a_single_pending_stage_with_one_column(self, quartic, declared):
        # A single stage without rows gives a (1, 4, 1) right-hand side, the
        # shape whose 2-D form numpy 1.x and 2.x read differently: one stage
        # in all (horizon 0), or the quartic stage alone after the first step.
        game, y, z = quartic_stage_game(7, quartic=quartic)
        game = dataclasses.replace(game, quadratic_costs=declared and not any(quartic))
        xs, us = resolvent_static_games_uncon(game, y, z, 0.3)
        for k in range(game.horizon + 1):
            F, _ = self.stage_operator(game, k, np.concatenate([xs[k], us[k]]),
                                       np.concatenate([y[k], z[k]]), 0.3)
            assert np.max(np.abs(F)) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_declared_lq_games_solve_on_their_data(self, seed):
        game, y, z = monotone_stage_game(seed, 4, 0.5, "general")
        declared = dataclasses.replace(game, quadratic_costs=True)
        xs, us = resolvent_reg_static_games(game, y, z, 0.5)
        dx, du = resolvent_reg_static_games(declared, y, z, 0.5)
        scale = 1.0 + np.max(np.abs(np.hstack([xs, us])))
        assert np.max(np.abs(np.hstack([dx - xs, du - us]))) <= 1e-12 * scale
        # the second call reads the game's kept data, made by the first
        rx, ru = resolvent_reg_static_games(declared, y, z, 0.5)
        assert np.array_equal(rx, dx) and np.array_equal(ru, du)

    @pytest.mark.parametrize("declared", [False, True])
    def test_a_misshapen_cost_hessian_names_its_stage(self, declared):
        game, y, z = quartic_stage_game(0, quartic=(0.0, 0.0, 0.0, 0.0))
        hess = game.cost_hessians
        game = dataclasses.replace(
            game, quadratic_costs=declared,
            cost_hessians=at_stage(2, hess, lambda k, x, u: (np.ones((2, 1, 1)),
                                                             *hess(k, x, u)[1:])))
        with pytest.raises(DimensionError, match="stage 2") as exc:
            resolvent_static_games_uncon(game, y, z, 0.3)
        assert exc.value.stage == 2
        with pytest.raises(DimensionError, match="stage 2") as exc:
            local_lq(game, np.zeros((4, 2)), np.zeros((4, 2)))
        assert exc.value.stage == 2

    @staticmethod
    def failing_at(stage, how, eta, quartic=(0.0,) * 5):
        """A ``quartic_stage_game`` with rows whose stage game ``stage`` fails as ``how`` says.

        ``budget`` gives the stage a quartic cost, which needs more than the
        two Newton evaluations a quadratic stage needs.
        """
        weights = np.array(quartic)
        weights[stage] = 1.0 if how == "budget" else weights[stage]
        game, y, z = quartic_stage_game(5, quartic=tuple(weights), with_rows=True)
        if how == "non-finite":
            game = dataclasses.replace(game, cost_gradients=at_stage(
                stage, game.cost_gradients, lambda k, x, u: (np.full((2, 2), np.nan),
                                                             np.zeros((2, 2)))))
        elif how == "singular":  # J_k = -I / eta, so I + eta J_k = 0
            blocks = (np.tile(-np.eye(2) / eta, (2, 1, 1)), np.zeros((2, 2, 2)),
                      np.tile(-np.eye(2) / eta, (2, 1, 1)))
            game = dataclasses.replace(game, cost_hessians=at_stage(
                stage, game.cost_hessians, lambda k, x, u: blocks))
        elif how == "ray":  # u_0 <= -1 and u_0 >= 1
            game = dataclasses.replace(
                game,
                constraints=at_stage(stage, game.constraints,
                                     lambda k, x, u: np.array([u[0] + 1.0, 1.0 - u[0]])),
                constraint_jacobians=at_stage(
                    stage, game.constraint_jacobians,
                    lambda k, x, u: (np.zeros((2, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]]))))
        return game, y, z

    @pytest.mark.parametrize("how, says", [
        ("non-finite", "not finite"), ("singular", "singular Jacobian"),
        ("budget", "did not converge in 2 Newton steps"), ("ray", "ended on a ray")])
    def test_a_failing_middle_stage_is_named(self, monkeypatch, how, says):
        monkeypatch.setattr(splitting, "INNER_MAX_ITER", 2)
        game, y, z = self.failing_at(2, how, 0.5)
        with pytest.raises(SubproblemError, match=f"stage 2.*{says}"):
            resolvent_reg_static_games(game, y, z, 0.5)
        if how != "ray":
            with pytest.raises(SubproblemError, match=f"stage 2.*{says}"):
                resolvent_static_games_uncon(game, y, z, 0.5)

    @pytest.mark.parametrize("how", ["non-finite", "singular", "ray"])
    def test_the_first_failing_stage_in_stage_order_is_named(self, monkeypatch, how):
        # Stage 3 fails at the first step, stage 1 only when the budget of
        # two steps is spent: stage by stage, stage 1 fails first.
        monkeypatch.setattr(splitting, "INNER_MAX_ITER", 2)
        game, y, z = self.failing_at(3, how, 0.5, quartic=(0.0, 1.0, 0.0, 0.0, 0.0))
        with pytest.raises(SubproblemError, match="stage 1 regularized static game did not "
                                                  "converge"):
            resolvent_reg_static_games(game, y, z, 0.5)
        monkeypatch.setattr(splitting, "INNER_MAX_ITER", 300)
        with pytest.raises(SubproblemError, match="stage 3"):
            resolvent_reg_static_games(game, y, z, 0.5)

LCP_LAYOUTS = ("general", "tied", "duplicated", "opposite")


def monotone_stage_lcp(seed, m, n, layout):
    """A stage LCP as ``_static_games`` poses it: M = G J^{-1} G', q = -(G v + p).

    J has a positive definite symmetric part and a random skew part.  The m
    rows hold at an anchor point with random slack, some zero; ``layout``
    puts every row through the anchor (``tied``), copies a row
    (``duplicated``) or adds its negation (``opposite``, an equality when its
    slack is zero).  v, the unconstrained point, usually violates some rows.
    Returns M, q and J^{-1} G', which maps the multipliers to the step.
    """
    r = np.random.default_rng(seed)
    A, K = r.standard_normal((n, n)), r.standard_normal((n, n))
    J = A @ A.T + 0.1 * np.eye(n) + K - K.T
    G = r.standard_normal((m, n))
    slack = np.where(r.random(m) < 0.3, 0.0, r.uniform(0.0, 1.0, m))
    if layout == "tied":
        slack[:] = 0.0
    elif layout in ("duplicated", "opposite") and m >= 2:
        G[1], slack[1] = (G[0] if layout == "duplicated" else -G[0]), slack[0]
    anchor = r.standard_normal(n)
    return stage_lcp(J, G, -G @ anchor - slack, anchor + 2.0 * r.standard_normal(n))


def stage_lcp(J, G, p, v):
    """M, q and J^{-1} G' of the rows G v + p <= 0 about the unconstrained point v."""
    dv = np.linalg.solve(J, G.T)
    return G @ dv, -(G @ v + p), dv


class TestStageLcp:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), n=st.integers(1, 4),
           layout=st.sampled_from(LCP_LAYOUTS), solver=st.sampled_from(["_lemke", "_stage_lcp"]))
    def test_matches_enumeration_on_monotone_lcps(self, seed, m, n, layout, solver):
        M, q, dv = monotone_stage_lcp(seed, m, n, layout)
        ref = brute_force_lcp(M, q)
        assume(ref is not None)
        z = getattr(denseqp, solver)(M, q, 3)
        w = q + M @ z
        tol = 1e-9 * (1.0 + np.max(np.abs(q))) * (1.0 + np.max(np.abs(z)))
        assert np.all(z >= -tol) and np.all(w >= -tol)
        assert np.max(np.abs(z * w)) <= tol * (1.0 + np.max(np.abs(z)))
        # the multipliers need not be unique for dependent rows; the step is
        np.testing.assert_allclose(dv @ z, dv @ ref, rtol=0, atol=tol)

    @pytest.mark.parametrize("solver", ["_lemke", "_stage_lcp"])
    def test_infeasible_rows_raise_naming_the_stage(self, rng, solver):
        # g'v <= -1 and -g'v <= -1 ask for 1 <= g'v <= -1; a third row is loose
        K = rng.standard_normal((3, 3))
        g, h = rng.standard_normal((2, 3))
        M, q, _ = stage_lcp(np.eye(3) + K - K.T, np.array([g, -g, h]), np.array([1.0, 1.0, -5.0]),
                            rng.standard_normal(3))
        with pytest.raises(SubproblemError, match="stage 7"):
            getattr(denseqp, solver)(M, q, 7)

    def test_a_failed_guess_falls_back_to_lemke(self, monkeypatch):
        # a zero-cost stage game is the projection of (y_1, z_1) = (2, 0.5) onto
        # x <= 0, x + u <= 1: both rows are violated there, the projection
        # (0, 0.5) holds only the first
        def rows(k, x, u):
            return np.array([x[0], x[0] + u[0] - 1.0]) if k == 1 else np.zeros(0)

        def jac(k, x, u):
            m = 2 if k == 1 else 0
            return np.ones((m, 1)), np.array([[0.0], [1.0]])[:m]

        game = dataclasses.replace(identity_sum_game(T=2, state_dim=1, action_dims=(1,)),
                                   constraints=rows, constraint_jacobians=jac,
                                   polyhedral_constraints=True)
        y, z = np.array([[0.3], [2.0], [-1.0]]), np.array([[0.1], [0.5], [0.2]])
        lemke = []
        real = denseqp._lemke
        monkeypatch.setattr(denseqp, "_lemke", lambda *args: lemke.append(1) or real(*args))
        xs, us = resolvent_reg_static_games(game, y, z, 0.7)
        assert len(lemke) == 1
        ref_x, ref_u = static_games_by_enumeration(game, y, z, 0.7)
        np.testing.assert_allclose(xs, ref_x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(us, ref_u, rtol=0, atol=1e-12)
        np.testing.assert_allclose([xs[1, 0], us[1, 0]], [0.0, 0.5], rtol=0, atol=1e-12)


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
            self, eta, residual_gate_binds, dr_without_polish):
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
        # started at eta = 1e-1 the step passes two iterations before the
        # rows hold along the candidate's rollout; the run must not stop there
        first_step_pass = int(np.argmax(trace[:, 0] <= tol)) + 1
        assert (first_step_pass < rep.iterations) == residual_gate_binds

    def test_violated_stage_never_reports_tolerance(self, rng, monkeypatch):
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
        # the polish would certify the equilibrium that meets the rows; the
        # subject is DR's own stop test, so it runs without the polish
        monkeypatch.setattr(splitting, "active_set_polish", lambda *args: None)
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
    def test_static_game_schemes_read_the_costs_once_per_solve(self, rng, scheme):
        # A declared linear-quadratic game's stage operators come from its
        # one kept read, so three more steps make no more cost callbacks.
        base, _, _ = cross_scheme_lq_instance(rng)
        calls = []

        def counted(name, callback):
            def wrapped(*args):
                calls.append(name)
                return callback(*args)
            return wrapped

        counts = []
        for max_iter in (3, 6):
            # a fresh, unread game for each budget
            game = dataclasses.replace(base, cost_gradients=counted("g", base.cost_gradients),
                                       cost_hessians=counted("h", base.cost_hessians))
            calls.clear()
            # at tol 1e-300 neither the step test nor the polish ends the run
            rep = dr_solve(game, DrConfig(scheme=scheme, eta=0.1, max_iter=max_iter,
                                          tol=1e-300, record_costs=False, run_checks=False))
            assert rep.iterations == max_iter and rep.termination == TERM_MAX_ITER
            counts.append((calls.count("g"), calls.count("h")))
        assert counts[0] == counts[1]

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
        rule = splitting._Anderson(w0.size, 1e8 * (1.0 + float(np.linalg.norm(w0))))
        run = iterate(lambda w, c: (g(w), c), w0, None, 2000, 1e-15, next_point=rule.next_point)
        w = run.iterates[-1]
        assert np.max(np.abs(g(w) - w)) <= 1e-12
        a = first(w)
        for new in (eta * splitting.BALANCE_FACTOR, eta / splitting.BALANCE_FACTOR):
            _, g_new = self.rendezvous_map(game, new)
            rescaled = a + (new / eta) * (w - a)
            assert np.max(np.abs(g_new(rescaled) - rescaled)) <= 1e-12
            assert np.max(np.abs(g_new(w) - w)) > 1e-2  # the unscaled point is not

    def test_eta_changes_by_the_factor_until_frozen(self, monkeypatch, dr_without_polish):
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
        # log steps in base BALANCE_FACTOR
        steps = np.log(np.array(etas) / cfg.eta) / np.log(splitting.BALANCE_FACTOR)
        assert 1 < len(etas) <= 1 + splitting.BALANCE_MAX_CHANGES
        np.testing.assert_allclose(np.abs(np.diff(steps)), 1.0)
        etas.clear()
        monkeypatch.setattr(splitting, "BALANCE_MAX_CHANGES", 3)
        frozen = dr_solve(game, cfg)
        # the first three checks all raise eta, then it stays
        np.testing.assert_allclose(etas, cfg.eta * splitting.BALANCE_FACTOR ** np.arange(4))
        assert frozen.iterations > rep.iterations

    # (10, 8, 1.5, 1000) is the variant where steps of 4 cost the most steps over steps of 2
    @pytest.mark.parametrize("variant", [(10, 8, 1.5, 1000.0), (10, 3, 2.0, 1000.0),
                                         (15, 7, 3.0, 100.0), (30, 12, 2.0, 1000.0)])
    @pytest.mark.parametrize("eta", [1e-5, 1e-4, 10.0])
    def test_balanced_rendezvous_variants_reach_the_tight_equilibrium(self, variant, eta,
                                                                      dr_without_polish):
        game, actions = tight_rendezvous(variant)
        cfg = DrConfig(eta=eta, record_costs=False, run_checks=False)
        rep = dr_solve(game, cfg)
        assert rep.termination == TERM_TOLERANCE and rep.constraint_residual <= cfg.tol
        np.testing.assert_allclose(rep.trajectory.actions, actions, rtol=0, atol=1e-6)

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


def test_fishery_dr_needs_both_its_extrapolation_and_its_balancing():
    # The polish cannot end this nonlinear game, so DR's next-point rule
    # decides how far 300 steps get: a natural residual of 0.143, against
    # 0.235 without the Anderson extrapolation and 0.345 without balancing.
    rep = dr_solve(fishery_game(FisheryParams(horizon_time=10.0)),
                   DrConfig(eta=1e-4, max_iter=300))
    assert rep.termination == TERM_MAX_ITER
    assert rep.natural_residual <= 0.2
