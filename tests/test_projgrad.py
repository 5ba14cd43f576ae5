"""Projected gradient solver and its feasibility projection."""

import numpy as np
import pytest

from dyngames.benchmarks import FisheryParams, fishery_game
from dyngames.errors import InfeasibleConstraintsError
from dyngames.gradient import pseudo_gradient
from dyngames.model import GameDefinition, rollout
from dyngames.projgrad import ProjGradConfig, project_onto_feasible, projected_gradient_solve
from dyngames.report import TERM_DIVERGENCE, TERM_TOLERANCE, fit_log_decay

from conftest import monotone_quadratic_game, random_lq_game
from oracles import brute_force_qp


def box_projector_game(rng, T=2, lo=0.0, hi=0.4):
    game, lq = random_lq_game(rng, T=T, state_dim=2, action_dims=(1, 1))

    def constraint(k, x, u):
        return np.concatenate([u - hi, lo - u])

    def constraint_jac(k, x, u):
        return np.zeros((4, 2)), np.vstack([np.eye(2), -np.eye(2)])

    boxed = GameDefinition(
        horizon=T, state_dim=2, action_dims=(1, 1),
        initial_state=game.initial_state,
        dynamics=game.dynamics, stage_costs=game.stage_costs,
        constraints=constraint,
        dynamics_jacobians=game.dynamics_jacobians,
        dynamics_hessians=game.dynamics_hessians,
        cost_gradients=game.cost_gradients, cost_hessians=game.cost_hessians,
        constraint_jacobians=constraint_jac,
        traj_projector=lambda states, actions: (states, np.clip(actions, lo, hi)),
        linear_dynamics=True, polyhedral_constraints=True,
        constraints_in_actions_only=True)
    return boxed, lq


def state_coupled_game(rng, T=3):
    """Linear dynamics with one state-coupled affine row per stage."""
    game, lq = random_lq_game(rng, T=T, state_dim=2, action_dims=(1, 1))
    w = np.array([0.8, -0.4])
    s = np.array([1.0, 0.6])
    p = -0.7

    def constraint(k, x, u):
        return np.array([w @ x + s @ u + p])

    def constraint_jac(k, x, u):
        return w[None, :], s[None, :]

    return GameDefinition(
        horizon=T, state_dim=2, action_dims=(1, 1),
        initial_state=game.initial_state,
        dynamics=game.dynamics, stage_costs=game.stage_costs,
        constraints=constraint,
        dynamics_jacobians=game.dynamics_jacobians,
        dynamics_hessians=game.dynamics_hessians,
        cost_gradients=game.cost_gradients, cost_hessians=game.cost_hessians,
        constraint_jacobians=constraint_jac,
        linear_dynamics=True, polyhedral_constraints=True), lq, (w, s, p)


def stacked_projection_oracle(game, lq, rows, target):
    """Dense QP for min |u - target|^2 with eliminated states."""
    T = game.horizon
    n_x, n_u = game.state_dim, game.total_action_dim
    A, B, b = lq["A"], lq["B"], lq["b"]
    w, s, p = rows
    dim = (T + 1) * n_u
    # affine state maps x_k = c_k + M_k @ uvec
    G_rows, h_rows = [], []
    c = game.initial_state.copy()
    M = np.zeros((n_x, dim))
    for k in range(T + 1):
        row = np.zeros(dim)
        row[k * n_u:(k + 1) * n_u] = s
        G_rows.append(w @ M + row)
        h_rows.append(-(w @ c + p))
        if k < T:
            Mn = A[k] @ M
            Mn[:, k * n_u:(k + 1) * n_u] += B[k]
            M = Mn
            c = A[k] @ c + b[k]
    H = 2 * np.eye(dim)
    f = -2 * target.reshape(-1)
    z = brute_force_qp(H, f, np.vstack(G_rows), np.array(h_rows))
    return z.reshape(T + 1, n_u)


class TestProjection:
    def test_feasible_input_unchanged(self, rng):
        game, _ = box_projector_game(rng)
        u = rng.uniform(0.0, 0.4, size=(3, 2))
        np.testing.assert_allclose(project_onto_feasible(game, u), u)

    def test_scalar_clamp(self, rng):
        game, _ = box_projector_game(rng, T=0)
        u = np.array([[0.7, -0.3]])
        out = project_onto_feasible(game, u)
        np.testing.assert_allclose(out, [[0.4, 0.0]])

    def test_state_coupled_rows_match_dense_oracle(self, rng):
        game, lq, rows = state_coupled_game(rng, T=3)
        for _ in range(3):
            target = rng.standard_normal((4, 2))
            mine = project_onto_feasible(game, target)
            oracle = stacked_projection_oracle(game, lq, rows, target)
            np.testing.assert_allclose(mine, oracle, atol=5e-7)

    def test_idempotence(self, rng):
        game, lq, rows = state_coupled_game(rng, T=2)
        target = rng.standard_normal((3, 2))
        once = project_onto_feasible(game, target)
        twice = project_onto_feasible(game, once)
        assert np.max(np.abs(twice - once)) <= 2e-8

    def test_nonexpansive_on_sampled_pairs(self, rng):
        game, _ = box_projector_game(rng, T=2)
        for _ in range(10):
            a = rng.standard_normal((3, 2))
            b = rng.standard_normal((3, 2))
            pa = project_onto_feasible(game, a)
            pb = project_onto_feasible(game, b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9

    def test_infeasible_rows_raise(self, rng):
        game, lq = random_lq_game(rng, T=1, state_dim=2, action_dims=(1, 1))
        contradictory = GameDefinition(
            horizon=1, state_dim=2, action_dims=(1, 1),
            initial_state=game.initial_state,
            dynamics=game.dynamics, stage_costs=game.stage_costs,
            constraints=lambda k, x, u: np.array([u[0] - (-1.0), 1.0 - u[0]]),
            dynamics_jacobians=game.dynamics_jacobians,
            cost_gradients=game.cost_gradients,
            constraint_jacobians=lambda k, x, u: (
                np.zeros((2, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]])),
            linear_dynamics=True, polyhedral_constraints=True)
        with pytest.raises(InfeasibleConstraintsError):
            project_onto_feasible(contradictory, np.zeros((2, 2)))


class TestProjectedGradient:
    def test_config_rejects_negative_iteration_budget(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ProjGradConfig(max_iter=-1)
        assert ProjGradConfig(max_iter=0).max_iter == 0

    @pytest.mark.parametrize("field, value", [
        ("step_size", 0.0), ("step_size", np.nan), ("tol", np.nan),
        ("step_size", np.inf), ("tol", np.inf)])
    def test_config_rejects_bad_step_and_tolerances(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProjGradConfig(**{field: value})

    def test_fixed_point_terminates_in_one_iteration(self, rng):
        game, mu, L = monotone_quadratic_game(rng)
        cfg = ProjGradConfig(step_size=mu / L**2, max_iter=20000, tol=1e-12)
        first = projected_gradient_solve(game, np.zeros((3, 2)), cfg)
        assert first.converged
        again = projected_gradient_solve(game, first.trajectory.actions,
                                         ProjGradConfig(step_size=mu / L**2,
                                                        max_iter=50, tol=1e-10))
        assert again.iterations == 1
        assert again.step_norms[0] <= 1e-10

    def test_contraction_rate_within_theory_bound(self, rng):
        game, mu, L = monotone_quadratic_game(rng)
        rho = mu / L**2
        cfg = ProjGradConfig(step_size=rho, max_iter=3000, tol=1e-13)
        rep = projected_gradient_solve(game, 0.5 * np.ones((3, 2)), cfg)
        bound = np.sqrt(1 + rho**2 * L**2 - 2 * rho * mu)
        assert rep.fitted_rate <= bound + 0.02

    def test_distance_decays_monotonically(self, rng):
        game, mu, L = monotone_quadratic_game(rng)
        cfg = ProjGradConfig(step_size=mu / L**2, max_iter=2000, tol=1e-13)
        rep = projected_gradient_solve(game, 0.5 * np.ones((3, 2)), cfg)
        d = rep.distance_trace
        d = d[d > 1e-12]
        assert np.all(np.diff(d) <= 1e-12)

    def test_fixed_point_solves_vi(self, rng):
        # box complementarity at the solution: interior coords have zero
        # gradient, coords at the bound have the gradient pushing outward.
        game, mu, L = monotone_quadratic_game(rng)
        cfg = ProjGradConfig(step_size=mu / L**2, max_iter=30000, tol=1e-13)
        rep = projected_gradient_solve(game, np.zeros((3, 2)), cfg)
        traj = rep.trajectory
        g = pseudo_gradient(game, traj).own_stage_grads()
        for k in range(3):
            for i in range(2):
                u = traj.actions[k, i]
                if abs(u) < 0.6 - 1e-7:
                    assert abs(g[k, i]) <= 1e-6
                elif u >= 0.6 - 1e-7:
                    assert g[k, i] <= 1e-6
                else:
                    assert g[k, i] >= -1e-6

    def test_divergence_guard(self, rng):
        game, mu, L = monotone_quadratic_game(rng)
        cfg = ProjGradConfig(step_size=1e7, max_iter=500, tol=1e-13, run_checks=False)
        unconstrained = GameDefinition(
            horizon=2, state_dim=1, action_dims=(1, 1),
            initial_state=[0.0],
            dynamics=game.dynamics, stage_costs=game.stage_costs,
            dynamics_jacobians=game.dynamics_jacobians,
            cost_gradients=game.cost_gradients, cost_hessians=game.cost_hessians)
        rep = projected_gradient_solve(unconstrained, np.ones((3, 2)), cfg)
        assert rep.termination == TERM_DIVERGENCE

    def test_report_has_costs_and_verdicts(self, rng):
        game, mu, L = monotone_quadratic_game(rng)
        cfg = ProjGradConfig(step_size=mu / L**2, max_iter=4000, tol=1e-12)
        rep = projected_gradient_solve(game, np.zeros((3, 2)), cfg)
        assert rep.termination == TERM_TOLERANCE
        assert rep.cost_iterations[0] == 0 and rep.cost_iterations[-1] == rep.iterations
        # the last row is the reported result's, polished or not
        np.testing.assert_array_equal(rep.cost_trace[-1], rep.final_costs)
        assert rep.final_costs.shape == (2,)
        assert len(rep.verdicts) == 2
        assert rep.all_players_pass

def test_the_solver_runs_the_plain_iteration_bit_for_bit():
    game = fishery_game(FisheryParams(horizon_time=2.0))
    u0 = np.ones((game.horizon + 1, 2))  # zero harvest is a fixed point
    cfg = ProjGradConfig(max_iter=40, record_costs=False, run_checks=False)
    rep = projected_gradient_solve(game, u0, cfg)
    u, steps = project_onto_feasible(game, u0), []
    for _ in range(cfg.max_iter):
        grad = pseudo_gradient(game, rollout(game, game.initial_state, u), feas_tol=np.inf)
        u_next = project_onto_feasible(game, u - cfg.step_size * grad.own_stage_grads())
        steps.append(float(np.max(np.abs(u_next - u))))
        u = u_next
    assert rep.iterations == cfg.max_iter
    np.testing.assert_array_equal(rep.trajectory.actions, u)
    np.testing.assert_array_equal(rep.step_norms, steps)
    assert np.isfinite(rep.fitted_rate)
    assert (rep.fitted_rate, rep.rate_fit_rmse) == fit_log_decay(steps)
