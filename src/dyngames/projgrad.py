"""Projected gradient solver for open-loop equilibria of constrained games.

Iterates ``u <- Proj(u - rho * PG(u))`` where PG is the stacked pseudo-
gradient and Proj is the projection of an action sequence onto the feasible
set {u : rolled-out trajectory satisfies the stage constraints}.  For a
mu-strongly monotone, L-Lipschitz gradient operator and rho L^2 <= 2 mu the
iteration contracts with factor sqrt(1 + rho^2 L^2 - 2 rho mu) per step.

The projection subproblem minimizes the squared action distance subject to
dynamics and stage constraints.  Two constraint classes are supported:

* analytic projectors on actions only (no state coupling): the projection
  decouples stagewise and runs over the whole horizon at once
  (``GameDefinition.eval_traj_projection``);
* affine stage constraints with linear dynamics: one exact QP over the
  whole stacked trajectory, with the dynamics as equality rows, the stage
  rows as inequality rows and weight zero on the states
  (``splitting.action_space_projection``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SubproblemError, UnsupportedConstraintError
from .gradient import playerwise_minimizer_check, pseudo_gradient
from .model import GameDefinition, Trajectory, all_player_costs, rollout
from .report import (
    TERM_DIVERGENCE,
    TERM_MAX_ITER,
    TERM_TOLERANCE,
    SolverReport,
    build_report,
)
from . import splitting

Array = np.ndarray


@dataclass
class ProjGradConfig:
    """Step size, iteration budget and tolerances for the projected gradient."""

    step_size: float = 0.01
    max_iter: int = 1000
    tol: float = 1e-8
    divergence_factor: float = 1e8
    record_costs: bool = True
    run_checks: bool = True

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError(f"step size must be positive, got {self.step_size}")
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.max_iter < 0:
            raise ValueError(f"iteration budget must be nonnegative, got {self.max_iter}")


def _projection_route(game: GameDefinition) -> Optional[str]:
    """How ``project_onto_feasible`` projects: None (no constraints), "analytic" or "qp"."""
    if game.constraints is None:
        return None
    if game.constraints_in_actions_only and (game.traj_projector is not None
                                             or game.stage_projector is not None):
        return "analytic"
    if game.linear_dynamics and game.polyhedral_constraints:
        return "qp"
    raise UnsupportedConstraintError(
        "projection requires either action-only analytic projectors or "
        "affine constraints with linear dynamics")


def project_onto_feasible(game: GameDefinition, actions: Array,
                          qp: Optional[splitting.HorizonQp] = None) -> Array:
    """Closest feasible joint-action sequence to ``actions``.

    Minimizes the summed squared action deviation subject to the dynamics
    (states rolled out from the game's initial state) and the stage
    constraints.  Identity on feasible inputs.  On the affine-row route
    ``qp`` (from ``splitting.horizon_qp(game, 0.0)``) reuses the QP rows
    across calls; they are built here when it is None.
    """
    actions = np.asarray(actions, dtype=float)
    route = _projection_route(game)
    if route is None:
        return actions.copy()
    if route == "qp":
        return splitting.action_space_projection(game, actions, qp)
    # only the stacked stage projector needs the rolled-out states
    states = (None if game.traj_projector is not None
              else rollout(game, game.initial_state, actions).states)
    return game.eval_traj_projection(states, actions)[1]


def projected_gradient_solve(game: GameDefinition, u0: Array,
                             cfg: ProjGradConfig) -> SolverReport:
    """Run the projected gradient iteration from u0 (repaired if infeasible)."""
    T, n_u = game.horizon, game.total_action_dim
    u = np.asarray(u0, dtype=float)
    if u.shape == (T, n_u):
        u = np.vstack([u, np.zeros(n_u)])
    if u.shape != (T + 1, n_u):
        raise ValueError(f"u0 must have shape {(T + 1, n_u)}, got {u.shape}")
    # the QP rows do not depend on the point, so one build serves the solve
    qp = splitting.horizon_qp(game, 0.0) if _projection_route(game) == "qp" else None
    u = project_onto_feasible(game, u, qp)
    u_scale0 = 1.0 + float(np.linalg.norm(u))

    iterates = [u.copy()]
    step_norms: list[float] = []
    costs: list[Array] = []
    termination = TERM_MAX_ITER
    traj = rollout(game, game.initial_state, u)
    for _ in range(cfg.max_iter):
        if cfg.record_costs:
            costs.append(all_player_costs(game, traj))
        grad = pseudo_gradient(game, traj, feas_tol=np.inf)
        stepped = u - cfg.step_size * grad.own_stage_grads()
        u_next = project_onto_feasible(game, stepped, qp)
        step = float(np.max(np.abs(u_next - u)))
        step_norms.append(step)
        u = u_next
        iterates.append(u.copy())
        traj = rollout(game, game.initial_state, u)
        if step <= cfg.tol:
            termination = TERM_TOLERANCE
            break
        if np.linalg.norm(u) > cfg.divergence_factor * u_scale0:
            termination = TERM_DIVERGENCE
            break
    if cfg.record_costs:
        costs.append(all_player_costs(game, traj))
    verdicts = []
    if cfg.run_checks and termination != TERM_DIVERGENCE:
        verdicts = playerwise_minimizer_check(game, traj)
    return build_report(
        trajectory=traj,
        iterates=iterates,
        step_norms=step_norms,
        termination=termination,
        verdicts=verdicts,
        cost_trace=np.asarray(costs) if costs else None,
        final_costs=all_player_costs(game, traj),
        dynamics_residual=float(np.max(traj.dynamics_residuals(game), initial=0.0)),
        constraint_residual=splitting._constraint_violation(game, traj))
