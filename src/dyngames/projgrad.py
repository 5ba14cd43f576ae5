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
  (``splitting.horizon_qp(game, 0.0)``).

The solver is that projection step and one call of ``report.iterate``,
which owns the loop and the stop tests it shares with ``splitting.dr_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedConstraintError
from .gradient import pseudo_gradient
from .model import GameDefinition, all_player_costs, rollout
from .report import SolverReport, build_report, iterate
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
        # written as ``not x > 0`` so that NaN is rejected too
        if not self.step_size > 0:
            raise ValueError(f"step size must be positive, got {self.step_size}")
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if not self.divergence_factor > 0:
            raise ValueError(f"divergence factor must be positive, got {self.divergence_factor}")
        if self.max_iter < 0:
            raise ValueError(f"iteration budget must be nonnegative, got {self.max_iter}")


def _projection_route(game: GameDefinition) -> Optional[str]:
    """How ``project_onto_feasible`` projects: None (no constraints), "analytic" or "qp"."""
    if game.constraints is None:
        return None
    if game.constraints_in_actions_only and game.traj_projector is not None:
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
    across calls; they are built here when it is None.  That QP weighs the
    states by zero: the dynamics rows tie them to the actions, so they carry
    the stage rows without entering the objective.
    """
    actions = np.asarray(actions, dtype=float)
    route = _projection_route(game)
    if route is None:
        return actions.copy()
    if route == "analytic":
        return game.eval_traj_projection(None, actions)[1]
    if qp is None:
        qp = splitting.horizon_qp(game, 0.0)
    elif qp.state_weight != 0.0:
        raise ValueError(f"action-space projection needs state weight 0, got {qp.state_weight}")
    return qp.project(np.zeros((actions.shape[0], game.state_dim)), actions)[1]


def projected_gradient_solve(game: GameDefinition, u0: Array,
                             cfg: ProjGradConfig) -> SolverReport:
    """Run the projected gradient iteration from u0 (repaired if infeasible).

    The iterate is the action sequence and the candidate its rollout, on
    which the next pseudo-gradient is taken; ``report.iterate`` runs the
    loop.  With ``record_costs`` the cost trace holds the players' costs at
    the initial iterate and after every step.
    """
    T, n_u = game.horizon, game.total_action_dim
    u = np.asarray(u0, dtype=float)
    if u.shape == (T, n_u):
        u = np.vstack([u, np.zeros(n_u)])
    if u.shape != (T + 1, n_u):
        raise ValueError(f"u0 must have shape {(T + 1, n_u)}, got {u.shape}")
    # the QP rows do not depend on the point, so one build serves the solve
    qp = splitting.horizon_qp(game, 0.0) if _projection_route(game) == "qp" else None
    u = project_onto_feasible(game, u, qp)
    traj = rollout(game, game.initial_state, u)

    def step(u, traj):
        grad = pseudo_gradient(game, traj, feas_tol=np.inf)
        u_next = project_onto_feasible(game, u - cfg.step_size * grad.own_stage_grads(), qp)
        return u_next, rollout(game, game.initial_state, u_next)

    costs = (lambda traj: all_player_costs(game, traj)) if cfg.record_costs else None
    run = iterate(step, u, traj, cfg.max_iter, cfg.tol, cfg.divergence_factor, record=costs)
    cost_trace = [costs(traj)] + run.records if costs else []
    return build_report(game, run.candidate, run.candidate, run, cfg.run_checks, cost_trace)
