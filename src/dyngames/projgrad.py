"""Projected gradient solver for open-loop equilibria of constrained games.

Iterates ``u <- Proj(u - rho * PG(u))`` where PG is the stacked pseudo-
gradient and Proj is the projection of an action sequence onto the feasible
set {u : rolled-out trajectory satisfies the stage constraints}.  For a
mu-strongly monotone, L-Lipschitz gradient operator and rho L^2 <= 2 mu the
iteration contracts with factor sqrt(1 + rho^2 L^2 - 2 rho mu) per step.

The projection subproblem minimizes the squared action distance subject to
dynamics and stage constraints (``certificate.project_onto_feasible``: an
analytic projector on actions only, or one exact QP over the whole stacked
trajectory for affine rows with linear dynamics, solved in band).

The solver is that projection step and one call of ``report.iterate``,
which owns the loop and the stop tests it shares with ``splitting.dr_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import active_set_polish, project_onto_feasible
from .gradient import pseudo_gradient
from .model import GameDefinition, all_player_costs, rollout
from .report import SolverReport, build_report, iterate

Array = np.ndarray


@dataclass
class ProjGradConfig:
    """Step size, iteration budget and tolerance for the projected gradient.

    A run whose iterate grows past ``report.DIVERGENCE_FACTOR`` times
    (1 + |u0|_2) ends with ``divergence`` (``report.iterate`` reads it).
    ``record_costs`` fills the report's ``cost_trace`` (``SolverReport``).
    """

    step_size: float = 0.01
    max_iter: int = 1000
    tol: float = 1e-8
    record_costs: bool = True
    run_checks: bool = True

    def __post_init__(self):
        # each test is written so that NaN fails it
        for name in ("step_size", "tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")


def projected_gradient_solve(game: GameDefinition, u0: Array,
                             cfg: ProjGradConfig) -> SolverReport:
    """Run the projected gradient iteration from u0 (repaired if infeasible).

    The iterate is the action sequence and the candidate its rollout, on
    which the next pseudo-gradient is taken; ``report.iterate`` runs the
    loop.  For a game that declares linear dynamics and quadratic costs,
    the active-set polish (``certificate.active_set_polish``) is offered
    the candidate after every step: it pins the candidate's near-active
    rows and, for affine rows, corrects that set until a pinned solve is
    certified (natural residual <= ``cfg.tol``), for curved rows takes
    Newton steps until the KKT residual is <= ``cfg.tol``.  A certified
    point ends the run with ``tolerance``.
    """
    T, n_u = game.horizon, game.total_action_dim
    u = np.asarray(u0, dtype=float)
    if u.shape == (T, n_u):
        u = np.vstack([u, np.zeros(n_u)])
    if u.shape != (T + 1, n_u):
        raise ValueError(f"u0 must have shape {(T + 1, n_u)}, got {u.shape}")
    u = project_onto_feasible(game, u)
    traj = rollout(game, game.initial_state, u)

    def step(u, traj):
        grad = pseudo_gradient(game, traj, feas_tol=np.inf)
        u_next = project_onto_feasible(game, u - cfg.step_size * grad.own_stage_grads())
        return u_next, rollout(game, game.initial_state, u_next)

    costs = (lambda traj: all_player_costs(game, traj)) if cfg.record_costs else None
    run = iterate(step, u, traj, cfg.max_iter, cfg.tol, record=costs,
                  polish=active_set_polish(game, cfg.tol))
    return build_report(game, run.candidate, run, cfg.run_checks)
