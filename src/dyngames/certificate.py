"""Certifying an equilibrium candidate: the natural residual and the active-set polish.

An open-loop equilibrium solves the variational inequality VI(F, K): F is
the game operator (``gradient.pseudo_gradient``, each player's gradient of
its own cost in its own actions, states rolled out) and K the action
sequences whose rollouts meet every stage row.  Its natural residual

    r(u) = |u - P(u - F(u))|_inf,    P the Euclidean projection onto K,

is zero exactly at the solutions (Facchinei and Pang, *Finite-Dimensional
Variational Inequalities and Complementarity Problems*, 2003, section
1.5).  ``project_onto_feasible`` is P; ``natural_residual`` is r.

The projected gradient and Douglas-Rachford iterations identify the active
rows long before they converge.  ``active_set_polish`` builds a hook for
``report.iterate`` that pins every row within POLISH_DELTA of active at a
candidate, solves the open-loop KKT system once with those rows as
equalities and shared multipliers (``lq.solve_pinned``) and offers the
result, certified: the multipliers are nonnegative, the other rows hold and
r(u) <= tol (projected-Newton active-set identification: Bertsekas, SIAM J.
Control Optim. 20, 1982; Facchinei, Fischer and Kanzow, SIAM J. Optim. 9,
1998).  It exists for linear-quadratic games with affine rows or none,
where that one solve is exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import lq
from .errors import StageSingularityError, UnsupportedConstraintError
from .gradient import pseudo_gradient
from .model import GameDefinition, Trajectory, rollout

Array = np.ndarray

# A row whose value at a candidate is at least -POLISH_DELTA is pinned.
POLISH_DELTA = 1e-3


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
                          qp: Optional[lq.HorizonQp] = None) -> Array:
    """Closest feasible joint-action sequence to ``actions``.

    Minimizes the summed squared action deviation subject to the dynamics
    (states rolled out from the game's initial state) and the stage
    constraints.  Identity on feasible inputs.  Two constraint classes are
    supported; others raise UnsupportedConstraintError:

    * analytic projectors on actions only (no state coupling): the
      projection decouples stagewise and runs over the whole horizon at once
      (``GameDefinition.eval_traj_projection``);
    * affine stage rows with linear dynamics: one exact QP over the whole
      stacked trajectory, with the dynamics as equality rows, the stage rows
      as inequality rows and weight zero on the states.  ``qp`` (from
      ``lq.horizon_qp(game, 0.0)``, or ``projection_qp``) reuses its rows
      across calls; they are built here when it is None.  The dynamics rows
      tie the states to the actions, so the states carry the stage rows
      without entering the objective.
    """
    actions = np.asarray(actions, dtype=float)
    route = _projection_route(game)
    if route is None:
        return actions.copy()
    if route == "analytic":
        return game.eval_traj_projection(None, actions)[1]
    if qp is None:
        qp = lq.horizon_qp(game, 0.0)
    elif qp.state_weight != 0.0:
        raise ValueError(f"action-space projection needs state weight 0, got {qp.state_weight}")
    return qp.project(np.zeros((actions.shape[0], game.state_dim)), actions)[1]


def projection_qp(game: GameDefinition) -> Optional[lq.HorizonQp]:
    """The QP rows ``project_onto_feasible`` needs, built once for a solve.

    None when it needs none: no constraints, an analytic projector, or no
    projection at all.
    """
    try:
        route = _projection_route(game)
    except UnsupportedConstraintError:
        return None
    return lq.horizon_qp(game, 0.0) if route == "qp" else None


def natural_residual(game: GameDefinition, actions: Array,
                     qp: Optional[lq.HorizonQp] = None) -> float:
    """r(u) = |u - P(u - F(u))|_inf, F taken along the rollout of ``actions``.

    ``qp`` is passed on to ``project_onto_feasible``.  Raises
    UnsupportedConstraintError, before any other work, where the game has
    no projection.
    """
    _projection_route(game)
    u = np.asarray(actions, dtype=float)
    F = pseudo_gradient(game, rollout(game, game.initial_state, u),
                        feas_tol=np.inf).own_stage_grads()
    return float(np.max(np.abs(u - project_onto_feasible(game, u - F, qp))))


def active_set_polish(game: GameDefinition, tol: float,
                      qp: Optional[lq.HorizonQp] = None) -> Optional["ActiveSetPolish"]:
    """The polish hook of ``report.iterate`` for ``game``, or None out of scope.

    The hook exists for games that declare linear dynamics and quadratic
    costs and either declare affine rows or have none; ``qp`` is as in
    ``natural_residual`` (built here when the projection needs one).
    """
    if not (game.linear_dynamics and game.quadratic_costs
            and (game.constraints is None or game.polyhedral_constraints)):
        return None
    return ActiveSetPolish(game, tol, projection_qp(game) if qp is None else qp)


class ActiveSetPolish:
    """Pinned-row KKT solves of one linear-quadratic game, certified (module docstring).

    Calling it with a candidate pins the rows W_k x_k + S_k u_k + p_k >=
    -POLISH_DELTA at the candidate's states and actions and returns
    ``attempt`` of that set (the certified point and its natural residual),
    or None at once for a set tried before: the pinned solve depends on the
    set only, so this is exact.
    """

    def __init__(self, game: GameDefinition, tol: float, qp: Optional[lq.HorizonQp]):
        self.game, self.tol, self.qp = game, tol, qp
        self.data = lq.extract_lq_data(game)
        self.W, self.S, self.p, self.real = _padded_rows(game)
        self.tried: set[bytes] = set()

    def values(self, traj: Trajectory) -> Array:
        """Every row's value at the trajectory's states and actions: (T+1, m)."""
        both = self.W @ traj.states[..., None] + self.S @ traj.actions[..., None]
        return both[..., 0] + self.p

    def __call__(self, cand: Trajectory) -> Optional[tuple[Trajectory, float]]:
        pinned = self.real & (self.values(cand) >= -POLISH_DELTA)
        key = pinned.tobytes()
        if key in self.tried:
            return None
        self.tried.add(key)
        return self.attempt(pinned)

    def attempt(self, pinned: Array) -> Optional[tuple[Trajectory, float]]:
        """The rolled-out equilibrium with the ``pinned`` rows (T+1, m) held, if certified.

        It is certified when every multiplier is >= -tol, every other row
        is <= tol and ``natural_residual`` is <= tol; it is returned with
        that residual.  A singular pinned system, as from dependent rows, is
        not certified either.
        """
        try:
            traj, mu = lq.solve_pinned(self.data, self.W, self.S, self.p, pinned)
        except StageSingularityError:
            return None
        if np.any(mu < -self.tol) or np.any(self.values(traj)[self.real & ~pinned] > self.tol):
            return None
        game = self.game
        traj = rollout(game, game.initial_state, traj.actions)
        residual = natural_residual(game, traj.actions, self.qp)
        return (traj, residual) if residual <= self.tol else None  # NaN fails


def _padded_rows(game: GameDefinition) -> tuple[Array, Array, Array, Array]:
    """Every stage's affine rows, padded to the largest count m.

    W (T+1, m, n_x), S (T+1, m, n_u), p (T+1, m), and ``real`` (T+1, m)
    marking the rows that exist.
    """
    T1, n_x, n_u = game.horizon + 1, game.state_dim, game.total_action_dim
    rows = [lq.stage_rows(game, k) if game.constraints is not None else None
            for k in range(T1)]
    m = max((r[2].size for r in rows if r is not None), default=0)
    W, S, p = np.zeros((T1, m, n_x)), np.zeros((T1, m, n_u)), np.zeros((T1, m))
    real = np.zeros((T1, m), dtype=bool)
    for k, r in enumerate(rows):
        if r is not None:
            c = r[2].size
            W[k, :c], S[k, :c], p[k, :c], real[k, :c] = r[0], r[1], r[2], True
    return W, S, p, real
