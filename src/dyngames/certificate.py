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
candidate (``near_active``: projected-Newton active-set identification,
Bertsekas, SIAM J. Control Optim. 20, 1982; Facchinei, Fischer and Kanzow,
SIAM J. Optim. 9, 1998) and solves the open-loop KKT system with those rows
as equalities and shared multipliers (``lq.solve_pinned``).  A solve whose
signs fail names its own correction: it frees the pinned rows with a
negative multiplier, pins the rows it violates and solves again (the
primal-dual active-set method of Hintermueller, Ito and Kunisch, SIAM J.
Optim. 13, 2002), until a point is certified or the set was solved before.
Certified means the multipliers are nonnegative, the other rows hold and
r(u) <= tol.  It exists for linear-quadratic games with affine rows or
none, where each pinned solve is exact.  ``natural_residual`` starts its
projection from the near-active rows, taken at its own point.

A solve reads the game's rows and its LQ data or linear dynamics once, at
the origin (``read_game``); the projections, the resolvents, the polish and
the report reuse that read, and a function not given it reads for itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import lq
from .errors import StageSingularityError, UnsupportedConstraintError
from .gradient import pseudo_gradient
from .model import GameDefinition, LqGameData, PaddedRows, Trajectory, rollout

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
                          rows: Optional[PaddedRows] = None,
                          data: Optional[LqGameData] = None) -> Array:
    """Closest feasible joint-action sequence to ``actions``.

    Minimizes the summed squared action deviation subject to the dynamics
    (states rolled out from the game's initial state) and the stage
    constraints.  Identity on feasible inputs.  Two constraint classes are
    supported; others raise UnsupportedConstraintError:

    * analytic projectors on actions only (no state coupling): the
      projection decouples stagewise and runs over the whole horizon at once
      (``GameDefinition.eval_traj_projection``);
    * affine stage rows with linear dynamics: one exact QP over the whole
      stacked trajectory with weight zero on the states, solved in band
      (``lq.project``); the dynamics tie the states to the actions, so the
      states carry the stage rows.  ``rows`` and ``data`` are the solve's
      reads (``read_game``); each is read here when None.
    """
    return _project(game, actions, rows, data)


def _project(game: GameDefinition, actions: Array, rows: Optional[PaddedRows],
             data: Optional[LqGameData], near: Optional[Trajectory] = None) -> Array:
    """``project_onto_feasible``; the QP starts from the rows ``near_active`` along ``near``."""
    actions = np.asarray(actions, dtype=float)
    route = _projection_route(game)
    if route is None:
        return actions.copy()
    if route == "analytic":
        return game.eval_traj_projection(None, actions)[1]
    rows = lq.padded_rows(game) if rows is None else rows
    data = lq.dynamics_data(game) if data is None else data
    start = None if near is None else near_active(rows, near)
    return lq.project(rows, data, np.zeros((len(actions), game.state_dim)), actions, 0.0,
                      start).actions


def near_active(rows: PaddedRows, traj: Trajectory) -> Array:
    """The real rows whose value along ``traj`` is at least -POLISH_DELTA: (T+1, m) bool."""
    return rows.real & (rows.values(traj) >= -POLISH_DELTA)


def read_game(game: GameDefinition) -> tuple[Optional[PaddedRows], Optional[LqGameData]]:
    """A solve's one read of the game at the origin: (rows, data).

    The rows are ``lq.padded_rows`` for declared affine rows or none; they
    are None for other rows and where nothing reads them, an analytic
    projector with nonlinear dynamics.  The data is ``lq.extract_lq_data``
    for a declared linear-quadratic game, ``lq.dynamics_data`` for other
    linear dynamics and None for nonlinear dynamics.
    """
    affine = game.constraints is None or game.polyhedral_constraints
    used = game.linear_dynamics or game.traj_projector is None
    rows = lq.padded_rows(game) if affine and used else None
    if not game.linear_dynamics:
        return rows, None
    return rows, lq.extract_lq_data(game) if game.quadratic_costs else lq.dynamics_data(game)


def natural_residual(game: GameDefinition, actions: Array,
                     rows: Optional[PaddedRows] = None,
                     data: Optional[LqGameData] = None) -> float:
    """r(u) = |u - P(u - F(u))|_inf, F taken along the rollout of ``actions``.

    ``rows`` and ``data`` are passed on to ``project_onto_feasible``.  A QP
    projection starts from the rows ``near_active`` along the rollout, the
    polish's rule: at a solution P(u - F(u)) = u, so these are its active
    rows and the projection takes one factor.  Raises
    UnsupportedConstraintError, before any other work, where the game has no
    projection.
    """
    _projection_route(game)
    return residual_along(game, rollout(game, game.initial_state, actions), rows, data)


def residual_along(game: GameDefinition, traj: Trajectory,
                   rows: Optional[PaddedRows] = None,
                   data: Optional[LqGameData] = None) -> float:
    """``natural_residual`` of ``traj.actions``, given ``traj``, their rollout.

    For a caller that holds the rollout already, as the polish and the
    report do; nothing is rolled out here.  Raises
    UnsupportedConstraintError, before any other work, as ``natural_residual``.
    """
    _projection_route(game)
    u = traj.actions
    F = pseudo_gradient(game, traj, feas_tol=np.inf).own_stage_grads()
    return float(np.max(np.abs(u - _project(game, u - F, rows, data, traj))))


def active_set_polish(game: GameDefinition, tol: float, rows: Optional[PaddedRows] = None,
                      data: Optional[LqGameData] = None) -> Optional["ActiveSetPolish"]:
    """The polish hook of ``report.iterate`` for ``game``, or None out of scope.

    The hook exists for games that declare linear dynamics and quadratic
    costs and either declare affine rows or have none; ``rows`` and ``data``
    are the solve's reads (``read_game``), read here when None.
    """
    if not (game.linear_dynamics and game.quadratic_costs
            and (game.constraints is None or game.polyhedral_constraints)):
        return None
    return ActiveSetPolish(game, tol, rows, data)


class ActiveSetPolish:
    """Pinned-row KKT solves of one linear-quadratic game, certified (module docstring).

    Calling it with a candidate first pins the rows W_k x_k + S_k u_k + p_k
    >= -POLISH_DELTA at the candidate's states and actions.  Each set is
    solved as ``attempt`` solves it; where the multiplier or row signs fail,
    the call goes on with the corrected set (``_solve``).  It returns the
    first certified point and its natural residual, or None at a singular
    system, at a point only the residual rejects, or at a set tried before,
    in this call or an earlier one: the pinned solve depends on the set
    only, so no set is solved twice and every call ends.  ``rows``
    (``lq.padded_rows``) and ``data`` (``lq.extract_lq_data``) are the
    game's reads, read here when None.
    """

    def __init__(self, game: GameDefinition, tol: float, rows: Optional[PaddedRows] = None,
                 data: Optional[LqGameData] = None):
        self.game, self.tol = game, tol
        self.rows = lq.padded_rows(game) if rows is None else rows
        self.data = lq.extract_lq_data(game) if data is None else data
        self.tried: set[bytes] = set()

    def __call__(self, cand: Trajectory) -> Optional[tuple[Trajectory, float]]:
        pinned = near_active(self.rows, cand)
        while pinned is not None and (key := pinned.tobytes()) not in self.tried:
            self.tried.add(key)
            certified, pinned = self._solve(pinned)
            if certified is not None:
                return certified
        return None

    def attempt(self, pinned: Array) -> Optional[tuple[Trajectory, float]]:
        """The rolled-out equilibrium with the ``pinned`` rows (T+1, m) held, if certified.

        It is certified when every multiplier is >= -tol, every other row
        is <= tol and ``natural_residual`` is <= tol; it is returned with
        that residual.  A singular pinned system, as from dependent rows, is
        not certified either.  Only this set is solved; the corrections are
        the call's.
        """
        return self._solve(pinned)[0]

    def _solve(self, pinned: Array) -> tuple[Optional[tuple[Trajectory, float]], Optional[Array]]:
        """``attempt`` of ``pinned`` and, where its signs fail, the corrected set.

        The corrected set frees the pinned rows whose multiplier is < -tol
        and pins the other real rows whose value is > tol.  It is None where
        the point is certified, the system singular or only the residual fails.
        """
        rows = self.rows
        try:
            traj, mu = lq.solve_pinned(self.data, rows.G, rows.p, pinned)
        except StageSingularityError:
            return None, None
        freed = mu < -self.tol
        violated = rows.real & ~pinned & (rows.values(traj) > self.tol)
        if np.any(freed) or np.any(violated):
            return None, (pinned & ~freed) | violated
        game = self.game
        traj = rollout(game, game.initial_state, traj.actions)
        residual = residual_along(game, traj, rows, self.data)
        return ((traj, residual) if residual <= self.tol else None), None  # NaN fails
