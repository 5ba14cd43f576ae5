"""Certifying an equilibrium candidate: the natural and KKT residuals, and the polish.

An open-loop equilibrium solves the variational inequality VI(F, K): F is
the game operator (``gradient.pseudo_gradient``, each player's gradient of
its own cost in its own actions, states rolled out) and K the action
sequences whose rollouts meet every stage row.  Its natural residual

    r(u) = |u - P(u - F(u))|_inf,    P the Euclidean projection onto K,

is zero exactly at the solutions (Facchinei and Pang, *Finite-Dimensional
Variational Inequalities and Complementarity Problems*, 2003, section
1.5).  ``project_onto_feasible`` is P; ``natural_residual`` is r.  Only
some games have P.  ``kkt_residual`` needs none: given one multiplier per
row, shared by all players, it measures the stationarity of every player's
Lagrangian, the rows' feasibility, complementarity and the multipliers'
signs, in gradient units, so it also certifies curved rows.

The projected gradient and Douglas-Rachford iterations identify the active
rows long before they converge.  ``active_set_polish`` builds a hook for
``report.iterate`` that pins every row within POLISH_DELTA of active at a
candidate (``near_active``: projected-Newton active-set identification,
Bertsekas, SIAM J. Control Optim. 20, 1982; Facchinei, Fischer and Kanzow,
SIAM J. Optim. 9, 1998) and solves the open-loop KKT system with those rows
as equalities and shared multipliers (``lq.solve_pinned``).  It exists for
games that declare linear dynamics and quadratic costs, in two forms.

* Affine rows or none: each pinned solve is exact.  A solve whose signs
  fail names its own correction: it frees the pinned rows with a negative
  multiplier, pins the rows it violates and solves again (the primal-dual
  active-set method of Hintermueller, Ito and Kunisch, SIAM J. Optim. 13,
  2002), until a point is certified or the set was solved before.
  Certified means the multipliers are nonnegative, the other rows hold and
  r(u) <= tol.  The rows are those read at the origin.
* Smooth rows that are not affine, such as the rendezvous' norm balls: a
  pinned solve is one Josephy-Newton (SQP) step on the VI.  Each step
  re-reads the rows at its point and pins the near-active ones afresh,
  collapses a row pinned with its own negative (the two inequalities of an
  equality) into one equality, adds the multiplier-weighted row Hessians
  (``GameDefinition.eval_traj_constraint_hessians``) to every player's cost
  Hessian and solves the game's own data once; a step that does not lower
  the KKT residual is shortened.  A point is certified only when its KKT
  residual is <= tol.  An attempt takes at most NEWTON_STEPS steps and ends
  sooner at its rounding floor; a failed one is retried only on the 1-2-5
  grid of calls.

An action column that moves nothing, as the terminal actions of a game whose
terminal cost reads the state only, is pinned at its reference in the
pinned solve (``lq._inert_actions``).  ``natural_residual`` starts its
projection from the near-active rows, taken at its own point.

The rows and the LQ data or linear dynamics at the origin are the game's
kept reads (``lq.padded_rows`` and ``lq.game_data``), made once per game.
The Newton polish reads curved rows at its own points, each time over the
whole trajectory at once (``model.read_rows`` and
``GameDefinition.eval_traj_constraint_hessians``, which call a game's
whole-trajectory row evaluators where it has them); what does not change
between its steps, the inert test's part that reads the game's data
(``lq.idle_actions``), is computed once per attempt.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from . import lq
from .errors import (NonFiniteDerivativeError, NonFiniteStateError, StageSingularityError,
                     UnsupportedConstraintError)
from .gradient import own_gradients, pseudo_gradient
from .model import GameDefinition, PaddedRows, Trajectory, read_rows, rollout

Array = np.ndarray

# A row whose value at a candidate is at least -POLISH_DELTA is pinned.
POLISH_DELTA = 1e-3
# The Newton steps of one polish attempt on curved rows, and the lengths a
# step tries, longest first.
NEWTON_STEPS = 20
STEP_LENGTHS = (1.0, 0.5, 0.25)
# A full Newton step that moves no action by more than ROUNDING_STEP (1 +
# max|u|) is rounding: the solve is at its floor, where steps stay near 1e-13.
ROUNDING_STEP = float(np.sqrt(np.finfo(float).eps))


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


def project_onto_feasible(game: GameDefinition, actions: Array) -> Array:
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
      states carry the stage rows.
    """
    return _project(game, actions)


def _project(game: GameDefinition, actions: Array, near: Optional[Trajectory] = None) -> Array:
    """``project_onto_feasible``; the QP starts from the rows ``near_active`` along ``near``."""
    actions = np.asarray(actions, dtype=float)
    route = _projection_route(game)
    if route is None:
        return actions.copy()
    if route == "analytic":
        return game.eval_traj_projection(None, actions)[1]
    rows = lq.padded_rows(game)
    start = None if near is None else near_active(rows, near)
    return lq.project(rows, lq.game_data(game), np.zeros((len(actions), game.state_dim)),
                      actions, 0.0, start).actions


def near_active(rows: PaddedRows, traj: Trajectory) -> Array:
    """The real rows whose value along ``traj`` is at least -POLISH_DELTA: (T+1, m) bool."""
    return rows.real & (rows.values(traj) >= -POLISH_DELTA)


def natural_residual(game: GameDefinition, actions: Array) -> float:
    """r(u) = |u - P(u - F(u))|_inf, F taken along the rollout of ``actions``.

    P is ``project_onto_feasible``'s.  A QP projection starts from the rows
    ``near_active`` along the rollout, the polish's rule: at a solution
    P(u - F(u)) = u, so these are its active rows and the projection takes
    one factor.  Raises UnsupportedConstraintError, before any other work,
    where the game has no projection.
    """
    _projection_route(game)
    return residual_along(game, rollout(game, game.initial_state, actions))


def residual_along(game: GameDefinition, traj: Trajectory) -> float:
    """``natural_residual`` of ``traj.actions``, given ``traj``, their rollout.

    For a caller that holds the rollout already, as the polish and the
    report do; nothing is rolled out here.  Raises
    UnsupportedConstraintError, before any other work, as ``natural_residual``.
    """
    _projection_route(game)
    u = traj.actions
    F = pseudo_gradient(game, traj, feas_tol=np.inf).own_stage_grads()
    return float(np.max(np.abs(u - _project(game, u - F, traj))))


def kkt_residual(game: GameDefinition, traj: Trajectory, mu: Array,
                 rows: Optional[PaddedRows] = None) -> float:
    """The KKT residual of the rolled-out ``traj`` with row multipliers ``mu`` (T+1, m).

    ``mu`` holds one multiplier per row of ``rows``, the rows read at
    ``traj`` (``model.read_rows``: p is every row's value there), read here
    when None; the multipliers are shared by all players, the variational
    equilibrium's conditions (Facchinei and Kanzow, 4OR 5, 2007).  The
    residual is the largest of four figures:

    * stationarity: every player's own-action gradient of its Lagrangian
      J_n + mu'g, the costate pass of F (``gradient.own_gradients``) with
      mu'W and mu'S added to every player's cost gradients;
    * feasibility: max(g, 0) over the real rows;
    * complementarity: max |mu g|;
    * dual feasibility: -min mu.

    It is in the units of the cost gradients, which a game's weights scale
    (the paper rendezvous' terminal weight is 1000), and needs no
    projection, so it certifies curved rows too.  NaN anywhere gives NaN.
    For a declared linear-quadratic game its kept data (``lq.game_data``)
    gives the cost gradients c + C z and the dynamics Jacobians without
    calling the game's evaluators.
    """
    rows = read_rows(game, traj.states, traj.actions) if rows is None else rows
    n_x = game.state_dim
    weighted = np.einsum("km,kmi->ki", mu, rows.G)  # mu_k' [W_k S_k]
    if not (game.linear_dynamics and game.quadratic_costs):
        CX, CU = game.eval_traj_cost_gradients(traj.states, traj.actions)
        A, B = game.eval_traj_dynamics_jacobians(traj.states, traj.actions)
    else:
        data, z = lq.game_data(game), np.concatenate([traj.states, traj.actions], axis=1)
        grads = (data.c + (data.C @ z[..., None])[..., 0]).swapaxes(0, 1)
        CX, CU, A, B = grads[..., :n_x], grads[..., n_x:], data.A, data.B
    own, _ = own_gradients(game, A, B, CX + weighted[:, None, :n_x],
                           CU + weighted[:, None, n_x:])
    g, m = rows.p[rows.real], mu[rows.real]
    figures = (np.abs(own).ravel(), np.maximum(g, 0.0), np.abs(m * g), -m)
    return float(np.max(np.concatenate(figures), initial=0.0))


def active_set_polish(game: GameDefinition, tol: float) -> Optional["ActiveSetPolish"]:
    """The polish hook of ``report.iterate`` for ``game``, or None out of scope.

    The hook exists for games that declare linear dynamics and quadratic
    costs, whatever their rows.
    """
    if not (game.linear_dynamics and game.quadratic_costs):
        return None
    return ActiveSetPolish(game, tol)


class ActiveSetPolish:
    """Pinned-row KKT solves of one linear-quadratic game, certified (module docstring).

    For affine rows or none, calling it with a candidate first pins the
    rows W_k x_k + S_k u_k + p_k >= -POLISH_DELTA at the candidate's states
    and actions.  Each set is solved as ``attempt`` solves it; where the
    multiplier or row signs fail, the call goes on with the corrected set
    (``_solve``).  It returns the first certified point, or None at a
    singular system, at a point only the natural residual rejects, or at a
    set tried before, in this call or an earlier one: the pinned solve
    depends on the set only, so no set is solved twice and every call ends.
    ``rows`` and ``data`` are the game's kept reads at the origin
    (``lq.padded_rows``, None for curved rows, and ``lq.game_data``).

    For curved rows a call is an attempt of at most NEWTON_STEPS Newton
    steps from the candidate (``_newton``).  Such an attempt may succeed
    from a later candidate where it failed from an earlier one, so it is
    made at the calls on the 1-2-5 grid of ``report.on_record_grid`` only:
    O(log n) attempts in n calls.

    A certified point is returned with its certificate, the pair (natural
    residual, KKT residual): the first NaN for curved rows, which have no
    projection, the second ``kkt_residual`` at the point with its
    multipliers.
    """

    def __init__(self, game: GameDefinition, tol: float):
        self.game, self.tol = game, tol
        self.curved = not (game.constraints is None or game.polyhedral_constraints)
        self.rows = None if self.curved else lq.padded_rows(game)
        self.data = lq.lq_game_data(game)
        self.tried: set[bytes] = set()
        self.calls = 0

    def __call__(self, cand: Trajectory) -> Optional[tuple[Trajectory, tuple[float, float]]]:
        if self.curved:
            from .report import on_record_grid  # report imports this module
            self.calls += 1
            return self._newton(cand) if on_record_grid(self.calls) else None
        pinned = near_active(self.rows, cand)
        while pinned is not None and (key := pinned.tobytes()) not in self.tried:
            self.tried.add(key)
            certified, pinned = self._solve(pinned)
            if certified is not None:
                return certified
        return None

    def attempt(self, pinned: Array) -> Optional[tuple[Trajectory, tuple[float, float]]]:
        """The rolled-out equilibrium with the affine ``pinned`` rows (T+1, m) held, if certified.

        It is certified when every multiplier is >= -tol, every other row
        is <= tol and ``natural_residual`` is <= tol; it is returned with
        its certificate.  A singular pinned system, as from dependent rows,
        is not certified either.  Only this set is solved; the corrections
        are the call's.
        """
        return self._solve(pinned)[0]

    def _solve(self, pinned: Array) -> tuple[Optional[tuple[Trajectory, tuple[float, float]]],
                                             Optional[Array]]:
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
        residual = residual_along(game, traj)
        if not residual <= self.tol:  # NaN fails
            return None, None
        kkt = kkt_residual(game, traj, mu, replace(rows, p=rows.values(traj)))
        return (traj, (residual, kkt)), None

    def _newton(self, cand: Trajectory) -> Optional[tuple[Trajectory, tuple[float, float]]]:
        """Josephy-Newton steps on curved rows from ``cand``, until ``kkt_residual`` <= tol.

        A step pins the rows within POLISH_DELTA of active at the point,
        less those whose last multiplier is < -tol (the primal-dual
        active-set rule of Hintermueller, Ito and Kunisch), and collapses
        each pair of a row and its negative into one equality
        (``_equality_pairs``), whose multiplier may take either sign and is
        split over the two rows for the test.  It adds the last multipliers'
        row Hessians sum mu_i grad^2 g_i, taken at the point, to every
        player's cost Hessian, linearizes the rows there and makes one
        ``lq.solve_pinned`` call on the game's own data, whose C, A and B
        are constant (Josephy, "Newton's method for generalized equations",
        1979).  The next point is the first of the steps in STEP_LENGTHS
        toward the solution, its actions rolled out and its multipliers
        moved as far, whose KKT residual, with the rows read there
        (``read_rows``), is below the last point's; else the shortest.  A
        full step near the solution always is.  Returns None after
        NEWTON_STEPS steps, at a singular system, at a point that is not
        finite, and at the rounding floor: a step that pins the same rows as
        the one before, does not lower the KKT residual and whose full step
        moves no action by more than ROUNDING_STEP (1 + max|u|).  Far from
        the floor a step of the same rows may fail to lower the residual
        and the attempt still certify later; its full step is then of the
        order of the actions.
        """
        game, data, tol = self.game, self.data, self.tol
        idle = lq.idle_actions(data)  # the inert test's part that reads the data only
        traj = rollout(game, game.initial_state, cand.actions)
        try:
            rows = read_rows(game, traj.states, traj.actions)
        except NonFiniteDerivativeError:
            return None
        mu = raw = np.zeros(rows.p.shape)  # the start has no multipliers
        kept, kkt, held_before = np.zeros_like(rows.real), np.inf, None
        for _ in range(NEWTON_STEPS):
            pinned = rows.real & (rows.p >= -POLISH_DELTA) & ~((raw < -tol) & ~kept)
            dropped, partner = _equality_pairs(rows, pinned)
            held = pinned & ~dropped
            z = np.concatenate([traj.states, traj.actions], axis=1)
            p = rows.p - (rows.G @ z[..., None])[..., 0]  # the rows linearized at z
            try:
                hess = self._row_hessians(traj, mu)
                step_data, step_idle = data, idle
                if hess is not None:  # a column with row curvature is not idle
                    step_data = replace(data, C=data.C + hess,
                                        c=data.c - (hess @ z[..., None])[..., 0])
                    step_idle = idle & ~np.any(hess[:, game.state_dim:] != 0, axis=2)
                solved, raw = lq.solve_pinned(step_data, rows.G, p, held, step_idle)
            except (NonFiniteDerivativeError, StageSingularityError):
                return None
            ks, js, kept_by = *np.nonzero(dropped), partner[dropped]
            kept = np.zeros_like(pinned)
            kept[ks, kept_by] = True
            target = raw.copy()
            target[ks, js] = np.maximum(-raw[ks, kept_by], 0.0)
            target[kept] = np.maximum(raw[kept], 0.0)
            base, last = traj.actions, kkt
            for length in STEP_LENGTHS:
                u = base + length * (solved.actions - base)
                try:
                    traj = rollout(game, game.initial_state, u)
                    rows = read_rows(game, traj.states, traj.actions)
                except (NonFiniteStateError, NonFiniteDerivativeError):
                    return None
                moved = mu + length * (target - mu)
                if (kkt := kkt_residual(game, traj, moved, rows)) < last:
                    break
            if not kkt < np.inf:  # NaN too
                return None
            mu = moved
            if kkt <= tol:
                return traj, (float("nan"), kkt)
            if (not kkt < last and np.array_equal(held, held_before)
                    and np.max(np.abs(solved.actions - base))
                    <= ROUNDING_STEP * (1.0 + np.max(np.abs(base)))):
                return None  # the same rows, no progress and a step of rounding: the floor
            held_before = held
        return None

    def _row_hessians(self, traj: Trajectory, mu: Array) -> Optional[Array]:
        """sum_i mu_i grad^2 g_i at every stage, (T+1, n_z, n_z); None where mu is zero."""
        if not np.any(mu):
            return None
        (T1, m), n_z = mu.shape, self.game.state_dim + self.game.total_action_dim
        H = self.game.eval_traj_constraint_hessians(traj.states, traj.actions, m)
        return (mu[:, None] @ H.reshape(T1, m, -1)).reshape(T1, n_z, n_z)


def _equality_pairs(rows: PaddedRows, near: Array) -> tuple[Array, Array]:
    """The ``near`` rows that repeat an earlier one negated, and that row: (T+1, m) each.

    Row j of stage k is dropped when an earlier row i of the stage is also
    near and G_j = -G_i, p_j = -p_i exactly, as for the two inequalities of
    an equality; ``partner[k, j]`` is the first such i, pinned in j's stead.
    """
    p, m = np.where(near, rows.p, np.nan), rows.p.shape[1]  # a row not near pairs with none
    pair = (p[:, :, None] == -p[:, None]) & (np.arange(m)[:, None] < np.arange(m))
    ks, i, j = np.nonzero(pair)  # the offsets match: compare these rows only
    pair[ks, i, j] = np.all(rows.G[ks, i] == -rows.G[ks, j], axis=1)
    return pair.any(axis=1), np.argmax(pair, axis=1)
