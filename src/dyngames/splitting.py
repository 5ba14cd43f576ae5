"""Douglas-Rachford splitting for constrained open-loop equilibria.

The equilibrium conditions are written as a three-operator inclusion in the
stacked state-action variable [x, u]: a scaled gradient operator (zeros on
the state block, the game pseudo-gradient on the action block), the normal
cone of the dynamics-consistent set, and the normal cone of the stage
constraint set.  Singling out any one operator and grouping the other two
yields a two-operator splitting solved by the reflected-resolvent iteration

    w <- (1 - alpha) w + alpha R_2(R_1(w)),   R_i = 2 r_i - I,

with alpha in (0, 1).  The three groupings give three schemes, named by the
operator that gets its own resolvent:

* ``constraints``: r_1 solves a proximally regularized unconstrained dynamic
  game (states eliminated by rollout, solved by iterated backward sweeps),
  r_2 projects stagewise onto the constraint sets.
* ``dynamics``: r_1 solves independent regularized constrained static games
  per stage (the state coordinate acts as an extra coordinating player),
  r_2 projects onto the dynamics by a Riccati tracking sweep.
* ``gradient``: r_1 projects onto the intersection of dynamics and
  constraints (exact horizon-wide QP), r_2 solves independent regularized
  unconstrained static games per stage.

The stagewise static-game resolvents read the cost operator stage by stage;
their fixed points coincide with the variational equilibrium exactly when
the players share state-cost gradients (the coordinator row uses the mean
of the players' state gradients).  The ``constraints`` scheme carries no
such restriction.

Two of these resolvents are open-loop equilibria of linear-quadratic games
whose matrices do not change between iterations: the regularized game of a
declared linear-quadratic game, and the dynamics projection (the same
kernel at eta = 0).  ``dr_solve`` factors that kernel once with
``lq.factor`` before its loop and passes the factor to the resolvent on
every iteration, so each iteration only re-solves the linear terms.  The
intersection projection of the ``gradient`` scheme is one convex QP over
the whole stacked trajectory whose rows (initial state, dynamics, stage
rows) do not change either; ``dr_solve`` builds them once with
``horizon_qp`` and each iteration only changes the point being projected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from . import denseqp
from .errors import SubproblemError, UnsupportedConstraintError
from . import lq
from .feedback import solve_unconstrained_newton
from .gradient import playerwise_minimizer_check, pseudo_gradient
from .model import (
    DEFAULT_ACTIVE_TOL,
    GameDefinition,
    Trajectory,
    all_player_costs,
    rollout,
)
from .report import (
    TERM_DIVERGENCE,
    TERM_MAX_ITER,
    TERM_TOLERANCE,
    SolverReport,
    build_report,
)

Array = np.ndarray

SCHEME_CONSTRAINTS = "constraints"
SCHEME_DYNAMICS = "dynamics"
SCHEME_GRADIENT = "gradient"
SCHEMES = (SCHEME_CONSTRAINTS, SCHEME_DYNAMICS, SCHEME_GRADIENT)


@dataclass
class DrConfig:
    """Scheme selection, regularization and iteration budget for dr_solve."""

    scheme: str = SCHEME_CONSTRAINTS
    eta: float = 1e-4
    alpha: float = 0.5
    max_iter: int = 10_000
    tol: float = 1e-8
    inner_tol: float = 1e-10
    inner_max_iter: int = 300
    active_tol: float = DEFAULT_ACTIVE_TOL
    divergence_factor: float = 1e8
    record_costs: bool = True
    run_checks: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"averaging weight must lie strictly in (0,1), got {self.alpha}")
        if self.eta <= 0.0:
            raise ValueError(f"regularization must be positive, got {self.eta}")
        if self.max_iter < 0:
            raise ValueError(f"iteration budget must be nonnegative, got {self.max_iter}")
        if self.inner_max_iter < 1:
            raise ValueError(f"inner iteration budget must be at least 1, got {self.inner_max_iter}")
        if self.tol <= 0 or self.inner_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class ExtendedIterate:
    """The stacked splitting variable [x, u]."""

    x: Array
    u: Array

    def vector(self) -> Array:
        return np.concatenate([self.x.ravel(), self.u.ravel()])


def extended_gradient(game: GameDefinition, x: Array, u: Array) -> Array:
    """Stacked-variable gradient: zeros on the state block, pseudo-gradient on u.

    The action-block gradient is evaluated on the trajectory obtained by
    rolling the dynamics out under u; the x argument only fixes the shape of
    the zero block.
    """
    traj = rollout(game, game.initial_state, u)
    pg = pseudo_gradient(game, traj)
    own = pg.own_stage_grads()
    return np.concatenate([np.zeros(np.asarray(x).size), own.ravel()])


# ---------------------------------------------------------------------------
# Regularized unconstrained dynamic game (resolvent of gradient + dynamics).
# ---------------------------------------------------------------------------


def regularized_game(game: GameDefinition, y: Array, z: Array,
                     eta: float) -> GameDefinition:
    """Game with costs eta*c_{n,k} + 0.5(|x_k - y_k|^2 + |u_k - z_k|^2), no constraints.

    Scaling all players' costs by eta > 0 leaves equilibria unchanged and
    makes the proximal terms unit weight, so stationarity of this game is
    exactly the resolvent condition of the scaled gradient operator.
    """
    n_x, n_u, N = game.state_dim, game.total_action_dim, game.num_players
    base_c, base_g, base_h = game.eval_costs, game.eval_cost_gradients, game.eval_cost_hessians

    def costs(k, x, u):
        pen = 0.5 * (np.sum((x - y[k]) ** 2) + np.sum((u - z[k]) ** 2))
        return eta * base_c(k, x, u) + pen

    def grads(k, x, u):
        cx, cu = base_g(k, x, u)
        return eta * cx + (x - y[k]), eta * cu + (u - z[k])

    def hess(k, x, u):
        cxx, cxu, cuu = base_h(k, x, u)
        return (eta * cxx + np.eye(n_x), eta * cxu,
                eta * cuu + np.eye(n_u))

    return GameDefinition(
        horizon=game.horizon, state_dim=n_x, action_dims=game.action_dims,
        initial_state=game.initial_state,
        dynamics=game.dynamics, stage_costs=costs,
        dynamics_jacobians=game.dynamics_jacobians,
        dynamics_hessians=game.dynamics_hessians,
        cost_gradients=grads, cost_hessians=hess,
        linear_dynamics=game.linear_dynamics,
    )


def resolvent_reg_game(game: GameDefinition, y: Array, z: Array, eta: float,
                       inner_tol: float = 1e-10, inner_max_iter: int = 300,
                       warm: Optional[Trajectory] = None,
                       factor: Optional[lq.LqFactor] = None) -> tuple[Array, Array]:
    """Equilibrium of the proximally regularized unconstrained dynamic game.

    Declared linear-quadratic games are solved exactly by the factored
    open-loop sweep of ``lq``: only the linear cost terms depend on (y, z),
    so ``factor`` (from ``lq.factor(game, eta)``) can be prepared once and
    reused across calls; without it the game is factored here.  Other games
    eliminate the states by rollout and iterate backward sweeps to
    pseudo-gradient stationarity.
    """
    if game.linear_dynamics and game.quadratic_costs:
        if factor is None:
            factor = lq.factor(game, eta)
        elif factor.eta != eta:
            raise ValueError(f"factor was built for eta={factor.eta}, not {eta}")
        traj = factor.solve(y, z)
        return traj.states, traj.actions
    reg = regularized_game(game, y, z, eta)
    if warm is None or warm.actions.shape != (game.horizon + 1, game.total_action_dim):
        warm = rollout(reg, reg.initial_state, z)
    else:
        warm = rollout(reg, reg.initial_state, warm.actions)
    traj, _ = solve_unconstrained_newton(reg, warm, tol=inner_tol,
                                         max_iter=inner_max_iter)
    return traj.states.copy(), traj.actions.copy()


# ---------------------------------------------------------------------------
# Stagewise projections and static-game resolvents.
# ---------------------------------------------------------------------------


def _stage_constraint_data(game: GameDefinition, k: int):
    """Affine row data (W, S, p0) of stage k; requires polyhedral constraints."""
    zx = np.zeros(game.state_dim)
    zu = np.zeros(game.total_action_dim)
    p0 = game.eval_constraints(k, zx, zu)
    if p0.shape[0] == 0:
        return None
    W, S = game.eval_constraint_jacobians(k, zx, zu)
    return W, S, p0


def project_stage_constraints(game: GameDefinition, y: Array,
                              z: Array) -> tuple[Array, Array]:
    """Stagewise projection of (y, z) onto the constraint sets.

    Uses the game's analytic projector when available, for the whole
    trajectory at once (``GameDefinition.eval_traj_projection``), otherwise
    an exact polyhedron projection for affine rows.  Stages without
    constraints pass through unchanged.
    """
    if game.constraints is None:
        return np.array(y, dtype=float, copy=True), np.array(z, dtype=float, copy=True)
    if game.traj_projector is not None or game.stage_projector is not None:
        return game.eval_traj_projection(np.asarray(y, dtype=float),
                                         np.asarray(z, dtype=float))
    xs, us = np.array(y, dtype=float, copy=True), np.array(z, dtype=float, copy=True)
    for k in range(game.horizon + 1):
        if not game.polyhedral_constraints:
            raise UnsupportedConstraintError(
                f"stage {k} has neither an analytic projector nor affine rows")
        data = _stage_constraint_data(game, k)
        if data is None:
            continue
        W, S, p0 = data
        G = np.hstack([W, S])
        point = np.concatenate([y[k], z[k]])
        proj = denseqp.project_polyhedron(point, G, -p0)
        xs[k], us[k] = proj[:game.state_dim], proj[game.state_dim:]
    return xs, us


def _own_stacked_cost_rows(game, cu):
    """Assemble the u-vector whose block n is player n's own-action gradient."""
    out = np.empty(game.total_action_dim)
    for n in range(game.num_players):
        sl = game.action_slice(n)
        out[sl] = cu[n][sl]
    return out


def _stage_newton_system(game, k, x, u, yk, zk, eta, Wa, Sa, mu):
    """Residual and Jacobian of one regularized stage game's KKT system."""
    n_x, n_u, N = game.state_dim, game.total_action_dim, game.num_players
    cx, cu = game.eval_cost_gradients(k, x, u)
    cxx, cxu, cuu = game.eval_cost_hessians(k, x, u)
    m = Wa.shape[0]
    r_x = eta * np.mean(cx, axis=0) + (x - yk)
    r_u = eta * _own_stacked_cost_rows(game, cu) + (u - zk)
    if m:
        r_x = r_x + Wa.T @ mu
        r_u = r_u + Sa.T @ mu
    res = [r_x, r_u]
    J = np.zeros((n_x + n_u + m, n_x + n_u + m))
    J[:n_x, :n_x] = eta * np.mean(cxx, axis=0) + np.eye(n_x)
    J[:n_x, n_x:n_x + n_u] = eta * np.mean(cxu, axis=0)
    own_cxu = np.empty((n_u, n_x))
    own_cuu = np.empty((n_u, n_u))
    for n in range(N):
        sl = game.action_slice(n)
        own_cxu[sl] = cxu[n].T[sl]
        own_cuu[sl] = cuu[n][sl]
    J[n_x:n_x + n_u, :n_x] = eta * own_cxu
    J[n_x:n_x + n_u, n_x:n_x + n_u] = eta * own_cuu + np.eye(n_u)
    if m:
        J[:n_x, n_x + n_u:] = Wa.T
        J[n_x:n_x + n_u, n_x + n_u:] = Sa.T
        J[n_x + n_u:, :n_x] = Wa
        J[n_x + n_u:, n_x:n_x + n_u] = Sa
    return np.concatenate(res), J


def _solve_stage_game(game, k, yk, zk, eta, rows, active, inner_tol,
                      inner_max_iter):
    """Newton solve of one stage's regularized game with a pinned active set.

    Returns (x, u, mu, ok); quadratic costs converge in one step.
    """
    n_x, n_u = game.state_dim, game.total_action_dim
    if rows is None:
        Wa = np.zeros((0, n_x))
        Sa = np.zeros((0, n_u))
        pa = np.zeros(0)
    else:
        W, S, p0 = rows
        Wa, Sa, pa = W[active], S[active], p0[active]
    m = Wa.shape[0]
    x, u, mu = yk.copy(), zk.copy(), np.zeros(m)
    for _ in range(inner_max_iter):
        res, J = _stage_newton_system(game, k, x, u, yk, zk, eta, Wa, Sa, mu)
        if m:
            res = np.concatenate([res, Wa @ x + Sa @ u + pa])
        if np.max(np.abs(res)) <= inner_tol * (1.0 + np.max(np.abs(np.concatenate([yk, zk])))):
            return x, u, mu, True
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            return x, u, mu, False
        x = x + step[:n_x]
        u = u + step[n_x:n_x + n_u]
        if m:
            mu = mu + step[n_x + n_u:]
    return x, u, mu, False


# Most rows per stage for which resolvent_reg_static_games enumerates the
# 2^m active subsets of its (nonsymmetric) stage game.
STAGE_ENUMERATION_CAP = 18


def resolvent_reg_static_games(game: GameDefinition, y: Array, z: Array,
                               eta: float, inner_tol: float = 1e-10,
                               inner_max_iter: int = 50,
                               cap: int = STAGE_ENUMERATION_CAP) -> tuple[Array, Array]:
    """Independent regularized constrained static games, one per stage.

    Each stage solves, over (x_k, u_k), the game whose action rows are the
    players' own-gradient stationarity and whose state row is the
    coordinator (mean state gradient plus prox), subject to the stage's
    affine rows; the active subset is found by enumeration with dual and
    primal checks.  Requires affine constraints.
    """
    if game.constraints is not None and not game.polyhedral_constraints:
        raise UnsupportedConstraintError(
            "stagewise constrained static games require affine rows")
    T = game.horizon
    xs = np.empty_like(np.asarray(y, dtype=float))
    us = np.empty_like(np.asarray(z, dtype=float))
    for k in range(T + 1):
        rows = _stage_constraint_data(game, k) if game.constraints is not None else None
        m = 0 if rows is None else rows[2].shape[0]
        if m > cap:
            raise SubproblemError(
                f"stage {k} has {m} constraint rows, beyond the enumeration cap")
        solved = False
        scale = 1.0 + float(np.max(np.abs(np.concatenate([y[k], z[k]]))))
        for size in range(m + 1):
            for active in combinations(range(m), size):
                active = list(active)
                if active:
                    Sa_rows = np.hstack([rows[0][active], rows[1][active]])
                    if np.linalg.matrix_rank(Sa_rows) < len(active):
                        continue
                x, u, mu, ok = _solve_stage_game(
                    game, k, y[k], z[k], eta, rows, active, inner_tol,
                    inner_max_iter)
                if not ok:
                    continue
                if mu.size and np.min(mu) < -1e-8 * scale:
                    continue
                if rows is not None:
                    g = rows[0] @ x + rows[1] @ u + rows[2]
                    if np.max(g, initial=-np.inf) > 1e-8 * scale:
                        continue
                xs[k], us[k] = x, u
                solved = True
                break
            if solved:
                break
        if not solved:
            raise SubproblemError(
                f"no active subset solved the regularized static game at stage {k}")
    return xs, us


def resolvent_static_games_uncon(game: GameDefinition, y: Array, z: Array,
                                 eta: float, inner_tol: float = 1e-10,
                                 inner_max_iter: int = 50) -> tuple[Array, Array]:
    """Independent regularized unconstrained static games, one per stage."""
    T = game.horizon
    xs = np.empty_like(np.asarray(y, dtype=float))
    us = np.empty_like(np.asarray(z, dtype=float))
    for k in range(T + 1):
        x, u, _, ok = _solve_stage_game(game, k, y[k], z[k], eta, None, [],
                                        inner_tol, inner_max_iter)
        if not ok:
            raise SubproblemError(
                f"stage {k} regularized static game did not converge")
        xs[k], us[k] = x, u
    return xs, us


# ---------------------------------------------------------------------------
# Dynamics projection (Riccati tracking) and the intersection projection.
# ---------------------------------------------------------------------------


def project_dynamics(game: GameDefinition, y: Array, z: Array,
                     factor: Optional[lq.LqFactor] = None) -> tuple[Array, Array]:
    """Projection of (y, z) onto the dynamics-consistent trajectories.

    Minimizes sum_k |x_k - y_k|^2 + |u_k - z_k|^2 subject to linear dynamics
    and the pinned initial state, exactly, by one backward/forward sweep of
    the factored LQ kernel at eta = 0.  Pass ``factor=lq.factor(game, 0.0)``
    to reuse one factorization across calls.
    """
    if factor is None:
        factor = lq.factor(game, 0.0)  # raises UnsupportedConstraintError for nonlinear dynamics
    elif factor.eta != 0:
        raise ValueError(f"dynamics projection needs an eta=0 factor, got eta={factor.eta}")
    traj = factor.solve(y, z)
    return traj.states, traj.actions


@dataclass(frozen=True)
class HorizonQp:
    """Rows of the horizon-wide projection QP over one game's trajectories.

    The variable is the stacked trajectory v = (x_0, u_0, x_1, u_1, ...,
    x_T, u_T).  The equality rows pin x_0 and impose the linear dynamics;
    the inequality rows are every stage's affine rows W_k x_k + S_k u_k +
    p_k <= 0.  The metric weighs states by ``state_weight`` and actions by
    one.  Nothing here depends on the point being projected, so one instance
    serves every projection; all matrices are block-banded ``scipy.sparse``,
    so each active-set step of the QP costs O(T).
    """

    H: sp.csc_matrix
    Aeq: sp.csr_matrix
    beq: Array
    G: Optional[sp.csr_matrix]
    h: Optional[Array]
    state_dim: int
    state_weight: float

    def project(self, y: Array, z: Array) -> tuple[Array, Array]:
        """Closest trajectory to (y, z) in the metric that meets every row."""
        n_x = self.state_dim
        target = np.hstack([np.asarray(y, dtype=float), np.asarray(z, dtype=float)])
        v, _ = denseqp.solve_qp(self.H, -(self.H @ target.ravel()), G=self.G, h=self.h,
                                Aeq=self.Aeq, beq=self.beq)
        v = v.reshape(target.shape)
        return v[:, :n_x], v[:, n_x:]


def horizon_qp(game: GameDefinition, state_weight: float) -> HorizonQp:
    """Build the rows of the horizon-wide projection QP (see ``HorizonQp``).

    Requires declared linear dynamics and, if the game has constraints,
    affine rows; raises UnsupportedConstraintError otherwise.
    """
    if not game.linear_dynamics:
        raise UnsupportedConstraintError("horizon-wide projection requires linear dynamics")
    if game.constraints is not None and not game.polyhedral_constraints:
        raise UnsupportedConstraintError("horizon-wide projection requires affine stage rows")
    T = game.horizon
    n_x, n_u = game.state_dim, game.total_action_dim
    n_v = n_x + n_u
    pick_x = sp.hstack([sp.identity(n_x), sp.csr_matrix((n_x, n_u))])
    Aeq = sp.block_diag([pick_x] * (T + 1), format="csr")
    if T:
        A, B, b = lq.affine_dynamics(game)
        # row block k+1 reads x_{k+1} - A_k x_k - B_k u_k = b_k
        step = sp.block_diag([np.hstack([A[k], B[k]]) for k in range(T)])
        Aeq = Aeq - sp.bmat([[sp.csr_matrix((n_x, T * n_v)), None],
                             [step, sp.csr_matrix((T * n_x, n_v))]], format="csr")
        beq = np.concatenate([game.initial_state, np.concatenate(b)])
    else:
        beq = np.asarray(game.initial_state, dtype=float).copy()
    G = h = None
    if game.constraints is not None:
        rows = [_stage_constraint_data(game, k) for k in range(T + 1)]
        blocks = [np.zeros((0, n_v)) if r is None else np.hstack([r[0], r[1]]) for r in rows]
        if any(blk.shape[0] for blk in blocks):
            G = sp.block_diag(blocks, format="csr")
            h = np.concatenate([-r[2] for r in rows if r is not None])
    weights = np.concatenate([np.full(n_x, float(state_weight)), np.ones(n_u)])
    H = sp.diags(np.tile(weights, T + 1), format="csc")
    return HorizonQp(H=H, Aeq=Aeq, beq=beq, G=G, h=h, state_dim=n_x,
                     state_weight=float(state_weight))


def constrained_oc_projection(game: GameDefinition, y: Array, z: Array,
                              qp: Optional[HorizonQp] = None) -> tuple[Array, Array]:
    """Projection of (y, z) onto dynamics AND stage constraints jointly.

    Solves the Euclidean projection exactly as one horizon-wide QP.  Its
    rows are built here unless ``qp`` (from ``horizon_qp(game, 1.0)``) is
    passed to reuse them across calls.
    """
    if qp is None:
        qp = horizon_qp(game, 1.0)
    elif qp.state_weight != 1.0:
        raise ValueError(f"intersection projection needs state weight 1, got {qp.state_weight}")
    return qp.project(y, z)


def _constraint_violation(game: GameDefinition, traj: Trajectory) -> float:
    """Largest stage-row violation; NaN when any row evaluates to NaN."""
    if game.constraints is None:
        return 0.0
    rows = [game.eval_constraints(k, traj.states[k], traj.actions[k])
            for k in range(game.horizon + 1)]
    return float(np.max(np.maximum(np.concatenate(rows), 0.0), initial=0.0))


# ---------------------------------------------------------------------------
# Action-space projection used by the projected-gradient solver.
# ---------------------------------------------------------------------------


def action_space_projection(game: GameDefinition, target: Array,
                            qp: Optional[HorizonQp] = None) -> Array:
    """argmin |u - target|^2 over action sequences with a feasible rollout.

    The horizon-wide projection QP with weight zero on the states: the
    dynamics rows tie the states to the actions, so the states carry the
    stage rows without entering the objective.  Its rows are built here
    unless ``qp`` (from ``horizon_qp(game, 0.0)``) is passed to reuse them.
    """
    target = np.asarray(target, dtype=float)
    if qp is None:
        qp = horizon_qp(game, 0.0)
    elif qp.state_weight != 0.0:
        raise ValueError(f"action-space projection needs state weight 0, got {qp.state_weight}")
    return qp.project(np.zeros((target.shape[0], game.state_dim)), target)[1]


# ---------------------------------------------------------------------------
# The splitting iteration.
# ---------------------------------------------------------------------------


def dr_solve(game: GameDefinition, cfg: DrConfig,
             w0: Optional[ExtendedIterate] = None) -> SolverReport:
    """Run the reflected-resolvent iteration; returns the last resolvent output.

    The averaged variable is the splitting shadow iterate; the equilibrium
    candidate is the output of the second resolvent of the final iteration,
    which lies in that resolvent's constraint set by construction.
    The run stops with ``tolerance`` when the averaged-iterate step and the
    candidate's dynamics and constraint residuals are all at most
    ``cfg.tol``.  The residuals are computed only once the step test passes,
    so an iteration whose step is above the tolerance costs no residual
    evaluation; the stopping iteration is the same as checking all three
    every time.
    """
    T = game.horizon
    n_x, n_u = game.state_dim, game.total_action_dim
    if w0 is None:
        u_init = np.zeros((T + 1, n_u))
        x_init = rollout(game, game.initial_state, u_init).states
        w0 = ExtendedIterate(x=x_init, u=u_init)
    wx = np.array(w0.x, dtype=float, copy=True)
    wu = np.array(w0.u, dtype=float, copy=True)
    scale0 = 1.0 + float(np.linalg.norm(np.concatenate([wx.ravel(), wu.ravel()])))

    kernel = _scheme_kernel(game, cfg)
    warm: Optional[Trajectory] = None
    iterates = [np.concatenate([wx.ravel(), wu.ravel()])]
    step_norms: list[float] = []
    costs: list[Array] = []
    termination = TERM_MAX_ITER
    cand_x, cand_u = wx, wu
    for it in range(cfg.max_iter):
        tx, tu = _first_resolvent(game, cfg, wx, wu, warm, kernel)
        if cfg.scheme == SCHEME_CONSTRAINTS and kernel is None:
            warm = Trajectory(tx, tu)  # only the Newton resolvent warm-starts
        y, z = 2 * tx - wx, 2 * tu - wu
        tx, tu = _second_resolvent(game, cfg, y, z, kernel)
        y, z = 2 * tx - y, 2 * tu - z
        new_wx = (1 - cfg.alpha) * wx + cfg.alpha * y
        new_wu = (1 - cfg.alpha) * wu + cfg.alpha * z
        step = max(float(np.max(np.abs(new_wx - wx))), float(np.max(np.abs(new_wu - wu))))
        wx, wu = new_wx, new_wu
        cand_x, cand_u = tx, tu
        step_norms.append(step)
        w = np.concatenate([wx.ravel(), wu.ravel()])
        iterates.append(w)
        if cfg.record_costs:
            costs.append(all_player_costs(game, rollout(game, game.initial_state, tu)))
        if step <= cfg.tol and _residuals_within(game, Trajectory(cand_x, cand_u), cfg.tol):
            termination = TERM_TOLERANCE
            break
        if np.linalg.norm(w) > cfg.divergence_factor * scale0:
            termination = TERM_DIVERGENCE
            break
    final = Trajectory(cand_x, cand_u)
    verdicts = []
    if cfg.run_checks and termination != TERM_DIVERGENCE:
        checked = rollout(game, game.initial_state, cand_u)
        verdicts = playerwise_minimizer_check(game, checked)
    return build_report(
        trajectory=final,
        iterates=iterates,
        step_norms=step_norms,
        termination=termination,
        verdicts=verdicts,
        cost_trace=np.asarray(costs) if costs else None,
        final_costs=all_player_costs(game, rollout(game, game.initial_state, cand_u)),
        dynamics_residual=float(np.max(final.dynamics_residuals(game), initial=0.0)),
        constraint_residual=_constraint_violation(game, final))


def _residuals_within(game, cand: Trajectory, tol: float) -> bool:
    """Whether the candidate's dynamics and constraint residuals are at most tol."""
    dyn_res = float(np.max(cand.dynamics_residuals(game), initial=0.0))
    return dyn_res <= tol and _constraint_violation(game, cand) <= tol


def _scheme_kernel(game, cfg) -> Union[lq.LqFactor, HorizonQp, None]:
    """The iterate-independent data a scheme's resolvents reuse, if any.

    ``constraints`` solves the regularized game, exactly and factored for
    declared linear-quadratic games; ``dynamics`` projects onto the
    dynamics with the eta = 0 factor; ``gradient`` projects onto dynamics
    and stage rows with one horizon-wide QP whose rows are built here.
    Both raise before the first iteration: StageSingularityError for a
    singular stage matrix, UnsupportedConstraintError for nonlinear
    dynamics or, in the ``gradient`` scheme, non-affine stage constraints.
    """
    if cfg.scheme == SCHEME_CONSTRAINTS:
        if game.linear_dynamics and game.quadratic_costs:
            return lq.factor(game, cfg.eta)
        return None
    if cfg.scheme == SCHEME_DYNAMICS:
        return lq.factor(game, 0.0)
    return horizon_qp(game, 1.0)


def _first_resolvent(game, cfg, y, z, warm, kernel):
    if cfg.scheme == SCHEME_CONSTRAINTS:
        return resolvent_reg_game(game, y, z, cfg.eta,
                                  inner_tol=cfg.inner_tol,
                                  inner_max_iter=cfg.inner_max_iter,
                                  warm=warm, factor=kernel)
    if cfg.scheme == SCHEME_DYNAMICS:
        return resolvent_reg_static_games(game, y, z, cfg.eta,
                                          inner_tol=cfg.inner_tol,
                                          inner_max_iter=cfg.inner_max_iter)
    return constrained_oc_projection(game, y, z, qp=kernel)


def _second_resolvent(game, cfg, y, z, kernel):
    if cfg.scheme == SCHEME_CONSTRAINTS:
        return project_stage_constraints(game, y, z)
    if cfg.scheme == SCHEME_DYNAMICS:
        return project_dynamics(game, y, z, factor=kernel)
    return resolvent_static_games_uncon(game, y, z, cfg.eta,
                                        inner_tol=cfg.inner_tol,
                                        inner_max_iter=cfg.inner_max_iter)
