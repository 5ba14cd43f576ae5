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
  game (one banded solve of its open-loop KKT system for declared
  linear-quadratic games, else Newton steps, each one banded solve of the
  local LQ game's system), r_2 projects stagewise onto the constraint sets.
* ``dynamics``: r_1 solves independent regularized constrained static games
  per stage (the state coordinate acts as an extra coordinating player) by
  Josephy-Newton steps and Lemke's method, r_2 projects onto the dynamics
  by the same banded solve at eta = 0.
* ``gradient``: r_1 projects onto the intersection of dynamics and
  constraints (exact horizon-wide QP), r_2 solves the same static games
  per stage without their rows.

The stagewise static-game resolvents read the cost operator stage by stage;
their fixed points coincide with the variational equilibrium exactly when
the players share state-cost gradients (the coordinator row uses the mean
of the players' state gradients).  The ``constraints`` scheme carries no
such restriction.

``dr_solve`` is the reflected-resolvent step over one stacked iterate plus
one call of ``report.iterate``, the loop it shares with ``projgrad``; for
linear-quadratic games with affine rows or none it passes the active-set
polish of ``certificate``, which ends the run on a certified point.  The
averaged map is nonexpansive, and ``dr_solve`` has the loop accelerate it
with safeguarded type-II Anderson extrapolation (Fu, Zhang and Boyd, SIAM
J. Sci. Comput. 2020): every scheme evaluates its step at extrapolated
points once a few plain steps have passed, falls back to the plain image
whenever a trial point's residual rises, and keeps the same fixed point.
The weight eta is residual-balanced during the run (``DrConfig``): a change
rescales the next point about the first resolvent's output, which maps a
fixed point of the old map onto one of the new, and restarts the Anderson
history; eta is frozen after a bounded number of changes.
``dr_solve`` reads the game once, at the origin (``certificate.read_game``),
and ``_resolvents`` builds what does not depend on eta once from that read:
the rows for the stagewise projections, the static games and the
intersection projection (a QP on ``lq``'s banded kernel), and the eta = 0
dynamics projection's ``lq.factor`` (a banded LU of the stacked KKT matrix).
Only the regularized LQ game is factored again, once per change of eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import denseqp
from .errors import StageSingularityError, SubproblemError
from . import lq
from .certificate import active_set_polish, read_game
from .gradient import solve_costates
from .model import (
    GameDefinition,
    LqGameData,
    PaddedRows,
    Trajectory,
    all_player_costs,
    local_lq,
    rollout,
)
from . import report
from .report import SolverReport, build_report, iterate

Array = np.ndarray

SCHEME_CONSTRAINTS = "constraints"
SCHEME_DYNAMICS = "dynamics"
SCHEME_GRADIENT = "gradient"
SCHEMES = (SCHEME_CONSTRAINTS, SCHEME_DYNAMICS, SCHEME_GRADIENT)

# Residual balancing of eta in ``dr_solve`` (DrConfig): the steps between
# checks, the ratio of the two residuals that asks for a change, the factor
# eta changes by, and the changes after which eta is frozen.
BALANCE_EVERY = 10
BALANCE_RATIO = 10.0
BALANCE_FACTOR = 2.0
BALANCE_MAX_CHANGES = 20

# The Newton steps of every resolvent: relative residual tolerance and step budget.
INNER_TOL, INNER_MAX_ITER = 1e-10, 300


@dataclass
class DrConfig:
    """Scheme selection, regularization and iteration budget for dr_solve.

    ``eta`` is the starting weight of the game operator; the fixed point
    does not depend on it, the step count does.  ``dr_solve`` balances it
    (Boyd et al., "Distributed optimization and statistical learning via
    ADMM", 2011, section 3.4.1): after every BALANCE_EVERY (10) steps it
    compares the resolvent gap r_p = max|first output - second output| with
    the dual change r_d = max|second output - second output one step
    before| / eta, doubles eta (BALANCE_FACTOR) when r_d > BALANCE_RATIO *
    r_p (10) and halves it when r_p > BALANCE_RATIO * r_d.  After
    BALANCE_MAX_CHANGES (20) changes eta is frozen, which keeps DR's
    convergence (Lorenz and Tran-Dinh, "Non-stationary Douglas-Rachford and
    ADMM", Comput. Optim. Appl. 2019).  The resolvents' Newton steps use
    INNER_TOL and INNER_MAX_ITER, the divergence test ``report.DIVERGENCE_FACTOR``.

    ``record_costs`` fills the report's ``cost_trace``: the costs of the
    rolled-out candidate at the start, at the iterations {1, 2, 5} * 10^j
    the run steps past and at the result (``SolverReport``).
    """

    scheme: str = SCHEME_CONSTRAINTS
    eta: float = 1e-4
    alpha: float = 0.5
    max_iter: int = 10_000
    tol: float = 1e-8
    record_costs: bool = True
    run_checks: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        # each test is written so that NaN fails it
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        for name in ("eta", "tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")


# ---------------------------------------------------------------------------
# Regularized unconstrained dynamic game (resolvent of gradient + dynamics).
# ---------------------------------------------------------------------------


def resolvent_reg_game(game: GameDefinition, y: Array, z: Array, eta: float,
                       warm: Optional[Trajectory] = None,
                       factor: Optional[lq.LqFactor] = None) -> tuple[Array, Array]:
    """Equilibrium of the proximally regularized unconstrained dynamic game.

    The regularized game gives player n the costs eta c_{n,k} + 0.5 |x_k -
    y_k|^2 + 0.5 |u_k - z_k|^2; scaling all costs by eta > 0 leaves equilibria
    unchanged, so its equilibrium is the resolvent of the scaled game
    operator at (y, z).  Declared linear-quadratic games are solved exactly
    by one banded solve of their stacked open-loop KKT system (``lq``): only
    its right-hand side depends on (y, z), so ``factor`` (the LU from
    ``lq.factor(game, eta)``) can be prepared once and reused across calls;
    without it the game is factored here.

    Other games take full Newton steps from ``warm`` (else from z).  A Newton
    step on an open-loop game is the open-loop equilibrium of its local LQ
    game with the Lagrangian Hessians (Di and Lamperski, arXiv:1906.09097):
    each pass reads ``local_lq`` around the rolled-out iterate, adds the
    dynamics Hessians weighted by the regularized game's costates to the
    cost Hessians and solves that game with ``lq.regularized_factor``; the
    new actions are rolled out through the game's own dynamics.  The passes
    stop once the regularized pseudo-gradient is at most
    INNER_TOL * (1 + max|u_start|).  They raise SubproblemError after
    INNER_MAX_ITER steps, and as soon as that residual is not finite or
    exceeds ``report.DIVERGENCE_FACTOR`` times the first pass's.  A non-finite
    rollout raises NonFiniteStateError, a singular KKT matrix
    StageSingularityError, and an eta that is not positive ValueError.
    """
    if game.linear_dynamics and game.quadratic_costs:
        if factor is None:
            factor = lq.factor(game, eta)
        elif factor.eta != eta:
            raise ValueError(f"factor was built for eta={factor.eta}, not {eta}")
        return factor.solve(y, z)
    if not eta > 0:  # the Newton steps weigh the Hessians by 1/eta
        raise ValueError(f"regularization must be positive, got {eta}")
    T, n_x, n_u = game.horizon, game.state_dim, game.total_action_dim
    y, z = np.asarray(y, dtype=float), np.asarray(z, dtype=float)
    start = z if warm is None or warm.actions.shape != (T + 1, n_u) else warm.actions
    traj = rollout(game, game.initial_state, start)
    scale = 1.0 + float(np.max(np.abs(traj.actions), initial=0.0))
    owner = np.repeat(np.arange(game.num_players), game.action_dims)
    for it in range(INNER_MAX_ITER + 1):
        data = local_lq(game, traj.states, traj.actions)
        # costates and own-action gradients of the regularized costs
        lam = solve_costates(data.A, eta * data.q.swapaxes(0, 1) + (traj.states - y)[:, None])
        grads = eta * data.r.swapaxes(0, 1) + (traj.actions - z)[:, None]
        grads[:-1] += lam[1:] @ data.B
        resid = float(np.max(np.abs(grads[:, owner, np.arange(n_u)]), initial=0.0))
        if resid <= INNER_TOL * scale:
            return traj.states, traj.actions
        if it == 0:
            resid0 = resid
        if not (np.isfinite(resid) and resid <= report.DIVERGENCE_FACTOR * resid0):
            raise SubproblemError(
                f"regularized game diverged: residual {resid:.3e} after {it} Newton "
                f"steps, from {resid0:.3e}")
        if it == INNER_MAX_ITER:
            break
        # Lagrangian Hessians, in units of the unregularized costs
        H = np.einsum("kni,kiab->nkab", lam[1:], data.G) / eta
        data.Q[:, :T] += H[..., :n_x, :n_x]
        data.X[:, :T] += H[..., :n_x, n_x:]
        data.R[:, :T] += H[..., n_x:, n_x:]
        _, du = lq.regularized_factor(data, eta).solve(y - traj.states, z - traj.actions)
        traj = rollout(game, game.initial_state, traj.actions + du)
    raise SubproblemError(
        f"regularized game did not reach stationarity in {INNER_MAX_ITER} Newton "
        f"steps (residual {resid:.3e})")


# ---------------------------------------------------------------------------
# Stagewise projections and static-game resolvents.
# ---------------------------------------------------------------------------


def project_stage_constraints(game: GameDefinition, y: Array, z: Array,
                              rows: Optional[PaddedRows] = None) -> tuple[Array, Array]:
    """Stagewise projection of (y, z) onto the constraint sets.

    Uses the game's analytic projector when available, for the whole
    trajectory at once (``GameDefinition.eval_traj_projection``), otherwise
    an exact polyhedron projection for affine rows (``rows``, read here when
    None).  Stages without constraints pass through unchanged.
    """
    if game.constraints is None:
        return np.array(y, dtype=float, copy=True), np.array(z, dtype=float, copy=True)
    if game.traj_projector is not None:
        return game.eval_traj_projection(np.asarray(y, dtype=float),
                                         np.asarray(z, dtype=float))
    rows = lq.padded_rows(game) if rows is None else rows  # raises without affine rows
    xs, us = np.array(y, dtype=float, copy=True), np.array(z, dtype=float, copy=True)
    for k in np.flatnonzero(rows.real.any(axis=1)):
        G, p0 = rows.stage(k)
        proj = denseqp.project_polyhedron(np.concatenate([y[k], z[k]]), G, -p0)
        xs[k], us[k] = proj[:game.state_dim], proj[game.state_dim:]
    return xs, us


def _stage_operator(game, k, v, w, eta):
    """Stage k's regularized static-game operator at v = (x, u), and its Jacobian.

    The state row is the coordinator (mean of the players' state gradients),
    each action row its owner's own-action gradient; all are scaled by eta
    and carry the prox term v - w.
    """
    n_x, N = game.state_dim, game.num_players
    x, u = v[:n_x], v[n_x:]
    cx, cu = game.eval_cost_gradients(k, x, u)
    cxx, cxu, cuu = game.eval_cost_hessians(k, x, u)
    owner = np.repeat(np.arange(N), game.action_dims)
    own = np.arange(game.total_action_dim)
    F = np.concatenate([cx.sum(axis=0) / N, cu[owner, own]])
    J = np.empty((v.size, v.size))
    J[:n_x, :n_x] = cxx.sum(axis=0) / N
    J[:n_x, n_x:] = cxu.sum(axis=0) / N
    J[n_x:, :n_x] = cxu[owner, :, own]
    J[n_x:, n_x:] = cuu[owner, own]
    return eta * F + (v - w), eta * J + np.eye(v.size)


# Relative size below which a tableau entry counts as zero in Lemke's ratio
# test, and ratios count as tied.
_PIVOT_TOL = 1e-11


def _lemke(M: Array, q: Array, stage: int) -> Array:
    """z >= 0 with w = q + M z >= 0 and w'z = 0, by Lemke's method.

    Complementary pivoting with covering vector 1 and the lexicographic
    minimum-ratio rule, which cannot cycle on degenerate rows (Cottle, Pang
    and Stone, *The Linear Complementarity Problem*, 1992, section 4.4).
    For M = G J^{-1} G^T with J positive definite it ends on a ray only when
    the rows G are infeasible; that raises SubproblemError naming the stage.
    """
    m = q.size
    # Tableau of  w - M z - z0 = q  over the columns w (0..m-1), z (m..2m-1),
    # z0 (2m) and the right-hand side; columns 0..m-1 hold B^{-1}.
    tab = np.hstack([np.eye(m), -M, -np.ones((m, 1)), q[:, None]])
    basis = np.arange(m)
    done_tol = _PIVOT_TOL * (1.0 + np.max(np.abs(q)))
    rows, col, entering = np.arange(m), np.ones(m), 2 * m  # z0 enters where q is least
    # Lexicographic pivoting never revisits a basis; the bound only stops
    # floating-point cycling.
    for _ in range(50 * (m + 1)):
        for j in (-1, *range(m)):  # ratios of [rhs, B^{-1}]; z0 leaves first on a tie
            ratio = tab[rows, j] / col[rows]
            rows = rows[ratio <= ratio.min() + _PIVOT_TOL * (1.0 + abs(ratio.min()))]
            if j == -1 and np.any(basis[rows] == 2 * m):
                rows = rows[basis[rows] == 2 * m]
            if rows.size == 1:
                break
        r = rows[0]
        row = tab[r] / tab[r, entering]
        tab -= np.outer(tab[:, entering], row)
        tab[r] = row
        basis[r], leaving = entering, basis[r]
        # z0 is the largest violation of w >= 0; rows through one point can
        # leave it at rounding level without a tie.
        z0 = tab[basis == 2 * m, -1]
        if z0.size == 0 or z0[0] <= done_tol:
            z = np.zeros(m)
            held = (basis >= m) & (basis < 2 * m)
            z[basis[held] - m] = tab[held, -1]
            return z
        entering = leaving + m if leaving < m else leaving - m
        col = tab[:, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL * (1.0 + np.max(np.abs(col))))
        if rows.size == 0:
            raise SubproblemError(
                f"stage {stage}: Lemke's method ended on a ray; the stage rows are "
                "infeasible or the stage game is not monotone")
    raise SubproblemError(f"stage {stage}: Lemke's method did not terminate")


def _static_games(game: GameDefinition, y: Array, z: Array, eta: float,
                  rows: Optional[PaddedRows]) -> tuple[Array, Array]:
    """Every stage's regularized static game, by Josephy-Newton steps, with ``rows`` or none.

    Each step linearizes the stage operator at the current point and solves
    that affine stage game exactly: one linear solve for the unconstrained
    point and, only when it violates some stage rows, one LCP in the rows'
    multipliers by ``_lemke``.  A stage is done once its KKT residual
    (stationarity and min(mu, -g) over the rows g <= 0) is at most
    INNER_TOL * (1 + |(y_k, z_k)|_inf); quadratic costs need one step plus
    that check, and a stage fails after INNER_MAX_ITER steps.  Any failure
    raises SubproblemError naming the stage.
    """
    n_x, n_v = game.state_dim, game.state_dim + game.total_action_dim
    xs, us = np.array(y, dtype=float), np.array(z, dtype=float)
    for k in range(game.horizon + 1):
        G, p = (np.zeros((0, n_v)), np.zeros(0)) if rows is None else rows.stage(k)
        w = np.concatenate([y[k], z[k]])
        tol = INNER_TOL * (1.0 + float(np.max(np.abs(w))))
        v, mu = w, np.zeros(p.size)
        for _ in range(INNER_MAX_ITER):
            F, J = _stage_operator(game, k, v, w, eta)
            kkt = np.max(np.abs(np.concatenate([F + G.T @ mu, np.minimum(mu, -(G @ v + p))])))
            if kkt <= tol:
                break
            if not np.isfinite(kkt):
                raise SubproblemError(f"stage {k} regularized static game is not finite")
            try:
                sol = np.linalg.solve(J, np.column_stack([J @ v - F, G.T]))
            except np.linalg.LinAlgError:
                raise SubproblemError(
                    f"stage {k} regularized static game has a singular Jacobian") from None
            v, mu = sol[:, 0], np.zeros(p.size)
            if np.any(G @ v + p > 0):
                mu = _lemke(G @ sol[:, 1:], -(G @ v + p), k)
                v = v - sol[:, 1:] @ mu
        else:
            raise SubproblemError(
                f"stage {k} regularized static game did not converge in "
                f"{INNER_MAX_ITER} Newton steps")
        xs[k], us[k] = v[:n_x], v[n_x:]
    return xs, us


def resolvent_reg_static_games(game: GameDefinition, y: Array, z: Array, eta: float,
                               rows: Optional[PaddedRows] = None) -> tuple[Array, Array]:
    """Independent regularized constrained static games, one per stage.

    Each stage solves, over (x_k, u_k), the game whose action rows are the
    players' own-gradient stationarity and whose state row is the
    coordinator (mean state gradient plus prox), subject to the stage's
    affine rows, by Josephy-Newton steps with one Lemke pivot sequence each
    (``_static_games``, INNER_TOL and INNER_MAX_ITER).  Requires affine
    constraints; ``rows`` are the game's ``lq.padded_rows``, read here when
    None.  A stage game that is not monotone (the symmetric part of
    I + eta J_k not positive definite) may raise SubproblemError; no returned
    point fails the KKT check.
    """
    rows = lq.padded_rows(game) if rows is None else rows
    return _static_games(game, y, z, eta, rows)


def resolvent_static_games_uncon(game: GameDefinition, y: Array, z: Array,
                                 eta: float) -> tuple[Array, Array]:
    """Independent regularized unconstrained static games, one per stage.

    The stage games of ``resolvent_reg_static_games`` with the rows dropped:
    each Newton step is one linear solve.
    """
    return _static_games(game, y, z, eta, None)


# ---------------------------------------------------------------------------
# Dynamics projection and the intersection projection.
# ---------------------------------------------------------------------------


def project_dynamics(game: GameDefinition, y: Array, z: Array,
                     factor: Optional[lq.LqFactor] = None) -> tuple[Array, Array]:
    """Projection of (y, z) onto the dynamics-consistent trajectories.

    Minimizes sum_k |x_k - y_k|^2 + |u_k - z_k|^2 subject to linear dynamics
    and the pinned initial state, exactly, by one banded solve of the
    stacked KKT system at eta = 0.  Pass ``factor=lq.factor(game, 0.0)`` to
    reuse one factorization across calls.
    """
    if factor is None:
        factor = lq.factor(game, 0.0)  # raises UnsupportedConstraintError for nonlinear dynamics
    elif factor.eta != 0:
        raise ValueError(f"dynamics projection needs an eta=0 factor, got eta={factor.eta}")
    return factor.solve(y, z)


def constrained_oc_projection(game: GameDefinition, y: Array, z: Array,
                              rows: Optional[PaddedRows] = None,
                              data: Optional[LqGameData] = None) -> tuple[Array, Array]:
    """Projection of (y, z) onto dynamics AND stage constraints jointly.

    Solves the Euclidean projection exactly as one horizon-wide QP in band
    (``lq.project``).  ``rows`` (``lq.padded_rows``) and ``data`` (the
    dynamics, ``lq.dynamics_data`` or the LQ data) reuse one read across
    calls; each is read here when None.
    """
    rows = lq.padded_rows(game) if rows is None else rows
    data = lq.dynamics_data(game) if data is None else data
    traj = lq.project(rows, data, y, z, 1.0)
    return traj.states, traj.actions


# ---------------------------------------------------------------------------
# The splitting iteration.
# ---------------------------------------------------------------------------


def dr_solve(game: GameDefinition, cfg: DrConfig) -> SolverReport:
    """Run the reflected-resolvent iteration; returns the last resolvent output.

    The averaged (shadow) iterate w stacks states and actions in one vector,
    starting at zero actions and their rollout; one step maps w to its
    averaged image g(w).  After ``report.ANDERSON_WARMUP`` plain steps the
    next w is a safeguarded Anderson extrapolation (``report.iterate`` with
    ``accelerate``); a trial whose residual |g(w) - w|_2 exceeds that of the
    point it came from gives way to that point's image.  ``step_norms``
    hold max|g(w) - w| at each point evaluated, and ``distance_trace``
    measures the images g(w) against the last one.  The candidate is the
    second resolvent's output at the point evaluated, in its constraint set
    by construction.  The run stops with ``tolerance`` once the step and
    then the candidate's dynamics and constraint residuals are at most
    ``cfg.tol``.  For a linear-quadratic game with affine rows or none, the
    active-set polish (``certificate.active_set_polish``) runs after every
    step, and a point it certifies (natural residual <= ``cfg.tol``) ends
    the run with ``tolerance`` and becomes the result.  ``record_costs``
    records the costs of the candidate's actions rolled out: at the start
    (step 0), after the steps t in {1, 2, 5} * 10^j that the run goes past,
    and last at the reported result (``final_costs``); ``cost_iterations``
    names each row's step.  A 10k-iteration run so makes 14 rollouts.

    ``cfg.eta`` is the starting weight; the run balances it as DrConfig
    says.  A change of eta rescales the next point, the image g of the
    point w just evaluated, about w's first resolvent output a:
    g <- a + (eta' / eta)(g - a).  At a fixed point (g = w) the rescaled
    point has first output a at eta' and is a fixed point of the new map.
    The resolvents are rebuilt at eta' and the Anderson state restarts
    (``report.iterate``'s ``restart``).  The step test keeps its units:
    g(w) - w is 2 alpha times the difference of the two outputs, in state
    and action units whatever eta is.  A regularized LQ game singular at eta'
    (StageSingularityError from ``lq.factor``) keeps eta and ends the
    balancing; one singular at the starting eta raises before the first step.
    """
    T, n_x, n_u = game.horizon, game.state_dim, game.total_action_dim
    wu = np.zeros((T + 1, n_u))
    start = rollout(game, game.initial_state, wu)
    wx = start.states
    rows, data = read_game(game)
    resolvents = _resolvents(game, cfg, rows, data)
    eta, changes = cfg.eta, 0
    first, second = resolvents(eta)
    split = (T + 1) * n_x
    outputs = [None] * 3  # the last step's first and second outputs, and the second before

    def step(w, cand):
        wx, wu = w[:split].reshape(T + 1, n_x), w[split:].reshape(T + 1, n_u)
        ax, au = first(wx, wu)
        y, z = 2 * ax - wx, 2 * au - wu
        tx, tu = second(y, z)
        outputs[:] = [(ax, au), (tx, tu), outputs[1]]
        y, z = 2 * tx - y, 2 * tu - z
        w_new = (1 - cfg.alpha) * w + cfg.alpha * np.concatenate([y.ravel(), z.ravel()])
        return w_new, Trajectory(tx, tu)

    def balance(t, g):
        nonlocal eta, changes, first, second
        if t % BALANCE_EVERY or changes >= BALANCE_MAX_CHANGES:
            return None
        a, b, before = (np.concatenate([x.ravel(), u.ravel()]) for x, u in outputs)
        gap = float(np.max(np.abs(a - b)))
        move = float(np.max(np.abs(b - before))) / eta
        if move > BALANCE_RATIO * gap:
            new = eta * BALANCE_FACTOR
        elif gap > BALANCE_RATIO * move:
            new = eta / BALANCE_FACTOR
        else:
            return None
        try:
            first, second = resolvents(new)
        except StageSingularityError:
            changes = BALANCE_MAX_CHANGES  # keep eta and balance no more
            return None
        changes += 1
        g, eta = a + (new / eta) * (g - a), new
        return g

    def accept(cand):
        return (cand.dynamically_feasible(game, cfg.tol)
                and cand.constraint_violation(game) <= cfg.tol)

    def costs(cand):
        return all_player_costs(game, rollout(game, game.initial_state, cand.actions))

    run = iterate(step, np.concatenate([wx.ravel(), wu.ravel()]), Trajectory(wx, wu),
                  cfg.max_iter, cfg.tol, report.DIVERGENCE_FACTOR, accept=accept,
                  record=costs if cfg.record_costs else None,
                  polish=active_set_polish(game, cfg.tol, rows, data), accelerate=True,
                  restart=balance)
    checked = rollout(game, game.initial_state, run.candidate.actions)
    # the first candidate's actions are wu, so ``start`` is their rollout
    return build_report(game, run.candidate, checked, run, cfg.run_checks,
                        all_player_costs(game, start) if cfg.record_costs else None,
                        rows, data)


def _resolvents(game: GameDefinition, cfg: DrConfig, rows: Optional[PaddedRows],
                data: Optional[LqGameData]):
    """The scheme's two resolvents at a given eta: a map eta -> (first, second).

    Each resolvent maps (y, z) -> (x, u).  ``rows`` and ``data`` are the
    solve's reads (``certificate.read_game``); what does not depend on eta
    is built here, once per solve.  ``constraints`` solves the regularized
    game with the banded LU of ``lq.factor`` at eta for declared
    linear-quadratic games, else by Newton steps warm-started from the
    previous output; the other schemes pass eta per call to the static
    games.  Building raises before the first iteration:
    UnsupportedConstraintError for nonlinear dynamics or, in the
    ``gradient`` scheme, non-affine stage constraints; and the map raises
    StageSingularityError for a singular KKT matrix at its eta.
    """
    if cfg.scheme == SCHEME_DYNAMICS:
        factor = lq.factor(game, 0.0, data)
        project = lambda y, z: project_dynamics(game, y, z, factor=factor)
        return lambda eta: (
            lambda y, z: resolvent_reg_static_games(game, y, z, eta, rows),
            project)
    if cfg.scheme == SCHEME_GRADIENT:
        # a read is missing only for nonlinear dynamics or rows not affine: these raise
        data = lq.dynamics_data(game) if data is None else data
        rows = lq.padded_rows(game) if rows is None else rows
        project = lambda y, z: constrained_oc_projection(game, y, z, rows, data)
        return lambda eta: (
            project, lambda y, z: resolvent_static_games_uncon(game, y, z, eta))
    exact = game.linear_dynamics and game.quadratic_costs
    project = lambda y, z: project_stage_constraints(game, y, z, rows)
    warm = None

    def at(eta):
        factor = lq.factor(game, eta, data) if exact else None

        def regularized_game(y, z):
            nonlocal warm
            x, u = resolvent_reg_game(game, y, z, eta, warm=warm, factor=factor)
            if factor is None:  # only the Newton steps warm-start
                warm = Trajectory(x, u)
            return x, u

        return regularized_game, project

    return at
