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
  local LQ game's system), r_2 projects stagewise onto the constraint sets,
  each stage's projection one stage LCP (``denseqp.project_polyhedron``).
* ``dynamics``: r_1 solves the T+1 independent regularized constrained
  static games, one per stage (the state coordinate acts as an extra
  coordinating player), all at once by Josephy-Newton steps: each step is
  one stacked linear solve over the stages still pending, plus one stage
  LCP for each stage whose rows bind (``denseqp._stage_lcp``: a small solve
  with the violated rows held, and Lemke's method only where that guess
  fails).  r_2 projects onto the dynamics by the same banded solve at
  eta = 0.
* ``gradient``: r_1 projects onto the intersection of dynamics and
  constraints (exact horizon-wide QP), r_2 solves the same static games
  without their rows, each step one stacked linear solve.

The static-game resolvents take a declared linear-quadratic game's affine
stage operators from its kept data (``lq.game_data``), and read other
games' cost derivatives over the whole trajectory once per Newton step.
Their fixed points coincide with the variational equilibrium exactly when
the players share state-cost gradients (the coordinator row uses the mean
of the players' state gradients).  The ``constraints`` scheme carries no
such restriction.

``dr_solve`` is the reflected-resolvent step over one stacked iterate plus
one call of ``report.iterate``, the loop it shares with ``projgrad``; for
declared linear-quadratic games it passes the active-set polish of
``certificate``, which ends the run on a certified point: on the paper
rendezvous, whose norm-ball rows are curved, after the first step.  DR's
rule for its next point is its own, the loop's ``next_point`` hook: the
weight eta is residual-balanced (``DrConfig``), up or down by
BALANCE_FACTOR (4) at a time, and otherwise the point is a safeguarded
type-II Anderson extrapolation of the averaged map, which is nonexpansive
(``_Anderson``; Fu, Zhang and Boyd, SIAM J. Sci. Comput. 2020).  The polish
ends a linear-quadratic run within two steps, so the rule serves the games
it cannot end: on the nonlinear fishery (``horizon_time`` 10, eta 1e-4)
the natural residual after 300 steps reads 0.143 with both parts, 0.235
without the extrapolation and 0.345 without the balancing.
The rows, the data at the origin and ``lq.factor``'s banded LUs of the
stacked KKT matrix, at eta = 0 and at the last eta > 0 asked for, are the
game's kept reads (``lq.padded_rows``, ``lq.game_data`` and ``lq.factor``),
made once per game however many solves read them; only a change of eta
factors the regularized LQ game again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import denseqp
from .errors import StageSingularityError, SubproblemError
from . import lq
from .certificate import active_set_polish
from .gradient import own_gradients
from .model import (
    GameDefinition,
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
BALANCE_FACTOR = 4.0
BALANCE_MAX_CHANGES = 20

# Safeguarded type-II Anderson extrapolation (``_Anderson``): the difference
# pairs kept, the plain steps before the first extrapolation, and the
# Tikhonov weight of the least-squares problem relative to |dF|_F^2, as
# A2DR regularizes it (Fu, Zhang and Boyd, arXiv:1908.11482).
ANDERSON_MEMORY = 20
ANDERSON_WARMUP = 5
ANDERSON_REG = 1e-8

# The Newton steps of every resolvent: relative residual tolerance and step budget.
INNER_TOL, INNER_MAX_ITER = 1e-10, 300


@dataclass
class DrConfig:
    """Scheme selection, regularization and iteration budget for dr_solve.

    ``eta`` is the starting weight of the game operator; the fixed point
    does not depend on it, the step count does.  ``dr_solve``'s next-point
    rule balances it (Boyd et al., "Distributed optimization and statistical
    learning via ADMM", 2011, section 3.4.1): after every BALANCE_EVERY (10)
    steps it compares the resolvent gap r_p = max|first output - second
    output| with the dual change r_d = max|second output - second output one
    step before| / eta, multiplies eta by BALANCE_FACTOR (4) when r_d >
    BALANCE_RATIO * r_p (10) and divides it by BALANCE_FACTOR when r_p >
    BALANCE_RATIO * r_d.  The factor is Boyd et al.'s 2 squared: larger
    steps reach the balanced weight in fewer changes (Wohlberg, "ADMM
    penalty parameter selection by residual balancing", 2017), and each
    change costs a new factor of the regularized game: DR alone stops on the
    paper rendezvous after 95 steps on 7 factors, against 120 on 12 with a
    factor of 2.  After BALANCE_MAX_CHANGES (20) changes eta is frozen,
    which keeps DR's convergence (Lorenz and Tran-Dinh, "Non-stationary
    Douglas-Rachford and ADMM", Comput. Optim. Appl. 2019).
    The resolvents' Newton steps use INNER_TOL and INNER_MAX_ITER, the
    divergence test ``report.DIVERGENCE_FACTOR``.

    A run stops on ``tol`` once the step max|g(w) - w| and then the largest
    stage-row violation of the candidate's actions rolled out, the reported
    trajectory, are at most ``tol``.  ``record_costs`` fills the report's
    ``cost_trace`` (``SolverReport``).
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
                       warm: Optional[Trajectory] = None) -> tuple[Array, Array]:
    """Equilibrium of the proximally regularized unconstrained dynamic game.

    The regularized game gives player n the costs eta c_{n,k} + 0.5 |x_k -
    y_k|^2 + 0.5 |u_k - z_k|^2; scaling all costs by eta > 0 leaves equilibria
    unchanged, so its equilibrium is the resolvent of the scaled game
    operator at (y, z).  Declared linear-quadratic games are solved exactly
    by one banded solve of their stacked open-loop KKT system (``lq``): only
    its right-hand side depends on (y, z), so the LU is the game's kept
    ``lq.factor(game, eta)``, made once and reused while eta stays.

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
        return lq.factor(game, eta).solve(y, z)
    if not eta > 0:  # the Newton steps weigh the Hessians by 1/eta
        raise ValueError(f"regularization must be positive, got {eta}")
    T, n_x, n_u = game.horizon, game.state_dim, game.total_action_dim
    y, z = np.asarray(y, dtype=float), np.asarray(z, dtype=float)
    start = z if warm is None or warm.actions.shape != (T + 1, n_u) else warm.actions
    traj = rollout(game, game.initial_state, start)
    scale = 1.0 + float(np.max(np.abs(traj.actions), initial=0.0))
    for it in range(INNER_MAX_ITER + 1):
        data = local_lq(game, traj.states, traj.actions)
        # own-action gradients and costates of the regularized costs
        c = data.c.swapaxes(0, 1)
        F, lam = own_gradients(game, data.A, data.B,
                               eta * c[..., :n_x] + (traj.states - y)[:, None],
                               eta * c[..., n_x:] + (traj.actions - z)[:, None])
        resid = float(np.max(np.abs(F), initial=0.0))
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
        data.C[:, :T] += np.einsum("kni,kiab->nkab", lam[1:], data.G) / eta
        _, du = lq.regularized_factor(data, eta).solve(y - traj.states, z - traj.actions)
        traj = rollout(game, game.initial_state, traj.actions + du)
    raise SubproblemError(
        f"regularized game did not reach stationarity in {INNER_MAX_ITER} Newton "
        f"steps (residual {resid:.3e})")


# ---------------------------------------------------------------------------
# Stagewise projections and static-game resolvents.
# ---------------------------------------------------------------------------


def project_stage_constraints(game: GameDefinition, y: Array, z: Array) -> tuple[Array, Array]:
    """Stagewise projection of (y, z) onto the constraint sets.

    Uses the game's analytic projector when available, for the whole
    trajectory at once (``GameDefinition.eval_traj_projection``), otherwise
    an exact polyhedron projection for affine rows (``lq.padded_rows``; one
    ``denseqp.project_polyhedron`` per stage).  Stages without
    constraints pass through unchanged; rows that admit no point raise
    InfeasibleConstraintsError naming the stage.
    """
    if game.constraints is None:
        return np.array(y, dtype=float, copy=True), np.array(z, dtype=float, copy=True)
    if game.traj_projector is not None:
        return game.eval_traj_projection(np.asarray(y, dtype=float),
                                         np.asarray(z, dtype=float))
    rows = lq.padded_rows(game)  # raises without affine rows
    xs, us = np.array(y, dtype=float, copy=True), np.array(z, dtype=float, copy=True)
    for k in np.flatnonzero(rows.real.any(axis=1)):
        G, p0 = rows.G[k, rows.real[k]], rows.p[k, rows.real[k]]
        proj = denseqp.project_polyhedron(np.concatenate([y[k], z[k]]), G, -p0, k)
        xs[k], us[k] = proj[:game.state_dim], proj[game.state_dim:]
    return xs, us


def _stage_operators(game, cx, cu, C):
    """Every stage's static-game operator and its Jacobian from stacked cost derivatives.

    The gradients are stacked as (T+1, N, ...), like ``eval_traj_cost_gradients``,
    and C like ``eval_traj_cost_hessians``; returns F (T+1, n_v) and J (T+1, n_v,
    n_v) over v = (x, u).  The state rows are the coordinator's (mean of the
    players'), each action row its owner's own-action row.
    """
    N, n_x, owner, own = game.num_players, game.state_dim, game.owner, np.arange(cu.shape[2])
    F = np.concatenate([cx.sum(axis=1) / N, cu[:, owner, own]], axis=1)
    J = np.concatenate([C[:, :, :n_x].sum(axis=1) / N, C[:, owner, n_x + own]], axis=1)
    return F, J


def _static_games(game: GameDefinition, y: Array, z: Array, eta: float,
                  constrained: bool) -> tuple[Array, Array]:
    """Every stage's regularized static game, by Josephy-Newton steps, with its rows or none.

    Each step linearizes the pending stages' operators at their current
    points and solves those affine stage games exactly, all at once: one
    stacked linear solve for the unconstrained points and, only for a stage
    whose point violates some of its rows, one LCP in the rows'
    multipliers (``denseqp._stage_lcp``): a solve with the violated rows
    held, and Lemke's method only where that guess fails.  A stage leaves once its KKT
    residual (stationarity and min(mu, -g) over the rows g <= 0) is at most
    INNER_TOL * (1 + |(y_k, z_k)|_inf); quadratic costs need one step plus that check, and a stage
    fails after INNER_MAX_ITER steps.  The rows, when ``constrained``, are
    ``lq.padded_rows``.  Declared linear-quadratic games take their affine
    operators from their kept data (``lq.game_data``); other games read
    ``eval_traj_cost_gradients`` and
    ``eval_traj_cost_hessians`` once per step.  A failure raises
    SubproblemError naming the stage; when several stages fail, the first in
    stage order.
    """
    n_x, K = game.state_dim, game.horizon + 1
    w = np.concatenate([y, z], axis=1).astype(float)
    n_v = w.shape[1]
    if constrained:  # padding rows are zero: they never bind and add nothing to the residual
        rows = lq.padded_rows(game)
        G, p, real = rows.G, rows.p, rows.real
    else:
        G, p, real = np.zeros((K, 0, n_v)), np.zeros((K, 0)), np.zeros((K, 0), dtype=bool)
    if game.linear_dynamics and game.quadratic_costs:
        data = lq.game_data(game)
        # the operator at the origin and its constant Jacobian
        c = data.c.swapaxes(0, 1)
        f0, H = _stage_operators(game, c[..., :n_x], c[..., n_x:], data.C.swapaxes(0, 1))

        def operators(P):
            return f0[P] + (H[P] @ v[P, :, None])[..., 0], H[P]
    else:
        def operators(P):
            x, u = v[:, :n_x], v[:, n_x:]
            F, J = _stage_operators(game, *game.eval_traj_cost_gradients(x, u),
                                    game.eval_traj_cost_hessians(x, u))
            return F[P], J[P]

    tol = INNER_TOL * (1.0 + np.max(np.abs(w), axis=1))
    v, mu = w.copy(), np.zeros(p.shape)
    P, first, error = np.arange(K), K, None  # the pending stages; the first failure so far

    def fail(k, exc):
        # The stages from k on cannot fail first: they leave, parked at
        # their centres, where the operators were read before.
        nonlocal first, error
        first, error = k, exc
        v[k:] = w[k:]

    for _ in range(INNER_MAX_ITER):
        F, J = operators(P)
        F, J = eta * F + (v[P] - w[P]), eta * J + np.eye(n_v)
        g = (G[P] @ v[P, :, None])[..., 0] + p[P]
        kkt = np.max(np.abs(np.concatenate([F + (mu[P, None] @ G[P])[:, 0],
                                            np.minimum(mu[P], -g)], axis=1)), axis=1)
        if not np.all(np.isfinite(kkt)):
            k = P[np.argmin(np.isfinite(kkt))]
            fail(k, SubproblemError(f"stage {k} regularized static game is not finite"))
        keep = ~(kkt <= tol[P]) & (P < first)
        P, F, J = P[keep], F[keep], J[keep]
        if not P.size:
            break
        # a 3-D right-hand side: numpy 1.x reads a 2-D one as stacked vectors, 2.x as a matrix
        rhs = np.concatenate([J @ v[P, :, None] - F[..., None], G[P].swapaxes(1, 2)], axis=2)
        try:
            sol = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:  # a zero pivot of the same LU makes det exactly 0
            i = int(np.argmax(np.linalg.det(J) == 0))
            fail(P[i], SubproblemError(
                f"stage {P[i]} regularized static game has a singular Jacobian"))
            P, sol = P[:i], np.linalg.solve(J[:i], rhs[:i])
        v[P], mu[P] = sol[..., 0], 0.0
        for i in np.flatnonzero(np.any((G[P] @ v[P, :, None])[..., 0] + p[P] > 0, axis=1)):
            k = P[i]
            Gk, dv = G[k, real[k]], sol[i, :, 1:][:, real[k]]
            try:
                mu_k = denseqp._stage_lcp(Gk @ dv, -(Gk @ v[k] + p[k, real[k]]), k)
            except SubproblemError as exc:
                fail(k, exc)
                break
            v[k] -= dv @ mu_k
            mu[k, real[k]] = mu_k
        P = P[P < first]
    else:
        if P.size:
            error = SubproblemError(f"stage {P[0]} regularized static game did not converge "
                                    f"in {INNER_MAX_ITER} Newton steps")
    if error is not None:
        raise error
    return v[:, :n_x], v[:, n_x:]


def resolvent_reg_static_games(game: GameDefinition, y: Array, z: Array,
                               eta: float) -> tuple[Array, Array]:
    """Independent regularized constrained static games, one per stage.

    Each stage solves, over (x_k, u_k), the game whose action rows are the
    players' own-gradient stationarity and whose state row is the
    coordinator (mean state gradient plus prox), subject to the stage's
    affine rows, by Josephy-Newton steps taken for all stages at once, with
    one LCP per stage whose rows bind, solved by holding the violated rows
    and by Lemke's method only where that guess fails (``_static_games``,
    INNER_TOL and INNER_MAX_ITER).  Requires affine constraints
    (UnsupportedConstraintError).  A stage game that is not monotone (the
    symmetric part of I + eta J_k not positive definite) may raise
    SubproblemError; no returned point fails the KKT check.
    """
    return _static_games(game, y, z, eta, True)


def resolvent_static_games_uncon(game: GameDefinition, y: Array, z: Array,
                                 eta: float) -> tuple[Array, Array]:
    """Independent regularized unconstrained static games, one per stage.

    The stage games of ``resolvent_reg_static_games`` with the rows dropped:
    each Newton step is one stacked linear solve over the pending stages.
    """
    return _static_games(game, y, z, eta, False)


# ---------------------------------------------------------------------------
# Dynamics projection and the intersection projection.
# ---------------------------------------------------------------------------


def project_dynamics(game: GameDefinition, y: Array, z: Array) -> tuple[Array, Array]:
    """Projection of (y, z) onto the dynamics-consistent trajectories.

    Minimizes sum_k |x_k - y_k|^2 + |u_k - z_k|^2 subject to linear dynamics
    and the pinned initial state, exactly, by one banded solve of the
    stacked KKT system at eta = 0, with the game's kept factor
    (``lq.factor(game, 0.0)``).  Raises UnsupportedConstraintError for
    nonlinear dynamics.
    """
    return lq.factor(game, 0.0).solve(y, z)


def constrained_oc_projection(game: GameDefinition, y: Array, z: Array) -> tuple[Array, Array]:
    """Projection of (y, z) onto dynamics AND stage constraints jointly.

    Solves the Euclidean projection exactly as one horizon-wide QP in band
    (``lq.project``) on the game's kept rows and dynamics (``lq.padded_rows``
    and ``lq.game_data``).
    """
    traj = lq.project(lq.padded_rows(game), lq.game_data(game), y, z, 1.0)
    return traj.states, traj.actions


# ---------------------------------------------------------------------------
# The splitting iteration.
# ---------------------------------------------------------------------------


class _Anderson:
    """Safeguarded type-II Anderson extrapolation of a fixed-point map g.

    Fed each evaluated point w with its image g(w) in step t,
    ``next_point(t, w, g)`` returns the point to evaluate next: g itself
    while t < ANDERSON_WARMUP.  With f = g - w, the rows of dF and
    dG hold the differences of f and of g between consecutive kept points,
    the last ANDERSON_MEMORY of them.  The extrapolation is g - dG' gamma
    with gamma the Tikhonov-regularized least-squares solution of dF' gamma
    ~ f (Walker and Ni, SIAM J. Numer. Anal. 2011; Fu, Zhang and Boyd, SIAM
    J. Sci. Comput. 2020).  An extrapolated point is kept only if |f|_2
    there is at most |f|_2 at the point it came from; otherwise the next
    point is that point's image, already computed, so that step is lost, and
    the differences are dropped.  The points kept thus never have a larger
    residual than the one before them when g is nonexpansive.  A degenerate
    or non-finite extrapolation, or one of norm beyond ``bound``, gives way
    to the plain image g; numpy warns of none of them.  ``reset`` forgets
    the differences, as after a change of the map.
    """

    def __init__(self, size: int, bound: float):
        self.bound = bound
        self.dF, self.dG = np.empty((2, ANDERSON_MEMORY, size))  # ring buffers
        self.reset()

    def reset(self) -> None:
        self.held = self.slot = 0  # rows filled, and the row written next
        self.kept: Optional[tuple[Array, Array, float]] = None  # g, f and |f|_2 there
        self.trial = False  # whether the point just evaluated was extrapolated

    def next_point(self, t: int, w: Array, g: Array) -> Array:
        f = (g - w).ravel()
        r = float(np.sqrt(f @ f))
        if self.trial and not r <= self.kept[2]:
            self.trial, self.held, self.slot = False, 0, 0
            return self.kept[0]
        if self.kept is not None:
            np.subtract(f, self.kept[1], out=self.dF[self.slot])
            np.subtract(g.ravel(), self.kept[0].ravel(), out=self.dG[self.slot])
            self.held = min(self.held + 1, ANDERSON_MEMORY)
            self.slot = (self.slot + 1) % ANDERSON_MEMORY
        self.kept = (g, f, r)
        if t < ANDERSON_WARMUP:
            return g
        n = self.held
        dF = self.dF[:n]
        with np.errstate(all="ignore"):
            gram = dF @ dF.T
            scale = float(gram.trace())
            if not 0.0 < scale < np.inf:
                return g
            gram.flat[::n + 1] += ANDERSON_REG * scale  # now positive definite
            gamma = np.linalg.solve(gram, dF @ f)
            trial = g.ravel() - gamma @ self.dG[:n]
            # NaN fails the comparison too
            if not np.sqrt(trial @ trial) <= self.bound:
                return g
        self.trial = True
        return trial.reshape(g.shape)


def dr_solve(game: GameDefinition, cfg: DrConfig) -> SolverReport:
    """Run the reflected-resolvent iteration; reports the rollout of its last actions.

    The averaged (shadow) iterate w stacks states and actions in one vector,
    starting at zero actions and their rollout; one step maps w to its
    averaged image g(w).  The candidate is the second resolvent's output at
    the point evaluated, which the polish and the balancing read; the
    report, the stop test and the cost records read its actions rolled out
    (``DrConfig``).  For a game that declares linear dynamics and quadratic
    costs, the active-set polish (``certificate.active_set_polish``) is
    offered the candidate after every step.  With affine rows or none it
    pins the candidate's near-active rows and corrects that set until a
    pinned solve is certified (natural residual <= ``cfg.tol``); with curved
    rows, after the steps on the 1-2-5 grid, it takes Newton steps from the
    candidate until the KKT residual is <= ``cfg.tol``, in gradient units.
    A certified point ends the run with ``tolerance``, becomes the result
    and brings its certificate to the report (``SolverReport.kkt_residual``).
    The paper rendezvous is certified after its first step, from which 6
    Newton steps reach a KKT residual of about 1.4e-9.

    The next point, ``report.iterate``'s ``next_point`` hook, is balanced
    first.  ``cfg.eta`` is the starting weight, and a change of eta as
    DrConfig says rescales the image g of the point w just evaluated about
    w's first resolvent output a: g <- a + (eta' / eta)(g - a).  At a fixed
    point (g = w) the rescaled point has first output a at eta' and is a
    fixed point of the new map.  The resolvents are rebuilt at eta', and
    the rescaled point is evaluated next with the extrapolation reset: its
    differences belong to the old map.  Without a change the next point is
    ``_Anderson``'s.  The step test keeps its units: g(w) - w is 2 alpha
    times the difference of the two outputs, in state and action units
    whatever eta is.  A regularized LQ game singular at eta'
    (StageSingularityError from ``lq.factor``) keeps eta and ends the
    balancing; one singular at the starting eta raises before the first step.
    """
    T, n_x, n_u = game.horizon, game.state_dim, game.total_action_dim
    wu = np.zeros((T + 1, n_u))
    wx = rollout(game, game.initial_state, wu).states
    w0 = np.concatenate([wx.ravel(), wu.ravel()])
    resolvents = _resolvents(game, cfg)
    eta, changes = cfg.eta, 0
    first, second = resolvents(eta)
    split = (T + 1) * n_x
    outputs = [None] * 3  # the last step's first and second outputs, and the second before
    anderson = _Anderson(w0.size, report.DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(w0))))

    def step(w, cand):
        wx, wu = w[:split].reshape(T + 1, n_x), w[split:].reshape(T + 1, n_u)
        ax, au = first(wx, wu)
        y, z = 2 * ax - wx, 2 * au - wu
        tx, tu = second(y, z)
        outputs[:] = [(ax, au), (tx, tu), outputs[1]]
        y, z = 2 * tx - y, 2 * tu - z
        w_new = (1 - cfg.alpha) * w + cfg.alpha * np.concatenate([y.ravel(), z.ravel()])
        return w_new, Trajectory(tx, tu)

    def next_point(t, w, g):
        nonlocal eta, changes, first, second
        if t % BALANCE_EVERY == 0 and changes < BALANCE_MAX_CHANGES:
            a, b, before = (np.concatenate([x.ravel(), u.ravel()]) for x, u in outputs)
            gap = float(np.max(np.abs(a - b)))
            move = float(np.max(np.abs(b - before))) / eta
            new = (eta * BALANCE_FACTOR if move > BALANCE_RATIO * gap
                   else eta / BALANCE_FACTOR if gap > BALANCE_RATIO * move else eta)
            if new != eta:
                try:
                    first, second = resolvents(new)
                except StageSingularityError:
                    changes = BALANCE_MAX_CHANGES  # keep eta and balance no more
                else:
                    changes += 1
                    anderson.reset()
                    g, eta = a + (new / eta) * (g - a), new
                    return g
        return anderson.next_point(t, w, g)

    start = Trajectory(wx, wu)  # a rollout already
    rolled = [start, start]  # the last candidate rolled out, and its rollout

    def result(cand):
        if cand is not rolled[0]:
            rolled[:] = cand, rollout(game, game.initial_state, cand.actions)
        return rolled[1]

    costs = (lambda cand: all_player_costs(game, result(cand))) if cfg.record_costs else None
    run = iterate(step, w0, start, cfg.max_iter, cfg.tol,
                  accept=lambda cand: result(cand).constraint_violation(game) <= cfg.tol,
                  record=costs, polish=active_set_polish(game, cfg.tol),
                  next_point=next_point)
    # a certified candidate is the polish's rollout
    traj = run.candidate if run.residual is not None else result(run.candidate)
    return build_report(game, traj, run, cfg.run_checks)


def _resolvents(game: GameDefinition, cfg: DrConfig):
    """The scheme's two resolvents at a given eta: a map eta -> (first, second).

    Each resolvent maps (y, z) -> (x, u).  ``constraints`` solves the
    regularized game with the game's kept banded LU at eta (``lq.factor``)
    for declared linear-quadratic games, else by Newton steps warm-started
    from the previous output; the other schemes pass eta per call to the
    static games.  What does not depend on eta is the game's kept reads, the
    ``dynamics`` scheme's eta = 0 factor among them; building asks for
    those the scheme needs, so it raises before the first iteration:
    UnsupportedConstraintError for nonlinear dynamics or, in the
    ``gradient`` scheme, non-affine stage constraints; and the map asks for
    the LU at its eta, so it raises StageSingularityError for a singular KKT
    matrix there before any step reads it.
    """
    if cfg.scheme == SCHEME_DYNAMICS:
        lq.factor(game, 0.0)  # raises for nonlinear dynamics
        project = lambda y, z: project_dynamics(game, y, z)
        return lambda eta: (
            lambda y, z: resolvent_reg_static_games(game, y, z, eta), project)
    if cfg.scheme == SCHEME_GRADIENT:
        lq.game_data(game)  # raises for nonlinear dynamics,
        lq.padded_rows(game)  # and for rows not declared affine
        project = lambda y, z: constrained_oc_projection(game, y, z)
        return lambda eta: (
            project, lambda y, z: resolvent_static_games_uncon(game, y, z, eta))
    exact = game.linear_dynamics and game.quadratic_costs
    project = lambda y, z: project_stage_constraints(game, y, z)
    warm = None

    def at(eta):
        if exact:
            lq.factor(game, eta)  # raises here for a singular game at eta

        def regularized_game(y, z):
            nonlocal warm
            x, u = resolvent_reg_game(game, y, z, eta, warm=warm)
            if not exact:  # only the Newton steps warm-start
                warm = Trajectory(x, u)
            return x, u

        return regularized_game, project

    return at
