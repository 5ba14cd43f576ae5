"""Local feedback policies from a single stagewise Newton backward pass.

Around a reference trajectory the game is replaced by its linear-quadratic
approximation with the active inequality constraints pinned as equalities.
One backward sweep propagates per-player value matrices and solves an
equality-constrained quadratic stage game at every step, producing affine
gains ``du_k = K_k dx_k + s_k`` in O(T) work.  At an open-loop equilibrium
reference the offsets vanish and the policy reduces to
``u_k = ubar_k + K_k (x_k - xbar_k)``.  The pass is the policy pass only:
open-loop Newton steps on a game are solved by the banded ``lq`` kernel
instead (``splitting.resolvent_reg_game``).

For affine dynamics with polyhedral constraints the same policy, computed on
a tightened copy of the problem, is an approximate feedback equilibrium of
the partially tightened problem: the suboptimality of any player against
its exact constrained best response grows only quadratically in the initial
state perturbation.  ``epsilon_nash_gap`` measures that gap.  It solves the
best response as one QP over the stacked trajectory on ``lq``'s banded
kernel (``lq.BandedQp``), the opponents' policies held as equality rows,
in O(T) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import lq
from .errors import (
    DimensionError,
    InfeasibleConstraintsError,
    NonFiniteStateError,
    SubproblemError,
)
# The LQ open-loop solver lives in ``lq``; these names stay importable here.
from .lq import extract_lq_data, solve_lq_open_loop  # noqa: F401
from .model import (
    DEFAULT_ACTIVE_TOL,
    GameDefinition,
    LqGameData,
    Trajectory,
    quadraticize,
    rollout,
)
from .parametric import solve_stage_kkt

Array = np.ndarray

# The largest row a feasible rollout stage may show (``epsilon_nash_gap``, noise_comparison).
VIOLATION_TOL = 1e-7


@dataclass
class FeedbackPolicy:
    """Per-stage affine feedback around a reference trajectory.

    ``gains[k]`` and ``offsets[k]`` define du = K dx + s at stage k.  The
    per-player value matrices ``lam[n, k]`` are the (1+n_x)-square blocks of
    the local quadratic value functions; ``omega[n, k]`` are the costate
    rows; ``gamma[k]`` holds the players' stage expansion matrices.
    """

    reference: Trajectory
    gains: list[Array]
    offsets: list[Array]
    lam: Array
    omega: Array
    gamma: list[Array]
    action_dims: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.gains) - 1

    def action(self, k: int, x: Array) -> Array:
        dx = x - self.reference.states[k]
        return self.reference.actions[k] + self.gains[k] @ dx + self.offsets[k]

    def equilibrium_form(self) -> "FeedbackPolicy":
        """Copy with zeroed offsets: u = ubar + K (x - xbar).

        At an exact equilibrium reference the offsets vanish anyway; when the
        reference carries a small solver residual this form avoids replaying
        that residual as a deterministic drift.
        """
        return replace(self, offsets=[np.zeros_like(s) for s in self.offsets])


def stagewise_newton_backward(game: GameDefinition, traj: Trajectory,
                              active_tol: float = DEFAULT_ACTIVE_TOL,
                              feas_tol: float = 1e-6,
                              stage_reg: float = 0.0) -> FeedbackPolicy:
    """One O(T) backward pass of the constrained stagewise Newton recursion.

    The rows active at the reference are pinned in each stage game.  Raises
    StageSingularityError when a stage KKT system is singular or active rows
    are rank deficient, naming the stage.

    ``stage_reg`` adds a Levenberg-style quadratic penalty on the action
    correction to every player's stage objective.  Games whose costs are
    bilinear in state and action (zero own-action curvature) have rank
    deficient stage games wherever several players are away from their
    bounds; the damping restores a unique conservative law there without
    moving the equilibrium fixed point, since the stage first-order terms
    are untouched.  It must be finite and nonnegative (ValueError).
    """
    if not 0.0 <= stage_reg < np.inf:  # rejects NaN too
        raise ValueError(f"stage_reg must be finite and nonnegative, got {stage_reg}")
    data = quadraticize(game, traj, active_tol=active_tol, feas_tol=feas_tol)
    T = game.horizon
    N, n_x, n_u = game.num_players, game.state_dim, game.total_action_dim
    nz = 1 + n_x + n_u
    ix, iu = slice(1, 1 + n_x), slice(1 + n_x, nz)
    M = _stage_blocks(data)
    AB = np.concatenate([data.A, data.B], axis=2)
    left = np.zeros((1 + n_x, nz))
    left[0, 0] = 1.0
    left[1:, ix] = np.eye(n_x)
    # every player's rows of its own action block, as one fancy index
    owner = np.repeat(np.arange(N), game.action_dims)
    own_rows = 1 + n_x + np.arange(n_u)
    reg = stage_reg * np.eye(n_u)
    GG = data.G.reshape(T, n_x, (n_x + n_u) ** 2)
    rows = data.rows

    lam = np.zeros((N, T + 2, 1 + n_x, 1 + n_x))
    omega = np.zeros((N, T + 2, n_x))
    gains: list[Array] = [None] * (T + 1)
    offsets: list[Array] = [None] * (T + 1)
    gammas: list[Array] = [None] * (T + 1)

    for k in range(T, -1, -1):
        G = M[:, k].copy()
        if k < T:
            ln, om = lam[:, k + 1], omega[:, k + 1]
            # First-order rows propagate through the Lagrangian costate
            # rather than the policy-substituted value gradient: this keeps
            # equilibrium references exact fixed points of the recursion
            # (the substituted gradient would pick up the opponents'
            # feedback-reaction terms, which do not vanish at an open-loop
            # equilibrium).  Gains are unaffected; curvature still
            # propagates through the closed loop.
            pull = om @ AB[k]
            G[:, 0, 0] += ln[:, 0, 0]
            G[:, 0, 1:] += pull
            G[:, 1:, 0] += pull
            G[:, 1:, 1:] += (AB[k].T @ ln[:, 1:, 1:] @ AB[k]
                             + (om @ GG[k]).reshape(N, n_x + n_u, n_x + n_u))
        gamma_k = 0.5 * (G + G.swapaxes(1, 2))
        own = gamma_k[owner, own_rows]
        F, P, H = own[:, iu], own[:, ix], own[:, 0]
        act = data.active[k]
        Wa, Sa, pa = rows.W[k, act], rows.S[k, act], rows.p[k, act]
        if stage_reg:
            F = F + reg
        law = solve_stage_kkt(F, P, H, Wa, Sa, pa, stage=k)
        K, s = law.K, law.s
        # Congruence update of the value matrices; symmetric by construction.
        left[0, iu] = s
        left[1:, iu] = K.T
        ln = left @ gamma_k @ left.T
        lam[:, k] = 0.5 * (ln + ln.swapaxes(1, 2))
        omega[:, k] = data.q[:, k]
        if k < T:
            omega[:, k] += omega[:, k + 1] @ data.A[k]
        if Wa.shape[0]:
            # Active rows contribute their multiplier pullback to the
            # costate, as in the stagewise KKT of the pinned problem.
            omega[:, k] += law.lam_s @ Wa
        gains[k], offsets[k], gammas[k] = K, s, gamma_k
    return FeedbackPolicy(reference=traj.copy(), gains=gains, offsets=offsets,
                          lam=lam, omega=omega, gamma=gammas,
                          action_dims=game.action_dims)


def _stage_blocks(data: LqGameData) -> Array:
    """Every player's (1+n_x+n_u)-square stage expansion matrix M: (N, T+1, ...).

    ``0.5 * [1, dx, du]' M [1, dx, du]`` is the local Taylor expansion of the
    stage cost, so the scalar block holds twice the stage cost.
    """
    c, q, r = 2.0 * data.c[..., None, None], data.q[..., None, :], data.r[..., None, :]
    return np.block([[c, q, r],
                     [q.swapaxes(2, 3), data.Q, data.X],
                     [r.swapaxes(2, 3), data.X.swapaxes(2, 3), data.R]])


@dataclass
class FeedbackRollout:
    """States, actions and per-stage violations max(g, 0) of policy rollouts.

    One rollout from stage ``start`` has shapes (n+1, n_x), (n+1, n_u) and
    (n+1,), n = T - start; a batch of B rollouts adds a leading run axis.
    """

    states: Array
    actions: Array
    constraint_violations: Array

    @property
    def trajectory(self) -> Trajectory:
        """The rollout as a Trajectory; a batch has none."""
        if self.states.ndim != 2:
            raise ValueError("a batch of rollouts has no single trajectory")
        return Trajectory(self.states, self.actions)


def feedback_rollout(game: GameDefinition, policy: FeedbackPolicy,
                     x_start: Array, start: int = 0,
                     noise: Optional[Array] = None,
                     open_loop: Optional[Array] = None) -> FeedbackRollout:
    """Roll out the true dynamics under the affine policy, one start or a batch.

    ``x_start`` is one state (n_x,) or B states (B, n_x).  ``noise`` holds
    optional additive state disturbances, applied after each dynamics map:
    (T - start, n_x) for one start, (B, T - start, n_x) for a batch.  The B
    runs advance together, one ``eval_batch_dynamics`` and one
    ``eval_batch_constraints`` call per stage.

    ``open_loop``, actions (T+1, n_u), adds B replay runs ahead of the
    policy's: run b < B applies ``open_loop[k]`` exactly at every stage k,
    run B + b follows the policy, and both start at ``x_start[b]`` under
    noise b.  The result is then a batch of 2B runs, replay first.

    Constraint violations along the way are recorded, never fatal.  After
    every dynamics map one finiteness test covers the whole batch; a
    non-finite state raises NonFiniteStateError naming the first stage whose
    dynamics produced one (and, for a batch, the first such run in batch
    order).  A wrong shape raises DimensionError.
    """
    T, n_x, n_u = game.horizon, game.state_dim, game.total_action_dim
    if not 0 <= start <= T:
        raise ValueError(f"start stage {start} outside 0..{T}")
    x_start = np.asarray(x_start, dtype=float)
    X0 = np.atleast_2d(x_start)
    n_runs, n_steps = X0.shape[0], T - start
    if X0.shape != (n_runs, n_x):
        raise DimensionError("start states", ("B", n_x), x_start.shape)
    if noise is not None:
        expected = (n_steps, n_x) if x_start.ndim == 1 else (n_runs, n_steps, n_x)
        if np.shape(noise) != expected:
            raise DimensionError("noise", expected, np.shape(noise))
        noise = np.reshape(noise, (n_runs, n_steps, n_x))
    single = x_start.ndim == 1 and open_loop is None
    if open_loop is not None:
        open_loop = np.asarray(open_loop, dtype=float)
        if open_loop.shape != (T + 1, n_u):
            raise DimensionError("open-loop actions", (T + 1, n_u), open_loop.shape)
        X0 = np.concatenate([X0, X0])
        if noise is not None:
            noise = np.concatenate([noise, noise])
    n_all = X0.shape[0]
    fb = slice(n_all - n_runs, None)  # the policy's runs
    states = np.empty((n_all, n_steps + 1, n_x))
    actions = np.empty((n_all, n_steps + 1, n_u))
    violations = np.zeros((n_all, n_steps + 1))
    states[:, 0] = X0
    ref = policy.reference
    for i, k in enumerate(range(start, T + 1)):
        X, U = states[:, i], np.empty((n_all, n_u))  # the hooks get a contiguous U
        if open_loop is not None:
            U[:n_runs] = open_loop[k]
        U[fb] = ref.actions[k] + (X[fb] - ref.states[k]) @ policy.gains[k].T + policy.offsets[k]
        actions[:, i] = U
        g = game.eval_batch_constraints(k, X, U)
        if g.shape[1]:
            # max over a contiguous leading axis: numpy is slow along a short last one
            violations[:, i] = np.maximum(g.T.copy().max(axis=0), 0.0)
        if k < T:
            nxt = game.eval_batch_dynamics(k, X, U)
            if noise is not None:
                nxt = nxt + noise[:, i]
            if not np.isfinite(nxt).all():
                run = int(np.argmin(np.isfinite(nxt).all(axis=1)))
                raise NonFiniteStateError(k, None if single else run)
            states[:, i + 1] = nxt
    if single:
        return FeedbackRollout(states[0], actions[0], violations[0])
    return FeedbackRollout(states, actions, violations)


def epsilon_nash_gap(game: GameDefinition, policy: FeedbackPolicy,
                     player: int, start: int, x_start: Array) -> float:
    """Suboptimality of the feedback policy for one player at a perturbed state.

    ``game`` is a declared linear-quadratic game whose affine rows the best
    response must meet (for the tightened-policy certificate, the partially
    tightened rows: reference-active rows keep their tightening, inactive
    rows do not).  All players follow the policy from stage ``start`` at
    ``x_start``; the gap is the player's cost along that rollout minus the
    optimum of its constrained best response, in which every opponent
    follows its affine policy.  The best response is one ``lq.BandedQp``
    over (x_k, u_k), k = start..T, from ``x_start``: the game's rows from
    ``start`` on and, held, u^-n_k - K^-n_k x_k = ubar^-n_k - K^-n_k xbar_k
    + s^-n_k for the opponents' actions.  Both costs are the game's stage
    costs, read with one ``eval_traj_costs`` call per trajectory.
    Nonnegative up to solver precision.

    A policy with zero gains and offsets replays its reference open loop,
    and the gap is then the open-loop best-response gap of that reference.

    Raises ValueError for a player outside 0..N-1, SubproblemError naming
    the stage when the best response is not strictly convex, and
    InfeasibleConstraintsError when the policy rollout violates a row.
    """
    N = game.num_players
    if not 0 <= player < N:
        raise ValueError(f"player {player} outside 0..{N - 1}")
    n_x, n_u = game.state_dim, game.total_action_dim
    own = game.action_slice(player)
    roll = feedback_rollout(game, policy, np.asarray(x_start, dtype=float).reshape(n_x),
                            start=start)
    worst = int(np.argmax(roll.constraint_violations))
    if roll.constraint_violations[worst] > VIOLATION_TOL:
        raise InfeasibleConstraintsError(
            f"policy rollout violates the game's rows at stage {start + worst}",
            max_violation=float(roll.constraint_violations[worst]))
    data = extract_lq_data(game)
    blocks = _stage_blocks(data)[player, start:, 1:, 1:]
    _check_best_response_convex(blocks, data.A, data.B, policy.gains, own, player, start)

    # the game's rows from ``start`` on, then the opponents' policy rows
    # u^-n_k - K^-n_k x_k - c_k = 0, held
    opp = np.delete(np.arange(n_u), own)
    ref = policy.reference
    K = np.stack(policy.gains[start:])[:, opp]
    c = (ref.actions[start:, opp] - (K @ ref.states[start:, :, None])[..., 0]
         + np.stack(policy.offsets[start:])[:, opp])
    rows = lq.padded_rows(game)
    policy_rows = (-K, np.broadcast_to(np.eye(n_u)[opp], K.shape[:2] + (n_u,)), -c,
                   np.zeros(c.shape, dtype=bool))
    W, S, p, real = (np.concatenate([a[start:], b], axis=1) for a, b in
                     zip((rows.W, rows.S, rows.p, rows.real), policy_rows))
    held = np.broadcast_to(np.arange(p.shape[1]) >= rows.p.shape[1], p.shape)
    # one player holding every action, with this player's costs
    costs = (getattr(data, name)[player:player + 1, start:]
             for name in ("Q", "X", "R", "q", "r"))
    one = LqGameData(data.A[start:], data.B[start:], data.b[start:], *costs,
                     action_dims=(n_u,), initial_state=roll.states[0])
    best = lq.BandedQp(one, W, S, p, real, held).solve()
    # one ``eval_traj_costs`` call per trajectory, on the whole horizon; the
    # stages before ``start`` are filled from the reference and dropped
    J = []
    for tail in (roll, best):
        states, actions = ref.states.copy(), ref.actions.copy()
        states[start:], actions[start:] = tail.states, tail.actions
        J.append(np.sum(game.eval_traj_costs(states, actions)[start:, player]))
    return float(J[0] - J[1])


def _check_best_response_convex(blocks: Array, A: Array, B: Array, gains: list[Array],
                                own: slice, player: int, start: int) -> None:
    """Raise SubproblemError unless the player's closed-loop best response is strictly convex.

    ``blocks[i]`` is the player's (x, u) cost Hessian C at stage start + i.
    A backward Riccati pass over the player's own actions w_k, with the
    opponents' gains substituted: u_k = L_x x_k + L_w w_k + const and
    x_{k+1} = Acl_k x_k + Bw_k w_k + const.  The condensed Hessian of the
    best response is positive definite exactly when every stage block
    Q_ww = L_w' C L_w + Bw' P Bw is.
    """
    T, n_x = len(A), gains[0].shape[1]
    iw = slice(n_x + own.start, n_x + own.stop)
    P = np.zeros((n_x, n_x))
    for k in range(T, start - 1, -1):
        C = blocks[k - start]
        K = gains[k].copy()
        K[own] = 0.0
        L_x = np.vstack([np.eye(n_x), K])
        Qww, Qwx, Qxx = C[iw, iw], C[iw] @ L_x, L_x.T @ C @ L_x
        if k < T:
            Acl, Bw = A[k] + B[k] @ K, B[k][:, own]
            Qww = Qww + Bw.T @ P @ Bw
            Qwx = Qwx + Bw.T @ P @ Acl
            Qxx = Qxx + Acl.T @ P @ Acl
        Qww = 0.5 * (Qww + Qww.T)
        eigmin = float(np.linalg.eigvalsh(Qww)[0])
        if eigmin <= 1e-12 * (1.0 + float(np.max(np.abs(Qww)))):
            raise SubproblemError(
                f"best response of player {player} is not strictly convex at stage {k} "
                f"(min eig {eigmin:.2e} of its own-action block); "
                f"its action costs may be missing")
        P = Qxx - Qwx.T @ np.linalg.solve(Qww, Qwx)
        P = 0.5 * (P + P.T)
