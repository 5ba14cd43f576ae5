"""Local feedback policies from a single stagewise Newton backward pass.

Around a reference trajectory the game is replaced by its linear-quadratic
approximation with the active inequality constraints pinned as equalities:
the real rows within ``model.ACTIVE_TOL`` of active at the reference.  A
reference off the dynamics by more than 1e-6 (relative to 1 + |x_{k+1}|)
raises InfeasibleTrajectoryError.
One backward sweep carries each player's value Hessian and costate row from
stage to stage and solves an equality-constrained quadratic stage game at
every step, producing affine gains ``du_k = K_k dx_k + s_k`` in O(T) work.
The game is read once, the stage work that does not depend on the value
Hessians is done before the sweep, and the sweep runs the recursion only:
the rank and residual checks of every stage law run in batches, and a
failure names the stage a stage-by-stage sweep would meet first.
At an open-loop equilibrium reference the offsets vanish and the policy
reduces to ``u_k = ubar_k + K_k (x_k - xbar_k)``.  The pass is the policy
pass only: open-loop Newton steps on a game are solved by the banded ``lq``
kernel instead (``splitting.resolvent_reg_game``).

For affine dynamics with polyhedral constraints the same policy, computed on
a tightened copy of the problem, is an approximate feedback equilibrium of
the partially tightened problem: the suboptimality of any player against
its exact constrained best response grows only quadratically in the initial
state perturbation.  ``epsilon_nash_gap`` measures that gap.  It checks
that the best response is strictly convex by ``gradient``'s O(T) convexity
sweep, then solves it as one QP over the stacked trajectory on ``lq``'s
banded kernel (``lq.BandedQp``), the opponents' policies held as equality
rows, in O(T) memory.

``feedback_rollout`` rolls a policy out from one start; its stage loop,
``_stages``, also advances ``benchmarks.noise_comparison``'s open-loop
replay and policy runs as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import lq, parametric
from .errors import (DimensionError, InfeasibleConstraintsError, NonFiniteStateError,
                     StageSingularityError, SubproblemError)
from .gradient import _convexity_pass
# The LQ open-loop solver lives in ``lq``; these names stay importable here.
from .lq import extract_lq_data, solve_lq_open_loop  # noqa: F401
from .model import GameDefinition, LqGameData, Trajectory, _checked, quadraticize

Array = np.ndarray

# The largest row a feasible rollout stage may show (``epsilon_nash_gap``, noise_comparison).
VIOLATION_TOL = 1e-7


@dataclass
class FeedbackPolicy:
    """Per-stage affine feedback du = K_k dx + s_k around a reference trajectory.

    ``gains`` (T+1, n_u, n_x) and ``offsets`` (T+1, n_u) are stacked over
    the stages of ``reference``, whose states and actions set T, n_x and
    n_u.  Per-stage lists are stacked at construction; any other shape
    raises DimensionError.
    """

    reference: Trajectory
    gains: Array
    offsets: Array

    def __post_init__(self):
        (T1, n_x), n_u = self.reference.states.shape, self.reference.actions.shape[1]
        self.gains = _checked("feedback gains", self.gains, (T1, n_u, n_x))
        self.offsets = _checked("feedback offsets", self.offsets, (T1, n_u))

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
        return replace(self, offsets=np.zeros_like(self.offsets))


def stagewise_newton_backward(game: GameDefinition, traj: Trajectory,
                              stage_reg: float = 0.0) -> FeedbackPolicy:
    """One O(T) backward pass of the constrained stagewise Newton recursion.

    The rows active at the reference, the real rows within
    ``model.ACTIVE_TOL`` of active, are pinned in each stage game.  A
    reference off the dynamics by more than 1e-6 (relative to
    1 + |x_{k+1}|) raises InfeasibleTrajectoryError.  The game is read
    once (``quadraticize``), and everything that does not depend on the
    next stage's value Hessians is built before the loop:
    the active rows of every stage, gathered held-first as ``lq`` gathers
    pinned rows, their part of the stage systems, and their full-row-rank
    test, one batched SVD per active-row count.  The loop runs the
    recursion only: per stage it writes the players' own rows into the
    stage system, solves it once and updates the value Hessians and
    costates.  The stage KKT residuals are tested after the loop, all
    stages in one batch.

    Raises StageSingularityError naming the stage a stage-by-stage pass
    would meet first from T down: when a stage's rows are rank deficient or
    its system is singular, the residual test runs over the stages above
    it, and the highest failing one is raised, else that stage's own error;
    after the loop, the highest stage that fails its residual test.

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
    data = quadraticize(game, traj)
    T = game.horizon
    N, n_x, n_u = game.num_players, game.state_dim, game.total_action_dim
    nz = n_x + n_u
    C, grads = data.C, data.c
    AB = np.concatenate([data.A, data.B], axis=2)
    ABt = AB.swapaxes(1, 2)
    # every player's rows of its own action block, as one fancy index
    owner, own_rows = game.owner, n_x + np.arange(n_u)
    GG = data.G.reshape(T, n_x, nz * nz)
    reg = stage_reg * np.eye(n_u)

    # The active rows, held first: stage k's m_k rows are rows :m_k of Ga.
    Ga, pa, held, _ = lq.held_first(data.active, data.rows.G, data.rows.p)
    Wa, Sa = Ga[..., :n_x], Ga[..., n_x:]
    m = held.sum(axis=1)
    size = n_u + m  # each stage system's order
    full_rank = np.ones(T + 1, dtype=bool)
    for count in np.unique(m[m > 0]):
        at = np.flatnonzero(m == count)
        full_rank[at] = parametric._full_row_rank(Sa[at, :count])
    # [F S'; S 0] and [-P -H; -W -p] of every stage; F, P and H are written in the loop
    KKT, rhs = parametric._kkt_system(np.zeros((n_u, n_u)), np.zeros((n_u, n_x)),
                                      np.zeros(n_u), Wa, Sa, pa)
    sol = np.zeros_like(rhs)  # [K s; lam_K lam_s], zero in the padding

    def check_from(k):
        """The residual test of stages k..T, the highest failing stage raised."""
        R = KKT[k:] @ sol[k:] - rhs[k:]
        scale = parametric._data_scale(KKT[k:, :n_u, :n_u], rhs[k:, :n_u, :n_x],
                                       rhs[k:, :n_u, n_x])
        parametric._check_residual(R, n_u, scale, np.arange(k, T + 1))

    # stage k+1's value Hessians P and costate rows om, for every player
    P, om = np.zeros((N, n_x, n_x)), np.zeros((N, n_x))
    L = np.vstack([np.eye(n_x), np.zeros((n_u, n_x))])  # [I; K_k]
    # a stage that fails its residual test leaves garbage below it, which
    # the tests after the loop catch; its arithmetic must not warn
    with np.errstate(all="ignore"):
        for k in range(T, -1, -1):
            Gam, grad = C[:, k], grads[:, k]
            if k < T:
                # First-order terms propagate through the Lagrangian costate
                # rather than the policy-substituted value gradient: this
                # keeps equilibrium references exact fixed points of the
                # recursion (the substituted gradient would pick up the
                # opponents' feedback-reaction terms, which do not vanish at
                # an open-loop equilibrium).  Gains are unaffected; curvature
                # still propagates through the closed loop.
                grad = grad + om @ AB[k]
                Gam = Gam + (ABt[k] @ P @ AB[k] + (om @ GG[k]).reshape(N, nz, nz))
            Gam = 0.5 * (Gam + Gam.swapaxes(1, 2))
            own = Gam[owner, own_rows]
            n = size[k]
            KKT[k, :n_u, :n_u] = own[:, n_x:] + reg
            rhs[k, :n_u, :n_x] = -own[:, :n_x]
            rhs[k, :n_u, n_x] = -grad[owner, own_rows]
            try:
                sol[k, :n] = parametric._solve_stage(KKT[k, :n, :n], rhs[k, :n],
                                                     full_rank[k], k)
            except StageSingularityError:
                check_from(k + 1)  # a failing stage above is met first
                raise
            # Congruence update of the value Hessians; symmetric by construction.
            L[n_x:] = sol[k, :n_u, :n_x]
            P = L.T @ Gam @ L
            P = 0.5 * (P + P.swapaxes(1, 2))
            om = grads[:, k, :n_x] + om @ data.A[k] if k < T else grads[:, k, :n_x]
            if m[k]:
                # Active rows contribute their multiplier pullback to the
                # costate, as in the stagewise KKT of the pinned problem.
                om = om + sol[k, n_u:n, n_x] @ Wa[k, :m[k]]
        check_from(0)
    return FeedbackPolicy(reference=traj.copy(), gains=sol[:, :n_u, :n_x].copy(),
                          offsets=sol[:, :n_u, n_x].copy())


@dataclass
class FeedbackRollout:
    """States, actions and per-stage violations max(g, 0) of ``feedback_rollout``.

    A rollout from stage ``start`` has shapes (n+1, n_x), (n+1, n_u) and
    (n+1,), n = T - start.
    """

    states: Array
    actions: Array
    constraint_violations: Array

    @property
    def trajectory(self) -> Trajectory:
        return Trajectory(self.states, self.actions)


def feedback_rollout(game: GameDefinition, policy: FeedbackPolicy,
                     x_start: Array, start: int = 0) -> FeedbackRollout:
    """Roll out the true dynamics under the affine policy from ``x_start`` at ``start``.

    Each stage is one ``eval_batch_dynamics`` and one
    ``eval_batch_constraints`` call (``_stages``).  Constraint violations
    along the way are recorded, never fatal; a non-finite state raises
    NonFiniteStateError naming the first stage whose dynamics produced one.
    A wrong shape raises DimensionError.
    """
    x_start = np.asarray(x_start, dtype=float)
    if x_start.shape != (game.state_dim,):
        raise DimensionError("start state", (game.state_dim,), x_start.shape)
    run = [(X[0], U[0], 0.0 if v is None else v[0])
           for _, X, U, v in _stages(game, policy, x_start[None], start, None, None)]
    return FeedbackRollout(*(np.array(column) for column in zip(*run)))


def _stages(game: GameDefinition, policy: FeedbackPolicy, X0: Array, start: int,
            noise: Optional[Array], open_loop: Optional[Array]):
    """The stages of B policy runs from the rows of X0, as an iterator.

    It yields (i, X, U, v) for stage k = start + i from ``start`` to T: the
    states X and actions U of every run, and the per-run largest row
    violation max(g, 0), None at a stage without rows; nothing yielded is
    reused.  ``noise``, None or (B, T - start, n_x), is added to run b's
    state after each dynamics map.  ``open_loop``, actions (T+1, n_u), adds
    B replay runs ahead of the policy's: run b < B applies ``open_loop[k]``
    at every stage k, run B + b follows the policy, and both start at X0[b]
    under noise b.  After every dynamics map one finiteness test covers all
    runs; a non-finite state raises NonFiniteStateError naming the first
    stage whose dynamics produced one and, when there are several runs, the
    first such run.  A policy or open-loop actions that do not fit raise
    DimensionError here, before the first stage.
    """
    T, n_x, n_u = game.horizon, game.state_dim, game.total_action_dim
    if policy.gains.shape != (T + 1, n_u, n_x):
        raise DimensionError("feedback gains", (T + 1, n_u, n_x), policy.gains.shape)
    if not 0 <= start <= T:
        raise ValueError(f"start stage {start} outside 0..{T}")
    n_runs = X0.shape[0]
    if open_loop is not None:
        open_loop = np.asarray(open_loop, dtype=float)
        if open_loop.shape != (T + 1, n_u):
            raise DimensionError("open-loop actions", (T + 1, n_u), open_loop.shape)
        X0 = np.concatenate([X0, X0])
    n_all = X0.shape[0]
    fb = slice(n_all - n_runs, None)  # the policy's runs
    ref = policy.reference

    def advance():
        X = X0
        for i, k in enumerate(range(start, T + 1)):
            U = np.empty((n_all, n_u))  # the hooks get a contiguous U
            if open_loop is not None:
                U[:n_runs] = open_loop[k]
            U[fb] = (ref.actions[k] + (X[fb] - ref.states[k]) @ policy.gains[k].T
                     + policy.offsets[k])
            g = game.eval_batch_constraints(k, X, U)
            # max over a contiguous leading axis: numpy is slow along a short last one
            yield i, X, U, (np.maximum(g.T.copy().max(axis=0), 0.0) if g.shape[1] else None)
            if k < T:
                X = game.eval_batch_dynamics(k, X, U)
                if noise is not None:
                    # run b's noise reaches its replay and its policy copy alike
                    X = (X.reshape(-1, n_runs, n_x) + noise[:, i]).reshape(n_all, n_x)
                if not np.isfinite(X).all():
                    run = int(np.argmin(np.isfinite(X).all(axis=1)))
                    raise NonFiniteStateError(k, run if n_all > 1 else None)

    return advance()


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
    + s^-n_k for the opponents' actions, on the game's kept rows and data
    (``lq.padded_rows`` and ``lq.lq_game_data``).  Both costs are the game's
    stage costs, read with one ``eval_traj_costs`` call per trajectory.
    Nonnegative up to solver precision.

    A policy with zero gains and offsets replays its reference open loop,
    and the gap is then the open-loop best-response gap of that reference.

    Raises ValueError for a player outside 0..N-1, SubproblemError naming
    the first stage from T down whose convexity-sweep pivot shows the best
    response is not strictly convex, and InfeasibleConstraintsError when the
    policy rollout violates a row.
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
    data = lq.lq_game_data(game)
    # one player holding every action, with this player's costs
    one = LqGameData(data.A[start:], data.B[start:], data.b[start:],
                     data.C[player:player + 1, start:], data.c[player:player + 1, start:],
                     action_dims=(n_u,), initial_state=roll.states[0])
    failed, eig = _convexity_pass(one.C[0], one.A, one.B, own, gains=policy.gains[start:])
    if failed is not None:
        raise SubproblemError(f"best response of player {player} is not strictly convex at "
                              f"stage {start + failed} (min eig {eig:.2e} of its own-action "
                              "pivot); its action costs may be missing")

    # the game's rows from ``start`` on, then the opponents' policy rows
    # u^-n_k - K^-n_k x_k - c_k = 0, held
    opp = np.delete(np.arange(n_u), own)
    ref = policy.reference
    K = policy.gains[start:, opp]
    c = (ref.actions[start:, opp] - (K @ ref.states[start:, :, None])[..., 0]
         + policy.offsets[start:, opp])
    rows = lq.padded_rows(game)
    policy_rows = (np.concatenate([-K, np.broadcast_to(np.eye(n_u)[opp], K.shape[:2] + (n_u,))],
                                  axis=2), -c, np.zeros(c.shape, dtype=bool))
    G, p, real = (np.concatenate([a[start:], b], axis=1) for a, b in
                  zip((rows.G, rows.p, rows.real), policy_rows))
    held = np.broadcast_to(np.arange(p.shape[1]) >= rows.p.shape[1], p.shape)
    best = lq.BandedQp(one, G, p, real, held).solve()
    # one ``eval_traj_costs`` call per trajectory, on the whole horizon; the
    # stages before ``start`` are filled from the reference and dropped
    J = []
    for tail in (roll, best):
        states, actions = ref.states.copy(), ref.actions.copy()
        states[start:], actions[start:] = tail.states, tail.actions
        J.append(np.sum(game.eval_traj_costs(states, actions)[start:, player]))
    return float(J[0] - J[1])
