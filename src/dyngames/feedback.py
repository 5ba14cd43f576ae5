"""Local feedback policies from a single stagewise Newton backward pass.

Around a reference trajectory the game is replaced by its linear-quadratic
approximation with the active inequality constraints pinned as equalities.
One backward sweep propagates per-player value matrices and solves an
equality-constrained quadratic stage game at every step, producing affine
gains ``du_k = K_k dx_k + s_k`` in O(T) work.  At an open-loop equilibrium
reference the offsets vanish and the policy reduces to
``u_k = ubar_k + K_k (x_k - xbar_k)``.

For affine dynamics with polyhedral constraints the same policy, computed on
a tightened copy of the problem, is an approximate feedback equilibrium of
the partially tightened problem: the suboptimality of any player against
its exact constrained best response grows only quadratically in the initial
state perturbation.  ``epsilon_nash_gap`` measures that gap with a dense
best-response solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import denseqp
from .errors import (
    DimensionError,
    InfeasibleConstraintsError,
    NonFiniteStateError,
    SubproblemError,
)
from .gradient import pseudo_gradient
# The LQ open-loop solver lives in ``lq``; these names stay importable here.
from .lq import LqGameData, extract_lq_data, solve_lq_open_loop  # noqa: F401
from .model import (
    DEFAULT_ACTIVE_TOL,
    GameDefinition,
    StageQuadraticization,
    Trajectory,
    quadraticize,
    rollout,
)
from .parametric import AffineLaw, solve_stage_kkt

Array = np.ndarray


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


def solve_eq_constrained_stage_game(F: Array, P: Array, H: Array,
                                    W: Array, S: Array, p: Array,
                                    stage: int = 0) -> AffineLaw:
    """Affine equilibrium of one equality-constrained quadratic stage game.

    Thin wrapper over the canonical parametric-game KKT solve; see
    ``parametric.solve_stage_kkt`` for the contract.
    """
    W = np.zeros((0, P.shape[1])) if W is None else np.atleast_2d(W)
    S = np.zeros((0, F.shape[0])) if S is None else np.atleast_2d(S)
    p = np.zeros(0) if p is None else np.atleast_1d(p)
    return solve_stage_kkt(F, P, H, W, S, p, stage=stage)


def stagewise_newton_backward(game: GameDefinition, traj: Trajectory,
                              quads: Optional[Sequence[StageQuadraticization]] = None,
                              active_tol: float = DEFAULT_ACTIVE_TOL,
                              use_constraints: bool = True,
                              feas_tol: float = 1e-6,
                              stage_reg: float = 0.0) -> FeedbackPolicy:
    """One O(T) backward pass of the constrained stagewise Newton recursion.

    With ``use_constraints`` off (or no constraints present) this is the
    unconstrained recursion; otherwise the rows active at the reference are
    pinned in each stage game.  Raises StageSingularityError when a stage
    KKT system is singular or active rows are rank deficient, naming the
    stage.

    ``stage_reg`` adds a Levenberg-style quadratic penalty on the action
    correction to every player's stage objective.  Games whose costs are
    bilinear in state and action (zero own-action curvature) have rank
    deficient stage games wherever several players are away from their
    bounds; the damping restores a unique conservative law there without
    moving the equilibrium fixed point, since the stage first-order terms
    are untouched.
    """
    if quads is None:
        quads = quadraticize(game, traj, active_tol=active_tol, feas_tol=feas_tol)
    T = game.horizon
    N, n_x, n_u = game.num_players, game.state_dim, game.total_action_dim
    nz = 1 + n_x + n_u
    ix, iu = slice(1, 1 + n_x), slice(1 + n_x, nz)

    lam = np.zeros((N, T + 2, 1 + n_x, 1 + n_x))
    omega = np.zeros((N, T + 2, n_x))
    gains: list[Array] = [None] * (T + 1)
    offsets: list[Array] = [None] * (T + 1)
    gammas: list[Array] = [None] * (T + 1)

    for k in range(T, -1, -1):
        q = quads[k]
        gamma_k = np.empty((N, nz, nz))
        for n in range(N):
            G = q.M[n].copy()
            if k < T:
                A, B = q.A, q.B
                ln = lam[n, k + 1]
                lxx = ln[1:, 1:]
                om = omega[n, k + 1]
                D = np.tensordot(om, q.G, axes=1)
                # First-order rows propagate through the Lagrangian costate
                # rather than the policy-substituted value gradient: this
                # keeps equilibrium references exact fixed points of the
                # recursion (the substituted gradient would pick up the
                # opponents' feedback-reaction terms, which do not vanish
                # at an open-loop equilibrium).  Gains are unaffected;
                # curvature still propagates through the closed loop.
                G[0, 0] += ln[0, 0]
                G[0, ix] += om @ A
                G[ix, 0] += A.T @ om
                G[0, iu] += om @ B
                G[iu, 0] += B.T @ om
                G[ix, ix] += A.T @ lxx @ A + D[:n_x, :n_x]
                G[ix, iu] += A.T @ lxx @ B + D[:n_x, n_x:]
                G[iu, ix] += B.T @ lxx @ A + D[n_x:, :n_x]
                G[iu, iu] += B.T @ lxx @ B + D[n_x:, n_x:]
            gamma_k[n] = 0.5 * (G + G.T)
        # every player's rows of its own action block
        own = np.vstack([gamma_k[n][iu][game.action_slice(n)] for n in range(N)])
        F, P, H = own[:, iu], own[:, ix], own[:, 0]
        Wa, Sa, pa = (q.active_rows() if use_constraints and q.num_constraints
                      else (np.zeros((0, n_x)), np.zeros((0, n_u)), np.zeros(0)))
        if stage_reg:
            F = F + stage_reg * np.eye(n_u)
        law = solve_stage_kkt(F, P, H, Wa, Sa, pa, stage=k)
        K, s = law.K, law.s
        # Congruence update of the value matrices; symmetric by construction.
        left = np.zeros((1 + n_x, nz))
        left[0, 0] = 1.0
        left[1:, ix] = np.eye(n_x)
        left[0, iu] = s
        left[1:, iu] = K.T
        for n in range(N):
            ln = left @ gamma_k[n] @ left.T
            lam[n, k] = 0.5 * (ln + ln.T)
            base = q.M[n][0, ix].copy()
            if k < T:
                base += omega[n, k + 1] @ q.A
            if Wa.shape[0]:
                # Active rows contribute their multiplier pullback to the
                # costate, as in the stagewise KKT of the pinned problem.
                base += law.lam_s @ Wa
            omega[n, k] = base
        gains[k], offsets[k], gammas[k] = K, s, gamma_k
    return FeedbackPolicy(reference=traj.copy(), gains=gains, offsets=offsets,
                          lam=lam[:, :T + 2], omega=omega, gamma=gammas,
                          action_dims=game.action_dims)


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
                     noise: Optional[Array] = None) -> FeedbackRollout:
    """Roll out the true dynamics under the affine policy, one start or a batch.

    ``x_start`` is one state (n_x,) or B states (B, n_x).  ``noise`` holds
    optional additive state disturbances, applied after each dynamics map:
    (T - start, n_x) for one start, (B, T - start, n_x) for a batch.  The B
    runs advance together, one ``eval_batch_dynamics`` and one
    ``eval_batch_constraints`` call per stage.  Constraint violations along
    the way are recorded, never fatal.  A non-finite state raises
    NonFiniteStateError naming the first stage whose dynamics produced one
    (and, for a batch, the first such run); a wrong shape raises
    DimensionError.
    """
    T, n_x = game.horizon, game.state_dim
    if not 0 <= start <= T:
        raise ValueError(f"start stage {start} outside 0..{T}")
    x_start = np.asarray(x_start, dtype=float)
    single = x_start.ndim == 1
    X0 = np.atleast_2d(x_start)
    n_runs, n_steps = X0.shape[0], T - start
    if X0.shape != (n_runs, n_x):
        raise DimensionError("start states", ("B", n_x), x_start.shape)
    if noise is not None:
        expected = (n_steps, n_x) if single else (n_runs, n_steps, n_x)
        if np.shape(noise) != expected:
            raise DimensionError("noise", expected, np.shape(noise))
        noise = np.reshape(noise, (n_runs, n_steps, n_x))
    states = np.empty((n_runs, n_steps + 1, n_x))
    actions = np.empty((n_runs, n_steps + 1, game.total_action_dim))
    violations = np.zeros((n_runs, n_steps + 1))
    states[:, 0] = X0
    ref = policy.reference
    for i, k in enumerate(range(start, T + 1)):
        X = states[:, i]
        U = ref.actions[k] + (X - ref.states[k]) @ policy.gains[k].T + policy.offsets[k]
        actions[:, i] = U
        g = game.eval_batch_constraints(k, X, U)
        if g.shape[1]:
            violations[:, i] = np.max(np.maximum(g, 0.0), axis=1)
        if k < T:
            nxt = game.eval_batch_dynamics(k, X, U)
            if noise is not None:
                nxt = nxt + noise[:, i]
            bad = ~np.all(np.isfinite(nxt), axis=1)
            if bad.any():
                raise NonFiniteStateError(k, None if single else int(np.argmax(bad)))
            states[:, i + 1] = nxt
    if single:
        return FeedbackRollout(states[0], actions[0], violations[0])
    return FeedbackRollout(states, actions, violations)


@dataclass(frozen=True)
class TightenedGameSpec:
    """Affine game data with polyhedral rows, tightening and an active split.

    Dynamics are x_{k+1} = A_k x_k + B_k u_k + b_k; player costs are the
    quadratic forms 0.5 [1, x, u]' C_n,k [1, x, u]; constraint rows
    W_k x + S_k u + p_k <= 0 are tightened by gamma_k > 0 on the rows listed
    in ``active`` (determined at the reference trajectory) and left as-is on
    the rest.
    """

    A: tuple
    B: tuple
    b: tuple
    cost_blocks: tuple            # (N, T+1) nested: symmetric (1+n_x+n_u)^2
    W: tuple
    S: tuple
    p: tuple
    gamma: tuple
    active: tuple                 # per-stage index tuples
    action_dims: tuple[int, ...]
    initial_state: Array

    @property
    def horizon(self) -> int:
        return len(self.cost_blocks[0]) - 1

    @property
    def state_dim(self) -> int:
        return int(np.asarray(self.A[0]).shape[0]) if self.A else len(self.initial_state)

    @property
    def num_players(self) -> int:
        return len(self.action_dims)

    def inactive(self, k: int) -> np.ndarray:
        m = len(self.p[k])
        return np.setdiff1d(np.arange(m), np.asarray(self.active[k], dtype=int))


def tightened_game_definition(spec: TightenedGameSpec) -> GameDefinition:
    """GameDefinition for the fully tightened problem (all rows shifted by gamma)."""
    n_x = spec.state_dim
    N = spec.num_players
    n_u = int(sum(spec.action_dims))
    nz = 1 + n_x + n_u

    def dynamics(k, x, u):
        return spec.A[k] @ x + spec.B[k] @ u + spec.b[k]

    def costs(k, x, u):
        z = np.concatenate([[1.0], x, u])
        return np.array([0.5 * z @ spec.cost_blocks[n][k] @ z for n in range(N)])

    def cost_grads(k, x, u):
        z = np.concatenate([[1.0], x, u])
        cx = np.empty((N, n_x))
        cu = np.empty((N, n_u))
        for n in range(N):
            row = spec.cost_blocks[n][k] @ z
            cx[n] = row[1:1 + n_x]
            cu[n] = row[1 + n_x:]
        return cx, cu

    def cost_hess(k, x, u):
        cxx = np.stack([spec.cost_blocks[n][k][1:1 + n_x, 1:1 + n_x] for n in range(N)])
        cxu = np.stack([spec.cost_blocks[n][k][1:1 + n_x, 1 + n_x:] for n in range(N)])
        cuu = np.stack([spec.cost_blocks[n][k][1 + n_x:, 1 + n_x:] for n in range(N)])
        return cxx, cxu, cuu

    def constraints(k, x, u):
        if len(spec.p[k]) == 0:
            return np.zeros(0)
        return (np.asarray(spec.W[k]) @ x + np.asarray(spec.S[k]) @ u
                + np.asarray(spec.p[k]) + np.asarray(spec.gamma[k]))

    def constraint_jac(k, x, u):
        return np.asarray(spec.W[k], dtype=float), np.asarray(spec.S[k], dtype=float)

    return GameDefinition(
        horizon=spec.horizon, state_dim=n_x, action_dims=spec.action_dims,
        initial_state=spec.initial_state,
        dynamics=dynamics, stage_costs=costs, constraints=constraints,
        dynamics_jacobians=lambda k, x, u: (np.asarray(spec.A[k], dtype=float),
                                            np.asarray(spec.B[k], dtype=float)),
        dynamics_hessians=lambda k, x, u: np.zeros((n_x, n_x + n_u, n_x + n_u)),
        cost_gradients=cost_grads, cost_hessians=cost_hess,
        constraint_jacobians=constraint_jac,
        linear_dynamics=True, polyhedral_constraints=True,
    )


def epsilon_nash_gap(spec: TightenedGameSpec, policy: FeedbackPolicy,
                     player: int, start: int, x_start: Array) -> float:
    """Suboptimality of the feedback policy for one player at a perturbed state.

    All players follow the policy from ``start``; the gap is the cost of that
    rollout minus the optimum of the player's constrained best-response
    problem with the opponents' affine policies substituted into dynamics,
    costs and constraint rows.  Constraints are the partially tightened
    rows: reference-active rows keep their tightening, inactive rows do not.
    Nonnegative up to solver precision.
    """
    game = tightened_game_definition(spec)
    T = spec.horizon
    n_x = spec.state_dim
    sl = slice(game.action_offsets[player], game.action_offsets[player + 1])
    d = sl.stop - sl.start
    x_start = np.asarray(x_start, dtype=float).reshape(n_x)

    # Policy rollout cost for the player (noise-free, all following policy).
    roll = feedback_rollout(game, policy, x_start, start=start)
    traj = roll.trajectory
    J_policy = 0.0
    for i, k in enumerate(range(start, T + 1)):
        z = np.concatenate([[1.0], traj.states[i], traj.actions[i]])
        J_policy += 0.5 * z @ spec.cost_blocks[player][k] @ z

    # Feasibility of the policy rollout for the partially tightened rows.
    for i, k in enumerate(range(start, T + 1)):
        g = _partially_tightened_rows(spec, k, traj.states[i], traj.actions[i])
        if g.size and np.max(g) > 1e-7:
            raise InfeasibleConstraintsError(
                f"policy rollout violates partially tightened rows at stage {k}",
                max_violation=float(np.max(g)))

    # Best response: decision variables are the player's actions from start
    # to T; states and opponents' actions are affine in them.
    n_dec = (T - start + 1) * d
    # xmap[i]: x_{start+i} = xc + Xu @ dec ; umap[i]: joint action at stage.
    Xu = np.zeros((n_x, n_dec))
    xc = x_start.copy()
    Hqp = np.zeros((n_dec, n_dec))
    fqp = np.zeros(n_dec)
    const = 0.0
    rows_G, rows_h = [], []
    for i, k in enumerate(range(start, T + 1)):
        # Joint action: opponents follow policy, player free.
        n_u = game.total_action_dim
        Uc = policy.reference.actions[k] + policy.offsets[k] \
            + policy.gains[k] @ (xc - policy.reference.states[k])
        Uu = policy.gains[k] @ Xu
        Uc = Uc.copy()
        Uu = Uu.copy()
        Uc[sl] = 0.0
        Uu[sl] = 0.0
        own = np.zeros((n_u, n_dec))
        own[sl, i * d:(i + 1) * d] = np.eye(d)
        Uu += own
        # Quadratic cost in the stacked affine variables.
        z_c = np.concatenate([[1.0], xc, Uc])
        Z_u = np.vstack([np.zeros((1, n_dec)), Xu, Uu])
        C = spec.cost_blocks[player][k]
        Hqp += Z_u.T @ C @ Z_u
        fqp += Z_u.T @ (C @ z_c)
        const += 0.5 * z_c @ C @ z_c
        # Partially tightened constraint rows at this stage.
        m = len(spec.p[k])
        if m:
            Wk = np.asarray(spec.W[k], dtype=float)
            Sk = np.asarray(spec.S[k], dtype=float)
            pk = np.asarray(spec.p[k], dtype=float).copy()
            gam = np.asarray(spec.gamma[k], dtype=float)
            act = np.asarray(spec.active[k], dtype=int)
            rhs_shift = np.zeros(m)
            rhs_shift[act] = gam[act]
            Gk = Wk @ Xu + Sk @ Uu
            hk = -(Wk @ xc + Sk @ Uc + pk + rhs_shift)
            rows_G.append(Gk)
            rows_h.append(hk)
        if k < T:
            Ak = np.asarray(spec.A[k], dtype=float)
            Bk = np.asarray(spec.B[k], dtype=float)
            xc = Ak @ xc + Bk @ Uc + np.asarray(spec.b[k], dtype=float)
            Xu = Ak @ Xu + Bk @ Uu
    Hqp = 0.5 * (Hqp + Hqp.T)
    eigmin = float(np.min(np.linalg.eigvalsh(Hqp)))
    if eigmin <= 1e-10 * (1 + abs(float(np.max(np.abs(Hqp))))):
        raise SubproblemError(
            f"best-response Hessian for player {player} is not positive definite "
            f"(min eig {eigmin:.2e}); terminal action costs may be missing")
    G = np.vstack(rows_G) if rows_G else None
    h = np.concatenate(rows_h) if rows_h else None
    dec, _ = denseqp.solve_qp(Hqp, fqp, G=G, h=h)
    J_best = 0.5 * dec @ Hqp @ dec + fqp @ dec + const
    return float(J_policy - J_best)


def _partially_tightened_rows(spec: TightenedGameSpec, k: int,
                              x: Array, u: Array) -> Array:
    m = len(spec.p[k])
    if m == 0:
        return np.zeros(0)
    g = (np.asarray(spec.W[k]) @ x + np.asarray(spec.S[k]) @ u
         + np.asarray(spec.p[k]))
    act = np.asarray(spec.active[k], dtype=int)
    g = np.asarray(g, dtype=float).copy()
    g[act] += np.asarray(spec.gamma[k], dtype=float)[act]
    return g


def solve_unconstrained_newton(game: GameDefinition, init: Trajectory,
                               tol: float = 1e-9, max_iter: int = 50) -> tuple[Trajectory, int]:
    """Equilibrium of an unconstrained dynamic game by Newton iterations.

    Each pass quadraticizes around the current trajectory, runs the backward
    recursion without constraint rows and re-rolls the dynamics under the
    resulting affine correction (``feedback_rollout``).  Terminates when the
    stacked gradient is stationary; one pass is exact for linear-quadratic
    games.  The first pass whose re-roll produces a non-finite state raises
    NonFiniteStateError.
    """
    traj = init
    scale = 1.0 + float(np.max(np.abs(init.actions), initial=0.0))
    for it in range(max_iter):
        policy = stagewise_newton_backward(game, traj, use_constraints=False,
                                           feas_tol=np.inf)
        new = feedback_rollout(game, policy, traj.states[0]).trajectory
        resid = float(np.max(np.abs(pseudo_gradient(game, new, feas_tol=np.inf).stacked),
                             initial=0.0))
        traj = new
        if resid <= tol * scale:
            return traj, it + 1
    raise SubproblemError(
        f"unconstrained Newton did not reach stationarity in {max_iter} passes "
        f"(residual {resid:.3e})")

