"""Built-in benchmark games and the noise-robustness comparison harness.

Two constrained dynamic games ship with the package:

* a two-player renewable-resource harvesting game on a logistic biomass
  stock, with box-bounded fishing efforts and bilinear harvest profits
  (solvers minimize the negated profit);
* a three-player planar rendezvous game with single-integrator dynamics,
  norm-ball action limits and a coupled meeting constraint midway through
  the horizon.

The noise comparison replays a precomputed open-loop equilibrium against
the local feedback policy on noisy rollouts and reports squared deviations
from the deterministic equilibrium path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import NonFiniteStateError
from . import feedback
from .feedback import FeedbackPolicy
from .model import GameDefinition, Trajectory, all_player_costs, rollout

Array = np.ndarray


@dataclass(frozen=True)
class FisheryParams:
    """Harvesting game constants; defaults reproduce the reference setup.

    ``horizon_time`` is in time units; the stage count is horizon_time/dt.
    Biomass starts below both players' break-even stock levels so the
    equilibrium shows the initial waiting phase.
    """

    u1_max: float = 0.4
    u2_max: float = 0.3
    r: float = 8.0
    h: float = 100.0
    dt: float = 0.1
    horizon_time: float = 100.0
    q1: float = 0.1
    q2: float = 0.1
    p1: float = 1.0
    p2: float = 1.0
    e1: float = 9.0
    e2: float = 11.0
    x0: float = 50.0

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("u1_max", "u2_max", "r", "h", "dt", "horizon_time",
                     "q1", "q2", "p1", "p2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        n = self.horizon_time / self.dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError("horizon_time must be an integer number of steps")

    @property
    def n_stages(self) -> int:
        return int(round(self.horizon_time / self.dt))

    @property
    def bionomic_levels(self) -> tuple[float, float]:
        """Stock levels where each player's marginal profit vanishes."""
        return self.e1 / (self.p1 * self.q1), self.e2 / (self.p2 * self.q2)


def fishery_game(params: FisheryParams = FisheryParams()) -> GameDefinition:
    """Two-player harvesting game with logistic stock growth.

    Stock: x+ = x + (g(x) - (q1 u1 + q2 u2) x) dt with g(x) = r/h^2 (2hx - x^2),
    the Euler step of logistic growth under harvest, computed in the
    factored form x+ = x (a_k - beta x) with a_k = 1 + dt (2r/h - q1 u1 -
    q2 u2) and beta = r dt / h^2.  Player n's stage profit is
    (p_n q_n x - e_n) u_n dt; costs are the negated profits.  Efforts live
    in [0, u_n_max] with an exact clamp projector.  The per-stage
    ``dynamics``, ``batch_dynamics`` and ``traj_rollout`` share one
    expression for a_k, so the three forms are bit-identical to each other;
    they match the expanded Euler step to rounding.  ``traj_rollout``
    computes every stage's a_k at once and runs the stock recursion over
    Python floats, three float operations per stage.  The
    ``traj_constraint_rows`` hook returns the four box rows of every stage
    at once: their Jacobian is constant and their values are read from the
    efforts.  The cost and dynamics Hessians are constant, and their
    whole-trajectory hooks tile one stage's.
    """
    p = params
    T = p.n_stages
    gg = p.r / p.h**2
    beta = gg * p.dt
    r2h = 2.0 * p.r / p.h
    c1 = p.p1 * p.q1
    c2 = p.p2 * p.q2

    def factor(u1, u2):
        # a_k of the stock map x (a_k - beta x), at scalar or array efforts
        return 1.0 + (r2h - (p.q1 * u1 + p.q2 * u2)) * p.dt

    def dynamics(k, x, u):
        xs = x[0]
        return np.array([xs * (factor(u[0], u[1]) - beta * xs)])

    def dyn_jac(k, x, u):
        A, B = jacobians(x, u[None])
        return A[0], B[0]

    def dyn_hess(k, x, u):
        G = np.zeros((1, 3, 3))
        G[0, 0, 0] = -2.0 * gg * p.dt
        G[0, 0, 1] = G[0, 1, 0] = -p.q1 * p.dt
        G[0, 0, 2] = G[0, 2, 0] = -p.q2 * p.dt
        return G

    def costs(k, x, u):
        return traj_costs(x[None], u[None])[0]

    def cost_grads(k, x, u):
        CX, CU = traj_cost_gradients(x[None], u[None])
        return CX[0], CU[0]

    def cost_hess(k, x, u):
        cxu = np.zeros((2, 1, 2))
        cxu[0, 0, 0] = -c1 * p.dt
        cxu[1, 0, 1] = -c2 * p.dt
        return np.zeros((2, 1, 1)), cxu, np.zeros((2, 2, 2))

    def constraints(k, x, u):
        return np.array([-u[0], u[0] - p.u1_max, -u[1], u[1] - p.u2_max])

    def batch_dynamics(k, X, U):
        return X * (factor(U[:, :1], U[:, 1:]) - beta * X)

    def traj_rollout(x0, actions):
        # ``dynamics`` in Python floats, same operation order; x (a - beta x)
        # overflows to inf as numpy does, since a float product never raises.
        def stocks(x, a):
            for ak in a:
                x = x * (ak - beta * x)
                yield x

        a = factor(actions[:-1, 0], actions[:-1, 1]).tolist()
        return np.fromiter(stocks(float(x0[0]), a), float, T).reshape(-1, 1)

    def batch_constraints(k, X, U):
        G = np.empty((U.shape[0], 4))
        G[:, 0], G[:, 1] = -U[:, 0], U[:, 0] - p.u1_max
        G[:, 2], G[:, 3] = -U[:, 1], U[:, 1] - p.u2_max
        return G

    con_S = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    con_W = np.zeros((4, 1))

    def constraint_jac(k, x, u):
        return con_W, con_S

    con_G = np.tile(np.hstack([con_W, con_S]), (T + 1, 1, 1))

    def traj_constraint_rows(states, actions):
        return con_G.copy(), batch_constraints(None, states, actions), np.ones((T + 1, 4), bool)

    # every stage's bounds, so the clamp broadcasts nothing
    lo = np.zeros((T + 1, 2))
    hi = np.tile([p.u1_max, p.u2_max], (T + 1, 1))
    # the second derivatives are the same at every point and stage
    cxx, cxu, cuu = cost_hess(None, None, None)
    cost_H = np.block([[cxx, cxu], [cxu.swapaxes(1, 2), cuu]])
    dyn_H = dyn_hess(None, None, None)

    def traj_costs(states, actions):
        xs = states[:, 0]
        C = np.empty((xs.shape[0], 2))
        C[:, 0] = -(c1 * xs - p.e1) * actions[:, 0] * p.dt
        C[:, 1] = -(c2 * xs - p.e2) * actions[:, 1] * p.dt
        return C

    def traj_cost_gradients(states, actions):
        xs = states[:, 0]
        K = xs.shape[0]
        CX = np.zeros((K, 2, 1))
        CX[:, 0, 0] = -c1 * actions[:, 0] * p.dt
        CX[:, 1, 0] = -c2 * actions[:, 1] * p.dt
        CU = np.zeros((K, 2, 2))
        CU[:, 0, 0] = -(c1 * xs - p.e1) * p.dt
        CU[:, 1, 1] = -(c2 * xs - p.e2) * p.dt
        return CX, CU

    def jacobians(xs, u):
        # the Jacobian rows at stocks xs (K,) under actions u (K, 2)
        K = xs.shape[0]
        AA = np.empty((K, 1, 1))
        AA[:, 0, 0] = 1.0 + (gg * (2.0 * p.h - 2.0 * xs)
                             - (p.q1 * u[:, 0] + p.q2 * u[:, 1])) * p.dt
        BB = np.empty((K, 1, 2))
        BB[:, 0, 0] = -p.q1 * xs * p.dt
        BB[:, 0, 1] = -p.q2 * xs * p.dt
        return AA, BB

    return GameDefinition(
        horizon=T, state_dim=1, action_dims=(1, 1),
        initial_state=[p.x0],
        dynamics=dynamics, stage_costs=costs, constraints=constraints,
        dynamics_jacobians=dyn_jac, dynamics_hessians=dyn_hess,
        cost_gradients=cost_grads, cost_hessians=cost_hess,
        constraint_jacobians=constraint_jac,
        polyhedral_constraints=True, constraints_in_actions_only=True,
        traj_costs=traj_costs,
        traj_cost_gradients=traj_cost_gradients,
        traj_dynamics_jacobians=lambda states, actions: jacobians(states[:-1, 0], actions[:-1]),
        traj_projector=lambda states, actions: (states, np.clip(actions, lo, hi)),
        traj_rollout=traj_rollout,
        traj_constraint_rows=traj_constraint_rows,
        traj_cost_hessians=lambda states, actions: np.tile(cost_H, (len(states), 1, 1, 1)),
        traj_dynamics_hessians=lambda states, actions: np.tile(dyn_H, (len(states) - 1, 1, 1, 1)),
        batch_dynamics=batch_dynamics,
        batch_constraints=batch_constraints,
        name="fishery")


@dataclass(frozen=True)
class LqRendezvousParams:
    """Planar three-player rendezvous game constants."""

    horizon: int = 10
    x0: tuple = (1.0, 1.0, -2.0, 0.0, 4.0, 0.0)
    targets: tuple = (4.0, 12.0, -2.0, 10.0, 10.0, 10.0)
    u_max: float = 2.0
    effort_weight: float = 10.0
    terminal_weight: float = 1000.0
    meet_stage: int = 5

    def __post_init__(self):
        if len(self.x0) != 6 or len(self.targets) != 6:
            raise ValueError("state and targets must have six entries")
        values = [*self.x0, *self.targets, self.effort_weight, self.terminal_weight]
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            raise ValueError("positions, targets and weights must be finite")
        if not 0 < self.u_max < np.inf:  # rejects NaN too
            raise ValueError(f"u_max must be positive and finite, got {self.u_max}")
        if not 0 <= self.meet_stage <= self.horizon:
            raise ValueError("meeting stage outside the horizon")


def lq_rendezvous_game(params: LqRendezvousParams = LqRendezvousParams()) -> GameDefinition:
    """Three players steering their own planar positions to targets.

    Dynamics are x+ = x + u on the stacked positions.  Stage costs are
    squared distance to the player's target plus an effort penalty; the
    terminal cost is a heavily weighted distance.  Actions are limited to
    norm balls, and all positions must coincide at the meeting stage
    (handled by the analytic projector as a consensus average).  The
    whole-trajectory hooks work on the (T+1, 3, 2) player blocks of all
    stages at once: the costs, their gradients, the projector, the dynamics
    Jacobians (A_k = B_k = I), and the rows and row Hessians, every stage
    padded to the meeting stage's 11 rows.
    Each equals its per-stage callable bit for bit; the cost Hessian blocks
    are constant arrays.
    """
    p = params
    T = p.horizon
    tgt = np.asarray(p.targets, dtype=float)
    I6 = np.eye(6)
    Z = np.zeros((6, 12, 12))
    w_eff = p.effort_weight
    w_term = p.terminal_weight

    def block(v, n):
        return v[2 * n:2 * n + 2]

    def costs(k, x, u):
        out = np.empty(3)
        for n in range(3):
            dxn = block(x, n) - block(tgt, n)
            if k < T:
                out[n] = dxn @ dxn + w_eff * block(u, n) @ block(u, n)
            else:
                out[n] = w_term * (dxn @ dxn)
        return out

    def cost_grads(k, x, u):
        cx = np.zeros((3, 6))
        cu = np.zeros((3, 6))
        for n in range(3):
            dxn = block(x, n) - block(tgt, n)
            if k < T:
                cx[n, 2 * n:2 * n + 2] = 2.0 * dxn
                cu[n, 2 * n:2 * n + 2] = 2.0 * w_eff * block(u, n)
            else:
                cx[n, 2 * n:2 * n + 2] = 2.0 * w_term * dxn
        return cx, cu

    # the stage and terminal cost Hessian blocks (CXX, CXU, CUU), both constant
    stage_hess, terminal_hess = np.zeros((2, 3, 6, 6)), np.zeros((2, 3, 6, 6))
    for n in range(3):
        sl = slice(2 * n, 2 * n + 2)
        stage_hess[0, n, sl, sl] = 2.0 * np.eye(2)
        stage_hess[1, n, sl, sl] = 2.0 * w_eff * np.eye(2)
        terminal_hess[0, n, sl, sl] = 2.0 * w_term * np.eye(2)
    cross = np.zeros((3, 6, 6))

    def cost_hess(k, x, u):
        cxx, cuu = stage_hess if k < T else terminal_hess
        return cxx, cross, cuu

    # the meeting rows x_i - x_j <= 0: the four equalities, each written twice
    meet_i, meet_j = np.array([0, 2, 1, 3, 2, 4, 3, 5]), np.array([2, 0, 3, 1, 4, 2, 5, 3])
    meet_W = np.zeros((8, 6))
    meet_W[np.arange(8), meet_i], meet_W[np.arange(8), meet_j] = 1.0, -1.0
    players = np.arange(3)[:, None]
    cols = 2 * players + np.arange(2)  # player n's action columns

    def constraints(k, x, u):
        # the norms as the projector takes them
        balls = np.linalg.norm(u.reshape(3, 2), axis=1) - p.u_max
        if k != p.meet_stage:
            return balls
        return np.concatenate([balls, x[meet_i] - x[meet_j]])

    def unit_actions(u):
        # each player's action direction and norm, (K, 3, 2) and (K, 3), at
        # K stacked joint actions; a zero action has direction 0
        un = u.reshape(-1, 3, 2)
        nrm = np.hypot(un[..., 0], un[..., 1])
        return np.divide(un, nrm[..., None], out=np.zeros(un.shape), where=nrm[..., None] > 0), nrm

    def ball_hessians(u):
        # row n's Hessian block over player n's actions, (I - d d') / |u_n|, 0 at
        # the kink: u_n = 0 or a subnormal |u_n|, whose reciprocal overflows (the
        # row reads about -u_max there): (K, 3, 2, 2) at K stacked joint actions
        d, nrm = unit_actions(u)
        inv = np.divide(1.0, nrm, out=np.zeros(nrm.shape), where=nrm > np.finfo(float).tiny)
        return (np.eye(2) - d[..., :, None] * d[..., None, :]) * inv[..., None, None]

    def constraint_jac(k, x, u):
        m = 11 if k == p.meet_stage else 3
        W, S = np.zeros((m, 6)), np.zeros((m, 6))
        d, _ = unit_actions(u)
        S[players, cols] = d[0]
        W[3:] = meet_W[:m - 3]
        return W, S

    def constraint_hess(k, x, u):
        H = np.zeros((11 if k == p.meet_stage else 3, 12, 12))
        H[players[..., None], 6 + cols[..., None], 6 + cols[:, None]] = ball_hessians(u)[0]
        return H

    # the padded rows of every stage: 3 balls, and 8 meeting rows at meet_stage
    real_rows = np.zeros((T + 1, 11), dtype=bool)
    real_rows[:, :3] = real_rows[p.meet_stage] = True

    def traj_constraint_rows(states, actions):
        K = actions.shape[0]
        G, g = np.zeros((K, 11, 12)), np.zeros((K, 11))
        G[:, players, 6 + cols] = unit_actions(actions)[0]
        G[p.meet_stage, 3:, :6] = meet_W
        g[:, :3] = np.linalg.norm(actions.reshape(K, 3, 2), axis=2) - p.u_max
        g[p.meet_stage, 3:] = states[p.meet_stage, meet_i] - states[p.meet_stage, meet_j]
        return G, g, real_rows.copy()

    def traj_constraint_hessians(states, actions):
        H, blocks = np.zeros((actions.shape[0], 11, 12, 12)), ball_hessians(actions)
        for n in range(3):
            H[:, n, 6 + 2 * n:8 + 2 * n, 6 + 2 * n:8 + 2 * n] = blocks[:, n]
        return H

    tgt_blocks = tgt.reshape(3, 2)

    def traj_costs(states, actions):
        K = states.shape[0]
        dx = states.reshape(K, 3, 2) - tgt_blocks
        u = actions.reshape(K, 3, 2)
        C = np.einsum("kni,kni->kn", dx, dx)
        C[:T] += w_eff * np.einsum("kni,kni->kn", u[:T], u[:T])
        C[T:] *= w_term
        return C

    grad_weight = np.full(T + 1, 2.0)
    grad_weight[T] = 2.0 * w_term

    def traj_cost_gradients(states, actions):
        K = states.shape[0]
        dx = states.reshape(K, 3, 2) - tgt_blocks
        CX, CU = np.zeros((K, 3, 6)), np.zeros((K, 3, 6))
        CX[:, players, cols] = grad_weight[:, None, None] * dx
        CU[:T, players, cols] = 2.0 * w_eff * actions[:T].reshape(T, 3, 2)
        return CX, CU

    def traj_projector(states, actions):
        K = actions.shape[0]
        u = actions.reshape(K, 3, 2)
        nrm = np.linalg.norm(u, axis=2, keepdims=True)
        un = (u * (p.u_max / np.maximum(nrm, p.u_max))).reshape(K, 6)
        if states is None:
            return None, un
        xn = np.array(states, dtype=float, copy=True)
        meet = xn[p.meet_stage].reshape(3, 2)  # a view: writes land in xn
        meet[:] = (meet[0] + meet[1] + meet[2]) / 3.0
        return xn, un

    return GameDefinition(
        horizon=T, state_dim=6, action_dims=(2, 2, 2),
        initial_state=np.asarray(p.x0, dtype=float),
        dynamics=lambda k, x, u: x + u,
        stage_costs=costs, constraints=constraints,
        dynamics_jacobians=lambda k, x, u: (I6, I6),
        dynamics_hessians=lambda k, x, u: Z,
        cost_gradients=cost_grads, cost_hessians=cost_hess,
        constraint_jacobians=constraint_jac, constraint_hessians=constraint_hess,
        linear_dynamics=True, quadratic_costs=True,
        traj_costs=traj_costs, traj_cost_gradients=traj_cost_gradients,
        traj_dynamics_jacobians=lambda states, actions: (np.tile(I6, (T, 1, 1)),
                                                         np.tile(I6, (T, 1, 1))),
        traj_projector=traj_projector,
        traj_constraint_rows=traj_constraint_rows,
        traj_constraint_hessians=traj_constraint_hessians,
        name="lq_rendezvous")


def rendezvous_residual(traj: Trajectory,
                        params: LqRendezvousParams = LqRendezvousParams()) -> float:
    """|x1 - x2| + |x2 - x3| at the meeting stage of the game ``params`` define."""
    x = traj.states[params.meet_stage]
    return float(np.linalg.norm(x[0:2] - x[2:4]) + np.linalg.norm(x[2:4] - x[4:6]))


@dataclass
class NoiseComparison:
    """Per-run squared state deviations and violation counts for both modes."""

    openloop_deviation: Array
    feedback_deviation: Array
    openloop_violations: Array
    feedback_violations: Array

    @property
    def mean_openloop(self) -> float:
        return float(np.mean(self.openloop_deviation))

    @property
    def mean_feedback(self) -> float:
        return float(np.mean(self.feedback_deviation))


def noise_comparison(game: GameDefinition, olne: Trajectory,
                     policy: FeedbackPolicy, noise_var: float, n_runs: int,
                     seed: int, noise_scale: float = 1.0) -> NoiseComparison:
    """Open-loop replay versus feedback policy on seeded noisy rollouts.

    Run i adds i.i.d. Gaussian state disturbances with variance
    ``noise_var`` (scaled by ``noise_scale``, e.g. the discretization step),
    drawn from child i of ``SeedSequence(seed)``, after each dynamics step.
    Both modes advance as one batch of 2 ``n_runs`` runs under the same
    noise in ``feedback._stages``: the open-loop replay of the equilibrium
    actions and the feedback policy.  Reported deviations are mean squared
    state distances to the equilibrium path; violations count
    the stages whose largest row exceeds ``feedback.VIOLATION_TOL`` or is
    NaN.  Only what is reported is kept: each run's squared distance at each
    stage and its violation count, never the runs' states or actions, so the
    memory is that of the noise and the (2 ``n_runs``, T+1) distances.
    Identical seeds give identical statistics.  Raises ValueError unless
    noise_var >= 0, n_runs >= 1 and 0 <= noise_scale < inf.  When a state
    blows up, NonFiniteStateError names the first such stage over both
    modes, the run's index within its own mode and the mode ("open-loop" or
    "feedback"; the replay first when both blow up at that stage).
    """
    if not noise_var >= 0:
        raise ValueError(f"noise_var must be nonnegative, got {noise_var}")
    if n_runs < 1:
        raise ValueError(f"n_runs must be at least 1, got {n_runs}")
    if not (np.isfinite(noise_scale) and noise_scale >= 0):
        raise ValueError(f"noise_scale must be finite and nonnegative, got {noise_scale}")
    T, n_x = game.horizon, game.state_dim
    noise = np.empty((n_runs, T, n_x))
    for run, s in zip(noise, np.random.SeedSequence(seed).spawn(n_runs)):
        run[...] = np.random.default_rng(s).standard_normal((T, n_x))
    noise *= float(np.sqrt(noise_var)) * noise_scale
    starts = np.tile(olne.states[0], (n_runs, 1))
    squared = np.empty((2 * n_runs, T + 1))  # each run's squared distance at each stage
    vio = np.zeros(2 * n_runs, dtype=np.intp)
    try:
        for k, X, _, v in feedback._stages(game, policy, starts, 0, noise, olne.actions):
            squared[:, k] = np.sum((X - olne.states[k]) ** 2, axis=1)
            if v is not None:
                vio += ~(v <= feedback.VIOLATION_TOL)
    except NonFiniteStateError as exc:
        mode, run = divmod(exc.run, n_runs)
        raise NonFiniteStateError(exc.stage, run, ("open-loop", "feedback")[mode]) from None
    # one mean per stored row, not a running sum, keeps the deviations bit-identical
    # to the mean over a whole rollout's distances
    dev = np.mean(squared, axis=1)
    return NoiseComparison(openloop_deviation=dev[:n_runs], feedback_deviation=dev[n_runs:],
                           openloop_violations=vio[:n_runs], feedback_violations=vio[n_runs:])


def cumulative_profits(game: GameDefinition, traj: Trajectory) -> Array:
    """Re-negated per-player costs, i.e. profits for profit-based games."""
    return -all_player_costs(game, traj)
