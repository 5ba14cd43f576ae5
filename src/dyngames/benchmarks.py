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
from typing import Optional

import numpy as np

from .errors import NonFiniteStateError
from . import feedback
from .feedback import FeedbackPolicy, feedback_rollout
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

    Stock: x+ = x + (g(x) - (q1 u1 + q2 u2) x) dt with g(x) = r/h^2 (2hx - x^2).
    Player n's stage profit is (p_n q_n x - e_n) u_n dt; costs are the
    negated profits.  Efforts live in [0, u_n_max] with an exact clamp
    projector.  The ``traj_rollout`` hook computes every stage's harvest
    rate q1 u1 + q2 u2 at once and runs the stock recursion as one loop
    over Python floats, bit-identical to the per-stage dynamics.
    """
    p = params
    T = p.n_stages
    gg = p.r / p.h**2
    c1 = p.p1 * p.q1
    c2 = p.p2 * p.q2

    def growth(x):
        return gg * (2.0 * p.h * x - x * x)

    def dynamics(k, x, u):
        xs = x[0]
        return np.array([xs + (growth(xs) - (p.q1 * u[0] + p.q2 * u[1]) * xs) * p.dt])

    def dyn_jac(k, x, u):
        xs = x[0]
        A = np.array([[1.0 + (gg * (2.0 * p.h - 2.0 * xs)
                              - (p.q1 * u[0] + p.q2 * u[1])) * p.dt]])
        B = np.array([[-p.q1 * xs * p.dt, -p.q2 * xs * p.dt]])
        return A, B

    def dyn_hess(k, x, u):
        G = np.zeros((1, 3, 3))
        G[0, 0, 0] = -2.0 * gg * p.dt
        G[0, 0, 1] = G[0, 1, 0] = -p.q1 * p.dt
        G[0, 0, 2] = G[0, 2, 0] = -p.q2 * p.dt
        return G

    def costs(k, x, u):
        xs = x[0]
        return np.array([-(c1 * xs - p.e1) * u[0] * p.dt,
                         -(c2 * xs - p.e2) * u[1] * p.dt])

    def cost_grads(k, x, u):
        xs = x[0]
        cx = np.array([[-c1 * u[0] * p.dt], [-c2 * u[1] * p.dt]])
        cu = np.array([[-(c1 * xs - p.e1) * p.dt, 0.0],
                       [0.0, -(c2 * xs - p.e2) * p.dt]])
        return cx, cu

    def cost_hess(k, x, u):
        cxu = np.zeros((2, 1, 2))
        cxu[0, 0, 0] = -c1 * p.dt
        cxu[1, 0, 1] = -c2 * p.dt
        return np.zeros((2, 1, 1)), cxu, np.zeros((2, 2, 2))

    def constraints(k, x, u):
        return np.array([-u[0], u[0] - p.u1_max, -u[1], u[1] - p.u2_max])

    def batch_dynamics(k, X, U):
        return X + (growth(X) - (p.q1 * U[:, :1] + p.q2 * U[:, 1:]) * X) * p.dt

    def traj_rollout(x0, actions):
        # ``dynamics`` in Python floats, same operation order; ``x * x``
        # overflows to inf like numpy where ``x ** 2`` would raise.
        rates = (p.q1 * actions[:-1, 0] + p.q2 * actions[:-1, 1]).tolist()
        h2, dt = 2.0 * p.h, p.dt
        x = float(x0[0])
        out = []
        for c in rates:
            x = x + (gg * (h2 * x - x * x) - c * x) * dt
            out.append(x)
        return np.array(out).reshape(-1, 1)

    def batch_constraints(k, X, U):
        G = np.empty((U.shape[0], 4))
        G[:, 0], G[:, 1] = -U[:, 0], U[:, 0] - p.u1_max
        G[:, 2], G[:, 3] = -U[:, 1], U[:, 1] - p.u2_max
        return G

    con_S = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    con_W = np.zeros((4, 1))

    def constraint_jac(k, x, u):
        return con_W, con_S

    lo = np.array([0.0, 0.0])
    hi = np.array([p.u1_max, p.u2_max])

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

    def traj_dynamics_jacobians(states, actions):
        xs = states[:-1, 0]
        u = actions[:-1]
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
        traj_dynamics_jacobians=traj_dynamics_jacobians,
        traj_projector=lambda states, actions: (states, np.clip(actions, lo, hi)),
        traj_rollout=traj_rollout,
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
    whole-trajectory cost and projector hooks work on the (T+1, 3, 2) player
    blocks of all stages at once.
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

    def cost_hess(k, x, u):
        cxx = np.zeros((3, 6, 6))
        cuu = np.zeros((3, 6, 6))
        for n in range(3):
            sl = slice(2 * n, 2 * n + 2)
            if k < T:
                cxx[n, sl, sl] = 2.0 * np.eye(2)
                cuu[n, sl, sl] = 2.0 * w_eff * np.eye(2)
            else:
                cxx[n, sl, sl] = 2.0 * w_term * np.eye(2)
        return cxx, np.zeros((3, 6, 6)), cuu

    def constraints(k, x, u):
        rows = [np.linalg.norm(block(u, n)) - p.u_max for n in range(3)]
        if k == p.meet_stage:
            rows.extend([x[0] - x[2], x[2] - x[0], x[1] - x[3], x[3] - x[1],
                         x[2] - x[4], x[4] - x[2], x[3] - x[5], x[5] - x[3]])
        return np.array(rows)

    tgt_blocks = tgt.reshape(3, 2)

    def traj_costs(states, actions):
        K = states.shape[0]
        dx = states.reshape(K, 3, 2) - tgt_blocks
        u = actions.reshape(K, 3, 2)
        C = np.einsum("kni,kni->kn", dx, dx)
        C[:T] += w_eff * np.einsum("kni,kni->kn", u[:T], u[:T])
        C[T:] *= w_term
        return C

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
        linear_dynamics=True, quadratic_costs=True,
        traj_costs=traj_costs, traj_projector=traj_projector,
        name="lq_rendezvous")


def rendezvous_residual(traj: Trajectory, meet_stage: int = 5) -> float:
    """|x1 - x2| + |x2 - x3| at the meeting stage."""
    x = traj.states[meet_stage]
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
    Both modes roll out as one ``feedback_rollout`` batch of 2 ``n_runs``
    runs under the same noise: the open-loop replay of the equilibrium
    actions and the feedback policy.  Reported deviations are mean squared
    state distances to the equilibrium path; violations count the stages
    whose largest row exceeds ``feedback.VIOLATION_TOL`` or is NaN.  Identical
    seeds give identical statistics.  Raises ValueError unless noise_var >= 0,
    n_runs >= 1 and 0 <= noise_scale < inf.  When a
    state blows up, NonFiniteStateError names the first such stage over both
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
    std = float(np.sqrt(noise_var)) * noise_scale
    noise = std * np.stack([np.random.default_rng(s).standard_normal((T, n_x))
                            for s in np.random.SeedSequence(seed).spawn(n_runs)])
    starts = np.tile(olne.states[0], (n_runs, 1))
    try:
        runs = feedback_rollout(game, policy, starts, noise=noise, open_loop=olne.actions)
    except NonFiniteStateError as exc:
        mode, run = divmod(exc.run, n_runs)
        raise NonFiniteStateError(exc.stage, run, ("open-loop", "feedback")[mode]) from None
    dev = np.mean(np.sum((runs.states - olne.states) ** 2, axis=2), axis=1)
    vio = np.count_nonzero(~(runs.constraint_violations <= feedback.VIOLATION_TOL), axis=1)
    return NoiseComparison(openloop_deviation=dev[:n_runs], feedback_deviation=dev[n_runs:],
                           openloop_violations=vio[:n_runs], feedback_violations=vio[n_runs:])


def cumulative_profits(game: GameDefinition, traj: Trajectory) -> Array:
    """Re-negated per-player costs, i.e. profits for profit-based games."""
    return -all_player_costs(game, traj)
