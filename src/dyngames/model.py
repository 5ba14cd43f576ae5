"""Constrained dynamic game model: definitions, rollouts, costs, derivatives.

A game runs over stages k = 0..T.  Dynamics ``x_{k+1} = f_k(x_k, u_k)`` are
defined for k < T; per-player stage costs ``c_{n,k}(x_k, u_k)`` and stagewise
inequality constraints ``g_k(x_k, u_k) <= 0`` are defined for k = 0..T.  The
joint action vector at a stage concatenates the players' action blocks.  An
action block is stored for k = T as well (it can enter the terminal cost but
never the dynamics), so state and action sequences both have T+1 entries.

All evaluation helpers fall back to central finite differences when a game
does not register analytic derivatives.

Local derivative data has one layout, ``LqGameData``: a linear-quadratic
game, stacked over stages, in deviations (x - xbar, u - ubar) from a
reference trajectory.  ``local_lq`` reads it, ``quadraticize`` around a
feasible trajectory with the rows, ``lq.extract_lq_data`` at the origin.
The stage rows have one layout too, ``PaddedRows``, and one reader,
``read_rows``, which reads every stage once; ``quadraticize`` marks the
active rows with a mask of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionError,
    InfeasibleTrajectoryError,
    NonFiniteDerivativeError,
    NonFiniteStateError,
)

Array = np.ndarray

# Central-difference steps: eps^(1/3) scaling for first derivatives,
# eps^(1/4) for second derivatives.
_FD_STEP1 = float(np.finfo(float).eps) ** (1.0 / 3.0)
_FD_STEP2 = float(np.finfo(float).eps) ** 0.25

DEFAULT_ACTIVE_TOL = 1e-6


@dataclass(frozen=True)
class GameDefinition:
    """Immutable description of a constrained dynamic game.

    Callables receive the stage index first so a single function can cover
    stage-dependent maps.  Cost callables are stacked over players: they
    return one row (or block) per player.  Analytic derivative suppliers are
    optional; evaluation methods below fall back to finite differences.

    Structural flags (``linear_dynamics``, ``polyhedral_constraints``,
    ``constraints_in_actions_only``) are declarations by the game
    constructor that unlock specialized solver paths; they are never
    inferred.

    Optional whole-trajectory evaluators serve long-horizon hot loops.  Each
    takes the whole trajectory, ``states`` of shape (T+1, n_x) and
    ``actions`` of shape (T+1, n_u), and returns row k equal to what the
    matching per-stage callable returns at stage k:

    * ``traj_costs(states, actions) -> C`` with C of shape (T+1, N);
    * ``traj_cost_gradients(states, actions) -> (CX, CU)`` with shapes
      (T+1, N, n_x) and (T+1, N, n_u), like ``cost_gradients``;
    * ``traj_dynamics_jacobians(states, actions) -> (A, B)`` with shapes
      (T, n_x, n_x) and (T, n_x, n_u), one row per stage k < T (the
      terminal action never enters the dynamics), like
      ``dynamics_jacobians``;

    One more hook takes the initial state instead of the state sequence:

    * ``traj_rollout(x0, actions) -> states`` with ``actions`` the
      normalized (T+1, n_u) control array and states of shape (T, n_x):
      row k is f_k applied to row k-1, with x0 standing in for row -1, so
      there is one row per stage k < T and the terminal action never
      enters.  It must equal the per-stage ``dynamics`` recursion bit for
      bit; ``rollout`` calls it once in place of its per-stage loop.

    ``eval_traj_costs``, ``eval_traj_cost_gradients`` and
    ``eval_traj_dynamics_jacobians`` call the matching evaluator when present
    and otherwise stack the per-stage evaluators; either way the outputs are
    shape-checked once per call and a mismatch raises DimensionError.

    The analytic projector has only the whole-trajectory form:
    ``traj_projector(states, actions) -> (states, actions)`` projects every
    stage's (x_k, u_k) pair onto that stage's constraint set at once, with
    shapes (T+1, n_x) and (T+1, n_u).  ``states`` may be None for
    action-only constraint classes, and then comes back None.
    ``eval_traj_projection`` calls it and checks the shapes the same way.

    Optional batch evaluators serve rollouts of many scenarios at once.
    Each takes the stage index and B stacked points, ``X`` of shape (B, n_x)
    and ``U`` of shape (B, n_u), and returns row b equal to what the
    matching per-stage callable returns at (X[b], U[b]):

    * ``batch_dynamics(k, X, U) -> X_next`` of shape (B, n_x);
    * ``batch_constraints(k, X, U) -> G`` of shape (B, m_k).

    ``eval_batch_dynamics`` and ``eval_batch_constraints`` follow the same
    rule as the trajectory family: the hook when present, else the per-stage
    callable stacked over the B rows, then one shape check per call.
    """

    horizon: int
    state_dim: int
    action_dims: tuple[int, ...]
    initial_state: Array
    dynamics: Callable[[int, Array, Array], Array]
    stage_costs: Callable[[int, Array, Array], Array]
    constraints: Optional[Callable[[int, Array, Array], Array]] = None
    dynamics_jacobians: Optional[Callable[[int, Array, Array], tuple]] = None
    dynamics_hessians: Optional[Callable[[int, Array, Array], Array]] = None
    cost_gradients: Optional[Callable[[int, Array, Array], tuple]] = None
    cost_hessians: Optional[Callable[[int, Array, Array], tuple]] = None
    constraint_jacobians: Optional[Callable[[int, Array, Array], tuple]] = None
    linear_dynamics: bool = False
    quadratic_costs: bool = False
    polyhedral_constraints: bool = False
    constraints_in_actions_only: bool = False
    name: str = ""
    # Optional whole-trajectory evaluators; shapes in the class docstring.
    traj_costs: Optional[Callable[[Array, Array], Array]] = None
    traj_cost_gradients: Optional[Callable[[Array, Array], tuple]] = None
    traj_dynamics_jacobians: Optional[Callable[[Array, Array], tuple]] = None
    traj_projector: Optional[Callable[[Optional[Array], Array], tuple]] = None
    traj_rollout: Optional[Callable[[Array, Array], Array]] = None
    # Optional batch evaluators; shapes in the class docstring.
    batch_dynamics: Optional[Callable[[int, Array, Array], Array]] = None
    batch_constraints: Optional[Callable[[int, Array, Array], Array]] = None
    action_offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {self.horizon}")
        if len(self.action_dims) == 0 or any(d <= 0 for d in self.action_dims):
            raise ValueError(f"invalid action dims {self.action_dims}")
        x0 = np.asarray(self.initial_state, dtype=float).reshape(-1)
        if x0.shape != (self.state_dim,):
            raise DimensionError("initial state", (self.state_dim,), x0.shape)
        object.__setattr__(self, "initial_state", x0)
        offsets = np.concatenate([[0], np.cumsum(self.action_dims)])
        object.__setattr__(self, "action_offsets", tuple(int(o) for o in offsets))

    # -- dimensions ---------------------------------------------------------

    @property
    def num_players(self) -> int:
        return len(self.action_dims)

    @property
    def total_action_dim(self) -> int:
        return self.action_offsets[-1]

    def action_slice(self, n: int) -> slice:
        return slice(self.action_offsets[n], self.action_offsets[n + 1])

    # -- evaluation with finite-difference fallbacks -------------------------

    def eval_dynamics(self, k: int, x: Array, u: Array) -> Array:
        return np.asarray(self.dynamics(k, x, u), dtype=float).reshape(-1)

    def eval_costs(self, k: int, x: Array, u: Array) -> Array:
        return np.asarray(self.stage_costs(k, x, u), dtype=float).reshape(-1)

    def eval_constraints(self, k: int, x: Array, u: Array) -> Array:
        if self.constraints is None:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self.constraints(k, x, u), dtype=float))

    def eval_dynamics_jacobians(self, k: int, x: Array, u: Array) -> tuple[Array, Array]:
        """State and action Jacobians (A, B) of the stage dynamics."""
        if self.dynamics_jacobians is not None:
            A, B = self.dynamics_jacobians(k, x, u)
            return np.asarray(A, dtype=float), np.asarray(B, dtype=float)
        J = _fd_jacobian(lambda xu: self.eval_dynamics(k, xu[:self.state_dim], xu[self.state_dim:]),
                         np.concatenate([x, u]), self.state_dim, what="dynamics", stage=k)
        return J[:, :self.state_dim], J[:, self.state_dim:]

    def eval_dynamics_hessians(self, k: int, x: Array, u: Array) -> Array:
        """Second derivatives of the dynamics, one (n_x+n_u)-square matrix per output."""
        if self.dynamics_hessians is not None:
            return np.asarray(self.dynamics_hessians(k, x, u), dtype=float)
        nz = self.state_dim + self.total_action_dim
        f = lambda xu: self.eval_dynamics(k, xu[:self.state_dim], xu[self.state_dim:])
        H = _fd_hessian_vector(f, np.concatenate([x, u]), self.state_dim,
                               what="dynamics", stage=k)
        return H.reshape(self.state_dim, nz, nz)

    def eval_cost_gradients(self, k: int, x: Array, u: Array) -> tuple[Array, Array]:
        """Per-player cost gradients, stacked: (N, n_x) and (N, n_u)."""
        if self.cost_gradients is not None:
            cx, cu = self.cost_gradients(k, x, u)
            return np.asarray(cx, dtype=float), np.asarray(cu, dtype=float)
        J = _fd_jacobian(lambda xu: self.eval_costs(k, xu[:self.state_dim], xu[self.state_dim:]),
                         np.concatenate([x, u]), self.num_players, what="cost", stage=k)
        return J[:, :self.state_dim], J[:, self.state_dim:]

    def eval_cost_hessians(self, k: int, x: Array, u: Array) -> tuple[Array, Array, Array]:
        """Per-player cost Hessian blocks (CXX, CXU, CUU), stacked over players."""
        n_x = self.state_dim
        if self.cost_hessians is not None:
            cxx, cxu, cuu = self.cost_hessians(k, x, u)
            return (np.asarray(cxx, dtype=float), np.asarray(cxu, dtype=float),
                    np.asarray(cuu, dtype=float))
        f = lambda xu: self.eval_costs(k, xu[:n_x], xu[n_x:])
        H = _fd_hessian_vector(f, np.concatenate([x, u]), self.num_players,
                               what="cost", stage=k)
        return H[:, :n_x, :n_x], H[:, :n_x, n_x:], H[:, n_x:, n_x:]

    def eval_constraint_rows(self, k: int, x: Array, u: Array) -> tuple[Array, Array, Array]:
        """Constraint Jacobians (W, S) with respect to state and joint action, and values p.

        The rows are evaluated once, and their count fixes the Jacobians'
        shapes: any other shape raises DimensionError naming the stage.
        """
        p = self.eval_constraints(k, x, u)
        m, n_x, n_u = p.shape[0], self.state_dim, self.total_action_dim
        if m == 0:
            return np.zeros((0, n_x)), np.zeros((0, n_u)), p
        if self.constraint_jacobians is not None:
            W, S = self.constraint_jacobians(k, x, u)
        else:
            J = _fd_jacobian(lambda xu: self.eval_constraints(k, xu[:n_x], xu[n_x:]),
                             np.concatenate([x, u]), m, what="constraint", stage=k)
            W, S = J[:, :n_x], J[:, n_x:]
        return (_checked("constraint state Jacobian", W, (m, n_x), stage=k),
                _checked("constraint action Jacobian", S, (m, n_u), stage=k), p)

    # -- whole-trajectory evaluation ----------------------------------------

    def eval_traj_costs(self, states: Array, actions: Array) -> Array:
        """Stage costs of every player at every stage: (T+1, N)."""
        if self.traj_costs is not None:
            C = self.traj_costs(states, actions)
        else:
            C = [self.eval_costs(k, states[k], actions[k]) for k in range(self.horizon + 1)]
        return _checked("trajectory costs", C, (self.horizon + 1, self.num_players))

    def eval_traj_cost_gradients(self, states: Array, actions: Array) -> tuple[Array, Array]:
        """Stacked per-player cost gradients: (T+1, N, n_x) and (T+1, N, n_u)."""
        if self.traj_cost_gradients is not None:
            CX, CU = self.traj_cost_gradients(states, actions)
        else:
            grads = [self.eval_cost_gradients(k, states[k], actions[k])
                     for k in range(self.horizon + 1)]
            CX, CU = [g[0] for g in grads], [g[1] for g in grads]
        lead = (self.horizon + 1, self.num_players)
        return (_checked("trajectory cost state gradients", CX, lead + (self.state_dim,)),
                _checked("trajectory cost action gradients", CU,
                         lead + (self.total_action_dim,)))

    def eval_traj_dynamics_jacobians(self, states: Array, actions: Array) -> tuple[Array, Array]:
        """Stacked dynamics Jacobians of stages k < T: (T, n_x, n_x) and (T, n_x, n_u)."""
        if self.traj_dynamics_jacobians is not None:
            A, B = self.traj_dynamics_jacobians(states, actions)
        else:
            jacs = [self.eval_dynamics_jacobians(k, states[k], actions[k])
                    for k in range(self.horizon)]
            A, B = [j[0] for j in jacs], [j[1] for j in jacs]
        lead = (self.horizon, self.state_dim)
        return (_checked("trajectory dynamics state Jacobians", A, lead + (self.state_dim,)),
                _checked("trajectory dynamics action Jacobians", B,
                         lead + (self.total_action_dim,)))

    def eval_traj_projection(self, states: Optional[Array],
                             actions: Array) -> tuple[Optional[Array], Array]:
        """Stagewise projection of a whole trajectory: (T+1, n_x) and (T+1, n_u).

        ``states`` may be None; they then come back None.
        """
        if self.traj_projector is None:
            raise ValueError("game has no trajectory projector")
        X, U = self.traj_projector(states, actions)
        lead = self.horizon + 1
        U = _checked("projected actions", U, (lead, self.total_action_dim))
        if states is None:
            return None, U
        return _checked("projected states", X, (lead, self.state_dim)), U

    # -- batch evaluation ---------------------------------------------------

    def eval_batch_dynamics(self, k: int, X: Array, U: Array) -> Array:
        """Stage-k dynamics at B stacked points: (B, n_x)."""
        if self.batch_dynamics is not None:
            out = self.batch_dynamics(k, X, U)
        else:
            out = [self.eval_dynamics(k, x, u) for x, u in zip(X, U)]
        return _checked("batch dynamics", out, (X.shape[0], self.state_dim), stage=k)

    def eval_batch_constraints(self, k: int, X: Array, U: Array) -> Array:
        """Stage-k constraint rows at B stacked points: (B, m_k)."""
        if self.constraints is None:
            return np.zeros((X.shape[0], 0))
        if self.batch_constraints is not None:
            out = self.batch_constraints(k, X, U)
        else:
            out = [self.eval_constraints(k, x, u) for x, u in zip(X, U)]
        try:
            arr = np.asarray(out, dtype=float)
        except ValueError:  # per-run rows of differing lengths
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[0] != X.shape[0]:
            raise DimensionError("batch constraints", (X.shape[0], "m_k"),
                                 "ragged per-run rows" if arr is None else arr.shape,
                                 stage=k)
        return arr


def _checked(what: str, data, shape: tuple, stage: Optional[int] = None) -> Array:
    """``data`` as a float array of exactly ``shape``, else DimensionError.

    An empty stack (no stages) matches any shape with a zero extent.
    """
    try:
        arr = np.asarray(data, dtype=float)
    except ValueError:  # per-stage arrays of differing shapes
        raise DimensionError(what, shape, "ragged stacked shapes", stage=stage) from None
    if arr.shape != shape:
        if arr.size or 0 not in shape:
            raise DimensionError(what, shape, arr.shape, stage=stage)
        arr = arr.reshape(shape)
    return arr


def _fd_jacobian(f, z, n_out, what, stage):
    """Central-difference Jacobian of f: R^m -> R^{n_out} at z."""
    m = z.shape[0]
    J = np.empty((n_out, m))
    for i in range(m):
        h = _FD_STEP1 * (1.0 + abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        J[:, i] = (np.asarray(f(zp)) - np.asarray(f(zm))) / (2.0 * h)
    if not np.all(np.isfinite(J)):
        raise NonFiniteDerivativeError(what, stage)
    return J


def _fd_hessian_vector(f, z, n_out, what, stage):
    """Central second differences of a vector map; returns (n_out, m, m)."""
    m = z.shape[0]
    H = np.empty((n_out, m, m))
    steps = [_FD_STEP2 * (1.0 + abs(z[i])) for i in range(m)]
    f0 = np.asarray(f(z), dtype=float)

    def at(*shifts):  # f at z moved by the (coordinate, step) pairs
        v = z.copy()
        for i, h in shifts:
            v[i] += h
        return np.asarray(f(v))

    for i in range(m):
        hi = steps[i]
        H[:, i, i] = (at((i, hi)) - 2.0 * f0 + at((i, -hi))) / hi**2
        for j in range(i + 1, m):
            hj = steps[j]
            H[:, i, j] = H[:, j, i] = (at((i, hi), (j, hj)) - at((i, hi), (j, -hj))
                                       - at((i, -hi), (j, hj))
                                       + at((i, -hi), (j, -hj))) / (4.0 * hi * hj)
    if not np.all(np.isfinite(H)):
        raise NonFiniteDerivativeError(what, stage)
    return H


@dataclass
class Trajectory:
    """Paired state and joint-action sequences, both with T+1 entries."""

    states: Array
    actions: Array

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.actions = np.atleast_2d(np.asarray(self.actions, dtype=float))
        if self.states.shape[0] != self.actions.shape[0]:
            raise DimensionError("trajectory length",
                                 self.states.shape[0], self.actions.shape[0])

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    def dynamics_residuals(self, game: GameDefinition) -> Array:
        """Per-stage residual norms ||x_{k+1} - f_k(x_k, u_k)||."""
        return np.linalg.norm(_dynamics_offsets(game, self.states, self.actions), axis=1)

    def constraint_violation(self, game: GameDefinition) -> float:
        """Largest stage-row violation max(g_k(x_k, u_k), 0); NaN when any row is NaN."""
        if game.constraints is None:
            return 0.0
        rows = [game.eval_constraints(k, self.states[k], self.actions[k])
                for k in range(self.horizon + 1)]
        return float(np.max(np.maximum(np.concatenate(rows), 0.0), initial=0.0))

    def dynamically_feasible(self, game: GameDefinition, tol: float = 1e-8) -> bool:
        res = self.dynamics_residuals(game)
        return bool(res.size == 0 or np.max(res) <= tol)

    def copy(self) -> "Trajectory":
        return Trajectory(self.states.copy(), self.actions.copy())


def rollout(game: GameDefinition, x0: Array, controls: Array) -> Trajectory:
    """Integrate the dynamics from x0 under the given joint-action sequence.

    ``controls`` may have T or T+1 rows; a zero row is appended in the former
    case so the returned trajectory always carries a terminal action block.
    A game's ``traj_rollout`` hook, when present, produces all T states in
    one call; its output is shape-checked once (DimensionError), and an
    exception raised inside it propagates as is.  Without the hook the
    dynamics run stage by stage.  Either way NonFiniteStateError names the
    first stage whose produced state is not finite.
    """
    T = game.horizon
    n_u = game.total_action_dim
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (game.state_dim,):
        raise DimensionError("initial state", (game.state_dim,), x0.shape)
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if controls.shape == (T, n_u):
        controls = np.vstack([controls, np.zeros(n_u)])
    if controls.shape != (T + 1, n_u):
        raise DimensionError("controls", (T + 1, n_u), controls.shape)
    states = np.empty((T + 1, game.state_dim))
    states[0] = x0
    if game.traj_rollout is not None:
        states[1:] = _checked("rolled-out states", game.traj_rollout(x0, controls),
                              (T, game.state_dim))
    else:
        # Finiteness is checked once for the whole rollout.  Stages after a
        # non-finite state still run; an error they raise is reported as the
        # non-finite state that caused it.
        try:
            for k in range(T):
                xk1 = game.eval_dynamics(k, states[k], controls[k])
                if xk1.shape != (game.state_dim,):
                    raise DimensionError("dynamics output", (game.state_dim,), xk1.shape,
                                         stage=k)
                states[k + 1] = xk1
        except Exception:
            _raise_first_non_finite(states[1:k + 1])
            raise
    _raise_first_non_finite(states[1:])
    return Trajectory(states, controls.copy())


def _raise_first_non_finite(produced: Array) -> None:
    """NonFiniteStateError naming the first stage whose output row is not finite."""
    finite = np.isfinite(produced)
    if not finite.all():
        raise NonFiniteStateError(int(np.argmin(finite.all(axis=1))))


def total_cost(game: GameDefinition, traj: Trajectory, player: int, start: int = 0) -> float:
    """Cost-to-go of one player: sum of its stage costs from ``start`` to T."""
    if not 0 <= player < game.num_players:
        raise ValueError(f"player {player} outside 0..{game.num_players - 1}")
    return float(all_player_costs(game, traj, start)[player])


def all_player_costs(game: GameDefinition, traj: Trajectory, start: int = 0) -> Array:
    """Costs-to-go of every player at once: stage costs summed from ``start`` to T."""
    T = game.horizon
    if not 0 <= start <= T:
        raise ValueError(f"start stage {start} outside 0..{T}")
    return game.eval_traj_costs(traj.states, traj.actions)[start:].sum(axis=0)


def check_feasible(game: GameDefinition, traj: Trajectory, tol: float = 1e-8) -> None:
    """Raise InfeasibleTrajectoryError if the dynamics residual exceeds tol.

    ``tol = inf`` skips the check; a NaN or negative ``tol`` raises ValueError.
    """
    _check_tol("feas_tol", tol)
    if tol < np.inf:
        _raise_if_infeasible(traj.dynamics_residuals(game), traj.states, tol)


def _check_tol(name: str, tol: float) -> None:
    if not tol >= 0:  # rejects NaN too
        raise ValueError(f"{name} must be nonnegative, got {tol}")


def _raise_if_infeasible(res: Array, states: Array, tol: float) -> None:
    """InfeasibleTrajectoryError for the first stage whose residual exceeds tol."""
    bad = np.flatnonzero(res > tol * (1.0 + np.linalg.norm(states[1:], axis=1)))
    if bad.size:
        raise InfeasibleTrajectoryError(int(bad[0]), float(res[bad[0]]), tol)


def _dynamics_offsets(game: GameDefinition, states: Array, actions: Array) -> Array:
    """f_k(x_k, u_k) - x_{k+1} for every stage k < T: (T, n_x)."""
    T = game.horizon
    pred = [game.eval_dynamics(k, states[k], actions[k]) for k in range(T)]
    return _checked("dynamics outputs", pred, (T, game.state_dim)) - states[1:]


@dataclass(frozen=True)
class PaddedRows:
    """Every stage's rows W_k x_k + S_k u_k + p_k <= 0, padded to a common count m.

    W (T+1, m, n_x), S (T+1, m, n_u) and p (T+1, m) are zero in the padding;
    ``real`` (T+1, m) marks the rows that exist.
    """

    W: Array
    S: Array
    p: Array
    real: Array

    def values(self, traj: Trajectory) -> Array:
        """Every row's value at the trajectory's states and actions: (T+1, m)."""
        both = self.W @ traj.states[..., None] + self.S @ traj.actions[..., None]
        return both[..., 0] + self.p

    def stage(self, k: int) -> tuple[Array, Array]:
        """Stage k's rows as (G, p), G = [W_k S_k] over (x_k, u_k): G v + p <= 0."""
        real = self.real[k]
        return np.hstack([self.W[k][real], self.S[k][real]]), self.p[k][real]


def read_rows(game: GameDefinition, states: Array, actions: Array) -> PaddedRows:
    """The one reader of the rows: every stage's, one ``eval_constraint_rows`` each.

    The rows are W_k dx + S_k du + p_k <= 0 in deviations from (states,
    actions), p_k their values there; affine rows read at the origin are the
    rows themselves.  A game without constraints has none (m = 0).
    """
    T1 = game.horizon + 1
    read = [game.eval_constraint_rows(k, states[k], actions[k]) for k in range(T1)]
    m = max((p.size for _, _, p in read), default=0)
    W, S = np.zeros((T1, m, game.state_dim)), np.zeros((T1, m, game.total_action_dim))
    p, real = np.zeros((T1, m)), np.zeros((T1, m), dtype=bool)
    for k, (Wk, Sk, pk) in enumerate(read):
        W[k, :pk.size], S[k, :pk.size], p[k, :pk.size], real[k, :pk.size] = Wk, Sk, pk, True
    return PaddedRows(W, S, p, real)


@dataclass
class LqGameData:
    """A linear-quadratic game, or a game's local LQ approximation, stacked.

    In deviations dx = x - xbar, du = u - ubar from a reference (xbar, ubar),
    dx+ = A_k dx + B_k du + b_k with b_k = f_k(xbar_k, ubar_k) - xbar_{k+1},
    from dx_0 = ``initial_state`` = x0 - xbar_0.  A, B and b have shapes
    (T, n_x, ...).  Player n's stage cost is c + q'dx + r'du + 0.5 dx'Q dx
    + dx'X du + 0.5 du'R du, with c, q, r, Q, X and R of shapes (N, T+1, ...)
    indexed ``Q[n, k]``; Q and R are symmetric.  ``G`` (T, n_x, n_x+n_u,
    n_x+n_u) holds the symmetrized second derivatives of each dynamics
    output over (x, u).  ``rows`` holds every stage's rows W dx + S du + p
    <= 0 and ``active`` (T+1, m) marks the active ones, the real rows with p
    >= -active_tol; both are None when no rows were read.
    """

    A: Array
    B: Array
    b: Array
    Q: Array
    X: Array
    R: Array
    q: Array
    r: Array
    action_dims: tuple[int, ...]
    initial_state: Array
    c: Optional[Array] = None
    G: Optional[Array] = None
    rows: Optional[PaddedRows] = None
    active: Optional[Array] = None


def linearize_dynamics(game: GameDefinition, states: Array, actions: Array,
                       feas_tol: float = np.inf) -> tuple[Array, Array, Array]:
    """(A, B, b) of ``LqGameData`` around (states, actions).

    A residual |b_k| above ``feas_tol`` (relative to 1 + |xbar_{k+1}|) raises
    InfeasibleTrajectoryError before the Jacobians are read.
    """
    b = _dynamics_offsets(game, states, actions)
    _raise_if_infeasible(np.linalg.norm(b, axis=1), states, feas_tol)
    return (*game.eval_traj_dynamics_jacobians(states, actions), b)


def local_lq(game: GameDefinition, states: Array, actions: Array,
             active_tol: Optional[float] = None, feas_tol: float = np.inf) -> LqGameData:
    """The ``LqGameData`` of a game around (states, actions).

    Costs, gradients and Jacobians come from the whole-trajectory evaluators;
    only the cost and dynamics Hessians are read stage by stage.  G is zero,
    and not evaluated, for declared linear dynamics; the rows are read
    (``read_rows``) only when ``active_tol`` is given.
    """
    T, n_z = game.horizon, game.state_dim + game.total_action_dim
    A, B, b = linearize_dynamics(game, states, actions, feas_tol)
    CX, CU = game.eval_traj_cost_gradients(states, actions)
    hess = [game.eval_cost_hessians(k, states[k], actions[k]) for k in range(T + 1)]
    # every cost block as (N, T+1, ...): players first, then stages
    cxx, cxu, cuu = (np.array([h[i] for h in hess]).swapaxes(0, 1) for i in range(3))
    G = np.zeros((T, game.state_dim, n_z, n_z))
    if not game.linear_dynamics:
        G = _checked("dynamics Hessians", [game.eval_dynamics_hessians(k, states[k], actions[k])
                                           for k in range(T)], G.shape)
        G = 0.5 * (G + G.swapaxes(2, 3))
    data = LqGameData(A=A, B=B, b=b, Q=0.5 * (cxx + cxx.swapaxes(2, 3)), X=cxu,
                      R=0.5 * (cuu + cuu.swapaxes(2, 3)),
                      q=CX.swapaxes(0, 1), r=CU.swapaxes(0, 1),
                      action_dims=game.action_dims, initial_state=game.initial_state - states[0],
                      c=game.eval_traj_costs(states, actions).T, G=G)
    if active_tol is not None:
        data.rows = read_rows(game, states, actions)
        data.active = data.rows.real & (data.rows.p >= -active_tol)
    return data


def quadraticize(game: GameDefinition, traj: Trajectory,
                 active_tol: float = DEFAULT_ACTIVE_TOL,
                 feas_tol: float = 1e-6) -> LqGameData:
    """The local LQ approximation around a feasible trajectory, with its rows.

    The stacked ``LqGameData`` in deviations from the trajectory: q and r
    are its cost gradients, b its dynamics residuals, ``initial_state`` is
    x0 - xbar_0, and every stage's rows are read with the active mask
    ``real & (g >= -active_tol)``.  Raises InfeasibleTrajectoryError for a
    residual above ``feas_tol`` (``inf`` skips the check), and ValueError
    for a NaN or negative ``active_tol`` or ``feas_tol``.
    """
    _check_tol("active_tol", active_tol)
    _check_tol("feas_tol", feas_tol)
    return local_lq(game, traj.states, traj.actions, active_tol, feas_tol)
