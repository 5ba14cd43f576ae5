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
Every second-order reader takes it from these: the stagewise Newton pass,
the DR resolvents, and ``gradient``'s curvature test and operator constants.
Each player's stage cost model is one gradient and one symmetric Hessian
over z = (x, u), the layout every reader uses; no reader needs the stage
costs themselves.  The stage rows have one layout too, ``PaddedRows``, and
one reader, ``read_rows``, which reads every stage once, all in one call
where the game has ``traj_constraint_rows``; ``quadraticize`` marks the
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

# A real row with g >= -ACTIVE_TOL at a reference is active there (``quadraticize``).
ACTIVE_TOL = 1e-6


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

    ``action_dims`` sets two index fields: ``action_offsets``, where each
    player's block starts (``action_slice``), and ``owner``, each joint
    action column's player.

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
    * ``traj_cost_hessians(states, actions) -> H`` with H of shape (T+1, N,
      n_x+n_u, n_x+n_u), each player's ``cost_hessians`` blocks joined
      into one Hessian over (x, u), [[CXX, CXU], [CXU', CUU]];
    * ``traj_dynamics_hessians(states, actions) -> G`` with G of shape (T,
      n_x, n_x+n_u, n_x+n_u), one row per stage k < T, like
      ``dynamics_hessians``;

    Two more return every stage's rows padded to a common count m, in the
    layout of ``PaddedRows`` (zero in the padding):

    * ``traj_constraint_rows(states, actions) -> (G, p, real)`` with G of
      shape (T+1, m, n_x+n_u), row i of G[k] and p[k] equal to row i of
      ``eval_constraint_rows`` at stage k ([W_k S_k] and the values), and
      ``real`` (T+1, m) bool marking the m_k rows that stage k has;
    * ``traj_constraint_hessians(states, actions) -> H`` of shape (T+1, m,
      n_x+n_u, n_x+n_u), H[k, :m_k] equal to ``eval_constraint_hessians``
      at stage k, with the same m as the rows.

    One more hook takes the initial state instead of the state sequence:

    * ``traj_rollout(x0, actions) -> states`` with ``actions`` the
      normalized (T+1, n_u) control array and states of shape (T, n_x):
      row k is f_k applied to row k-1, with x0 standing in for row -1, so
      there is one row per stage k < T and the terminal action never
      enters.  It must equal the per-stage ``dynamics`` recursion bit for
      bit; ``rollout`` calls it once in place of its per-stage loop.

    ``eval_traj_costs``, ``eval_traj_cost_gradients``,
    ``eval_traj_dynamics_jacobians``, ``eval_traj_cost_hessians`` and
    ``eval_traj_dynamics_hessians`` call the matching evaluator when present
    and otherwise stack the per-stage evaluators; either way the outputs are
    shape-checked once per call and a mismatch raises DimensionError, which
    names the first misfit stage of a per-stage stack.  Without its hook
    ``eval_traj_cost_hessians`` joins the three blocks of the per-stage
    ``eval_cost_hessians``, the one place the blocks are joined.  The rows'
    hooks are read by ``read_rows`` and ``eval_traj_constraint_hessians``,
    which follow the same rule and pad a per-stage stack to the common count.
    ``Trajectory.constraint_violation`` reads its row values through
    ``read_rows`` when ``traj_constraint_rows`` is present, and stage by
    stage through ``eval_constraints`` otherwise.

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
    constraint_hessians: Optional[Callable[[int, Array, Array], Array]] = None
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
    traj_constraint_rows: Optional[Callable[[Array, Array], tuple]] = None
    traj_constraint_hessians: Optional[Callable[[Array, Array], Array]] = None
    traj_cost_hessians: Optional[Callable[[Array, Array], Array]] = None
    traj_dynamics_hessians: Optional[Callable[[Array, Array], Array]] = None
    # Optional batch evaluators; shapes in the class docstring.
    batch_dynamics: Optional[Callable[[int, Array, Array], Array]] = None
    batch_constraints: Optional[Callable[[int, Array, Array], Array]] = None
    action_offsets: tuple[int, ...] = field(init=False)
    owner: Array = field(init=False)

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
        object.__setattr__(self, "owner", np.repeat(np.arange(self.num_players), self.action_dims))

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
        """Stage k's row values g_k(x, u), 1-D; any other shape raises DimensionError."""
        if self.constraints is None:
            return np.zeros(0)
        g = np.atleast_1d(np.asarray(self.constraints(k, x, u), dtype=float))
        if g.ndim != 1:
            raise DimensionError("constraint rows", ("m_k",), g.shape, stage=k)
        return g

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

    def eval_constraint_hessians(self, k: int, x: Array, u: Array) -> Array:
        """Second derivatives of stage k's rows, one (n_x+n_u)-square matrix per row."""
        nz = self.state_dim + self.total_action_dim
        if self.constraint_hessians is not None:
            H = np.asarray(self.constraint_hessians(k, x, u), dtype=float)
            return _checked("constraint Hessians", H, (len(H) if H.ndim else 0, nz, nz),
                            stage=k)
        f = lambda xu: self.eval_constraints(k, xu[:self.state_dim], xu[self.state_dim:])
        m = self.eval_constraints(k, x, u).shape[0]
        return _fd_hessian_vector(f, np.concatenate([x, u]), m, what="constraint", stage=k)

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
            return _checked("trajectory costs", self.traj_costs(states, actions),
                            (self.horizon + 1, self.num_players))
        return _checked_stages("trajectory costs", [self.eval_costs(k, states[k], actions[k])
                                                    for k in range(self.horizon + 1)],
                               (self.num_players,))

    def eval_traj_cost_gradients(self, states: Array, actions: Array) -> tuple[Array, Array]:
        """Stacked per-player cost gradients: (T+1, N, n_x) and (T+1, N, n_u)."""
        shapes = {"trajectory cost state gradients": (self.num_players, self.state_dim),
                  "trajectory cost action gradients": (self.num_players, self.total_action_dim)}
        if self.traj_cost_gradients is not None:
            CX, CU = self.traj_cost_gradients(states, actions)
            return tuple(_checked(what, arr, (self.horizon + 1,) + shape)
                         for (what, shape), arr in zip(shapes.items(), (CX, CU)))
        read = [self.eval_cost_gradients(k, states[k], actions[k])
                for k in range(self.horizon + 1)]
        return tuple(_checked_stages(what, [r[i] for r in read], shape)
                     for i, (what, shape) in enumerate(shapes.items()))

    def eval_traj_cost_hessians(self, states: Array, actions: Array) -> Array:
        """Stacked cost Hessians over (x, u), [[CXX, CXU], [CXU', CUU]]: (T+1, N, n_z, n_z)."""
        N, n_x, n_u = self.num_players, self.state_dim, self.total_action_dim
        if self.traj_cost_hessians is not None:
            return _checked("trajectory cost Hessians", self.traj_cost_hessians(states, actions),
                            (self.horizon + 1, N, n_x + n_u, n_x + n_u))
        shapes = {"cost state Hessians": (N, n_x, n_x), "cost cross Hessians": (N, n_x, n_u),
                  "cost action Hessians": (N, n_u, n_u)}
        read = [self.eval_cost_hessians(k, states[k], actions[k])
                for k in range(self.horizon + 1)]
        cxx, cxu, cuu = (_checked_stages(what, blocks, shape)
                         for (what, shape), blocks in zip(shapes.items(), zip(*read)))
        return np.block([[cxx, cxu], [cxu.swapaxes(2, 3), cuu]])

    def eval_traj_dynamics_jacobians(self, states: Array, actions: Array) -> tuple[Array, Array]:
        """Stacked dynamics Jacobians of stages k < T: (T, n_x, n_x) and (T, n_x, n_u)."""
        shapes = {"trajectory dynamics state Jacobians": (self.state_dim, self.state_dim),
                  "trajectory dynamics action Jacobians": (self.state_dim, self.total_action_dim)}
        if self.traj_dynamics_jacobians is not None:
            A, B = self.traj_dynamics_jacobians(states, actions)
            return tuple(_checked(what, arr, (self.horizon,) + shape)
                         for (what, shape), arr in zip(shapes.items(), (A, B)))
        read = [self.eval_dynamics_jacobians(k, states[k], actions[k])
                for k in range(self.horizon)]
        return tuple(_checked_stages(what, [r[i] for r in read], shape)
                     for i, (what, shape) in enumerate(shapes.items()))

    def eval_traj_dynamics_hessians(self, states: Array, actions: Array) -> Array:
        """Stacked dynamics Hessians of stages k < T: (T, n_x, n_z, n_z), n_z = n_x + n_u."""
        n_z = self.state_dim + self.total_action_dim
        shape = (self.state_dim, n_z, n_z)
        if self.traj_dynamics_hessians is not None:
            return _checked("trajectory dynamics Hessians",
                            self.traj_dynamics_hessians(states, actions), (self.horizon,) + shape)
        return _checked_stages("dynamics Hessians",
                               [self.eval_dynamics_hessians(k, states[k], actions[k])
                                for k in range(self.horizon)], shape)

    def eval_traj_constraint_hessians(self, states: Array, actions: Array, m: int) -> Array:
        """Every stage's row Hessians padded to m rows: (T+1, m, n_z, n_z), n_z = n_x + n_u.

        m is the rows' common count (``read_rows``); the padding is zero.
        """
        n_z, lead = self.state_dim + self.total_action_dim, (self.horizon + 1, m)
        if self.traj_constraint_hessians is not None:
            return _checked("trajectory constraint Hessians",
                            self.traj_constraint_hessians(states, actions), lead + (n_z, n_z))
        H = np.zeros(lead + (n_z, n_z))
        for k in range(self.horizon + 1):
            Hk = self.eval_constraint_hessians(k, states[k], actions[k])
            if len(Hk) > m:
                raise DimensionError("constraint Hessians", (m, n_z, n_z), Hk.shape, stage=k)
            H[k, :len(Hk)] = Hk
        return H

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


def _checked_stages(what: str, blocks: list, shape: tuple) -> Array:
    """Per-stage ``blocks`` of ``shape`` as one stack; a misfit names its first stage."""
    try:
        return _checked(what, blocks, (len(blocks),) + shape)
    except DimensionError:
        for k, block in enumerate(blocks):
            _checked(what, block, shape, stage=k)
        raise


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
        """Largest stage-row violation max(g_k(x_k, u_k), 0); NaN when any row is NaN.

        A game with ``traj_constraint_rows`` has every row value read in one
        ``read_rows`` call (its output shape-checked once); a game without
        it is read stage by stage through ``eval_constraints``, which names
        a misfit stage.
        """
        _check_fits(game, self.states, self.actions)
        if game.traj_constraint_rows is not None:
            rows = read_rows(game, self.states, self.actions)
            values = rows.p[rows.real]
        elif game.constraints is None:
            return 0.0
        else:
            values = np.concatenate([game.eval_constraints(k, self.states[k], self.actions[k])
                                     for k in range(self.horizon + 1)])
        return float(np.max(np.maximum(values, 0.0), initial=0.0))

    def dynamically_feasible(self, game: GameDefinition, tol: float = 1e-8) -> bool:
        """Whether ``check_feasible`` passes."""
        try:
            check_feasible(game, self, tol)
        except InfeasibleTrajectoryError:
            return False
        return True

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
    _check_fits(game, traj.states, traj.actions)
    return game.eval_traj_costs(traj.states, traj.actions)[start:].sum(axis=0)


def check_feasible(game: GameDefinition, traj: Trajectory, tol: float = 1e-8) -> None:
    """Raise InfeasibleTrajectoryError for the first stage off the dynamics.

    Stage k passes when |x_{k+1} - f_k(x_k, u_k)| <= tol (1 + |x_{k+1}|), which
    NaN fails.  ``tol = inf`` skips the check; a NaN or negative ``tol``
    raises ValueError, and a trajectory that does not fit the game
    DimensionError.
    """
    _check_tol(tol)
    _check_fits(game, traj.states, traj.actions)
    if tol < np.inf:
        _raise_if_infeasible(traj.dynamics_residuals(game), traj.states, tol)


def _check_fits(game: GameDefinition, states: Array, actions: Array) -> None:
    """DimensionError unless states are (T+1, n_x) and actions (T+1, n_u)."""
    for what, arr, dim in (("states", states, game.state_dim),
                           ("actions", actions, game.total_action_dim)):
        if np.shape(arr) != (game.horizon + 1, dim):
            raise DimensionError(f"trajectory {what}", (game.horizon + 1, dim), np.shape(arr))


def _check_tol(tol: float) -> None:
    if not tol >= 0:  # rejects NaN too
        raise ValueError(f"feas_tol must be nonnegative, got {tol}")


def _raise_if_infeasible(res: Array, states: Array, tol: float) -> None:
    """InfeasibleTrajectoryError for the first stage failing ``check_feasible``'s test."""
    # written so that a NaN residual or state fails
    bad = np.flatnonzero(~(res <= tol * (1.0 + np.linalg.norm(states[1:], axis=1))))
    if bad.size and tol < np.inf:
        raise InfeasibleTrajectoryError(int(bad[0]), float(res[bad[0]]), tol)


def _dynamics_offsets(game: GameDefinition, states: Array, actions: Array) -> Array:
    """f_k(x_k, u_k) - x_{k+1} for every stage k < T: (T, n_x)."""
    pred = [game.eval_dynamics(k, states[k], actions[k]) for k in range(game.horizon)]
    return _checked_stages("dynamics outputs", pred, (game.state_dim,)) - states[1:]


@dataclass(frozen=True)
class PaddedRows:
    """Every stage's rows W_k x_k + S_k u_k + p_k <= 0, padded to a common count m.

    G (T+1, m, n_x+n_u) holds [W_k S_k] over z_k = (x_k, u_k), ``W`` and
    ``S`` are views of its state and action columns, and p (T+1, m) holds
    the offsets; all are zero in the padding.  ``real`` (T+1, m) marks the
    rows that exist.
    """

    G: Array
    p: Array
    real: Array
    state_dim: int

    W = property(lambda self: self.G[..., :self.state_dim])
    S = property(lambda self: self.G[..., self.state_dim:])

    def values(self, traj: Trajectory) -> Array:
        """Every row's value at the trajectory's states and actions: (T+1, m)."""
        both = self.W @ traj.states[..., None] + self.S @ traj.actions[..., None]
        return both[..., 0] + self.p


def read_rows(game: GameDefinition, states: Array, actions: Array) -> PaddedRows:
    """The one reader of the rows: the game's ``traj_constraint_rows``, else every stage's.

    The rows are W_k dx + S_k du + p_k <= 0 in deviations from (states,
    actions), p_k their values there; affine rows read at the origin are the
    rows themselves.  A game without constraints has none (m = 0).  The
    whole-trajectory hook is called once and its output shape-checked once
    (DimensionError); without it each stage is read by
    ``eval_constraint_rows``, which names a misfit stage.
    """
    T1, n_x, n_z = game.horizon + 1, game.state_dim, game.state_dim + game.total_action_dim
    if game.traj_constraint_rows is not None:
        G, p, real = game.traj_constraint_rows(states, actions)
        m = np.shape(p)[1] if np.ndim(p) == 2 else "m"
        p = _checked("trajectory constraint values", p, (T1, m))
        real = np.asarray(real, dtype=bool)
        if real.shape != p.shape:
            raise DimensionError("trajectory real-row mask", p.shape, real.shape)
        return PaddedRows(_checked("trajectory constraint Jacobians", G, p.shape + (n_z,)),
                          p, real, n_x)
    read = [game.eval_constraint_rows(k, states[k], actions[k]) for k in range(T1)]
    sizes = np.array([p.size for _, _, p in read], dtype=int)
    real = np.arange(sizes.max()) < sizes[:, None]
    G, p = np.zeros(real.shape + (n_z,)), np.zeros(real.shape)
    for k, (Wk, Sk, pk) in enumerate(read):
        G[k, :pk.size, :n_x], G[k, :pk.size, n_x:], p[k, :pk.size] = Wk, Sk, pk
    return PaddedRows(G, p, real, n_x)


@dataclass
class LqGameData:
    """A linear-quadratic game, or a game's local LQ approximation, stacked.

    In deviations dx = x - xbar, du = u - ubar from a reference (xbar, ubar),
    dx+ = A_k dx + B_k du + b_k with b_k = f_k(xbar_k, ubar_k) - xbar_{k+1},
    from dx_0 = ``initial_state`` = x0 - xbar_0.  A, B and b have shapes
    (T, n_x, ...).  Player n's stage cost is, up to a constant, c'dz + 0.5
    dz'C dz over dz = (dx, du), with ``c`` (N, T+1, n_x+n_u) and the
    symmetric ``C`` (N, T+1, n_x+n_u, n_x+n_u) indexed ``C[n, k]``.  One
    read at the origin serves every reader of a game; the kept read is
    read-only (``lq.game_data``), and a reader of another read copies C
    before writing into it.  ``G`` (T, n_x, n_x+n_u, n_x+n_u) holds the
    symmetrized second derivatives of each dynamics output over (x, u).  ``rows`` holds
    every stage's rows W dx + S du + p <= 0 and ``active`` (T+1, m) marks the
    active ones, the real rows with p >= -ACTIVE_TOL; both are None when no
    rows were read (``quadraticize`` reads them, ``local_lq`` does not).
    """

    A: Array
    B: Array
    b: Array
    C: Array
    c: Array
    action_dims: tuple[int, ...]
    initial_state: Array
    G: Optional[Array] = None
    rows: Optional[PaddedRows] = None
    active: Optional[Array] = None


def linearize_dynamics(game: GameDefinition, states: Array,
                       actions: Array) -> tuple[Array, Array, Array]:
    """(A, B, b) of ``LqGameData`` around (states, actions), whatever the offsets b."""
    b = _dynamics_offsets(game, states, actions)
    return (*game.eval_traj_dynamics_jacobians(states, actions), b)


def local_lq(game: GameDefinition, states: Array, actions: Array) -> LqGameData:
    """The ``LqGameData`` of a game around (states, actions), without its rows.

    Cost gradients and Hessians, dynamics Jacobians and Hessians all come
    from the whole-trajectory evaluators, and the stage costs are not read.
    G is zero, and not evaluated, for declared linear dynamics.  The rows
    and the feasibility test are ``quadraticize``'s.
    """
    _check_fits(game, states, actions)
    T, n_z = game.horizon, game.state_dim + game.total_action_dim
    A, B, b = linearize_dynamics(game, states, actions)
    # the cost model as (N, T+1, ...): players first, then stages
    c = np.concatenate(game.eval_traj_cost_gradients(states, actions), axis=2).swapaxes(0, 1)
    C = game.eval_traj_cost_hessians(states, actions).swapaxes(0, 1)
    G = np.zeros((T, game.state_dim, n_z, n_z))
    if not game.linear_dynamics:
        G = game.eval_traj_dynamics_hessians(states, actions)
        G = 0.5 * (G + G.swapaxes(2, 3))
    return LqGameData(A=A, B=B, b=b, C=0.5 * (C + C.swapaxes(2, 3)), c=c,
                      action_dims=game.action_dims, initial_state=game.initial_state - states[0],
                      G=G)


def quadraticize(game: GameDefinition, traj: Trajectory,
                 feas_tol: float = 1e-6) -> LqGameData:
    """The local LQ approximation around a feasible trajectory, with its rows.

    The stacked ``LqGameData`` in deviations from the trajectory: c holds
    its cost gradients, b its dynamics residuals, ``initial_state`` is
    x0 - xbar_0 (``local_lq``); the rows are read here, with the active mask
    ``real & (g >= -ACTIVE_TOL)``.  Raises InfeasibleTrajectoryError for a
    residual above ``feas_tol`` (``check_feasible``'s test on b; ``inf``
    skips it), and ValueError for a NaN or negative ``feas_tol``.
    """
    _check_tol(feas_tol)
    data = local_lq(game, traj.states, traj.actions)
    _raise_if_infeasible(np.linalg.norm(data.b, axis=1), traj.states, feas_tol)
    data.rows = read_rows(game, traj.states, traj.actions)
    data.active = data.rows.real & (data.rows.p >= -ACTIVE_TOL)
    return data
