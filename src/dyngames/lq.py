"""Open-loop equilibria of linear-quadratic games: factor once, solve many.

Player n's stage cost is 0.5 x'Q x + q'x + x'X u + 0.5 u'R u + r'u (data
indexed ``Q[n, k]``) and the dynamics are x+ = A_k x + B_k u + b_k from a
pinned initial state.  The open-loop equilibrium is found by one backward
sweep that eliminates every player's costate with the affine ansatz
``nu_{n,k} = M_{n,k} x_k + m_{n,k}``, followed by a forward rollout.

The data is ``model.LqGameData``, the layout ``model.quadraticize`` reads
around a trajectory; ``extract_lq_data`` reads it at the origin.

The sweep splits into two phases:

* ``factor`` runs once.  It computes everything that depends only on the
  quadratic data and the dynamics: the stage matrices F_k (checked for
  singularity and inverted), the gains K_k, the per-player value matrices
  M_{n,k} (nonsymmetric: they run through the closed loop) and the fixed
  linear maps that carry the linear cost terms through the recursion.
* ``LqFactor.solve(y, z)`` shifts every player's linear terms to
  q_{n,k} - y_k and r_{n,k} - z_k and returns the equilibrium trajectory.
  It touches vectors only: one matrix-vector product per stage backward,
  one forward, and a few batched products over all stages.

``regularized_factor(data, eta)`` builds the factor of the proximally
regularized game with costs eta c_{n,k} + 0.5 |x_k - y_k|^2 + 0.5 |u_k -
z_k|^2, whose equilibrium is the resolvent of the scaled game operator at
(y, z).  The quadratic data and hence the whole factor depend on eta; (y, z)
enter only through ``solve``.  This one regularization serves both users:
``factor(game, eta)`` applies it to a declared linear-quadratic game once,
and each Newton step of ``splitting.resolvent_reg_game`` applies it to the
local LQ game of a nonlinear game.  At eta = 0 every player has the same
cost, so the equilibrium is the Euclidean projection of (y, z) onto the
trajectories of the dynamics, and ``factor`` reads only (A_k, B_k, b_k).

Memory is O(T): a fixed number of per-stage matrices whose sizes depend on
the state and action dimensions and the player count, never on the horizon.

``horizon_rows`` builds the constraints of a QP over a whole stacked
trajectory: the pinned first state and the linear dynamics as equality rows,
every stage's affine rows (``stage_rows``) as inequality rows.  The
horizon-wide projection of ``splitting.horizon_qp`` and the best response of
``feedback.epsilon_nash_gap`` both take their rows from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import StageSingularityError, UnsupportedConstraintError
from .model import GameDefinition, LqGameData, Trajectory, linearize_dynamics, local_lq

Array = np.ndarray


def stage_rows(game: GameDefinition, k: int):
    """Affine rows (W, S, p) of stage k, W x + S u + p <= 0; None without rows.

    The rows are read at the origin, so the game must declare polyhedral
    constraints.
    """
    zx = np.zeros(game.state_dim)
    zu = np.zeros(game.total_action_dim)
    W, S, p = game.eval_constraint_rows(k, zx, zu)
    return (W, S, p) if p.shape[0] else None


def horizon_rows(game: GameDefinition, start: int = 0, x_start: Optional[Array] = None):
    """Rows of a QP over the stacked trajectory v = (x_start, u_start, ..., x_T, u_T).

    Returns (Aeq, beq, G, h).  The equality rows Aeq v = beq pin x_start (the
    game's initial state when omitted) and impose the linear dynamics of
    stages start..T-1; the inequality rows G v <= h are the affine rows of
    stages start..T, and G and h are None when there are none.  All
    matrices are block-banded ``scipy.sparse`` with O(T - start) nonzeros.
    Raises UnsupportedConstraintError unless the game declares linear
    dynamics and, if it has constraints, affine rows.
    """
    if not game.linear_dynamics:
        raise UnsupportedConstraintError("horizon-wide rows require linear dynamics")
    if game.constraints is not None and not game.polyhedral_constraints:
        raise UnsupportedConstraintError("horizon-wide rows require affine stage rows")
    T = game.horizon
    n_x, n_u = game.state_dim, game.total_action_dim
    n_v, steps = n_x + n_u, T - start
    x_start = game.initial_state if x_start is None else np.asarray(x_start, dtype=float)
    pick_x = sp.hstack([sp.identity(n_x), sp.csr_matrix((n_x, n_u))])
    Aeq = sp.block_diag([pick_x] * (steps + 1), format="csr")
    if steps:
        A, B, b = linearize_dynamics(game, *_origin(game))
        # row block i+1 reads x_{k+1} - A_k x_k - B_k u_k = b_k, k = start + i
        step = sp.block_diag([np.hstack([A[k], B[k]]) for k in range(start, T)])
        Aeq = Aeq - sp.bmat([[sp.csr_matrix((n_x, steps * n_v)), None],
                             [step, sp.csr_matrix((steps * n_x, n_v))]], format="csr")
        beq = np.concatenate([x_start, b[start:].ravel()])
    else:
        beq = np.array(x_start, dtype=float)
    G = h = None
    if game.constraints is not None:
        rows = [stage_rows(game, k) for k in range(start, T + 1)]
        blocks = [np.zeros((0, n_v)) if r is None else np.hstack([r[0], r[1]]) for r in rows]
        if any(blk.shape[0] for blk in blocks):
            G = sp.block_diag(blocks, format="csr")
            h = np.concatenate([-r[2] for r in rows if r is not None])
    return Aeq, beq, G, h


def extract_lq_data(game: GameDefinition) -> LqGameData:
    """The data of a declared linear-quadratic game: its local LQ data at the origin."""
    if not (game.linear_dynamics and game.quadratic_costs):
        raise ValueError("game is not declared linear-quadratic")
    return local_lq(game, *_origin(game))


def _origin(game: GameDefinition) -> tuple[Array, Array]:
    """Zero states (T+1, n_x) and actions (T+1, n_u)."""
    T1 = game.horizon + 1
    return np.zeros((T1, game.state_dim)), np.zeros((T1, game.total_action_dim))


def _bmv(mats: Array, vecs: Array) -> Array:
    """Stage-batched matrix-vector products: out[k] = mats[k] @ vecs[k]."""
    return np.matmul(mats, vecs[..., None])[..., 0]


@dataclass(frozen=True)
class LqFactor:
    """The iterate-independent part of the open-loop sweep of one LQ game.

    With m_k the stacked costate offsets (m_{1,k}, ..., m_{N,k}) and
    m_{T+1} = 0, the sweep that ``solve`` runs is

        a_k = e_k + Finv_k z_k
        m_k = c_k + G_k a_k - (y_k, ..., y_k) + Mm_k m_{k+1}
        d_k = a_k + Dm_k m_{k+1}
        x_{k+1} = Acl_k x_k + B_k d_k + b_k,   u_k = K_k x_k + d_k.

    ``eta`` records the regularization weight of a factor built by
    ``factor``; it is None for a factor of a plain LQ game.
    """

    initial_state: Array
    K: Array      # (T+1, n_u, n_x) gains
    Finv: Array   # (T+1, n_u, n_u) inverted stage matrices
    e: Array      # (T+1, n_u) action offsets from the constant linear terms
    Dm: Array     # (T+1, n_u, N n_x) costate offsets -> action offsets
    G: Array      # (T+1, N n_x, n_u) action offsets -> costate offsets
    c: Array      # (T+1, N n_x) costate offsets from the constant terms
    Mm: Array     # (T+1, N n_x, N n_x) costate offset propagation
    Acl: Array    # (T, n_x, n_x) closed-loop dynamics
    B: Array      # (T, n_x, n_u)
    b: Array      # (T, n_x)
    num_players: int
    eta: Optional[float] = None

    @property
    def horizon(self) -> int:
        return self.K.shape[0] - 1

    def solve(self, y: Optional[Array] = None, z: Optional[Array] = None) -> Trajectory:
        """Equilibrium with linear terms q_{n,k} - y_k and r_{n,k} - z_k.

        ``y`` is (T+1, n_x) and ``z`` is (T+1, n_u); either may be omitted
        (no shift).  O(T) time and memory.
        """
        T = self.horizon
        a = self.e if z is None else self.e + _bmv(self.Finv, np.asarray(z, dtype=float))
        rhs = self.c + _bmv(self.G, a)
        if y is not None:  # every player's costate offset carries the same -y_k
            rhs = (rhs.reshape(T + 1, self.num_players, -1)
                   - np.asarray(y, dtype=float)[:, None]).reshape(T + 1, -1)
        m_next = np.empty_like(rhs)
        m = np.zeros(rhs.shape[1])
        for k in range(T, -1, -1):
            m_next[k] = m
            m = rhs[k] + self.Mm[k] @ m
        d = a + _bmv(self.Dm, m_next)
        f = _bmv(self.B, d[:T]) + self.b
        states = np.empty((T + 1, self.K.shape[2]))
        states[0] = self.initial_state
        for k in range(T):
            states[k + 1] = self.Acl[k] @ states[k] + f[k]
        return Trajectory(states, _bmv(self.K, states) + d)


def _factor_data(data: LqGameData, eta: Optional[float] = None) -> LqFactor:
    """Run the matrix part of the sweep.

    Raises StageSingularityError naming the latest stage whose stationarity
    matrix F_k is numerically rank deficient (the sweep runs backward).
    """
    N, T1, n_x = data.Q.shape[:3]
    T = T1 - 1
    offsets = np.concatenate([[0], np.cumsum(data.action_dims)]).astype(int)
    n_u = int(offsets[-1])
    blocks = [slice(offsets[n], offsets[n + 1]) for n in range(N)]
    rows = [slice(n * n_x, (n + 1) * n_x) for n in range(N)]

    K = np.empty((T + 1, n_u, n_x))
    Finv = np.empty((T + 1, n_u, n_u))
    e = np.empty((T + 1, n_u))
    Dm = np.empty((T + 1, n_u, N * n_x))
    G = np.empty((T + 1, N * n_x, n_u))
    c = np.empty((T + 1, N * n_x))
    Mm = np.zeros((T + 1, N * n_x, N * n_x))
    Acl = np.empty((T, n_x, n_x))
    M = np.zeros((N, n_x, n_x))  # M_{n,k+1}; zero beyond the horizon
    zero_A, zero_B, zero_b = np.zeros((n_x, n_x)), np.zeros((n_x, n_u)), np.zeros(n_x)
    for k in range(T, -1, -1):
        A, B, b = (data.A[k], data.B[k], data.b[k]) if k < T else (zero_A, zero_B, zero_b)
        F = np.empty((n_u, n_u))
        P = np.empty((n_u, n_x))
        h = np.empty(n_u)
        Bblk = np.zeros((n_u, N * n_x))
        for n, sl in enumerate(blocks):
            BnM = B[:, sl].T @ M[n]
            F[sl] = data.R[n, k][sl] + BnM @ B
            P[sl] = data.X[n, k].T[sl] + BnM @ A
            h[sl] = data.r[n, k][sl] + BnM @ b
            Bblk[sl, rows[n]] = B[:, sl].T
        rank = np.linalg.matrix_rank(F)
        if rank < n_u:
            raise StageSingularityError(
                k, f"stage stationarity matrix F_k is singular (rank {rank} < {n_u})")
        Fi = np.linalg.inv(F)
        Kk = -Fi @ P
        for n, rn in enumerate(rows):
            AtM = A.T @ M[n]
            G[k, rn] = data.X[n, k] + AtM @ B
            c[k, rn] = data.q[n, k] + AtM @ b
            Mm[k, rn, rn] = A.T
            M[n] = data.Q[n, k] + data.X[n, k] @ Kk + AtM @ (A + B @ Kk)
        K[k], Finv[k], e[k], Dm[k] = Kk, Fi, -Fi @ h, -Fi @ Bblk
        Mm[k] += G[k] @ Dm[k]
        if k < T:
            Acl[k] = A + B @ Kk
    return LqFactor(initial_state=np.asarray(data.initial_state, dtype=float),
                    K=K, Finv=Finv, e=e, Dm=Dm, G=G, c=c, Mm=Mm, Acl=Acl,
                    B=data.B, b=data.b, num_players=N, eta=eta)


def regularized_factor(data: LqGameData, eta: float) -> LqFactor:
    """Factor of the game ``data`` regularized with weight eta.

    Every player's costs become eta c_{n,k} + 0.5 |x_k|^2 + 0.5 |u_k|^2;
    ``LqFactor.solve(y, z)`` then shifts the prox centres to (y, z).
    """
    n_x, n_u = data.A.shape[1], data.B.shape[2]
    return _factor_data(replace(data, Q=eta * data.Q + np.eye(n_x), X=eta * data.X,
                                R=eta * data.R + np.eye(n_u), q=eta * data.q,
                                r=eta * data.r), eta)


def factor(game: GameDefinition, eta: float) -> LqFactor:
    """Factor of the game regularized with weight eta (see the module docstring).

    eta > 0 requires a declared linear-quadratic game; eta = 0 (the dynamics
    projection) requires declared linear dynamics only.
    """
    if not eta >= 0:  # rejects NaN too
        raise ValueError(f"regularization must be nonnegative, got {eta}")
    if eta > 0:
        return regularized_factor(extract_lq_data(game), eta)
    if not game.linear_dynamics:
        raise UnsupportedConstraintError("dynamics projection requires linear dynamics")
    T1 = game.horizon + 1
    n_x, n_u = game.state_dim, game.total_action_dim
    # One player holding every action and no costs: all players share the prox.
    data = LqGameData(*linearize_dynamics(game, *_origin(game)),
                      Q=np.zeros((1, T1, n_x, n_x)), X=np.zeros((1, T1, n_x, n_u)),
                      R=np.zeros((1, T1, n_u, n_u)), q=np.zeros((1, T1, n_x)),
                      r=np.zeros((1, T1, n_u)), action_dims=(n_u,),
                      initial_state=game.initial_state)
    return regularized_factor(data, 0.0)


def solve_lq_open_loop(data: LqGameData, x0: Optional[Array] = None) -> Trajectory:
    """Exact open-loop equilibrium of a linear-quadratic game in one sweep."""
    if x0 is not None:
        data = replace(data, initial_state=np.asarray(x0, dtype=float))
    return _factor_data(data).solve()
