"""The game operator F(u) via a backward costate pass, and equilibrium checks.

F is the map every solver iterates on.  In the joint-action layout (T+1, n_u)
of the action array u, entry (k, j) of F(u) is dJ_n/du_{n,k} for the player n
that owns action column j: each player's gradient of its own total cost with
respect to its own actions, states eliminated through the dynamics.  It is
computed in O(T) by propagating per-player costate rows backward:

    Om_{n,T+1} = 0
    Om_{n,k}   = cx_{n,k} + Om_{n,k+1} A_k
    dJ_n/du_k  = cu_{n,k} + Om_{n,k+1} B_k

where cx, cu are stage cost gradients and A, B the dynamics Jacobians, all
evaluated along the given trajectory.  F is the operator of the variational
inequality whose solutions are equilibrium candidates; its Jacobian is probed
by central differences in the same layout (``_operator_jacobian``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .errors import DynGameError
from .model import GameDefinition, LqGameData, Trajectory, check_feasible, quadraticize, rollout

Array = np.ndarray

STATIONARITY_RTOL = 1e-6
# Most negative eigenvalue, relative to the size of the reduced Hessian, that
# the curvature test of ``playerwise_minimizer_check`` still reads as convex.
HESSIAN_EIG_TOL = 1e-7


@dataclass
class PseudoGradient:
    """F(u) in the joint-action layout.

    ``own`` is F, the (T+1, n_u) array whose columns ``game.action_slice(n)``
    hold player n's gradient of its own cost with respect to its own actions.
    The player-major ``block(n)`` and ``stacked`` are derived from ``own`` on
    demand.
    """

    own: Array
    action_dims: tuple[int, ...]

    def own_stage_grads(self) -> Array:
        """F, the stored (T+1, n_u) array ``own``."""
        return self.own

    def block(self, n: int) -> Array:
        """Player n's gradient with respect to u_{n,0..T}, stage-major."""
        start = sum(self.action_dims[:n])
        return self.own[:, start:start + self.action_dims[n]].reshape(-1)

    @property
    def stacked(self) -> Array:
        """The player blocks concatenated in player order."""
        return np.concatenate([self.block(n) for n in range(len(self.action_dims))])


def pseudo_gradient(game: GameDefinition, traj: Trajectory,
                    feas_tol: float = 1e-6) -> PseudoGradient:
    """Backward pass for F(u); rejects infeasible trajectories.

    The costate recursion is only valid on the dynamics manifold, so the
    trajectory is checked against the dynamics first.  The first-order data
    of all stages is evaluated at once (see ``GameDefinition.eval_traj_*``),
    the costates come from one banded triangular solve, and each action
    column's owner entry (``game.owner``) is gathered from the joint
    gradients in one step.
    """
    check_feasible(game, traj, feas_tol)
    CX, CU = game.eval_traj_cost_gradients(traj.states, traj.actions)
    A, B = game.eval_traj_dynamics_jacobians(traj.states, traj.actions)
    om = solve_costates(A, CX)
    # dJ_n/du_k = cu_{n,k} + Om_{n,k+1} B_k; the terminal action only enters
    # the terminal cost.
    grads = CU.copy()
    grads[:-1] += om[1:] @ B
    return PseudoGradient(own=grads[:, game.owner, np.arange(game.total_action_dim)],
                          action_dims=game.action_dims)


def solve_costates(A: Array, CX: Array) -> Array:
    """Costate rows Om_{n,k} = cx_{n,k} + Om_{n,k+1} A_k with Om_{n,T+1} = 0.

    ``A`` holds the T dynamics state Jacobians and ``CX`` the (T+1, N, n_x)
    cost state gradients; the result has the shape of ``CX``.  The recursion
    is one block-bidiagonal system in the stage-major unknown Om^T: identity
    diagonal blocks and -A_k^T in block (k, k+1).  It is unit upper triangular
    with bandwidth 2 n_x - 1 and is solved by LAPACK ``dtbtrs`` with one
    right-hand side per player.
    """
    T1, N, n_x = CX.shape
    T = T1 - 1
    kd = max(2 * n_x - 1, 0)
    # Band storage: ab[kd + r - c, c] = M[r, c].  Row k n_x + i and column
    # (k+1) n_x + j hold -A_k[j, i], band row n_x - 1 + i - j.  The unit
    # diagonal (band row kd) is implied by diag="U".
    ab = np.zeros((kd + 1, T1 * n_x), order="F")
    i, j = np.indices((n_x, n_x))
    cols = n_x * np.arange(1, T + 1)[:, None, None] + j
    ab[n_x - 1 + i - j, cols] = -np.swapaxes(A, 1, 2)
    rhs = CX.transpose(0, 2, 1).reshape(T1 * n_x, N)
    om, info = lapack.dtbtrs(ab, rhs, uplo="U", diag="U")
    if info != 0:
        raise DynGameError(f"banded costate solve failed (LAPACK info {info})")
    return om.reshape(T1, n_x, N).transpose(0, 2, 1)


def estimate_operator_constants(game: GameDefinition) -> tuple[float, float]:
    """Monotonicity and Lipschitz constants of the game operator F.

    Valid for games whose F is affine in the actions (linear dynamics,
    quadratic costs): the operator matrix is probed column by column in the
    flat joint-action layout (see ``_operator_jacobian``), mu is the smallest
    eigenvalue of its symmetric part and L its largest singular value.  For
    other games the constants must be supplied by the caller.
    """
    base_actions = np.zeros((game.horizon + 1, game.total_action_dim))
    op = _operator_jacobian(game, game.initial_state, base_actions,
                            np.arange(base_actions.size), step=1.0)
    mu = float(np.min(np.linalg.eigvalsh(0.5 * (op + op.T))))
    L = float(np.max(np.linalg.svd(op, compute_uv=False)))
    return mu, L


def _operator_jacobian(game: GameDefinition, x0: Array, actions: Array,
                       idx: Array, step: float) -> Array:
    """Central-difference Jacobian of F on the flat action coordinates ``idx``.

    Column c is (F(u + step e_j) - F(u - step e_j)) / (2 step) at j = idx[c],
    restricted to the rows ``idx``, with u = ``actions`` flattened row-major
    and each probe rolled out from ``x0`` (so not rechecked against the
    dynamics).  Exact for affine F at any step.
    """
    def F(u):
        return pseudo_gradient(game, rollout(game, x0, u), feas_tol=np.inf).own.ravel()[idx]

    J = np.empty((idx.size, idx.size))
    for c, j in enumerate(idx):
        up, dn = actions.copy(), actions.copy()
        up.flat[j] += step
        dn.flat[j] -= step
        J[:, c] = (F(up) - F(dn)) / (2.0 * step)
    return J


VERDICT_BLOCKED = "strict-descent-blocked"
VERDICT_CONVEX = "stationary-convex"
VERDICT_INDETERMINATE = "indeterminate"


@dataclass
class PlayerVerdict:
    player: int
    verdict: str
    grad_norm: float
    min_reduced_eig: Optional[float] = None
    flags: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return self.verdict in (VERDICT_BLOCKED, VERDICT_CONVEX)


def playerwise_minimizer_check(game: GameDefinition, traj: Trajectory) -> list[PlayerVerdict]:
    """Classify each player's candidate action sequence at a VI solution.

    A nonzero own-gradient block at a solution of the variational inequality
    means first-order descent is blocked by the constraints; a vanishing
    block triggers a curvature test of the player's own Hessian restricted
    to the feasible directions (null space of the active constraint rows).
    A nonzero gradient without any constraints cannot certify a minimizer
    and is reported as indeterminate.
    """
    pg = pseudo_gradient(game, traj)
    u_scale = 1.0 + float(np.max(np.abs(traj.actions), initial=0.0))
    data = None
    verdicts = []
    for n in range(game.num_players):
        g = pg.block(n)
        gnorm = float(np.max(np.abs(g), initial=0.0))
        if gnorm > STATIONARITY_RTOL * u_scale:
            if game.constraints is None:
                verdicts.append(PlayerVerdict(n, VERDICT_INDETERMINATE, gnorm,
                                              flags=("nonzero-gradient-unconstrained",)))
            else:
                verdicts.append(PlayerVerdict(n, VERDICT_BLOCKED, gnorm))
            continue
        H = _own_block_hessian(game, traj, n)
        if data is None and game.constraints is not None:
            data = quadraticize(game, traj, feas_tol=np.inf)  # checked above
        Z = _feasible_direction_basis(game, data, n)
        reduced = Z.T @ H @ Z
        if reduced.size == 0:
            # Every direction pinned by active constraints: trivially convex.
            verdicts.append(PlayerVerdict(n, VERDICT_CONVEX, gnorm, min_reduced_eig=None))
            continue
        lam = float(np.min(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))))
        if lam >= -HESSIAN_EIG_TOL * (1.0 + abs(float(np.max(np.abs(reduced))))):
            verdicts.append(PlayerVerdict(n, VERDICT_CONVEX, gnorm, min_reduced_eig=lam))
        else:
            verdicts.append(PlayerVerdict(n, VERDICT_INDETERMINATE, gnorm,
                                          min_reduced_eig=lam,
                                          flags=("negative-curvature",)))
    return verdicts


def _own_block_hessian(game: GameDefinition, traj: Trajectory, n: int) -> Array:
    """Central-difference Hessian of J_n with respect to player n's actions.

    Player n's rows and columns of F's Jacobian, ordered like ``block(n)``,
    symmetrized.  Each probe re-rolls out the dynamics, so the result is the
    true reduced Hessian (states eliminated).
    """
    base = traj.actions
    cols = np.arange(base.size).reshape(base.shape)[:, game.action_slice(n)].ravel()
    h = float(np.finfo(float).eps) ** (1.0 / 3.0) * (1.0 + float(np.max(np.abs(base))))
    H = _operator_jacobian(game, traj.states[0], base, cols, h)
    return 0.5 * (H + H.T)


def _feasible_direction_basis(game: GameDefinition, data: Optional[LqGameData],
                              n: int) -> Array:
    """Orthonormal basis of player n's directions not pinned by active rows.

    ``data`` is the trajectory's local LQ data with its rows (None for a game
    without constraints).  An active row at stage k reads player n's stacked
    actions through S_k and, when it reads the state, through W_k dx_k/du_n,
    the state sensitivities of the dynamics.  The basis spans the null space
    of these rows, from a rank-revealing SVD.
    """
    sl = game.action_slice(n)
    T1, d = game.horizon + 1, sl.stop - sl.start
    ks, rs = np.nonzero(data.active) if data is not None else ((), ())
    if not len(ks):
        return np.eye(T1 * d)
    W = data.rows.W[ks, rs]
    Jg = np.zeros((len(ks), T1, d))
    if np.any(W != 0.0):
        sens = np.zeros((T1, game.state_dim, T1, d))  # dx_k/du_{n,j}, forward in k
        for k in range(T1 - 1):
            sens[k + 1] = np.tensordot(data.A[k], sens[k], axes=1)
            sens[k + 1, :, k] += data.B[k][:, sl]
        Jg = np.einsum("ai,aijc->ajc", W, sens[ks])
    Jg[np.arange(len(ks)), ks] = data.rows.S[ks, rs, sl]
    Jg = Jg.reshape(len(ks), T1 * d)
    _, sv, vt = np.linalg.svd(Jg, full_matrices=True)
    tol = max(Jg.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    return vt[rank:].T
