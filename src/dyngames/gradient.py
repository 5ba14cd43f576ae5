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
inequality whose solutions are equilibrium candidates; its Jacobian rows are
rows of the players' cost Hessians, read exactly from the local LQ data
(``_cost_hessian``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .errors import DynGameError
from .model import (GameDefinition, LqGameData, Trajectory, check_feasible, local_lq,
                    quadraticize, rollout)

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
    quadratic costs).  Row j of F's Jacobian in the flat joint-action layout
    is row j of its owner's ``_cost_hessian``, read along the rollout of zero
    actions.  mu is the smallest eigenvalue of its symmetric part and L its
    largest singular value; other games must supply their own constants.
    """
    zeros = np.zeros((game.horizon + 1, game.total_action_dim))
    data = local_lq(game, rollout(game, game.initial_state, zeros).states, zeros)
    dz = _sensitivities(data, np.arange(zeros.size))
    owner = np.tile(game.owner, game.horizon + 1)
    op = np.empty((zeros.size, zeros.size))
    for n in range(game.num_players):
        op[owner == n] = _cost_hessian(data, n, dz)[owner == n]
    mu = float(np.min(np.linalg.eigvalsh(0.5 * (op + op.T))))
    L = float(np.max(np.linalg.svd(op, compute_uv=False)))
    return mu, L


def _sensitivities(data: LqGameData, cols: Array) -> Array:
    """dz_k/du over the flat action coordinates ``cols``: (T+1, n_x+n_u, len(cols)).

    z_k = (x_k, u_k); coordinate k n_u + i is action i at stage k.  The state
    rows run forward from dx_0 = 0 as dx_{k+1} = A_k dx_k + B_k du_k.
    """
    (_, T1, n_z), n_x = data.c.shape, np.size(data.initial_state)
    ks, js = np.divmod(cols, n_z - n_x)
    dz = np.zeros((T1, n_z, cols.size))
    dz[ks, n_x + js, np.arange(cols.size)] = 1.0
    for k in range(data.A.shape[0]):
        dz[k + 1, :n_x] = data.A[k] @ dz[k, :n_x] + data.B[k] @ dz[k, n_x:]
    return dz


def _cost_hessian(data: LqGameData, n: int, dz: Array) -> Array:
    """Exact Hessian of J_n over the coordinates of ``_sensitivities``' ``dz``.

    Sum_k dz_k' M_k dz_k in one GEMM, M_k being player n's stage Hessian
    ``C[n, k]`` (copied: ``data`` may be a solve's shared read) plus the dynamics
    Hessians weighted by its costates, sum_i Om_{n,k+1,i} G_{k,i}.
    """
    om = solve_costates(data.A, data.c[n, :, None, :np.size(data.initial_state)])[:, 0]
    M = data.C[n].copy()
    M[:-1] += np.einsum("ki,kiab->kab", om[1:], data.G)
    flat = dz.reshape(-1, dz.shape[-1])
    return flat.T @ (M @ dz).reshape(flat.shape)


VERDICT_BLOCKED = "strict-descent-blocked"
VERDICT_CONVEX = "stationary-convex"
VERDICT_INDETERMINATE = "indeterminate"


@dataclass
class PlayerVerdict:
    """One player's verdict; ``grad_norm`` is its own gradient's largest entry.

    ``strict-descent-blocked``: a nonzero own gradient in a constrained game,
    so at a VI solution the constraints block first-order descent.
    ``stationary-convex``: a vanishing gradient, and the own-cost Hessian on
    the directions no active row pins is positive semidefinite (to
    ``HESSIAN_EIG_TOL``) or no direction is left.  ``indeterminate``:
    neither, flagged ``nonzero-gradient-unconstrained`` or
    ``negative-curvature``.  ``min_reduced_eig`` is that reduced Hessian's
    least eigenvalue, None when the curvature test did not run or had no
    direction left.
    """

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
    and is reported as indeterminate.  The local LQ data is read once, at
    the first player the curvature test reaches.
    """
    pg = pseudo_gradient(game, traj)
    u_scale = 1.0 + float(np.max(np.abs(traj.actions), initial=0.0))
    owner = np.tile(game.owner, game.horizon + 1)
    data = None
    verdicts = []
    for n in range(game.num_players):
        gnorm = float(np.max(np.abs(pg.block(n)), initial=0.0))
        if gnorm > STATIONARITY_RTOL * u_scale:
            if game.constraints is None:
                verdicts.append(PlayerVerdict(n, VERDICT_INDETERMINATE, gnorm,
                                              flags=("nonzero-gradient-unconstrained",)))
            else:
                verdicts.append(PlayerVerdict(n, VERDICT_BLOCKED, gnorm))
            continue
        if data is None:
            data = quadraticize(game, traj, feas_tol=np.inf)  # checked above
        dz = _sensitivities(data, np.flatnonzero(owner == n))
        Z = _feasible_direction_basis(data, dz)
        reduced = Z.T @ _cost_hessian(data, n, dz) @ Z
        if reduced.size == 0:
            # Every direction pinned by active constraints: trivially convex.
            verdicts.append(PlayerVerdict(n, VERDICT_CONVEX, gnorm))
            continue
        lam = float(np.min(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))))
        if lam >= -HESSIAN_EIG_TOL * (1.0 + float(np.max(np.abs(reduced)))):
            verdicts.append(PlayerVerdict(n, VERDICT_CONVEX, gnorm, min_reduced_eig=lam))
        else:
            verdicts.append(PlayerVerdict(n, VERDICT_INDETERMINATE, gnorm, min_reduced_eig=lam,
                                          flags=("negative-curvature",)))
    return verdicts


def _feasible_direction_basis(data: LqGameData, dz: Array) -> Array:
    """Orthonormal basis of the directions over ``dz``'s coordinates not pinned by active rows.

    An active row of ``data`` at stage k reads them through [W_k S_k] dz_k;
    the basis spans these rows' null space, from a rank-revealing SVD.
    """
    ks, rs = np.nonzero(data.active)
    if not len(ks):
        return np.eye(dz.shape[-1])
    rows = np.concatenate([data.rows.W[ks, rs], data.rows.S[ks, rs]], axis=1)
    Jg = np.einsum("az,azc->ac", rows, dz[ks])
    _, sv, vt = np.linalg.svd(Jg, full_matrices=True)
    rank = int(np.sum(sv > max(Jg.shape) * np.finfo(float).eps * sv[0]))
    return vt[rank:].T
