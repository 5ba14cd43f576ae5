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
evaluated along the given trajectory (``own_gradients``: the one pass that F,
the KKT residual and the Newton resolvent's stop test share).  F is the
operator of the variational inequality whose solutions are equilibrium
candidates; its Jacobian rows are rows of the players' cost Hessians, read
exactly from the local LQ data (``_cost_hessian``).  The second-order
checks, the curvature test of ``playerwise_minimizer_check`` and the
best-response check of ``feedback.epsilon_nash_gap``, share one O(T)
backward sweep over a player's own actions (``_convexity_pass``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._lapack import lapack
from .errors import DynGameError
from .model import (GameDefinition, LqGameData, Trajectory, check_feasible, local_lq,
                    quadraticize, rollout)

Array = np.ndarray

STATIONARITY_RTOL = 1e-6
# The curvature test's shift, relative to 1 + the largest stage Hessian entry:
# the most negative eigenvalue on the free directions still read as convex.
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
    and ``own_gradients`` makes the costate pass and the owner gather.
    """
    check_feasible(game, traj, feas_tol)
    CX, CU = game.eval_traj_cost_gradients(traj.states, traj.actions)
    A, B = game.eval_traj_dynamics_jacobians(traj.states, traj.actions)
    return PseudoGradient(own_gradients(game, A, B, CX, CU)[0], game.action_dims)


def own_gradients(game: GameDefinition, A: Array, B: Array, CX: Array,
                  CU: Array) -> tuple[Array, Array]:
    """F (T+1, n_u) and the costates (``solve_costates``) along dynamics Jacobians A, B.

    CX, CU (T+1, N, ...) are the cost gradients plus any terms a caller adds (the rows'
    in ``kkt_residual``, the prox in ``resolvent_reg_game``); F holds owners' entries.
    """
    om = solve_costates(A, CX)
    # dJ_n/du_k = cu_{n,k} + Om_{n,k+1} B_k; the terminal action only enters
    # the terminal cost.
    grads = CU.copy()
    grads[:-1] += om[1:] @ B
    return grads[:, game.owner, np.arange(game.total_action_dim)], om


def solve_costates(A: Array, CX: Array) -> Array:
    """Costate rows Om_{n,k} = cx_{n,k} + Om_{n,k+1} A_k with Om_{n,T+1} = 0.

    ``A`` holds the T dynamics state Jacobians and ``CX`` the (T+1, N, n_x)
    cost state gradients; the result has the shape of ``CX``.  The recursion
    is one block-bidiagonal system in the stage-major unknown Om^T: identity
    diagonal blocks and -A_k^T in block (k, k+1).  It is unit upper triangular
    with bandwidth 2 n_x - 1 and is solved by LAPACK ``dtbtrs`` with one
    right-hand side per player, from scipy's LAPACK extension, loaded without
    ``scipy.linalg`` (``_lapack``).
    """
    T1, N, n_x = CX.shape
    T = T1 - 1
    kd = max(2 * n_x - 1, 0)
    # Band storage: ab[kd + r - c, c] = M[r, c].  Row k n_x + i and column
    # (k+1) n_x + j hold -A_k[j, i], band row n_x - 1 + i - j, which the
    # strided view blocks[k, i, j] is.  The unit diagonal (band row kd) is
    # implied by diag="U".
    ab = np.zeros((kd + 1, T1 * n_x), order="F")
    item = ab.itemsize
    blocks = np.lib.stride_tricks.as_strided(
        ab[n_x - 1:, n_x:], shape=(T, n_x, n_x),
        strides=(item * n_x * (kd + 1), item, item * kd))
    blocks[...] = -np.swapaxes(A, 1, 2)
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
    """Exact Hessian of J_n over ``_sensitivities``' coordinates: sum_k dz_k' M_k dz_k, one GEMM."""
    flat = dz.reshape(-1, dz.shape[-1])
    return flat.T @ (_stage_hessians(data, n) @ dz).reshape(flat.shape)


def _stage_hessians(data: LqGameData, n: int) -> Array:
    """Player n's stage Hessians over (x_k, u_k): C[n, k] + sum_i Om_{n,k+1,i} G_{k,i}."""
    om = solve_costates(data.A, data.c[n, :, None, :np.size(data.initial_state)])[:, 0]
    M = data.C[n].copy()  # ``data`` may be a solve's shared read
    M[:-1] += np.einsum("ki,kiab->kab", om[1:], data.G)
    return M


def _convexity_pass(M: Array, A: Array, B: Array, own: slice,
                    gains: Optional[Array] = None, rows: Optional[Array] = None,
                    pinned: Optional[Array] = None,
                    shift: float = 0.0) -> tuple[Optional[int], Optional[float]]:
    """Positive definiteness of one player's Hessian in its own actions w, by one O(T) sweep.

    ``M`` holds its stage Hessians over z = (x, u) and ``own`` its action
    columns; the others follow u = K_k x (``gains``, zero when None), the
    ``rows`` marked ``pinned`` hold, and dx_0 = 0.  Stage k forms Q = L'M_kL
    + F'PF over (x, w), F = [A_k B_k] L, with ``shift`` added on w.  An SVD
    of the w columns of its pinned rows and of the state rows carried from
    stage k+1 (Laine and Tomlin, ICRA 2019) gives w = F_w x + N xi and the
    state rows carried to stage k-1, vacuous at k = 0: rank R - rank R_w of
    them, R the rows and R_w their w columns, so that rounding noise left in
    the x columns pins no free direction.  The pivot N'QN must
    be positive definite, and P becomes its Schur complement.  By
    Haynsworth's inertia additivity all pivots are exactly when the
    Hessian's least eigenvalue on the free directions exceeds -shift: the
    second-order condition in Riccati form (Di and Lamperski,
    arXiv:1906.09097).  Returns the first failing stage from T down (None if
    none fails) and the least pivot eigenvalue less ``shift`` (None if no
    direction is free).
    """
    T1, n_z, n_x = M.shape[0], M.shape[1], A.shape[1]
    n_v = n_x + own.stop - own.start  # (x, w)
    L = np.zeros((T1, n_z, n_v))
    L[:, n_x:, :n_x] = 0.0 if gains is None else gains
    L[:, :n_x, :n_x] = np.eye(n_x)
    L[:, n_x + own.start:n_x + own.stop] = np.eye(n_v)[n_x:]  # w replaces K's own rows
    Q0 = L.swapaxes(1, 2) @ M @ L + shift * np.diag(np.arange(n_v) >= n_x)
    F = np.concatenate([np.concatenate([A, B], axis=2) @ L[:-1], np.zeros((1, n_x, n_v))])
    held = [np.zeros((0, n_v))] * T1 if rows is None else [R[m] for m, R in zip(pinned, rows @ L)]
    P, D, least = np.zeros((n_x, n_x)), np.zeros((0, n_x)), np.inf
    for k in range(T1 - 1, -1, -1):
        Q, R = Q0[k] + F[k].T @ P @ F[k], np.concatenate([held[k], D @ F[k]])
        if len(R):
            U, sv, Vt = np.linalg.svd(R[:, n_x:])
            tol = max(R.shape) * np.finfo(float).eps * float(np.linalg.norm(R))
            r, Rx = int(np.sum(sv > tol)), U.T @ R[:, :n_x]
            left = int(np.sum(np.linalg.svd(R, compute_uv=False) > tol)) - r
            D = np.linalg.svd(Rx[r:], full_matrices=False)[2][:max(left, 0)]
            Z = np.vstack([np.eye(n_x, n_v - r),
                           np.hstack([-Vt[:r].T @ (Rx[:r] / sv[:r, None]), Vt[r:].T])])
            Q = Z.T @ Q @ Z
        P = Q[:n_x, :n_x]
        if len(Q) > n_x:
            lam, V = np.linalg.eigh(Q[n_x:, n_x:])
            least = np.minimum(least, lam[0] - shift)
            if not lam[0] > 1e-12 * (1.0 + np.max(np.abs(Q[n_x:, n_x:]))):  # NaN fails too
                return k, float(least)
            Y = V.T @ Q[n_x:, :n_x]
            P = P - Y.T @ (Y / lam[:, None])
        P = 0.5 * (P + P.T)
    return None, None if least == np.inf else float(least)


VERDICT_BLOCKED = "strict-descent-blocked"
VERDICT_CONVEX = "stationary-convex"
VERDICT_INDETERMINATE = "indeterminate"


@dataclass
class PlayerVerdict:
    """One player's verdict; ``grad_norm`` is its own gradient's largest entry.

    ``strict-descent-blocked``: a nonzero own gradient in a constrained game,
    so at a VI solution the constraints block first-order descent.
    ``stationary-convex``: a vanishing gradient, and the own-cost Hessian on
    the directions no active row pins has no eigenvalue below -tau, tau =
    ``HESSIAN_EIG_TOL`` (1 + max |M_k|), or no direction is left.
    ``indeterminate``: neither, flagged ``nonzero-gradient-unconstrained`` or
    ``negative-curvature``.  ``min_reduced_eig`` is the least eigenvalue of
    the curvature sweep's stage pivots less tau, the reduced Hessian's when
    one stage carries every free direction: above -tau for a convex verdict,
    about -tau or below otherwise (past the first failing pivot only its
    sign means anything), and None when the test did not run or no direction
    was left.
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
    to the feasible directions (null space of the active constraint rows):
    one ``_convexity_pass`` with the active rows pinned and the shift tau of
    ``PlayerVerdict``, O(T) in time and memory.  A nonzero gradient without
    any constraints cannot certify a minimizer and is reported as
    indeterminate.  The local LQ data is read once, at the first player the
    curvature test reaches.
    """
    pg = pseudo_gradient(game, traj)
    u_scale = 1.0 + float(np.max(np.abs(traj.actions), initial=0.0))
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
        M = _stage_hessians(data, n)
        shift = HESSIAN_EIG_TOL * (1.0 + float(np.max(np.abs(M))))
        failed, lam = _convexity_pass(M, data.A, data.B, game.action_slice(n),
                                      rows=data.rows.G, pinned=data.active, shift=shift)
        convex = failed is None  # lam is None when the active rows pin every direction
        verdicts.append(PlayerVerdict(n, VERDICT_CONVEX if convex else VERDICT_INDETERMINATE,
                                      gnorm, lam, () if convex else ("negative-curvature",)))
    return verdicts
