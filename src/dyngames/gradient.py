"""Game pseudo-gradient via a backward costate pass, and equilibrium checks.

The pseudo-gradient stacks each player's gradient of its own total cost with
respect to its own action sequence, states eliminated through the dynamics.
It is computed in O(T) by propagating per-player costate rows backward:

    Om_{n,T+1} = 0
    Om_{n,k}   = cx_{n,k} + Om_{n,k+1} A_k
    dJ_n/du_k  = cu_{n,k} + Om_{n,k+1} B_k

where cx, cu are stage cost gradients and A, B the dynamics Jacobians, all
evaluated along the given trajectory.  The stacked vector is the operator of
the variational inequality whose solutions are equilibrium candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .errors import DynGameError
from .model import GameDefinition, Trajectory, check_feasible, rollout

Array = np.ndarray

STATIONARITY_RTOL = 1e-6
# Most negative eigenvalue, relative to the size of the reduced Hessian, that
# the curvature test of ``playerwise_minimizer_check`` still reads as convex.
HESSIAN_EIG_TOL = 1e-7


@dataclass
class PseudoGradient:
    """Stacked own-action gradient blocks plus the per-stage data behind them.

    ``stacked`` concatenates player blocks in player order; block n is the
    gradient of player n's total cost with respect to u_{n,0..T}, stage-major.
    ``stage_grads[n, k]`` is the full joint-action gradient dJ_n/du_{:,k};
    ``costates[n, k]`` holds the row vector Om_{n,k} (k = 0..T+1, the last
    row identically zero).
    """

    stacked: Array
    stage_grads: Array
    costates: Array
    action_dims: tuple[int, ...]

    def block(self, n: int) -> Array:
        T1 = self.stage_grads.shape[1]
        sizes = [T1 * d for d in self.action_dims]
        start = sum(sizes[:n])
        return self.stacked[start:start + sizes[n]]

    def own_stage_grads(self) -> Array:
        """(T+1, n_u) array holding each player's own block of its stage gradient."""
        out = np.empty((self.stage_grads.shape[1], sum(self.action_dims)))
        off = 0
        for n, d in enumerate(self.action_dims):
            out[:, off:off + d] = self.stage_grads[n, :, off:off + d]
            off += d
        return out


def pseudo_gradient(game: GameDefinition, traj: Trajectory,
                    feas_tol: float = 1e-6) -> PseudoGradient:
    """Backward pass for the stacked gradient; rejects infeasible trajectories.

    The costate recursion is only valid on the dynamics manifold, so the
    trajectory is checked against the dynamics first.  The first-order data
    of all stages is evaluated at once (see ``GameDefinition.eval_traj_*``)
    and the costates come from one banded triangular solve.
    """
    check_feasible(game, traj, feas_tol)
    CX, CU = game.eval_traj_cost_gradients(traj.states, traj.actions)
    A, B = game.eval_traj_dynamics_jacobians(traj.states, traj.actions)
    om = solve_costates(A, CX)
    # dJ_n/du_k = cu_{n,k} + Om_{n,k+1} B_k; the terminal action only enters
    # the terminal cost.
    grads = CU.copy()
    grads[:-1] += om[1:] @ B
    T1, N, n_x = om.shape
    costates = np.zeros((N, T1 + 1, n_x))
    costates[:, :T1] = om.transpose(1, 0, 2)
    stage_grads = np.ascontiguousarray(grads.transpose(1, 0, 2))
    blocks = [stage_grads[n, :, game.action_slice(n)].reshape(-1) for n in range(N)]
    return PseudoGradient(stacked=np.concatenate(blocks),
                          stage_grads=stage_grads,
                          costates=costates,
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


def estimate_operator_constants(game: GameDefinition,
                                base_actions: Optional[Array] = None) -> tuple[float, float]:
    """Monotonicity and Lipschitz constants of the stacked gradient operator.

    Valid for games whose pseudo-gradient is affine in the actions (linear
    dynamics, quadratic costs): the operator matrix is reconstructed column
    by column from gradient evaluations, mu is the smallest eigenvalue of its
    symmetric part and L its largest singular value.  For other games the
    constants must be supplied by the caller.
    """
    T, n_u = game.horizon, game.total_action_dim
    if base_actions is None:
        base_actions = np.zeros((T + 1, n_u))
    base = pseudo_gradient(game, rollout(game, game.initial_state, base_actions)).stacked
    dim = base.shape[0]
    op = np.empty((dim, dim))
    flat_to_action = _stacked_to_actions_map(game)
    for j in range(dim):
        pert = base_actions + flat_to_action(j)
        g = pseudo_gradient(game, rollout(game, game.initial_state, pert)).stacked
        op[:, j] = g - base
    sym = 0.5 * (op + op.T)
    mu = float(np.min(np.linalg.eigvalsh(sym)))
    L = float(np.max(np.linalg.svd(op, compute_uv=False)))
    return mu, L


def _stacked_to_actions_map(game: GameDefinition):
    """Unit vector in stacked-gradient coordinates -> (T+1, n_u) action array."""
    T1 = game.horizon + 1

    def make(j):
        out = np.zeros((T1, game.total_action_dim))
        off = 0
        for n, d in enumerate(game.action_dims):
            size = T1 * d
            if j < off + size:
                local = j - off
                k, i = divmod(local, d)
                out[k, game.action_offsets[n] + i] = 1.0
                return out
            off += size
        raise IndexError(j)

    return make


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


def playerwise_minimizer_check(game: GameDefinition, traj: Trajectory,
                               feas_tol: float = 1e-6) -> list[PlayerVerdict]:
    """Classify each player's candidate action sequence at a VI solution.

    A nonzero own-gradient block at a solution of the variational inequality
    means first-order descent is blocked by the constraints; a vanishing
    block triggers a curvature test of the player's own Hessian restricted
    to the feasible directions (null space of the active constraint rows).
    A nonzero gradient without any constraints cannot certify a minimizer
    and is reported as indeterminate.
    """
    pg = pseudo_gradient(game, traj, feas_tol=feas_tol)
    u_scale = 1.0 + float(np.max(np.abs(traj.actions), initial=0.0))
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
        H = _own_block_hessian(game, traj, n, feas_tol)
        Z = _feasible_direction_basis(game, traj, n)
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


def _own_block_hessian(game: GameDefinition, traj: Trajectory, n: int,
                       feas_tol: float) -> Array:
    """Central-difference Hessian of J_n with respect to player n's actions.

    Each probe re-rolls out the dynamics, so the result is the true reduced
    Hessian (states eliminated).
    """
    sl = game.action_slice(n)
    d = sl.stop - sl.start
    T1 = game.horizon + 1
    dim = T1 * d
    base = traj.actions
    h = float(np.finfo(float).eps) ** (1.0 / 3.0) * (1.0 + float(np.max(np.abs(base))))
    H = np.empty((dim, dim))
    for j in range(dim):
        k, i = divmod(j, d)
        up = base.copy()
        up[k, sl.start + i] += h
        gp = pseudo_gradient(game, rollout(game, traj.states[0], up),
                             feas_tol=np.inf).block(n)
        dn = base.copy()
        dn[k, sl.start + i] -= h
        gm = pseudo_gradient(game, rollout(game, traj.states[0], dn),
                             feas_tol=np.inf).block(n)
        H[:, j] = (gp - gm) / (2.0 * h)
    return 0.5 * (H + H.T)


def _feasible_direction_basis(game: GameDefinition, traj: Trajectory, n: int) -> Array:
    """Orthonormal basis of player n's directions not pinned by active rows.

    Builds the Jacobian of the active constraints with respect to player n's
    stacked actions (including paths through the state for state-coupled
    rows) and returns a null-space basis from a rank-revealing SVD.
    """
    sl = game.action_slice(n)
    d = sl.stop - sl.start
    T = game.horizon
    dim = (T + 1) * d
    if game.constraints is None:
        return np.eye(dim)
    rows = []
    # State sensitivities dx_k/du_{n,j} are propagated forward only when some
    # active row depends on the state.
    sens: Optional[list[Array]] = None
    from .model import DEFAULT_ACTIVE_TOL
    for k in range(T + 1):
        x, u = traj.states[k], traj.actions[k]
        g = game.eval_constraints(k, x, u)
        if g.size == 0:
            continue
        act = np.flatnonzero(g >= -DEFAULT_ACTIVE_TOL)
        if act.size == 0:
            continue
        W, S = game.eval_constraint_jacobians(k, x, u)
        for i in act:
            row = np.zeros(dim)
            row[k * d:(k + 1) * d] = S[i, sl]
            if np.any(W[i] != 0.0):
                if sens is None:
                    sens = _state_sensitivities(game, traj, n)
                for j in range(k):
                    row[j * d:(j + 1) * d] += W[i] @ sens[k][:, j * d:(j + 1) * d]
            rows.append(row)
    if not rows:
        return np.eye(dim)
    Jg = np.vstack(rows)
    _, sv, vt = np.linalg.svd(Jg, full_matrices=True)
    tol = max(Jg.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    return vt[rank:].T


def _state_sensitivities(game: GameDefinition, traj: Trajectory, n: int) -> list[Array]:
    """Forward sensitivities dx_k/du_{n,:} along the trajectory."""
    sl = game.action_slice(n)
    d = sl.stop - sl.start
    T = game.horizon
    dim = (T + 1) * d
    sens = [np.zeros((game.state_dim, dim))]
    for k in range(T):
        A, B = game.eval_dynamics_jacobians(k, traj.states[k], traj.actions[k])
        nxt = A @ sens[k]
        nxt[:, k * d:(k + 1) * d] += B[:, sl]
        sens.append(nxt)
    return sens
