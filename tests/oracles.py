"""Independent reference computations used to validate solver outputs.

Everything here is deliberately written the slow, obvious way (explicit
recurrences, finite differences, dense stacked linear algebra, exhaustive
enumeration) and shares no code paths with the package implementations it
checks.
"""

import itertools

import numpy as np
from scipy.optimize import nnls

from dyngames.model import quadraticize, rollout, total_cost
from dyngames.parametric import solve_stage_kkt

# ---------------------------------------------------------------------------
# Finite-difference gradient of a player's total cost (re-rolls dynamics).
# ---------------------------------------------------------------------------


def fd_player_gradient(game, actions, player, step=1e-5):
    """Central finite differences of J_player(x0, u) w.r.t. the player's actions."""
    sl = game.action_slice(player)
    T1 = game.horizon + 1
    grad = np.zeros((T1, sl.stop - sl.start))
    for k in range(T1):
        for i in range(sl.stop - sl.start):
            up = actions.copy()
            up[k, sl.start + i] += step
            um = actions.copy()
            um[k, sl.start + i] -= step
            cp = total_cost(game, rollout(game, game.initial_state, up), player)
            cm = total_cost(game, rollout(game, game.initial_state, um), player)
            grad[k, i] = (cp - cm) / (2.0 * step)
    return grad.reshape(-1)


def fd_stacked_gradient(game, actions, step=1e-5):
    return np.concatenate([fd_player_gradient(game, actions, n, step)
                           for n in range(game.num_players)])


# ---------------------------------------------------------------------------
# Costate recursion, one stage and one player at a time.
# ---------------------------------------------------------------------------


def costate_recursion(A, CX):
    """Costates Om_k = CX_k + Om_{k+1} A_k, Om_T = CX_T, one stage at a time.

    ``A`` is (T, n_x, n_x), ``CX`` is (T+1, N, n_x); returns (T+1, N, n_x).
    """
    out = np.array(CX, dtype=float)
    for k in range(out.shape[0] - 2, -1, -1):
        for n in range(out.shape[1]):
            out[k, n] = CX[k, n] + A[k].T @ out[k + 1, n]
    return out


# ---------------------------------------------------------------------------
# The game operator in player-major stacked coordinates, probed per player.
# ---------------------------------------------------------------------------


def stacked_coordinates(game):
    """(stage, action column) of each entry of the player-major stacked gradient."""
    T1 = game.horizon + 1
    return [(k, game.action_offsets[n] + i)
            for n, d in enumerate(game.action_dims) for k in range(T1) for i in range(d)]


def player_major_operator(game, base_actions):
    """Matrix of an affine game operator in stacked coordinates, and F there.

    Column j is the forward difference of the stacked gradient along a unit
    step in the action of stacked entry j, each probe rolled out from the
    game's initial state.
    """
    from dyngames.gradient import pseudo_gradient

    base = pseudo_gradient(game, rollout(game, game.initial_state, base_actions)).stacked
    op = np.empty((base.size, base.size))
    for j, (k, col) in enumerate(stacked_coordinates(game)):
        pert = base_actions.copy()
        pert[k, col] += 1.0
        op[:, j] = pseudo_gradient(game, rollout(game, game.initial_state, pert)).stacked - base
    return op, base


def fd_own_block_hessian(game, traj, n):
    """Central-difference Hessian of J_n in player n's actions, one block at a time.

    Each probe perturbs one of player n's actions, re-rolls out from the
    trajectory's first state and keeps player n's stacked gradient block;
    the result is symmetrized.
    """
    from dyngames.gradient import pseudo_gradient

    sl = game.action_slice(n)
    d = sl.stop - sl.start
    base = traj.actions
    h = float(np.finfo(float).eps) ** (1.0 / 3.0) * (1.0 + float(np.max(np.abs(base))))
    H = np.empty(((game.horizon + 1) * d,) * 2)
    for j in range(H.shape[0]):
        k, i = divmod(j, d)
        up = base.copy()
        up[k, sl.start + i] += h
        gp = pseudo_gradient(game, rollout(game, traj.states[0], up), feas_tol=np.inf).block(n)
        dn = base.copy()
        dn[k, sl.start + i] -= h
        gm = pseudo_gradient(game, rollout(game, traj.states[0], dn), feas_tol=np.inf).block(n)
        H[:, j] = (gp - gm) / (2.0 * h)
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Dense stacked KKT solver for equality/inequality constrained LQ games.
# ---------------------------------------------------------------------------


def feasible_direction_basis_loop(game, data, n):
    """Player n's directions not pinned by ``data``'s active rows, one stage at a time.

    The state sensitivities dx_k/du_n are propagated stage by stage, each
    active row's Jacobian block is built on its own, and the null space of
    all of them comes from one rank-revealing SVD.
    """
    sl = game.action_slice(n)
    d = sl.stop - sl.start
    dim = (game.horizon + 1) * d
    sens = [np.zeros((game.state_dim, dim))]
    for k in range(game.horizon):
        nxt = data.A[k] @ sens[k]
        nxt[:, k * d:(k + 1) * d] += data.B[k][:, sl]
        sens.append(nxt)
    blocks = []
    for k, act in enumerate(data.active):
        blk = np.zeros((int(act.sum()), dim))
        blk[:, k * d:(k + 1) * d] = data.rows.S[k][act][:, sl]
        blk[:, :k * d] += data.rows.W[k][act] @ sens[k][:, :k * d]
        blocks.append(blk)
    Jg = np.vstack(blocks)
    if Jg.shape[0] == 0:
        return np.eye(dim)
    _, sv, vt = np.linalg.svd(Jg, full_matrices=True)
    rank = int(np.sum(sv > max(Jg.shape) * np.finfo(float).eps * sv[0]))
    return vt[rank:].T


def exact_own_block_hessian(game, data, n):
    """Player n's exact Hessian from the local LQ ``data``, ordered like ``block(n)``.

    One stage at a time: stage k adds dz_k' M_k dz_k with M_k = C[n, k] plus
    the dynamics Hessians weighted by the costates of ``costate_recursion``,
    and the sensitivities dz_k of (x_k, u_k) to player n's actions run
    forward from dx_0 = 0.
    """
    sl, T, n_x = game.action_slice(n), game.horizon, game.state_dim
    d = sl.stop - sl.start
    om = costate_recursion(data.A, data.c[:, :, :n_x].swapaxes(0, 1))[:, n]
    dx = np.zeros((n_x, (T + 1) * d))
    H = np.zeros((dx.shape[1],) * 2)
    for k in range(T + 1):
        dz = np.zeros((data.C.shape[-1], dx.shape[1]))
        dz[:n_x] = dx
        dz[n_x + sl.start:n_x + sl.stop, k * d:(k + 1) * d] = np.eye(d)
        M = data.C[n, k].copy()
        if k < T:
            for i in range(n_x):
                M += om[k + 1, i] * data.G[k, i]
            dx = data.A[k] @ dx + data.B[k] @ dz[n_x:]
        H += dz.T @ M @ dz
    return H


def dense_reduced_min_eig(game, data, n):
    """Least eigenvalue of player n's exact Hessian on the directions no active row pins.

    ``exact_own_block_hessian`` on the basis of ``feasible_direction_basis_loop``;
    None when the active rows pin every direction.
    """
    Z = feasible_direction_basis_loop(game, data, n)
    if Z.shape[1] == 0:
        return None
    reduced = Z.T @ exact_own_block_hessian(game, data, n) @ Z
    return float(np.min(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))))


def dense_kkt_residual(game, traj, delta=1e-3):
    """The KKT residual of a rolled-out ``traj`` by dense sensitivities, and its mu.

    Every stage's rows and their Jacobians are read one stage at a time and
    carried to the whole action sequence through the dense sensitivities
    dx_k/du_j = A_{k-1} ... A_{j+1} B_j.  The rows within ``delta`` of
    active get one multiplier each, shared by all players, chosen by NNLS to
    minimize |F + J'mu|_2 with F every player's own-action gradient of its
    total cost; the residual is the largest of |F + J'mu|_inf, max(g, 0),
    max |mu g| and -min mu.  Returns it and mu padded as ``model.PaddedRows``
    (T+1, m), zero off the near-active rows.
    """
    T, n_x, n_u = game.horizon, game.state_dim, game.total_action_dim
    X, U = traj.states, traj.actions
    sens = np.zeros((T + 1, n_x, (T + 1) * n_u))  # dx_k / du
    for k in range(T):
        A, B = game.eval_dynamics_jacobians(k, X[k], U[k])
        sens[k + 1] = A @ sens[k]
        sens[k + 1][:, k * n_u:(k + 1) * n_u] += B
    grads = np.zeros((game.num_players, (T + 1) * n_u))  # dJ_n / du
    rows, values, where = [], [], []
    for k in range(T + 1):
        cx, cu = game.eval_cost_gradients(k, X[k], U[k])
        grads += cx @ sens[k]
        grads[:, k * n_u:(k + 1) * n_u] += cu
        W, S, g = game.eval_constraint_rows(k, X[k], U[k])
        for i in range(g.size):
            row = W[i] @ sens[k]
            row[k * n_u:(k + 1) * n_u] += S[i]
            rows.append(row)
            values.append(g[i])
            where.append((k, i))
    F = grads[np.tile(game.owner, T + 1), np.arange((T + 1) * n_u)]
    values = np.array(values)
    near = np.flatnonzero(values >= -delta)
    J = np.array(rows).reshape(-1, F.size)[near]
    mu = nnls(J.T, -F)[0] if near.size else np.zeros(0)
    residual = max(np.max(np.abs(F + J.T @ mu)), np.max(np.maximum(values, 0.0), initial=0.0),
                   np.max(np.abs(mu * values[near]), initial=0.0), -np.min(mu, initial=0.0))
    padded = np.zeros((T + 1, max((i + 1 for _, i in where), default=0)))
    for j, m in zip(near, mu):
        padded[where[j]] = m
    return float(residual), padded


def stacked_lq_gne(game, lq, constraint_rows, active=None, tol=1e-9):
    """Variational equilibrium of a constrained LQ game by one dense solve.

    ``lq`` is the dict of per-stage matrices (A, B, b, Q, q, R, r) from the
    test game builders, optionally with state-action cross terms X (player
    n's stage cost then carries x_k' X[n][k] u_k).  ``constraint_rows`` is a list of tuples
    (k, w, s, p, kind) representing w'x_k + s'u_k + p (kind "eq" or "ineq").
    When ``active`` (indices into constraint_rows of the inequality rows to
    pin) is None, all 2^m subsets of the "ineq" rows are tried and the first
    KKT point with feasible primal and nonnegative duals is returned.

    Unknowns: u_{:,0..T}, x_{1..T}, per-player costates nu_{n,1..T}, one
    shared multiplier per pinned row.  Stationarity of player n at stage k
    covers only its own action block.
    """
    T, N = game.horizon, game.num_players
    n_x, n_u = game.state_dim, game.total_action_dim
    A, B, b = lq["A"], lq["B"], lq["b"]
    Q, q, R, r = lq["Q"], lq["q"], lq["R"], lq["r"]
    X = lq.get("X")
    x0 = game.initial_state

    ineq_ids = [i for i, row in enumerate(constraint_rows) if row[4] == "ineq"]
    eq_ids = [i for i, row in enumerate(constraint_rows) if row[4] == "eq"]

    def attempt(pinned):
        rows = eq_ids + list(pinned)
        n_lam = len(rows)
        nu_dim = N * T * n_x
        dim = (T + 1) * n_u + T * n_x + nu_dim + n_lam
        off_u = 0
        off_x = (T + 1) * n_u

        def xvar(k):  # index of x_k among unknowns, k >= 1
            return off_x + (k - 1) * n_x

        off_nu = off_x + T * n_x

        def nuvar(n, k):  # nu_{n,k}, k = 1..T
            return off_nu + (n * T + (k - 1)) * n_x

        off_lam = off_nu + nu_dim
        Amat = np.zeros((dim, dim))
        rhs = np.zeros(dim)
        eqi = 0

        # Player stationarity rows: for n, k: R_n[k]u_k|own + Q-terms via
        # costates; d/d u_{n,k}: own rows of (R_n[k] u + r_n[k])
        #   + B_{n}' nu_{n,k+1} (k<T) + sum_rows s_own * lam.
        for n in range(N):
            sl = game.action_slice(n)
            for k in range(T + 1):
                for ii in range(sl.start, sl.stop):
                    ridx = eqi
                    eqi += 1
                    Amat[ridx, off_u + k * n_u: off_u + (k + 1) * n_u] += R[n][k][ii]
                    rhs[ridx] -= r[n][k][ii]
                    if X is not None:
                        if k >= 1:
                            Amat[ridx, xvar(k):xvar(k) + n_x] += X[n][k][:, ii]
                        else:
                            rhs[ridx] -= X[n][0][:, ii] @ x0
                    if k < T:
                        Amat[ridx, nuvar(n, k + 1):nuvar(n, k + 1) + n_x] += B[k][:, ii]
                    for j, ci in enumerate(rows):
                        ck, w, s, p, _ = constraint_rows[ci]
                        if ck == k:
                            Amat[ridx, off_lam + j] += s[ii]
        # Costate rows: nu_{n,k} = Q_n[k] x_k + q_n[k] (+ X_n[k] u_k) + A_k' nu_{n,k+1}
        #   + sum_rows w * lam   (k = 1..T; at k = T drop the A' term).
        for n in range(N):
            for k in range(1, T + 1):
                for ii in range(n_x):
                    ridx = eqi
                    eqi += 1
                    Amat[ridx, nuvar(n, k) + ii] += 1.0
                    Amat[ridx, xvar(k):xvar(k) + n_x] -= Q[n][k][ii]
                    rhs[ridx] += q[n][k][ii]
                    if X is not None:
                        Amat[ridx, off_u + k * n_u: off_u + (k + 1) * n_u] -= X[n][k][ii]
                    if k < T:
                        Amat[ridx, nuvar(n, k + 1):nuvar(n, k + 1) + n_x] -= A[k][:, ii]
                    for j, ci in enumerate(rows):
                        ck, w, s, p, _ = constraint_rows[ci]
                        if ck == k:
                            Amat[ridx, off_lam + j] -= w[ii]
        # Dynamics rows: x_{k+1} = A_k x_k + B_k u_k + b_k.
        for k in range(T):
            for ii in range(n_x):
                ridx = eqi
                eqi += 1
                Amat[ridx, xvar(k + 1) + ii] += 1.0
                Amat[ridx, off_u + k * n_u: off_u + (k + 1) * n_u] -= B[k][ii]
                if k >= 1:
                    Amat[ridx, xvar(k):xvar(k) + n_x] -= A[k][ii]
                    rhs[ridx] += b[k][ii]
                else:
                    rhs[ridx] += A[0][ii] @ x0 + b[0][ii]
        # Pinned constraint rows hold with equality.
        for ci in rows:
            ck, w, s, p, _ = constraint_rows[ci]
            ridx = eqi
            eqi += 1
            Amat[ridx, off_u + ck * n_u: off_u + (ck + 1) * n_u] += s
            if ck >= 1:
                Amat[ridx, xvar(ck):xvar(ck) + n_x] += w
            else:
                rhs[ridx] -= w @ x0
            rhs[ridx] -= p
        assert eqi == dim
        sol = np.linalg.solve(Amat, rhs)
        # one step of iterative refinement: on ill-conditioned draws the plain
        # solve leaves a natural residual of up to 1.7e-6 (seed 467, T=3)
        sol += np.linalg.solve(Amat, rhs - Amat @ sol)
        u = sol[:off_x].reshape(T + 1, n_u)
        lam = sol[off_lam:]
        traj = rollout(game, x0, u)
        # Primal feasibility of unpinned inequality rows and dual signs.
        lam_of = {ci: lam[j] for j, ci in enumerate(rows)}
        for j, ci in enumerate(rows):
            if constraint_rows[ci][4] == "ineq" and lam[j] < -tol:
                return None
        for ci in ineq_ids:
            if ci in rows:
                continue
            ck, w, s, p, _ = constraint_rows[ci]
            xk = x0 if ck == 0 else traj.states[ck]
            if w @ xk + s @ u[ck] + p > tol:
                return None
        return traj

    if active is not None:
        return attempt(tuple(active))
    for size in range(len(ineq_ids) + 1):
        for pinned in itertools.combinations(ineq_ids, size):
            res = attempt(pinned)
            if res is not None:
                return res
    raise RuntimeError("dense oracle found no consistent active set")


# ---------------------------------------------------------------------------
# Coupled Riccati recursion for unconstrained LQ feedback Nash equilibria,
# in value-function form V_n(x) = 0.5 x'Z_n x + zeta_n'x + const.
# ---------------------------------------------------------------------------


def coupled_riccati_feedback(lq, T, action_dims, state_dim):
    """Absolute-form feedback Nash gains u_k = Kabs_k x + kabs_k for k < T+1.

    Stage games are solved by stacking each player's own-block stationarity
    of its Q-function; value functions propagate through the closed loop.
    """
    N = len(action_dims)
    offsets = np.concatenate([[0], np.cumsum(action_dims)]).astype(int)
    n_x, n_u = state_dim, int(offsets[-1])
    A, B, b = lq["A"], lq["B"], lq["b"]
    Q, q, R, r = lq["Q"], lq["q"], lq["R"], lq["r"]
    Z = [Q[n][T].copy() for n in range(N)]
    zeta = [q[n][T].copy() for n in range(N)]
    # Terminal stage: actions only enter through R, r.
    S = np.zeros((n_u, n_u))
    rhs_K = np.zeros((n_u, n_x))
    rhs_k = np.zeros(n_u)
    for n in range(N):
        sl = slice(offsets[n], offsets[n + 1])
        S[sl] = R[n][T][sl]
        rhs_k[sl] = -r[n][T][sl]
    KT = np.linalg.solve(S, rhs_K)
    kT = np.linalg.solve(S, rhs_k)
    Ks, ks = [KT], [kT]
    for k in range(T - 1, -1, -1):
        S = np.zeros((n_u, n_u))
        rhs_K = np.zeros((n_u, n_x))
        rhs_k = np.zeros(n_u)
        for n in range(N):
            sl = slice(offsets[n], offsets[n + 1])
            S[sl] = R[n][k][sl] + B[k][:, sl].T @ Z[n] @ B[k]
            rhs_K[sl] = -(B[k][:, sl].T @ Z[n] @ A[k])
            rhs_k[sl] = -(r[n][k][sl] + B[k][:, sl].T @ (Z[n] @ b[k] + zeta[n]))
        K = np.linalg.solve(S, rhs_K)
        kv = np.linalg.solve(S, rhs_k)
        F = A[k] + B[k] @ K
        fvec = b[k] + B[k] @ kv
        for n in range(N):
            Zn_new = (Q[n][k] + K.T @ R[n][k] @ K + F.T @ Z[n] @ F)
            zeta_new = (q[n][k] + K.T @ (R[n][k] @ kv + r[n][k])
                        + F.T @ (Z[n] @ fvec + zeta[n]))
            Z[n] = 0.5 * (Zn_new + Zn_new.T)
            zeta[n] = zeta_new
        Ks.insert(0, K)
        ks.insert(0, kv)
    return Ks, ks


# ---------------------------------------------------------------------------
# Projected-gradient VI solver for small static parametric games.
# ---------------------------------------------------------------------------


def static_game_vi(F, P, H, x, project, rho=None, iters=200000, tol=1e-12):
    """Solve the VI with affine operator u -> Fu + Px + H over a convex set.

    ``project`` maps an action vector to the feasible set.  Plain projected
    gradient with a conservative step; runs until the fixed-point residual
    is tiny.  Independent of any KKT machinery.
    """
    if rho is None:
        L = np.linalg.norm(F, 2)
        rho = 0.5 / max(L, 1e-12)
    u = project(np.zeros(F.shape[1]))
    base = P @ x + H
    for _ in range(iters):
        un = project(u - rho * (F @ u + base))
        if np.max(np.abs(un - u)) < tol:
            return un
        u = un
    return u


# ---------------------------------------------------------------------------
# Dense equality-constrained least squares (stacked KKT).
# ---------------------------------------------------------------------------


def dense_eq_least_squares(Hdiag, target, Aeq, beq):
    """min 0.5 (z-target)' diag(Hdiag) (z-target) s.t. Aeq z = beq."""
    n = target.shape[0]
    m = Aeq.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = np.diag(Hdiag)
    K[:n, n:] = Aeq.T
    K[n:, :n] = Aeq
    rhs = np.concatenate([np.diag(Hdiag) @ target, beq])
    sol = np.linalg.solve(K, rhs)
    return sol[:n]


class DenseQp:
    """min 0.5 z'Hz + f'z s.t. Gz <= h, Aeq z = beq, held as dense arrays.

    A QP with the members of ``lq.BandedQp`` that ``denseqp.solve_qp`` reads
    (see its docstring), so that the loop runs on dense QPs, against
    exhaustive enumeration and against the same QP on the banded kernel.
    Each KKT system is stacked and solved by LAPACK, which has no
    conditioning test, so ``start`` with rows tests the reciprocal condition
    number as ``lq``'s banded kernel does.
    """

    def __init__(self, H, f, G=None, h=None, Aeq=None, beq=None):
        n = H.shape[0]
        self.H, self.f = H, np.asarray(f, dtype=float).reshape(n)
        self.G = np.zeros((0, n)) if G is None else G
        self.h = np.zeros(0) if G is None else np.asarray(h, dtype=float).reshape(-1)
        self.Aeq = None if Aeq is None or Aeq.shape[0] == 0 else Aeq
        self.beq = None if self.Aeq is None else np.asarray(beq, dtype=float).reshape(-1)
        self.size = n + self.G.shape[0]
        self.H_size = max(float(np.max(np.abs(H))), np.finfo(float).tiny)
        self.f_size = float(np.max(np.abs(self.f), initial=0.0))
        self.row_size = max(float(np.max(np.abs(M), initial=0.0)) for M in (self.G, Aeq)
                            if M is not None)

    def start(self, rows=()):
        rows = list(rows)
        if not rows:
            return self._solve(self.f, self.Aeq, self.beq)[0], np.zeros(0)
        A = np.vstack(([] if self.Aeq is None else [self.Aeq]) + [self.G[rows]])
        b = np.concatenate(([] if self.Aeq is None else [self.beq]) + [self.h[rows]])
        K = np.block([[self.H, A.T], [A, np.zeros((len(A), len(A)))]])
        if not 1.0 / np.linalg.cond(K, 1) >= len(K) * np.finfo(float).eps:  # NaN too
            raise np.linalg.LinAlgError("KKT system with the held rows is singular")
        z, lam = self._solve(self.f, A, b)
        return z, lam[len(lam) - len(rows):]

    def values(self, z):
        return self.G @ z - self.h

    def row(self, p):
        return self.G[p], float(self.h[p])

    def kkt(self, active, g):
        rows = [] if self.Aeq is None else [self.Aeq]
        A = np.vstack(rows + [self.G[active]]) if rows or active else None
        return self._solve(g, A, None if A is None else np.zeros(A.shape[0]))

    def _solve(self, f, A, b):
        """(z, lam) minimizing 0.5 z'Hz + f'z s.t. Az = b, from the stacked KKT system."""
        n = self.H.shape[0]
        if A is None:
            return np.linalg.solve(self.H, -f), np.zeros(0)
        K = np.block([[self.H, A.T], [A, np.zeros((len(A), len(A)))]])
        sol = np.linalg.solve(K, np.concatenate([-f, b]))
        return sol[:n], sol[n:]


def brute_force_qp(H, f, G, h, Aeq=None, beq=None):
    """Reference QP solve by exhaustive active-set enumeration.

    Each subset of the inequality rows is pinned together with the optional
    equality rows ``Aeq z = beq``; the feasible KKT point with nonnegative
    inequality multipliers and the least objective is returned.
    """
    n = H.shape[0]
    m = 0 if G is None else G.shape[0]
    neq = 0 if Aeq is None else Aeq.shape[0]
    best, best_val = None, np.inf
    for size in range(m + 1):
        for rows in itertools.combinations(range(m), size):
            rows = list(rows)
            if rows or neq:
                Ar = np.vstack(([Aeq] if neq else []) + ([G[rows]] if rows else []))
                br = np.concatenate(([beq] if neq else []) + ([h[rows]] if rows else []))
                if np.linalg.matrix_rank(Ar) < Ar.shape[0]:
                    continue
                K = np.block([[H, Ar.T], [Ar, np.zeros((Ar.shape[0], Ar.shape[0]))]])
                rhs = np.concatenate([-f, br])
                try:
                    sol = np.linalg.solve(K, rhs)
                except np.linalg.LinAlgError:
                    continue
                z, lam = sol[:n], sol[n + neq:]
                if np.any(lam < -1e-9):
                    continue
            else:
                try:
                    z = np.linalg.solve(H, -f)
                except np.linalg.LinAlgError:
                    continue
            if m and np.max(G @ z - h) > 1e-9:
                continue
            val = 0.5 * z @ H @ z + f @ z
            if val < best_val - 1e-15:
                best, best_val = z, val
    if best is None:
        raise RuntimeError("brute-force QP found no feasible KKT point")
    return best


def brute_force_lcp(M, q, tol=1e-9):
    """z >= 0 with w = q + Mz >= 0 and w'z = 0, by trying every support.

    Supports are tried by increasing size; one whose M_SS has not full rank
    is skipped, and the first whose z_S and w pass ``tol`` (relative to
    1 + max|q|) is returned, None when none does.
    """
    m = q.size
    scale = tol * (1.0 + np.max(np.abs(q), initial=0.0))
    for size in range(m + 1):
        for S in itertools.combinations(range(m), size):
            S = list(S)
            if S and np.linalg.matrix_rank(M[np.ix_(S, S)]) < size:
                continue
            z = np.zeros(m)
            if S:
                z[S] = np.linalg.solve(M[np.ix_(S, S)], -q[S])
            if np.all(z >= -scale) and np.all(q + M @ z >= -scale):
                return z
    return None


# ---------------------------------------------------------------------------
# Best-response gap of an affine feedback policy by dense condensing.
# ---------------------------------------------------------------------------


def dense_best_response_gap(A, B, b, C, rows, gains, offsets, ref_states, ref_actions,
                            own, start, x_start):
    """One player's best-response gap, condensed onto its own actions.

    Plain arrays: dynamics x+ = A[k] x + B[k] u + b[k]; the player's stage
    cost 0.5 z'C[k] z with z = [1, x, u]; ``rows[k]`` is (W, S, p) for the
    rows W x + S u + p <= 0, or None; the opponents follow u = ubar + K (x -
    xbar) + s with the gains, offsets and reference given, and the player's
    actions are the slice ``own``.  States and opponents' actions are carried
    as affine maps of the player's stacked actions from ``start`` to T, so
    the Hessian is dense and (T - start + 1)-square in those actions; the QP
    is solved by ``brute_force_qp``.  Returns (gap, J_policy, smallest
    eigenvalue of the condensed Hessian); the gap is NaN when that
    eigenvalue is not positive.
    """
    T = len(C) - 1
    n_x, n_u = len(x_start), len(ref_actions[0])
    d = own.stop - own.start
    x, J_policy = np.array(x_start, dtype=float), 0.0
    for k in range(start, T + 1):
        u = ref_actions[k] + gains[k] @ (x - ref_states[k]) + offsets[k]
        z = np.concatenate([[1.0], x, u])
        J_policy += 0.5 * z @ C[k] @ z
        if k < T:
            x = A[k] @ x + B[k] @ u + b[k]

    n_dec = (T - start + 1) * d
    xc, Xu = np.array(x_start, dtype=float), np.zeros((n_x, n_dec))
    Hqp, fqp, const = np.zeros((n_dec, n_dec)), np.zeros(n_dec), 0.0
    rows_G, rows_h = [], []
    for i, k in enumerate(range(start, T + 1)):
        Uc = ref_actions[k] + offsets[k] + gains[k] @ (xc - ref_states[k])
        Uu = gains[k] @ Xu
        Uc[own] = 0.0
        Uu[own] = 0.0
        Uu[own, i * d:(i + 1) * d] = np.eye(d)
        z_c = np.concatenate([[1.0], xc, Uc])
        Z_u = np.vstack([np.zeros((1, n_dec)), Xu, Uu])
        Hqp += Z_u.T @ C[k] @ Z_u
        fqp += Z_u.T @ (C[k] @ z_c)
        const += 0.5 * z_c @ C[k] @ z_c
        if rows[k] is not None:
            W, S, p = rows[k]
            rows_G.append(W @ Xu + S @ Uu)
            rows_h.append(-(W @ xc + S @ Uc + p))
        if k < T:
            xc = A[k] @ xc + B[k] @ Uc + b[k]
            Xu = A[k] @ Xu + B[k] @ Uu
    Hqp = 0.5 * (Hqp + Hqp.T)
    eigmin = float(np.min(np.linalg.eigvalsh(Hqp)))
    if eigmin <= 0.0:
        return float("nan"), J_policy, eigmin
    G = np.vstack(rows_G) if rows_G else None
    h = np.concatenate(rows_h) if rows_h else None
    dec = brute_force_qp(Hqp, fqp, G, h)
    J_best = 0.5 * dec @ Hqp @ dec + fqp @ dec + const
    return float(J_policy - J_best), J_policy, eigmin


# ---------------------------------------------------------------------------
# The fishery's stock step and the built-in games' stage projections, one
# stage at a time.
# ---------------------------------------------------------------------------


def fishery_euler_step(params, x, u):
    """The stock step as the paper writes it: x + (r/h^2 (2hx - x^2) - (q1 u1 + q2 u2) x) dt."""
    p = params
    growth = p.r / p.h**2 * (2.0 * p.h * x - x * x)
    return x + (growth - (p.q1 * u[0] + p.q2 * u[1]) * x) * p.dt


def fishery_stage_projection(params, k, x, u):
    """Stage k of the fishery projection: each effort clamped to [0, u_n_max]."""
    return x, np.array([min(max(u[0], 0.0), params.u1_max),
                        min(max(u[1], 0.0), params.u2_max)])


def rendezvous_stage_projection(params, k, x, u):
    """Stage k of the rendezvous projection.

    Each player's action block is scaled back onto the ball of radius u_max
    when it lies outside; at the meeting stage every position becomes the
    mean of the three.  The norm is sqrt(u_1^2 + u_2^2) without a fused
    multiply-add, as the game's projector takes it.
    """
    un = np.empty(6)
    for n in range(3):
        block = u[2 * n:2 * n + 2]
        nrm = float(np.sqrt(np.sum(block * block)))
        un[2 * n:2 * n + 2] = block if nrm <= params.u_max else block * (params.u_max / nrm)
    xn = np.array(x, dtype=float)
    if k == params.meet_stage:
        xn = np.tile((xn[0:2] + xn[2:4] + xn[4:6]) / 3.0, 3)
    return xn, un


# ---------------------------------------------------------------------------
# Douglas-Rachford stopping rule, every check on every iteration.
# ---------------------------------------------------------------------------


def dr_constraints_scheme_trace(game, stage_projection, eta, alpha, max_iter):
    """Per-iteration (step, constraint violation of the rollout) of DR.

    Runs the ``constraints`` scheme from zero actions, as ``dr_solve`` does,
    with the package's factored regularized-game resolvent (checked on its own
    in test_lq) and ``stage_projection(k, x, u) -> (x, u)``, a per-stage
    reference for the game's projector (such as
    ``rendezvous_stage_projection``), applied stage by stage.  The candidate
    is the projection's output; on every iteration its actions are rolled out
    through ``eval_dynamics`` from the initial state, and the largest stage-row
    violation along that rollout is evaluated one stage at a time.  The
    candidate's own states are not read: ``dr_solve`` reports and tests the
    rollout, which may break the rows where the candidate meets them.

    The points evaluated follow the safeguarded type-II Anderson scheme from
    its definition, with the package's three constants.  Each kept point
    (w, g = T(w), f = g - w) joins a list of the last ANDERSON_MEMORY + 1.
    From the ANDERSON_WARMUP-th step on, the next point is
    g - sum_i gamma_i (g_{i+1} - g_i) over consecutive kept points, gamma
    minimizing |f - sum_i gamma_i (f_{i+1} - f_i)|^2 + lam |gamma|^2 with
    lam = ANDERSON_REG * sum_i |f_{i+1} - f_i|^2, solved here by its normal
    equations with the differences as rows, oldest first.  A trial point
    whose |f|_2 exceeds that of the last kept point is not kept: the next
    point is the last kept point's image, and the list restarts from that
    point.

    The normal equations are the package's floating-point formulas.  The
    extrapolation weights reach |gamma|_1 ~ 50 on the rendezvous, so a
    different but equally exact solve, or a norm that fuses a
    multiply-add, moves the step norms by up to 1e-12 within 60 steps:
    more than rtol 1e-6 allows once the steps near a 1e-8 tolerance.

    ``eta`` is the starting weight, balanced by the package's rule and
    constants: after every BALANCE_EVERY-th step, while fewer than
    BALANCE_MAX_CHANGES changes have been made, the gap r_p = max|t - c|
    between the resolvent output t and the projection c is compared with
    r_d = max|c - c_prev| / eta, c_prev the projection one step before.
    eta is multiplied by BALANCE_FACTOR when r_d > BALANCE_RATIO * r_p and
    divided by it when r_p > BALANCE_RATIO * r_d.  On a change to eta' the
    next point is t + (eta' / eta)(g - t), the resolvent is factored at
    eta', and the list restarts empty.
    Returns an array of shape (max_iter, 2).
    """
    from dyngames.splitting import (
        ANDERSON_MEMORY,
        ANDERSON_REG,
        ANDERSON_WARMUP,
        BALANCE_EVERY,
        BALANCE_FACTOR,
        BALANCE_MAX_CHANGES,
        BALANCE_RATIO,
        resolvent_reg_game,
    )

    T = game.horizon
    wu = np.zeros((T + 1, game.total_action_dim))
    wx = rollout(game, game.initial_state, wu).states
    rows, kept, trial = [], [], False
    changes, c_prev = 0, None
    for t in range(1, max_iter + 1):
        tx, tu = resolvent_reg_game(game, wx, wu, eta)
        yx, yu = 2 * tx - wx, 2 * tu - wu
        cx, cu = np.empty_like(yx), np.empty_like(yu)
        for k in range(T + 1):
            cx[k], cu[k] = stage_projection(k, yx[k], yu[k])
        gx = (1 - alpha) * wx + alpha * (2 * cx - yx)
        gu = (1 - alpha) * wu + alpha * (2 * cu - yu)
        step = max(np.max(np.abs(gx - wx)), np.max(np.abs(gu - wu)))
        x, con = np.asarray(game.initial_state, dtype=float), 0.0
        for k in range(T + 1):
            con = max(con, np.max(game.eval_constraints(k, x, cu[k]), initial=0.0))
            if k < T:
                x = game.eval_dynamics(k, x, cu[k])
        rows.append((step, con))
        g = np.concatenate([gx.ravel(), gu.ravel()])
        f = g - np.concatenate([wx.ravel(), wu.ravel()])
        if trial and np.linalg.norm(f) > np.linalg.norm(kept[-1][1]):
            kept, trial = kept[-1:], False
            nxt = kept[-1][0]
        else:
            kept = (kept + [(g, f)])[-(ANDERSON_MEMORY + 1):]
            trial = t >= ANDERSON_WARMUP and len(kept) >= 2
            nxt = g
            if trial:
                dF = np.array([b[1] - a[1] for a, b in zip(kept, kept[1:])])
                dG = np.array([b[0] - a[0] for a, b in zip(kept, kept[1:])])
                gram = dF @ dF.T
                lam = ANDERSON_REG * np.trace(gram)
                gamma = np.linalg.solve(gram + lam * np.eye(len(dF)), dF @ f)
                nxt = g - gamma @ dG
        first = np.concatenate([tx.ravel(), tu.ravel()])
        second = np.concatenate([cx.ravel(), cu.ravel()])
        if t % BALANCE_EVERY == 0 and changes < BALANCE_MAX_CHANGES:
            r_p = np.max(np.abs(first - second))
            r_d = np.max(np.abs(second - c_prev)) / eta
            new_eta = (eta * BALANCE_FACTOR if r_d > BALANCE_RATIO * r_p
                       else eta / BALANCE_FACTOR if r_p > BALANCE_RATIO * r_d else eta)
            if new_eta != eta:
                nxt = first + (new_eta / eta) * (g - first)
                eta, changes = new_eta, changes + 1
                kept, trial = [], False
        c_prev = second
        wx = nxt[:wx.size].reshape(wx.shape)
        wu = nxt[wx.size:].reshape(wu.shape)
    return np.array(rows)


# ---------------------------------------------------------------------------
# Local derivative data, one stage and one player at a time.
# ---------------------------------------------------------------------------


def quadraticize_per_stage(game, traj, active_tol=1e-6):
    """Per-stage local derivative data along a trajectory, with the per-stage callables.

    Returns one dict per stage k = 0..T.  ``M[n]`` is player n's symmetric
    (1+n_x+n_u)-square cost expansion matrix, the scalar block twice the
    stage cost, so that ``0.5 * [1, dx, du]' M [1, dx, du]`` is the local
    Taylor expansion.  A, B, G (the symmetrized dynamics second derivatives)
    and b = f_k(x_k, u_k) - x_{k+1} are None at the terminal stage.  W, S
    and p are the constraint rows, ``active`` the indices with
    p_i >= -active_tol.
    """
    T = game.horizon
    n_x, n_u, N = game.state_dim, game.total_action_dim, game.num_players
    out = []
    for k in range(T + 1):
        x, u = traj.states[k], traj.actions[k]
        cx, cu = game.eval_cost_gradients(k, x, u)
        cxx, cxu, cuu = game.eval_cost_hessians(k, x, u)
        c = game.eval_costs(k, x, u)
        M = np.empty((N, 1 + n_x + n_u, 1 + n_x + n_u))
        for n in range(N):
            M[n, 0, 0] = 2.0 * c[n]
            M[n, 0, 1:1 + n_x] = cx[n]
            M[n, 1:1 + n_x, 0] = cx[n]
            M[n, 0, 1 + n_x:] = cu[n]
            M[n, 1 + n_x:, 0] = cu[n]
            M[n, 1:1 + n_x, 1:1 + n_x] = 0.5 * (cxx[n] + cxx[n].T)
            M[n, 1:1 + n_x, 1 + n_x:] = cxu[n]
            M[n, 1 + n_x:, 1:1 + n_x] = cxu[n].T
            M[n, 1 + n_x:, 1 + n_x:] = 0.5 * (cuu[n] + cuu[n].T)
        A = B = G = b = None
        if k < T:
            A, B = game.eval_dynamics_jacobians(k, x, u)
            G = game.eval_dynamics_hessians(k, x, u)
            G = 0.5 * (G + np.transpose(G, (0, 2, 1)))
            b = game.eval_dynamics(k, x, u) - traj.states[k + 1]
        W, S, p = game.eval_constraint_rows(k, x, u)
        out.append(dict(M=M, A=A, B=B, G=G, b=b, W=W, S=S, p=p,
                        active=np.flatnonzero(p >= -active_tol)))
    return out


# ---------------------------------------------------------------------------
# Policy rollouts and the noise comparison, one run and one stage at a time.
# ---------------------------------------------------------------------------


def feedback_rollout_per_stage(game, policy, x_start, start=0, noise=None):
    """One affine-policy rollout, stage by stage with the per-stage callables.

    Returns (states, actions, violations) with T - start + 1 rows each;
    violations are the per-stage max(g, 0) infinity norms.
    """
    T = game.horizon
    n_steps = T - start
    states = np.empty((n_steps + 1, game.state_dim))
    actions = np.empty((n_steps + 1, game.total_action_dim))
    violations = np.zeros(n_steps + 1)
    states[0] = x_start
    for i, k in enumerate(range(start, T + 1)):
        u = policy.action(k, states[i])
        actions[i] = u
        g = game.eval_constraints(k, states[i], u)
        if g.size:
            violations[i] = float(np.max(np.maximum(g, 0.0)))
        if k < T:
            nxt = game.eval_dynamics(k, states[i], u)
            if noise is not None:
                nxt = nxt + noise[i]
            states[i + 1] = nxt
    return states, actions, violations


def noise_comparison_per_run(game, olne, policy, noise_var, n_runs, seed,
                             noise_scale=1.0, violation_tol=1e-7):
    """The open-loop versus feedback noise comparison, one run at a time.

    Draws run i's disturbances from child i of ``SeedSequence(seed)``,
    replays the equilibrium actions stage by stage, counts the stages whose
    largest constraint row exceeds ``violation_tol``, and rolls the policy
    out with ``feedback_rollout_per_stage`` under the same noise.  Returns
    the four per-run arrays (open-loop and feedback deviations, open-loop
    and feedback violation counts).
    """
    T = game.horizon
    n_x = game.state_dim
    std = float(np.sqrt(noise_var)) * noise_scale
    seqs = np.random.SeedSequence(seed).spawn(n_runs)
    ol_dev = np.empty(n_runs)
    fb_dev = np.empty(n_runs)
    ol_vio = np.zeros(n_runs, dtype=int)
    fb_vio = np.zeros(n_runs, dtype=int)
    for i, s in enumerate(seqs):
        rng = np.random.default_rng(s)
        noise = std * rng.standard_normal((T, n_x))
        states = np.empty((T + 1, n_x))
        states[0] = olne.states[0]
        for k in range(T):
            states[k + 1] = game.eval_dynamics(k, states[k], olne.actions[k]) + noise[k]
        ol_dev[i] = float(np.mean(np.sum((states - olne.states) ** 2, axis=1)))
        for k in range(T + 1):
            g = game.eval_constraints(k, states[k], olne.actions[k])
            if g.size and float(np.max(g)) > violation_tol:
                ol_vio[i] += 1
        fb_states, _, violations = feedback_rollout_per_stage(
            game, policy, olne.states[0], noise=noise)
        fb_dev[i] = float(np.mean(np.sum((fb_states - olne.states) ** 2, axis=1)))
        fb_vio[i] = int(np.sum(violations > violation_tol))
    return ol_dev, fb_dev, ol_vio, fb_vio


# ---------------------------------------------------------------------------
# The stage-law check as two separate residual evaluations.
# ---------------------------------------------------------------------------

_PROBE_SEED = np.random.default_rng(0).standard_normal(512)


def two_probe_law_check(F, P, H, W, S, p, law, kkt_rtol=1e-8):
    """Whether the affine law passes the stage KKT check, probe by probe.

    At each of two fixed parameters x (consecutive slices of one seeded
    draw, so only for n_x <= 256) it forms u = K x + s and lam = lam_K x +
    lam_s, then the stationarity residual F u + P x + H + S' lam and the
    constraint residual W x + S u + p, and rejects a law whose residual
    exceeds ``kkt_rtol`` times the size of F, P and H, or is NaN.
    """
    n_x = P.shape[1]
    scale = (np.abs(F).max() + np.abs(P).max(initial=0.0)
             + np.abs(H).max(initial=0.0) + 1.0)
    for probe in range(2):
        x = _PROBE_SEED[probe * n_x:(probe + 1) * n_x]
        u = law.K @ x + law.s
        lam = law.lam_K @ x + law.lam_s
        r1 = F @ u + P @ x + H + (S.T @ lam if S.shape[0] else 0.0)
        if not np.max(np.abs(r1)) <= kkt_rtol * scale:
            return False
        if S.shape[0]:
            r2 = W @ x + S @ u + p
            if not np.max(np.abs(r2)) <= kkt_rtol * scale:
                return False
    return True


# ---------------------------------------------------------------------------
# Regularized static stage games by active-subset enumeration.
# ---------------------------------------------------------------------------


def _enumerated_stage_game(game, k, yk, zk, eta, W, S, p0, active, inner_tol,
                           inner_max_iter):
    """Newton solve of stage k's regularized game with the rows ``active`` pinned.

    Returns (x, u, mu) or None when the Newton loop fails.
    """
    n_x, n_u, N = game.state_dim, game.total_action_dim, game.num_players
    Wa, Sa, pa = W[active], S[active], p0[active]
    m = len(active)
    x, u, mu = yk.copy(), zk.copy(), np.zeros(m)
    scale = 1.0 + np.max(np.abs(np.concatenate([yk, zk])))
    for _ in range(inner_max_iter):
        cx, cu = game.eval_cost_gradients(k, x, u)
        cxx, cxu, cuu = game.eval_cost_hessians(k, x, u)
        r_u = np.empty(n_u)
        J = np.zeros((n_x + n_u + m, n_x + n_u + m))
        J[:n_x, :n_x] = eta * np.mean(cxx, axis=0) + np.eye(n_x)
        J[:n_x, n_x:n_x + n_u] = eta * np.mean(cxu, axis=0)
        for n in range(N):
            sl = game.action_slice(n)
            r_u[sl] = eta * cu[n][sl] + (u[sl] - zk[sl])
            J[n_x:n_x + n_u, :n_x][sl] = eta * cxu[n].T[sl]
            J[n_x:n_x + n_u, n_x:n_x + n_u][sl] = eta * cuu[n][sl]
        J[n_x:n_x + n_u, n_x:n_x + n_u] += np.eye(n_u)
        J[:n_x, n_x + n_u:] = Wa.T
        J[n_x:n_x + n_u, n_x + n_u:] = Sa.T
        J[n_x + n_u:, :n_x] = Wa
        J[n_x + n_u:, n_x:n_x + n_u] = Sa
        res = np.concatenate([eta * np.mean(cx, axis=0) + (x - yk) + Wa.T @ mu,
                              r_u + Sa.T @ mu, Wa @ x + Sa @ u + pa])
        if np.max(np.abs(res)) <= inner_tol * scale:
            return x, u, mu
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            return None
        x = x + step[:n_x]
        u = u + step[n_x:n_x + n_u]
        mu = mu + step[n_x + n_u:]
    return None


def static_games_by_enumeration(game, y, z, eta, inner_tol=1e-10, inner_max_iter=50):
    """Every stage's regularized constrained static game, by trying active subsets.

    Stage k's game is over (x_k, u_k): the state row is the mean of the
    players' state gradients, each action row its owner's own-action
    gradient, both plus the prox term toward (y_k, z_k), subject to the
    stage's affine rows.  Subsets are tried by increasing size; a subset is
    skipped when its rows are linearly dependent, and accepted when its
    Newton solve converges with multipliers >= 0 and every row satisfied
    (both to 1e-8 relative).  Exponential in the number of rows; returns
    None for a stage no subset solves.
    """
    n_x, n_u = game.state_dim, game.total_action_dim
    xs, us = np.empty_like(y, dtype=float), np.empty_like(z, dtype=float)
    for k in range(game.horizon + 1):
        zx, zu = np.zeros(n_x), np.zeros(n_u)
        W, S, p0 = game.eval_constraint_rows(k, zx, zu)
        m = p0.size
        scale = 1.0 + np.max(np.abs(np.concatenate([y[k], z[k]])))
        found = None
        for size in range(m + 1):
            for active in itertools.combinations(range(m), size):
                active = list(active)
                if active and np.linalg.matrix_rank(
                        np.hstack([W[active], S[active]])) < size:
                    continue
                sol = _enumerated_stage_game(game, k, y[k], z[k], eta, W, S, p0,
                                             active, inner_tol, inner_max_iter)
                if sol is None:
                    continue
                x, u, mu = sol
                if mu.size and np.min(mu) < -1e-8 * scale:
                    continue
                if np.max(W @ x + S @ u + p0, initial=-np.inf) > 1e-8 * scale:
                    continue
                found = x, u
                break
            if found is not None:
                break
        if found is None:
            return None
        xs[k], us[k] = found
    return xs, us


# ---------------------------------------------------------------------------
# Piecewise-quadratic games: does a candidate solve every piece it lies in?
# ---------------------------------------------------------------------------


def solves_all_active_pieces(piece_games, x, u, vi_residual_tol=1e-7):
    """Test predicate for piecewise-quadratic games given by polyhedral pieces.

    A candidate joint action solves the overall game at parameter x exactly
    when it solves the inequality-constrained quadratic game of every piece
    whose polyhedron contains (x, u).  Each piece check verifies the
    stationarity-with-multiplier conditions of the piece's quadratic game.
    """
    hit_any = False
    for piece in piece_games:
        g = piece.W @ x + piece.S @ u + piece.p
        if np.max(g, initial=-np.inf) > vi_residual_tol:
            continue
        hit_any = True
        F, P, H = piece.stationarity_blocks()
        grad = F @ u + P @ x + H
        act = np.flatnonzero(g >= -1e-7)
        if act.size == 0:
            if np.max(np.abs(grad)) > vi_residual_tol * (1 + np.abs(grad).max(initial=0.0)):
                return False
            continue
        Sa = piece.S[act]
        # -grad must lie in the cone of the active rows: nonnegative lstsq fit.
        lam, resid = nnls(Sa.T, -grad)
        if resid > vi_residual_tol * (1.0 + np.linalg.norm(grad)):
            return False
    return hit_any


# ---------------------------------------------------------------------------
# Regularized-game resolvent by feedback-Newton passes on a wrapped game.
# ---------------------------------------------------------------------------


def regularized_game(game, y, z, eta):
    """Game with costs eta*c_{n,k} + 0.5(|x_k - y_k|^2 + |u_k - z_k|^2), no constraints.

    Stationarity of this game is the resolvent condition of the scaled game
    operator at (y, z); it keeps the game's per-stage dynamics and drops
    every whole-trajectory hook.
    """
    from dyngames.model import GameDefinition

    n_x, n_u = game.state_dim, game.total_action_dim
    base_c, base_g, base_h = game.eval_costs, game.eval_cost_gradients, game.eval_cost_hessians

    def costs(k, x, u):
        return eta * base_c(k, x, u) + 0.5 * (np.sum((x - y[k]) ** 2) + np.sum((u - z[k]) ** 2))

    def grads(k, x, u):
        cx, cu = base_g(k, x, u)
        return eta * cx + (x - y[k]), eta * cu + (u - z[k])

    def hess(k, x, u):
        cxx, cxu, cuu = base_h(k, x, u)
        return eta * cxx + np.eye(n_x), eta * cxu, eta * cuu + np.eye(n_u)

    return GameDefinition(
        horizon=game.horizon, state_dim=n_x, action_dims=game.action_dims,
        initial_state=game.initial_state, dynamics=game.dynamics, stage_costs=costs,
        dynamics_jacobians=game.dynamics_jacobians,
        dynamics_hessians=game.dynamics_hessians,
        cost_gradients=grads, cost_hessians=hess, linear_dynamics=game.linear_dynamics)


def resolvent_by_feedback_newton(game, y, z, eta, tol=1e-10, max_iter=300):
    """Equilibrium of ``regularized_game`` by feedback-Newton passes, from z.

    Each pass runs the unconstrained stagewise Newton backward pass around
    the current trajectory and re-rolls the dynamics under its affine
    feedback correction; the passes stop once the stacked pseudo-gradient
    of the regularized game is at most tol * (1 + max|z|).  Raises
    RuntimeError after max_iter passes.  Returns (states, actions, passes).
    """
    from dyngames.feedback import feedback_rollout, stagewise_newton_backward
    from dyngames.gradient import pseudo_gradient

    reg = regularized_game(game, y, z, eta)
    traj = rollout(reg, reg.initial_state, z)
    scale = 1.0 + float(np.max(np.abs(traj.actions), initial=0.0))
    for it in range(max_iter):
        policy = stagewise_newton_backward(reg, traj)
        traj = feedback_rollout(reg, policy, traj.states[0]).trajectory
        resid = np.max(np.abs(pseudo_gradient(reg, traj, feas_tol=np.inf).stacked), initial=0.0)
        if resid <= tol * scale:
            return traj.states, traj.actions, it + 1
    raise RuntimeError(f"feedback-Newton passes did not converge (residual {resid:.3e})")


# ---------------------------------------------------------------------------
# Polyhedron emptiness by a phase-1 linear program.
# ---------------------------------------------------------------------------


def region_phase_one_lp(L, l):
    """min t s.t. Lx + l <= t over the box |x|, |t| <= 1e6, by HiGHS.

    Returns (t, x) at the optimum; {x : Lx + l <= tol} is nonempty inside the
    box exactly when t <= tol.  Raises RuntimeError when the LP fails.
    """
    from scipy.optimize import linprog

    n = L.shape[1]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.hstack([L, -np.ones((L.shape[0], 1))]), b_ub=-l,
                  bounds=[(-1e6, 1e6)] * (n + 1), method="highs")
    if not res.success:
        raise RuntimeError(f"phase-1 LP failed: {res.message}")
    return float(res.fun), res.x[:n]


# ---------------------------------------------------------------------------
# The stagewise Newton pass on augmented [1, dx, du] stage matrices.
# ---------------------------------------------------------------------------


def augmented_newton_backward(game, traj, stage_reg=0.0):
    """Gains (T+1, n_u, n_x) and offsets (T+1, n_u) of the augmented recursion.

    Every player's stage expansion is the (1+n_x+n_u)-square matrix M with
    ``0.5 [1, dx, du]' M [1, dx, du]`` the Taylor expansion of its stage
    cost (the scalar entry twice the cost), and its value function the
    (1+n_x)-square matrix Lam of ``0.5 [1, dx]' Lam [1, dx]``, updated by
    the congruence with [[1, s'], [0, K']].  Linear terms come from the
    costates.  The stage data is ``quadraticize``'s, the stage costs
    ``eval_traj_costs``'s, and the stage games are solved by
    ``solve_stage_kkt``, which its own tests check.
    """
    data = quadraticize(game, traj)
    T = game.horizon
    N, n_x, n_u = game.num_players, game.state_dim, game.total_action_dim
    nz = 1 + n_x + n_u
    ix, iu = slice(1, 1 + n_x), slice(1 + n_x, nz)
    c = 2.0 * game.eval_traj_costs(traj.states, traj.actions).T[..., None, None]
    g = data.c[..., None, :]
    M = np.block([[c, g], [g.swapaxes(2, 3), data.C]])
    AB = np.concatenate([data.A, data.B], axis=2)
    left = np.zeros((1 + n_x, nz))
    left[0, 0] = 1.0
    left[1:, ix] = np.eye(n_x)
    own_rows = 1 + n_x + np.arange(n_u)
    lam = np.zeros((N, T + 2, 1 + n_x, 1 + n_x))
    omega = np.zeros((N, T + 2, n_x))
    gains, offsets = np.zeros((T + 1, n_u, n_x)), np.zeros((T + 1, n_u))
    for k in range(T, -1, -1):
        G = M[:, k].copy()
        if k < T:
            ln, om = lam[:, k + 1], omega[:, k + 1]
            pull = om @ AB[k]
            G[:, 0, 0] += ln[:, 0, 0]
            G[:, 0, 1:] += pull
            G[:, 1:, 0] += pull
            G[:, 1:, 1:] += (AB[k].T @ ln[:, 1:, 1:] @ AB[k]
                             + np.einsum("ni,iab->nab", om, data.G[k]))
        gamma = 0.5 * (G + G.swapaxes(1, 2))
        own = gamma[game.owner, own_rows]
        act = data.active[k]
        Wa = data.rows.W[k, act]
        law = solve_stage_kkt(own[:, iu] + stage_reg * np.eye(n_u), own[:, ix], own[:, 0],
                              Wa, data.rows.S[k, act], data.rows.p[k, act], stage=k)
        left[0, iu] = law.s
        left[1:, iu] = law.K.T
        ln = left @ gamma @ left.T
        lam[:, k] = 0.5 * (ln + ln.swapaxes(1, 2))
        omega[:, k] = data.c[:, k, :n_x]
        if k < T:
            omega[:, k] += omega[:, k + 1] @ data.A[k]
        if Wa.shape[0]:
            omega[:, k] += law.lam_s @ Wa
        gains[k], offsets[k] = law.K, law.s
    return gains, offsets


def stagewise_newton_backward_per_stage(game, traj, stage_reg=0.0):
    """Gains (T+1, n_u, n_x) and offsets (T+1, n_u) of the pass, one stage at a time.

    The stagewise Newton pass as it was written before its checks were
    batched: every stage gathers its active rows, and ``solve_stage_kkt``
    tests their rank, solves the stage system and tests its residual before
    the next stage starts, so the first failing stage from T down raises.
    The package's pass must give the same arrays bit for bit and raise the
    same error.
    """
    data = quadraticize(game, traj)
    T = game.horizon
    N, n_x, n_u = game.num_players, game.state_dim, game.total_action_dim
    nz = n_x + n_u
    C, grads = data.C, data.c
    AB = np.concatenate([data.A, data.B], axis=2)
    own_rows = n_x + np.arange(n_u)
    GG = data.G.reshape(T, n_x, nz * nz)
    rows, W, S = data.rows, data.rows.W, data.rows.S
    eye, reg = np.eye(n_x), stage_reg * np.eye(n_u)
    P, om = np.zeros((N, n_x, n_x)), np.zeros((N, n_x))
    gains, offsets = np.empty((T + 1, n_u, n_x)), np.empty((T + 1, n_u))
    for k in range(T, -1, -1):
        Gam, grad = C[:, k], grads[:, k]
        if k < T:
            grad = grad + om @ AB[k]
            Gam = Gam + (AB[k].T @ P @ AB[k] + (om @ GG[k]).reshape(N, nz, nz))
        Gam = 0.5 * (Gam + Gam.swapaxes(1, 2))
        own = Gam[game.owner, own_rows]
        act = data.active[k]
        Wa, Sa, pa = W[k, act], S[k, act], rows.p[k, act]
        law = solve_stage_kkt(own[:, n_x:] + reg, own[:, :n_x], grad[game.owner, own_rows],
                              Wa, Sa, pa, stage=k)
        L = np.vstack([eye, law.K])
        P = L.T @ Gam @ L
        P = 0.5 * (P + P.swapaxes(1, 2))
        om = grads[:, k, :n_x] + om @ data.A[k] if k < T else grads[:, k, :n_x]
        if Wa.shape[0]:
            om = om + law.lam_s @ Wa
        gains[k], offsets[k] = law.K, law.s
    return gains, offsets
