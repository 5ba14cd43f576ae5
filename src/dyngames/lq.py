"""Open-loop equilibria of linear-quadratic games: factor once, solve many.

Player n's stage cost is 0.5 x'Q x + q'x + x'X u + 0.5 u'R u + r'u (data
indexed ``Q[n, k]``) and the dynamics are x+ = A_k x + B_k u + b_k from a
pinned initial state.  The open-loop equilibrium solves one linear system,
the stacked KKT conditions of all players (Di and Lamperski,
arXiv:1906.09097; ALGAMES, arXiv:1910.09713), laid out in T+1 blocks of
n_x + n_u + N n_x.  Block k of the unknowns is x_k, u_k and every player's
costate lambda_{n,k+1}, with lambda_{n,T+1} = 0 carried as a padded unknown
so that the solution reshapes to (T+1, block).  Block k of the rows is the
pin of x_0 (k = 0) or the dynamics into x_k, the stationarity of each
player's own actions u_{n,k}, and each player's stationarity in x_{k+1}
(lambda_{n,T+1} = 0 at k = T).  Rows touch only their own and the
neighbouring blocks, so the matrix is banded, with block + n_x - 1
diagonals on either side of the main one.  The data is
``model.LqGameData``, the layout ``model.quadraticize`` reads around a
trajectory; ``extract_lq_data`` reads it at the origin.

``factor`` assembles the matrix in LAPACK band storage and factors it once
with partial pivoting (``dgbtrf``).  ``LqFactor.solve(y, z)`` shifts every
player's linear terms to q_{n,k} - y_k and r_{n,k} - z_k, which moves only
the right-hand side, and runs one banded solve (``dgbtrs``).  Memory is
O(bandwidth * T), the bandwidth independent of the horizon.

The system is solved whole, so a singular stage matrix of the backward
Riccati recursion is harmless when the system is regular.  A singular
system raises StageSingularityError: at a zero pivot, naming its stage, or
when the 1-norm reciprocal condition estimate is below n eps (n the system
size), naming the stage of the largest entry of one inverse-iteration step.
A singular stage-0 matrix with the pinned x_0 is such a case.

``regularized_factor(data, eta)`` factors the game with costs eta c_{n,k}
+ 0.5 |x_k - y_k|^2 + 0.5 |u_k - z_k|^2, whose equilibrium is the resolvent
of the scaled game operator at (y, z).  ``factor(game, eta)`` applies it to
a declared linear-quadratic game, each Newton step of
``splitting.resolvent_reg_game`` to a local LQ game.  At eta = 0 it is the
Euclidean projection onto the trajectories of the dynamics.

``solve_pinned`` holds chosen affine stage rows W_k x_k + S_k u_k + p_k = 0
with one multiplier per row, shared by all players, in the same band: stage
k's rows and multipliers lead block k, padded to the largest row count with
rows that pin the spare multipliers to zero, so the bandwidth grows by that
count and the cost stays O(T).  It is the kernel of the active-set polish
(``certificate.ActiveSetPolish``).

The same factor solves every QP over a whole stacked trajectory
(``BandedQp``), holding ``denseqp.solve_qp``'s active rows pinned.  The
projections (``project``) and the best response of
``feedback.epsilon_nash_gap`` cost O(T) per active-set step.  A solve reads
a game once, at the origin: its rows (``padded_rows``) and its data
(``extract_lq_data``, or ``dynamics_data`` for linear dynamics only).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from . import denseqp
from .errors import StageSingularityError, UnsupportedConstraintError
from .model import (
    GameDefinition,
    LqGameData,
    PaddedRows,
    Trajectory,
    linearize_dynamics,
    local_lq,
    read_rows,
)

Array = np.ndarray


def extract_lq_data(game: GameDefinition) -> LqGameData:
    """The data of a declared linear-quadratic game: its local LQ data at the origin."""
    if not (game.linear_dynamics and game.quadratic_costs):
        raise ValueError("game is not declared linear-quadratic")
    return local_lq(game, *_origin(game))


def dynamics_data(game: GameDefinition) -> LqGameData:
    """The game's linear dynamics at the origin, with costs 0.5 |x|^2 + 0.5 |u|^2.

    One player holds every action: the data of ``factor(game, 0)``.  Raises
    UnsupportedConstraintError unless the game declares linear dynamics.
    """
    if not game.linear_dynamics:
        raise UnsupportedConstraintError("dynamics projection requires linear dynamics")
    return _prox_data(*linearize_dynamics(game, *_origin(game)), game.initial_state, 1.0,
                      *_origin(game))


def _origin(game: GameDefinition) -> tuple[Array, Array]:
    """Zero states (T+1, n_x) and actions (T+1, n_u)."""
    T1 = game.horizon + 1
    return np.zeros((T1, game.state_dim)), np.zeros((T1, game.total_action_dim))


@dataclass(frozen=True)
class LqFactor:
    """The banded LU of one LQ game's stacked KKT matrix (module docstring).

    ``eta`` records the regularization weight of a factor built by
    ``factor``; it is None for a factor of a plain LQ game.  ``rows`` is the
    number of pinned-row multipliers leading every block (``solve_pinned``).
    """

    lu: Array     # (2 kl + ku + 1, (T+1) * block) LU factors in LAPACK band storage
    piv: Array    # row interchanges of the LU
    kl: int
    ku: int
    rhs: Array    # (T+1, block) right-hand side without prox centres
    spread: Array  # (n_u + n_x, block): (z_k, y_{k+1}) -> their rows in block k
    initial_state: Array
    action_dim: int
    eta: Optional[float] = None
    rows: int = 0

    def solve(self, y: Optional[Array] = None,
              z: Optional[Array] = None) -> tuple[Array, Array]:
        """Equilibrium with linear terms q_{n,k} - y_k and r_{n,k} - z_k.

        ``y`` is (T+1, n_x), ``z`` (T+1, n_u); either may be omitted (no
        shift).  One banded solve: O(T) time and memory.  Returns the states
        and actions, views into its one solution array.
        """
        return self._split(self._blocks(y, z))

    def _blocks(self, y: Optional[Array], z: Optional[Array]) -> Array:
        """The solution, one block of unknowns per stage: (T+1, block)."""
        n_x, n_u = self.initial_state.size, self.action_dim
        shift = np.zeros((self.rhs.shape[0], n_u + n_x))
        if z is not None:
            shift[:, :n_u] = z
        if y is not None:
            shift[:-1, n_u:] = np.asarray(y, dtype=float)[1:]
        rhs = self.rhs + shift @ self.spread  # one product: cheaper than strided adds
        sol, _ = lapack.dgbtrs(self.lu, self.kl, self.ku, rhs.reshape(-1, 1), self.piv,
                               overwrite_b=True)
        sol = sol.reshape(self.rhs.shape)
        # x_0 pinned exactly, whatever the pivoting did
        sol[0, self.rows:self.rows + n_x] = self.initial_state
        return sol

    def _split(self, sol: Array) -> tuple[Array, Array]:
        ix = self.rows
        iu = ix + self.initial_state.size
        return sol[:, ix:iu], sol[:, iu:iu + self.action_dim]


def _inverse_norm(lu: Array, kl: int, ku: int, piv: Array) -> float:
    """Estimate of |A^{-1}|_1 from A's banded LU by Hager's method as dlacn2 runs it.

    Each solve is one ``dgbtrs``, O(n (kl + ku)) (Higham, ACM TOMS 14, 1988);
    ``dgbcon``'s overflow-guarded solves turn O(n^2) on long horizons.
    """
    n = lu.shape[1]
    x, est = np.full((n, 1), 1.0 / n), 0.0
    for _ in range(5):
        y, _ = lapack.dgbtrs(lu, kl, ku, x, piv)
        if not np.abs(y).sum() > est:
            break
        est = float(np.abs(y).sum())
        z, _ = lapack.dgbtrs(lu, kl, ku, np.where(y >= 0, 1.0, -1.0), piv, trans=1)
        j = int(np.argmax(np.abs(z)))
        if abs(z[j, 0]) <= float(z[:, 0] @ x[:, 0]):
            break
        x = np.where(np.arange(n)[:, None] == j, 1.0, 0.0)
    alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / max(n - 1, 1))
    y, _ = lapack.dgbtrs(lu, kl, ku, alt[:, None], piv)
    return float(np.max([est, 2.0 * np.abs(y).sum() / (3 * n)]))  # NaN propagates


def _kkt_factor(data: LqGameData, eta: Optional[float] = None,
                pinned: Optional[tuple[Array, Array, Array, Array]] = None) -> LqFactor:
    """Assemble the stacked KKT matrix of ``data`` and factor it.

    ``pinned`` = (W, S, p, held) adds m rows W_k x_k + S_k u_k + p_k = 0 to
    every block k, W (T+1, m, n_x), S (T+1, m, n_u) and p (T+1, m); only
    the rows where ``held`` (T+1, m) is set are real, and W, S and p are
    zero in the others, which pin their multiplier to zero.  The
    multipliers lead each block (``LqFactor.rows``).
    Raises StageSingularityError as the module docstring describes.
    """
    N, T1, n_x = data.Q.shape[:3]
    T, n_u = T1 - 1, data.R.shape[-1]
    m = 0 if pinned is None else pinned[3].shape[1]
    ix, iu = m, m + n_x  # offsets of x_k and u_k in a block
    lam, nb = iu + n_u, iu + n_u + N * n_x  # offset of the costates in a block, block size
    n = T1 * nb
    owner, own = np.repeat(np.arange(N), data.action_dims), np.arange(n_u)
    rhs = np.zeros((T1, nb))
    rhs[0, ix:iu] = data.initial_state
    rhs[1:, ix:iu] = data.b
    rhs[:, iu:lam] = -data.r[owner, :, own].T
    rhs[:T, lam:] = -data.q[:, 1:].swapaxes(0, 1).reshape(T, N * n_x)
    spread = np.zeros((n_u + n_x, nb))  # every player's stationarity in x_{k+1} gets y_{k+1}
    spread[:n_u, iu:lam] = np.eye(n_u)
    spread[n_u:, lam:] = np.tile(np.eye(n_x), N)
    kl = ku = nb + n_x - 1
    ldab = 2 * kl + ku + 1
    # LAPACK band storage puts entry (i, j) at row kl + ku + i - j of column j.
    # D[k, a, c] views it as row a of block k against column c of blocks k-1,
    # k and k+1, with one spare block on either side.  Entries outside the
    # band alias others, so only blocks inside the band are written.
    band = np.zeros((ldab, n + 2 * nb), order="F")
    D = np.lib.stride_tricks.as_strided(
        band[kl + ku + nb:], shape=(T1, nb, 3 * nb),
        strides=(band.itemsize * nb * ldab, band.itemsize, band.itemsize * (ldab - 1)))
    D[:, ix:iu, nb + ix:nb + iu] = np.eye(n_x)
    D[1:, ix:iu, ix:lam] = -np.concatenate([data.A, data.B], axis=2)
    XR = np.concatenate([data.X.swapaxes(2, 3), data.R], axis=3)  # (N, T+1, n_u, n_x + n_u)
    D[:, iu:lam, nb + ix:nb + lam] = np.moveaxis(XR[owner, :, own], 0, 1)
    lam_cols = nb + lam + owner[:, None] * n_x + np.arange(n_x)
    D[:T, iu + own[:, None], lam_cols] = data.B.swapaxes(1, 2)
    diag = np.arange(lam, nb)
    D[:, diag, nb + diag] = -1.0
    QX = np.concatenate([data.Q, data.X], axis=3)[:, 1:]  # (N, T, n_x, n_x + n_u)
    D[:T, lam:, 2 * nb + ix:2 * nb + lam] = QX.swapaxes(0, 1).reshape(T, N * n_x, n_x + n_u)
    rows = (lam + np.arange(N)[:, None] * n_x + np.arange(n_x))[..., None]
    D[:T - 1, rows, 2 * nb + rows.swapaxes(1, 2)] = data.A[1:, None].swapaxes(2, 3)
    if m:
        # the held rows of stage k, and mu_k in every player's stationarity in
        # its own u_k (block k) and in x_k (block k-1); x_0 is pinned instead
        W, S, p, held = pinned
        rhs[:, :m] = -p
        D[:, :m, nb + ix:nb + lam] = np.concatenate([W, S], axis=2)
        D[:, np.arange(m), nb + np.arange(m)] = ~held
        D[:, iu:lam, nb:nb + m] = S.swapaxes(1, 2)
        D[:T, lam:, 2 * nb:2 * nb + m] = np.tile(W[1:].swapaxes(1, 2), (1, N, 1))
    band = band[:, nb:nb + n]
    anorm = float(np.max(np.abs(band[kl:]).sum(axis=0)))  # rows above kl are LU workspace
    lu, piv, info = lapack.dgbtrf(band, kl, ku, overwrite_ab=True)
    if info > 0:
        raise StageSingularityError(
            (info - 1) // nb, "the open-loop KKT matrix is singular (zero pivot)")
    rcond = 1.0 / (anorm * _inverse_norm(lu, kl, ku, piv))
    if not rcond >= n * np.finfo(float).eps:  # NaN too
        v, _ = lapack.dgbtrs(lu, kl, ku, np.ones((n, 1)), piv)  # inverse iteration
        raise StageSingularityError(
            int(np.argmax(np.abs(v))) // nb,
            f"the open-loop KKT matrix is numerically singular (rcond {rcond:.1e})")
    return LqFactor(lu=lu, piv=piv, kl=kl, ku=ku, rhs=rhs, spread=spread,
                    initial_state=np.asarray(data.initial_state, dtype=float),
                    action_dim=n_u, eta=eta, rows=m)


def regularized_factor(data: LqGameData, eta: float) -> LqFactor:
    """Factor of the game ``data`` regularized with weight eta.

    Every player's costs become eta c_{n,k} + 0.5 |x_k|^2 + 0.5 |u_k|^2;
    ``LqFactor.solve(y, z)`` then shifts the prox centres to (y, z).
    """
    n_x, n_u = data.A.shape[1], data.B.shape[2]
    return _kkt_factor(replace(data, Q=eta * data.Q + np.eye(n_x), X=eta * data.X,
                               R=eta * data.R + np.eye(n_u), q=eta * data.q,
                               r=eta * data.r), eta)


def factor(game: GameDefinition, eta: float, data: Optional[LqGameData] = None) -> LqFactor:
    """Factor of the game regularized with weight eta (see the module docstring).

    eta > 0 requires a declared linear-quadratic game; eta = 0 (the dynamics
    projection) requires declared linear dynamics only.  ``data`` is the
    solve's read (``extract_lq_data``, or ``dynamics_data`` at eta = 0).
    """
    if not eta >= 0:  # rejects NaN too
        raise ValueError(f"regularization must be nonnegative, got {eta}")
    if eta > 0:
        return regularized_factor(extract_lq_data(game) if data is None else data, eta)
    data = dynamics_data(game) if data is None else data
    # the prox terms alone; LqFactor.solve shifts their centres
    return _kkt_factor(_prox_data(data.A, data.B, data.b, data.initial_state, 1.0,
                                  *_origin(game)), 0.0)


def solve_pinned(data: LqGameData, W: Array, S: Array, p: Array,
                 pinned: Array) -> tuple[Trajectory, Array]:
    """Open-loop equilibrium with the ``pinned`` rows held as equalities.

    W (T+1, m, n_x), S (T+1, m, n_u) and p (T+1, m) hold every stage's rows
    W_k x_k + S_k u_k + p_k <= 0 (padded to a common count m), ``pinned``
    (T+1, m) the rows held at zero.  Each held row gets one multiplier mu,
    shared by all players: mu' S_k enters every player's stationarity in its
    own u_k and mu' W_k every player's in x_k (the variational equilibrium).
    The rows join the stacked KKT system in band: stage k's held rows and
    their multipliers lead block k, padded to the largest held count.
    Returns the trajectory and mu (T+1, m), zero off the held rows.  Raises
    StageSingularityError when the system is singular, as for dependent
    held rows.
    """
    fac, sol, mu = _pinned_solve(data, W, S, p, pinned)
    return Trajectory(*fac._split(sol)), mu


def _pinned_solve(data: LqGameData, W: Array, S: Array, p: Array,
                  pinned: Array) -> tuple[LqFactor, Array, Array]:
    """``solve_pinned``'s factor, its solution blocks and mu (T+1, m)."""
    ks, rs = np.nonzero(pinned)
    slot = (np.cumsum(pinned, axis=1) - 1)[ks, rs]  # held rows first, in order
    m = int(slot.max(initial=-1)) + 1
    held = np.zeros((pinned.shape[0], m), dtype=bool)
    held[ks, slot] = True
    rows = [np.zeros((pinned.shape[0], m) + a.shape[2:]) for a in (W, S, p)]
    for full, packed in zip((W, S, p), rows):
        packed[ks, slot] = full[ks, rs]
    fac = _kkt_factor(data, pinned=(*rows, held))
    sol = fac._blocks(None, None)
    mu = np.zeros(pinned.shape)
    mu[ks, rs] = sol[ks, slot]
    return fac, sol, mu


def padded_rows(game: GameDefinition) -> PaddedRows:
    """The game's rows read at the origin; UnsupportedConstraintError unless declared affine."""
    if not (game.constraints is None or game.polyhedral_constraints):
        raise UnsupportedConstraintError("the stage rows are not declared affine")
    return read_rows(game, *_origin(game))


def project(rows: PaddedRows, data: LqGameData, y: Array, z: Array,
            state_weight: float) -> Trajectory:
    """The trajectory meeting every row closest to (y, z) in w |x - y|^2 + |u - z|^2.

    Only the dynamics and initial state of ``data`` are read.  One ``BandedQp``.
    """
    prox = _prox_data(data.A, data.B, data.b, data.initial_state, float(state_weight),
                      np.asarray(y, dtype=float), np.asarray(z, dtype=float))
    return BandedQp(prox, rows.W, rows.S, rows.p, rows.real).solve()


class BandedQp:
    """A QP over one player's stacked trajectory, for ``denseqp.solve_qp``.

    It minimizes the cost of ``data`` (one player holding every action) over
    v = (x_0, u_0, ..., x_T, u_T) subject to its dynamics, the rows marked
    ``held`` as equalities and those marked ``real`` as inequalities (W, S
    and p as in ``model.PaddedRows``, numbered stage by stage).  An active set's
    KKT system is one ``_kkt_factor`` with the held and active rows pinned,
    O(T); its multipliers are x_0's pin's, the costates and the rows' mu.
    """

    def __init__(self, data: LqGameData, W: Array, S: Array, p: Array, real: Array,
                 held: Optional[Array] = None):
        self.data, self.W, self.S, self.p, self.real = data, W, S, p, real
        self.held = np.zeros_like(real) if held is None else held
        self.G = np.concatenate([W, S], axis=2)  # (T+1, m, n_x + n_u)
        self.n_x, self.n_v = W.shape[2], self.G.shape[2]
        self.size = W.shape[0] * self.n_v + int(real.sum())
        self.H_size = max(_max_abs(data.Q, data.X, data.R), np.finfo(float).tiny)
        self.f_size = _max_abs(data.q, data.r)
        self.row_size = _max_abs(np.ones(1), data.A, data.B, self.G)  # 1: x_0's pin
        # a step's KKT system: no offsets, the linear term of the step's row
        self.homogeneous = replace(data, b=np.zeros_like(data.b),
                                   initial_state=np.zeros(self.n_x))

    def start(self) -> Array:
        fac, sol, _ = _pinned_solve(self.data, self.W, self.S, self.p, self.held)
        return sol[:, fac.rows:fac.rows + self.n_v].ravel()

    def values(self, v: Array) -> Array:
        vals = np.einsum("kmi,ki->km", self.G, v.reshape(-1, self.n_v)) + self.p
        vals[~self.real] = -np.inf
        return vals.ravel()

    def row(self, p: int) -> tuple[Array, float]:
        k, i = divmod(p, self.p.shape[1])
        g = np.zeros((self.G.shape[0], self.n_v))
        g[k] = self.G[k, i]
        return g.ravel(), -float(self.p[k, i])

    def kkt(self, active: list[int], g: Array) -> tuple[Array, Array]:
        pinned = self.held.copy()
        pinned.flat[active] = True
        g, n_x, n_v = g.reshape(-1, self.n_v), self.n_x, self.n_v
        data = replace(self.homogeneous, q=g[None, :, :n_x], r=g[None, :, n_x:])
        fac, sol, mu = _pinned_solve(data, self.W, self.S, np.zeros_like(self.p), pinned)
        s, lam = sol[:, fac.rows:fac.rows + n_v], sol[:, fac.rows + n_v:]  # lam_{k+1}
        # x_0's pin closes the stationarity in x_0, which the band leaves out
        pin = g[0, :n_x] + self.data.X[0, 0] @ s[0, n_x:] + self.W[0].T @ mu[0]
        pin = pin + (self.data.A[0].T @ lam[0] if len(self.data.A) else 0.0)
        return s.ravel(), np.concatenate([pin, lam.ravel(), mu[self.held], mu.flat[active]])

    def solve(self) -> Trajectory:
        """The minimizer, as states and actions."""
        v = denseqp.solve_qp(self)[0].reshape(-1, self.n_v)
        return Trajectory(v[:, :self.n_x], v[:, self.n_x:])


def _max_abs(*arrays: Array) -> float:
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def _prox_data(A: Array, B: Array, b: Array, initial_state: Array, state_weight: float,
               y: Array, z: Array) -> LqGameData:
    """One player holding every action, with costs 0.5 w |x - y|^2 + 0.5 |u - z|^2."""
    (T1, n_x), n_u, w = y.shape, z.shape[1], state_weight
    return LqGameData(A, B, b, Q=np.broadcast_to(w * np.eye(n_x), (1, T1, n_x, n_x)),
                      X=np.zeros((1, T1, n_x, n_u)),
                      R=np.broadcast_to(np.eye(n_u), (1, T1, n_u, n_u)),
                      q=-w * y[None], r=-z[None], action_dims=(n_u,),
                      initial_state=np.asarray(initial_state, dtype=float))


def solve_lq_open_loop(data: LqGameData) -> Trajectory:
    """Exact open-loop equilibrium of a linear-quadratic game by one banded solve."""
    return Trajectory(*_kkt_factor(data).solve())
