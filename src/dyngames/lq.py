"""Open-loop equilibria of linear-quadratic games: factor once, solve many.

Player n's stage cost is c'z + 0.5 z'C z over z = (x, u) (data indexed
``C[n, k]``) and the dynamics are x+ = A_k x + B_k u + b_k from a
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
player's linear terms c_{n,k} by -(y_k, z_k), which moves only
the right-hand side, and runs one banded solve (``dgbtrs``).  Both routines
come from scipy's LAPACK extension, loaded without ``scipy.linalg``
(``_lapack``).  Memory is O(bandwidth * T), the bandwidth independent of
the horizon.

The system is solved whole, so a singular stage matrix of the backward
Riccati recursion is harmless when the system is regular.  A singular
system raises StageSingularityError: at a zero pivot, naming its stage, or
when the 1-norm reciprocal condition estimate is below n eps (n the system
size), naming the stage of the largest entry of one inverse-iteration step.
A singular stage-0 matrix with the pinned x_0 is such a case.

``regularized_factor(data, eta)`` factors the game with costs eta c'z +
0.5 eta z'C z + 0.5 |x_k - y_k|^2 + 0.5 |u_k - z_k|^2, whose equilibrium is
the resolvent of the scaled game operator at (y, z).  ``factor(game, eta)``
applies it to a declared linear-quadratic game, each Newton step of
``splitting.resolvent_reg_game`` to a local LQ game.  At eta = 0 it is the
Euclidean projection onto the trajectories of the dynamics.

``solve_pinned`` holds chosen affine stage rows W_k x_k + S_k u_k + p_k = 0
with one multiplier per row, shared by all players, in the same band: stage
k's rows and multipliers lead block k, padded to the largest row count with
rows that pin the spare multipliers to zero, so the bandwidth grows by that
count and the cost stays O(T).  An action column that moves nothing (no
dynamics read it, its owner's cost has no gradient or curvature in it and
no held row touches it, as for the terminal actions of the paper
rendezvous) would leave a zero row; ``solve_pinned`` pins it at du = 0
instead (``_inert_actions``).  Which columns the data alone leaves idle
(``idle_actions``) a caller that solves the same data many times may compute
once.  It is the kernel of the active-set polish
(``certificate.ActiveSetPolish``).

The same factor solves every QP over a whole stacked trajectory
(``BandedQp``, the QP of ``denseqp.solve_qp``'s loop), holding the loop's
active rows pinned.  The projections (``project``) and the best response
of ``feedback.epsilon_nash_gap`` cost O(T) per active-set step.  A banded
QP pins a guess of its active rows in one factor: the rows its caller
names, else those violated at its equality-constrained minimum.  A game
is read at the origin once, however many solves read it: its rows
(``padded_rows``), data (``game_data``) and eta = 0 ``factor`` are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import denseqp
from ._lapack import lapack
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
        """Equilibrium with linear terms c_{n,k} - (y_k, z_k).

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
                pinned: Optional[tuple[Array, Array, Array]] = None,
                inert: Optional[Array] = None) -> LqFactor:
    """Assemble the stacked KKT matrix of ``data`` and factor it.

    ``pinned`` = (G, p, held) adds m rows G_k z_k + p_k = 0 to every block
    k, G (T+1, m, n_x+n_u) over z_k = (x_k, u_k) and p (T+1, m); only the
    rows where ``held`` (T+1, m) is set are real, and G and p are zero in
    the others, which pin their multiplier to zero.  The multipliers lead
    each block (``LqFactor.rows``).  ``inert`` (T+1, n_u) marks action
    columns whose stationarity row is zero (``_inert_actions``); each is
    pinned at du = 0 instead.
    Raises StageSingularityError as the module docstring describes.
    """
    (N, T1, n_z), n_x = data.c.shape, np.size(data.initial_state)
    T, n_u = T1 - 1, n_z - n_x
    m = 0 if pinned is None else pinned[2].shape[1]
    ix, iu = m, m + n_x  # offsets of x_k and u_k in a block
    lam, nb = iu + n_u, iu + n_u + N * n_x  # offset of the costates in a block, block size
    n = T1 * nb
    A, B, C, c = data.A, data.B, data.C, data.c  # C: (N, T+1, n_x + n_u, n_x + n_u)
    # player i's action columns a:b, and the rows of its costates (its
    # stationarity in x_{k+1}) in a block: the blocks below are written by
    # slices, one player at a time
    players, a = [], 0
    for i, d in enumerate(data.action_dims):
        players.append((a, a + d, slice(lam + i * n_x, lam + (i + 1) * n_x)))
        a += d
    rhs = np.zeros((T1, nb))
    rhs[0, ix:iu] = data.initial_state
    rhs[1:, ix:iu] = data.b
    for i, (a, b, costate) in enumerate(players):
        rhs[:, iu + a:iu + b] = -c[i, :, n_x + a:n_x + b]
        rhs[:T, costate] = -c[i, 1:, :n_x]
    spread = np.zeros((n_u + n_x, nb))  # every player's stationarity in x_{k+1} gets y_{k+1}
    spread[:n_u, iu:lam] = np.eye(n_u)
    spread[n_u:, lam:] = np.tile(np.eye(n_x), N)
    kl = ku = nb + n_x - 1
    ldab = 2 * kl + ku + 1
    # LAPACK band storage puts entry (i, j) at row kl + ku + i - j of column j.
    # D[k, a, c] views it as row a of block k against column c of blocks k-1,
    # k and k+1, with one spare block on either side.  Entries outside the
    # band alias others, so only blocks inside the band are written.  The
    # main diagonal is row kl + ku; ``diag[k, a]`` views entry (a, a) of block k.
    band = np.zeros((ldab, n + 2 * nb), order="F")
    D = np.lib.stride_tricks.as_strided(
        band[kl + ku + nb:], shape=(T1, nb, 3 * nb),
        strides=(band.itemsize * nb * ldab, band.itemsize, band.itemsize * (ldab - 1)))
    diag = band[kl + ku, nb:nb + n].reshape(T1, nb)
    diag[:, ix:iu] = 1.0  # the pin of x_0 or the dynamics into x_k
    diag[:, lam:] = -1.0
    D[1:, ix:iu, ix:iu] = -A
    D[1:, ix:iu, iu:lam] = -B
    for i, (a, b, costate) in enumerate(players):
        D[:, iu + a:iu + b, nb + ix:nb + lam] = C[i, :, n_x + a:n_x + b]
        D[:T, iu + a:iu + b, nb + costate.start:nb + costate.stop] = B[:, :, a:b].swapaxes(1, 2)
        D[:T, costate, 2 * nb + ix:2 * nb + lam] = C[i, 1:, :n_x]
        D[:T - 1, costate, 2 * nb + costate.start:2 * nb + costate.stop] = A[1:].swapaxes(1, 2)
    if m:
        # the held rows of stage k, and mu_k in every player's stationarity in
        # its own u_k (block k) and in x_k (block k-1); x_0 is pinned instead
        G, p, held = pinned
        rhs[:, :m] = -p
        D[:, :m, nb + ix:nb + lam] = G
        diag[:, :m] = ~held
        D[:, iu:lam, nb:nb + m] = G[..., n_x:].swapaxes(1, 2)
        for *_, costate in players:
            D[:T, costate, 2 * nb:2 * nb + m] = G[1:, :, :n_x].swapaxes(1, 2)
    if inert is not None:
        diag[:, iu:lam][inert] = 1.0  # the row was zero, its right-hand side too
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

    Every player's costs become eta c'z + 0.5 z'(eta C + I) z over z = (x, u);
    ``LqFactor.solve(y, z)`` then shifts the prox centres to (y, z).
    """
    return _kkt_factor(replace(data, C=eta * data.C + np.eye(data.C.shape[-1]),
                               c=eta * data.c), eta)


def factor(game: GameDefinition, eta: float) -> LqFactor:
    """Factor of the game regularized with weight eta (see the module docstring).

    eta > 0 requires a declared linear-quadratic game (ValueError); eta = 0
    (the dynamics projection) requires declared linear dynamics only.  Both
    factor the game's kept data (``game_data``); the eta = 0 factor reads
    the game alone and is kept on it too (``_kept``).
    """
    if not eta >= 0:  # rejects NaN too
        raise ValueError(f"regularization must be nonnegative, got {eta}")
    if eta > 0:
        return regularized_factor(lq_game_data(game), eta)
    data = game_data(game)
    # the prox terms alone; LqFactor.solve shifts their centres
    return _kept(game, "lq.factor", lambda: _kkt_factor(
        _prox_data(data.A, data.B, data.b, data.initial_state, 1.0, *_origin(game)), 0.0))


def solve_pinned(data: LqGameData, G: Array, p: Array, pinned: Array,
                 idle: Optional[Array] = None) -> tuple[Trajectory, Array]:
    """Open-loop equilibrium with the ``pinned`` rows held as equalities.

    G (T+1, m, n_x+n_u) and p (T+1, m) hold every stage's rows
    [W_k S_k] (x_k, u_k) + p_k <= 0, padded to a common count m as in
    ``model.PaddedRows``; ``pinned`` (T+1, m) marks the rows held at zero.
    Each held row gets one multiplier mu, shared by all players: mu' S_k
    enters every player's stationarity in its own u_k and mu' W_k every
    player's in x_k (the variational equilibrium).
    The rows join the stacked KKT system in band: stage k's held rows and
    their multipliers lead block k, padded to the largest held count.
    Inert action columns (``_inert_actions``) are held at du = 0; ``idle``
    is ``idle_actions(data)``, the part of that test that reads ``data``
    only, computed here when None.
    Returns the trajectory and mu (T+1, m), zero off the held rows.  Raises
    StageSingularityError when the system is singular, as for dependent
    held rows.
    """
    idle = idle_actions(data) if idle is None else idle
    fac, sol, mu = _pinned_solve(data, G, p, pinned, _inert_actions(idle, G, pinned))
    return Trajectory(*fac._split(sol)), mu


def _pinned_solve(data: LqGameData, G: Array, p: Array, pinned: Array,
                  inert: Optional[Array] = None) -> tuple[LqFactor, Array, Array]:
    """``solve_pinned``'s factor, its solution blocks and mu (T+1, m).

    ``inert`` is passed on to ``_kkt_factor``; a ``BandedQp``'s data, the
    prox terms, has no inert columns.
    """
    Gm, pm, held, (ks, rs, slot) = held_first(pinned, G, p)
    fac = _kkt_factor(data, pinned=(Gm, pm, held), inert=inert)
    sol = fac._blocks(None, None)
    mu = np.zeros(pinned.shape)
    mu[ks, rs] = sol[ks, slot]
    return fac, sol, mu


def held_first(pinned: Array, G: Array, p: Array) -> tuple[Array, Array, Array, tuple]:
    """The rows marked in ``pinned`` (T+1, m), moved to the front of their stage.

    Returns (Gm, pm, held, (ks, rs, slot)): G (T+1, m, n_z) and p (T+1, m)
    cut to the marked rows, held rows first in their order, padded with
    zeros to the largest count; ``held`` marks the rows that are real; and
    the marked rows' stages ks, their places rs in G and slot in Gm.
    """
    ks, rs = np.nonzero(pinned)
    slot = (np.cumsum(pinned, axis=1) - 1)[ks, rs]
    m = int(slot.max(initial=-1)) + 1
    held = np.zeros((pinned.shape[0], m), dtype=bool)
    held[ks, slot] = True
    Gm, pm = np.zeros((len(pinned), m, G.shape[2])), np.zeros((len(pinned), m))
    Gm[ks, slot], pm[ks, slot] = G[ks, rs], p[ks, rs]
    return Gm, pm, held, (ks, rs, slot)


def idle_actions(data: LqGameData) -> Array:
    """The action columns ``data`` leaves idle: (T+1, n_u) bool.

    Column j of stage k is idle when no dynamics read it (a zero column of
    B_k; every column at k = T) and its owner's cost has no gradient or
    Hessian row in it, as for the terminal actions of a game whose terminal
    cost reads the state only.
    """
    (_, T1, n_z), n_x = data.c.shape, np.size(data.initial_state)
    n_u = n_z - n_x
    owner, own = np.repeat(np.arange(len(data.action_dims)), data.action_dims), np.arange(n_u)
    if np.all(data.C[owner, :, n_x + own, n_x + own]):  # every column has curvature
        return np.zeros((T1, n_u), dtype=bool)
    idle = (~np.any(data.C[owner, :, n_x + own] != 0, axis=2)
            & (data.c[owner, :, n_x + own] == 0)).T
    idle[:-1] &= ~np.any(data.B != 0, axis=1)
    return idle


def _inert_actions(idle: Array, G: Array, held: Array) -> Optional[Array]:
    """The action columns that move nothing: (T+1, n_u) bool, or None if there are none.

    They are the ``idle`` columns (``idle_actions``) that no row of ``G``
    (T+1, m, n_x+n_u) marked in ``held`` touches.  The stationarity row of
    such a column in the KKT system is zero.
    """
    if not idle.any():
        return None
    inert = idle & ~np.any((G[..., G.shape[2] - idle.shape[1]:] != 0) & held[..., None], axis=1)
    return inert if inert.any() else None


def padded_rows(game: GameDefinition) -> PaddedRows:
    """The game's rows read at the origin, kept (``_kept``).

    Raises UnsupportedConstraintError unless the rows are declared affine.
    """
    if not (game.constraints is None or game.polyhedral_constraints):
        raise UnsupportedConstraintError("the stage rows are not declared affine")
    return _kept(game, "lq.padded_rows", lambda: read_rows(game, *_origin(game)))


def game_data(game: GameDefinition) -> LqGameData:
    """The game's data at the origin, kept (``_kept``).

    ``extract_lq_data`` for a declared linear-quadratic game.  A game that
    declares linear dynamics only gets them with costs 0.5 |x|^2 + 0.5 |u|^2,
    one player holding every action; nonlinear dynamics raise
    UnsupportedConstraintError.  A reader of the costs asks ``lq_game_data``.
    """
    def read() -> LqGameData:
        if game.linear_dynamics and game.quadratic_costs:
            return extract_lq_data(game)
        if not game.linear_dynamics:
            raise UnsupportedConstraintError("dynamics projection requires linear dynamics")
        return _prox_data(*linearize_dynamics(game, *_origin(game)), game.initial_state, 1.0,
                          *_origin(game))

    return _kept(game, "lq.game_data", read)


def lq_game_data(game: GameDefinition) -> LqGameData:
    """``game_data`` of a declared linear-quadratic game; ValueError for any other game."""
    if not (game.linear_dynamics and game.quadratic_costs):
        raise ValueError("game is not declared linear-quadratic")
    return game_data(game)


def _kept(game: GameDefinition, key: str, read):
    """``read()``, made at the first call and kept in ``game``'s ``__dict__`` under ``key``.

    The game is immutable, so the read depends on it only; it is not a field
    (the dataclass is frozen and unhashable), so ``dataclasses.replace``
    gives an unread game.  A read that raises is not kept.  Its arrays are
    kept as read-only copies: no reader changes what the next one reads, and
    no array of the game or its hooks that the read passes through is frozen.
    """
    if key not in game.__dict__:
        kept = read()
        arrays = {f.name: np.array(getattr(kept, f.name)) for f in fields(kept)
                  if isinstance(getattr(kept, f.name), np.ndarray)}
        for a in arrays.values():
            a.flags.writeable = False
        game.__dict__[key] = replace(kept, **arrays)
    return game.__dict__[key]


def project(rows: PaddedRows, data: LqGameData, y: Array, z: Array,
            state_weight: float, start: Optional[Array] = None) -> Trajectory:
    """The trajectory meeting every row closest to (y, z) in w |x - y|^2 + |u - z|^2.

    Only the dynamics and initial state of ``data`` are read.  One ``BandedQp``,
    started from the rows marked in ``start`` (T+1, m) when given.
    """
    prox = _prox_data(data.A, data.B, data.b, data.initial_state, float(state_weight),
                      np.asarray(y, dtype=float), np.asarray(z, dtype=float))
    return BandedQp(prox, rows.G, rows.p, rows.real).solve(
        None if start is None else np.flatnonzero(start))


class BandedQp:
    """A QP over one player's stacked trajectory, for ``denseqp.solve_qp``.

    It minimizes the cost of ``data`` (one player holding every action) over
    v = (x_0, u_0, ..., x_T, u_T) subject to its dynamics, the rows marked
    ``held`` as equalities and those marked ``real`` as inequalities (G
    and p as in ``model.PaddedRows``, numbered stage by stage).  An active set's
    KKT system is one ``_kkt_factor`` with the held and active rows pinned,
    O(T); its multipliers are x_0's pin's, the costates and the rows' mu.
    ``start(rows)`` is one ``_pinned_solve`` with the held rows and ``rows``
    pinned; every factor carries the rcond test, so a guess of dependent
    rows gives way to the equality-constrained minimum.
    """

    def __init__(self, data: LqGameData, G: Array, p: Array, real: Array,
                 held: Optional[Array] = None):
        self.data, self.G, self.p, self.real = data, G, p, real  # G: (T+1, m, n_x + n_u)
        self.held = np.zeros_like(real) if held is None else held
        self.n_x, self.n_v = np.size(data.initial_state), G.shape[2]
        self.size = G.shape[0] * self.n_v + int(real.sum())
        self.H_size = max(_max_abs(data.C), np.finfo(float).tiny)
        self.f_size = _max_abs(data.c)
        self.row_size = _max_abs(np.ones(1), data.A, data.B, self.G)  # 1: x_0's pin
        # a step's KKT system: no offsets, the linear term of the step's row
        self.homogeneous = replace(data, b=np.zeros_like(data.b),
                                   initial_state=np.zeros(self.n_x))

    def start(self, rows: Sequence[int] = ()) -> tuple[Array, Array]:
        pinned, rows = self.held.copy(), list(rows)
        pinned.flat[rows] = True
        fac, sol, mu = _pinned_solve(self.data, self.G, self.p, pinned)
        return sol[:, fac.rows:fac.rows + self.n_v].ravel(), mu.flat[rows]

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
        data = replace(self.homogeneous, c=g[None])
        fac, sol, mu = _pinned_solve(data, self.G, np.zeros_like(self.p), pinned)
        s, lam = sol[:, fac.rows:fac.rows + n_v], sol[:, fac.rows + n_v:]  # lam_{k+1}
        # x_0's pin closes the stationarity in x_0, which the band leaves out
        pin = (g[0, :n_x] + self.data.C[0, 0, :n_x, n_x:] @ s[0, n_x:]
               + self.G[0, :, :n_x].T @ mu[0])
        pin = pin + (self.data.A[0].T @ lam[0] if len(self.data.A) else 0.0)
        return s.ravel(), np.concatenate([pin, lam.ravel(), mu[self.held], mu.flat[active]])

    def solve(self, start: Optional[Sequence[int]] = None) -> Trajectory:
        """The minimizer, as states and actions; ``start`` guesses its active rows."""
        v = denseqp.solve_qp(self, start=start)[0].reshape(-1, self.n_v)
        return Trajectory(v[:, :self.n_x], v[:, self.n_x:])


def _max_abs(*arrays: Array) -> float:
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def _prox_data(A: Array, B: Array, b: Array, initial_state: Array, state_weight: float,
               y: Array, z: Array) -> LqGameData:
    """One player holding every action, with costs 0.5 w |x - y|^2 + 0.5 |u - z|^2."""
    (T1, n_x), n_u, w = y.shape, z.shape[1], state_weight
    C = np.diag(np.repeat([w, 1.0], [n_x, n_u]))
    return LqGameData(A, B, b, C=np.broadcast_to(C, (1, T1) + C.shape),
                      c=-np.concatenate([w * y, z], axis=1)[None], action_dims=(n_u,),
                      initial_state=np.asarray(initial_state, dtype=float))


def solve_lq_open_loop(data: LqGameData) -> Trajectory:
    """Exact open-loop equilibrium of a linear-quadratic game by one banded solve."""
    return Trajectory(*_kkt_factor(data).solve())
