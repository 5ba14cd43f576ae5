"""Exact solvers for quadratic parametric games with linear constraints.

A parametric game has per-player costs

    J_n(x, u) = 0.5 [1, x, u]' Gamma_n [1, x, u]

over a joint action u partitioned among players, with the vector x acting as
a parameter.  With equality constraints W x + S u + p = 0 the equilibrium is
a single affine law u = K x + s; with inequality constraints it is piecewise
affine over a polyhedral partition of the parameter space, obtained by
enumerating candidate active sets.

The equality-constrained solve stacks each player's own-block stationarity
with the constraint rows into one KKT system

    [F  S'] [u]     [P x + H]
    [S  0 ] [lam] = -[W x + p]

where row block n of F, P, H collects player n's own-action rows of
Gamma_n.  Solving this linear system (rather than substituting printed
closed-form factors) keeps the signs honest and only requires the KKT
matrix to be invertible.  Every returned law is verified against its KKT
residual: one product R = KKT [K s; lam_K lam_s] - [rhs_K rhs_s] gives the
residual R [x; 1] at any parameter x, and it is read at two probe
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import denseqp
from .errors import (
    EnumerationCapError,
    InfeasibleConstraintsError,
    StageSingularityError,
    SubproblemError,
)

Array = np.ndarray

ENUMERATION_CAP = 12

# Largest KKT residual, relative to the size of the stage data, that a
# returned law may leave at the probe parameters.
KKT_RTOL = 1e-8


@dataclass(frozen=True)
class ParametricGameData:
    """Quadratic blocks and constraint rows of a parametric game.

    ``gammas`` has shape (N, 1+n_x+n_u, 1+n_x+n_u), one symmetric matrix per
    player.  ``W, S, p`` describe the constraint rows W x + S u + p (interpreted
    as equalities or inequalities by the solver that consumes them).
    """

    gammas: Array
    W: Array
    S: Array
    p: Array
    action_dims: tuple[int, ...]
    state_dim: int

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        object.__setattr__(self, "gammas", g)
        n_u = sum(self.action_dims)
        nz = 1 + self.state_dim + n_u
        if g.shape != (len(self.action_dims), nz, nz):
            raise ValueError(f"gamma blocks must have shape {(len(self.action_dims), nz, nz)}, "
                             f"got {g.shape}")
        if not np.allclose(g, np.transpose(g, (0, 2, 1)), atol=1e-9 * (1 + np.abs(g).max())):
            raise ValueError("gamma blocks must be symmetric")
        for name, cols in (("W", self.state_dim), ("S", n_u), ("p", None)):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr.reshape(-1 if cols is None else (-1, cols)))

    @property
    def num_players(self) -> int:
        return len(self.action_dims)

    @property
    def total_action_dim(self) -> int:
        return int(sum(self.action_dims))

    def stationarity_blocks(self) -> tuple[Array, Array, Array]:
        """(F, P, H): stacked own-block rows of the players' gamma matrices."""
        n_x, n_u = self.state_dim, self.total_action_dim
        F = np.empty((n_u, n_u))
        P = np.empty((n_u, n_x))
        H = np.empty(n_u)
        off = 0
        for n, d in enumerate(self.action_dims):
            rows = slice(1 + n_x + off, 1 + n_x + off + d)
            F[off:off + d] = self.gammas[n][rows, 1 + n_x:]
            P[off:off + d] = self.gammas[n][rows, 1:1 + n_x]
            H[off:off + d] = self.gammas[n][rows, 0]
            off += d
        return F, P, H


@dataclass
class AffineLaw:
    """u = K x + s with the accompanying multiplier law lam = lam_K x + lam_s."""

    K: Array
    s: Array
    lam_K: Array
    lam_s: Array


@dataclass
class PolicyRegion:
    active: tuple[int, ...]
    K: Array
    s: Array
    L: Array
    l: Array

    def contains(self, x: Array, tol: float = 1e-9) -> bool:
        if self.L.shape[0] == 0:
            return True
        return bool(np.max(self.L @ x + self.l) <= tol)


@dataclass
class PiecewiseAffinePolicy:
    regions: list[PolicyRegion]
    action_dims: tuple[int, ...] = ()
    skipped_rank_deficient: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    def regions_containing(self, x: Array, tol: float = 1e-9) -> list[PolicyRegion]:
        return [r for r in self.regions if r.contains(x, tol)]

    def evaluate(self, x: Array, tol: float = 1e-9) -> Array:
        hits = self.regions_containing(x, tol)
        if not hits:
            raise SubproblemError(f"no policy region contains x = {x}")
        return hits[0].K @ x + hits[0].s


def cone_to_inequalities(S: Array) -> Array:
    """Matrix L with ``x in cone{rows of S}'' iff ``L x <= 0``.

    Requires S to have full row rank.  The three blocks express that the
    unique candidate multiplier (SS')^{-1} S x is nonnegative and that x has
    no component outside the row space.
    """
    S = np.asarray(S, dtype=float)
    m, n = S.shape
    if m == 0:
        return np.vstack([np.eye(n), -np.eye(n)])
    if not _check_full_row_rank(S):
        raise StageSingularityError(0, "cone generator matrix does not have full row rank")
    Minv = np.linalg.solve(S @ S.T, S)
    proj = S.T @ Minv
    return np.vstack([-Minv, np.eye(n) - proj, proj - np.eye(n)])


def _check_full_row_rank(S: Array) -> bool:
    if S.shape[0] == 0:
        return True
    if S.shape[0] > S.shape[1]:
        return False
    sv = np.linalg.svd(S, compute_uv=False)
    return sv[-1] > max(S.shape) * np.finfo(float).eps * sv[0]


def solve_lecq_parametric(data: ParametricGameData) -> AffineLaw:
    """Affine equilibrium of the equality-constrained quadratic parametric game.

    Solves the stacked KKT system for the gain and offset pair and verifies
    the KKT residuals at random parameters so that a sign or assembly
    mistake can never produce a silently wrong law.
    """
    F, P, H = data.stationarity_blocks()
    return solve_stage_kkt(F, P, H, data.W, data.S, data.p)


def solve_stage_kkt(F: Array, P: Array, H: Array,
                    W: Array, S: Array, p: Array, stage: int = 0) -> AffineLaw:
    """Core KKT solve shared by the parametric and backward-pass solvers.

    Finds K, s (and multiplier gains) such that for every x,
    ``F(Kx+s) + Px + H + S'lam(x) = 0`` and ``W x + S(Kx+s) + p = 0``.
    With no constraint rows (W, S and p with zero rows) this reduces to
    ``u = -F^{-1}(Px + H)``.  The residual of the returned law is formed once,
    ``R = KKT @ sol - rhs``, and evaluated at two probe parameters as
    ``R @ [x; 1]``; a stationarity or constraint residual above ``KKT_RTOL``
    times the size of the stage data (or a NaN) raises StageSingularityError
    naming the stage.
    """
    n_u = F.shape[0]
    m = S.shape[0]
    if m > 0 and not _check_full_row_rank(S):
        raise StageSingularityError(stage, "active constraint rows are rank deficient")
    KKT, rhs = _kkt_system(F, P, H, W, S, p)
    try:
        sol = np.linalg.solve(KKT, rhs)
    except np.linalg.LinAlgError as exc:
        raise StageSingularityError(stage, f"stage KKT system is singular ({exc})") from exc
    _check_residual(KKT @ sol - rhs, n_u, _data_scale(F, P, H), stage)
    n_x = P.shape[1]
    return AffineLaw(K=sol[:n_u, :n_x], s=sol[:n_u, n_x],
                     lam_K=sol[n_u:, :n_x], lam_s=sol[n_u:, n_x])


def _kkt_system(F, P, H, W, S, p) -> tuple[Array, Array]:
    """The stage KKT matrix and its right-hand side [rhs_K | rhs_s]."""
    n_u, m, n_x = F.shape[0], S.shape[0], P.shape[1]
    KKT = np.zeros((n_u + m, n_u + m))
    KKT[:n_u, :n_u] = F
    if m:
        KKT[:n_u, n_u:] = S.T
        KKT[n_u:, :n_u] = S
    rhs = np.zeros((n_u + m, n_x + 1))  # [rhs_K | rhs_s]: one factorization for both
    rhs[:n_u, :n_x] = -P
    rhs[:n_u, n_x] = -H
    if m:
        rhs[n_u:, :n_x] = -W
        rhs[n_u:, n_x] = -p
    return KKT, rhs


def _data_scale(F, P, H) -> float:
    return np.abs(F).max() + np.abs(P).max(initial=0.0) + np.abs(H).max(initial=0.0) + 1.0


@lru_cache(maxsize=16)
def _probes(n_x: int) -> Array:
    """[[x1, x2], [1, 1]]: two seeded probe parameters x1, x2 of length n_x."""
    out = np.ones((n_x + 1, 2))
    out[:n_x] = np.random.default_rng(0).standard_normal((2, n_x)).T
    out.flags.writeable = False
    return out


def _check_residual(R: Array, n_u: int, scale: float, stage: int) -> None:
    """Raise StageSingularityError unless R [x; 1] is small at both probes.

    Rows ``:n_u`` of R are the stationarity residual, the rest the
    constraint residual, each of an affine law in the parameter x.
    """
    r = np.abs(R @ _probes(R.shape[1] - 1))
    tol = KKT_RTOL * scale
    if r.max() <= tol:  # NaN fails too
        return
    for rows, what in ((r[:n_u], "stage KKT residual"), (r[n_u:], "stage constraint residual")):
        worst = rows.max(initial=0.0)
        if not worst <= tol:
            raise StageSingularityError(stage, f"{what} {worst:.2e} exceeds tolerance")


def _region_nonempty(L: Array, l: Array, tol: float = 1e-9) -> bool:
    """Whether {x : Lx + l <= tol} is nonempty: its least-norm point exists."""
    if L.shape[0] == 0:
        return True
    if L.shape[1] == 0:
        return bool(np.all(l <= tol))
    try:
        denseqp.solve_qp(np.eye(L.shape[1]), np.zeros(L.shape[1]), G=L, h=tol - l)
    except InfeasibleConstraintsError:
        return False
    return True


def enumerate_lcq_parametric(data: ParametricGameData) -> PiecewiseAffinePolicy:
    """Piecewise affine equilibrium of the inequality-constrained game.

    For every candidate active subset with full-row-rank constraint rows
    the equality-constrained game is solved, and the subset's validity
    region (primal feasibility plus the multiplier cone condition) is built
    as a polyhedron in the parameter.  Empty regions are dropped; rank
    deficient subsets are skipped and recorded.
    """
    n_c = data.p.shape[0]
    if n_c > ENUMERATION_CAP:
        raise EnumerationCapError(n_c, ENUMERATION_CAP)
    F, P, H = data.stationarity_blocks()
    for n, d in enumerate(data.action_dims):
        off = sum(data.action_dims[:n])
        own = data.gammas[n][1 + data.state_dim + off:1 + data.state_dim + off + d,
                             1 + data.state_dim + off:1 + data.state_dim + off + d]
        eig = np.min(np.linalg.eigvalsh(0.5 * (own + own.T)))
        if eig <= 0:
            raise SubproblemError(
                f"player {n} own-action block is not positive definite (min eig {eig:.2e})")
    regions = []
    skipped = []
    for size in range(n_c + 1):
        for subset in combinations(range(n_c), size):
            rows = list(subset)
            Sa, Wa, pa = data.S[rows], data.W[rows], data.p[rows]
            if not _check_full_row_rank(Sa):
                skipped.append(tuple(subset))
                continue
            sub = ParametricGameData(gammas=data.gammas, W=Wa, S=Sa, p=pa,
                                     action_dims=data.action_dims,
                                     state_dim=data.state_dim)
            try:
                law = solve_lecq_parametric(sub)
            except StageSingularityError:
                skipped.append(tuple(subset))
                continue
            L_feas = data.W + data.S @ law.K
            l_feas = data.S @ law.s + data.p
            if size:
                Lcone = cone_to_inequalities(Sa)
                resid_K = -(F @ law.K + P)
                resid_s = -(F @ law.s + H)
                L = np.vstack([L_feas, Lcone @ resid_K])
                l = np.concatenate([l_feas, Lcone @ resid_s])
            else:
                L, l = L_feas, l_feas
            if _region_nonempty(L, l):
                regions.append(PolicyRegion(active=tuple(subset), K=law.K,
                                            s=law.s, L=L, l=l))
    return PiecewiseAffinePolicy(regions=regions, action_dims=data.action_dims,
                                 skipped_rank_deficient=tuple(skipped))
