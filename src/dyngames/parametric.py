"""Exact solvers for quadratic parametric games with linear constraints.

A parametric game has per-player costs

    J_n(x, u) = 0.5 [1, x, u]' Gamma_n [1, x, u]

over a joint action u partitioned among players, with the vector x acting as
a parameter.  With equality constraints W x + S u + p = 0 the equilibrium is
a single affine law u = K x + s; with inequality constraints it is piecewise
affine over a polyhedral partition of the parameter space, obtained by
enumerating candidate active sets.  A candidate's region is kept when the
projection of 0 onto it, one stage LCP of ``denseqp``, exists.

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

from dataclasses import dataclass
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

# The slack by which a candidate region's rows may be exceeded and still count as met.
REGION_TOL = 1e-9

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
        owner = np.repeat(np.arange(self.num_players), self.action_dims)
        own = self.gammas[owner, 1 + n_x + np.arange(n_u)]
        return own[:, 1 + n_x:], own[:, 1:1 + n_x], own[:, 0]


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
    if not _full_row_rank(S):
        raise StageSingularityError(0, "cone generator matrix does not have full row rank")
    Minv = np.linalg.solve(S @ S.T, S)
    proj = S.T @ Minv
    return np.vstack([-Minv, np.eye(n) - proj, proj - np.eye(n)])


def _full_row_rank(S: Array) -> Array:
    """Whether the rows of S (..., m, n) have full rank, one flag per matrix.

    A stack of matrices takes one batched SVD.
    """
    m, n = S.shape[-2:]
    if m == 0 or m > n:
        return np.full(S.shape[:-2], m == 0)
    sv = np.linalg.svd(S, compute_uv=False)
    return sv[..., -1] > max(m, n) * np.finfo(float).eps * sv[..., 0]


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
    ``u = -F^{-1}(Px + H)``.  It is the one-stage case of the stage checks
    that ``feedback.stagewise_newton_backward`` runs in batches: the rank
    test of the rows and the singular solve (``_solve_stage``), then the
    residual test (``_check_residual``) of ``R = KKT @ sol - rhs``, which
    raises StageSingularityError, naming the stage, when a stationarity or
    constraint residual at two probe parameters exceeds ``KKT_RTOL`` times
    the size of the stage data or is NaN.
    """
    n_u, n_x = P.shape
    KKT, rhs = _kkt_system(F, P, H, W, S, p)
    sol = _solve_stage(KKT, rhs, _full_row_rank(S), stage)
    _check_residual(KKT @ sol - rhs, n_u, _data_scale(F, P, H), stage)
    return AffineLaw(K=sol[:n_u, :n_x], s=sol[:n_u, n_x],
                     lam_K=sol[n_u:, :n_x], lam_s=sol[n_u:, n_x])


def _kkt_system(F, P, H, W, S, p) -> tuple[Array, Array]:
    """The stage KKT matrix and its right-hand side [rhs_K | rhs_s].

    The rows W, S and p may stack several stages, (..., m, ...); F, P and H
    then broadcast over the stages, and the outputs stack the same way.
    """
    n_u, m, n_x = F.shape[-1], S.shape[-2], P.shape[-1]
    lead = S.shape[:-2]
    KKT = np.zeros(lead + (n_u + m, n_u + m))
    KKT[..., :n_u, :n_u] = F
    KKT[..., :n_u, n_u:] = S.swapaxes(-1, -2)
    KKT[..., n_u:, :n_u] = S
    rhs = np.zeros(lead + (n_u + m, n_x + 1))  # [rhs_K | rhs_s]: one factorization for both
    rhs[..., :n_u, :n_x] = -P
    rhs[..., :n_u, n_x] = -H
    rhs[..., n_u:, :n_x] = -W
    rhs[..., n_u:, n_x] = -p
    return KKT, rhs


def _solve_stage(KKT: Array, rhs: Array, full_rank: bool, stage: int) -> Array:
    """The solution [K s; lam_K lam_s] of one stage system.

    Raises StageSingularityError naming the stage when its rows are not of
    full rank (``full_rank`` False, from ``_full_row_rank``) or the system
    is singular.
    """
    if not full_rank:
        raise StageSingularityError(stage, "active constraint rows are rank deficient")
    try:
        return np.linalg.solve(KKT, rhs)
    except np.linalg.LinAlgError as exc:
        raise StageSingularityError(stage, f"stage KKT system is singular ({exc})") from exc


def _data_scale(F, P, H) -> Array:
    """The size of the stage data, one figure per stage of a stack."""
    return (np.abs(F).max(axis=(-2, -1)) + np.abs(P).max(axis=(-2, -1), initial=0.0)
            + np.abs(H).max(axis=-1, initial=0.0) + 1.0)


@lru_cache(maxsize=16)
def _probes(n_x: int) -> Array:
    """[[x1, x2], [1, 1]]: two seeded probe parameters x1, x2 of length n_x."""
    out = np.ones((n_x + 1, 2))
    out[:n_x] = np.random.default_rng(0).standard_normal((2, n_x)).T
    out.flags.writeable = False
    return out


def _check_residual(R: Array, n_u: int, scale, stage) -> None:
    """Raise StageSingularityError unless R [x; 1] is small at both probes.

    Rows ``:n_u`` of R are the stationarity residual, the rest the
    constraint residual, each of an affine law in the parameter x.  R may
    stack several stages' residuals, (B, n_u + m, n_x + 1), with ``scale``
    and ``stage`` of length B; the highest failing stage is raised, the one
    a backward pass meets first.
    """
    r = np.abs(R @ _probes(R.shape[-1] - 1)).reshape((-1,) + R.shape[-2:-1] + (2,))
    tol = KKT_RTOL * np.reshape(scale, -1)
    worst = r[:, :n_u].max(axis=(1, 2)), r[:, n_u:].max(axis=(1, 2), initial=0.0)
    ok = (worst[0] <= tol) & (worst[1] <= tol)  # NaN fails too
    if ok.all():
        return
    stages = np.reshape(stage, -1)
    i = np.flatnonzero(~ok)[np.argmax(stages[~ok])]
    kind = 0 if not worst[0][i] <= tol[i] else 1
    what = ("stage KKT residual", "stage constraint residual")[kind]
    raise StageSingularityError(int(stages[i]), f"{what} {worst[kind][i]:.2e} exceeds tolerance")


def _region_nonempty(L: Array, l: Array) -> bool:
    """Whether {x : Lx + l <= REGION_TOL} is nonempty: the projection of 0 onto it exists.

    Each row is divided by its norm (``denseqp.project_polyhedron``).  A row
    with no normal, its norm within L's rank tolerance, holds or fails on its
    own: normalized, its bound would swamp Lemke's tolerance, which grows
    with the largest bound.  Only an empty region ends Lemke's method on a
    ray; running out of pivots raises SubproblemError and never reads empty.
    """
    norms = np.linalg.norm(L, axis=1)
    normal = norms > max(L.shape) * np.finfo(float).eps * norms.max(initial=0.0)
    if np.any(l[~normal] > REGION_TOL):
        return False
    try:
        denseqp.project_polyhedron(np.zeros(L.shape[1]), L[normal] / norms[normal, None],
                                   (REGION_TOL - l[normal]) / norms[normal])
    except InfeasibleConstraintsError:
        return False
    return True


def enumerate_lcq_parametric(data: ParametricGameData) -> PiecewiseAffinePolicy:
    """Piecewise affine equilibrium of the inequality-constrained game.

    For every candidate active subset with full-row-rank constraint rows
    the equality-constrained game is solved (``solve_stage_kkt`` on blocks
    built once), and the subset's validity region (primal feasibility plus
    the multiplier cone condition) is built as a polyhedron in the
    parameter.  Empty regions are dropped, and so are subsets whose rows
    are rank deficient or whose stage KKT system is singular.
    """
    n_c = data.p.shape[0]
    if n_c > ENUMERATION_CAP:
        raise EnumerationCapError(n_c, ENUMERATION_CAP)
    F, P, H = data.stationarity_blocks()
    off = np.cumsum((0, *data.action_dims))
    for n in range(data.num_players):  # each player's own block, on F's diagonal
        own = F[off[n]:off[n + 1], off[n]:off[n + 1]]
        eig = np.min(np.linalg.eigvalsh(0.5 * (own + own.T)))
        if eig <= 0:
            raise SubproblemError(
                f"player {n} own-action block is not positive definite (min eig {eig:.2e})")
    regions = []
    for size in range(n_c + 1):
        for subset in combinations(range(n_c), size):
            rows = list(subset)
            Sa, Wa, pa = data.S[rows], data.W[rows], data.p[rows]
            if not _full_row_rank(Sa):
                continue
            try:
                law = solve_stage_kkt(F, P, H, Wa, Sa, pa)
            except StageSingularityError:
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
    return PiecewiseAffinePolicy(regions=regions, action_dims=data.action_dims)
