"""Exact solvers for convex QPs and polyhedron projections.

``solve_qp`` is a dual active-set method (Goldfarb and Idnani, "A
numerically stable dual method for solving strictly convex quadratic
programs", Math. Programming 27, 1983).  It starts from the
equality-constrained minimum, adds the most violated inequality row, drops a
row whose multiplier would turn negative on the way, and re-solves the KKT
system of the current active set at every step through
``solve_equality_kkt``.  The iterates stay dual feasible and the dual
objective rises at every step, so the method stops after finitely many
steps at the exact minimizer, or proves the rows contradictory.

The matrix type the caller passes picks the linear algebra: dense arrays go
to LAPACK, ``scipy.sparse`` matrices to a sparse LU (``splu``), so a
block-banded horizon-wide problem costs O(T) per active-set step.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import InfeasibleConstraintsError, SubproblemError

Array = np.ndarray

# Active-set steps allowed per variable and row before the kernel gives up;
# without cycling, the method needs about one add per active row and few drops.
STEPS_PER_DIMENSION = 10

# A row whose curvature along its step direction, relative to the size of H
# and to the scale of the step's rounding error, falls below this lies in the
# span of the active rows: the step only moves multipliers.
DEPENDENT_ROW_RATIO = 1e-11


def solve_equality_kkt(H, f: Array, A=None, b: Optional[Array] = None):
    """Solve min 0.5 z'Hz + f'z s.t. Az = b via the stacked KKT system.

    Returns (z, lam).  H only needs to be invertible on the null space of A
    for the KKT matrix to be nonsingular.  A sparse H (with A sparse or
    absent) is factored by a sparse LU, a dense one by LAPACK.  Raises
    ``np.linalg.LinAlgError`` when the KKT matrix is singular.
    """
    n = H.shape[0]
    m = 0 if A is None else A.shape[0]
    rhs = -np.asarray(f, dtype=float) if m == 0 else np.concatenate([-f, b])
    if sp.issparse(H):
        if m:
            # assembled from triplets: sp.bmat costs several times the factorization
            Hc, Ac = H.tocoo(), A.tocoo()
            K = sp.csc_matrix((np.concatenate([Hc.data, Ac.data, Ac.data]),
                               (np.concatenate([Hc.row, Ac.row + n, Ac.col]),
                                np.concatenate([Hc.col, Ac.col, Ac.row + n]))),
                              shape=(n + m, n + m))
        else:
            K = H.tocsc()
        try:
            sol = splu(K).solve(rhs)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("KKT solve produced non-finite values")
    elif m == 0:
        sol = np.linalg.solve(H, rhs)
    else:
        K = np.zeros((n + m, n + m))
        K[:n, :n] = H
        K[:n, n:] = A.T
        K[n:, :n] = A
        sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n:]


def _active_rows(Aeq, G, active: list[int]):
    """The rows [Aeq; G[active]] of the current KKT system, None if there are none.

    Dense inputs give a dense array.  For sparse inputs (Aeq in COO, G in
    CSR form) the rows are gathered as COO triplets, which is several times
    cheaper than slicing and stacking sparse matrices.
    """
    neq = 0 if Aeq is None else Aeq.shape[0]
    if neq + len(active) == 0:
        return None
    if not sp.issparse(G if G is not None else Aeq):
        return np.vstack(([Aeq] if neq else []) + ([G[active]] if active else []))
    idx = np.asarray(active, dtype=int)
    starts = G.indptr[idx]
    counts = G.indptr[idx + 1] - starts
    pos = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    rows = np.repeat(np.arange(neq, neq + idx.size), counts)
    cols, vals = G.indices[pos], G.data[pos]
    if neq:
        rows = np.concatenate([Aeq.row, rows])
        cols = np.concatenate([Aeq.col, cols])
        vals = np.concatenate([Aeq.data, vals])
    return sp.coo_matrix((vals, (rows, cols)), shape=(neq + idx.size, G.shape[1]))


def solve_qp(H, f: Array, G=None, h: Optional[Array] = None,
             Aeq=None, beq: Optional[Array] = None, tol: float = 1e-9):
    """Exact minimizer of a convex QP with inequality and equality constraints.

    min 0.5 z'Hz + f'z   s.t.  Gz <= h,  Aeq z = beq.

    H must be positive semidefinite and positive definite on the null space
    of Aeq, and Aeq must have full row rank.  Matrices are dense arrays or
    all ``scipy.sparse``.  Returns (z, lam) with lam the multipliers of the
    inequality rows.  Raises InfeasibleConstraintsError when the rows are
    contradictory (no step can reduce a violation), SubproblemError when the
    equality-constrained problem is singular or the active-set loop exceeds
    its step bound.
    """
    sparse = sp.issparse(H)
    if sparse:
        H = H.tocoo()
        G = None if G is None else sp.csr_matrix(G)
        Aeq = None if Aeq is None else sp.coo_matrix(Aeq)
    n = H.shape[0]
    f = np.asarray(f, dtype=float).reshape(n)
    m = 0 if G is None else G.shape[0]
    neq = 0 if Aeq is None else Aeq.shape[0]
    beq = np.zeros(0) if beq is None else np.asarray(beq, dtype=float).reshape(neq)
    try:
        z, _ = solve_equality_kkt(H, f, Aeq if neq else None, beq)
    except np.linalg.LinAlgError as exc:
        raise SubproblemError(
            "equality-constrained QP is singular: H is not positive definite on "
            "the null space of the equality rows, or those rows are dependent") from exc
    lam = np.zeros(m)
    if m == 0:
        return z, lam
    h = np.asarray(h, dtype=float).reshape(m)
    H_size = max(float(abs(H).max() if sparse else np.max(np.abs(H))), np.finfo(float).tiny)
    vtol = tol * (1.0 + H_size + float(np.max(np.abs(f), initial=0.0)))
    zero_rhs = np.zeros(neq + m)
    A_size = None  # largest row entry, found once rows are active
    active: list[int] = []
    steps = 0
    max_steps = STEPS_PER_DIMENSION * (n + m)
    while True:
        viol = G @ z - h
        viol[active] = -np.inf
        p = int(np.argmax(viol))
        if viol[p] <= vtol:
            return z, lam
        g_vec = G[p].toarray().ravel() if sparse else G[p]
        g_norm2 = float(g_vec @ g_vec)
        while True:
            steps += 1
            if steps > max_steps:
                raise SubproblemError(
                    f"dual active-set QP exceeded {max_steps} steps "
                    f"({len(active)} active rows of {m})")
            A_act = _active_rows(Aeq, G, active)
            n_act = 0 if A_act is None else A_act.shape[0]
            try:
                s, r = solve_equality_kkt(H, g_vec, A_act, zero_rhs[:n_act])
            except np.linalg.LinAlgError as exc:
                raise SubproblemError(
                    f"KKT system of {len(active)} active rows is singular") from exc
            r_ineq = r[neq:]
            curvature = -float(g_vec @ s)  # s'Hs, since A_act s = 0
            # The rounding error of s grows with the multipliers r of the
            # active rows, which are large when g nearly lies in their span.
            if n_act and A_size is None:
                A_size = max(_max_abs(G), 0.0 if Aeq is None else _max_abs(Aeq))
            r_scale = A_size * float(np.abs(r).sum()) if n_act else 0.0
            dependent = (curvature * H_size
                         <= DEPENDENT_ROW_RATIO * (g_norm2 + math.sqrt(g_norm2) * r_scale))
            full = np.inf if dependent else viol[p] / curvature
            blocking = np.flatnonzero(r_ineq < 0.0)
            partial, drop = np.inf, -1
            if blocking.size:
                ratios = lam[np.asarray(active)[blocking]] / -r_ineq[blocking]
                j = int(np.argmin(ratios))
                partial, drop = float(ratios[j]), int(blocking[j])
            if not np.isfinite(min(full, partial)):
                raise InfeasibleConstraintsError(
                    f"inequality row {p} cannot be satisfied with the rows active",
                    max_violation=float(viol[p]))
            t = min(full, partial)
            if not dependent:
                z = z + t * s
            if active:
                lam[active] = np.maximum(lam[active] + t * r_ineq, 0.0)
            lam[p] += t
            if full <= partial:
                active.append(p)
                break
            lam[active[drop]] = 0.0
            del active[drop]
            viol[p] = float(g_vec @ z) - h[p]


def _max_abs(M) -> float:
    """Largest absolute entry of a dense or sparse matrix."""
    return float(np.max(np.abs(M.data if sp.issparse(M) else M), initial=0.0))


def project_polyhedron(point: Array, G: Array, h: Array) -> Array:
    """Euclidean projection of a point onto {z : Gz <= h}."""
    n = point.shape[0]
    z, _ = solve_qp(np.eye(n), -np.asarray(point, dtype=float), G=G, h=h)
    return z
