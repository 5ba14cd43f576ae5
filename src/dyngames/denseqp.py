"""Exact solvers for convex QPs and polyhedron projections.

``solve_qp`` is a dual active-set method (Goldfarb and Idnani, "A
numerically stable dual method for solving strictly convex quadratic
programs", Math. Programming 27, 1983).  It starts from an S-pair, inequality
rows held as equalities with nonnegative multipliers, at the least the
equality-constrained minimum with none.  It adds the most violated
inequality row, drops a row whose multiplier would turn negative on the
way, and re-solves the KKT system of the current active set at every step.
The iterates stay dual feasible and the dual objective rises at every step,
so the method stops after finitely many steps at the exact minimizer, or
proves the rows contradictory.

Any S-pair will do as the start, and a good guess of the final active rows
saves most of the steps (warm starts: Ferreau, Bock and Diehl, Int. J.
Robust Nonlinear Control 18, 2008).  A guess is checked exactly: its rows
are held, rows with a negative multiplier are dropped and the rest solved
for again, and a singular system falls back to the equality-constrained
minimum.

The loop is written once and reads a QP only through the members of
``DenseQp``, which holds dense arrays and solves with LAPACK
(``solve_equality_kkt``).  A QP over a whole stacked trajectory
(``lq.BandedQp``) reads its stage rows in place and solves each KKT system
in band, O(T) per active-set step.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import InfeasibleConstraintsError, StageSingularityError, SubproblemError

Array = np.ndarray

# Active-set steps allowed per variable and row before the kernel gives up;
# without cycling, the method needs about one add per active row and few drops.
STEPS_PER_DIMENSION = 10

# A row whose curvature along its step direction, relative to the size of H
# and to the scale of the step's rounding error, falls below this lies in the
# span of the active rows: the step only moves multipliers.
DEPENDENT_ROW_RATIO = 1e-11

# A row violated by at most ROW_TOL * (1 + max|H| + max|f|) counts as met.
ROW_TOL = 1e-9


def solve_equality_kkt(H: Array, f: Array, A: Optional[Array] = None,
                       b: Optional[Array] = None) -> tuple[Array, Array]:
    """Solve min 0.5 z'Hz + f'z s.t. Az = b via the stacked KKT system.

    Returns (z, lam).  H only needs to be invertible on the null space of A
    for the KKT matrix to be nonsingular.  Raises ``np.linalg.LinAlgError``
    when the KKT matrix is singular.
    """
    n = H.shape[0]
    m = 0 if A is None else A.shape[0]
    if m == 0:
        return np.linalg.solve(H, -np.asarray(f, dtype=float)), np.zeros(0)
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = A.T
    K[n:, :n] = A
    sol = np.linalg.solve(K, np.concatenate([-f, b]))
    return sol[:n], sol[n:]


class DenseQp:
    """min 0.5 z'Hz + f'z s.t. Gz <= h, Aeq z = beq, held as dense arrays.

    ``solve_qp`` reads a QP only through these members, which ``lq.BandedQp``
    shares: ``size`` (variables plus inequality rows), ``H_size``,
    ``f_size`` and ``row_size`` (largest entries of H, f and the rows),
    ``pin_violated`` (whether a solve given no guess pins the rows violated
    at the equality-constrained minimum), ``start(rows)`` (the minimizer with
    the equality rows and the inequality ``rows`` held, and those rows'
    multipliers), ``values(z)`` (Gz - h, -inf where a row is never active),
    ``row(p)`` (row p and h_p) and ``kkt(active, g)``: s minimizing
    0.5 s'Hs + g's with the equality and ``active`` rows held at zero, and
    the multipliers, the active rows' last.  A singular system raises
    LinAlgError or StageSingularityError.

    ``solve_equality_kkt`` has no conditioning test, so ``start`` with rows
    tests the reciprocal condition number as ``lq``'s banded kernel does,
    and a dense QP pins no rows unless given them; the loop adds rows one at
    a time behind its dependent-row test.
    """

    pin_violated = False

    def __init__(self, H: Array, f: Array, G: Optional[Array] = None,
                 h: Optional[Array] = None, Aeq: Optional[Array] = None,
                 beq: Optional[Array] = None):
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

    def start(self, rows: Sequence[int] = ()) -> tuple[Array, Array]:
        rows = list(rows)
        if not rows:
            return solve_equality_kkt(self.H, self.f, self.Aeq, self.beq)[0], np.zeros(0)
        A = np.vstack(([] if self.Aeq is None else [self.Aeq]) + [self.G[rows]])
        b = np.concatenate(([] if self.Aeq is None else [self.beq]) + [self.h[rows]])
        K = np.block([[self.H, A.T], [A, np.zeros((len(A), len(A)))]])
        if not 1.0 / np.linalg.cond(K, 1) >= len(K) * np.finfo(float).eps:  # NaN too
            raise np.linalg.LinAlgError("KKT system with the held rows is singular")
        z, lam = solve_equality_kkt(self.H, self.f, A, b)
        return z, lam[len(lam) - len(rows):]

    def values(self, z: Array) -> Array:
        return self.G @ z - self.h

    def row(self, p: int) -> tuple[Array, float]:
        return self.G[p], float(self.h[p])

    def kkt(self, active: list[int], g: Array) -> tuple[Array, Array]:
        rows = [] if self.Aeq is None else [self.Aeq]
        A = np.vstack(rows + [self.G[active]]) if rows or active else None
        return solve_equality_kkt(self.H, g, A, None if A is None else np.zeros(A.shape[0]))


def solve_qp(H, f: Optional[Array] = None, G: Optional[Array] = None,
             h: Optional[Array] = None, Aeq: Optional[Array] = None,
             beq: Optional[Array] = None,
             start: Optional[Sequence[int]] = None) -> tuple[Array, Array]:
    """Exact minimizer of a convex QP with inequality and equality constraints.

    min 0.5 z'Hz + f'z   s.t.  Gz <= h,  Aeq z = beq.

    H must be positive semidefinite and positive definite on the null space
    of Aeq, and Aeq must have full row rank.  The matrices are dense arrays,
    or H is a QP object with the members of ``DenseQp`` (``lq.BandedQp``)
    and nothing else is passed.  ``start`` guesses the active inequality
    rows; without it, a QP that sets ``pin_violated`` guesses the rows
    violated at its equality-constrained minimum.  The guess changes the
    steps taken (module docstring), not the minimizer.  Returns (z, lam)
    with lam the multipliers of the inequality rows.  Raises
    InfeasibleConstraintsError when the rows are contradictory (no step can
    reduce a violation), SubproblemError when the equality-constrained
    problem is singular or the active-set loop exceeds its step bound.
    """
    qp = H if hasattr(H, "kkt") else DenseQp(H, f, G, h, Aeq, beq)
    vtol = ROW_TOL * (1.0 + qp.H_size + qp.f_size)
    z, active, mult = _s_pair(qp, start, vtol)
    viol = qp.values(z)
    m = viol.size
    lam = np.zeros(m)
    if m == 0:
        return z, lam
    lam[active] = mult
    steps = 0
    max_steps = STEPS_PER_DIMENSION * qp.size
    while True:
        viol[active] = -np.inf
        p = int(np.argmax(viol))
        if viol[p] <= vtol:
            return z, lam
        g_vec, h_p = qp.row(p)
        g_norm2 = float(g_vec @ g_vec)
        while True:
            steps += 1
            if steps > max_steps:
                raise SubproblemError(
                    f"dual active-set QP exceeded {max_steps} steps "
                    f"({len(active)} active rows of {m})")
            try:
                s, r = qp.kkt(active, g_vec)
            except (np.linalg.LinAlgError, StageSingularityError) as exc:
                raise SubproblemError(
                    f"KKT system of {len(active)} active rows is singular") from exc
            r_ineq = r[r.size - len(active):]
            curvature = -float(g_vec @ s)  # s'Hs, since the held rows vanish along s
            # The rounding error of s grows with the multipliers r of the
            # held rows, which are large when g nearly lies in their span.
            r_scale = qp.row_size * float(np.abs(r).sum())
            dependent = (curvature * qp.H_size
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
            viol[p] = float(g_vec @ z) - h_p
        viol = qp.values(z)


def _s_pair(qp, start: Optional[Sequence[int]], vtol: float) -> tuple[Array, list[int], Array]:
    """The loop's first S-pair from the guess ``start``: z, its held rows and their multipliers.

    The guess's rows are held and solved for; rows with a negative multiplier
    are dropped and the rest solved for again until none is negative.  A
    singular system (dependent or contradictory rows in the guess) gives way
    to the equality-constrained minimum, as does an empty guess.
    """
    cold = None
    if start is None:
        cold = _cold_start(qp)
        if not qp.pin_violated:
            return cold, [], np.zeros(0)
        start = np.flatnonzero(qp.values(cold) > vtol)
    held = [int(p) for p in start]
    while held:
        try:
            z, mult = qp.start(held)
        except (np.linalg.LinAlgError, StageSingularityError):
            break
        if np.all(mult >= 0.0):
            return z, held, mult
        held = [p for p, r in zip(held, mult) if r >= 0.0]
    return (_cold_start(qp) if cold is None else cold), [], np.zeros(0)


def _cold_start(qp) -> Array:
    """The equality-constrained minimum of ``qp``: the S-pair with no inequality rows."""
    try:
        return qp.start()[0]
    except (np.linalg.LinAlgError, StageSingularityError) as exc:
        raise SubproblemError(
            "equality-constrained QP is singular: H is not positive definite on "
            "the null space of the equality rows, or those rows are dependent") from exc


def project_polyhedron(point: Array, G: Array, h: Array) -> Array:
    """Euclidean projection of a point onto {z : Gz <= h}."""
    n = point.shape[0]
    z, _ = solve_qp(np.eye(n), -np.asarray(point, dtype=float), G=G, h=h)
    return z
