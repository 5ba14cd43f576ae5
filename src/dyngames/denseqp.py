"""Exact solvers for stage problems and for QPs over a whole trajectory.

Every small stage problem is one linear complementarity problem (LCP) in
the multipliers of the stage's rows, ``_stage_lcp``: a solve with the rows
q violates held (``solve_equality_kkt``), and Lemke's method (``_lemke``)
where that guess fails.  The static-game resolvents of ``splitting`` pose
it with M = G J^{-1} G', the projection onto a stage's rows
(``project_polyhedron``) with M = G G', and ``parametric``'s region test
projects 0.  For these M, Lemke's method ends on a ray only when the rows
admit no point.

``solve_qp`` is a dual active-set method (Goldfarb and Idnani, "A
numerically stable dual method for solving strictly convex quadratic
programs", Math. Programming 27, 1983).  It starts from an S-pair, inequality
rows held as equalities with nonnegative multipliers, at the least the
equality-constrained minimum with none.  It adds the most violated
inequality row, drops a row whose multiplier would turn negative on the
way, and re-solves the KKT system of the current active set at every step.
The iterates stay dual feasible and the dual objective rises at every step,
so the method stops after finitely many steps at the exact minimizer, or
proves the rows contradictory.  A row that rounding puts in the span of the
active rows, with no multiplier to block its step, is held with them in one
solve (``_held_with``): a regular system whose point meets the held rows
shows it lies only nearly in that span, and the loop goes on from there;
otherwise the rows contradict.

Any S-pair will do as the start, and a good guess of the final active rows
saves most of the steps (warm starts: Ferreau, Bock and Diehl, Int. J.
Robust Nonlinear Control 18, 2008).  A guess is checked exactly: its rows
are held, rows with a negative multiplier are dropped and the rest solved
for again, and a singular system falls back to the equality-constrained
minimum.  Given no guess, the loop holds the rows violated at that minimum.

The loop reads a QP only through the members of ``lq.BandedQp``, a QP over
a whole stacked trajectory, which reads its stage rows in place and solves
each KKT system in band, O(T) per active-set step.
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


def solve_equality_kkt(H: Array, f: Array) -> Array:
    """The minimizer z of 0.5 z'Hz + f'z with every row held: its KKT system Hz = -f.

    The stage LCP's guess poses it with the guessed rows S held, H = M_SS
    and f = q_S (``_stage_lcp``).  Raises ``np.linalg.LinAlgError`` when H
    is singular.
    """
    return np.linalg.solve(H, -np.asarray(f, dtype=float))


def solve_qp(qp, start: Optional[Sequence[int]] = None) -> tuple[Array, Array]:
    """Exact minimizer of the convex QP ``qp``, a ``lq.BandedQp`` or an object with its members.

    min 0.5 z'Hz + f'z   s.t.  Gz <= h,  Aeq z = beq.

    The members are ``size`` (variables plus inequality rows), ``H_size``,
    ``f_size`` and ``row_size`` (largest entries of H, f and the rows),
    ``start(rows)`` (the minimizer with the equality rows and the inequality
    ``rows`` held, and those rows' multipliers), ``values(z)`` (Gz - h, -inf
    where a row is never active), ``row(p)`` (row p and h_p) and
    ``kkt(active, g)``: s minimizing 0.5 s'Hs + g's with the equality and
    ``active`` rows held at zero, and the multipliers, the active rows'
    last.  A singular system raises LinAlgError or StageSingularityError.

    H must be positive semidefinite and positive definite on the null space
    of Aeq, and Aeq must have full row rank.  ``start`` guesses the active
    inequality rows; without it, the rows violated at the
    equality-constrained minimum are the guess.  The guess changes the
    steps taken (module docstring), not the minimizer.  Returns (z, lam)
    with lam the multipliers of the inequality rows.  Raises
    InfeasibleConstraintsError when the rows are contradictory (no step can
    reduce a violation), SubproblemError when the equality-constrained
    problem is singular or the active-set loop exceeds its step bound.
    """
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
                pair = _held_with(qp, active, p, vtol)
                if pair is None:
                    raise InfeasibleConstraintsError(
                        f"inequality row {p} cannot be satisfied with the rows active",
                        max_violation=float(viol[p]))
                active.append(p)
                z, lam[active] = pair
                break
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


def _held_with(qp, active: list[int], p: int, vtol: float) -> Optional[tuple[Array, Array]]:
    """The S-pair holding row p with the ``active`` rows, for p counted as dependent on them.

    Nothing blocks p's step, so p either contradicts the active rows or lies
    only nearly in their span, too near for its step to be taken by
    increments.  In the second case the system with p held is regular, its
    point meets the held rows within ``vtol`` and its multipliers are
    nonnegative up to ROW_TOL relative to the largest (clipped at 0):
    (z, multipliers).  None in the first.
    """
    held = active + [p]
    try:
        z, mult = qp.start(held)
    except (np.linalg.LinAlgError, StageSingularityError):
        return None
    if not (np.max(np.abs(qp.values(z)[held])) <= vtol
            and np.all(mult >= -ROW_TOL * (1.0 + np.max(np.abs(mult))))):
        return None
    return z, np.maximum(mult, 0.0)


def _s_pair(qp, start: Optional[Sequence[int]], vtol: float) -> tuple[Array, list[int], Array]:
    """The loop's first S-pair from the guess ``start``: z, its held rows and their multipliers.

    The guess's rows, without a guess those violated at the
    equality-constrained minimum, are held and solved for; rows with a
    negative multiplier are dropped and the rest solved for again until none
    is negative.  A singular system (dependent or contradictory rows in the
    guess) gives way to the equality-constrained minimum, as does an empty
    guess.
    """
    cold = None
    if start is None:
        cold = _cold_start(qp)
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


# Relative size below which a tableau entry counts as zero in Lemke's ratio
# test, and ratios count as tied.
_PIVOT_TOL = 1e-11


class _LemkeRay(InfeasibleConstraintsError, SubproblemError):
    """Lemke's method ended on a ray: the rows admit no point, or the stage game is not monotone."""


def _lemke(M: Array, q: Array, stage: int) -> Array:
    """z >= 0 with w = q + M z >= 0 and w'z = 0, by Lemke's method.

    Complementary pivoting with covering vector 1 and the lexicographic
    minimum-ratio rule, which cannot cycle on degenerate rows (Cottle, Pang
    and Stone, *The Linear Complementarity Problem*, 1992, section 4.4).
    For M = G J^{-1} G^T with J positive definite it ends on a ray only when
    the rows G are infeasible; that raises ``_LemkeRay`` naming the stage,
    and running out of pivots a SubproblemError that is not one.
    """
    m = q.size
    # Tableau of  w - M z - z0 = q  over the columns w (0..m-1), z (m..2m-1),
    # z0 (2m) and the right-hand side; columns 0..m-1 hold B^{-1}.
    tab = np.hstack([np.eye(m), -M, -np.ones((m, 1)), q[:, None]])
    basis = np.arange(m)
    done_tol = _PIVOT_TOL * (1.0 + np.max(np.abs(q)))
    rows, col, entering = np.arange(m), np.ones(m), 2 * m  # z0 enters where q is least
    # Lexicographic pivoting never revisits a basis; the bound only stops
    # floating-point cycling.
    for _ in range(50 * (m + 1)):
        for j in (-1, *range(m)):  # ratios of [rhs, B^{-1}]; z0 leaves first on a tie
            ratio = tab[rows, j] / col[rows]
            rows = rows[ratio <= ratio.min() + _PIVOT_TOL * (1.0 + abs(ratio.min()))]
            if j == -1 and np.any(basis[rows] == 2 * m):
                rows = rows[basis[rows] == 2 * m]
            if rows.size == 1:
                break
        r = rows[0]
        row = tab[r] / tab[r, entering]
        tab -= np.outer(tab[:, entering], row)
        tab[r] = row
        basis[r], leaving = entering, basis[r]
        # z0 is the largest violation of w >= 0; rows through one point can
        # leave it at rounding level without a tie.
        z0 = tab[basis == 2 * m, -1]
        if z0.size == 0 or z0[0] <= done_tol:
            z = np.zeros(m)
            held = (basis >= m) & (basis < 2 * m)
            z[basis[held] - m] = tab[held, -1]
            return z
        entering = leaving + m if leaving < m else leaving - m
        col = tab[:, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL * (1.0 + np.max(np.abs(col))))
        if rows.size == 0:
            raise _LemkeRay(
                f"stage {stage}: Lemke's method ended on a ray; the stage rows are "
                "infeasible or the stage game is not monotone")
    raise SubproblemError(f"stage {stage}: Lemke's method did not terminate")


def _stage_lcp(M: Array, q: Array, stage: int) -> Array:
    """``_lemke``'s LCP, tried first with the rows q violates as its active rows.

    The guess is z_S = -M_SS^{-1} q_S on the rows S where q < 0, and z = 0
    elsewhere.  It is the solution when z_S >= 0 and w = q + M z >= -tol,
    with w_S <= tol, in Lemke's own tolerance.  Otherwise, or when M_SS is
    singular, Lemke's method solves the LCP.
    """
    S = q < 0.0
    tol = _PIVOT_TOL * (1.0 + np.max(np.abs(q), initial=0.0))
    try:
        z_S = solve_equality_kkt(M[np.ix_(S, S)], q[S])
    except np.linalg.LinAlgError:
        return _lemke(M, q, stage)
    w = q + M[:, S] @ z_S
    if np.all(z_S >= 0.0) and np.all(w >= -tol) and np.all(w[S] <= tol):
        z = np.zeros(q.size)
        z[S] = z_S
        return z
    return _lemke(M, q, stage)


def project_polyhedron(point: Array, G: Array, h: Array, stage: int = 0) -> Array:
    """Euclidean projection of a point a onto {z : Gz <= h}, the rows of stage ``stage``.

    The projection is z = a - G'lam, the multipliers lam solving the stage
    LCP with M = G G' and q = h - G a (``_stage_lcp``).  Rows that admit no
    point raise InfeasibleConstraintsError naming the stage.
    """
    point = np.asarray(point, dtype=float)
    return point - G.T @ _stage_lcp(G @ G.T, h - G @ point, stage)
