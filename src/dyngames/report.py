"""The fixed-point loop and the run report shared by the equilibrium solvers.

Projected gradient and Douglas-Rachford both look for a fixed point of a
map w -> g(w).  ``iterate`` owns their loop, step norm and stop tests, and
``build_report`` turns a finished run into a ``SolverReport``; a solver
supplies only its step, its equilibrium candidate and what to check.  A
solver may also pass a polish hook (``certificate.active_set_polish``): a
point it offers after a step is certified, so it ends the run at once.

Projected gradient takes the plain iteration w <- g(w).  Douglas-Rachford
asks for safeguarded type-II Anderson acceleration (``_Anderson``): after a
few plain steps the next point extrapolates from the last differences of g
and of the residual f = g - w, and an extrapolated point whose residual
|f|_2 exceeds that of the point it came from gives way to that point's
plain image.  DR's averaged map is nonexpansive, the setting of Fu, Zhang
and Boyd, "Anderson accelerated Douglas-Rachford splitting", SIAM J. Sci.
Comput. 2020 (arXiv:1908.11482).  A solver that changes its map during the
run, as the balancing of eta does (``splitting.DrConfig``), passes a restart
hook: the point it returns is evaluated next and the Anderson history starts
afresh.  Either way the step norm and the stop test read max|g(w) - w| at
each point evaluated, and only a plain run gets a fitted geometric rate.

A solver that records its candidates' costs does so on a fixed grid, not
after every step: at the initial candidate, at the iterations
{1, 2, 5} * 10^j the run steps past (``RECORD_GRID``) and at the result,
whose row is the report's ``final_costs``.  A 10k-iteration run keeps 14
rows.  A DR row rolls out its candidate's actions; one per step would be
most of the paper rendezvous solve's time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .certificate import natural_residual
from .errors import UnsupportedConstraintError
from .gradient import PlayerVerdict, playerwise_minimizer_check
from .model import GameDefinition, LqGameData, PaddedRows, Trajectory, all_player_costs

Array = np.ndarray

TERM_TOLERANCE = "tolerance"
TERM_MAX_ITER = "max_iter"
TERM_DIVERGENCE = "divergence"

# the leading digits of the iterations at which ``iterate`` records: 1, 2, 5, 10, 20, ...
RECORD_GRID = (1, 2, 5)

# The growth that counts as divergence, of a solver's iterate or a Newton residual.
DIVERGENCE_FACTOR = 1e8
# ``fit_log_decay`` skips this share of a trace, and values below this share of its top.
RATE_BURN_IN, RATE_FLOOR = 0.1, 1e-13


def on_record_grid(t: int) -> bool:
    """Whether iteration t >= 1 lies on the grid {1, 2, 5} * 10^j."""
    while t % 10 == 0:
        t //= 10
    return t in RECORD_GRID


@dataclass
class SolverReport:
    """Outcome of an iterative equilibrium solve.

    ``step_norms[t]`` is max|g(w) - w| at the point w evaluated in step
    t + 1, g the solver's fixed-point map; ``distance_trace[t]`` is the
    distance of iterate t to the final iterate (the quantity whose geometric
    decay rate is fitted), where iterate 0 is the start and iterate t >= 1
    the image g(w) of step t.  Without extrapolation or restarts (projected
    gradient) these are the plain iterates and the norms of their updates,
    and ``fitted_rate`` and ``rate_fit_rmse`` are the fit of
    ``fit_log_decay`` to ``distance_trace``; otherwise both are NaN.  When the
    solver records costs, ``cost_trace[i]`` holds every player's game cost
    at the candidate after ``cost_iterations[i]`` steps: the initial
    candidate (0), the grid iterations {1, 2, 5} * 10^j the run stepped
    past, and last the reported result (``iterations``), whose row is
    ``final_costs`` (a polished result included).  Without a record both
    are None.
    ``natural_residual`` is the final actions' r(u) = |u - P(u - F(u))|_inf
    (``certificate.natural_residual``); it is NaN for a game without a
    projection P and after divergence.
    """

    trajectory: Trajectory
    iterations: int
    termination: str
    distance_trace: Array
    step_norms: Array
    fitted_rate: float
    rate_fit_rmse: float
    verdicts: list[PlayerVerdict] = field(default_factory=list)
    cost_trace: Optional[Array] = None
    cost_iterations: Optional[Array] = None
    final_costs: Optional[Array] = None
    dynamics_residual: float = 0.0
    constraint_residual: float = 0.0
    natural_residual: float = float("nan")

    @property
    def converged(self) -> bool:
        return self.termination == TERM_TOLERANCE

    @property
    def all_players_pass(self) -> bool:
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)


@dataclass
class Run:
    """A finished ``iterate`` run.

    ``iterates`` holds the initial point and then the image g(w) of every
    point evaluated; ``step_norms`` max|g(w) - w| at each.

    ``records[i]`` is the record of the candidate after ``record_iterations[i]``
    steps, at the grid iterations the run stepped past (never its last one).
    ``residual`` is the natural residual of a candidate the polish hook
    certified, None when the run did not end on one.  ``plain`` is False
    once a point evaluated was not the image of the one before it: an
    extrapolation, a safeguard's return to a kept image or a restart.
    """

    candidate: Any
    iterates: list[Array]
    step_norms: list[float]
    termination: str
    records: list
    record_iterations: list[int]
    residual: Optional[float] = None
    plain: bool = True


# Safeguarded type-II Anderson extrapolation (``iterate(..., accelerate=True)``):
# the difference pairs kept, the plain steps before the first extrapolation,
# and the Tikhonov weight of the least-squares problem relative to |dF|_F^2,
# as A2DR regularizes it (Fu, Zhang and Boyd, arXiv:1908.11482).
ANDERSON_MEMORY = 20
ANDERSON_WARMUP = 5
ANDERSON_REG = 1e-8


class _Anderson:
    """Safeguarded type-II Anderson extrapolation of a fixed-point map g.

    Fed each evaluated point w with its image g(w), ``next_point`` returns
    the point to evaluate next.  With f = g - w, the rows of dF and dG hold
    the differences of f and of g between consecutive kept points, the last
    ANDERSON_MEMORY of them.  The extrapolation is g - dG' gamma with gamma
    the Tikhonov-regularized least-squares solution of dF' gamma ~ f (Walker
    and Ni, SIAM J. Numer. Anal. 2011; Fu, Zhang and Boyd, SIAM J. Sci.
    Comput. 2020).  An extrapolated point is kept only if |f|_2 there is at
    most |f|_2 at the point it came from; otherwise the next point is that
    point's image, already computed, and the differences are dropped.  A
    degenerate or non-finite extrapolation, or one of norm beyond ``bound``,
    gives way to the plain image g; numpy warns of none of them.
    """

    def __init__(self, size: int, bound: float):
        self.bound = bound
        self.dF, self.dG = np.empty((2, ANDERSON_MEMORY, size))  # ring buffers
        self.reset()

    def reset(self) -> None:
        """Forget the differences and the kept point, as at the start."""
        self.held = self.slot = 0  # rows filled, and the row written next
        self.kept: Optional[tuple[Array, Array, float]] = None  # g, f and |f|_2 there
        self.trial = False  # whether the point just evaluated was extrapolated

    def next_point(self, w: Array, g: Array, t: int) -> Array:
        f = (g - w).ravel()
        r = float(np.sqrt(f @ f))
        if self.trial and not r <= self.kept[2]:
            self.trial, self.held, self.slot = False, 0, 0
            return self.kept[0]
        if self.kept is not None:
            np.subtract(f, self.kept[1], out=self.dF[self.slot])
            np.subtract(g.ravel(), self.kept[0].ravel(), out=self.dG[self.slot])
            self.held = min(self.held + 1, ANDERSON_MEMORY)
            self.slot = (self.slot + 1) % ANDERSON_MEMORY
        self.kept = (g, f, r)
        if t < ANDERSON_WARMUP:
            return g
        n = self.held
        dF = self.dF[:n]
        with np.errstate(all="ignore"):
            gram = dF @ dF.T
            scale = float(gram.trace())
            if not 0.0 < scale < np.inf:
                return g
            gram.flat[::n + 1] += ANDERSON_REG * scale  # now positive definite
            gamma = np.linalg.solve(gram, dF @ f)
            trial = g.ravel() - gamma @ self.dG[:n]
            # NaN fails the comparison too
            if not np.sqrt(trial @ trial) <= self.bound:
                return g
        self.trial = True
        return trial.reshape(g.shape)


def iterate(step: Callable[[Array, Any], tuple[Array, Any]], w0: Array, cand0: Any,
            max_iter: int, tol: float, divergence_factor: float,
            accept: Optional[Callable[[Any], bool]] = None,
            record: Optional[Callable[[Any], Any]] = None,
            polish: Optional[Callable[[Any], Optional[tuple[Any, float]]]] = None,
            accelerate: bool = False,
            restart: Optional[Callable[[int, Array], Optional[Array]]] = None) -> Run:
    """Run w <- step(w) until the step is small, w blows up or the budget ends.

    ``step(w, cand)`` returns the image g(w) of the point w and the next
    equilibrium candidate, given the previous one (``cand0`` at first).
    Every call is one iteration t, and its step norm is max|g(w) - w|.
    Without ``accelerate`` the next point is g(w).  With it, after
    ANDERSON_WARMUP plain steps the next point is a safeguarded type-II
    Anderson extrapolation from the last ANDERSON_MEMORY points
    (``_Anderson``).  A trial whose residual |g(w) - w|_2 exceeds that of
    the point it came from is dropped for that point's image, already
    computed, so that step is lost; the points kept never have a larger
    residual than the one before them when g is nonexpansive, as DR's
    averaged map is.

    ``record(cand)``, when given, is kept after each step t on the grid
    {1, 2, 5} * 10^j (``on_record_grid``) that the run goes past: once the
    stop tests let it go on and t < ``max_iter``.  The start and the result
    are not recorded; the caller has both.  ``polish(cand)`` is called once
    after every step when given; when it returns a point and that point's
    natural residual, which certifies it, the point replaces the candidate
    and ends the run with ``tolerance``.  Otherwise the run stops with
    ``tolerance`` once max|g(w) - w| <= tol and ``accept(cand)`` holds
    (evaluated only then, so a costly residual check is skipped while w
    still moves), with ``divergence`` at the first image that is not finite
    or has |g(w)|_2 > divergence_factor * (1 + |w0|_2), and else with
    ``max_iter``; ``max_iter = 0`` returns ``cand0``.

    ``restart(t, g)``, when given, is called last in every step t that goes
    on, with the image g = g(w) of the point just evaluated.  A point it
    returns is evaluated next in place of g or the extrapolation, and the
    Anderson state starts afresh: the solver has changed its map, and the
    differences kept belong to the old one.  ``Run.plain`` says whether
    every point evaluated was the image of the one before it.
    """
    w, cand = w0, cand0
    iterates, step_norms, records, record_iterations = [w0], [], [], []
    bound = divergence_factor * (1.0 + float(np.linalg.norm(w0)))
    anderson = _Anderson(w0.size, bound) if accelerate else None
    termination, residual, plain = TERM_MAX_ITER, None, True
    for t in range(1, max_iter + 1):
        g, cand = step(w, cand)
        size = float(np.max(np.abs(g - w)))
        iterates.append(g)
        step_norms.append(size)
        polished = None if polish is None else polish(cand)
        if polished is not None:
            (cand, residual), termination = polished, TERM_TOLERANCE
            break
        if size <= tol and (accept is None or accept(cand)):
            termination = TERM_TOLERANCE
            break
        # a step to a non-finite g is itself not finite; NaN fails every comparison
        if not (size < np.inf and np.linalg.norm(g) <= bound):
            termination = TERM_DIVERGENCE
            break
        if record is not None and t < max_iter and on_record_grid(t):
            records.append(record(cand))
            record_iterations.append(t)
        fresh = None if restart is None else restart(t, g)
        if fresh is not None:
            w = fresh
            if anderson is not None:
                anderson.reset()
        else:
            w = g if anderson is None else anderson.next_point(w, g, t)
        plain = plain and w is g
    return Run(cand, iterates, step_norms, termination, records, record_iterations,
               residual, plain)


def build_report(game: GameDefinition, trajectory: Trajectory, checked: Trajectory,
                 run: Run, run_checks: bool, initial_costs: Optional[Array],
                 rows: Optional[PaddedRows] = None,
                 data: Optional[LqGameData] = None) -> SolverReport:
    """The report of a run whose equilibrium candidate is ``trajectory``.

    The dynamics and constraint residuals are ``trajectory``'s; the final
    costs, the natural residual and, with ``run_checks``, the player-wise
    verdicts are those of ``checked``, the candidate's actions rolled out.
    Given the initial candidate's costs (``initial_costs``), the cost trace
    holds them, the run's records and last ``final_costs``; without them
    there is none.
    ``fitted_rate`` and ``rate_fit_rmse`` are NaN for a run that was not
    plain (``Run.plain``): an extrapolated or restarted run's distances need
    not decay geometrically.
    The natural residual is the polish's certificate when the run ended on
    one, else it is computed here, projecting with the solve's reads (``rows``
    and ``data``) as ``certificate.project_onto_feasible`` does.  A
    diverged run gets neither verdicts nor a natural residual.
    """
    verdicts, residual = [], run.residual
    if run.termination != TERM_DIVERGENCE:
        if run_checks:
            verdicts = playerwise_minimizer_check(game, checked)
        if residual is None:
            try:
                residual = natural_residual(game, checked.actions, rows, data)
            except UnsupportedConstraintError:
                pass
    dist = np.array([float(np.linalg.norm(w - run.iterates[-1])) for w in run.iterates])
    # one geometric rate describes only a plain iteration's distances
    rate, rmse = fit_log_decay(dist) if run.plain else (float("nan"), float("nan"))
    final_costs = all_player_costs(game, checked)
    cost_trace = cost_iterations = None
    if initial_costs is not None:
        n = len(run.step_norms)
        trace = [initial_costs] + run.records + [final_costs]
        steps = [0] + run.record_iterations + [n]
        if n == 0:  # the initial candidate is the result
            trace, steps = trace[1:], steps[1:]
        cost_trace, cost_iterations = np.array(trace), np.array(steps)
    return SolverReport(
        trajectory=trajectory, iterations=len(run.step_norms),
        termination=run.termination, distance_trace=dist,
        step_norms=np.asarray(run.step_norms, dtype=float),
        fitted_rate=rate, rate_fit_rmse=rmse, verdicts=verdicts,
        cost_trace=cost_trace, cost_iterations=cost_iterations, final_costs=final_costs,
        dynamics_residual=float(np.max(trajectory.dynamics_residuals(game), initial=0.0)),
        constraint_residual=trajectory.constraint_violation(game),
        natural_residual=float("nan") if residual is None else residual)


def fit_log_decay(values: Array) -> tuple[float, float]:
    """Least-squares geometric decay rate of a positive trace.

    Fits log(values) ~ a + t*log(rate) over the window after burn-in
    (RATE_BURN_IN) and before the trace hits its numerical floor
    (RATE_FLOOR).  Returns (rate, rmse of the fit in log space); (nan, nan)
    if fewer than two usable points remain.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return float("nan"), float("nan")
    top = float(np.max(v))
    if top <= 0.0:
        return 0.0, 0.0
    start = int(np.floor(RATE_BURN_IN * v.size))
    usable = np.flatnonzero(v > RATE_FLOOR * top)
    usable = usable[usable >= start]
    if usable.size < 2:
        return float("nan"), float("nan")
    t = usable.astype(float)
    y = np.log(v[usable])
    Adesign = np.vstack([np.ones_like(t), t]).T
    coef, *_ = np.linalg.lstsq(Adesign, y, rcond=None)
    resid = y - Adesign @ coef
    rmse = float(np.sqrt(np.mean(resid**2)))
    return float(np.exp(coef[1])), rmse
