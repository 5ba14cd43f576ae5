"""The fixed-point loop and the run report shared by the equilibrium solvers.

Projected gradient and Douglas-Rachford both iterate w <- step(w).
``iterate`` owns their loop, step norm and stop tests, and ``build_report``
turns a finished run into a ``SolverReport``; a solver supplies only its
step, its equilibrium candidate and what to check.  A solver may also pass
a polish hook (``certificate.active_set_polish``): a point it offers after
a step is certified, so it ends the run at once.

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
from .lq import PaddedRows
from .model import GameDefinition, Trajectory, all_player_costs

Array = np.ndarray

TERM_TOLERANCE = "tolerance"
TERM_MAX_ITER = "max_iter"
TERM_DIVERGENCE = "divergence"

# the leading digits of the iterations at which ``iterate`` records: 1, 2, 5, 10, 20, ...
RECORD_GRID = (1, 2, 5)


def on_record_grid(t: int) -> bool:
    """Whether iteration t >= 1 lies on the grid {1, 2, 5} * 10^j."""
    while t % 10 == 0:
        t //= 10
    return t in RECORD_GRID


@dataclass
class SolverReport:
    """Outcome of an iterative equilibrium solve.

    ``distance_trace[t]`` is the distance of iterate t to the final iterate
    (the quantity whose geometric decay rate is fitted); ``step_norms[t]``
    the infinity norm of the t-th update.  When the solver records costs,
    ``cost_trace[i]`` holds every player's game cost at the candidate after
    ``cost_iterations[i]`` steps: the initial candidate (0), the grid
    iterations {1, 2, 5} * 10^j the run stepped past, and last the reported
    result (``iterations``), whose row is ``final_costs`` (a polished result
    included).  Without a record both are None.
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
    """A finished ``iterate`` run; ``iterates`` starts with the initial iterate.

    ``records[i]`` is the record of the candidate after ``record_iterations[i]``
    steps, at the grid iterations the run stepped past (never its last one).
    ``residual`` is the natural residual of a candidate the polish hook
    certified, None when the run did not end on one.
    """

    candidate: Any
    iterates: list[Array]
    step_norms: list[float]
    termination: str
    records: list
    record_iterations: list[int]
    residual: Optional[float] = None


def iterate(step: Callable[[Array, Any], tuple[Array, Any]], w0: Array, cand0: Any,
            max_iter: int, tol: float, divergence_factor: float,
            accept: Optional[Callable[[Any], bool]] = None,
            record: Optional[Callable[[Any], Any]] = None,
            polish: Optional[Callable[[Any], Optional[tuple[Any, float]]]] = None) -> Run:
    """Run w <- step(w) until the step is small, w blows up or the budget ends.

    ``step(w, cand)`` returns a new iterate array and the next equilibrium
    candidate, given the previous one (``cand0`` at first).  ``record(cand)``,
    when given, is kept after each step t on the grid {1, 2, 5} * 10^j
    (``on_record_grid``) that the run goes past: once the stop tests let it
    go on and t < ``max_iter``.  The start and the result are not recorded;
    the caller has both.  ``polish(cand)`` is called once
    after every step when given; when it returns a point and that point's
    natural residual, which certifies it, the point replaces the candidate
    and ends the run with ``tolerance``.  Otherwise the run stops with
    ``tolerance`` once
    max|w_new - w| <= tol and ``accept(cand)`` holds (evaluated only then,
    so a costly residual check is skipped while w still moves), with
    ``divergence`` once |w|_2 > divergence_factor * (1 + |w0|_2), and else
    with ``max_iter``; ``max_iter = 0`` returns ``cand0``.
    """
    w, cand = w0, cand0
    iterates, step_norms, records, record_iterations = [w0], [], [], []
    scale0 = 1.0 + float(np.linalg.norm(w0))
    termination, residual = TERM_MAX_ITER, None
    for t in range(1, max_iter + 1):
        w_new, cand = step(w, cand)
        size = float(np.max(np.abs(w_new - w)))
        w = w_new
        iterates.append(w)
        step_norms.append(size)
        polished = None if polish is None else polish(cand)
        if polished is not None:
            (cand, residual), termination = polished, TERM_TOLERANCE
            break
        if size <= tol and (accept is None or accept(cand)):
            termination = TERM_TOLERANCE
            break
        if np.linalg.norm(w) > divergence_factor * scale0:
            termination = TERM_DIVERGENCE
            break
        if record is not None and t < max_iter and on_record_grid(t):
            records.append(record(cand))
            record_iterations.append(t)
    return Run(cand, iterates, step_norms, termination, records, record_iterations, residual)


def build_report(game: GameDefinition, trajectory: Trajectory, checked: Trajectory,
                 run: Run, run_checks: bool, initial_costs: Optional[Array],
                 rows: Optional[PaddedRows] = None) -> SolverReport:
    """The report of a run whose equilibrium candidate is ``trajectory``.

    The dynamics and constraint residuals are ``trajectory``'s; the final
    costs, the natural residual and, with ``run_checks``, the player-wise
    verdicts are those of ``checked``, the candidate's actions rolled out.
    Given the initial candidate's costs (``initial_costs``), the cost trace
    holds them, the run's records and last ``final_costs``; without them
    there is none.
    The natural residual is the polish's certificate when the run ended on
    one, else it is computed here, projecting with the solve's read of the
    rows (``rows``) as ``certificate.project_onto_feasible`` does.  A
    diverged run gets neither verdicts nor a natural residual.
    """
    verdicts, residual = [], run.residual
    if run.termination != TERM_DIVERGENCE:
        if run_checks:
            verdicts = playerwise_minimizer_check(game, checked)
        if residual is None:
            try:
                residual = natural_residual(game, checked.actions, rows)
            except UnsupportedConstraintError:
                pass
    dist = np.array([float(np.linalg.norm(w - run.iterates[-1])) for w in run.iterates])
    rate, rmse = fit_log_decay(dist)
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


def fit_log_decay(values: Array, burn_in_frac: float = 0.1,
                  floor_rel: float = 1e-13) -> tuple[float, float]:
    """Least-squares geometric decay rate of a positive trace.

    Fits log(values) ~ a + t*log(rate) over the window after burn-in and
    before the trace hits its numerical floor.  Returns (rate, rmse of the
    fit in log space); (nan, nan) if fewer than two usable points remain.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return float("nan"), float("nan")
    top = float(np.max(v))
    if top <= 0.0:
        return 0.0, 0.0
    start = int(np.floor(burn_in_frac * v.size))
    usable = np.flatnonzero(v > floor_rel * top)
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
