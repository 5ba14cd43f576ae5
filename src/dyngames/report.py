"""The fixed-point loop and the run report shared by the equilibrium solvers.

Projected gradient and Douglas-Rachford both look for a fixed point of a
map w -> g(w).  ``iterate`` owns their loop, step norm and stop tests, and
``build_report`` reports the rollout of a finished run's actions; a solver
supplies only its step, its equilibrium candidate and what to check.  A
solver may also pass a polish hook (``certificate.active_set_polish``): a
point it offers after a step is certified, so it ends the run at once, and
the report takes its certificate: the natural residual where the game has a
projection, and the KKT residual, which needs none.

Projected gradient takes the plain iteration w <- g(w).  A solver that
chooses its next point itself passes a ``next_point`` hook: Douglas-Rachford
extrapolates and balances its weight there (``splitting.dr_solve``).  Either
way the step norm and the stop test read max|g(w) - w| at each point
evaluated, and only a plain run gets a fitted geometric rate, fitted to
those step norms.

A run keeps O(log n) of its images, not all n: the start, the images at the
grid iterations {1, 2, 5} * 10^j (``RECORD_GRID``) and the last two, from
which ``build_report`` measures the distances to the final image (12 arrays
for 1000 iterations).  A solver that records its candidates' costs does so on
the same grid (``SolverReport``), not after every step: a 10k-iteration run
keeps 14 rows.  A DR row rolls out its candidate's actions; one per step
would be most of the paper rendezvous solve's time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .certificate import residual_along
from .errors import UnsupportedConstraintError
from .gradient import PlayerVerdict, playerwise_minimizer_check
from .model import GameDefinition, Trajectory, all_player_costs

Array = np.ndarray

TERM_TOLERANCE = "tolerance"
TERM_MAX_ITER = "max_iter"
TERM_DIVERGENCE = "divergence"

# the leading digits of the iterations after 0 at which ``iterate`` records: 1, 2, 5, 10, ...
RECORD_GRID = (1, 2, 5)

# The growth that counts as divergence, of a solver's iterate or a Newton residual.
DIVERGENCE_FACTOR = 1e8
# ``fit_log_decay`` skips this share of a trace, and values below this share of its top.
RATE_BURN_IN, RATE_FLOOR = 0.1, 1e-13


def on_record_grid(t: int) -> bool:
    """Whether iteration t >= 0 is 0 or lies on the grid {1, 2, 5} * 10^j."""
    while t and t % 10 == 0:
        t //= 10
    return t == 0 or t in RECORD_GRID


@dataclass
class SolverReport:
    """Outcome of an iterative equilibrium solve.

    ``step_norms[t]`` is max|g(w) - w| at the point w evaluated in step
    t + 1, g the solver's fixed-point map.  Iterate 0 is the start and
    iterate t >= 1 the image g(w) of step t; ``distance_trace[i]`` is the
    2-norm distance of iterate ``distance_iterations[i]`` to the final one,
    sampled at the start, the grid iterations {1, 2, 5} * 10^j and the last
    two iterations (``Run``), so ``distance_trace[0]`` is the start's and
    ``distance_trace[-2]`` the length of the last step; only a report built
    by hand has no ``distance_iterations``.  In a plain run (``Run.plain``,
    projected gradient) these are the iterates and the norms of their
    updates, and ``fitted_rate`` and ``rate_fit_rmse`` are the fit of
    ``fit_log_decay`` to ``step_norms``, which decay at the iterates' rate;
    otherwise both are NaN.  When the solver records costs, ``cost_trace[i]``
    holds every player's game cost at the candidate after
    ``cost_iterations[i]`` steps: the initial candidate (0), the grid
    iterations {1, 2, 5} * 10^j the run stepped past, and last the reported
    result (``iterations``), whose row is ``final_costs`` (a polished result
    included).  Without a record both are None.
    ``trajectory`` is, for every solver, the rollout of the reported actions
    from the game's initial state, and every other figure is its own:
    ``constraint_residual`` its largest row violation and ``natural_residual``
    r(u) = |u - P(u - F(u))|_inf (``certificate.natural_residual``), NaN for
    a game without a projection P and after divergence.  ``kkt_residual`` is
    ``certificate.kkt_residual`` at a result the active-set polish
    certified, with the polish's multipliers, in gradient units; it is NaN
    where no polish certified the result.
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
    constraint_residual: float = 0.0
    natural_residual: float = float("nan")
    distance_iterations: Optional[Array] = None
    kkt_residual: float = float("nan")

    @property
    def converged(self) -> bool:
        return self.termination == TERM_TOLERANCE

    @property
    def all_players_pass(self) -> bool:
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)


@dataclass
class Run:
    """A finished ``iterate`` run.

    ``iterates[i]`` is iterate ``iterate_iterations[i]``: the initial point
    (0), then the image g(w) of step t at the grid iterations {1, 2, 5} * 10^j
    (``on_record_grid``) and at the last two steps: 12 for a run of 1000
    steps, 15 for one of 10000.  ``step_norms`` holds max|g(w) - w| at every
    point evaluated.

    ``records[i]`` is the record of the candidate after ``record_iterations[i]``
    steps, at the start (t = 0) and the grid iterations the run stepped past
    (never its last one); both are None without a record hook.
    ``residual`` is the certificate the polish hook returned with the
    candidate it certified, None when the run did not end on one.
    ``plain`` is False once the ``next_point`` hook returned a point other
    than the image g.
    """

    candidate: Any
    iterates: list[Array]
    iterate_iterations: list[int]
    step_norms: list[float]
    termination: str
    records: Optional[list]
    record_iterations: Optional[list[int]]
    residual: Any = None
    plain: bool = True


def iterate(step: Callable[[Array, Any], tuple[Array, Any]], w0: Array, cand0: Any,
            max_iter: int, tol: float, *,
            accept: Optional[Callable[[Any], bool]] = None,
            record: Optional[Callable[[Any], Any]] = None,
            polish: Optional[Callable[[Any], Optional[tuple[Any, Any]]]] = None,
            next_point: Optional[Callable[[int, Array, Array], Array]] = None) -> Run:
    """Run w <- step(w) until the step is small, w blows up or the budget ends.

    ``step(w, cand)`` returns the image g(w) of the point w and the next
    equilibrium candidate, given the previous one (``cand0`` at first).
    Every call is one iteration t, and its step norm is max|g(w) - w|.
    The next point is g(w), or ``next_point(t, w, g)`` when that hook is
    given, as ``splitting.dr_solve`` gives its extrapolation and eta
    balancing: it is called last in every step t that goes on, with the
    point w just evaluated and its image g (``Run.plain`` says whether it
    always returned g).

    ``record(cand)``, when given, is kept for the candidate after each step
    t on the grid {0} and {1, 2, 5} * 10^j (``on_record_grid``) that the run
    goes past: the start ``cand0`` at t = 0, and after each later grid step
    that the stop tests let the run go on from while t < ``max_iter``.  The
    result is not recorded; the caller has it.  ``polish(cand)`` is called
    once after every step when given; when it returns a point and that point's
    certificate (``certificate.ActiveSetPolish`` returns its natural and KKT
    residuals), the point replaces the candidate, the certificate becomes
    ``Run.residual`` and the run ends with ``tolerance``.  Otherwise the run
    stops with ``tolerance`` once max|g(w) - w| <= tol and ``accept(cand)`` holds
    (evaluated only then, so a costly residual check is skipped while w
    still moves), with ``divergence`` at the first image that is not finite
    or has |g(w)|_2 > DIVERGENCE_FACTOR * (1 + |w0|_2), and else with
    ``max_iter``; ``max_iter = 0`` returns ``cand0``.  Of the images only
    the samples ``Run`` names are kept.  The four hooks are keyword-only.
    """
    w, cand = w0, cand0
    iterates, iterate_iterations, step_norms = [w0], [0], []
    records, record_iterations = ([], []) if record is not None else (None, None)
    bound = DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(w0)))
    termination, residual, plain = TERM_MAX_ITER, None, True
    for t in range(1, max_iter + 1):
        # the candidate after t - 1 steps, which the run goes past
        if record is not None and on_record_grid(t - 1):
            records.append(record(cand))
            record_iterations.append(t - 1)
        g, cand = step(w, cand)
        size = float(np.max(np.abs(g - w)))
        iterates.append(g)
        iterate_iterations.append(t)
        if t > 2 and not on_record_grid(t - 2):  # now neither sampled nor one of the last two
            del iterates[-3], iterate_iterations[-3]
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
        w = g if next_point is None else next_point(t, w, g)
        plain = plain and w is g
    return Run(cand, iterates, iterate_iterations, step_norms, termination, records,
               record_iterations, residual, plain)


def build_report(game: GameDefinition, trajectory: Trajectory, run: Run,
                 run_checks: bool) -> SolverReport:
    """The report of a run whose result, rolled out, is ``trajectory``.

    The final costs, the constraint residual, the natural residual and, with
    ``run_checks``, the player-wise verdicts are all ``trajectory``'s.
    When the run recorded costs, the cost trace holds its records, from the
    start at t = 0 on, and last ``final_costs``; otherwise there is none.
    The distances to the final iterate are measured at the iterates the run
    kept.  ``fitted_rate`` and ``rate_fit_rmse`` are fitted to the step norms
    of a plain run and are NaN for one that was not (``Run.plain``): the
    steps at points a solver chose need not decay geometrically.
    When the run ended on a polished point, the natural and KKT residuals
    are the polish's certificate (``certificate.ActiveSetPolish``);
    otherwise the KKT residual is NaN and the natural residual is computed
    here along ``trajectory``, which is not rolled out again
    (``certificate.residual_along``).
    A diverged run gets neither verdicts nor a natural residual.
    """
    verdicts, (residual, kkt) = [], run.residual or (None, float("nan"))
    if run.termination != TERM_DIVERGENCE:
        if run_checks:
            verdicts = playerwise_minimizer_check(game, trajectory)
        if residual is None:
            try:
                residual = residual_along(game, trajectory)
            except UnsupportedConstraintError:
                pass
    dist = np.array([float(np.linalg.norm(w - run.iterates[-1])) for w in run.iterates])
    # one geometric rate describes only a plain iteration's steps
    rate, rmse = fit_log_decay(run.step_norms) if run.plain else (float("nan"), float("nan"))
    final_costs = all_player_costs(game, trajectory)
    cost_trace = cost_iterations = None
    if run.records is not None:
        cost_trace = np.array(run.records + [final_costs])
        cost_iterations = np.array(run.record_iterations + [len(run.step_norms)])
    return SolverReport(
        trajectory=trajectory, iterations=len(run.step_norms),
        termination=run.termination, distance_trace=dist,
        distance_iterations=np.array(run.iterate_iterations),
        step_norms=np.asarray(run.step_norms, dtype=float),
        fitted_rate=rate, rate_fit_rmse=rmse, verdicts=verdicts,
        cost_trace=cost_trace, cost_iterations=cost_iterations, final_costs=final_costs,
        constraint_residual=trajectory.constraint_violation(game),
        natural_residual=float("nan") if residual is None else residual, kkt_residual=kkt)


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
