"""The benchmark workloads: set-up, timed steps and correctness checks.

Each workload has three parts:

* ``setup(seed)`` builds the game or instance and loads any reference;
* ``run(ctx, steps)`` makes the timed calls into dyngames and nothing else,
  so a traced run records only the package's own work;
* ``evaluate(ctx, out, checks)`` computes accuracy figures and runs the
  correctness checks on the outputs of ``run``, outside the timed steps.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import dyngames as dg
from dyngames.splitting import SCHEMES

import polylq

REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "rendezvous_reference.json"

# Steps shorter than SHORT_STEP_S are repeated until they have at least
# SHORT_STEP_SAMPLES samples and SHORT_STEP_TOTAL_S of them (at most
# SHORT_STEP_MAX), so their time is a within-run median.
SHORT_STEP_S = 1.0
SHORT_STEP_SAMPLES = 5
SHORT_STEP_TOTAL_S = 2.0
SHORT_STEP_MAX = 25

# Accuracy may not fall behind the first measured baseline (fishery natural
# residual 1.434e-2 after 1000 iterations, rendezvous distance 2.90e-2 after
# 10000), with 5% headroom.
FISHERY_RESIDUAL_CEILING = 1.5e-2
RENDEZVOUS_EQ_ERROR_CEILING = 3.05e-2

POLY_ETA = 1.0
POLY_MAX_ITER = 300


class Checks:
    """Correctness checks attempted and the descriptions of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Steps:
    """Wall and nominal-speed time samples of named steps.

    Step times exclude time spent in ``probe`` (a ``speed.SpeedProbe``), and
    the nominal samples are scaled by the probe's speed factor over the step.
    With ``repeat_short``, a step faster than SHORT_STEP_S is repeated (see
    SHORT_STEP_SAMPLES) so its time is a within-run median.
    """

    def __init__(self, repeat_short: bool, probe=None):
        self.repeat_short = repeat_short
        self.probe = probe
        self.wall: dict[str, list[float]] = {}
        self.nominal: dict[str, list[float]] = {}

    def _timed(self, fn):
        spent0 = self.probe.spent_s if self.probe else 0.0
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        return out, elapsed - ((self.probe.spent_s if self.probe else 0.0) - spent0)

    def run(self, name: str, fn):
        start = time.perf_counter()
        out, elapsed = self._timed(fn)
        walls = [elapsed]
        if self.repeat_short and elapsed < SHORT_STEP_S:
            while len(walls) < SHORT_STEP_SAMPLES or (
                    sum(walls) < SHORT_STEP_TOTAL_S and len(walls) < SHORT_STEP_MAX):
                walls.append(self._timed(fn)[1])
        factor = self.probe.factor_between(start, time.perf_counter()) if self.probe else 1.0
        self.wall.setdefault(name, []).extend(walls)
        self.nominal.setdefault(name, []).extend(w * factor for w in walls)
        return out

    def median(self, name: str) -> float:
        """Median nominal-speed time of a step."""
        return statistics.median(self.nominal[name])


def natural_residual(game: dg.GameDefinition, u: np.ndarray) -> float:
    """||u - P(u - F(u))||_inf with F the own-action pseudo-gradient."""
    traj = dg.rollout(game, game.initial_state, u)
    F = dg.pseudo_gradient(game, traj, feas_tol=np.inf).own_stage_grads()
    return float(np.max(np.abs(u - dg.project_onto_feasible(game, u - F))))


def load_reference() -> np.ndarray:
    data = json.loads(REFERENCE_PATH.read_text())
    actions = np.asarray(data["actions"], dtype=float)
    if actions.shape != (11, 6) or not np.all(np.isfinite(actions)):
        raise ValueError(f"malformed rendezvous reference in {REFERENCE_PATH}")
    return actions


class FisheryPG:
    name = "fishery_pg"
    solve_steps = ("solve_s",)

    def setup(self, seed: int):
        params = dg.FisheryParams()
        return SimpleNamespace(seed=seed, params=params, game=dg.fishery_game(params))

    def run(self, ctx, steps: Steps):
        game = ctx.game
        u0 = np.zeros((game.horizon + 1, game.total_action_dim))
        cfg = dg.ProjGradConfig(step_size=0.01, max_iter=1000, tol=1e-8)
        report = steps.run("solve_s", lambda: dg.projected_gradient_solve(game, u0, cfg))
        policy = steps.run("policy_s", lambda: dg.stagewise_newton_backward(
            game, report.trajectory, stage_reg=0.1))
        sim = steps.run("simulate_s", lambda: self._simulate(ctx, report, policy))
        return report, policy, sim

    @staticmethod
    def _simulate(ctx, report, policy):
        return dg.noise_comparison(ctx.game, report.trajectory, policy.equilibrium_form(),
                                   noise_var=2.0, n_runs=100, seed=ctx.seed,
                                   noise_scale=ctx.params.dt)

    def evaluate(self, ctx, out, checks: Checks) -> dict:
        report, policy, sim = out
        u = report.trajectory.actions
        p = ctx.params
        checks.check(np.all(np.isfinite(u)), "fishery actions are finite")
        checks.check(np.all(u >= -1e-12) and np.all(u[:, 0] <= p.u1_max + 1e-12)
                     and np.all(u[:, 1] <= p.u2_max + 1e-12),
                     "fishery actions lie in [0, u_max]")
        fb_ratio = sim.mean_feedback / sim.mean_openloop
        checks.check(fb_ratio < 1.0, f"feedback beats open loop (fb_ratio {fb_ratio:.4f})")
        again = self._simulate(ctx, report, policy)
        checks.check(all(np.array_equal(getattr(sim, f), getattr(again, f)) for f in
                         ("openloop_deviation", "feedback_deviation",
                          "openloop_violations", "feedback_violations")),
                     "noise comparison repeats exactly with the same seed")
        residual = natural_residual(ctx.game, u)
        checks.check(residual <= FISHERY_RESIDUAL_CEILING,
                     f"natural residual {residual:.4e} <= {FISHERY_RESIDUAL_CEILING}")
        return {"iterations": report.iterations, "residual": residual, "fb_ratio": fb_ratio}


class RendezvousDR:
    name = "rendezvous_dr"
    solve_steps = ("solve_s",)

    def setup(self, seed: int):
        return SimpleNamespace(seed=seed, game=dg.lq_rendezvous_game(),
                               reference=load_reference())

    def run(self, ctx, steps: Steps):
        cfg = dg.DrConfig(scheme="constraints", eta=1e-4, alpha=0.5, max_iter=10_000,
                          tol=1e-8)
        return steps.run("solve_s", lambda: dg.dr_solve(ctx.game, cfg))

    def evaluate(self, ctx, report, checks: Checks) -> dict:
        u = report.trajectory.actions
        norms = np.linalg.norm(u.reshape(u.shape[0], 3, 2), axis=2)
        checks.check(np.all(norms <= 2.0 + 1e-6), "rendezvous action norms <= 2+1e-6")
        meet = dg.rendezvous_residual(report.trajectory)
        checks.check(meet <= 1e-3, f"rendezvous residual {meet:.2e} <= 1e-3")
        eq_error = float(np.max(np.abs(u - ctx.reference)))
        checks.check(eq_error <= RENDEZVOUS_EQ_ERROR_CEILING,
                     f"eq_error {eq_error:.4e} <= {RENDEZVOUS_EQ_ERROR_CEILING}")
        return {"iterations": report.iterations, "eq_error": eq_error}


class PolyLqDR:
    name = "poly_lq_dr"
    solve_steps = tuple(f"scheme_s.{s}" for s in SCHEMES)

    def setup(self, seed: int):
        return SimpleNamespace(seed=seed, instance=polylq.poly_lq_instance(seed))

    def run(self, ctx, steps: Steps):
        game = ctx.instance.game
        reports = {}
        for scheme in SCHEMES:
            cfg = dg.DrConfig(scheme=scheme, eta=POLY_ETA, alpha=0.5,
                              max_iter=POLY_MAX_ITER, tol=1e-8)
            reports[scheme] = steps.run(f"scheme_s.{scheme}",
                                        lambda cfg=cfg: dg.dr_solve(game, cfg))
        return reports

    def evaluate(self, ctx, reports, checks: Checks) -> dict:
        for scheme, rep in reports.items():
            checks.check(rep.converged, f"{scheme} scheme converged "
                         f"({rep.iterations} iterations, {rep.termination})")
        actions = [rep.trajectory.actions for rep in reports.values()]
        spread = max(float(np.max(np.abs(a - b))) for a in actions for b in actions)
        checks.check(spread <= 1e-6, f"scheme spread {spread:.2e} <= 1e-6")
        violation = max(rep.constraint_residual for rep in reports.values())
        checks.check(violation <= 1e-8, f"constraint residual {violation:.2e} <= 1e-8")
        return {"iterations": sum(rep.iterations for rep in reports.values()),
                "scheme_spread": spread, "constraint_residual": violation}


WORKLOADS = {wl.name: wl for wl in (FisheryPG(), RendezvousDR(), PolyLqDR())}
