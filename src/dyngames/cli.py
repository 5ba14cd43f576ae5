"""Command-line front end: configure a run, solve, emit traces and reports.

A run configuration is a JSON file:

    {
      "game": {"id": "fishery", "params": {"x0": 50.0}},
      "solver": "pg",                  # or "dr"
      "rho": 0.01,                      # pg step size
      "scheme": "constraints",          # dr only: constraints|dynamics|gradient
      "eta": 1e-4, "alpha": 0.5,        # dr only; eta starts the balanced weight
      "max_iter": 1000, "tol": 1e-8,
      "active_tol": 1e-6,               # feedback: rows within this are active
      "feedback": true,                 # backward pass after the solve
      "stage_reg": 0.1,                 # feedback stage damping
      "simulate": {"noise_var": 2.0, "n_runs": 100, "seed": 7},
      "output_dir": "out"
    }

Only game and solver are required; simulate takes only noise_var (1.0),
n_runs (100) and seed (0, which ``--seed`` overrides).  Any other key, or an
output_dir that is not a non-empty string, exits with status 2 before the solve.

Outputs: trajectory.csv, convergence.csv, report.json, and (with the
feedback/simulate blocks) policy.json and simulation.csv.  All numbers are
written with full round-trip precision so identical configs and seeds give
byte-identical files.  A figure that is not finite, such as the natural
residual of a game without a projection, is written as null.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import benchmarks
from .errors import DynGameError
from .feedback import stagewise_newton_backward
from .model import GameDefinition
from .projgrad import ProjGradConfig, projected_gradient_solve
from .report import SolverReport
from .splitting import SCHEMES, DrConfig, dr_solve

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_NOT_CONVERGED = 5
EXIT_BAD_CONFIG = 2
EXIT_UNKNOWN_GAME = 3
EXIT_SOLVER_FAILURE = 4


class ConfigError(DynGameError):
    pass


class UnknownGameError(DynGameError):
    pass


def _build_fishery(params: dict):
    p = benchmarks.FisheryParams(**params)
    game = benchmarks.fishery_game(p)
    return game, {"noise_scale": p.dt, "profits": True}


def _build_rendezvous(params: dict):
    p = benchmarks.LqRendezvousParams(**params)
    game = benchmarks.lq_rendezvous_game(p)
    return game, {"noise_scale": 1.0, "profits": False}


GAME_REGISTRY = {
    "fishery": _build_fishery,
    "lq_rendezvous": _build_rendezvous,
}


@dataclass
class RunConfig:
    """Validated run configuration (see the module docstring for the schema)."""

    game_id: str
    game_params: dict
    solver: str
    rho: float = 0.01
    scheme: str = "constraints"
    eta: float = 1e-4
    alpha: float = 0.5
    max_iter: int = 1000
    tol: float = 1e-8
    active_tol: float = 1e-6
    feedback: bool = False
    stage_reg: float = 0.0
    simulate: Optional[dict] = None
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        # the config's keys are the fields, with one game object for game_id and game_params
        _known(raw, {"game", *(f.name for f in fields(cls))} - {"game_id", "game_params"},
               "config")
        game = raw.get("game")
        if not isinstance(game, dict) or "id" not in game:
            raise ConfigError("config needs a game object with an id")
        _known(game, {"id", "params"}, "game")
        solver = raw.get("solver")
        if solver not in ("pg", "dr"):
            raise ConfigError(f"solver must be 'pg' or 'dr', got {solver!r}")
        params = game.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"game params must be an object, got {params!r}")
        cfg = cls(game_id=str(game["id"]), game_params=dict(params), solver=solver)
        for name in ("rho", "eta", "alpha", "tol", "active_tol", "stage_reg"):
            if name in raw:
                val = _number(raw[name], name)
                if name == "stage_reg":
                    if not 0.0 <= val < np.inf:  # rejects NaN too
                        raise ConfigError(f"stage_reg must be finite and nonnegative, got {val}")
                elif not 0.0 < val < np.inf:  # rejects NaN too
                    raise ConfigError(f"{name} must be positive and finite, got {val}")
                setattr(cfg, name, val)
        cfg.max_iter = _count(raw.get("max_iter", cfg.max_iter), "max_iter")
        if cfg.max_iter <= 0:
            raise ConfigError("max_iter must be positive")
        cfg.scheme = raw.get("scheme", cfg.scheme)
        if cfg.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}")
        if not 0.0 < cfg.alpha < 1.0:
            raise ConfigError("alpha must lie strictly inside (0, 1)")
        cfg.feedback = raw.get("feedback", False)
        if not isinstance(cfg.feedback, bool):
            raise ConfigError(f"feedback must be true or false, got {cfg.feedback!r}")
        sim = raw.get("simulate")
        if sim is not None:
            if not isinstance(sim, dict):
                raise ConfigError("simulate must be an object")
            _known(sim, {"noise_var", "n_runs", "seed"}, "simulate")
            cfg.simulate = {
                "noise_var": _number(sim.get("noise_var", 1.0), "simulate.noise_var"),
                "n_runs": _count(sim.get("n_runs", 100), "simulate.n_runs"),
                "seed": _seed(sim.get("seed", 0), "simulate.seed"),
            }
            if not cfg.simulate["noise_var"] >= 0 or cfg.simulate["n_runs"] <= 0:
                raise ConfigError("simulate block needs noise_var >= 0 and n_runs > 0")
            if not cfg.feedback:  # the simulation replays the policy
                raise ConfigError("simulate block requires feedback: true")
        cfg.output_dir = raw.get("output_dir", "out")
        if not (isinstance(cfg.output_dir, str) and cfg.output_dir):
            raise ConfigError(f"output_dir must be a non-empty string, got {cfg.output_dir!r}")
        return cfg


def _known(raw: dict, keys: set, where: str) -> None:
    """Refuse the keys outside ``keys``, such as misspelled ones."""
    unknown = sorted(map(str, set(raw) - keys))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}; known: {sorted(keys)}")


def _number(raw, name: str) -> float:
    """A number; a boolean is refused, not read as 0 or 1."""
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be a number, got {raw!r}")


def _count(raw, name: str) -> int:
    """A whole number; a fraction or a boolean is refused, not truncated."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if not isinstance(raw, (bool, float)):
        try:
            return int(raw)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be a whole number, got {raw!r}")


def _seed(raw, name: str) -> int:
    """A nonnegative whole number, as numpy's random generators take."""
    val = _count(raw, name)
    if val < 0:
        raise ConfigError(f"{name} must be nonnegative, got {val}")
    return val


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One comma-separated line per row: strings as given, numbers by ``_fmt``."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_trajectory_csv(path: Path, game: GameDefinition, traj) -> None:
    cols = ["k"] + [f"x{i + 1}" for i in range(game.state_dim)]
    for n, d in enumerate(game.action_dims):
        cols += [f"u{n + 1}_{j + 1}" for j in range(d)]
    _write_csv(path, cols, ([str(k), *traj.states[k], *traj.actions[k]]
                            for k in range(traj.states.shape[0])))


def _write_convergence_csv(path: Path, report: SolverReport) -> None:
    steps = report.step_norms
    _write_csv(path, ["iteration", "distance_to_final", "step_norm"],
               ([str(t), dist, steps[t - 1] if 1 <= t <= steps.shape[0] else 0.0]
                for t, dist in enumerate(report.distance_trace)))


def _write_simulation_csv(path: Path, comparison) -> None:
    c = comparison
    _write_csv(path, ["run", "openloop_deviation", "feedback_deviation",
                      "openloop_violations", "feedback_violations"],
               ([str(i), c.openloop_deviation[i], c.feedback_deviation[i],
                 str(int(c.openloop_violations[i])), str(int(c.feedback_violations[i]))]
                for i in range(c.openloop_deviation.shape[0])))


def _write_json(path: Path, payload: dict, indent: Optional[int] = None) -> None:
    """Write ``payload`` as strict JSON, every non-finite number as null."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    path.write_text(json.dumps(strict, sort_keys=True, indent=indent, allow_nan=False) + "\n")


def _policy_payload(policy) -> dict:
    return {
        "stages": [
            {
                "k": k,
                "K": policy.gains[k].tolist(),
                "s": policy.offsets[k].tolist(),
                "x_ref": policy.reference.states[k].tolist(),
                "u_ref": policy.reference.actions[k].tolist(),
            }
            for k in range(policy.horizon + 1)
        ]
    }


def run(config: RunConfig) -> int:
    """Execute one configured solve, logging progress; returns the exit status."""
    builder = GAME_REGISTRY.get(config.game_id)
    if builder is None:
        raise UnknownGameError(
            f"unknown game id {config.game_id!r}; known: {sorted(GAME_REGISTRY)}")
    try:
        game, meta = builder(config.game_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid game parameters: {exc}") from exc

    T, n_u = game.horizon, game.total_action_dim
    u0 = np.zeros((T + 1, n_u))
    if config.solver == "pg":
        cfg = ProjGradConfig(step_size=config.rho, max_iter=config.max_iter,
                             tol=config.tol)
        log.info("running projected gradient on %s (rho=%s, max_iter=%s)",
                 config.game_id, config.rho, config.max_iter)
        report = projected_gradient_solve(game, u0, cfg)
    else:
        cfg = DrConfig(scheme=config.scheme, eta=config.eta, alpha=config.alpha,
                       max_iter=config.max_iter, tol=config.tol)
        log.info("running splitting solver on %s (scheme=%s, eta=%s, alpha=%s)",
                 config.game_id, config.scheme, config.eta, config.alpha)
        report = dr_solve(game, cfg)
    log.info("finished after %d iterations (%s)", report.iterations, report.termination)

    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(outdir / "trajectory.csv", game, report.trajectory)
    _write_convergence_csv(outdir / "convergence.csv", report)

    payload = {
        "game": config.game_id,
        "solver": config.solver,
        "iterations": report.iterations,
        "termination": report.termination,
        "converged": report.converged,
        "fitted_rate": report.fitted_rate,
        "rate_fit_rmse": report.rate_fit_rmse,
        "dynamics_residual": report.dynamics_residual,
        "constraint_residual": report.constraint_residual,
        "natural_residual": report.natural_residual,
        "player_costs": [float(c) for c in report.final_costs],
        "playerwise_check": [
            {"player": v.player, "verdict": v.verdict,
             "grad_norm": v.grad_norm, "flags": list(v.flags)}
            for v in report.verdicts
        ],
    }
    if meta.get("profits"):
        payload["player_profits"] = [-float(c) for c in report.final_costs]

    policy = None
    if config.feedback:
        log.info("computing local feedback policy")
        policy = stagewise_newton_backward(game, report.trajectory,
                                           active_tol=config.active_tol,
                                           feas_tol=np.inf,
                                           stage_reg=config.stage_reg)
        _write_json(outdir / "policy.json", _policy_payload(policy))

    if config.simulate is not None:  # from_dict asks for feedback with it
        sim = config.simulate
        log.info("simulating %d noisy runs (seed %d)", sim["n_runs"], sim["seed"])
        comparison = benchmarks.noise_comparison(
            game, report.trajectory, policy.equilibrium_form(),
            noise_var=sim["noise_var"], n_runs=sim["n_runs"], seed=sim["seed"],
            noise_scale=meta.get("noise_scale", 1.0))
        _write_simulation_csv(outdir / "simulation.csv", comparison)
        payload["simulation"] = {
            **sim,
            "mean_openloop_deviation": comparison.mean_openloop,
            "mean_feedback_deviation": comparison.mean_feedback,
        }

    _write_json(outdir / "report.json", payload, indent=1)
    log.info("wrote outputs to %s", outdir)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyngames",
        description="Solve a constrained dynamic game from a JSON run config.")
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", help="override the config's output directory")
    parser.add_argument("--seed", type=int, help="override the simulation seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        config = RunConfig.from_dict(raw)
        seed = None if args.seed is None else _seed(args.seed, "--seed")
        if seed is not None and config.simulate is not None:
            config.simulate["seed"] = seed
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if args.out:
        config.output_dir = args.out
    level = log.level
    if not args.quiet:  # progress lines on stdout, for this call only
        console = logging.StreamHandler(sys.stdout)
        console.setFormatter(logging.Formatter("%(message)s"))
        log.addHandler(console)
        log.setLevel(logging.INFO)
    try:
        return run(config)
    except UnknownGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_GAME
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except DynGameError as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    finally:
        if not args.quiet:
            log.removeHandler(console)
            log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
