"""The values a caller can set: adding one is a visible change to this file."""

import dataclasses
import inspect

from dyngames import cli
from dyngames.benchmarks import FisheryParams
from dyngames.projgrad import ProjGradConfig
from dyngames.splitting import (
    DrConfig,
    resolvent_reg_game,
    resolvent_reg_static_games,
    resolvent_static_games_uncon,
)


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def defaulted(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def test_settable_surface():
    assert names(DrConfig) == ["scheme", "eta", "alpha", "max_iter", "tol",
                               "record_costs", "run_checks"]
    assert names(ProjGradConfig) == ["step_size", "max_iter", "tol", "record_costs",
                                     "run_checks"]
    assert names(FisheryParams) == ["u1_max", "u2_max", "r", "h", "dt", "horizon_time",
                                    "q1", "q2", "p1", "p2", "e1", "e2", "x0"]
    assert names(cli.RunConfig) == ["game_id", "game_params", "solver", "rho", "scheme",
                                    "eta", "alpha", "max_iter", "tol", "active_tol",
                                    "feedback", "stage_reg", "simulate", "output_dir"]
    assert defaulted(resolvent_reg_game) == ["warm", "factor"]
    assert defaulted(resolvent_reg_static_games) == ["rows"]
    assert defaulted(resolvent_static_games_uncon) == []
