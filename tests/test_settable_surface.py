"""The values a caller can set: adding one is a visible change to this file."""

import dataclasses
import inspect

from dyngames import cli, lq
from dyngames.benchmarks import FisheryParams
from dyngames.certificate import (
    active_set_polish,
    kkt_residual,
    natural_residual,
    project_onto_feasible,
    residual_along,
)
from dyngames.feedback import FeedbackPolicy, feedback_rollout
from dyngames.gradient import PseudoGradient
from dyngames.model import GameDefinition, LqGameData, local_lq
from dyngames.projgrad import ProjGradConfig
from dyngames.report import build_report, iterate
from dyngames.splitting import (
    DrConfig,
    constrained_oc_projection,
    project_dynamics,
    project_stage_constraints,
    resolvent_reg_game,
    resolvent_reg_static_games,
    resolvent_static_games_uncon,
)


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def defaulted(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def keyword_only(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY]


def test_settable_surface():
    assert names(DrConfig) == ["scheme", "eta", "alpha", "max_iter", "tol",
                               "record_costs", "run_checks"]
    assert names(ProjGradConfig) == ["step_size", "max_iter", "tol", "record_costs",
                                     "run_checks"]
    assert names(FisheryParams) == ["u1_max", "u2_max", "r", "h", "dt", "horizon_time",
                                    "q1", "q2", "p1", "p2", "e1", "e2", "x0"]
    assert names(cli.RunConfig) == ["game_id", "game_params", "solver", "solve", "active_tol",
                                    "feedback", "stage_reg", "simulate", "output_dir"]
    assert names(PseudoGradient) == ["own", "action_dims"]
    assert names(FeedbackPolicy) == ["reference", "gains", "offsets", "action_dims"]
    assert names(GameDefinition) == [
        "horizon", "state_dim", "action_dims", "initial_state", "dynamics", "stage_costs",
        "constraints", "dynamics_jacobians", "dynamics_hessians", "cost_gradients",
        "cost_hessians", "constraint_jacobians", "constraint_hessians", "linear_dynamics",
        "quadratic_costs", "polyhedral_constraints", "constraints_in_actions_only", "name",
        "traj_costs", "traj_cost_gradients", "traj_dynamics_jacobians", "traj_projector",
        "traj_rollout", "traj_constraint_rows", "traj_constraint_hessians", "traj_cost_hessians",
        "traj_dynamics_hessians", "batch_dynamics", "batch_constraints", "action_offsets",
        "owner"]
    assert names(LqGameData) == ["A", "B", "b", "C", "c", "action_dims", "initial_state", "G",
                                 "rows", "active"]
    assert defaulted(resolvent_reg_game) == ["warm", "factor"]
    assert defaulted(resolvent_reg_static_games) == []
    assert defaulted(resolvent_static_games_uncon) == []
    # the divergence bound is report.DIVERGENCE_FACTOR, and the hooks are keyword-only
    assert list(inspect.signature(iterate).parameters) == [
        "step", "w0", "cand0", "max_iter", "tol", "accept", "record", "polish", "next_point"]
    assert defaulted(iterate) == keyword_only(iterate) == ["accept", "record", "polish",
                                                           "next_point"]
    assert defaulted(feedback_rollout) == ["start"]
    assert defaulted(natural_residual) == []
    # the rows and the data at the origin are the game's kept reads (``lq``), set by no caller
    assert defaulted(project_onto_feasible) == []
    assert defaulted(residual_along) == []
    assert defaulted(kkt_residual) == ["rows"]  # the rows at ``traj``, not at the origin
    assert defaulted(active_set_polish) == []
    assert defaulted(build_report) == []
    assert defaulted(project_stage_constraints) == []
    assert defaulted(constrained_oc_projection) == []
    assert defaulted(lq.factor) == []
    # the eta = 0 factor is the game's kept read, and the rows are quadraticize's to read
    assert defaulted(project_dynamics) == []
    assert defaulted(local_lq) == ["feas_tol"]
