"""Constrained dynamic game solvers.

Open-loop Nash equilibria via projected gradient and Douglas-Rachford
splitting, local feedback policies via a stagewise Newton backward pass,
and exact solvers for small quadratic parametric games.
"""

from .model import (
    GameDefinition,
    Trajectory,
    all_player_costs,
    quadraticize,
    rollout,
    total_cost,
)
from .gradient import (
    PlayerVerdict,
    PseudoGradient,
    estimate_operator_constants,
    playerwise_minimizer_check,
    pseudo_gradient,
)
from .projgrad import ProjGradConfig, project_onto_feasible, projected_gradient_solve
from .splitting import (
    DrConfig,
    constrained_oc_projection,
    dr_solve,
    extended_gradient,
    project_dynamics,
    project_stage_constraints,
    resolvent_reg_game,
    resolvent_reg_static_games,
    resolvent_static_games_uncon,
)
from .feedback import (
    FeedbackPolicy,
    epsilon_nash_gap,
    feedback_rollout,
    solve_unconstrained_newton,
    stagewise_newton_backward,
)
from .parametric import (
    ParametricGameData,
    PiecewiseAffinePolicy,
    cone_to_inequalities,
    enumerate_lcq_parametric,
    solve_lecq_parametric,
)
from .benchmarks import (
    FisheryParams,
    LqRendezvousParams,
    NoiseComparison,
    cumulative_profits,
    fishery_game,
    lq_rendezvous_game,
    noise_comparison,
    rendezvous_residual,
)
from .report import SolverReport

__all__ = [name for name in dir() if not name.startswith("_")]
