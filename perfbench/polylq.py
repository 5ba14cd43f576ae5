"""Seeded linear-quadratic games with polyhedral stage constraints.

Two players with scalar actions steer a shared planar state toward a target
under a shared quadratic state cost (the class where all three splitting
schemes have the same fixed point).  Every stage carries box limits on both
actions and one coupled state-action row ``w_k.x + s_k.u + p_k <= 0``.

The nominal design is fixed; the seed perturbs dynamics, target, initial
state and row directions by ``PERTURBATION``, so every seed asks for about the
same solver work and timings stay comparable across seeds.

Feasible by construction: each row offset is set from a reference rollout
that lies strictly inside the action boxes, leaving a positive slack there.
Rows are oriented so that the unconstrained equilibrium violates them when
the slack allows it, which keeps the coupled rows active at the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dyngames import GameDefinition, Trajectory, rollout
from dyngames.feedback import extract_lq_data, solve_lq_open_loop

HORIZON = 10
U_MAX = 2.0
PERTURBATION = 0.005
SLACK_FRACTION = 0.7  # share of the reference-to-equilibrium row gap left as slack
MIN_SLACK = 0.05
REFERENCE_SHRINK = 0.3  # reference actions: this share of the unconstrained ones

_DESIGN_SEED = 12345
_A = np.array([[1.0, 0.1], [-0.1, 0.9]])
_B = np.array([[0.6, 0.2], [0.1, 0.5]])
_TARGET = np.array([2.5, -2.5])
_X0 = np.array([0.5, -0.5])
_W = np.array([1.0, 0.5])
_S = np.array([0.8, -0.8])
_BOX_S = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


@dataclass
class PolyLqInstance:
    game: GameDefinition
    reference: Trajectory  # strictly feasible rollout the row offsets come from
    W: np.ndarray  # (T+1, 5, 2) state coefficients of the stage rows
    S: np.ndarray  # (T+1, 5, 2) action coefficients
    p: np.ndarray  # (T+1, 5) offsets


def poly_lq_instance(seed: int, horizon: int = HORIZON) -> PolyLqInstance:
    rng = np.random.default_rng(seed)
    design = np.random.default_rng(_DESIGN_SEED)
    T = horizon
    eps = PERTURBATION
    A = _A + eps * rng.standard_normal((2, 2))
    B = _B + eps * rng.standard_normal((2, 2))
    b = np.zeros(2)
    target = _TARGET + eps * rng.standard_normal(2)
    x0 = _X0 + eps * rng.standard_normal(2)
    w = _W + 0.2 * design.standard_normal((T + 1, 2)) + eps * rng.standard_normal((T + 1, 2))
    s = _S + 0.2 * design.standard_normal((T + 1, 2)) + eps * rng.standard_normal((T + 1, 2))

    Q = np.eye(2)
    q = -Q @ target
    R = []
    for n in range(2):
        Rn = 0.5 * np.eye(2) + 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
        Rn[n, n] += 0.5
        R.append(Rn)
    Qs = np.stack([Q, Q])
    Rs = np.stack(R)
    zero_cross = np.zeros((2, 2, 2))
    zero_hess = np.zeros((2, 4, 4))

    def costs(k, x, u):
        shared = 0.5 * x @ Q @ x + q @ x
        return np.array([shared + 0.5 * u @ R[n] @ u for n in range(2)])

    def cost_grads(k, x, u):
        cx = Q @ x + q
        return np.stack([cx, cx]), np.stack([R[n] @ u for n in range(2)])

    common = dict(
        horizon=T, state_dim=2, action_dims=(1, 1), initial_state=x0,
        dynamics=lambda k, x, u: A @ x + B @ u + b, stage_costs=costs,
        dynamics_jacobians=lambda k, x, u: (A, B),
        dynamics_hessians=lambda k, x, u: zero_hess,
        cost_gradients=cost_grads,
        cost_hessians=lambda k, x, u: (Qs, zero_cross, Rs),
        linear_dynamics=True, quadratic_costs=True)
    free_eq = solve_lq_open_loop(extract_lq_data(GameDefinition(**common)))
    ref_actions = np.clip(REFERENCE_SHRINK * free_eq.actions, -0.5 * U_MAX, 0.5 * U_MAX)
    reference = rollout(GameDefinition(**common), x0, ref_actions)

    W = np.zeros((T + 1, 5, 2))
    S = np.zeros((T + 1, 5, 2))
    p = np.zeros((T + 1, 5))
    for k in range(T + 1):
        wk, sk = w[k], s[k]
        gap = wk @ (free_eq.states[k] - reference.states[k]) \
            + sk @ (free_eq.actions[k] - reference.actions[k])
        if gap < 0:
            wk, sk, gap = -wk, -sk, -gap
        slack = max(SLACK_FRACTION * gap, MIN_SLACK)
        W[k, 0], S[k, 0] = wk, sk
        p[k, 0] = -(wk @ reference.states[k] + sk @ reference.actions[k]) - slack
        S[k, 1:] = _BOX_S
        p[k, 1:] = -U_MAX

    game = GameDefinition(
        **common,
        constraints=lambda k, x, u: W[k] @ x + S[k] @ u + p[k],
        constraint_jacobians=lambda k, x, u: (W[k], S[k]),
        polyhedral_constraints=True,
        name=f"poly_lq_{seed}")
    return PolyLqInstance(game=game, reference=reference, W=W, S=S, p=p)
