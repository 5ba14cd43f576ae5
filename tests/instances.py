"""Hand-built game instances shared between unit and acceptance tests."""

from typing import NamedTuple

import numpy as np

from dyngames.benchmarks import FisheryParams, fishery_game
from dyngames.lq import extract_lq_data, solve_lq_open_loop
from dyngames.model import GameDefinition, Trajectory, rollout

from conftest import decoupled_lq_game, random_lq_game
from oracles import stacked_lq_gne


def cost_blocks_from_lq(lq, N, T, n_x, n_u):
    """Symmetric [1, x, u] quadratic-form blocks from separable LQ pieces."""
    blocks = []
    for n in range(N):
        per_stage = []
        for k in range(T + 1):
            C = np.zeros((1 + n_x + n_u, 1 + n_x + n_u))
            C[0, 1:1 + n_x] = lq["q"][n][k]
            C[1:1 + n_x, 0] = lq["q"][n][k]
            C[0, 1 + n_x:] = lq["r"][n][k]
            C[1 + n_x:, 0] = lq["r"][n][k]
            C[1:1 + n_x, 1:1 + n_x] = lq["Q"][n][k]
            C[1 + n_x:, 1 + n_x:] = lq["R"][n][k]
            per_stage.append(C)
        blocks.append(tuple(per_stage))
    return tuple(blocks)


def affine_quadratic_game(lq, x0, rows, action_dims=(1, 1)):
    """Declared linear-quadratic game from per-stage matrices, with affine rows.

    ``lq`` holds the lists A, B, b, Q, q, R, r of the test game builders
    (player n's stage cost 0.5 x'Q x + q'x + 0.5 u'R u + r'u); ``rows``
    maps a stage k to (W, S, p), the rows W x_k + S u_k + p <= 0.
    """
    A, B, b = lq["A"], lq["B"], lq["b"]
    Q, q, R, r = lq["Q"], lq["q"], lq["R"], lq["r"]
    T, N = len(Q[0]) - 1, len(action_dims)
    n_x, n_u = len(x0), sum(action_dims)

    def costs(k, x, u):
        return np.array([0.5 * x @ Q[n][k] @ x + q[n][k] @ x
                         + 0.5 * u @ R[n][k] @ u + r[n][k] @ u for n in range(N)])

    def cost_grads(k, x, u):
        return (np.stack([Q[n][k] @ x + q[n][k] for n in range(N)]),
                np.stack([R[n][k] @ u + r[n][k] for n in range(N)]))

    def cost_hess(k, x, u):
        return (np.stack([Q[n][k] for n in range(N)]), np.zeros((N, n_x, n_u)),
                np.stack([R[n][k] for n in range(N)]))

    def constraints(k, x, u):
        if k not in rows:
            return np.zeros(0)
        W, S, p = rows[k]
        return W @ x + S @ u + p

    def constraint_jac(k, x, u):
        if k not in rows:
            return np.zeros((0, n_x)), np.zeros((0, n_u))
        return rows[k][0], rows[k][1]

    return GameDefinition(
        horizon=T, state_dim=n_x, action_dims=tuple(action_dims), initial_state=x0,
        dynamics=lambda k, x, u: A[k] @ x + B[k] @ u + b[k], stage_costs=costs,
        constraints=constraints if rows else None,
        dynamics_jacobians=lambda k, x, u: (A[k], B[k]),
        dynamics_hessians=lambda k, x, u: np.zeros((n_x, n_x + n_u, n_x + n_u)),
        cost_gradients=cost_grads, cost_hessians=cost_hess,
        constraint_jacobians=constraint_jac if rows else None,
        linear_dynamics=True, quadratic_costs=True, polyhedral_constraints=bool(rows))


def shift_rows(rows, gamma, active_only):
    """{k: (W, S, p + gamma)} from {k: (W, S, p, active)}, only active rows shifted if asked."""
    return {k: (W, S, p + gamma * (active if active_only else 1.0))
            for k, (W, S, p, active) in rows.items()}


class TightenedInstance(NamedTuple):
    """Tightened and partially tightened copies of one affine 2-player game.

    ``rows[k]`` is (W, S, p, active): the untightened rows W x_k + S u_k +
    p <= 0 of stage k and which of them are active at the reference.
    ``tight`` shifts every row by gamma, ``partial`` only the active ones.
    """

    tight: GameDefinition
    partial: GameDefinition
    ref: Trajectory
    rows: dict
    lq: dict
    gamma: float


def tightened_two_player_instance(rng, T=5, gamma_val=0.02, con_stages=(2,),
                                  loose_stages=()):
    """Affine 2-player game with weakly active tightened constraint rows.

    Costs and dynamics are player-separable so the players interact only
    through the shared constraint rows (a generalized Nash structure); one
    row sits at each stage of ``con_stages``, placed so the unconstrained
    equilibrium touches the tightened boundary exactly (zero multiplier).
    In this class the feedback policy reproduces the equilibrium at the
    reference state and its best-response gap vanishes there, which makes
    the perturbation scaling measurable.  Each stage of ``loose_stages``
    gets one more row, inactive at the reference (slack 0.5), so that the
    fully and the partially tightened games differ there.  The reference is
    the unconstrained open-loop equilibrium from the O(T) LQ sweep.
    """
    game, lq = decoupled_lq_game(rng, T=T)
    n_x, n_u = 2, 2
    ref = solve_lq_open_loop(extract_lq_data(affine_quadratic_game(lq, game.initial_state, {})))

    def draw_row(k, slack):
        w = rng.standard_normal(n_x)
        s = rng.standard_normal(n_u)
        s[0] += np.sign(s[0]) * 0.5  # keep the action part well away from zero
        return w, s, -(w @ ref.states[k] + s @ ref.actions[k]) - slack

    rows = {}
    for k in range(T + 1):
        drawn = ([draw_row(k, gamma_val) + (True,)] if k in con_stages else []) \
            + ([draw_row(k, 0.5) + (False,)] if k in loose_stages else [])
        if drawn:
            W, S, p, active = (np.array(col) for col in zip(*drawn))
            rows[k] = (W, S, p, active)
    tight = affine_quadratic_game(lq, game.initial_state, shift_rows(rows, gamma_val, False))
    partial = affine_quadratic_game(lq, game.initial_state, shift_rows(rows, gamma_val, True))
    return TightenedInstance(tight, partial, ref, rows, lq, gamma_val)


def cross_scheme_lq_instance(rng, T=4, con_stage=2):
    """Shared-state-cost LQ game with one affine stage constraint row.

    Identical state costs across players keep the stagewise static-game
    resolvents consistent with the variational equilibrium, so all three
    splitting schemes must agree here.  The game is flagged
    linear-quadratic to unlock the exact resolvent path.
    """
    game, lq = random_lq_game(rng, T=T, state_dim=2, action_dims=(1, 1),
                              shared_state_cost=True, cross_coupling=0.1)
    w = rng.standard_normal(2)
    s = rng.standard_normal(2)
    s += np.sign(s) * 0.4
    p = -0.3

    def constraint(k, x, u):
        if k == con_stage:
            return np.array([w @ x + s @ u + p])
        return np.zeros(0)

    def constraint_jac(k, x, u):
        if k == con_stage:
            return w[None, :], s[None, :]
        return np.zeros((0, 2)), np.zeros((0, 2))

    constrained = GameDefinition(
        horizon=T, state_dim=2, action_dims=(1, 1),
        initial_state=game.initial_state,
        dynamics=game.dynamics, stage_costs=game.stage_costs,
        constraints=constraint,
        dynamics_jacobians=game.dynamics_jacobians,
        dynamics_hessians=game.dynamics_hessians,
        cost_gradients=game.cost_gradients, cost_hessians=game.cost_hessians,
        constraint_jacobians=constraint_jac,
        linear_dynamics=True, quadratic_costs=True, polyhedral_constraints=True)
    rows = [(con_stage, w, s, p, "ineq")]
    return constrained, lq, rows


def equality_constrained_lq_instance(rng, T=4, con_stages=(1, 3)):
    """LQ game with one equality row per listed stage, plus its equilibrium."""
    game0, lq = random_lq_game(rng, T=T, state_dim=2, action_dims=(1, 1))
    rows = []
    row_data = {}
    for k in con_stages:
        w = rng.standard_normal(2)
        s = rng.standard_normal(2)
        s = s + np.sign(s) * 0.3
        ref0 = stacked_lq_gne(game0, lq, [])
        p = -(w @ ref0.states[k] + s @ ref0.actions[k]) + 0.3 * rng.standard_normal()
        rows.append((k, w, s, p, "eq"))
        row_data[k] = (w, s, p)

    def constraints(k, x, u):
        # Equality rows surface as single active inequality rows at the
        # reference; the backward pass pins active rows either way.
        if k in row_data:
            w, s, p = row_data[k]
            return np.array([w @ x + s @ u + p])
        return np.zeros(0)

    def constraint_jac(k, x, u):
        if k in row_data:
            w, s, _ = row_data[k]
            return w[None, :], s[None, :]
        return np.zeros((0, 2)), np.zeros((0, 2))

    game = GameDefinition(
        horizon=T, state_dim=2, action_dims=(1, 1),
        initial_state=game0.initial_state,
        dynamics=game0.dynamics, stage_costs=game0.stage_costs,
        constraints=constraints,
        dynamics_jacobians=game0.dynamics_jacobians,
        dynamics_hessians=game0.dynamics_hessians,
        cost_gradients=game0.cost_gradients, cost_hessians=game0.cost_hessians,
        constraint_jacobians=constraint_jac,
        linear_dynamics=True, polyhedral_constraints=True)
    ref = stacked_lq_gne(game, lq, rows)
    return game, lq, rows, ref, row_data


def fishery_off_its_dynamics(T=10):
    """A T-stage fishery trajectory with every state shifted by 5."""
    game = fishery_game(FisheryParams(horizon_time=T / 10))
    traj = rollout(game, game.initial_state, np.tile([0.4, 0.0], (T + 1, 1)))
    traj.states += 5.0
    return game, traj
