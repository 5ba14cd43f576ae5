"""Hand-built game instances shared between unit and acceptance tests."""

import numpy as np

from dyngames.feedback import TightenedGameSpec
from dyngames.model import GameDefinition

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


def tightened_two_player_instance(rng, T=5, gamma_val=0.02, con_stages=(2,)):
    """Affine 2-player game with weakly active tightened constraint rows.

    Costs and dynamics are player-separable so the players interact only
    through the shared constraint rows (a generalized Nash structure); one
    row sits at each stage of ``con_stages``, placed so the unconstrained
    equilibrium touches the tightened boundary exactly (zero multiplier).
    In this class the feedback policy reproduces the equilibrium at the
    reference state and its best-response gap vanishes there, which makes
    the perturbation scaling measurable.  Returns the tightened spec
    together with the reference equilibrium.
    """
    game, lq = decoupled_lq_game(rng, T=T)
    n_x, n_u, N = 2, 2, 2
    ref = stacked_lq_gne(game, lq, [])

    W, S, p, gam, active = [], [], [], [], []
    for k in range(T + 1):
        if k in con_stages:
            w = rng.standard_normal(n_x)
            s = rng.standard_normal(n_u)
            s[0] += np.sign(s[0]) * 0.5  # keep the action part well away from zero
            p_val = -(w @ ref.states[k] + s @ ref.actions[k]) - gamma_val
            W.append(w[None, :].copy())
            S.append(s[None, :].copy())
            p.append(np.array([p_val]))
            gam.append(np.array([gamma_val]))
            active.append((0,))
        else:
            W.append(np.zeros((0, n_x)))
            S.append(np.zeros((0, n_u)))
            p.append(np.zeros(0))
            gam.append(np.zeros(0))
            active.append(())
    spec = TightenedGameSpec(
        A=tuple(lq["A"]), B=tuple(lq["B"]), b=tuple(lq["b"]),
        cost_blocks=cost_blocks_from_lq(lq, N, T, n_x, n_u),
        W=tuple(W), S=tuple(S), p=tuple(p), gamma=tuple(gam),
        active=tuple(active), action_dims=(1, 1),
        initial_state=game.initial_state)
    return spec, ref, lq, game


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
