"""Shared game builders and pytest/hypothesis configuration."""

import numpy as np
import pytest
from hypothesis import settings

from dyngames import feedback, splitting
from dyngames.model import GameDefinition

settings.register_profile("default", deadline=None, max_examples=25)
settings.load_profile("default")


def identity_sum_game(T=3, state_dim=2, action_dims=(2,), x0=None):
    """f(x, u) = x + u with zero costs; the simplest well-posed game."""
    n_u = sum(action_dims)
    assert n_u == state_dim
    x0 = np.zeros(state_dim) if x0 is None else x0
    return GameDefinition(
        horizon=T, state_dim=state_dim, action_dims=tuple(action_dims),
        initial_state=x0,
        dynamics=lambda k, x, u: x + u,
        stage_costs=lambda k, x, u: np.zeros(len(action_dims)),
        dynamics_jacobians=lambda k, x, u: (np.eye(state_dim), np.eye(state_dim)),
        dynamics_hessians=lambda k, x, u: np.zeros(
            (state_dim, state_dim + n_u, state_dim + n_u)),
        linear_dynamics=True,
    )


def random_lq_game(rng, T=4, state_dim=2, action_dims=(1, 1), x0_scale=1.0,
                   shared_state_cost=False, constraints=None,
                   constraint_jacobians=None,
                   polyhedral=False, u_only=False, cross_coupling=0.2):
    """Random linear dynamics with strongly convex quadratic stage costs.

    Player n's stage cost is 0.5 x'Q_n x + q_n'x + 0.5 u'R_n u + r_n'u with
    R_n built positive definite on the player's own block.  When
    ``shared_state_cost`` is set, every player uses the same (Q, q).
    """
    N = len(action_dims)
    n_x, n_u = state_dim, sum(action_dims)
    A = [np.eye(n_x) + 0.3 * rng.standard_normal((n_x, n_x)) for _ in range(T)]
    B = [rng.standard_normal((n_x, n_u)) for _ in range(T)]
    b = [0.1 * rng.standard_normal(n_x) for _ in range(T)]
    offsets = np.concatenate([[0], np.cumsum(action_dims)]).astype(int)

    Qs, qs, Rs, rs = [], [], [], []
    shared_Q = None
    for n in range(N):
        Qn, qn = [], []
        for k in range(T + 1):
            if shared_state_cost:
                if n == 0:
                    m = rng.standard_normal((n_x, n_x))
                    Qn.append(m @ m.T / n_x + 0.5 * np.eye(n_x))
                    qn.append(rng.standard_normal(n_x))
                else:
                    Qn.append(Qs[0][k])
                    qn.append(qs[0][k])
            else:
                m = rng.standard_normal((n_x, n_x))
                Qn.append(m @ m.T / n_x + 0.5 * np.eye(n_x))
                qn.append(rng.standard_normal(n_x))
        Qs.append(Qn)
        qs.append(qn)
        Rn, rn = [], []
        for k in range(T + 1):
            R = cross_coupling * rng.standard_normal((n_u, n_u))
            R = 0.5 * (R + R.T)
            R += np.eye(n_u)
            R[offsets[n]:offsets[n + 1], offsets[n]:offsets[n + 1]] += np.eye(
                action_dims[n])
            Rn.append(R)
            rn.append(0.3 * rng.standard_normal(n_u))
        Rs.append(Rn)
        rs.append(rn)

    def costs(k, x, u):
        return np.array([0.5 * x @ Qs[n][k] @ x + qs[n][k] @ x
                         + 0.5 * u @ Rs[n][k] @ u + rs[n][k] @ u
                         for n in range(N)])

    def cost_grads(k, x, u):
        cx = np.stack([Qs[n][k] @ x + qs[n][k] for n in range(N)])
        cu = np.stack([Rs[n][k] @ u + rs[n][k] for n in range(N)])
        return cx, cu

    def cost_hess(k, x, u):
        return (np.stack([Qs[n][k] for n in range(N)]),
                np.zeros((N, n_x, n_u)),
                np.stack([Rs[n][k] for n in range(N)]))

    game = GameDefinition(
        horizon=T, state_dim=n_x, action_dims=tuple(action_dims),
        initial_state=x0_scale * rng.standard_normal(n_x),
        dynamics=lambda k, x, u: A[k] @ x + B[k] @ u + b[k],
        stage_costs=costs,
        constraints=constraints,
        dynamics_jacobians=lambda k, x, u: (A[k], B[k]),
        dynamics_hessians=lambda k, x, u: np.zeros((n_x, n_x + n_u, n_x + n_u)),
        cost_gradients=cost_grads,
        cost_hessians=cost_hess,
        constraint_jacobians=constraint_jacobians,
        linear_dynamics=True,
        polyhedral_constraints=polyhedral,
        constraints_in_actions_only=u_only,
    )
    data = dict(A=A, B=B, b=b, Q=Qs, q=qs, R=Rs, r=rs)
    return game, data


def decoupled_lq_game(rng, T=5, x0_scale=1.0):
    """Two players with private scalar states and actions, no cost coupling.

    Interaction can only enter through shared constraint rows added by the
    caller; costs and dynamics are block separable.
    """
    n_x, n_u = 2, 2
    A = [np.diag(rng.uniform(0.85, 1.15, 2)) for _ in range(T)]
    B = [np.diag(rng.uniform(0.7, 1.3, 2)) for _ in range(T)]
    b = [0.05 * rng.standard_normal(2) for _ in range(T)]
    Q, q, R, r = [], [], [], []
    for n in range(2):
        Qn, qn, Rn, rn = [], [], [], []
        for k in range(T + 1):
            Qk = np.zeros((2, 2))
            Qk[n, n] = rng.uniform(0.5, 1.5)
            Qn.append(Qk)
            qk = np.zeros(2)
            qk[n] = rng.standard_normal()
            qn.append(qk)
            Rk = np.zeros((2, 2))
            Rk[n, n] = rng.uniform(0.8, 1.6)
            Rn.append(Rk)
            rk = np.zeros(2)
            rk[n] = 0.3 * rng.standard_normal()
            rn.append(rk)
        Q.append(Qn)
        q.append(qn)
        R.append(Rn)
        r.append(rn)

    def costs(k, x, u):
        return np.array([0.5 * x @ Q[n][k] @ x + q[n][k] @ x
                         + 0.5 * u @ R[n][k] @ u + r[n][k] @ u for n in range(2)])

    def cost_grads(k, x, u):
        return (np.stack([Q[n][k] @ x + q[n][k] for n in range(2)]),
                np.stack([R[n][k] @ u + r[n][k] for n in range(2)]))

    def cost_hess(k, x, u):
        return (np.stack([Q[n][k] for n in range(2)]),
                np.zeros((2, 2, 2)),
                np.stack([R[n][k] for n in range(2)]))

    game = GameDefinition(
        horizon=T, state_dim=n_x, action_dims=(1, 1),
        initial_state=x0_scale * rng.standard_normal(2),
        dynamics=lambda k, x, u: A[k] @ x + B[k] @ u + b[k],
        stage_costs=costs,
        dynamics_jacobians=lambda k, x, u: (A[k], B[k]),
        dynamics_hessians=lambda k, x, u: np.zeros((n_x, 4, 4)),
        cost_gradients=cost_grads, cost_hessians=cost_hess,
        linear_dynamics=True,
    )
    return game, dict(A=A, B=B, b=b, Q=Q, q=q, R=R, r=r)


def random_smooth_game(rng, T=5, state_dim=2, action_dims=(1, 1)):
    """Nonlinear smooth game with analytic derivatives (tanh dynamics).

    Dynamics: x+ = x + dt * tanh(Wx x + Wu u + w0); costs mix quadratics
    with a smooth quartic-free nonlinearity through tanh of the state.
    """
    N = len(action_dims)
    n_x, n_u = state_dim, sum(action_dims)
    dt = 0.2
    Wx = 0.6 * rng.standard_normal((n_x, n_x))
    Wu = 0.8 * rng.standard_normal((n_x, n_u))
    w0 = 0.3 * rng.standard_normal(n_x)
    Qd = [rng.uniform(0.3, 1.2, size=n_x) for _ in range(N)]
    Rd = [rng.uniform(0.4, 1.5, size=n_u) for _ in range(N)]
    vv = [rng.standard_normal(n_x) for _ in range(N)]

    def pre(x, u):
        return Wx @ x + Wu @ u + w0

    def dynamics(k, x, u):
        return x + dt * np.tanh(pre(x, u))

    def dyn_jac(k, x, u):
        s = 1.0 / np.cosh(pre(x, u)) ** 2
        return np.eye(n_x) + dt * (s[:, None] * Wx), dt * (s[:, None] * Wu)

    def dyn_hess(k, x, u):
        t = np.tanh(pre(x, u))
        s = 1.0 - t**2
        Wz = np.hstack([Wx, Wu])
        G = np.empty((n_x, n_x + n_u, n_x + n_u))
        for l in range(n_x):
            G[l] = dt * (-2.0 * t[l] * s[l]) * np.outer(Wz[l], Wz[l])
        return G

    def costs(k, x, u):
        return np.array([0.5 * (Qd[n] * x) @ x + 0.5 * (Rd[n] * u) @ u
                         + np.tanh(vv[n] @ x) for n in range(N)])

    def cost_grads(k, x, u):
        cx = np.stack([Qd[n] * x + (1 - np.tanh(vv[n] @ x) ** 2) * vv[n]
                       for n in range(N)])
        cu = np.stack([Rd[n] * u for n in range(N)])
        return cx, cu

    def cost_hess(k, x, u):
        cxx = []
        for n in range(N):
            t = np.tanh(vv[n] @ x)
            cxx.append(np.diag(Qd[n]) + (-2 * t * (1 - t**2)) * np.outer(vv[n], vv[n]))
        return (np.stack(cxx), np.zeros((N, n_x, n_u)),
                np.stack([np.diag(Rd[n]) for n in range(N)]))

    return GameDefinition(
        horizon=T, state_dim=n_x, action_dims=tuple(action_dims),
        initial_state=0.5 * rng.standard_normal(n_x),
        dynamics=dynamics,
        stage_costs=costs,
        dynamics_jacobians=dyn_jac,
        dynamics_hessians=dyn_hess,
        cost_gradients=cost_grads,
        cost_hessians=cost_hess,
    )


def monotone_quadratic_game(rng, T=2, bound=0.6, skew=0.8):
    """Two-player static-per-stage quadratic game with box-constrained actions.

    The stacked gradient operator is u -> Abar u + bbar per stage with
    Abar = SPD + cross-player skew, so the monotonicity constant mu and
    Lipschitz constant L are known from the construction.  Returns
    (game, mu, L).
    """
    M = rng.standard_normal((2, 2))
    S0 = M @ M.T / 2 + 1.2 * np.eye(2)
    skew_m = np.array([[0.0, skew], [-skew, 0.0]])
    Abar = S0 + skew_m
    bbar = rng.standard_normal(2)
    # Player n's symmetric cost Hessian reproduces row n of Abar on its own
    # block row; the off-player row is mirrored for symmetry.
    Q1 = np.array([[Abar[0, 0], Abar[0, 1]], [Abar[0, 1], 1.0]])
    Q2 = np.array([[1.0, Abar[1, 0]], [Abar[1, 0], Abar[1, 1]]])

    def costs(k, x, u):
        return np.array([0.5 * u @ Q1 @ u + bbar[0] * u[0],
                         0.5 * u @ Q2 @ u + bbar[1] * u[1]])

    def grads(k, x, u):
        return (np.zeros((2, 1)),
                np.stack([Q1 @ u + np.array([bbar[0], 0.0]),
                          Q2 @ u + np.array([0.0, bbar[1]])]))

    def hess(k, x, u):
        return np.zeros((2, 1, 1)), np.zeros((2, 1, 2)), np.stack([Q1, Q2])

    def constraint(k, x, u):
        return np.concatenate([u - bound, -u - bound])

    def constraint_jac(k, x, u):
        return np.zeros((4, 1)), np.vstack([np.eye(2), -np.eye(2)])

    game = GameDefinition(
        horizon=T, state_dim=1, action_dims=(1, 1), initial_state=[0.0],
        dynamics=lambda k, x, u: x,
        stage_costs=costs,
        constraints=constraint,
        dynamics_jacobians=lambda k, x, u: (np.ones((1, 1)), np.zeros((1, 2))),
        dynamics_hessians=lambda k, x, u: np.zeros((1, 3, 3)),
        cost_gradients=grads, cost_hessians=hess,
        constraint_jacobians=constraint_jac,
        traj_projector=lambda states, actions: (states, np.clip(actions, -bound, bound)),
        linear_dynamics=True, polyhedral_constraints=True,
        constraints_in_actions_only=True,
    )
    mu = float(np.min(np.linalg.eigvalsh(S0)))
    L = float(np.max(np.linalg.svd(Abar, compute_uv=False)))
    return game, mu, L


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def dr_without_polish(monkeypatch):
    """``splitting.dr_solve`` without the active-set polish: a run shows DR's own steps.

    For tests whose subject is DR itself (its stop test, its eta balancing)
    on a game the polish would certify after one step.
    """
    monkeypatch.setattr(splitting, "active_set_polish", lambda *args: None)


def stage_runs(game, policy, X0, start=0, noise=None, open_loop=None):
    """The runs of ``feedback._stages`` collected: (states, actions, violations).

    Each has a leading run axis, replay runs first, and a stage axis from
    ``start`` to T; a stage without rows reads violation 0.
    """
    runs = [(X, U, np.zeros(len(X)) if v is None else v)
            for _, X, U, v in feedback._stages(game, policy, X0, start, noise, open_loop)]
    return tuple(np.stack(column, axis=1) for column in zip(*runs))
