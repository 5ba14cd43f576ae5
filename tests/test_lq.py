"""The factored linear-quadratic kernel: factor once, solve many."""

import dataclasses
import gc
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyngames import feedback, lq, splitting
from dyngames.errors import StageSingularityError
from dyngames.benchmarks import lq_rendezvous_game
from dyngames.model import GameDefinition, Trajectory, quadraticize
from dyngames.splitting import DrConfig, dr_solve, resolvent_reg_game

from oracles import dense_eq_least_squares, stacked_lq_gne


def random_lq_data(rng, T, state_dim, action_dims):
    """Per-stage matrices of a random LQ game with state-action cross terms."""
    N = len(action_dims)
    n_x, n_u = state_dim, sum(action_dims)
    offsets = np.concatenate([[0], np.cumsum(action_dims)]).astype(int)
    data = dict(
        A=[0.9 * np.eye(n_x) + 0.2 * rng.standard_normal((n_x, n_x)) for _ in range(T)],
        B=[0.5 * rng.standard_normal((n_x, n_u)) for _ in range(T)],
        b=[0.1 * rng.standard_normal(n_x) for _ in range(T)],
        Q=[], q=[], X=[], R=[], r=[])
    for n in range(N):
        Qn, qn, Xn, Rn, rn = [], [], [], [], []
        for _ in range(T + 1):
            m = rng.standard_normal((n_x, n_x))
            Qn.append(m @ m.T / n_x + 0.5 * np.eye(n_x))
            qn.append(rng.standard_normal(n_x))
            Xn.append(0.1 * rng.standard_normal((n_x, n_u)))
            R = 0.2 * rng.standard_normal((n_u, n_u))
            R = 0.5 * (R + R.T) + np.eye(n_u)
            R[offsets[n]:offsets[n + 1], offsets[n]:offsets[n + 1]] += np.eye(action_dims[n])
            Rn.append(R)
            rn.append(0.3 * rng.standard_normal(n_u))
        for key, val in zip("QqXRr", (Qn, qn, Xn, Rn, rn)):
            data[key].append(val)
    return data


def lq_game(data, x0, action_dims):
    """GameDefinition declared linear-quadratic over the matrices in ``data``."""
    N = len(action_dims)
    Q, q, X, R, r = (data[key] for key in "QqXRr")
    n_x, n_u = len(x0), sum(action_dims)
    T = len(Q[0]) - 1

    def costs(k, x, u):
        return np.array([0.5 * x @ Q[n][k] @ x + q[n][k] @ x + x @ X[n][k] @ u
                         + 0.5 * u @ R[n][k] @ u + r[n][k] @ u for n in range(N)])

    def grads(k, x, u):
        return (np.stack([Q[n][k] @ x + q[n][k] + X[n][k] @ u for n in range(N)]),
                np.stack([R[n][k] @ u + r[n][k] + X[n][k].T @ x for n in range(N)]))

    def hess(k, x, u):
        return (np.stack([Q[n][k] for n in range(N)]), np.stack([X[n][k] for n in range(N)]),
                np.stack([R[n][k] for n in range(N)]))

    return GameDefinition(
        horizon=T, state_dim=n_x, action_dims=tuple(action_dims), initial_state=x0,
        dynamics=lambda k, x, u: data["A"][k] @ x + data["B"][k] @ u + data["b"][k],
        stage_costs=costs,
        dynamics_jacobians=lambda k, x, u: (data["A"][k], data["B"][k]),
        dynamics_hessians=lambda k, x, u: np.zeros((n_x, n_x + n_u, n_x + n_u)),
        cost_gradients=grads, cost_hessians=hess,
        linear_dynamics=True, quadratic_costs=True)


def regularized_oracle(game, data, eta, y, z):
    """Dense stacked-KKT equilibrium of the game regularized at (y, z)."""
    N, T = game.num_players, game.horizon
    n_x, n_u = game.state_dim, game.total_action_dim
    reg = dict(A=data["A"], B=data["B"], b=data["b"])
    reg["Q"] = [[eta * data["Q"][n][k] + np.eye(n_x) for k in range(T + 1)] for n in range(N)]
    reg["q"] = [[eta * data["q"][n][k] - y[k] for k in range(T + 1)] for n in range(N)]
    reg["X"] = [[eta * data["X"][n][k] for k in range(T + 1)] for n in range(N)]
    reg["R"] = [[eta * data["R"][n][k] + np.eye(n_u) for k in range(T + 1)] for n in range(N)]
    reg["r"] = [[eta * data["r"][n][k] - z[k] for k in range(T + 1)] for n in range(N)]
    return stacked_lq_gne(game, reg, [])


def projection_oracle(game, data, y, z):
    """Dense least-squares projection of (y, z) onto the dynamics; returns (x, u)."""
    T, n_x, n_u = game.horizon, game.state_dim, game.total_action_dim
    nxs = T * n_x  # unknowns x_1..x_T, then u_0..u_T
    Aeq = np.zeros((T * n_x, nxs + (T + 1) * n_u))
    beq = np.zeros(T * n_x)
    for k in range(T):
        r = slice(k * n_x, (k + 1) * n_x)
        Aeq[r, k * n_x:(k + 1) * n_x] = np.eye(n_x)
        Aeq[r, nxs + k * n_u:nxs + (k + 1) * n_u] = -data["B"][k]
        beq[r] = data["b"][k]
        if k >= 1:
            Aeq[r, (k - 1) * n_x:k * n_x] = -data["A"][k]
        else:
            beq[r] += data["A"][0] @ game.initial_state
    target = np.concatenate([y[1:].ravel(), z.ravel()])
    sol = dense_eq_least_squares(np.ones(target.size), target, Aeq, beq)
    xs = np.vstack([game.initial_state, sol[:nxs].reshape(T, n_x)])
    return xs, sol[nxs:].reshape(T + 1, n_u)


def assert_close(actual, expected, tol=1e-9):
    scale = 1.0 + float(np.max(np.abs(expected), initial=0.0))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=tol * scale)


def random_instance(seed, T, state_dim, action_dims):
    rng = np.random.default_rng(seed)
    data = random_lq_data(rng, T, state_dim, action_dims)
    game = lq_game(data, rng.standard_normal(state_dim), action_dims)
    return rng, data, game


instances = dict(
    seed=st.integers(0, 2**32 - 1), T=st.integers(0, 6), state_dim=st.integers(1, 3),
    action_dims=st.lists(st.integers(1, 2), min_size=1, max_size=3))


@given(**instances, log_eta=st.floats(-6.0, 1.0))
def test_factored_resolvent_matches_dense_kkt(seed, T, state_dim, action_dims, log_eta):
    eta = 10.0 ** log_eta
    rng, data, game = random_instance(seed, T, state_dim, action_dims)
    fac = lq.factor(game, eta)
    for _ in range(3):
        y = rng.standard_normal((T + 1, state_dim))
        z = rng.standard_normal((T + 1, sum(action_dims)))
        got = fac.solve(y, z)
        want = regularized_oracle(game, data, eta, y, z)
        assert_close(got.actions, want.actions)
        assert_close(got.states, want.states)


@given(**instances)
def test_projection_kernel_matches_dense_least_squares(seed, T, state_dim, action_dims):
    rng, data, game = random_instance(seed, T, state_dim, action_dims)
    fac = lq.factor(game, 0.0)
    for _ in range(3):
        y = rng.standard_normal((T + 1, state_dim))
        z = rng.standard_normal((T + 1, sum(action_dims)))
        got = fac.solve(y, z)
        xs, us = projection_oracle(game, data, y, z)
        assert_close(got.actions, us)
        assert_close(got.states, xs)


def test_reused_factor_equals_fresh_factor(rng):
    data = random_lq_data(rng, 5, 2, (1, 2))
    game = lq_game(data, rng.standard_normal(2), (1, 2))
    eta = 0.3
    reused = lq.factor(game, eta)
    projection = lq.factor(game, 0.0)
    for _ in range(20):
        y = rng.standard_normal((6, 2))
        z = rng.standard_normal((6, 3))
        xs, us = resolvent_reg_game(game, y, z, eta, factor=reused)
        fx, fu = resolvent_reg_game(game, y, z, eta)
        np.testing.assert_array_equal(xs, fx)
        np.testing.assert_array_equal(us, fu)
        px, pu = splitting.project_dynamics(game, y, z, factor=projection)
        qx, qu = splitting.project_dynamics(game, y, z)
        np.testing.assert_array_equal(px, qx)
        np.testing.assert_array_equal(pu, qu)


def test_factor_for_another_eta_rejected(rng):
    data = random_lq_data(rng, 3, 2, (1, 1))
    game = lq_game(data, np.zeros(2), (1, 1))
    y, z = np.zeros((4, 2)), np.zeros((4, 2))
    with pytest.raises(ValueError):
        resolvent_reg_game(game, y, z, 0.2, factor=lq.factor(game, 0.1))
    with pytest.raises(ValueError):
        splitting.project_dynamics(game, y, z, factor=lq.factor(game, 0.1))


def test_plain_solve_matches_dense_kkt_and_stays_in_feedback(rng):
    assert feedback.solve_lq_open_loop is lq.solve_lq_open_loop
    assert feedback.extract_lq_data is lq.extract_lq_data
    assert feedback.LqGameData is lq.LqGameData
    data = random_lq_data(rng, 4, 3, (2, 1))
    game = lq_game(data, rng.standard_normal(3), (2, 1))
    got = lq.solve_lq_open_loop(lq.extract_lq_data(game))
    want = stacked_lq_gne(game, data, [])
    assert_close(got.actions, want.actions)
    x0 = rng.standard_normal(3)
    moved = lq.solve_lq_open_loop(lq.extract_lq_data(game), x0=x0)
    np.testing.assert_array_equal(moved.states[0], x0)


@pytest.mark.parametrize("make", ["rendezvous", "random_lq"])
def test_extract_lq_data_is_the_reader_at_the_origin(rng, make):
    if make == "rendezvous":
        game = lq_rendezvous_game()
    else:
        game = lq_game(random_lq_data(rng, 4, 3, (2, 1)), rng.standard_normal(3), (2, 1))
    T1, n_x, n_u = game.horizon + 1, game.state_dim, game.total_action_dim
    want = quadraticize(game, Trajectory(np.zeros((T1, n_x)), np.zeros((T1, n_u))),
                        feas_tol=np.inf)

    def boom(k, x, u):
        raise AssertionError("extract_lq_data read data it does not return")

    # neither rows nor dynamics Hessians are read
    got = lq.extract_lq_data(dataclasses.replace(game, constraints=boom,
                                                 dynamics_hessians=boom))
    for name in ("A", "B", "b", "Q", "X", "R", "q", "r", "c", "G", "initial_state"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.W is None and got.active is None


def singular_game(rng, eta, T=3):
    """Player 0's own-action curvature is -I/eta: its regularized block is zero."""
    data = random_lq_data(rng, T, 2, (1, 1))
    for k in range(T + 1):
        data["R"][0][k] = np.diag([-1.0 / eta, 1.0])
        data["X"][0][k] = np.zeros((2, 2))
    return lq_game(data, rng.standard_normal(2), (1, 1))


def test_singular_stage_named_by_resolvent(rng):
    eta = 0.5  # -1/eta * eta + 1 is exactly zero
    game = singular_game(rng, eta)
    with pytest.raises(StageSingularityError) as exc:
        resolvent_reg_game(game, np.zeros((4, 2)), np.zeros((4, 2)), eta)
    assert exc.value.stage == game.horizon


def test_singular_stage_raised_before_first_dr_iteration(rng, monkeypatch):
    eta = 0.5
    game = singular_game(rng, eta)

    def no_iteration(*args, **kwargs):
        raise AssertionError("DR iterated before the singular stage was reported")

    monkeypatch.setattr(splitting, "resolvent_reg_game", no_iteration)
    monkeypatch.setattr(splitting, "project_stage_constraints", no_iteration)
    with pytest.raises(StageSingularityError) as exc:
        dr_solve(game, DrConfig(scheme="constraints", eta=eta, max_iter=5))
    assert exc.value.stage == game.horizon


def test_factor_and_solve_scale_linearly_in_horizon(rng):
    horizons = [100, 200, 400, 800]
    cases = []
    for T in horizons:
        data = random_lq_data(rng, T, 2, (1, 1))
        cases.append((lq_game(data, rng.standard_normal(2), (1, 1)),
                      rng.standard_normal((T + 1, 2)), rng.standard_normal((T + 1, 2))))
    factor_times = np.full(len(horizons), np.inf)
    solve_times = np.full(len(horizons), np.inf)
    # Rounds over all horizons, so a burst of load on a shared host spoils
    # one sample of every horizon rather than every sample of one.
    # The clock is this process's CPU time, which other processes do not advance.
    gc.disable()
    try:
        for _ in range(7):
            for i, (game, y, z) in enumerate(cases):
                t0 = time.process_time()
                fac = lq.factor(game, 0.1)
                factor_times[i] = min(factor_times[i], time.process_time() - t0)
                t0 = time.process_time()
                for _ in range(20):  # one solve is short enough for timer noise to show
                    fac.solve(y, z)
                solve_times[i] = min(solve_times[i], time.process_time() - t0)
    finally:
        gc.enable()
    logT = np.log(horizons)
    slope_f = float(np.polyfit(logT, np.log(factor_times), 1)[0])
    slope_s = float(np.polyfit(logT, np.log(solve_times), 1)[0])
    assert abs(slope_f - 1.0) <= 0.2, f"factor log-log slope {slope_f:.2f}"
    assert abs(slope_s - 1.0) <= 0.2, f"solve log-log slope {slope_s:.2f}"
