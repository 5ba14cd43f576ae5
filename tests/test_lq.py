"""The factored linear-quadratic kernel: factor once, solve many."""

import dataclasses
import gc
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack

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
        xs, us = fac.solve(y, z)
        want = regularized_oracle(game, data, eta, y, z)
        assert_close(us, want.actions)
        assert_close(xs, want.states)


@given(**instances)
def test_projection_kernel_matches_dense_least_squares(seed, T, state_dim, action_dims):
    rng, data, game = random_instance(seed, T, state_dim, action_dims)
    fac = lq.factor(game, 0.0)
    for _ in range(3):
        y = rng.standard_normal((T + 1, state_dim))
        z = rng.standard_normal((T + 1, sum(action_dims)))
        gx, gu = fac.solve(y, z)
        xs, us = projection_oracle(game, data, y, z)
        assert_close(gu, us)
        assert_close(gx, xs)


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
    moved = lq.solve_lq_open_loop(dataclasses.replace(lq.extract_lq_data(game),
                                                      initial_state=x0))
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
    assert got.rows is None and got.active is None


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


def test_balancing_keeps_eta_where_the_doubled_game_is_singular(rng, monkeypatch):
    eta0 = 0.05
    # singular at 2 * eta0; the box keeps the run off the polish, never binding
    game = dataclasses.replace(
        singular_game(rng, 2 * eta0), constraints=lambda k, x, u: np.abs(u) - 10.0,
        traj_projector=lambda states, actions: (states, np.clip(actions, -10.0, 10.0)))
    with pytest.raises(StageSingularityError):
        lq.factor(game, 2 * eta0)
    etas = []
    real = lq.factor

    def spy(game, eta, *args):
        etas.append(eta)
        return real(game, eta, *args)

    monkeypatch.setattr(lq, "factor", spy)
    rep = dr_solve(game, DrConfig(scheme="constraints", eta=eta0, max_iter=500,
                                  record_costs=False, run_checks=False))
    # balancing asked for 2 * eta0 once, kept eta0 and stopped
    assert etas == [eta0, 2 * eta0]
    assert rep.termination == "tolerance"


# Timing rounds of the linear-scaling test; the minimum over rounds of each
# horizon's time, fitted once, failed about one run in twenty under load.
ROUNDS = 11


def test_factor_and_solve_scale_linearly_in_horizon(rng):
    horizons = [100, 200, 400, 800]
    cases = []
    for T in horizons:
        data = random_lq_data(rng, T, 2, (1, 1))
        cases.append((lq_game(data, rng.standard_normal(2), (1, 1)),
                      rng.standard_normal((T + 1, 2)), rng.standard_normal((T + 1, 2))))
    factor_times = np.zeros((ROUNDS, len(horizons)))
    solve_times = np.zeros((ROUNDS, len(horizons)))
    # Rounds over all horizons, each fitted on its own, so a burst of load on
    # a shared host spoils the slope of one round, which the median over
    # rounds drops, rather than one horizon's time in every fit.
    # The clock is this process's CPU time, which other processes do not advance.
    gc.disable()
    try:
        # Each sample times several calls: one is short enough for timer noise to show.
        for rnd in range(ROUNDS):
            for i, (game, y, z) in enumerate(cases):
                t0 = time.process_time()
                for _ in range(3):
                    fac = lq.factor(game, 0.1)
                factor_times[rnd, i] = time.process_time() - t0
                t0 = time.process_time()
                for _ in range(100):
                    fac.solve(y, z)
                solve_times[rnd, i] = time.process_time() - t0
    finally:
        gc.enable()
    logT = np.log(horizons)
    slope_f = float(np.median(np.polyfit(logT, np.log(factor_times.T), 1)[0]))
    slope_s = float(np.median(np.polyfit(logT, np.log(solve_times.T), 1)[0]))
    assert abs(slope_f - 1.0) <= 0.2, f"factor log-log slope {slope_f:.2f}"
    assert abs(slope_s - 1.0) <= 0.2, f"solve log-log slope {slope_s:.2f}"


def riccati_stage_matrix(data, k):
    """F_k of the backward sweep that eliminates the costates stage by stage.

    One action per player; player n's own-action row of F_k is the row n of
    R_n + B' M_n B, where M_n is player n's value matrix of stage k + 1.
    """
    T, N = len(data["Q"][0]) - 1, len(data["Q"])
    n_x = data["Q"][0][0].shape[0]
    M = [np.zeros((n_x, n_x))] * N
    for j in range(T, k - 1, -1):
        A, B = (data["A"][j], data["B"][j]) if j < T else (np.zeros((n_x, n_x)),
                                                            np.zeros((n_x, N)))
        F = np.array([data["R"][n][j][n] + B[:, n] @ M[n] @ B for n in range(N)])
        if j == k:
            return F
        P = np.array([data["X"][n][j][:, n] + B[:, n] @ M[n] @ A for n in range(N)])
        K = -np.linalg.solve(F, P)
        M = [data["Q"][n][j] + data["X"][n][j] @ K + A.T @ M[n] @ (A + B @ K)
             for n in range(N)]


def game_with_singular_stage_matrix(seed, k, T=4):
    """Random 2-player game whose stage-k sweep matrix F_k is singular."""
    rng = np.random.default_rng(seed)
    data = random_lq_data(rng, T, 2, (1, 1))
    F = riccati_stage_matrix(data, k)
    data["R"][0][k][0, 0] -= np.linalg.det(F) / F[1, 1]  # det F_k is affine in it
    F = riccati_stage_matrix(data, k)
    assert abs(np.linalg.det(F)) <= 1e-12 * np.linalg.norm(F) ** 2
    return data, lq_game(data, rng.standard_normal(2), (1, 1))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [1, 2, 4])
def test_singular_stage_matrix_with_regular_horizon_system_solves(seed, k):
    # x_k is free for k >= 1, so the stacked system stays regular; a sweep
    # that inverts F_k stage by stage stops here.
    data, game = game_with_singular_stage_matrix(seed, k)
    got = lq.solve_lq_open_loop(lq.extract_lq_data(game))
    want = stacked_lq_gne(game, data, [])
    assert_close(got.actions, want.actions, tol=1e-10)
    assert_close(got.states, want.states, tol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_singular_first_stage_matrix_raises(seed):
    # With x_0 pinned, a singular F_0 makes the whole system singular.  No
    # pivot of the LU is exactly zero; the condition estimate catches it.
    _, game = game_with_singular_stage_matrix(seed, 0)
    with pytest.raises(StageSingularityError, match="rcond"):
        lq.solve_lq_open_loop(lq.extract_lq_data(game))


def test_non_finite_data_raises(rng):
    data = lq.extract_lq_data(lq_game(random_lq_data(rng, 3, 2, (1, 1)), np.zeros(2), (1, 1)))
    data.R[1, 2, 1, 0] = np.nan  # in player 1's own-action row
    with pytest.raises(StageSingularityError):
        lq.solve_lq_open_loop(data)


@given(**instances, log_eta=st.floats(-6.0, 1.0))
def test_condition_estimate_matches_the_inverse_norm(seed, T, state_dim, action_dims, log_eta):
    # Hager's estimate is a lower bound on |A^{-1}|_1, exact in most cases;
    # the worst of 1500 random draws was 0.31 of it.
    fac = lq.factor(random_instance(seed, T, state_dim, action_dims)[2], 10.0 ** log_eta)
    n = fac.lu.shape[1]
    inverse, _ = lapack.dgbtrs(fac.lu, fac.kl, fac.ku, np.eye(n), fac.piv)
    exact = np.max(np.abs(inverse).sum(axis=0))
    est = lq._inverse_norm(fac.lu, fac.kl, fac.ku, fac.piv)
    assert exact / 10 <= est <= exact * (1 + 1e-12)
