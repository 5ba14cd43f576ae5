"""The factored linear-quadratic kernel: factor once, solve many."""

import dataclasses
import gc
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack

from dyngames import _lapack, certificate, feedback, gradient, lq, splitting
from dyngames.errors import DimensionError, StageSingularityError
from dyngames.benchmarks import FisheryParams, fishery_game, lq_rendezvous_game
from dyngames.model import GameDefinition, Trajectory, quadraticize, rollout
from dyngames.splitting import DrConfig, dr_solve, resolvent_reg_game

from conftest import random_smooth_game
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


def test_reused_factor_equals_fresh_factor(rng, monkeypatch):
    # the eta = 0 factor and the regularized factor at the last eta are the
    # game's kept reads: repeated resolvents and dynamics projections on one
    # game factor once, and solve as a fresh factor does, bit for bit
    data = random_lq_data(rng, 5, 2, (1, 2))
    game = lq_game(data, rng.standard_normal(2), (1, 2))
    eta = 0.3
    reused = lq.factor(game, eta)
    assert lq.factor(game, eta) is reused and not reused.lu.flags.writeable
    fresh = lq.factor(dataclasses.replace(game), 0.0)  # an unread copy of the game
    fresh_eta = lq.factor(dataclasses.replace(game), eta)
    etas, real = [], lq._kkt_factor

    def kkt_factor(data, eta=None, **kwargs):
        etas.append(eta)
        return real(data, eta, **kwargs)

    monkeypatch.setattr(lq, "_kkt_factor", kkt_factor)
    for _ in range(20):
        y = rng.standard_normal((6, 2))
        z = rng.standard_normal((6, 3))
        xs, us = resolvent_reg_game(game, y, z, eta)
        fx, fu = fresh_eta.solve(y, z)
        np.testing.assert_array_equal(xs, fx)
        np.testing.assert_array_equal(us, fu)
        px, pu = splitting.project_dynamics(game, y, z)
        qx, qu = fresh.solve(y, z)
        np.testing.assert_array_equal(px, qx)
        np.testing.assert_array_equal(pu, qu)
    # the kept eta = 0 factor once, and no factor at eta: the 20 resolvents read the kept one
    assert etas == [0.0]
    assert lq.factor(game, eta) is reused
    # another eta replaces the kept factor, and the eta = 0 factor stays
    other = lq.factor(game, 2 * eta)
    assert other.eta == 2 * eta and lq.factor(game, 2 * eta) is other
    assert lq.factor(game, eta) is not reused
    assert etas == [0.0, 2 * eta, eta]
    assert lq.factor(game, 0.0) is lq.factor(game, 0.0) and etas.count(0.0) == 1


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
    for name in ("A", "B", "b", "C", "c", "G", "initial_state"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.rows is None and got.active is None


def symmetric(C):
    return np.array_equal(C, C.swapaxes(-1, -2))


def test_every_writer_stores_an_exactly_symmetric_cost_hessian(rng, monkeypatch):
    fishery = fishery_game(FisheryParams(horizon_time=3.0))
    smooth = random_smooth_game(rng)
    for game in (fishery, lq_rendezvous_game(), smooth):
        u = 0.1 * rng.uniform(size=(game.horizon + 1, game.total_action_dim))
        assert symmetric(quadraticize(game, rollout(game, game.initial_state, u),
                                      feas_tol=np.inf).C)
    game = lq_game(random_lq_data(rng, 4, 3, (2, 1)), rng.standard_normal(3), (2, 1))
    assert symmetric(lq.extract_lq_data(game).C)
    # the data of every factor: the regularized game, each Newton step's
    # local game, and the prox terms of a projection
    factored, real = [], lq._kkt_factor

    def kkt_factor(data, *args, **kwargs):
        factored.append(data)
        return real(data, *args, **kwargs)

    monkeypatch.setattr(lq, "_kkt_factor", kkt_factor)
    lq.factor(game, 0.3)
    for nonlinear in (fishery, smooth):
        T1, n_u = nonlinear.horizon + 1, nonlinear.total_action_dim
        y = rollout(nonlinear, nonlinear.initial_state, np.full((T1, n_u), 0.1)).states
        resolvent_reg_game(nonlinear, y, np.full((T1, n_u), 0.2), 1e-2)
    lq.factor(game, 0.0)
    assert len(factored) >= 4 and all(symmetric(data.C) for data in factored)
    y, z = rng.standard_normal((2, game.horizon + 1, 3))
    assert symmetric(lq._prox_data(*lq.linearize_dynamics(game, *lq._origin(game)),
                                   game.initial_state, 0.5, y, z).C)


def test_readers_leave_the_shared_read_untouched(rng, monkeypatch):
    # a game's kept read serves every reader, so it is read-only and no reader
    # writes into it; nor may a reader write into a local read it is handed
    reads = []

    def record(data):
        reads.append((data, data.C.copy(), data.c.copy()))
        return data

    monkeypatch.setattr(gradient, "local_lq", lambda *args, real=gradient.local_lq, **kwargs:
                        record(real(*args, **kwargs)))
    smooth = random_smooth_game(rng)
    u = 0.1 * rng.standard_normal((smooth.horizon + 1, smooth.total_action_dim))
    curved = record(quadraticize(smooth, rollout(smooth, smooth.initial_state, u)))
    assert np.any(curved.G != 0.0)  # the costate terms would change a shared C
    gradient._cost_hessian(curved, 0, gradient._sensitivities(curved, np.arange(u.size)))
    game = lq_game(random_lq_data(rng, 4, 3, (2, 1)), rng.standard_normal(3), (2, 1))
    kept = lq.game_data(game)
    arrays = ("A", "B", "b", "C", "c", "initial_state", "G")
    assert not any(getattr(kept, name).flags.writeable for name in arrays)
    lq.factor(game, 0.3)
    gradient.estimate_operator_constants(game)
    ref = lq.solve_lq_open_loop(lq.extract_lq_data(game))
    policy = feedback.stagewise_newton_backward(game, ref)
    feedback.epsilon_nash_gap(game, policy, 1, 1, ref.states[1] + 0.01)
    assert certificate.active_set_polish(game, 1e-8)(ref) is not None
    assert len(reads) == 2
    for data, C, c in reads:
        np.testing.assert_array_equal(data.C, C)
        np.testing.assert_array_equal(data.c, c)
    assert lq.game_data(game) is kept
    fresh = lq.extract_lq_data(game)
    for name in arrays:
        np.testing.assert_array_equal(getattr(kept, name), getattr(fresh, name))


def test_a_read_that_raises_is_not_kept(rng):
    game = lq_game(random_lq_data(rng, 3, 2, (1, 1)), rng.standard_normal(2), (1, 1))
    calls = []

    def rows(states, actions):  # fails at its first call only
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("transient")
        return np.ones((len(states), 1, 4)), -np.ones((len(states), 1)), np.ones((4, 1), bool)

    flaky = dataclasses.replace(game, constraints=lambda k, x, u: np.zeros(1),
                                polyhedral_constraints=True, traj_constraint_rows=rows)
    with pytest.raises(RuntimeError):
        lq.padded_rows(flaky)
    kept = lq.padded_rows(flaky)  # read afresh
    assert lq.padded_rows(flaky) is kept and len(calls) == 2
    # a read that always fails raises at every call
    misshapen = dataclasses.replace(game, cost_hessians=lambda k, x, u: (np.zeros(1),) * 3)
    for _ in range(2):
        with pytest.raises(DimensionError):
            lq.game_data(misshapen)


@pytest.mark.parametrize("quadratic", [True, False])
def test_a_read_leaves_the_game_and_its_hooks_writable(rng, quadratic):
    # the kept arrays are copies: neither the game's initial state nor an
    # array a hook hands out becomes read-only
    game = lq_game(random_lq_data(rng, 3, 2, (1, 1)), rng.standard_normal(2), (1, 1))
    A, B = np.stack([np.eye(2)] * 3), np.ones((3, 2, 2))
    G, p, real = np.ones((4, 1, 4)), -np.ones((4, 1)), np.ones((4, 1), bool)
    game = dataclasses.replace(
        game, quadratic_costs=quadratic, constraints=lambda k, x, u: np.zeros(1),
        polyhedral_constraints=True, traj_dynamics_jacobians=lambda states, actions: (A, B),
        traj_constraint_rows=lambda states, actions: (G, p, real))
    data, rows = lq.game_data(game), lq.padded_rows(game)
    assert not (data.A.flags.writeable or data.initial_state.flags.writeable
                or rows.G.flags.writeable or rows.real.flags.writeable)
    for array in (game.initial_state, A, B, G, p, real):
        assert array.flags.writeable
    np.testing.assert_array_equal(data.A, A)
    np.testing.assert_array_equal(data.initial_state, game.initial_state)


def singular_game(rng, eta, T=3):
    """Player 0's own-action curvature is -I/eta: its regularized block is zero."""
    data = random_lq_data(rng, T, 2, (1, 1))
    for k in range(T + 1):
        data["R"][0][k] = np.diag([-1.0 / eta, 1.0])
        data["X"][0][k] = np.zeros((2, 2))
    return lq_game(data, rng.standard_normal(2), (1, 1))


def test_inert_terminal_actions_are_pinned_at_zero():
    # the rendezvous' terminal actions enter no cost and no dynamics: their
    # KKT rows are zero, and the plain solve is singular at stage T
    game = lq_rendezvous_game()
    data = lq.extract_lq_data(game)
    with pytest.raises(StageSingularityError) as exc:
        lq.solve_lq_open_loop(data)
    assert exc.value.stage == game.horizon
    T1, n_z = game.horizon + 1, data.C.shape[-1]
    none = np.zeros((T1, 0), dtype=bool)
    traj, _ = lq.solve_pinned(data, np.zeros((T1, 0, n_z)), np.zeros((T1, 0)), none)
    assert np.all(traj.actions[-1] == 0.0)
    # the same equilibrium as with a terminal effort cost, which fixes u_T = 0
    C = data.C.copy()
    C[:, -1, 6:, 6:] += np.eye(6)
    want = lq.solve_lq_open_loop(dataclasses.replace(data, C=C))
    np.testing.assert_allclose(traj.actions, want.actions, rtol=0, atol=1e-10)
    np.testing.assert_allclose(traj.states, want.states, rtol=0, atol=1e-10)


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


def test_balancing_keeps_eta_where_the_raised_game_is_singular(rng, monkeypatch,
                                                               dr_without_polish):
    eta0 = 0.05
    raised = splitting.BALANCE_FACTOR * eta0
    # singular at the first raised eta; the box never binds, and without the
    # polish, which would certify the first candidate, the run reaches the balancing
    game = dataclasses.replace(
        singular_game(rng, raised), constraints=lambda k, x, u: np.abs(u) - 10.0,
        traj_projector=lambda states, actions: (states, np.clip(actions, -10.0, 10.0)))
    with pytest.raises(StageSingularityError):
        lq.factor(game, raised)
    etas = []
    real = lq.regularized_factor

    def spy(data, eta):
        etas.append(eta)
        return real(data, eta)

    # every step reads the game's kept factor (lq.factor), so count the builds
    monkeypatch.setattr(lq, "regularized_factor", spy)
    rep = dr_solve(game, DrConfig(scheme="constraints", eta=eta0, max_iter=500,
                                  record_costs=False, run_checks=False))
    # balancing asked for BALANCE_FACTOR * eta0 once, kept eta0 and stopped
    assert etas == [eta0, raised]
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
                for _ in range(3):  # each a build: lq.factor would return its kept factor
                    fac = lq.regularized_factor(lq.game_data(game), 0.1)
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
    data.C[1, 2, 3, 2] = np.nan  # in player 1's own-action row (n_x = 2)
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


# Imports the modules named on the command line in that order, then checks
# that the package's LAPACK routines are scipy.linalg.lapack's and that a
# banded factor and solve through scipy.linalg.lapack still solve.
IMPORT_ORDER = """
import importlib, sys
import numpy as np
for name in sys.argv[1:]:
    importlib.import_module(name)
import scipy.linalg
from dyngames import gradient, lq
lapack = scipy.linalg.lapack
assert lq.lapack.dgbtrf is lapack.dgbtrf and lq.lapack.dgbtrs is lapack.dgbtrs
assert gradient.lapack.dtbtrs is lapack.dtbtrs
M = np.diag([4.0, 5.0, 6.0, 7.0]) + np.diag([1.0, 2.0, 3.0], 1) + np.diag([-1.0, 1.0, -2.0], -1)
kl = ku = 1
ab = np.zeros((2 * kl + ku + 1, 4))
for i, j in zip(*np.nonzero(M)):
    ab[kl + ku + i - j, j] = M[i, j]
lu, piv, info = lapack.dgbtrf(ab, kl, ku)
b = np.arange(1.0, 5.0)[:, None]
x, solved = lapack.dgbtrs(lu, kl, ku, b, piv)
assert info == solved == 0
np.testing.assert_allclose(M @ x, b, rtol=1e-14)
"""


@pytest.mark.parametrize("order", [("dyngames", "scipy.linalg"), ("scipy.linalg", "dyngames")])
def test_the_lapack_routines_are_scipys_in_either_import_order(order):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", IMPORT_ORDER, *order], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_the_lapack_loader_names_a_directory_without_the_extension(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        _lapack.load_flapack(str(tmp_path))
