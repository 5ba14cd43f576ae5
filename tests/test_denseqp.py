"""The dual active-set QP kernel against exhaustive active-set enumeration.

Dense QPs, and QPs over a whole stacked trajectory solved on the banded
kernel of ``lq`` (``lq.BandedQp``), against the same QP as dense matrices.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dyngames import denseqp, lq
from dyngames.denseqp import solve_qp
from dyngames.errors import InfeasibleConstraintsError, SubproblemError
from dyngames.model import LqGameData

from oracles import brute_force_qp


def random_qp(seed, n, m, neq, extra_rank, special_rows):
    """A feasible convex QP with H semidefinite, definite on null(Aeq).

    H = M M' with M = [Z C, E]: Z spans null(Aeq), C is invertible and E adds
    ``extra_rank`` random directions, so H is singular whenever
    extra_rank < neq.  The inequality rows hold at a point z0 that meets the
    equality rows, some with zero slack.  ``special_rows`` turns the first
    rows into a duplicate, an opposite and a linear combination of others,
    each consistent at z0.
    """
    rng = np.random.default_rng(seed)
    Aeq = rng.standard_normal((neq, n))
    Vt = np.linalg.svd(Aeq)[2] if neq else np.eye(n)
    Z = Vt[neq:].T
    C = rng.standard_normal((n - neq, n - neq)) + 2.0 * np.eye(n - neq)
    M = np.hstack([Z @ C, rng.standard_normal((n, extra_rank))])
    H = M @ M.T
    f = rng.standard_normal(n)
    z0 = rng.standard_normal(n)
    beq = Aeq @ z0
    G = rng.standard_normal((m, n))
    if special_rows and m >= 5:
        G[3] = G[2]                    # duplicate
        G[4] = -G[2]                   # opposite
        G[0] = 0.5 * G[1] - 2.0 * G[2]  # dependent
    slack = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 1.0, m))
    h = G @ z0 + slack
    return H, f, G, h, Aeq, beq


qp_shapes = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(0, 8),
    neq_frac=st.floats(0.0, 1.0), extra_rank=st.integers(0, 2),
    special_rows=st.booleans())


def draw(seed, n, m, neq_frac, extra_rank, special_rows):
    neq = int(neq_frac * (n - 1) + 0.5)  # at most n - 1 equality rows
    return random_qp(seed, n, m, neq, min(extra_rank, neq), special_rows)


def solve_dense(H, f, G, h, Aeq, beq):
    """solve_qp with empty blocks passed as None."""
    m, neq = G.shape[0], Aeq.shape[0]
    return solve_qp(H, f, G=G if m else None, h=h if m else None,
                    Aeq=Aeq if neq else None, beq=beq if neq else None)


@given(**qp_shapes)
def test_matches_enumeration(seed, n, m, neq_frac, extra_rank, special_rows):
    H, f, G, h, Aeq, beq = draw(seed, n, m, neq_frac, extra_rank, special_rows)
    neq = Aeq.shape[0]
    ref = brute_force_qp(H, f, G if m else None, h if m else None,
                         Aeq=Aeq if neq else None, beq=beq if neq else None)
    z, lam = solve_dense(H, f, G, h, Aeq, beq)
    np.testing.assert_allclose(z, ref, rtol=0, atol=1e-9 * (1.0 + np.max(np.abs(ref))))
    assert lam.shape == (m,) and np.all(lam >= 0.0)
    if m:
        assert np.max(G @ z - h) <= 1e-9 * (1.0 + np.max(np.abs(h)))
        # complementary slackness: only rows at their bound carry a multiplier
        assert np.max(lam * (h - G @ z)) <= 1e-8 * (1.0 + np.max(lam))


@given(**qp_shapes)
# rounding once read a dependent row as independent on these rows, and the
# solver returned a point that violates an active row
@example(seed=267, n=2, m=3, neq_frac=0.0, extra_rank=0, special_rows=False)
@example(seed=168, n=3, m=5, neq_frac=0.0, extra_rank=0, special_rows=False)
def test_contradictory_rows_raise_in_both(seed, n, m, neq_frac, extra_rank, special_rows):
    H, f, G, h, Aeq, beq = draw(seed, n, m, neq_frac, extra_rank, special_rows)
    # g'z <= c and -g'z <= -c - 0.5 ask for c + 0.5 <= g'z <= c
    g = np.random.default_rng(seed).standard_normal(n)
    G = np.vstack([G, g, -g])
    h = np.concatenate([h, [0.3, -0.8]])
    neq = Aeq.shape[0]
    with pytest.raises(RuntimeError):
        brute_force_qp(H, f, G, h, Aeq=Aeq if neq else None, beq=beq if neq else None)
    with pytest.raises(InfeasibleConstraintsError):
        solve_dense(H, f, G, h, Aeq, beq)


def test_step_bound_raises(monkeypatch):
    H, f, G, h, Aeq, beq = random_qp(1, 4, 6, 1, 1, False)
    h = h - 10.0  # every row violated at the start
    monkeypatch.setattr(denseqp, "STEPS_PER_DIMENSION", 0)
    with pytest.raises(SubproblemError, match="exceeded 0 steps"):
        solve_qp(H, f, G=G, h=h, Aeq=Aeq, beq=beq)


@pytest.mark.parametrize("banded", [False, True])
def test_singular_equality_problem_raises(banded):
    # flat along the second action, which no row pins
    if banded:
        qp = random_banded_qp(0, 2, [0, 0, 0], [0, 0, 0], "w1")[0]
        qp = lq.BandedQp(zero_action_cost(qp.data, 1), qp.W, qp.S, qp.p, qp.real)
        with pytest.raises(SubproblemError, match="singular"):
            solve_qp(qp)
        return
    H = np.diag([1.0, 0.0])
    Aeq = np.array([[1.0, 0.0]])
    with pytest.raises(SubproblemError, match="singular"):
        solve_qp(H, np.ones(2), Aeq=Aeq, beq=np.zeros(1))


def zero_action_cost(data, j):
    """``data`` with no cost on action j."""
    R = data.R.copy()
    R[..., j, :] = R[..., :, j] = 0.0
    return LqGameData(data.A, data.B, data.b, data.Q, data.X, R, data.q, data.r,
                      action_dims=data.action_dims, initial_state=data.initial_state)


N_X, N_U = 2, 2
MAX_ROWS = 8  # inequality rows in all, so that enumeration stays cheap
DUPLICATE, OPPOSITE, DEPENDENT, STATE_ONLY = 1, 2, 3, 4


def random_banded_qp(seed, T, counts, special, cost):
    """A random horizon QP as an ``lq.BandedQp`` and as stacked dense matrices.

    The variable is v = (x_0, u_0, ..., x_T, u_T) with dynamics x+ = A_k x +
    B_k u + b_k from a pinned x_0.  Stage k carries ``counts[k]`` affine rows
    that hold at a reference trajectory, some with zero slack;
    ``special[k]`` makes its second row a duplicate or an opposite of the
    first, its third a combination of the first two, or its first a row on
    the state only (at stage 0 it is then fixed by the pinned x_0).
    ``cost`` "w0" and "w1" are the projection metrics w |x - y|^2 + |u - z|^2
    at state weight w; "br" is a best response: a convex cost with
    state-action cross terms, and action 0 held at every stage by a policy
    row u_0 = K_k x_k + c_k.  Returns the QP, (H, f, G, h, Aeq, beq) and
    the projection's target (y, z), None for "br".
    """
    rng = np.random.default_rng(seed)
    T1, n_v = T + 1, N_X + N_U
    A = np.eye(N_X) + 0.3 * rng.standard_normal((T, N_X, N_X))
    B = rng.standard_normal((T, N_X, N_U))
    b = 0.1 * rng.standard_normal((T, N_X))
    x0 = rng.standard_normal(N_X)
    target = None
    if cost == "br":
        M = rng.standard_normal((T1, n_v, n_v))
        C = M @ M.swapaxes(1, 2) / n_v + 0.1 * np.eye(n_v)
        lin = rng.standard_normal((T1, n_v))
    else:
        w = 1.0 if cost == "w1" else 0.0
        C = np.broadcast_to(np.diag([w] * N_X + [1.0] * N_U), (T1, n_v, n_v))
        target = 2.0 * rng.standard_normal((T1, n_v))
        lin = -(C @ target[..., None])[..., 0]
        target = (target[:, :N_X], target[:, N_X:])
    data = LqGameData(A, B, b, C[None, :, :N_X, :N_X], C[None, :, :N_X, N_X:],
                      C[None, :, N_X:, N_X:], lin[None, :, :N_X], lin[None, :, N_X:],
                      action_dims=(N_U,), initial_state=x0)

    # a reference trajectory; a held policy row passes through it
    ref = np.zeros((T1, n_v))
    ref[0, :N_X] = x0
    ref[:, N_X:] = rng.uniform(-1.0, 1.0, (T1, N_U))
    for k in range(T):
        ref[k + 1, :N_X] = A[k] @ ref[k, :N_X] + B[k] @ ref[k, N_X:] + b[k]
    m = max(counts, default=0)
    rows = np.zeros((T1, m, n_v))
    real = np.zeros((T1, m), dtype=bool)
    for k, c in enumerate(counts):
        rows[k, :c] = rng.standard_normal((c, n_v))
        real[k, :c] = True
        if special[k] == STATE_ONLY and c:
            rows[k, 0, N_X:] = 0.0
        elif special[k] in (DUPLICATE, OPPOSITE) and c >= 2:
            rows[k, 1] = rows[k, 0] if special[k] == DUPLICATE else -rows[k, 0]
        elif special[k] == DEPENDENT and c >= 3:
            rows[k, 2] = 0.5 * rows[k, 0] - 2.0 * rows[k, 1]
    slack = np.where(rng.random((T1, m)) < 0.3, 0.0, rng.uniform(0.0, 1.0, (T1, m)))
    p = -np.einsum("kmi,ki->km", rows, ref) - slack
    held = np.zeros((T1, m), dtype=bool)
    if cost == "br":
        K = rng.standard_normal((T1, 1, N_X))
        policy = np.concatenate([-K, np.broadcast_to([[1.0, 0.0]], (T1, 1, N_U))], axis=2)
        rows = np.concatenate([rows, policy], axis=1)
        p = np.concatenate([p, -np.einsum("kmi,ki->km", policy, ref)], axis=1)
        real = np.concatenate([real, np.zeros((T1, 1), dtype=bool)], axis=1)
        held = np.concatenate([held, np.ones((T1, 1), dtype=bool)], axis=1)
    qp = lq.BandedQp(data, rows[..., :N_X], rows[..., N_X:], p, real, held)

    n = T1 * n_v
    H = np.zeros((n, n))
    for k in range(T1):
        H[k * n_v:(k + 1) * n_v, k * n_v:(k + 1) * n_v] = C[k]
    pin = np.zeros((N_X, n))
    pin[:, :N_X] = np.eye(N_X)
    eq, beq = [pin], [x0]
    for k in range(T):
        dyn = np.zeros((N_X, n))
        dyn[:, k * n_v:(k + 1) * n_v] = -np.hstack([A[k], B[k]])
        dyn[:, (k + 1) * n_v:(k + 1) * n_v + N_X] = np.eye(N_X)
        eq.append(dyn)
        beq.append(b[k])
    G, h = [], []
    for k in range(T1):
        for i in range(rows.shape[1]):
            row = np.zeros(n)
            row[k * n_v:(k + 1) * n_v] = rows[k, i]
            if held[k, i]:
                eq.append(row[None])
                beq.append([-p[k, i]])
            elif real[k, i]:
                G.append(row)
                h.append(-p[k, i])
    G = np.array(G).reshape(-1, n)
    return qp, (H, lin.ravel(), G, np.array(h), np.vstack(eq), np.concatenate(beq)), target


banded_shapes = dict(
    seed=st.integers(0, 2**32 - 1), T=st.integers(0, 6),
    counts=st.lists(st.integers(0, 3), min_size=7, max_size=7),
    special=st.lists(st.integers(0, 4), min_size=7, max_size=7),
    cost=st.sampled_from(["w0", "w1", "br"]))


def draw_banded(seed, T, counts, special, cost):
    counts = counts[:T + 1]
    capped = np.minimum(counts, np.maximum(MAX_ROWS - np.cumsum([0] + counts[:-1]), 0))
    return random_banded_qp(seed, T, [int(c) for c in capped], special[:T + 1], cost)


@given(**banded_shapes)
def test_banded_horizon_qp_matches_enumeration(seed, T, counts, special, cost):
    qp, (H, f, G, h, Aeq, beq), target = draw_banded(seed, T, counts, special, cost)
    ref = brute_force_qp(H, f, G if G.shape[0] else None, h if G.shape[0] else None,
                         Aeq=Aeq, beq=beq)
    z, lam = solve_qp(qp)
    np.testing.assert_allclose(z, ref, rtol=0, atol=1e-9 * (1.0 + np.max(np.abs(ref))))
    real = qp.real.ravel()
    assert np.all(lam >= 0.0) and np.all(lam[~real] == 0.0)
    values = qp.values(z)[real]
    assert np.max(values, initial=0.0) <= 1e-9 * (1.0 + np.max(np.abs(h), initial=0.0))
    # complementary slackness: only rows at their bound carry a multiplier
    assert np.max(-lam[real] * values, initial=0.0) <= 1e-8 * (1.0 + np.max(lam, initial=0.0))
    if target is not None:
        # ``lq.project`` builds the same QP
        traj = lq.project(lq.PaddedRows(qp.W, qp.S, qp.p, qp.real), qp.data, *target,
                          1.0 if cost == "w1" else 0.0)
        np.testing.assert_array_equal(np.hstack([traj.states, traj.actions]).ravel(), z)


@given(**banded_shapes, stage=st.integers(0, 6))
def test_banded_contradictory_rows_raise(seed, T, counts, special, cost, stage):
    qp = draw_banded(seed, T, counts, special, cost)[0]
    # g'v_k <= c and -g'v_k <= -c - 0.5 ask for c + 0.5 <= g'v_k <= c
    k = stage % (T + 1)
    g = np.random.default_rng(seed).standard_normal(N_X + N_U)
    W, S = (np.concatenate([M, np.zeros((T + 1, 2, M.shape[2]))], axis=1)
            for M in (qp.W, qp.S))
    W[k, -2:], S[k, -2:] = [g[:N_X], -g[:N_X]], [g[N_X:], -g[N_X:]]
    p = np.concatenate([qp.p, np.zeros((T + 1, 2))], axis=1)
    p[k, -2:] = [-0.3, 0.8]
    real = np.concatenate([qp.real, np.zeros((T + 1, 2), dtype=bool)], axis=1)
    real[k, -2:] = True
    held = np.concatenate([qp.held, np.zeros((T + 1, 2), dtype=bool)], axis=1)
    with pytest.raises(InfeasibleConstraintsError):
        solve_qp(lq.BandedQp(qp.data, W, S, p, real, held))
