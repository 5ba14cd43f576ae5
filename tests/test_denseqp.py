"""The dual active-set QP kernel against exhaustive active-set enumeration.

Dense QPs (``oracles.DenseQp``), and QPs over a whole stacked trajectory
solved on the banded kernel of ``lq`` (``lq.BandedQp``), against the same QP
as dense matrices; and the stage LCP's polyhedron projection against the
dense QP.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dyngames import denseqp, lq
from dyngames.denseqp import solve_qp
from dyngames.errors import InfeasibleConstraintsError, SubproblemError
from dyngames.model import LqGameData

from oracles import DenseQp, brute_force_qp


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
    return solve_qp(DenseQp(H, f, G=G if m else None, h=h if m else None,
                            Aeq=Aeq if neq else None, beq=beq if neq else None))


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
        solve_qp(DenseQp(H, f, G=G, h=h, Aeq=Aeq, beq=beq))


def test_step_bound_raises_after_a_guessed_start(monkeypatch):
    qp = random_banded_qp(1, 2, [2, 2, 2], [0, 0, 0], "w1")[0]
    # every row violated at the start; the guess holds one of them
    qp = lq.BandedQp(qp.data, qp.G, qp.p + 10.0, qp.real)
    monkeypatch.setattr(denseqp, "STEPS_PER_DIMENSION", 0)
    with pytest.raises(SubproblemError, match="exceeded 0 steps"):
        solve_qp(qp, start=[0])


@pytest.mark.parametrize("banded", [False, True, "guessed"])
def test_singular_equality_problem_raises(banded):
    # flat along the second action, which no row pins; a guess holds one row
    if banded:
        qp = random_banded_qp(0, 2, [1, 1, 1], [0, 0, 0], "w1")[0]
        qp = lq.BandedQp(zero_action_cost(qp.data, 1), qp.G, qp.p, qp.real)
        with pytest.raises(SubproblemError, match="singular"):
            solve_qp(qp, start=[0] if banded == "guessed" else None)
        return
    H = np.diag([1.0, 0.0])
    Aeq = np.array([[1.0, 0.0]])
    with pytest.raises(SubproblemError, match="singular"):
        solve_qp(DenseQp(H, np.ones(2), Aeq=Aeq, beq=np.zeros(1)))


def zero_action_cost(data, j):
    """``data`` with no cost on action j."""
    C, n_x = data.C.copy(), data.initial_state.size
    C[..., n_x + j, n_x:] = C[..., n_x:, n_x + j] = 0.0
    return LqGameData(data.A, data.B, data.b, C, data.c,
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
    data = LqGameData(A, B, b, C[None], lin[None], action_dims=(N_U,), initial_state=x0)

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
    qp = lq.BandedQp(data, rows, p, real, held)

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
        traj = lq.project(lq.PaddedRows(qp.G, qp.p, qp.real, N_X), qp.data, *target,
                          1.0 if cost == "w1" else 0.0)
        np.testing.assert_array_equal(np.hstack([traj.states, traj.actions]).ravel(), z)


def with_contradictory_pair(qp, seed, k):
    """``qp`` with two rows at stage k asking for c + 0.5 <= g'v_k <= c, and their flat indices."""
    T1, m = qp.p.shape
    # g'v_k <= c and -g'v_k <= -c - 0.5
    g = np.random.default_rng(seed).standard_normal(N_X + N_U)
    G = np.concatenate([qp.G, np.zeros((T1, 2, N_X + N_U))], axis=1)
    G[k, -2:] = [g, -g]
    p = np.concatenate([qp.p, np.zeros((T1, 2))], axis=1)
    p[k, -2:] = [-0.3, 0.8]
    real = np.concatenate([qp.real, np.zeros((T1, 2), dtype=bool)], axis=1)
    real[k, -2:] = True
    held = np.concatenate([qp.held, np.zeros((T1, 2), dtype=bool)], axis=1)
    return lq.BandedQp(qp.data, G, p, real, held), [k * (m + 2) + m, k * (m + 2) + m + 1]


@given(**banded_shapes, stage=st.integers(0, 6))
def test_banded_contradictory_rows_raise(seed, T, counts, special, cost, stage):
    qp = draw_banded(seed, T, counts, special, cost)[0]
    qp = with_contradictory_pair(qp, seed, stage % (T + 1))[0]
    with pytest.raises(InfeasibleConstraintsError):
        solve_qp(qp)


def outcome(qp, start):
    """solve_qp's minimizer from ``start``, or the class of the error it raised."""
    try:
        return solve_qp(qp, start=start)[0]
    except (InfeasibleConstraintsError, SubproblemError) as exc:
        return type(exc)


def assert_same_outcome(warm, cold):
    if isinstance(cold, type):
        assert warm is cold
    else:
        assert not isinstance(warm, type), warm
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-9 * (1.0 + np.max(np.abs(cold))))


GUESSES = ("active", "superset", "subset", "dependent", "contradictory")


@given(**banded_shapes, guess=st.sampled_from(GUESSES), pick=st.integers(0, 2**32 - 1))
def test_a_guessed_start_changes_the_steps_not_the_minimizer(seed, T, counts, special, cost,
                                                             guess, pick):
    qp, dense, _ = draw_banded(seed, T, counts, special, cost)
    r = np.random.default_rng(pick)
    m = qp.p.shape[1]
    real = np.flatnonzero(qp.real)
    cold = outcome(qp, [])
    if isinstance(cold, type):
        active = real[r.random(real.size) < 0.5]
    else:
        active = real[qp.values(cold)[real] >= -1e-9 * (1.0 + np.max(np.abs(cold)))]
    rows = {"active": active,
            "superset": np.union1d(active, real[r.random(real.size) < 0.5]),
            "subset": active[r.random(active.size) < 0.5],
            # a row with its duplicate, its opposite or a combination of two
            "dependent": np.union1d(active, [k * m + i for k in range(T + 1)
                                             if special[k] in (DUPLICATE, OPPOSITE, DEPENDENT)
                                             for i in range(3) if qp.real[k, i:i + 1].any()]),
            "contradictory": active}[guess].astype(int)
    if guess == "contradictory":
        k, i = np.unravel_index(rows, (T + 1, max(m, 1)))
        qp, pair = with_contradictory_pair(qp, seed, pick % (T + 1))
        rows = np.union1d(k * (m + 2) + i, pair)
        cold = outcome(qp, [])
        assert cold is InfeasibleConstraintsError
    assert_same_outcome(outcome(qp, rows), cold)
    if guess != "contradictory":
        # the same guess on the dense form of the QP, whose rows are the real ones in order
        dense = DenseQp(*dense)
        assert_same_outcome(outcome(dense, np.searchsorted(real, rows)), outcome(dense, []))


POLYHEDRON_LAYOUTS = ("general", "plus_minus", "duplicated", "dependent", "contradictory")


def random_polyhedron(seed, n, m, layout):
    """Rows Gz <= h in n dimensions and a point to project, mostly outside them.

    The rows hold at an anchor point with random slack, some zero.  ``layout``
    makes the second row the negation of the first with the same bound, an
    equality (``plus_minus``), a copy of it (``duplicated``) or a combination
    of the first two (``dependent``), or adds a pair asking for
    c + 0.5 <= g'z <= c (``contradictory``).
    """
    r = np.random.default_rng(seed)
    G = r.standard_normal((m, n))
    anchor = r.standard_normal(n)
    slack = np.where(r.random(m) < 0.3, 0.0, r.uniform(0.0, 1.0, m))
    if m >= 2 and layout in ("plus_minus", "duplicated"):
        G[1], slack[:2] = (-G[0] if layout == "plus_minus" else G[0]), 0.0
    elif m >= 3 and layout == "dependent":
        G[2], slack[2] = 0.5 * G[0] - 2.0 * G[1], 0.0
    h = G @ anchor + slack
    if layout == "contradictory":
        g = r.standard_normal(n)
        G, h = np.vstack([G, g, -g]), np.concatenate([h, [0.3, -0.8]])
    return G, h, anchor + 3.0 * r.standard_normal(n)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 8),
       layout=st.sampled_from(POLYHEDRON_LAYOUTS))
def test_lcp_projection_matches_the_dense_qp(seed, n, m, layout):
    G, h, point = random_polyhedron(seed, n, m, layout)
    try:
        dense = solve_qp(DenseQp(np.eye(n), -point, G=G, h=h))[0]
    except InfeasibleConstraintsError:
        dense = None
    if dense is None:
        with pytest.raises(InfeasibleConstraintsError, match="stage 4"):
            denseqp.project_polyhedron(point, G, h, 4)
        return
    z = denseqp.project_polyhedron(point, G, h, 4)
    scale = 1.0 + np.max(np.abs(point)) + np.max(np.abs(h))
    np.testing.assert_allclose(z, dense, rtol=0, atol=1e-9 * scale)


STAGE_LAYOUTS = ("general", "plus_minus", "duplicated", "contradictory", "over_determined",
                 "state_only")


def padded_rows_projection(seed, T, layouts, offset):
    """Rows ``model.PaddedRows`` over a random linear dynamics, a target and a start guess.

    The rows hold at a reference trajectory, and ``layouts[k]`` sets stage
    k's: two general rows with random slack, some zero; a pair of opposite
    rows, an equality (``plus_minus``); a row and its copy (``duplicated``);
    a pair asking for c + offset <= g'v_k <= c (``contradictory``); five
    equalities on the four stage variables, each moved by up to ``offset``
    (``over_determined``, contradictory unless offset is 0); or two
    equalities on the state alone, moved by ``offset``, which contradict the
    pinned x_0 at stage 0 (``state_only``).  Returns the rows, the dynamics
    as ``LqGameData``, the target (y, z) and a random guess of active rows.
    """
    r = np.random.default_rng(seed)
    T1, n_v = T + 1, N_X + N_U
    A = np.eye(N_X) + 0.3 * r.standard_normal((T, N_X, N_X))
    B = r.standard_normal((T, N_X, N_U))
    b = 0.1 * r.standard_normal((T, N_X))
    x0 = r.standard_normal(N_X)
    ref = np.zeros((T1, n_v))
    ref[0, :N_X] = x0
    ref[:, N_X:] = r.uniform(-1.0, 1.0, (T1, N_U))
    for k in range(T):
        ref[k + 1, :N_X] = A[k] @ ref[k, :N_X] + B[k] @ ref[k, N_X:] + b[k]
    stages = []
    for k, layout in enumerate(layouts):
        if layout == "general":
            g = r.standard_normal((2, n_v))
            h = g @ ref[k] + np.where(r.random(2) < 0.3, 0.0, r.uniform(0.0, 1.0, 2))
        elif layout in ("plus_minus", "duplicated", "contradictory"):
            row = r.standard_normal(n_v)
            g = np.array([row, row if layout == "duplicated" else -row])
            c = row @ ref[k]
            h = (np.array([c, c]) if layout == "duplicated"
                 else np.array([c, -c - (offset if layout == "contradictory" else 0.0)]))
        else:
            eqs = r.standard_normal((5 if layout == "over_determined" else 2, n_v))
            if layout == "state_only":
                eqs[:, N_X:] = 0.0
            c = eqs @ ref[k] + offset * r.uniform(-1.0, 1.0, len(eqs))
            g, h = np.vstack([eqs, -eqs]), np.concatenate([c, -c])
        stages.append((g, h))
    m = max(len(h) for _, h in stages)
    G, p = np.zeros((T1, m, n_v)), np.zeros((T1, m))
    real = np.zeros((T1, m), dtype=bool)
    for k, (g, h) in enumerate(stages):
        G[k, :len(h)], p[k, :len(h)], real[k, :len(h)] = g, -h, True
    target = ref + 2.0 * r.standard_normal((T1, n_v))
    data = LqGameData(A, B, b, np.zeros((1, T1, n_v, n_v)), np.zeros((1, T1, n_v)),
                      action_dims=(N_U,), initial_state=x0)
    guess = real & (r.random((T1, m)) < 0.5)
    return lq.PaddedRows(G, p, real, N_X), data, (target[:, :N_X], target[:, N_X:]), guess


@given(seed=st.integers(0, 2**32 - 1), T=st.integers(0, 4),
       layouts=st.lists(st.sampled_from(STAGE_LAYOUTS), min_size=5, max_size=5),
       offset=st.sampled_from([0.0, 1e-10, 1e-6, 1e-3, 0.5]),
       state_weight=st.sampled_from([0.0, 1.0]), guessed=st.booleans())
# a row of stage 2 lies so nearly in the span of the active rows (least
# singular value 1.2e-6 of the nine) that the loop read it as dependent, and
# with no multiplier to block its step called these rows contradictory
@example(seed=3561319551, T=4, layouts=["plus_minus", "state_only", "over_determined",
                                        "state_only", "over_determined"],
         offset=0.0, state_weight=0.0, guessed=False)
def test_a_banded_projection_meets_its_rows_or_raises(seed, T, layouts, offset, state_weight,
                                                      guessed):
    # contradictory pairs, duplicates and over-determined stages: the loop
    # either proves the rows contradictory or returns a point that meets them
    rows, data, (y, z), guess = padded_rows_projection(seed, T, layouts[:T + 1], offset)
    try:
        traj = lq.project(rows, data, y, z, state_weight, guess if guessed else None)
    except InfeasibleConstraintsError:
        assert offset > 0.0  # unmoved, every row holds at the reference
        return
    scale = 1.0 + np.max(np.abs(rows.p)) + max(np.max(np.abs(y)), np.max(np.abs(z)))
    assert np.max(rows.values(traj)[rows.real], initial=0.0) <= 1e-8 * scale
    states = np.vstack([data.initial_state, (data.A @ traj.states[:-1, :, None]
                                             + data.B @ traj.actions[:-1, :, None])[..., 0]
                        + data.b])
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-8 * scale)
