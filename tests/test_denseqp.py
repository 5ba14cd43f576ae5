"""The dual active-set QP kernel against exhaustive active-set enumeration."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from dyngames import denseqp
from dyngames.denseqp import solve_qp
from dyngames.errors import InfeasibleConstraintsError, SubproblemError

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
    special_rows=st.booleans(), sparse=st.booleans())


def draw(seed, n, m, neq_frac, extra_rank, special_rows):
    neq = int(neq_frac * (n - 1) + 0.5)  # at most n - 1 equality rows
    return random_qp(seed, n, m, neq, min(extra_rank, neq), special_rows)


def solve_either(H, f, G, h, Aeq, beq, sparse):
    """solve_qp on dense or scipy.sparse copies of the matrices; empty blocks as None."""
    m, neq = G.shape[0], Aeq.shape[0]
    if sparse:
        H, G, Aeq = sp.csc_matrix(H), sp.csr_matrix(G), sp.csr_matrix(Aeq)
    return solve_qp(H, f, G=G if m else None, h=h if m else None,
                    Aeq=Aeq if neq else None, beq=beq if neq else None)


@given(**qp_shapes)
def test_matches_enumeration(seed, n, m, neq_frac, extra_rank, special_rows, sparse):
    H, f, G, h, Aeq, beq = draw(seed, n, m, neq_frac, extra_rank, special_rows)
    neq = Aeq.shape[0]
    ref = brute_force_qp(H, f, G if m else None, h if m else None,
                         Aeq=Aeq if neq else None, beq=beq if neq else None)
    z, lam = solve_either(H, f, G, h, Aeq, beq, sparse)
    np.testing.assert_allclose(z, ref, rtol=0, atol=1e-9 * (1.0 + np.max(np.abs(ref))))
    assert lam.shape == (m,) and np.all(lam >= 0.0)
    if m:
        assert np.max(G @ z - h) <= 1e-9 * (1.0 + np.max(np.abs(h)))
        # complementary slackness: only rows at their bound carry a multiplier
        assert np.max(lam * (h - G @ z)) <= 1e-8 * (1.0 + np.max(lam))


@given(**qp_shapes)
# rounding once read a dependent row as independent on these rows, and the
# solver returned a point that violates an active row
@example(seed=267, n=2, m=3, neq_frac=0.0, extra_rank=0, special_rows=False, sparse=True)
@example(seed=168, n=3, m=5, neq_frac=0.0, extra_rank=0, special_rows=False, sparse=False)
def test_contradictory_rows_raise_in_both(seed, n, m, neq_frac, extra_rank, special_rows,
                                          sparse):
    H, f, G, h, Aeq, beq = draw(seed, n, m, neq_frac, extra_rank, special_rows)
    # g'z <= c and -g'z <= -c - 0.5 ask for c + 0.5 <= g'z <= c
    g = np.random.default_rng(seed).standard_normal(n)
    G = np.vstack([G, g, -g])
    h = np.concatenate([h, [0.3, -0.8]])
    neq = Aeq.shape[0]
    with pytest.raises(RuntimeError):
        brute_force_qp(H, f, G, h, Aeq=Aeq if neq else None, beq=beq if neq else None)
    with pytest.raises(InfeasibleConstraintsError):
        solve_either(H, f, G, h, Aeq, beq, sparse)


def test_step_bound_raises(monkeypatch):
    H, f, G, h, Aeq, beq = random_qp(1, 4, 6, 1, 1, False)
    h = h - 10.0  # every row violated at the start
    monkeypatch.setattr(denseqp, "STEPS_PER_DIMENSION", 0)
    with pytest.raises(SubproblemError, match="exceeded 0 steps"):
        solve_qp(H, f, G=G, h=h, Aeq=Aeq, beq=beq)


@pytest.mark.parametrize("sparse", [False, True])
def test_singular_equality_problem_raises(sparse):
    H = np.diag([1.0, 0.0])  # flat along the second coordinate, which no row pins
    Aeq = np.array([[1.0, 0.0]])
    if sparse:
        H, Aeq = sp.csc_matrix(H), sp.csr_matrix(Aeq)
    with pytest.raises(SubproblemError, match="singular"):
        solve_qp(H, np.ones(2), Aeq=Aeq, beq=np.zeros(1))
