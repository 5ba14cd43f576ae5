"""Quadratic parametric games: cone condition, affine laws, enumeration."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

from dyngames import parametric
from dyngames.errors import EnumerationCapError, StageSingularityError
from dyngames.parametric import (
    AffineLaw,
    ParametricGameData,
    cone_to_inequalities,
    enumerate_lcq_parametric,
    solve_lecq_parametric,
    solve_stage_kkt,
)

from oracles import (
    region_phase_one_lp,
    solves_all_active_pieces,
    static_game_vi,
    two_probe_law_check,
)


def random_parametric_game(rng, action_dims=(2, 1), state_dim=2, n_con=1,
                           diag_boost=1.5):
    N = len(action_dims)
    n_u, n_x = sum(action_dims), state_dim
    nz = 1 + n_x + n_u
    gammas = np.empty((N, nz, nz))
    off = 0
    for n, d in enumerate(action_dims):
        g = rng.standard_normal((nz, nz))
        g = 0.5 * (g + g.T)
        own = slice(1 + n_x + off, 1 + n_x + off + d)
        g[own, own] += diag_boost * np.eye(d)
        # ensure own block strictly positive definite
        w = np.linalg.eigvalsh(0.5 * (g[own, own] + g[own, own].T))
        if w.min() < 0.5:
            g[own, own] += (0.5 - w.min() + 0.5) * np.eye(d)
        gammas[n] = g
        off += d
    W = rng.standard_normal((n_con, n_x))
    S = rng.standard_normal((n_con, n_u))
    p = rng.standard_normal(n_con)
    return ParametricGameData(gammas=gammas, W=W, S=S, p=p,
                              action_dims=tuple(action_dims), state_dim=n_x)


class TestConeCondition:
    def test_single_generator_ray(self):
        L = cone_to_inequalities(np.array([[1.0, 0.0]]))
        # Membership of the ray x1 >= 0, x2 = 0.
        assert np.max(L @ np.array([2.0, 0.0])) <= 1e-12
        assert np.max(L @ np.array([-1.0, 0.0])) > 1e-8
        assert np.max(L @ np.array([1.0, 0.5])) > 1e-8

    def test_square_invertible_generator(self, rng):
        S = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        L = cone_to_inequalities(S)
        lam = rng.uniform(0.1, 2.0, size=3)
        assert np.max(L @ (S.T @ lam)) <= 1e-9
        mixed = S.T @ np.array([1.0, -0.5, 0.3])
        assert np.max(L @ mixed) > 1e-8

    def test_rank_deficient_rejected(self):
        S = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        with pytest.raises(StageSingularityError):
            cone_to_inequalities(S)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000))
    def test_more_generators_than_dimensions_rejected(self, seed):
        # three generators in the plane: the rows cannot be independent, and
        # the candidate multiplier (SS')^{-1} S x does not exist
        S = np.random.default_rng(seed).standard_normal((3, 2))
        with pytest.raises(StageSingularityError):
            cone_to_inequalities(S)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), member=st.booleans())
    def test_agrees_with_nnls_membership(self, seed, member):
        rng = np.random.default_rng(seed)
        S = rng.standard_normal((3, 6))
        L = cone_to_inequalities(S)
        if member:
            x = S.T @ rng.uniform(0.0, 2.0, size=3)
        else:
            x = rng.standard_normal(6)
        _, resid = nnls(S.T, x)
        in_cone_oracle = resid <= 1e-8
        in_cone_l = np.max(L @ x) <= 1e-8
        assert in_cone_oracle == in_cone_l


class TestEqualityConstrainedGame:
    def test_pinned_action_case(self, rng):
        # S = I with unit F: the constraint pins u = -Wx - p.
        n_u, n_x = 3, 2
        nz = 1 + n_x + n_u
        gammas = np.stack([np.eye(nz) for _ in range(3)])
        W = rng.standard_normal((n_u, n_x))
        p = rng.standard_normal(n_u)
        data = ParametricGameData(gammas=gammas, W=W, S=np.eye(n_u), p=p,
                                  action_dims=(1, 1, 1), state_dim=n_x)
        law = solve_lecq_parametric(data)
        np.testing.assert_allclose(law.K, -W, atol=1e-12)
        np.testing.assert_allclose(law.s, -p, atol=1e-12)

    def test_unconstrained_scalar_two_player(self):
        # Hand-solved 2-player scalar game: stationarity rows give
        # u = -F^{-1}(Px + H).
        n_x = 1
        nz = 1 + n_x + 2
        g1 = np.zeros((nz, nz))
        g2 = np.zeros((nz, nz))
        # player 1: J1 = 0.5*(2 u1^2) + u1 u2 + u1 x + 3 u1
        g1[2, 2] = 2.0
        g1[2, 3] = g1[3, 2] = 1.0
        g1[1, 2] = g1[2, 1] = 1.0
        g1[0, 2] = g1[2, 0] = 3.0
        # player 2: J2 = 0.5*(4 u2^2) - u1 u2 + 2 u2 x - 1 u2
        g2[3, 3] = 4.0
        g2[2, 3] = g2[3, 2] = -1.0
        g2[1, 3] = g2[3, 1] = 2.0
        g2[0, 3] = g2[3, 0] = -1.0
        data = ParametricGameData(gammas=np.stack([g1, g2]),
                                  W=np.zeros((0, 1)), S=np.zeros((0, 2)),
                                  p=np.zeros(0), action_dims=(1, 1), state_dim=1)
        law = solve_lecq_parametric(data)
        F = np.array([[2.0, 1.0], [-1.0, 4.0]])
        P = np.array([[1.0], [2.0]])
        H = np.array([3.0, -1.0])
        for x in (np.array([0.0]), np.array([1.7])):
            np.testing.assert_allclose(law.K @ x + law.s,
                                       np.linalg.solve(F, -(P @ x + H)), atol=1e-12)

    def test_kkt_residuals_on_random_instances(self, rng):
        for _ in range(25):
            data = random_parametric_game(rng, action_dims=(2, 1), n_con=1)
            law = solve_lecq_parametric(data)
            F, P, H = data.stationarity_blocks()
            scale = np.abs(F).max() + np.abs(P).max() + np.abs(H).max() + 1
            for _ in range(5):
                x = rng.standard_normal(2)
                u = law.K @ x + law.s
                lam = law.lam_K @ x + law.lam_s
                r1 = F @ u + P @ x + H + data.S.T @ lam
                r2 = data.W @ x + data.S @ u + data.p
                assert np.max(np.abs(r1)) <= 1e-10 * scale
                assert np.max(np.abs(r2)) <= 1e-10 * scale

    def test_rank_deficient_constraints_rejected(self, rng):
        data = random_parametric_game(rng, n_con=2)
        S = np.vstack([data.S[0], data.S[0] * 2.0])
        bad = ParametricGameData(gammas=data.gammas, W=data.W, S=S, p=data.p,
                                 action_dims=data.action_dims, state_dim=data.state_dim)
        with pytest.raises(StageSingularityError):
            solve_lecq_parametric(bad)


class TestEnumeration:
    def test_no_constraints_single_region(self, rng):
        data = random_parametric_game(rng, n_con=0)
        policy = enumerate_lcq_parametric(data)
        assert len(policy.regions) == 1
        F, P, H = data.stationarity_blocks()
        np.testing.assert_allclose(policy.regions[0].K,
                                   np.linalg.solve(F, -P), atol=1e-10)
        for _ in range(10):
            assert policy.regions[0].contains(rng.standard_normal(2))

    def test_single_player_clamp_law(self):
        # min 0.5 u^2 + x u  s.t. u <= 0.5: explicit law u = max(-x, ...) i.e.
        # unconstrained -x when -x <= 0.5, else clamped at 0.5.
        nz = 3
        g = np.zeros((nz, nz))
        g[2, 2] = 1.0
        g[1, 2] = g[2, 1] = 1.0
        data = ParametricGameData(gammas=g[None], W=np.zeros((1, 1)),
                                  S=np.array([[1.0]]), p=np.array([-0.5]),
                                  action_dims=(1,), state_dim=1)
        policy = enumerate_lcq_parametric(data)
        assert len(policy.regions) == 2
        for x in np.linspace(-3, 3, 21):
            u = policy.evaluate(np.array([x]))
            expected = min(-x, 0.5)
            assert u[0] == pytest.approx(expected, abs=1e-9)

    def test_two_player_scalar_matches_vi_oracle(self, rng):
        data = random_parametric_game(rng, action_dims=(1, 1), state_dim=1,
                                      n_con=1)
        policy = enumerate_lcq_parametric(data)
        F, P, H = data.stationarity_blocks()
        S_row, W_row, p_row = data.S[0], data.W[0], data.p[0]

        for _ in range(100):
            x = rng.uniform(-2, 2, size=1)
            b = -(W_row @ x + p_row)

            def project(u):
                # halfspace S u <= b
                viol = S_row @ u - b
                if viol <= 0:
                    return u
                return u - viol * S_row / (S_row @ S_row)

            u_ref = static_game_vi(F, P, H, x, project)
            hits = policy.regions_containing(x, tol=1e-7)
            assert hits, f"no region contains x={x}"
            for region in hits:
                np.testing.assert_allclose(region.K @ x + region.s, u_ref,
                                           atol=1e-8)

    def test_region_overlap_consistency(self, rng):
        data = random_parametric_game(rng, action_dims=(1, 1), state_dim=2,
                                      n_con=2)
        policy = enumerate_lcq_parametric(data)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            hits = policy.regions_containing(x, tol=1e-9)
            if len(hits) >= 2:
                vals = [r.K @ x + r.s for r in hits]
                for v in vals[1:]:
                    np.testing.assert_allclose(v, vals[0], atol=1e-8)

    def test_forced_equality_embedding(self, rng):
        data = random_parametric_game(rng, action_dims=(1, 1), state_dim=1,
                                      n_con=1)
        law = solve_lecq_parametric(data)
        policy = enumerate_lcq_parametric(data)
        pinned = [r for r in policy.regions if r.active == (0,)]
        assert pinned
        np.testing.assert_allclose(pinned[0].K, law.K, atol=1e-10)
        np.testing.assert_allclose(pinned[0].s, law.s, atol=1e-10)

    def test_enumeration_cap(self, rng):
        data = random_parametric_game(rng, n_con=15)
        with pytest.raises(EnumerationCapError):
            enumerate_lcq_parametric(data)


class TestRegionEmptiness:
    def test_matches_phase_one_lp_inside_its_box(self, monkeypatch):
        # Every candidate region the enumeration tests, against the LP that
        # decides emptiness inside |x| <= 1e6.  A region whose LP optimum
        # sits on the box is skipped: it may be nonempty only beyond the box,
        # and an unbounded one drives t to the box.
        tested = []
        nonempty = parametric._region_nonempty

        def recorded(L, l):
            tested.append((L, l, nonempty(L, l)))
            return tested[-1][2]

        monkeypatch.setattr(parametric, "_region_nonempty", recorded)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            dims = ((2, 1), (1, 1))[seed % 2]
            enumerate_lcq_parametric(random_parametric_game(
                rng, action_dims=dims, state_dim=1 + seed % 3, n_con=1 + seed % 4))
        compared = found = 0
        for L, l, out in tested:
            t, x = region_phase_one_lp(L, l)
            if np.max(np.abs(x), initial=0.0) < 0.5e6:
                assert out == (t <= 1e-9), (L, l, t)
                compared += 1
                found += out
        assert compared >= 50 and 0 < found < compared

    def test_import_does_not_load_scipy_optimize(self):
        # nor scipy.sparse: every horizon-wide QP runs on the banded kernel of lq
        code = ("import sys, dyngames; sys.exit('scipy.optimize' in sys.modules "
                "or any(m.startswith('scipy.sparse') for m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestPiecewisePredicate:
    def test_two_piece_candidate(self, rng):
        # Two overlapping halfspace pieces of a common quadratic game; the
        # equilibrium of the whole game must solve both pieces where it lies.
        data = random_parametric_game(rng, action_dims=(1, 1), state_dim=1,
                                      n_con=1)
        policy = enumerate_lcq_parametric(data)
        x = np.array([0.3])
        u = policy.evaluate(x, tol=1e-7)
        piece = ParametricGameData(gammas=data.gammas, W=data.W, S=data.S,
                                   p=data.p, action_dims=data.action_dims,
                                   state_dim=1)
        loose = ParametricGameData(gammas=data.gammas, W=data.W, S=data.S,
                                   p=data.p - 1.0, action_dims=data.action_dims,
                                   state_dim=1)
        assert solves_all_active_pieces([piece], x, u)
        bad = u + np.array([0.3, -0.2])
        assert not solves_all_active_pieces([piece, loose], x, bad) or \
            np.max(data.W @ x + data.S @ bad + data.p) > 0


def residual_check_passes(F, P, H, W, S, p, law):
    """The package's one-product check on the given law: does it accept it?"""
    KKT, rhs = parametric._kkt_system(F, P, H, W, S, p)
    sol = np.vstack([np.column_stack([law.K, law.s]),
                     np.column_stack([law.lam_K, law.lam_s])])
    try:
        parametric._check_residual(KKT @ sol - rhs, F.shape[0],
                                   parametric._data_scale(F, P, H), stage=0)
    except StageSingularityError:
        return False
    return True


class TestStageLawCheck:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), n_con=st.integers(0, 2), state_dim=st.integers(1, 4),
           part=st.sampled_from(["K", "s", "lam_K", "lam_s"]),
           size=st.sampled_from([0.0, 1e-14, 1e-3, 1.0, np.nan]))
    def test_accepts_and_rejects_the_same_laws_as_two_probe_oracle(
            self, seed, n_con, state_dim, part, size):
        rng = np.random.default_rng(seed)
        data = random_parametric_game(rng, action_dims=(2, 1), state_dim=state_dim,
                                      n_con=n_con)
        F, P, H = data.stationarity_blocks()
        law = solve_lecq_parametric(data)
        block = getattr(law, part)
        scale = 1.0 + float(np.max(np.abs(block), initial=0.0))
        setattr(law, part, block + size * scale * rng.standard_normal(block.shape))
        expected = two_probe_law_check(F, P, H, data.W, data.S, data.p, law)
        assert residual_check_passes(F, P, H, data.W, data.S, data.p, law) == expected
        # an injected residual far above the tolerance is rejected by both
        if block.size and not size <= 1e-14:
            assert not expected

    def test_accepts_the_solved_law_and_rejects_it_shifted(self, rng):
        data = random_parametric_game(rng, action_dims=(1, 2), state_dim=3, n_con=2)
        F, P, H = data.stationarity_blocks()
        law = solve_lecq_parametric(data)
        rows = (F, P, H, data.W, data.S, data.p)
        assert residual_check_passes(*rows, law) and two_probe_law_check(*rows, law)
        shifted = AffineLaw(law.K, law.s + 1e-4, law.lam_K, law.lam_s)
        assert not residual_check_passes(*rows, shifted)
        assert not two_probe_law_check(*rows, shifted)

    @pytest.mark.parametrize("m", [0, 1])
    def test_nan_in_F_raises(self, m):
        F = np.array([[2.0, np.nan], [0.5, 3.0]])
        with pytest.raises(StageSingularityError, match="stage 7"):
            solve_stage_kkt(F, np.ones((2, 1)), np.ones(2), np.zeros((m, 1)),
                            np.eye(2)[:m], np.zeros(m), stage=7)

    def test_state_dim_above_the_old_probe_length_solves(self, rng):
        n_x = 300
        F = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        P, H = rng.standard_normal((2, n_x)), rng.standard_normal(2)
        W, S, p = rng.standard_normal((1, n_x)), rng.standard_normal((1, 2)), rng.standard_normal(1)
        law = solve_stage_kkt(F, P, H, W, S, p)
        assert law.K.shape == (2, n_x)
        x = rng.standard_normal(n_x)
        u, lam = law.K @ x + law.s, law.lam_K @ x + law.lam_s
        np.testing.assert_allclose(F @ u + P @ x + H + S.T @ lam, 0.0, atol=1e-9)
        np.testing.assert_allclose(W @ x + S @ u + p, 0.0, atol=1e-9)
        free = solve_stage_kkt(F, P, H, np.zeros((0, n_x)), np.zeros((0, 2)), np.zeros(0))
        np.testing.assert_allclose(free.K, -np.linalg.solve(F, P), atol=1e-12)

    def test_probes_are_seeded_and_cover_any_state_dim(self):
        for n_x in (1, 256, 257, 600):
            probes = parametric._probes(n_x)
            assert probes.shape == (n_x + 1, 2)
            np.testing.assert_array_equal(probes[n_x], [1.0, 1.0])
            assert np.all(np.isfinite(probes)) and not probes.flags.writeable
        # the first 256 state dimensions keep the two-probe layout of one seeded draw
        draw = np.random.default_rng(0).standard_normal(512)
        np.testing.assert_array_equal(parametric._probes(256)[:256].T, draw.reshape(2, 256))
