"""The natural residual, the active-set polish and the game's one kept read at the origin."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from dyngames import certificate, denseqp, lq, model, splitting
from dyngames.benchmarks import LqRendezvousParams, fishery_game, lq_rendezvous_game
from dyngames.certificate import (NEWTON_STEPS, ActiveSetPolish, _equality_pairs,
                                  active_set_polish, kkt_residual, natural_residual,
                                  near_active)
from dyngames.errors import StageSingularityError, UnsupportedConstraintError
from dyngames.gradient import pseudo_gradient
from dyngames.model import PaddedRows, Trajectory, rollout
from dyngames.projgrad import ProjGradConfig, project_onto_feasible, projected_gradient_solve
from dyngames.splitting import SCHEMES, DrConfig, dr_solve

from instances import (RENDEZVOUS_VARIANTS, cross_scheme_lq_instance,
                       random_polyhedral_lq_instance, tight_rendezvous)
from oracles import dense_kkt_residual, player_major_operator, stacked_lq_gne

TOL = 1e-8


class TestPinnedKernel:
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), max_rows=st.integers(1, 2))
    # ill-conditioned: actions near -262 and 191 agree to 9.9e-9, 3.8e-11 relative
    @example(seed=273, T=1, max_rows=2)
    def test_true_active_set_matches_the_dense_oracle(self, seed, T, max_rows):
        inst = random_polyhedral_lq_instance(np.random.default_rng(seed), T=T,
                                             max_rows=max_rows)
        assume(inst is not None)
        polish = active_set_polish(inst.game, TOL)
        rows = polish.rows
        traj, mu = lq.solve_pinned(polish.data, rows.G, rows.p, inst.active)
        eq = inst.equilibrium
        atol = 1e-10 * (1.0 + max(np.max(np.abs(eq.actions)), np.max(np.abs(eq.states))))
        np.testing.assert_allclose(traj.actions, eq.actions, rtol=0, atol=atol)
        np.testing.assert_allclose(traj.states, eq.states, rtol=0, atol=atol)
        assert np.all(mu[~inst.active] == 0.0) and np.all(mu >= -1e-9)
        polished, (residual, _) = polish.attempt(inst.active)
        assert residual == natural_residual(inst.game, polished.actions) <= TOL

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), drop=st.booleans(),
           pick=st.integers(0, 2**16))
    def test_perturbed_set_never_certifies_a_wrong_point(self, seed, T, drop, pick):
        # drop one active row or pin one inactive row; whatever the polish
        # accepts, the dense oracle must accept with the same set: nonnegative
        # multipliers and every other row holding
        inst = random_polyhedral_lq_instance(np.random.default_rng(seed), T=T)
        assume(inst is not None)
        pool = np.flatnonzero(inst.active if drop else inst.mask & ~inst.active)
        assume(pool.size > 0)
        pinned = inst.active.copy()
        pinned.flat[pool[pick % pool.size]] = not drop
        certified = ActiveSetPolish(inst.game, TOL).attempt(pinned)
        if certified is not None:
            out = certified[0]
            assert out.constraint_violation(inst.game) <= TOL
            order = np.flatnonzero(inst.mask)  # oracle rows, in the padded layout's order
            chosen = [j for j, flat in enumerate(order) if pinned.flat[flat]]
            oracle = stacked_lq_gne(inst.game, inst.lq, inst.rows, active=chosen, tol=TOL)
            assert oracle is not None
            np.testing.assert_allclose(out.actions, oracle.actions, rtol=0, atol=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4))
    def test_dependent_pinned_rows_are_rejected(self, seed, T):
        inst = random_polyhedral_lq_instance(np.random.default_rng(seed), T=T, duplicate=True)
        assume(inst is not None)
        polish = active_set_polish(inst.game, TOL)
        rows = polish.rows
        with pytest.raises(StageSingularityError):
            lq.solve_pinned(polish.data, rows.G, rows.p, inst.active)
        assert polish.attempt(inst.active) is None

    def test_no_rows_is_the_plain_open_loop_solve(self, rng):
        inst = random_polyhedral_lq_instance(rng, T=3, max_rows=0)
        data = lq.extract_lq_data(inst.game)
        empty = np.zeros((4, 0))
        traj, mu = lq.solve_pinned(data, empty[..., None].repeat(4, 2), empty,
                                   empty.astype(bool))
        assert mu.shape == (4, 0)
        want = lq.solve_lq_open_loop(data)
        np.testing.assert_array_equal(traj.actions, want.actions)
        np.testing.assert_array_equal(traj.states, want.states)


def candidate_near(rows, pinned):
    """A (not rolled-out) candidate whose ``near_active`` rows are ``pinned``.

    Each stage's point solves its real rows for value 0 on the pinned rows
    and -1 on the others, in the least-squares sense.
    """
    z = np.zeros((len(rows.G), rows.G.shape[2]))
    for k in range(len(z)):
        real = rows.real[k]
        target = np.where(pinned[k, real], 0.0, -1.0) - rows.p[k, real]
        z[k] = np.linalg.lstsq(rows.G[k, real], target, rcond=None)[0]
    return Trajectory(z[:, :rows.state_dim], z[:, rows.state_dim:])


class TestCorrections:
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), max_rows=st.integers(1, 2),
           start_full=st.booleans())
    def test_a_call_from_any_start_ends_on_the_equilibrium_or_none(self, seed, T, max_rows,
                                                                   start_full):
        # from the empty set or every real row pinned, the corrections reach
        # a certified point or give up, solving each set they visit once
        inst = random_polyhedral_lq_instance(np.random.default_rng(seed), T=T,
                                             max_rows=max_rows)
        assume(inst is not None)
        polish = active_set_polish(inst.game, TOL)
        start = inst.mask.copy() if start_full else np.zeros_like(inst.mask)
        cand = candidate_near(polish.rows, start)
        assert np.array_equal(near_active(polish.rows, cand), start)
        solved, real = [], lq.solve_pinned

        def solve(data, G, p, pinned):
            solved.append(pinned.tobytes())
            return real(data, G, p, pinned)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lq, "solve_pinned", solve)
            out = polish(cand)
        assert solved[0] == start.tobytes() and len(set(solved)) == len(solved)
        if out is not None:
            polished, (residual, _) = out
            assert residual == natural_residual(inst.game, polished.actions) <= TOL
            # a strongly monotone operator has one equilibrium, the instance's;
            # other games may have more, each of which the residual certifies
            op, _ = player_major_operator(inst.game, inst.equilibrium.actions)
            if np.linalg.eigvalsh(0.5 * (op + op.T))[0] > 1e-9:
                np.testing.assert_allclose(polished.actions, inst.equilibrium.actions,
                                           rtol=0, atol=1e-9)

    def test_alternating_corrections_stop_after_two_solves(self, rng, monkeypatch):
        # a kernel whose corrections swap two action rows at stage 0: each
        # solve frees the pinned row (mu < 0) and violates the other
        game, _, _ = cross_scheme_lq_instance(rng)
        T1, n_x = game.horizon + 1, game.state_dim
        G, p, real = np.zeros((T1, 2, n_x + 2)), np.zeros((T1, 2)), np.zeros((T1, 2), bool)
        G[0, [0, 1], [n_x, n_x + 1]], p[0], real[0] = 1.0, -1.0, True  # u_0 <= 1
        rows = PaddedRows(G, p, real, n_x)
        polish = ActiveSetPolish(game, TOL)
        polish.rows = rows
        solved = []

        def swap(data, G, p, pinned):
            solved.append(pinned.copy())
            held = int(np.flatnonzero(pinned[0])[0])
            actions = np.zeros((T1, 2))
            actions[0, 1 - held] = 2.0
            return Trajectory(np.zeros((T1, n_x)), actions), -pinned.astype(float)

        monkeypatch.setattr(lq, "solve_pinned", swap)
        sets = [np.zeros((T1, 2), bool) for _ in range(2)]
        sets[0][0, 0] = sets[1][0, 1] = True
        assert polish(candidate_near(rows, sets[0])) is None
        assert [s.tobytes() for s in solved] == [s.tobytes() for s in sets]
        for pinned in sets:
            assert polish(candidate_near(rows, pinned)) is None
        assert len(solved) == 2

    def test_every_solver_certifies_on_its_first_step(self):
        # one step each only through the polish's corrections (without them
        # the three schemes take 3, 5 and 7 steps and projected gradient 2)
        game, lq_data, rows = cross_scheme_lq_instance(np.random.default_rng(5))
        oracle = stacked_lq_gne(game, lq_data, rows)
        reps = [dr_solve(game, DrConfig(scheme=scheme, eta=0.4, max_iter=300, tol=TOL,
                                        run_checks=False)) for scheme in SCHEMES]
        reps.append(projected_gradient_solve(
            game, np.zeros((game.horizon + 1, 2)),
            ProjGradConfig(step_size=0.05, max_iter=5000, tol=TOL, run_checks=False)))
        for rep in reps:
            assert (rep.iterations, rep.termination) == (1, "tolerance")
            assert rep.natural_residual <= TOL
            np.testing.assert_allclose(rep.trajectory.actions, oracle.actions,
                                       rtol=0, atol=1e-10)


class TestNaturalResidual:
    def test_zero_at_the_equilibrium_and_not_off_it(self, rng):
        game, lq_data, rows = cross_scheme_lq_instance(rng)
        eq = stacked_lq_gne(game, lq_data, rows)
        assert natural_residual(game, eq.actions) <= 1e-12
        assert natural_residual(game, eq.actions + 0.01) >= 1e-3

    def test_rendezvous_has_no_projection(self):
        game = lq_rendezvous_game()
        with pytest.raises(UnsupportedConstraintError):
            natural_residual(game, np.zeros((game.horizon + 1, 6)))

    def test_fishery_uses_the_analytic_projection(self):
        game = fishery_game()
        u = np.tile([0.2, 0.1], (game.horizon + 1, 1))
        assert 0.0 < natural_residual(game, u) < np.inf


class TestPolishedSolves:
    def test_projected_gradient_ends_on_the_polish(self, rng):
        game, lq_data, rows = cross_scheme_lq_instance(rng)
        cfg = ProjGradConfig(step_size=0.05, max_iter=5000, tol=1e-10, run_checks=False)
        rep = projected_gradient_solve(game, np.zeros((game.horizon + 1, 2)), cfg)
        assert rep.converged and rep.natural_residual <= cfg.tol
        assert rep.iterations <= 10
        oracle = stacked_lq_gne(game, lq_data, rows)
        np.testing.assert_allclose(rep.trajectory.actions, oracle.actions, rtol=0, atol=1e-10)

    def test_unconstrained_lq_game_is_in_scope(self, rng):
        inst = random_polyhedral_lq_instance(rng, T=3, max_rows=0)
        polish = active_set_polish(inst.game, TOL)
        start = rollout(inst.game, inst.game.initial_state, np.zeros((4, 2)))
        out, (residual, kkt) = polish(start)
        assert residual <= TOL and kkt <= TOL
        np.testing.assert_allclose(out.actions, inst.equilibrium.actions, rtol=0, atol=1e-10)


def gradient_scale(game, traj):
    """The largest cost gradient entry along ``traj``: the units of the KKT residual."""
    CX, CU = game.eval_traj_cost_gradients(traj.states, traj.actions)
    return max(float(np.max(np.abs(CX))), float(np.max(np.abs(CU))))


class TestKktResidual:
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), max_rows=st.integers(1, 2),
           pick=st.integers(0, 2**32 - 1))
    @example(seed=273, T=1, max_rows=2, pick=0)  # gradient entries near 1e3
    def test_zero_at_the_polished_point_and_not_at_another_feasible_one(self, seed, T,
                                                                        max_rows, pick):
        inst = random_polyhedral_lq_instance(np.random.default_rng(seed), T=T,
                                             max_rows=max_rows)
        assume(inst is not None)
        game = inst.game
        polished, (_, kkt) = active_set_polish(game, TOL).attempt(inst.active)
        # in gradient units: rounding scales with the gradients' size
        bound = 1e-9 * (1.0 + gradient_scale(game, polished))
        assert kkt <= bound
        # the same figure with the rows read afresh at the point
        polish = active_set_polish(game, TOL)
        _, mu = lq.solve_pinned(polish.data, polish.rows.G, polish.rows.p, inst.active)
        assert kkt_residual(game, polished, mu) <= bound
        # a feasible point away from the equilibrium, which is unique where
        # the operator is strongly monotone, certifies with no multipliers:
        # neither the oracle's nor zero
        op, _ = player_major_operator(game, inst.equilibrium.actions)
        assume(np.linalg.eigvalsh(0.5 * (op + op.T))[0] > 1e-6)
        move = np.random.default_rng(pick).standard_normal(polished.actions.shape)
        u = project_onto_feasible(game, polished.actions + move)
        assume(np.max(np.abs(u - polished.actions)) > 1e-2)
        other = rollout(game, game.initial_state, u)
        oracle, mu = dense_kkt_residual(game, other)
        assert oracle > TOL and kkt_residual(game, other, mu) > TOL
        assert kkt_residual(game, other, np.zeros_like(mu)) > TOL

    def test_agrees_with_the_dense_oracle_on_the_rendezvous(self, monkeypatch):
        game = lq_rendezvous_game()
        polished = dr_solve(game, DrConfig(record_costs=False, run_checks=False))
        oracle, mu = dense_kkt_residual(game, polished.trajectory)
        assert oracle <= 1e-8 and polished.kkt_residual <= 1e-8  # two certificates
        assert polished.constraint_residual <= 1e-12
        # the same multipliers at points DR has not finished with
        monkeypatch.setattr(splitting, "active_set_polish", lambda *args: None)
        points = [polished.trajectory] + [
            dr_solve(game, DrConfig(max_iter=n, record_costs=False, run_checks=False)).trajectory
            for n in (1, 5, 30)]
        for traj in points:
            oracle, mu = dense_kkt_residual(game, traj)
            scale = max(oracle, gradient_scale(game, traj))
            assert abs(kkt_residual(game, traj, mu) - oracle) <= 1e-9 * scale
        assert oracle > 1.0  # the 30-step point is far from certified

    def test_a_nan_row_gives_nan(self, rng):
        game, _, _ = cross_scheme_lq_instance(rng)
        traj = rollout(game, game.initial_state, np.zeros((game.horizon + 1, 2)))
        rows = lq.padded_rows(game)
        rows = dataclasses.replace(rows, p=np.where(rows.real, np.nan, 0.0))
        assert np.isnan(kkt_residual(game, traj, np.zeros(rows.p.shape), rows))


class TestNewtonPolish:
    @pytest.mark.parametrize("variant", RENDEZVOUS_VARIANTS)
    def test_every_rendezvous_variant_ends_on_the_polish(self, variant):
        # from the default eta DR hands off after its first step, from the
        # others after at most two (from eta 1 and 10, 5 steps without the
        # shortened Newton steps); the reference is a DR solve at tol 1e-11
        # without the polish
        game, reference = tight_rendezvous(variant)
        for eta in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
            rep = dr_solve(game, DrConfig(eta=eta, record_costs=False, run_checks=False))
            assert rep.termination == "tolerance"
            assert rep.iterations <= (1 if eta == DrConfig().eta else 2)
            assert rep.kkt_residual <= 1e-8 and np.isnan(rep.natural_residual)
            assert rep.constraint_residual <= 1e-8
            np.testing.assert_allclose(rep.trajectory.actions, reference, rtol=0, atol=1e-9)

    def test_a_step_is_one_row_read_and_one_pinned_solve(self, monkeypatch):
        game = lq_rendezvous_game()
        reads = count_calls(monkeypatch, certificate, "read_rows")
        solves = count_calls(monkeypatch, lq, "solve_pinned")
        quadratic = count_calls(monkeypatch, model, "quadraticize")
        rep = dr_solve(game, DrConfig(record_costs=False, run_checks=False))
        assert rep.iterations == 1 and 1 <= solves[0] <= NEWTON_STEPS
        # the start's read, then one per step
        assert reads[0] == solves[0] + 1 and quadratic[0] == 0

    def test_an_uncertified_attempt_is_retried_on_the_grid_only(self, monkeypatch):
        # at tol 1e-14 no attempt certifies: each stops at the rounding floor,
        # its KKT residual near 1e-9, before NEWTON_STEPS steps
        game = lq_rendezvous_game()
        steps = []
        newton = ActiveSetPolish._newton
        solves = count_calls(monkeypatch, lq, "solve_pinned")

        def spy(self, cand):
            before = solves[0]
            out = newton(self, cand)
            steps.append(solves[0] - before)
            return out

        monkeypatch.setattr(ActiveSetPolish, "_newton", spy)
        rep = dr_solve(game, DrConfig(tol=1e-14, max_iter=30, record_costs=False,
                                      run_checks=False))
        assert (rep.termination, rep.iterations) == ("max_iter", 30)
        assert len(steps) == 5  # steps 1, 2, 5, 10 and 20
        assert all(6 <= n < NEWTON_STEPS for n in steps)
        assert np.isnan(rep.kkt_residual)

    def test_a_step_without_progress_far_from_the_floor_does_not_end_the_attempt(self,
                                                                                 monkeypatch):
        # from eta 1e-5 the second and third steps pin the same rows and leave
        # the KKT residual near 2e3, their full steps of the order of the
        # actions; the attempt goes on and certifies after the first DR step
        game = lq_rendezvous_game(LqRendezvousParams(meet_stage=8, u_max=1.5))
        solves = count_calls(monkeypatch, lq, "solve_pinned")
        rep = dr_solve(game, DrConfig(eta=1e-5, record_costs=False, run_checks=False))
        assert rep.iterations == 1 and rep.kkt_residual <= 1e-8
        assert solves[0] <= 10

    def test_an_attempt_on_non_finite_row_hessians_fails_and_the_run_goes_on(self):
        game = lq_rendezvous_game()

        def nan_hessians(k, x, u):
            return np.full(game.constraint_hessians(k, x, u).shape, np.nan)

        def nan_traj_hessians(states, actions):
            return np.full(game.traj_constraint_hessians(states, actions).shape, np.nan)

        # the per-stage Hessians, then the whole-trajectory hook
        for broken in (dataclasses.replace(game, constraint_hessians=nan_hessians,
                                           traj_constraint_hessians=None),
                       dataclasses.replace(game, traj_constraint_hessians=nan_traj_hessians)):
            rep = dr_solve(broken, DrConfig(max_iter=3, record_costs=False, run_checks=False))
            assert (rep.termination, rep.iterations) == ("max_iter", 3)
            assert np.isnan(rep.kkt_residual)

    def test_equality_pairs_collapse_to_their_first_row(self):
        game = lq_rendezvous_game()
        traj = dr_solve(game, DrConfig(record_costs=False, run_checks=False)).trajectory
        rows = model.read_rows(game, traj.states, traj.actions)
        near = rows.real & (rows.p >= -1e-3)
        dropped, partner = _equality_pairs(rows, near)
        # the meeting stage's rows 3..10 are four equalities, each written twice
        assert np.array_equal(np.flatnonzero(dropped[5]), [4, 6, 8, 10])
        assert list(partner[5, [4, 6, 8, 10]]) == [3, 5, 7, 9]
        assert dropped.sum() == 4
        # a row that is not near is never paired
        far = near.copy()
        far[5, 3] = False
        assert not _equality_pairs(rows, far)[0][5, 4]


def count_reads(monkeypatch):
    """Count calls of the row, dynamics and local-LQ readers, at every binding in dyngames."""
    counts = dict.fromkeys(("eval_constraint_rows", "linearize_dynamics", "local_lq"), 0)

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(model.GameDefinition, "eval_constraint_rows",
                        counted("eval_constraint_rows", model.GameDefinition.eval_constraint_rows))
    for name in ("linearize_dynamics", "local_lq"):
        real = getattr(model, name)
        for mod in [m for key, m in sys.modules.items() if key.startswith("dyngames")]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted(name, real))
    return counts


@pytest.mark.parametrize("declared_lq", [True, False], ids=["lq", "undeclared"])
@pytest.mark.parametrize("solver", ("pg",) + SCHEMES)
def test_a_solve_reads_the_rows_and_the_dynamics_once(rng, monkeypatch, solver, declared_lq):
    # the rows and the linear dynamics do not depend on the iterate: every
    # projection, resolvent, polish and the report reuse the game's one kept read
    game, _, _ = cross_scheme_lq_instance(rng)
    if not declared_lq:  # no polish, so the run iterates
        game = dataclasses.replace(game, quadratic_costs=False)
    counts = count_reads(monkeypatch)
    if solver == "pg":
        cfg = ProjGradConfig(step_size=0.05, max_iter=30, tol=1e-14, run_checks=False)
        rep = projected_gradient_solve(game, np.zeros((game.horizon + 1, 2)), cfg)
    else:
        rep = dr_solve(game, DrConfig(scheme=solver, eta=0.4, max_iter=30, run_checks=False))
    assert rep.iterations >= (1 if declared_lq else 10)
    assert counts["eval_constraint_rows"] == game.horizon + 1
    # the Newton resolvent linearizes at its own iterates, one local_lq each
    newton = counts["local_lq"] if solver == "constraints" and not declared_lq else 0
    assert counts["linearize_dynamics"] == 1 + newton
    assert counts["local_lq"] == (1 if declared_lq else newton)
    if solver == "pg" and not declared_lq:
        # the same iteration through the public projection reads nothing more:
        # the rows are the game's, kept since the solve
        u = project_onto_feasible(game, np.zeros((game.horizon + 1, 2)))
        for _ in range(rep.iterations):
            grad = pseudo_gradient(game, rollout(game, game.initial_state, u), feas_tol=np.inf)
            u = project_onto_feasible(game, u - cfg.step_size * grad.own_stage_grads())
        assert counts["eval_constraint_rows"] == game.horizon + 1
        np.testing.assert_array_equal(rep.trajectory.actions, u)


def test_two_solves_of_one_game_read_it_once(rng, monkeypatch):
    # the reads at the origin are the game's, kept: every solve after the
    # first, of any scheme, reads the rows, the dynamics and the LQ data no more
    game, _, _ = cross_scheme_lq_instance(rng)
    counts = count_reads(monkeypatch)
    for _ in range(2):
        projected_gradient_solve(game, np.zeros((game.horizon + 1, 2)),
                                 ProjGradConfig(step_size=0.05, max_iter=30, run_checks=False))
        for scheme in SCHEMES:
            dr_solve(game, DrConfig(scheme=scheme, eta=0.4, max_iter=30, run_checks=False))
    assert counts == {"eval_constraint_rows": game.horizon + 1, "linearize_dynamics": 1,
                      "local_lq": 1}


def test_a_replaced_game_reads_afresh(rng, monkeypatch):
    game, _, _ = cross_scheme_lq_instance(rng)
    rows, data = lq.padded_rows(game), lq.game_data(game)
    counts = count_reads(monkeypatch)
    other = dataclasses.replace(game)
    assert lq.padded_rows(other) is not rows and lq.game_data(other) is not data
    assert counts == {"eval_constraint_rows": game.horizon + 1, "linearize_dynamics": 1,
                      "local_lq": 1}
    np.testing.assert_array_equal(lq.padded_rows(other).G, rows.G)
    np.testing.assert_array_equal(lq.game_data(other).C, data.C)
    assert lq.padded_rows(game) is rows and lq.game_data(game) is data


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name``; returns a one-entry list."""
    count, real = [0], getattr(module, name)

    def call(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, call)
    return count


@pytest.mark.parametrize("seed", [1, 3])
def test_the_residual_at_the_polished_point_takes_one_factor(monkeypatch, seed):
    # the projection starts from the rows near active at u, which at the
    # equilibrium are those of P(u - F(u)) = u: one pinned factor, no steps
    game, _, _ = cross_scheme_lq_instance(np.random.default_rng(seed))
    cfg = ProjGradConfig(step_size=0.05, max_iter=5000, tol=1e-10, run_checks=False)
    rep = projected_gradient_solve(game, np.zeros((game.horizon + 1, 2)), cfg)
    assert rep.converged
    rows = lq.padded_rows(game)
    assert np.max(np.abs(rows.values(rep.trajectory)[rows.real])) <= 1e-12  # the row binds
    factors = count_calls(monkeypatch, lq, "_kkt_factor")
    assert natural_residual(game, rep.trajectory.actions) == rep.natural_residual <= cfg.tol
    assert factors[0] == 1


def test_a_stage_whose_violated_rows_bind_never_reaches_lemke(rng, monkeypatch):
    game, _, con_rows = cross_scheme_lq_instance(rng)
    k, w, s, p, _ = con_rows[0]
    y, z = np.zeros((game.horizon + 1, 2)), np.zeros((game.horizon + 1, 2))
    y[k], z[k] = 5.0 * w, 5.0 * s  # far outside the stage's one row
    assert w @ y[k] + s @ z[k] + p > 1.0
    lemke = count_calls(monkeypatch, denseqp, "_lemke")
    xs, us = splitting.resolvent_reg_static_games(game, y, z, 0.01)
    assert abs(w @ xs[k] + s @ us[k] + p) <= 1e-12  # the violated row binds
    assert lemke[0] == 0
