"""The natural residual, the active-set polish and the one read of ``certificate``."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from dyngames import lq, model
from dyngames.benchmarks import fishery_game, lq_rendezvous_game
from dyngames.certificate import ActiveSetPolish, active_set_polish, natural_residual
from dyngames.errors import StageSingularityError, UnsupportedConstraintError
from dyngames.gradient import pseudo_gradient
from dyngames.model import rollout
from dyngames.projgrad import ProjGradConfig, project_onto_feasible, projected_gradient_solve
from dyngames.splitting import SCHEMES, DrConfig, dr_solve

from instances import cross_scheme_lq_instance, random_polyhedral_lq_instance
from oracles import stacked_lq_gne

TOL = 1e-8


class TestPinnedKernel:
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), max_rows=st.integers(1, 2))
    def test_true_active_set_matches_the_dense_oracle(self, seed, T, max_rows):
        inst = random_polyhedral_lq_instance(np.random.default_rng(seed), T=T,
                                             max_rows=max_rows)
        assume(inst is not None)
        polish = active_set_polish(inst.game, TOL)
        rows = polish.rows
        traj, mu = lq.solve_pinned(polish.data, rows.W, rows.S, rows.p, inst.active)
        np.testing.assert_allclose(traj.actions, inst.equilibrium.actions, rtol=0, atol=1e-10)
        np.testing.assert_allclose(traj.states, inst.equilibrium.states, rtol=0, atol=1e-10)
        assert np.all(mu[~inst.active] == 0.0) and np.all(mu >= -1e-9)
        polished, residual = polish.attempt(inst.active)
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
        certified = ActiveSetPolish(inst.game, TOL, None).attempt(pinned)
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
            lq.solve_pinned(polish.data, rows.W, rows.S, rows.p, inst.active)
        assert polish.attempt(inst.active) is None

    def test_no_rows_is_the_plain_open_loop_solve(self, rng):
        inst = random_polyhedral_lq_instance(rng, T=3, max_rows=0)
        data = lq.extract_lq_data(inst.game)
        empty = np.zeros((4, 0))
        traj, mu = lq.solve_pinned(data, empty[..., None].repeat(2, 2),
                                   empty[..., None].repeat(2, 2), empty, empty.astype(bool))
        assert mu.shape == (4, 0)
        want = lq.solve_lq_open_loop(data)
        np.testing.assert_array_equal(traj.actions, want.actions)
        np.testing.assert_array_equal(traj.states, want.states)


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
        out, residual = polish(start)
        assert residual <= TOL
        np.testing.assert_allclose(out.actions, inst.equilibrium.actions, rtol=0, atol=1e-10)


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
    # projection, resolvent, polish and the report reuse the solve's one read
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
        # the same iteration with the rows and dynamics read by every projection
        u = project_onto_feasible(game, np.zeros((game.horizon + 1, 2)))
        for _ in range(rep.iterations):
            grad = pseudo_gradient(game, rollout(game, game.initial_state, u), feas_tol=np.inf)
            u = project_onto_feasible(game, u - cfg.step_size * grad.own_stage_grads())
        assert counts["eval_constraint_rows"] == (game.horizon + 1) * (2 + rep.iterations)
        np.testing.assert_array_equal(rep.trajectory.actions, u)
