"""Tests of the benchmark's own code.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import dyngames  # noqa: E402
import dyngames.cli  # noqa: E402
import dyngames.model  # noqa: E402
import dyngames.projgrad  # noqa: E402
import dyngames.splitting  # noqa: E402

import make_reference  # noqa: E402
import polylq  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  c [11, 12]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    own = tracer.self_times(starts, ends, parents)
    np.testing.assert_allclose(own, [10 - 3 - 4, 3 - 1, 1, 4, 1])


def test_recorder_nests_spans_and_totals_by_name():
    rec = tracer.Recorder()
    outer = rec.enter("model.rollout")
    inner = rec.enter("denseqp.solve_qp")
    rec.exit(inner)
    rec.exit(outer)
    rec.enter("denseqp.solve_qp")
    rec.exit(2)
    assert list(rec.parents) == [-1, 0, -1]
    totals = tracer.layer_totals(rec)
    assert totals["model.rollout"][0] == 1
    assert totals["denseqp.solve_qp"][0] == 2
    assert totals["feedback.feedback_rollout"] == (0, 0.0)
    dur = np.asarray(rec.ends) - np.asarray(rec.starts)
    assert totals["model.rollout"][1] == pytest.approx(dur[0] - dur[1], abs=1e-12)


def _bound_callables():
    return {(name, attr): val
            for name, mod in sys.modules.items()
            if name == "dyngames" or name.startswith("dyngames.")
            for attr, val in vars(mod).items() if callable(val)}


def test_tracing_wraps_every_binding_and_unwraps_after():
    before = _bound_callables()
    original_rollout = dyngames.model.rollout
    rec = tracer.Recorder()
    game = dyngames.fishery_game(dyngames.FisheryParams(horizon_time=1.0))
    u = np.zeros((game.horizon + 1, 2))
    with tracer.traced(rec):
        assert dyngames.projgrad.rollout is not original_rollout
        assert dyngames.splitting.rollout is not original_rollout
        assert dyngames.rollout is not original_rollout
        dyngames.projgrad.project_onto_feasible(game, u)
        dyngames.projgrad.projected_gradient_solve(
            game, u, dyngames.ProjGradConfig(max_iter=2, run_checks=False))
    names = rec.span_names()
    assert "projgrad.project_onto_feasible" in names
    assert "model.rollout" in names  # reached through projgrad's own binding
    assert _bound_callables() == before

    # The untraced run calls the originals: nothing more is recorded.
    n_spans = len(rec)
    dyngames.projgrad.projected_gradient_solve(
        game, u, dyngames.ProjGradConfig(max_iter=2, run_checks=False))
    assert len(rec) == n_spans


def test_tracing_unwraps_when_the_traced_code_raises():
    before = _bound_callables()
    with pytest.raises(RuntimeError):
        with tracer.traced(tracer.Recorder()):
            raise RuntimeError("boom")
    assert _bound_callables() == before


@pytest.mark.parametrize("seed", range(20))
def test_poly_generator_reference_is_strictly_feasible(seed):
    inst = polylq.poly_lq_instance(seed)
    game, ref = inst.game, inst.reference
    assert ref.dynamically_feasible(game, tol=1e-12)
    for k in range(game.horizon + 1):
        g = game.eval_constraints(k, ref.states[k], ref.actions[k])
        assert g.shape == (5,)
        assert g[0] <= -polylq.MIN_SLACK + 1e-12
        assert np.all(g[1:] <= -0.5 * polylq.U_MAX + 1e-12)


def test_poly_generator_is_seeded():
    a, b = polylq.poly_lq_instance(3), polylq.poly_lq_instance(3)
    np.testing.assert_array_equal(a.p, b.p)
    np.testing.assert_array_equal(a.game.initial_state, b.game.initial_state)
    assert not np.array_equal(a.p, polylq.poly_lq_instance(4).p)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_poly_schemes_converge_and_agree(seed):
    wl = workloads.WORKLOADS["poly_lq_dr"]
    ctx = wl.setup(seed)
    checks = workloads.Checks()
    reports = wl.run(ctx, workloads.Steps(repeat_short=False))
    values = wl.evaluate(ctx, reports, checks)
    assert checks.failures == []
    assert all(rep.iterations < workloads.POLY_MAX_ITER for rep in reports.values())
    assert values["scheme_spread"] <= 1e-6


def test_committed_reference_matches_a_fresh_solve():
    stored = json.loads(workloads.REFERENCE_PATH.read_text())
    ref = workloads.load_reference()
    assert stored["agreement_inf"] <= make_reference.AGREEMENT
    rep = make_reference.solve_reference(make_reference.ETAS[1])
    assert rep.converged
    assert np.max(np.abs(rep.trajectory.actions - ref)) <= make_reference.AGREEMENT


def test_rendezvous_checks_flag_a_wrong_answer():
    wl = workloads.WORKLOADS["rendezvous_dr"]
    ctx = wl.setup(0)
    game = ctx.game
    good = dyngames.rollout(game, game.initial_state, ctx.reference)
    report = dyngames.SolverReport(
        trajectory=good, iterations=1, termination="tolerance",
        distance_trace=np.zeros(1), step_norms=np.zeros(1),
        fitted_rate=0.0, rate_fit_rmse=0.0)
    checks = workloads.Checks()
    assert wl.evaluate(ctx, report, checks)["eq_error"] == 0.0
    assert checks.failed == 0
    bad = dyngames.rollout(game, game.initial_state, ctx.reference + 0.1)
    report.trajectory = bad
    checks = workloads.Checks()
    assert wl.evaluate(ctx, report, checks)["eq_error"] == pytest.approx(0.1)
    assert checks.failed >= 1
