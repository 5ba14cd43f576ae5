"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
every test checks its criterion at the stated tolerance and runtime budget.
"""

import gc
import time

import numpy as np
import pytest
from scipy.optimize import nnls

from dyngames.benchmarks import (
    FisheryParams,
    cumulative_profits,
    fishery_game,
    lq_rendezvous_game,
    noise_comparison,
    rendezvous_residual,
)
from dyngames.feedback import epsilon_nash_gap, stagewise_newton_backward
from dyngames.gradient import pseudo_gradient
from dyngames.model import quadraticize, rollout
from dyngames.parametric import (
    ParametricGameData,
    cone_to_inequalities,
    enumerate_lcq_parametric,
    solve_lecq_parametric,
)
from dyngames.projgrad import ProjGradConfig, projected_gradient_solve
from dyngames.splitting import DrConfig, dr_solve

from conftest import monotone_quadratic_game, random_lq_game, random_smooth_game
from instances import (
    cross_scheme_lq_instance,
    equality_constrained_lq_instance,
    tightened_two_player_instance,
)
from oracles import (
    coupled_riccati_feedback,
    fd_stacked_gradient,
    noise_comparison_per_run,
    stacked_lq_gne,
    static_game_vi,
)
from test_parametric import random_parametric_game


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fishery_solution():
    """Reference-constant fishery solve shared by the reproduction and noise tests."""
    params = FisheryParams()
    game = fishery_game(params)
    cfg = ProjGradConfig(step_size=0.01, max_iter=1000, tol=1e-14,
                         record_costs=False, run_checks=True)
    t0 = time.perf_counter()
    report = projected_gradient_solve(game, np.zeros((game.horizon + 1, 2)), cfg)
    elapsed = time.perf_counter() - t0
    policy = stagewise_newton_backward(game, report.trajectory, stage_reg=0.1)
    return params, game, report, policy, elapsed


def test_criterion_01_gradient_oracle(rng):
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_ratio = np.inf
    for _ in range(20):
        game = random_smooth_game(rng, T=5, state_dim=2, action_dims=(1, 1))
        actions = 0.3 * rng.standard_normal((6, 2))
        traj = rollout(game, game.initial_state, actions)
        exact = pseudo_gradient(game, traj).stacked
        fd = fd_stacked_gradient(game, actions, step=1e-4)
        rel = np.max(np.abs(exact - fd)) / (np.max(np.abs(fd)) + 1e-12)
        worst_rel = max(worst_rel, rel)
        e1 = np.max(np.abs(fd_stacked_gradient(game, actions, step=2e-2) - exact))
        e2 = np.max(np.abs(fd_stacked_gradient(game, actions, step=1e-2) - exact))
        worst_ratio = min(worst_ratio, e1 / max(e2, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and worst_ratio >= 2.5 and elapsed < 5.0
    verdict("criterion 1 (gradient oracle)", ok,
            f"max rel err {worst_rel:.2e} (<=1e-6), worst halving ratio "
            f"{worst_ratio:.2f} (>=2.5), {elapsed:.1f}s (<5s)")


def test_criterion_02_projected_gradient_rate(rng):
    t0 = time.perf_counter()
    game, mu, L = monotone_quadratic_game(rng)
    rho = mu / L**2
    cfg = ProjGradConfig(step_size=rho, max_iter=4000, tol=1e-13,
                         record_costs=False, run_checks=False)
    rep = projected_gradient_solve(game, 0.5 * np.ones((3, 2)), cfg)
    bound = float(np.sqrt(1.0 + rho**2 * L**2 - 2.0 * rho * mu))
    elapsed = time.perf_counter() - t0
    ok = rep.fitted_rate <= bound + 0.02 and elapsed < 10.0
    verdict("criterion 2 (projected-gradient rate)", ok,
            f"fitted rate {rep.fitted_rate:.4f} <= bound {bound:.4f}+0.02, "
            f"{elapsed:.1f}s (<10s)")


def test_criterion_03_fishery_reproduction(fishery_solution):
    params, game, report, policy, elapsed = fishery_solution
    T = game.horizon
    u = report.trajectory.actions
    # convergence: the last increment is negligible against the distance
    # travelled from the initial iterate (the figure-style contraction);
    # the raw successive-step ratio is reported alongside.
    dist0 = float(report.distance_trace[0])
    final_step_l2 = float(report.distance_trace[-2]) \
        if report.distance_trace.size >= 2 else 0.0
    converged = final_step_l2 <= 1e-4 * dist0
    within_bounds = bool(np.all(u[:, 0] >= -1e-12) and np.all(u[:, 0] <= 0.4 + 1e-12)
                         and np.all(u[:, 1] >= -1e-12) and np.all(u[:, 1] <= 0.3 + 1e-12))
    saturates = bool(np.min(u[int(0.95 * T):, 0]) >= 0.4 - 1e-9)
    plateau = float(np.median(u[T // 3:2 * T // 3, 1]))
    dip = float(np.min(u[int(0.75 * T):int(0.97 * T), 1]))
    dips = dip < plateau - 0.01
    profits = cumulative_profits(game, report.trajectory)
    profit_order = profits[0] > profits[1]
    checks_pass = report.all_players_pass
    ok = (converged and within_bounds and saturates and dips and profit_order
          and checks_pass and elapsed < 60.0)
    raw_ratio = float(report.step_norms[-1] / report.step_norms[0])
    verdict("criterion 3 (fishery reproduction)", ok,
            f"final step {final_step_l2:.2e} <= 1e-4*initial distance {dist0:.2e} "
            f"(raw step ratio {raw_ratio:.2e}); "
            f"bounds={within_bounds}, saturation={saturates}, "
            f"dip {dip:.3f} < plateau {plateau:.3f}-0.01, "
            f"profits {profits[0]:.1f}>{profits[1]:.1f}, "
            f"playerwise pass={checks_pass}, {elapsed:.1f}s (<60s)")


def test_criterion_04_rendezvous_splitting():
    t0 = time.perf_counter()
    game = lq_rendezvous_game()
    cfg = DrConfig(scheme="constraints", eta=1e-4, alpha=0.5, max_iter=10_000,
                   tol=1e-8, record_costs=True, run_checks=False)
    rep = dr_solve(game, cfg)
    elapsed = time.perf_counter() - t0
    traj = rep.trajectory
    norms_ok = True
    for k in range(game.horizon + 1):
        for n in range(3):
            if np.linalg.norm(traj.actions[k, 2 * n:2 * n + 2]) > 2.0 + 1e-6:
                norms_ok = False
    residual = rendezvous_residual(traj)
    # the same fixed point, reached tightly at an eta where DR contracts fast
    ref = dr_solve(game, DrConfig(scheme="constraints", eta=0.1, alpha=0.5, max_iter=10_000,
                                  tol=1e-11, record_costs=False, run_checks=False))
    error = float(np.max(np.abs(traj.actions - ref.trajectory.actions)))
    # the costs end at the reference's, and below those at the start: the
    # polish ends the run after one step, so the start is its one record
    cost_error = float(np.max(np.abs(rep.final_costs - ref.final_costs)
                              / np.abs(ref.final_costs)))
    costs_drop = bool(np.all(rep.final_costs <= rep.cost_trace[0]))
    ok = (rep.termination == "tolerance" and rep.iterations <= 300 and norms_ok
          and residual <= 1e-3 and ref.termination == "tolerance" and error <= 1e-5
          and cost_error <= 1e-6 and costs_drop and rep.kkt_residual <= 1e-8
          and elapsed < 120.0)
    verdict("criterion 4 (rendezvous splitting)", ok,
            f"{rep.termination} after {rep.iterations}<=300 iterations, "
            f"norms<=2+1e-6: {norms_ok}, meet residual {residual:.2e}<=1e-3, "
            f"|u - u_ref| {error:.2e}<=1e-5 (reference {ref.termination}), "
            f"costs vs reference {cost_error:.2e}<=1e-6 (relative), "
            f"costs<=start: {costs_drop}, KKT residual {rep.kkt_residual:.2e}<=1e-8, "
            f"{elapsed:.1f}s (<120s)")


def test_criterion_05_cross_scheme_agreement(rng):
    t0 = time.perf_counter()
    game, lq, rows = cross_scheme_lq_instance(rng, T=4)
    oracle = stacked_lq_gne(game, lq, rows)
    sols, residuals = {}, {}
    for scheme in ("constraints", "dynamics", "gradient"):
        cfg = DrConfig(scheme=scheme, eta=0.4, alpha=0.5, max_iter=30_000,
                       tol=1e-10, record_costs=False, run_checks=False)
        rep = dr_solve(game, cfg)
        sols[scheme] = rep.trajectory.actions
        # every scheme ends on the certified active-set polish
        residuals[scheme] = (rep.natural_residual if rep.converged else np.inf)
    elapsed = time.perf_counter() - t0
    worst_pair = max(
        float(np.max(np.abs(sols[a] - sols[b])))
        for a in sols for b in sols)
    worst_oracle = max(float(np.max(np.abs(s - oracle.actions)))
                       for s in sols.values())
    worst_residual = max(residuals.values())
    ok = (worst_pair <= 1e-12 and worst_oracle <= 1e-10 and worst_residual <= 1e-10
          and elapsed < 30.0)
    verdict("criterion 5 (cross-scheme agreement)", ok,
            f"max pairwise diff {worst_pair:.2e} (<=1e-12), max diff to dense oracle "
            f"{worst_oracle:.2e} (<=1e-10), natural residual {worst_residual:.2e} "
            f"(<=1e-10), {elapsed:.1f}s (<30s)")


def test_criterion_06_stage_game_correctness(rng):
    worst = 0.0
    for _ in range(100):
        data = random_parametric_game(rng, action_dims=(2, 1), state_dim=2,
                                      n_con=1)
        law = solve_lecq_parametric(data)
        F, P, H = data.stationarity_blocks()
        scale = np.abs(F).max() + np.abs(P).max() + np.abs(H).max() + 1.0
        for _ in range(5):
            x = rng.standard_normal(2)
            uu = law.K @ x + law.s
            lam = law.lam_K @ x + law.lam_s
            r1 = F @ uu + P @ x + H + data.S.T @ lam
            r2 = data.W @ x + data.S @ uu + data.p
            worst = max(worst, float(np.max(np.abs(r1))) / scale,
                        float(np.max(np.abs(r2))) / scale)
    W = rng.standard_normal((3, 2))
    p = rng.standard_normal(3)
    nz = 1 + 2 + 3
    pinned = ParametricGameData(gammas=np.stack([np.eye(nz)] * 3),
                                W=W, S=np.eye(3), p=p,
                                action_dims=(1, 1, 1), state_dim=2)
    law = solve_lecq_parametric(pinned)
    pin_err = max(float(np.max(np.abs(law.K + W))), float(np.max(np.abs(law.s + p))))
    ok = worst <= 1e-10 and pin_err <= 1e-12
    verdict("criterion 6 (stage-game correctness)", ok,
            f"worst relative KKT residual {worst:.2e} (<=1e-10), "
            f"pinned-action error {pin_err:.2e}")


def test_criterion_07_backward_pass_fixed_point(rng):
    game, lq, rows, ref, _ = equality_constrained_lq_instance(rng)
    policy = stagewise_newton_backward(game, ref)
    offset_max = max(float(np.max(np.abs(s), initial=0.0)) for s in policy.offsets)
    # deviation induced by the offsets at dx = 0 over the whole rollout
    from dyngames.feedback import feedback_rollout
    out = feedback_rollout(game, policy, ref.states[0])
    dev = float(np.max(np.abs(out.trajectory.actions - ref.actions)))
    game_u, lq_u = random_lq_game(rng, T=5, state_dim=3, action_dims=(2, 1))
    ref_u = rollout(game_u, game_u.initial_state, 0.3 * rng.standard_normal((6, 3)))
    pol_u = stagewise_newton_backward(game_u, ref_u)
    Ks, _ = coupled_riccati_feedback(lq_u, 5, (2, 1), 3)
    gain_err = max(float(np.max(np.abs(pol_u.gains[k] - Ks[k]))) for k in range(6))
    ok = offset_max <= 1e-10 and dev <= 1e-9 and gain_err <= 1e-8
    verdict("criterion 7 (backward-pass fixed point)", ok,
            f"offsets at equilibrium {offset_max:.2e} (<=1e-10), rollout "
            f"deviation {dev:.2e}, unconstrained gain error vs coupled "
            f"Riccati {gain_err:.2e} (<=1e-8)")


def test_criterion_08_quadratic_gap_scaling(rng):
    t0 = time.perf_counter()
    inst = tightened_two_player_instance(rng)
    ref = inst.ref
    policy = stagewise_newton_backward(inst.tight, ref)
    gap_at_ref = max(epsilon_nash_gap(inst.partial, policy, n, 0, ref.states[0])
                     for n in range(2))
    d = rng.standard_normal(2)
    d /= np.linalg.norm(d)
    # pick the perturbation side whose best responses release the pinned row
    side_gaps = {}
    for sign in (1.0, -1.0):
        side_gaps[sign] = max(
            epsilon_nash_gap(inst.partial, policy, n, 0, ref.states[0] + sign * 0.1 * d)
            for n in range(2))
    sign = max(side_gaps, key=side_gaps.get)
    eps_grid = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    gaps = []
    for eps in eps_grid:
        g = max(epsilon_nash_gap(inst.partial, policy, n, 0, ref.states[0] + sign * eps * d)
                for n in range(2))
        gaps.append(g)
    gaps = np.array(gaps)
    elapsed = time.perf_counter() - t0
    nonneg = bool(np.all(gaps >= -1e-10))
    usable = gaps > 1e-16
    slope = float(np.polyfit(np.log(eps_grid[usable]), np.log(gaps[usable]), 1)[0]) \
        if usable.sum() >= 2 else float("nan")
    ok = (abs(gap_at_ref) <= 1e-8 and nonneg and slope >= 1.9 and elapsed < 60.0)
    verdict("criterion 8 (quadratic gap scaling)", ok,
            f"gap at reference {gap_at_ref:.2e}, log-log slope {slope:.3f} "
            f"(>=1.9) over eps 1e-1..1e-3, gaps nonnegative={nonneg}, "
            f"{elapsed:.1f}s (<60s)")


def test_criterion_09_cone_membership(rng):
    disagreements = 0
    for trial in range(1000):
        S = rng.standard_normal((3, 6))
        if trial % 2 == 0:
            x = S.T @ rng.uniform(0.0, 2.0, size=3)
        else:
            x = rng.standard_normal(6)
        L = cone_to_inequalities(S)
        _, resid = nnls(S.T, x)
        if (resid <= 1e-8) != (float(np.max(L @ x)) <= 1e-8):
            disagreements += 1
    ok = disagreements == 0
    verdict("criterion 9 (cone membership)", ok,
            f"{disagreements} disagreements with the nonnegative "
            "least-squares oracle over 1000 samples (tolerance 1e-8)")


def test_criterion_10_piecewise_enumeration(rng):
    data = random_parametric_game(rng, action_dims=(1, 1), state_dim=1, n_con=1)
    policy = enumerate_lcq_parametric(data)
    F, P, H = data.stationarity_blocks()
    S_row, W_row, p_row = data.S[0], data.W[0], data.p[0]
    worst = 0.0
    covered = True
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=1)
        b = -(W_row @ x + p_row)

        def project(u):
            viol = S_row @ u - b
            if viol <= 0:
                return u
            return u - viol * S_row / (S_row @ S_row)

        u_ref = static_game_vi(F, P, H, x, project, tol=1e-13)
        hits = policy.regions_containing(x, tol=1e-8)
        if not hits:
            covered = False
            continue
        for region in hits:
            worst = max(worst, float(np.max(np.abs(region.K @ x + region.s - u_ref))))
    ok = covered and worst <= 1e-8
    verdict("criterion 10 (piecewise enumeration)", ok,
            f"coverage={covered}, worst policy-vs-VI-oracle difference "
            f"{worst:.2e} (<=1e-8) at 100 parameters")


def test_criterion_11_noise_robustness(fishery_solution):
    params, game, report, policy, _ = fishery_solution
    cmp1 = noise_comparison(game, report.trajectory, policy.equilibrium_form(),
                            noise_var=2.0, n_runs=100, seed=7,
                            noise_scale=params.dt)
    cmp2 = noise_comparison(game, report.trajectory, policy.equilibrium_form(),
                            noise_var=2.0, n_runs=100, seed=7,
                            noise_scale=params.dt)
    deterministic = (np.array_equal(cmp1.openloop_deviation, cmp2.openloop_deviation)
                     and np.array_equal(cmp1.feedback_deviation, cmp2.feedback_deviation))
    improves = cmp1.mean_feedback < cmp1.mean_openloop
    ok = deterministic and improves
    verdict("criterion 11 (noise robustness)", ok,
            f"mean squared deviation: feedback {cmp1.mean_feedback:.4f} < "
            f"open-loop {cmp1.mean_openloop:.4f} over 100 seeded runs, "
            f"deterministic={deterministic}")


@pytest.mark.parametrize("seed", [7, 1, 2])
def test_noise_comparison_matches_per_run_oracle(fishery_solution, seed):
    # criterion 11's configuration: the batched rollouts must reproduce the
    # run-by-run, stage-by-stage comparison bit for bit
    params, game, report, policy, _ = fishery_solution
    cmp = noise_comparison(game, report.trajectory, policy.equilibrium_form(),
                           noise_var=2.0, n_runs=100, seed=seed,
                           noise_scale=params.dt)
    oracle = noise_comparison_per_run(game, report.trajectory, policy.equilibrium_form(),
                                      noise_var=2.0, n_runs=100, seed=seed,
                                      noise_scale=params.dt)
    got = (cmp.openloop_deviation, cmp.feedback_deviation,
           cmp.openloop_violations, cmp.feedback_violations)
    for mine, ref in zip(got, oracle):
        np.testing.assert_array_equal(mine, ref)
    assert np.sum(oracle[3]) > 0  # the violation counts are exercised


# Timing rounds of criterion 12; the minimum over 7 rounds of each horizon's
# time, fitted once, failed about one full tier-1 run in seven.
SCALING_ROUNDS = 11


def test_criterion_12_linear_horizon_scaling(rng):
    horizons = [100, 200, 400, 800]
    cases = []
    for T in horizons:
        game, _ = random_lq_game(rng, T=T, state_dim=2, action_dims=(1, 1))
        cases.append((game, rollout(game, game.initial_state,
                                    0.1 * rng.standard_normal((T + 1, 2)))))
    grad_times = np.zeros((SCALING_ROUNDS, len(horizons)))
    newton_times = np.zeros((SCALING_ROUNDS, len(horizons)))
    # Rounds over all horizons, each fitted on its own, so a burst of load on
    # a shared host spoils the slope of one round, which the median over
    # rounds drops, rather than one horizon's time in every fit.
    # The clock is this process's CPU time, which other processes do not advance.
    gc.disable()
    try:
        for rnd in range(SCALING_ROUNDS):
            for i, (game, traj) in enumerate(cases):
                t0 = time.process_time()
                pseudo_gradient(game, traj, feas_tol=np.inf)
                grad_times[rnd, i] = time.process_time() - t0
                t0 = time.process_time()
                stagewise_newton_backward(game, traj)
                newton_times[rnd, i] = time.process_time() - t0
    finally:
        gc.enable()
    logT = np.log(horizons)
    slope_g = float(np.median(np.polyfit(logT, np.log(grad_times.T), 1)[0]))
    slope_n = float(np.median(np.polyfit(logT, np.log(newton_times.T), 1)[0]))
    ok = abs(slope_g - 1.0) <= 0.2 and abs(slope_n - 1.0) <= 0.2
    verdict("criterion 12 (linear horizon scaling)", ok,
            f"log-log slope: gradient {slope_g:.2f}, backward pass "
            f"{slope_n:.2f} (target 1.0 +/- 0.2)")
