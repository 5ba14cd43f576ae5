"""CLI front end: config validation, outputs, determinism, exit codes."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from dyngames.cli import (
    EXIT_BAD_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    EXIT_UNKNOWN_GAME,
    ConfigError,
    RunConfig,
    main,
)
from dyngames.projgrad import ProjGradConfig
from dyngames.splitting import DrConfig


def small_fishery_config(outdir, max_iter=80, feedback=True, simulate=True):
    cfg = {
        # at horizon_time 2.0 zero harvest, PG's start, is already the equilibrium
        "game": {"id": "fishery", "params": {"horizon_time": 10.0}},
        "solver": "pg",
        "rho": 0.01,
        "max_iter": max_iter,
        "tol": 1e-9,
        "feedback": feedback,
        "stage_reg": 0.1,
        "output_dir": str(outdir),
    }
    if simulate:
        cfg["simulate"] = {"noise_var": 2.0, "n_runs": 4, "seed": 11}
    return cfg


def write(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_requires_game_and_solver(self):
        with pytest.raises(Exception):
            RunConfig.from_dict({"solver": "pg"})
        with pytest.raises(Exception):
            RunConfig.from_dict({"game": {"id": "fishery"}, "solver": "lbfgs"})

    def test_positive_numerics(self):
        base = {"game": {"id": "fishery"}, "solver": "pg"}
        with pytest.raises(Exception):
            RunConfig.from_dict({**base, "rho": -0.1})
        with pytest.raises(Exception):
            RunConfig.from_dict({**base, "alpha": 1.0, "solver": "dr"})
        with pytest.raises(ConfigError):  # the json module parses NaN
            RunConfig.from_dict(json.loads('{"game": {"id": "fishery"}, "solver": "pg", '
                                           '"rho": NaN}'))

    @pytest.mark.parametrize("text", ["NaN", "-5.0", "Infinity"])
    def test_stage_reg_finite_and_nonnegative(self, text):
        raw = '{"game": {"id": "fishery"}, "solver": "pg", "stage_reg": %s}'
        with pytest.raises(ConfigError, match="stage_reg"):
            RunConfig.from_dict(json.loads(raw % text))
        assert RunConfig.from_dict(json.loads(raw % "0")).stage_reg == 0.0

    def test_whole_counts_and_boolean_feedback_accepted(self):
        cfg = RunConfig.from_dict({"game": {"id": "fishery"}, "solver": "pg",
                                   "max_iter": 3.0, "simulate": {"seed": 7.0},
                                   "feedback": True})
        assert (cfg.solve.max_iter, cfg.simulate["seed"], cfg.feedback) == (3, 7, True)
        assert type(cfg.solve.max_iter) is int

    def test_each_solver_gets_its_own_config(self):
        pg = RunConfig.from_dict({"game": {"id": "fishery"}, "solver": "pg", "rho": 0.02,
                                  "tol": 1e-6})
        assert pg.solve == ProjGradConfig(step_size=0.02, max_iter=1000, tol=1e-6)
        dr = RunConfig.from_dict({"game": {"id": "lq_rendezvous"}, "solver": "dr",
                                  "scheme": "gradient", "eta": 0.1, "alpha": 0.6})
        # the CLI's budget, not DrConfig's default of 10000
        assert dr.solve == DrConfig(scheme="gradient", eta=0.1, alpha=0.6, max_iter=1000)

    def test_scheme_checked(self):
        with pytest.raises(Exception):
            RunConfig.from_dict({"game": {"id": "fishery"}, "solver": "dr",
                                 "scheme": "warp"})


class TestRuns:
    def test_end_to_end_fishery(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--config", write(tmp_path, small_fishery_config(out)),
                     "--quiet"])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        for name in ("trajectory.csv", "convergence.csv", "report.json",
                     "policy.json", "simulation.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] == (code == EXIT_OK)
        assert len(report["player_costs"]) == 2
        assert [sorted(e) for e in report["playerwise_check"]] == 2 * [
            ["flags", "grad_norm", "min_reduced_eig", "player", "verdict"]]
        assert "player_profits" in report
        assert report["simulation"]["n_runs"] == 4
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "k,x1,u1_1,u2_1"
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 101  # header + T+1 stages

    def test_convergence_csv_has_every_step_and_the_sampled_distances(self, tmp_path):
        out = tmp_path / "out"
        # at tol 1e-12 the polish, which certifies the rendezvous near 1e-9,
        # cannot end the run
        cfg = {"game": {"id": "lq_rendezvous"}, "solver": "dr", "max_iter": 80,
               "tol": 1e-12, "output_dir": str(out)}
        main(["--config", write(tmp_path, cfg), "--quiet"])
        n = json.loads((out / "report.json").read_text())["iterations"]
        assert n == 80
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "iteration,distance_to_final,step_norm"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(n + 1))  # one row per iteration
        assert all(float(r[2]) > 0 for r in rows[1:]) and float(rows[0][2]) == 0.0
        filled = [int(r[0]) for r in rows if r[1]]
        assert filled == [0, 1, 2, 5, 10, 20, 50, 79, 80]
        assert float(rows[80][1]) == 0.0 and float(rows[79][1]) > 0

    def test_rendezvous_dr_short(self, tmp_path):
        out = tmp_path / "dr"
        cfg = {
            "game": {"id": "lq_rendezvous"},
            "solver": "dr",
            "scheme": "constraints",
            "eta": 1e-4,
            "alpha": 0.5,
            "max_iter": 40,
            "tol": 1e-10,
            "output_dir": str(out),
        }
        code = main(["--config", write(tmp_path, cfg), "--quiet"])
        assert code == EXIT_NOT_CONVERGED
        assert (out / "trajectory.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] == "max_iter"

    def test_report_is_strict_json(self, tmp_path):
        # one iteration leaves no rate to fit, the rendezvous has no
        # projection for a natural residual, and at tol 1e-12 no polish
        # certifies it for a KKT residual: all are written as null
        cfg = {"game": {"id": "lq_rendezvous"}, "solver": "dr", "max_iter": 1, "tol": 1e-12}
        texts = []
        for name in ("a", "b"):
            cfg["output_dir"] = str(tmp_path / name)
            assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_NOT_CONVERGED
            texts.append((tmp_path / name / "report.json").read_text())

        def refuse(constant):
            raise ValueError(f"report.json holds {constant}")

        report = json.loads(texts[0], parse_constant=refuse)
        assert report["fitted_rate"] is None and report["rate_fit_rmse"] is None
        assert report["natural_residual"] is None and report["kkt_residual"] is None
        assert texts[0] == texts[1]

    def test_a_polished_rendezvous_reports_its_kkt_residual(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"game": {"id": "lq_rendezvous"}, "solver": "dr", "max_iter": 1,
               "output_dir": str(out)}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] == "tolerance" and report["natural_residual"] is None
        assert 0.0 <= report["kkt_residual"] <= 1e-8

    def test_report_carries_the_natural_residual(self, tmp_path):
        out = tmp_path / "out"
        main(["--config", write(tmp_path, small_fishery_config(out, max_iter=5, feedback=False,
                                                                simulate=False)), "--quiet"])
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["natural_residual"] < np.inf  # the fishery has a projection

    def test_fishery_dr_runs_to_its_budget(self, tmp_path):
        # the constraints scheme on the paper's nonlinear game: its resolvent
        # takes Newton steps and must not blow the stock up
        out = tmp_path / "fishery_dr"
        cfg = {
            "game": {"id": "fishery", "params": {"horizon_time": 10.0}},
            "solver": "dr",
            "scheme": "constraints",
            "eta": 1e-4,
            "max_iter": 50,
            "output_dir": str(out),
        }
        code = main(["--config", write(tmp_path, cfg), "--quiet"])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] in ("tolerance", "max_iter")

    def test_progress_lines_unless_quiet(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write(tmp_path, small_fishery_config(out, max_iter=3))
        handlers = list(logging.getLogger("dyngames.cli").handlers)
        for _ in range(2):  # a second call in the process prints each line once
            main(["--config", config])
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == "running projected gradient on fishery (rho=0.01, max_iter=3)"
            assert lines[-1] == f"wrote outputs to {out}"
            assert len(lines) == 5
        main(["--config", config, "--quiet"])
        assert capsys.readouterr().out == ""
        assert logging.getLogger("dyngames.cli").handlers == handlers

    def test_byte_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = small_fishery_config(out1, max_iter=40)
        cfg2 = small_fishery_config(out2, max_iter=40)
        main(["--config", write(tmp_path, cfg1, "c1.json"), "--quiet"])
        main(["--config", write(tmp_path, cfg2, "c2.json"), "--quiet"])
        for name in ("trajectory.csv", "convergence.csv", "report.json",
                     "simulation.csv", "policy.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_override_changes_simulation(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        c1 = write(tmp_path, small_fishery_config(out1, max_iter=30), "c1.json")
        c2 = write(tmp_path, small_fishery_config(out2, max_iter=30), "c2.json")
        main(["--config", c1, "--quiet"])
        main(["--config", c2, "--seed", "99", "--quiet"])
        assert json.loads((out2 / "report.json").read_text())["simulation"]["seed"] == 99
        assert (out1 / "simulation.csv").read_bytes() != (out2 / "simulation.csv").read_bytes()
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_out_flag_overrides(self, tmp_path):
        target = tmp_path / "elsewhere"
        cfg = small_fishery_config(tmp_path / "ignored", max_iter=10,
                                   feedback=False, simulate=False)
        code = main(["--config", write(tmp_path, cfg), "--out", str(target),
                     "--quiet"])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert (target / "report.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestExitCodes:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "never"
        assert main(["--config", str(bad), "--out", str(out), "--quiet"]) \
            == EXIT_BAD_CONFIG
        assert not out.exists()

    def test_invalid_field(self, tmp_path):
        cfg = {"game": {"id": "fishery"}, "solver": "pg", "rho": -1.0,
               "output_dir": str(tmp_path / "never")}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_BAD_CONFIG
        assert not (tmp_path / "never").exists()

    def test_unknown_game(self, tmp_path):
        cfg = {"game": {"id": "checkers"}, "solver": "pg"}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_UNKNOWN_GAME

    def test_bad_game_params(self, tmp_path):
        cfg = {"game": {"id": "fishery", "params": {"bogus_knob": 1}},
               "solver": "pg"}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("game", [
        {"id": "fishery", "params": {"r": float("nan")}},
        {"id": "fishery", "params": {"x0": float("nan")}},
        {"id": "lq_rendezvous", "params": {"u_max": -1.0}},
    ])
    def test_non_finite_or_non_positive_game_params(self, tmp_path, game):
        cfg = {"game": game, "solver": "pg", "max_iter": 2,
               "output_dir": str(tmp_path / "never")}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_BAD_CONFIG
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("field", [
        {"rho": "fast"}, {"max_iter": "many"}, {"tol": None}, {"eta": [1]},
        {"simulate": {"seed": "x"}}, {"simulate": {"n_runs": "x"}},
        {"game": {"id": "fishery", "params": [1, 2]}},
        {"max_iter": 2.7}, {"max_iter": True}, {"rho": True}, {"feedback": "no"},
    ], ids=["rho-text", "max_iter-text", "tol-null", "eta-list", "seed-text",
            "n_runs-text", "params-list", "max_iter-fraction", "max_iter-bool",
            "rho-bool", "feedback-text"])
    def test_wrongly_typed_field(self, tmp_path, capsys, field):
        cfg = {**small_fishery_config(tmp_path / "never", max_iter=2), **field}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("game, solver, field", [
        ("fishery", "pg", "rho"), ("lq_rendezvous", "dr", "eta"),
        ("lq_rendezvous", "dr", "tol")])
    def test_infinite_solver_parameter(self, tmp_path, capsys, game, solver, field):
        # json parses Infinity; an infinite step once "converged" in one iteration
        cfg = {"game": {"id": game}, "solver": solver, "max_iter": 2, field: float("inf"),
               "output_dir": str(tmp_path / "never")}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {field} must be positive and finite")
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("where", ["simulate.seed", "--seed"])
    def test_negative_seed(self, tmp_path, capsys, where):
        cfg = small_fishery_config(tmp_path / "never", max_iter=2)
        argv = []
        if where == "simulate.seed":
            cfg["simulate"]["seed"] = -1
        else:
            argv = ["--seed", "-1"]
        assert main(["--config", write(tmp_path, cfg), "--quiet", *argv]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {where} must be nonnegative")
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("where, key", [
        ([], "etta"), ([], "seed"), ([], "active_tol"), (["game"], "parms"),
        (["simulate"], "noise")],
        ids=["etta", "seed", "active_tol", "game-parms", "simulate-noise"])
    def test_unknown_key_is_refused_before_the_solve(self, tmp_path, capsys, where, key):
        # a misspelled or removed key must not run the solve with the default in its place
        cfg = small_fishery_config(tmp_path / "never", max_iter=2)
        block = cfg[where[0]] if where else cfg
        block[key] = 5
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_BAD_CONFIG
        assert f"unknown {where[0] if where else 'config'} key(s) ['{key}']" \
            in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("solver, key", [
        ("pg", "eta"), ("pg", "scheme"), ("pg", "alpha"), ("dr", "rho")])
    def test_the_other_solvers_key_is_refused_before_the_solve(self, tmp_path, capsys,
                                                               solver, key):
        # a key the chosen solver does not read must not be silently ignored
        game = "fishery" if solver == "pg" else "lq_rendezvous"
        value = "gradient" if key == "scheme" else 0.5
        cfg = {"game": {"id": game}, "solver": solver, "max_iter": 2, key: value,
               "output_dir": str(tmp_path / "never")}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_BAD_CONFIG
        assert f"unknown config key(s) ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_seed_without_a_simulate_block_is_refused_before_the_solve(self, tmp_path,
                                                                       capsys):
        cfg = small_fishery_config(tmp_path / "never", max_iter=2, feedback=False,
                                   simulate=False)
        assert main(["--config", write(tmp_path, cfg), "--seed", "5", "--quiet"]) \
            == EXIT_BAD_CONFIG
        assert "--seed needs a simulate block" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("output_dir", [None, "", 5])
    def test_output_dir_must_be_a_non_empty_string(self, tmp_path, monkeypatch, capsys,
                                                    output_dir):
        # str(None) would name a directory ./None, and "" the working directory
        monkeypatch.chdir(tmp_path)
        cfg = {"game": {"id": "lq_rendezvous"}, "solver": "dr", "max_iter": 1,
               "output_dir": output_dir}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_BAD_CONFIG
        assert "output_dir must be a non-empty string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_an_empty_out_flag_is_refused_before_the_solve(self, tmp_path, monkeypatch,
                                                           capsys):
        # an empty --out must not fall back on the config's output_dir
        monkeypatch.chdir(tmp_path)
        cfg = {"game": {"id": "lq_rendezvous"}, "solver": "dr", "max_iter": 1,
               "output_dir": "o1"}
        assert main(["--config", write(tmp_path, cfg), "--out", "", "--quiet"]) \
            == EXIT_BAD_CONFIG
        assert "--out must be a non-empty path" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_simulate_without_feedback_is_refused_before_the_solve(self, tmp_path, capsys):
        cfg = {"game": {"id": "lq_rendezvous"}, "solver": "dr", "max_iter": 1,
               "simulate": {"n_runs": 2}, "output_dir": str(tmp_path / "never")}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_BAD_CONFIG
        assert "requires feedback" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()
        with pytest.raises(ConfigError, match="requires feedback"):
            RunConfig.from_dict({**cfg, "feedback": False})

    def test_solver_failure_maps_to_exit_code(self, tmp_path):
        # the meeting game's ball constraints are not affine, so the
        # stagewise static-game scheme must refuse
        cfg = {
            "game": {"id": "lq_rendezvous"},
            "solver": "dr",
            "scheme": "dynamics",
            "max_iter": 5,
            "output_dir": str(tmp_path / "x"),
        }
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) \
            == EXIT_SOLVER_FAILURE
        assert not (tmp_path / "x").exists()

    def test_a_failing_feedback_pass_writes_nothing(self, tmp_path, capsys):
        # the solve succeeds and the policy pass then fails: no file of the
        # solve is written either
        cfg = {"game": {"id": "fishery", "params": {"horizon_time": 10.0}}, "solver": "pg",
               "max_iter": 50, "feedback": True, "output_dir": str(tmp_path / "x")}
        assert main(["--config", write(tmp_path, cfg), "--quiet"]) == EXIT_SOLVER_FAILURE
        assert "stage KKT system is singular" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "--quiet"]) \
            == EXIT_BAD_CONFIG
