"""dyngames benchmark: time to an equilibrium, end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload fishery_pg --seed 1 --seconds 10 --trace 0

Workloads: fishery_pg, rendezvous_dr, poly_lq_dr (see workloads.py).  With
``--trace 0`` the workload's steps are repeated until ``--seconds`` have
passed and end-to-end metrics are reported; with ``--trace 1`` the steps run
once untraced and once traced, and per-layer metrics are reported.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Every other metric, such as the natural residual or the per-scheme times, is
printed by name above it.  Spans of the traced run are written to
``.perfbench_out/`` under the repository root.

The benchmark runs single-threaded: BLAS thread counts are pinned to 1
before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("fishery_pg", "rendezvous_dr", "poly_lq_dr")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
SETUP_PROBE_SAMPLES = 25


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _setup_probe(workload: str, seed: int) -> None:
    """Print this process's set-up wall time and the speed factor right after it."""
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload].setup(seed)
    elapsed = time.perf_counter() - t0
    from speed import probe_once, speed_factor
    probe_once()
    factor = speed_factor([probe_once() for _ in range(SETUP_PROBE_SAMPLES)])
    print(json.dumps([elapsed, factor]))


def _setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, speed factor) of the set-up (imports, build, reference load) in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def _cli_smoke(seed: int, checks) -> None:
    """Run the CLI twice on a short fishery config; outputs must match byte for byte."""
    from dyngames import cli

    base = OUT / f"cli-{os.getpid()}"
    base.mkdir(parents=True, exist_ok=True)
    try:
        config = {"game": {"id": "fishery", "params": {"horizon_time": 10.0}},
                  "solver": "pg", "rho": 0.01, "max_iter": 50, "tol": 1e-8,
                  "feedback": True, "stage_reg": 0.1,
                  "simulate": {"noise_var": 2.0, "n_runs": 10, "seed": seed}}
        cfg_path = base / "config.json"
        cfg_path.write_text(json.dumps(config))
        dirs = [base / "a", base / "b"]
        for d in dirs:
            code = cli.main(["--config", str(cfg_path), "--out", str(d), "--quiet"])
            checks.check(code in (0, 5), f"CLI smoke run exits 0 or 5 (got {code})")
        names = sorted(p.name for p in dirs[0].iterdir())
        same = names == sorted(p.name for p in dirs[1].iterdir()) and all(
            (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
        checks.check(same and len(names) == 5, "CLI smoke outputs are byte-identical")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(args, wl, ctx, checks):
    from speed import SpeedProbe
    from workloads import Steps

    setup = _setup_seconds(args.workload, args.seed)
    values = []
    with SpeedProbe() as probe:
        steps = Steps(repeat_short=True, probe=probe)
        t_start = time.perf_counter()
        while True:
            out = wl.run(ctx, steps)
            values.append(wl.evaluate(ctx, out, checks))
            if time.perf_counter() - t_start >= args.seconds:
                break
    step_s = {name: steps.median(name) for name in steps.nominal}
    solve_s = sum(step_s[name] for name in wl.solve_steps)
    gmean = math.exp(statistics.fmean(math.log(t) for t in step_s.values()))
    metrics = {
        "setup_s": _metric(statistics.median(wall * f for wall, f in setup), "s"),
        "solve_s": _metric(solve_s, "s"),
        "step_gmean_s": _metric(gmean, "s"),
        "iterations": _metric(statistics.median_low(v["iterations"] for v in values), "count"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    details = {f"{name} (wall)": _metric(statistics.median(t), "s")
               for name, t in steps.wall.items()}
    details |= {name: _metric(t, "s") for name, t in step_s.items()}
    for key in values[-1]:
        if key != "iterations":
            details[key] = _metric(statistics.median(v[key] for v in values), "1")
    details["setup_s (wall)"] = _metric(statistics.median(wall for wall, _ in setup), "s")
    details["repeats"] = _metric(len(values), "count")
    return metrics, details


def _timed_rep(wl, ctx, checks, recorder=None):
    """One untraced or traced pass over the workload: summed step (wall s, nominal s)."""
    from speed import SpeedProbe
    from tracer import traced
    from workloads import Steps

    with SpeedProbe() as probe:
        steps = Steps(repeat_short=False, probe=probe)
        if recorder is None:
            out = wl.run(ctx, steps)
        else:
            with traced(recorder):
                out = wl.run(ctx, steps)
    wl.evaluate(ctx, out, checks)
    return (sum(map(sum, steps.wall.values())), sum(map(sum, steps.nominal.values())))


def _per_layer(args, wl, ctx, checks, smoke_spans):
    from tracer import Recorder, SPAN_NAMES, layer_totals

    untraced_wall, untraced_s = _timed_rep(wl, ctx, checks)
    recorder = Recorder()
    traced_wall, traced_s = _timed_rep(wl, ctx, checks, recorder)

    totals = layer_totals(recorder)
    totals["cli.main"] = layer_totals(smoke_spans)["cli.main"]
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
    qp_calls = totals["denseqp.solve_qp"][0]
    kkt_calls = totals["denseqp.solve_equality_kkt"][0]
    metrics["denseqp.kkt_per_qp"] = _metric(kkt_calls / qp_calls if qp_calls else 0.0,
                                            "ratio")
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    metrics["trace.spans"] = _metric(len(recorder), "count")

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.csv"
    recorder.write_csv(spans_path)
    details = {"untraced (wall)": _metric(untraced_wall, "s"),
               "traced (wall)": _metric(traced_wall, "s"),
               "untraced": _metric(untraced_s, "s"), "traced": _metric(traced_s, "s")}
    return metrics, details, spans_path


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dyngames" / "__init__.py").is_file():
        print(f"error: dyngames sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    import workloads
    from tracer import Recorder, traced

    wl = workloads.WORKLOADS[args.workload]
    ctx = wl.setup(args.seed)
    checks = workloads.Checks()
    if args.trace:
        smoke_spans = Recorder()
        with traced(smoke_spans):
            _cli_smoke(args.seed, checks)
        metrics, details, spans_path = _per_layer(args, wl, ctx, checks, smoke_spans)
    else:
        _cli_smoke(args.seed, checks)
        metrics, details = _end_to_end(args, wl, ctx, checks)
        spans_path = None
    details["failed_ratio"] = _metric(checks.failed / checks.attempted, "1")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in {**details, **metrics}.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if spans_path is not None:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
