"""Regenerate the rendezvous reference equilibrium in data/rendezvous_reference.json.

Run from the repository root:

    python3 perfbench/make_reference.py

Solves the paper rendezvous game with the ``constraints`` DR scheme at two
regularizations (eta only changes the speed, not the fixed point) to
tolerance 1e-11, refuses to write unless the two solutions agree to 1e-9,
and stores the eta=1e-2 actions with full round-trip precision.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import dyngames as dg  # noqa: E402

ETAS = (1e-2, 1e-1)
TOL = 1e-11
AGREEMENT = 1e-9
OUTPUT = HERE / "data" / "rendezvous_reference.json"


def solve_reference(eta: float):
    cfg = dg.DrConfig(scheme="constraints", eta=eta, alpha=0.5, max_iter=10_000, tol=TOL,
                      record_costs=False, run_checks=False)
    return dg.dr_solve(dg.lq_rendezvous_game(), cfg)


def main() -> int:
    reports = [solve_reference(eta) for eta in ETAS]
    for eta, rep in zip(ETAS, reports):
        if not rep.converged:
            raise SystemExit(f"eta={eta}: no convergence in {rep.iterations} iterations")
    gap = float(np.max(np.abs(reports[0].trajectory.actions - reports[1].trajectory.actions)))
    if gap > AGREEMENT:
        raise SystemExit(f"reference solves disagree by {gap:.3e} > {AGREEMENT:.0e}")
    payload = {
        "game": "lq_rendezvous (default LqRendezvousParams)",
        "solver": {"scheme": "constraints", "alpha": 0.5, "tol": TOL, "etas": list(ETAS)},
        "iterations": [rep.iterations for rep in reports],
        "agreement_inf": gap,
        "actions": [[float(v) for v in row] for row in reports[0].trajectory.actions],
    }
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {OUTPUT.name}: iterations {payload['iterations']}, agreement {gap:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
