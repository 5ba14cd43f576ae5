"""The shared fixed-point loop `report.iterate`: stop tests, lists and per-iteration records."""

import numpy as np

from dyngames.report import TERM_DIVERGENCE, TERM_MAX_ITER, TERM_TOLERANCE, iterate


def halving(w, count):
    """Contracting map; the candidate counts the iterations."""
    return w / 2, count + 1


class TestIterate:
    def test_accept_holds_the_run_until_it_agrees(self):
        # steps 2, 1, 0.5, 0.25, ...: only from iteration 3 on is a step <= 0.6
        asked = []

        def accept(count):
            asked.append(count)
            return count >= 5

        run = iterate(halving, np.array([1.0, -4.0]), 0, max_iter=50, tol=0.6,
                      divergence_factor=1e8, accept=accept)
        assert run.termination == TERM_TOLERANCE
        assert run.candidate == 5
        assert asked == [3, 4, 5]
        assert run.step_norms == [2.0, 1.0, 0.5, 0.25, 0.125]
        assert len(run.iterates) == 6
        np.testing.assert_array_equal(run.iterates[-1], np.array([1.0, -4.0]) / 32)

    def test_expanding_map_diverges(self):
        # |w0| = 1, so the bound is 10 * (1 + 1) = 20: w = 3, 9, 27 stops at 27
        run = iterate(lambda w, c: (3 * w, c + 1), np.array([1.0]), 0, max_iter=50,
                      tol=1e-8, divergence_factor=10.0)
        assert run.termination == TERM_DIVERGENCE
        assert run.candidate == 3
        assert run.step_norms == [2.0, 6.0, 18.0]

    def test_no_budget_returns_the_start(self):
        w0, cand0 = np.array([1.0, 2.0]), object()
        run = iterate(halving, w0, cand0, max_iter=0, tol=1.0, divergence_factor=1e8,
                      accept=lambda c: True, record=lambda c: c)
        assert run.termination == TERM_MAX_ITER
        assert run.candidate is cand0
        assert run.iterates == [w0]
        assert run.step_norms == [] and run.records == []

    def test_record_runs_once_per_iteration(self):
        calls = []

        def record(count):
            calls.append(count)
            return 10 * count

        run = iterate(lambda w, c: (w + 1.0, c + 1), np.zeros(3), 0, max_iter=4,
                      tol=1e-8, divergence_factor=1e8, record=record)
        assert run.termination == TERM_MAX_ITER
        assert calls == [1, 2, 3, 4]
        assert run.records == [10, 20, 30, 40]
        assert run.step_norms == [1.0] * 4
