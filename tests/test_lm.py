import numpy as np
import pytest

from twindisc.lm import CONVERGED_REASONS, levenberg_marquardt


def linear_problem(seed=0, rows=40, cols=4):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    b = rng.standard_normal(rows)
    return a, b


class TestLevenbergMarquardt:
    def test_linear_problem_reaches_least_squares_solution(self):
        a, b = linear_problem()
        theta, cost, iterations, reason, trace = levenberg_marquardt(
            lambda th: a @ th - b, lambda th, r: a, np.zeros(4), max_iter=100, tol=1e-12
        )
        expected, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert reason in CONVERGED_REASONS
        assert 1 <= iterations < 100
        np.testing.assert_allclose(theta, expected, rtol=1e-8, atol=1e-10)
        r = a @ expected - b
        assert cost == pytest.approx(float(r @ r), rel=1e-12)
        assert trace[-1] == cost

    def test_projection_keeps_iterates_in_box_and_ends_on_bound(self):
        a, b = linear_problem(seed=1)
        unconstrained, *_ = np.linalg.lstsq(a, b, rcond=None)
        lo = np.full(4, -np.inf)
        hi = np.full(4, np.inf)
        # cap the first coordinate strictly below its unconstrained optimum
        hi[0] = unconstrained[0] - 0.5
        seen = []

        def residual(th):
            seen.append(th.copy())
            return a @ th - b

        theta, _, _, _, _ = levenberg_marquardt(
            residual,
            lambda th, r: a,
            np.full(4, 5.0),
            max_iter=200,
            tol=1e-12,
            bounds=(lo, hi),
        )
        assert len(seen) > 1
        for th in seen:
            assert np.all(th >= lo) and np.all(th <= hi)
        assert theta[0] == hi[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_active_set_reaches_bound_constrained_optimum(self, seed):
        a, b = linear_problem(seed=seed)
        unconstrained, *_ = np.linalg.lstsq(a, b, rcond=None)
        lo = np.full(4, -np.inf)
        hi = np.full(4, np.inf)
        hi[0] = unconstrained[0] - 0.5
        # one violated bound: the constrained optimum holds theta[0] at it and
        # solves least squares on the other columns
        rest, *_ = np.linalg.lstsq(a[:, 1:], b - a[:, 0] * hi[0], rcond=None)
        expected = np.concatenate([[hi[0]], rest])
        theta, cost, iterations, reason, _ = levenberg_marquardt(
            lambda th: a @ th - b, lambda th, r: a, np.full(4, 5.0),
            max_iter=200, tol=1e-12, bounds=(lo, hi),
        )
        # clipping the full step instead stops after 5-8 iterations, its
        # worst component 0.7-260 times its own size away from this optimum
        assert reason in CONVERGED_REASONS
        assert iterations <= 4
        np.testing.assert_allclose(theta, expected, rtol=1e-8)
        r = a @ expected - b
        assert cost == pytest.approx(float(r @ r), rel=1e-12)

    def test_untouched_box_changes_no_bit(self):
        a, b = linear_problem(seed=2)
        free = levenberg_marquardt(
            lambda th: a @ th - b, lambda th, r: a, np.zeros(4), max_iter=100, tol=1e-12
        )
        boxed = levenberg_marquardt(
            lambda th: a @ th - b, lambda th, r: a, np.zeros(4), max_iter=100, tol=1e-12,
            bounds=(np.full(4, -100.0), np.full(4, 100.0)),
        )
        np.testing.assert_array_equal(boxed[0], free[0])
        assert boxed[1:4] == free[1:4]
        np.testing.assert_array_equal(boxed[4], free[4])

    def test_iteration_cap_is_reported(self):
        a, b = linear_problem()
        _, _, iterations, reason, trace = levenberg_marquardt(
            lambda th: a @ th - b, lambda th, r: a, np.zeros(4), max_iter=1, tol=1e-12
        )
        assert (iterations, reason, len(trace)) == (1, "iteration_cap", 2)

    def test_disallowed_start_returns_none(self):
        calls = []

        def jacobian(th, r):
            calls.append(th)
            return np.eye(2)

        outcome = levenberg_marquardt(
            lambda th: None, jacobian, np.zeros(2), max_iter=10, tol=1e-10
        )
        assert outcome is None
        assert calls == []

    def test_disallowed_region_is_never_accepted(self):
        # the optimum (1, 1) lies in the forbidden half-plane theta[0] > 0.5
        target = np.array([1.0, 1.0])
        accepted = []

        def residual(th):
            if th[0] > 0.5:
                return None
            return th - target

        def jacobian(th, r):
            accepted.append(th.copy())
            return np.eye(2)

        theta, cost, _, reason, trace = levenberg_marquardt(
            residual, jacobian, np.array([-2.0, -3.0]), max_iter=200, tol=1e-12
        )
        assert len(accepted) > 1
        assert all(th[0] <= 0.5 for th in accepted)
        assert theta[0] <= 0.5
        # the steps shrink against the barrier short of the allowed optimum
        # (0.5, 1): that is no convergence
        assert reason == "barrier"
        assert reason not in CONVERGED_REASONS
        assert np.all(np.diff(trace) <= 0.0)
        assert trace[0] == pytest.approx(25.0)
        assert trace[-1] == cost

    def test_zero_residual_start_converges_without_steps(self):
        theta, cost, iterations, reason, trace = levenberg_marquardt(
            lambda th: th - 1.0, lambda th, r: np.eye(3), np.ones(3), max_iter=10, tol=1e-10
        )
        assert cost == 0.0 and reason == "zero_cost"
        assert iterations == 1
        assert trace == [0.0]
        np.testing.assert_array_equal(theta, np.ones(3))
