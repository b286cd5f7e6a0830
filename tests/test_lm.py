import warnings

import numpy as np
import pytest

from twindisc import lm
from twindisc.lm import CONVERGED_REASONS, levenberg_marquardt, multistart


def linear_problem(seed=0, rows=40, cols=4):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    b = rng.standard_normal(rows)
    return a, b


def cost_history(jacobian):
    """``jacobian``, recording the cost r @ r of each point it is called at.

    The search calls it at the start and at every accepted iterate it goes on
    from, so the list is the search's cost history up to its last step.
    """
    costs = []

    def wrapped(th, r):
        costs.append(float(r @ r))
        return jacobian(th, r)

    return wrapped, costs


class TestLevenbergMarquardt:
    def test_linear_problem_reaches_least_squares_solution(self):
        a, b = linear_problem()
        jacobian, costs = cost_history(lambda th, r: a)
        theta, cost, iterations, reason = levenberg_marquardt(
            lambda th: a @ th - b, jacobian, np.zeros(4), max_iter=100
        )
        expected, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert reason in CONVERGED_REASONS
        assert 1 <= iterations < 100
        np.testing.assert_allclose(theta, expected, rtol=1e-8, atol=1e-10)
        r = a @ expected - b
        assert cost == pytest.approx(float(r @ r), rel=1e-12)
        assert costs[0] == float(b @ b)
        assert np.all(np.diff(costs) <= 0.0) and costs[-1] >= cost

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

        theta, _, _, _ = levenberg_marquardt(
            residual, lambda th, r: a, np.full(4, 5.0), max_iter=200, bounds=(lo, hi)
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
        theta, cost, iterations, reason = levenberg_marquardt(
            lambda th: a @ th - b, lambda th, r: a, np.full(4, 5.0),
            max_iter=200, bounds=(lo, hi),
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
            lambda th: a @ th - b, lambda th, r: a, np.zeros(4), max_iter=100
        )
        boxed = levenberg_marquardt(
            lambda th: a @ th - b, lambda th, r: a, np.zeros(4), max_iter=100,
            bounds=(np.full(4, -100.0), np.full(4, 100.0)),
        )
        assert_same_outcome(boxed, free)

    def test_iteration_cap_is_reported(self):
        a, b = linear_problem()
        jacobian, costs = cost_history(lambda th, r: a)
        _, cost, iterations, reason = levenberg_marquardt(
            lambda th: a @ th - b, jacobian, np.zeros(4), max_iter=1
        )
        # the one iteration took a step
        assert (iterations, reason, len(costs)) == (1, "iteration_cap", 1)
        assert cost < costs[0]

    def test_disallowed_start_returns_none(self):
        calls = []

        def jacobian(th, r):
            calls.append(th)
            return np.eye(2)

        outcome = levenberg_marquardt(lambda th: None, jacobian, np.zeros(2), max_iter=10)
        assert outcome is None
        assert calls == []

    def test_disallowed_region_is_never_accepted(self):
        # the optimum (1, 1) lies in the forbidden half-plane theta[0] > 0.5
        target = np.array([1.0, 1.0])
        accepted, costs = [], []

        def residual(th):
            if th[0] > 0.5:
                return None
            return th - target

        def jacobian(th, r):
            accepted.append(th.copy())
            costs.append(float(r @ r))
            return np.eye(2)

        theta, cost, _, reason = levenberg_marquardt(
            residual, jacobian, np.array([-2.0, -3.0]), max_iter=200
        )
        assert len(accepted) > 1
        assert all(th[0] <= 0.5 for th in accepted)
        assert theta[0] <= 0.5
        # the steps shrink against the barrier short of the allowed optimum
        # (0.5, 1): that is no convergence
        assert reason == "barrier"
        assert reason not in CONVERGED_REASONS
        assert np.all(np.diff(costs) <= 0.0) and costs[-1] >= cost
        assert costs[0] == pytest.approx(25.0)

    @pytest.mark.parametrize("accelerate", [False, True], ids=["plain", "accelerated"])
    def test_overflowing_normal_equations_warn_nothing_and_accept_no_nan(self, accelerate):
        # a finite cost (about 1e100) whose J^T J (about 1e400) overflows: the
        # damped solve then gives NaN steps, which must not become iterates
        jac = 1e200 * np.array([[1.0, 0.5], [0.5, 1.0]])
        accepted, costs = [], []

        def jacobian(th, r):
            accepted.append(th.copy())
            costs.append(float(r @ r))
            return jac

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, cost, _, reason = levenberg_marquardt(
                lambda th: jac @ th, jacobian, np.full(2, 1e-150),
                max_iter=20, accelerate=accelerate,
            )
        assert accepted and all(np.all(np.isfinite(th)) for th in accepted)
        assert np.all(np.isfinite(theta)) and np.isfinite(cost)
        assert all(np.isfinite(costs))
        assert reason == "no_descent"

    def test_zero_residual_start_converges_without_steps(self):
        jacobian, costs = cost_history(lambda th, r: np.eye(3))
        theta, cost, iterations, reason = levenberg_marquardt(
            lambda th: th - 1.0, jacobian, np.ones(3), max_iter=10
        )
        assert cost == 0.0 and reason == "zero_cost"
        assert iterations == 1
        # no step: the search never asks for a Jacobian
        assert costs == []
        np.testing.assert_array_equal(theta, np.ones(3))


def rosenbrock(th):
    return np.array([10.0 * (th[1] - th[0] ** 2), 1.0 - th[0]])


def rosenbrock_jac(th, r):
    return np.array([[-20.0 * th[0], 10.0], [-1.0, 0.0]])


ROSENBROCK_START = np.array([-1.2, 1.0])


def floored(th):
    # a constant residual keeps the cost off zero, so the search stops on a cost test
    return np.append(rosenbrock(th), 0.5)


def floored_jac(th, r):
    return np.vstack([rosenbrock_jac(th, r), np.zeros(2)])


def assert_same_outcome(a, b):
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1:] == b[1:]


class TestGeodesicAcceleration:
    def test_rosenbrock_valley_in_fewer_iterations(self):
        plain = levenberg_marquardt(rosenbrock, rosenbrock_jac, ROSENBROCK_START, max_iter=200)
        fast = levenberg_marquardt(
            rosenbrock, rosenbrock_jac, ROSENBROCK_START, max_iter=200, accelerate=True
        )
        for theta, _, _, reason in (plain, fast):
            assert reason in CONVERGED_REASONS
            np.testing.assert_allclose(theta, [1.0, 1.0], rtol=0.0, atol=1e-8)
        # measured: 26 plain iterations, 17 accelerated
        assert fast[2] < plain[2]

    @pytest.mark.parametrize("bounds", [None, (np.full(4, -0.2), np.full(4, 0.2))])
    def test_off_is_the_default_bit_for_bit(self, bounds):
        a, b = linear_problem(seed=4)
        args = (lambda th: a @ th - b, lambda th, r: a, np.full(4, 3.0), 100, bounds)
        assert_same_outcome(
            levenberg_marquardt(*args, accelerate=False), levenberg_marquardt(*args)
        )

    def test_disallowed_probe_falls_back_to_the_plain_step(self):
        # a residual that allows exactly the points the plain search evaluates
        # disallows every probe, and must leave exactly the plain search: the
        # stop on a cost test does not turn into "barrier"
        plain_points, probes = set(), []

        def recording(th):
            plain_points.add(th.tobytes())
            return floored(th)

        def plain_points_only(th):
            if th.tobytes() in plain_points:
                return floored(th)
            probes.append(th)
            return None

        plain = levenberg_marquardt(recording, floored_jac, ROSENBROCK_START, max_iter=200)
        fallback = levenberg_marquardt(
            plain_points_only, floored_jac, ROSENBROCK_START, max_iter=200, accelerate=True
        )
        assert plain[3] in ("rel_drop", "no_descent")
        assert len(probes) >= fallback[2]
        assert_same_outcome(fallback, plain)

    @pytest.mark.parametrize("accelerate", [False, True])
    def test_step_below_resolution_is_not_evaluated(self, accelerate, monkeypatch):
        # the search ends raising the damping until the step no longer moves
        # theta: such a candidate's cost is the current one, so it is never run.
        # With no cost drop counting as converged, only that end stops it.
        monkeypatch.setattr(lm, "TOL", 0.0)
        current, repeats = [], []

        def residual(th):
            if current and np.array_equal(th, current[-1]):
                repeats.append(th)
            return floored(th)

        def jacobian(th, r):
            current.append(th.copy())
            return floored_jac(th, r)

        _, _, _, reason = levenberg_marquardt(
            residual, jacobian, ROSENBROCK_START, max_iter=200, accelerate=accelerate
        )
        assert reason == "no_descent"
        assert repeats == []

    def test_candidates_stay_in_the_box_and_held_components_stay_held(self):
        # x1 is capped below the optimum (1, 1): the constrained optimum holds
        # x1 = 0.8 on its bound with x2 = 0.64
        lo, hi = np.array([-2.0, -2.0]), np.array([0.8, 2.0])
        seen, accepted, costs = [], [], []

        def residual(th):
            seen.append(th.copy())
            return rosenbrock(th)

        def jacobian(th, r):
            accepted.append((len(seen), th.copy()))
            costs.append(float(r @ r))
            return rosenbrock_jac(th, r)

        theta, cost, _, reason = levenberg_marquardt(
            residual, jacobian, ROSENBROCK_START, max_iter=200,
            bounds=(lo, hi), accelerate=True,
        )
        assert reason in CONVERGED_REASONS
        np.testing.assert_allclose(theta, [0.8, 0.64], rtol=1e-10)
        # bounds and acceleration together, as matching runs: the cost never rises
        assert np.all(np.diff(costs) <= 0.0) and costs[-1] >= cost
        for th in seen:
            assert np.all(th >= lo) and np.all(th <= hi)
        # from the first iterate on the bound, where the gradient points
        # outward, every probe and candidate keeps x1 there
        first = next(n for n, th in accepted if th[0] == hi[0])
        assert first < len(seen)
        for th in seen[first:]:
            assert th[0] == hi[0]


class TestMultistart:
    @staticmethod
    def _well(th):
        # two mirror-image minima at theta = +-2 with the same cost bits
        return np.array([th[0] ** 2 - 4.0, 1.0])

    @staticmethod
    def _well_jac(th, r):
        return np.array([[2.0 * th[0]], [0.0]])

    def test_tie_goes_to_lowest_index(self):
        for first in (-3.0, 3.0):
            winner, outcomes = multistart(
                self._well, self._well_jac, [[first], [-first]], max_iter=50
            )
            assert outcomes[0][1] == outcomes[1][1]
            assert winner == 0
            assert np.sign(outcomes[winner][0][0]) == np.sign(first)

    def test_rejected_start_never_wins(self):
        def residual(th):
            # the allowed start's cost overflows to inf and still wins
            return None if th[0] > 10.0 else np.array([1e200])

        with np.errstate(over="ignore"):
            winner, outcomes = multistart(
                residual, lambda th, r: np.eye(1), [[20.0], [1.0]], max_iter=0
            )
        assert outcomes[0] is None
        assert outcomes[1][1] == np.inf
        assert winner == 1

    def test_every_start_rejected_returns_none(self):
        assert multistart(
            lambda th: None, lambda th, r: np.eye(2), [np.zeros(2), np.ones(2)],
            max_iter=10,
        ) is None

    def test_returned_residual_is_the_winners(self):
        a, b = linear_problem(seed=3)

        def residual(th):
            return a @ th - b

        bounds = (np.full(4, -0.2), np.full(4, 0.2))
        starts = [np.full(4, 5.0), np.zeros(4), np.full(4, -1.0)]
        winner, outcomes = multistart(
            residual, lambda th, r: a, starts, max_iter=100, bounds=bounds
        )
        theta, cost, _, _ = outcomes[winner]
        r = residual(theta)
        assert cost == float(r @ r)
        assert all(cost <= outcome[1] for outcome in outcomes)
