"""Behavioral matching: fit the twin's physical parameters to recorded data.

Estimates (alpha, K, C) by minimizing the summed squared error between a
recorded dataset and the twin's closed-loop response under the same
reference and a frozen controller configuration.  The electrical
resistance stays pinned at its measured value throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lm import CONVERGED_REASONS, multistart
from .twin import (
    PeltierParams,
    SensorConfig,
    SimConfig,
    SimulationDivergedError,
    TimeSeriesDataset,
    simulate_closed_loop,
)

MEASURED_RESISTANCE = 3.3  # ohm
FD_STEP = 1e-4  # relative step of the central-difference Jacobian
TOL = 1e-10  # relative cost drop that counts as converged

#: Initial-guess presets for the matching search: the module datasheet, an
#: independent bench measurement, and hands-on operating experience.
INITIAL_GUESS_PRESETS = {
    "datasheet": PeltierParams(alpha=0.053, r_ohm=1.8, k_cond=0.5555, c_heat=15.0),
    "measurement": PeltierParams(alpha=0.040, r_ohm=6.0, k_cond=0.3333, c_heat=15.0),
    "experience": PeltierParams(alpha=0.075, r_ohm=3.3, k_cond=0.3808, c_heat=31.4173),
}

_FREE_NAMES = ("alpha", "k_cond", "c_heat")


class MatchFailureError(RuntimeError):
    """Every multistart diverged."""


@dataclass(frozen=True)
class ParameterBounds:
    """Box constraints for the free parameters (lo, hi) in natural units."""

    alpha: tuple = (0.005, 0.2)
    k_cond: tuple = (0.05, 1.0)
    c_heat: tuple = (2.0, 80.0)

    def __post_init__(self):
        for name in _FREE_NAMES:
            lo, hi = getattr(self, name)
            if not (0.0 < lo < hi):
                raise ValueError(f"{name} bounds must satisfy 0 < lo < hi")

    def contains(self, p: PeltierParams) -> bool:
        return all(
            getattr(self, n)[0] <= getattr(p, n) <= getattr(self, n)[1]
            for n in _FREE_NAMES
        )

    def clip(self, theta: np.ndarray) -> np.ndarray:
        lo, hi = self.arrays()
        return np.minimum(np.maximum(theta, lo), hi)

    def arrays(self):
        lo = np.array([getattr(self, n)[0] for n in _FREE_NAMES])
        hi = np.array([getattr(self, n)[1] for n in _FREE_NAMES])
        return lo, hi


@dataclass(frozen=True)
class MatchProblem:
    """One matching task: data, starting point, bounds, and channel weights."""

    dataset: TimeSeriesDataset
    initial: PeltierParams
    bounds: ParameterBounds = field(default_factory=ParameterBounds)
    weights: tuple = (1.0, 1.0)
    sim_config: SimConfig | None = None

    def __post_init__(self):
        if not self.bounds.contains(self.initial):
            raise ValueError("initial guess must lie within the bounds")
        w_y, w_u = self.weights
        if w_y < 0.0 or w_u < 0.0 or (w_y == 0.0 and w_u == 0.0):
            raise ValueError("weights must be nonnegative and not both zero")
        ts = self.dataset.sample_time
        if self.sim_config is None:
            object.__setattr__(
                self,
                "sim_config",
                SimConfig(
                    setpoint=float(self.dataset.r[-1]),
                    duration=len(self.dataset) * ts,
                    sample_time=ts,
                ),
            )
        elif abs(self.sim_config.sample_time - ts) > 1e-9 * ts:
            raise ValueError(
                f"sim_config sample time {self.sim_config.sample_time} s differs "
                f"from the dataset's {ts} s"
            )

    def params_from(self, theta) -> PeltierParams:
        alpha, k_cond, c_heat = (float(v) for v in theta)
        return PeltierParams(
            alpha=alpha, r_ohm=MEASURED_RESISTANCE, k_cond=k_cond, c_heat=c_heat
        )


@dataclass(frozen=True)
class MatchOptions:
    # the alpha/K/C ridge is a long curved valley: the crawl phase can take
    # ~100 iterations before quadratic convergence kicks in
    max_iter: int = 150
    multistart: bool = True


@dataclass(frozen=True, eq=False)
class MatchResult:
    params: PeltierParams
    sse: float
    iterations: int
    converged: bool
    at_bound: bool
    start_index: int
    start_costs: tuple
    cost_trace: tuple


def _simulate_candidate(problem: MatchProblem, candidate: PeltierParams):
    # the candidate model is deterministic: no sensor corruption during matching
    cfg = replace(problem.sim_config, sensor=SensorConfig(), label="")
    return simulate_closed_loop(candidate, cfg, reference=problem.dataset.r)


def _residual_vector(problem: MatchProblem, candidate: PeltierParams):
    """Weighted stacked residuals, or None when the simulation diverges."""
    try:
        sim = _simulate_candidate(problem, candidate)
    except SimulationDivergedError:
        return None
    w_y, w_u = problem.weights
    res_y = problem.dataset.y - sim.y
    res_u = problem.dataset.u - sim.u
    return np.concatenate([math.sqrt(w_y) * res_y, math.sqrt(w_u) * res_u])


def sse_cost(problem: MatchProblem, candidate: PeltierParams) -> float:
    """Weighted sum of squared trace errors; +inf when the twin diverges.

    The infinite sentinel keeps a search loop alive instead of crashing it.
    """
    if not problem.bounds.contains(candidate):
        raise ValueError("candidate must lie within the problem bounds")
    r = _residual_vector(problem, candidate)
    return math.inf if r is None else float(r @ r)


def _starts(problem: MatchProblem, opts: MatchOptions) -> list[np.ndarray]:
    def vec(p: PeltierParams) -> np.ndarray:
        return np.array([p.alpha, p.k_cond, p.c_heat])

    starts = [vec(problem.initial)]
    if opts.multistart:
        columns = [vec(p) for p in INITIAL_GUESS_PRESETS.values()]
        starts += columns
        starts.append(0.5 * (columns[0] + columns[2]))
        starts.append(0.5 * (columns[1] + columns[2]))
    clipped = [problem.bounds.clip(s) for s in starts]
    unique: list[np.ndarray] = []
    for s in clipped:
        if not any(np.array_equal(s, t) for t in unique):
            unique.append(s)
    return unique


def _fd_jacobian(problem: MatchProblem, theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Central differences of the residual, one-sided where a bound cuts the step."""
    lo, hi = problem.bounds.arrays()
    jac = np.empty((r.size, theta.size))
    for i in range(theta.size):
        h = FD_STEP * max(abs(theta[i]), 1e-6)
        up = theta.copy()
        up[i] = min(theta[i] + h, hi[i])
        dn = theta.copy()
        dn[i] = max(theta[i] - h, lo[i])
        width = up[i] - dn[i]
        if width <= 0.0:
            jac[:, i] = 0.0
            continue
        rp = _residual_vector(problem, problem.params_from(up))
        rm = _residual_vector(problem, problem.params_from(dn))
        if rp is None or rm is None:
            jac[:, i] = 0.0
            continue
        jac[:, i] = (rp - rm) / width
    return jac


def match_parameters(
    problem: MatchProblem, opts: MatchOptions = MatchOptions()
) -> MatchResult:
    """Box-constrained damped Gauss-Newton search for (alpha, K, C).

    Runs the deterministic multistart set (initial guess, the three guess
    presets, and two preset midpoints, deduplicated after clipping), keeps
    the lowest final cost, and breaks ties toward the lowest start index.
    The resistance never varies and is reported as ``MEASURED_RESISTANCE``.
    """
    def residual(theta):
        return _residual_vector(problem, problem.params_from(theta))

    def jacobian(theta, r):
        return _fd_jacobian(problem, theta, r)

    lo, hi = problem.bounds.arrays()
    search = multistart(
        residual, jacobian, _starts(problem, opts), opts.max_iter, TOL, bounds=(lo, hi)
    )
    if search is None:
        raise MatchFailureError("every multistart diverged")
    idx, outcomes = search
    theta, cost, iterations, reason, trace, _ = outcomes[idx]
    params = problem.params_from(theta)
    at_bound = bool(np.any(np.isclose(theta, lo, rtol=1e-12, atol=0.0))
                    or np.any(np.isclose(theta, hi, rtol=1e-12, atol=0.0)))
    return MatchResult(
        params=params,
        sse=cost,
        iterations=iterations,
        converged=reason in CONVERGED_REASONS and not at_bound,
        at_bound=at_bound,
        start_index=idx,
        start_costs=tuple(math.inf if o is None else o[1] for o in outcomes),
        cost_trace=tuple(trace),
    )
