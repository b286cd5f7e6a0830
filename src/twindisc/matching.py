"""Behavioral matching: fit the twin's physical parameters to recorded data.

Estimates (alpha, K, C) by minimizing the summed squared error between a
recorded dataset and the twin's closed-loop response under the same
reference and a frozen controller configuration.  The electrical
resistance stays pinned at its measured value throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lm import CONVERGED_REASONS, multistart
from .lti import same_sample_time
from .twin import (
    MIN_SAMPLES,
    PeltierParams,
    SensorConfig,
    SimConfig,
    SimulationDivergedError,
    TimeSeriesDataset,
    simulate_closed_loop,
)

MEASURED_RESISTANCE = 3.3  # ohm
FD_STEP = 2.0**-26  # relative forward-difference step: sqrt(machine epsilon)
# the alpha/K/C ridge is a long curved valley: the winning start takes 10-21
# iterations along it on the shipped and benchmark data; the cap bounds a crawl
MAX_ITER = 150
CHANNELS = ("yu", "y")  # the traces a match fits: temperature and control, or temperature

#: Initial-guess presets for the matching search: the module datasheet, an
#: independent bench measurement, and hands-on operating experience.
INITIAL_GUESS_PRESETS = {
    "datasheet": PeltierParams(alpha=0.053, r_ohm=1.8, k_cond=0.5555, c_heat=15.0),
    "measurement": PeltierParams(alpha=0.040, r_ohm=6.0, k_cond=0.3333, c_heat=15.0),
    "experience": PeltierParams(alpha=0.075, r_ohm=3.3, k_cond=0.3808, c_heat=31.4173),
}

#: Box the search keeps (alpha, K, C) in, in V/K, W/K and J/K.
LOWER = np.array([0.005, 0.05, 2.0])
UPPER = np.array([0.2, 1.0, 80.0])
_BOX_TEXT = ", ".join(
    f"{name} in [{lo:g}, {hi:g}] {unit}"
    for name, unit, lo, hi in zip(("alpha", "K", "C"), ("V/K", "W/K", "J/K"), LOWER, UPPER)
)


class MatchFailureError(RuntimeError):
    """Every multistart diverged, or none reached a finite SSE."""


def params_from(theta) -> PeltierParams:
    """The parameters (alpha, K, C) = ``theta`` at the measured resistance."""
    alpha, k_cond, c_heat = (float(v) for v in theta)
    return PeltierParams(alpha=alpha, r_ohm=MEASURED_RESISTANCE, k_cond=k_cond, c_heat=c_heat)


def _vec(p: PeltierParams) -> np.ndarray:
    return np.array([p.alpha, p.k_cond, p.c_heat])


def _in_box(p: PeltierParams) -> bool:
    theta = _vec(p)
    return bool(np.all(LOWER <= theta) and np.all(theta <= UPPER))


@dataclass(frozen=True)
class MatchProblem:
    """One matching task: data, starting point, the traces fitted (``CHANNELS``) and
    a twin config, whose sample time is the dataset's by ``lti.same_sample_time``."""

    dataset: TimeSeriesDataset
    initial: PeltierParams
    channels: str = "yu"
    sim_config: SimConfig | None = None

    def __post_init__(self):
        if not _in_box(self.initial):
            raise ValueError(f"initial guess must lie within the box {_BOX_TEXT}")
        if self.channels not in CHANNELS:
            raise ValueError(f"channels must be one of {CHANNELS}, got {self.channels!r}")
        n = len(self.dataset)
        if n < MIN_SAMPLES:
            raise ValueError(f"dataset has {n} samples, matching needs at least {MIN_SAMPLES}")
        ts = self.dataset.sample_time
        cfg = self.sim_config
        if cfg is None:
            cfg = SimConfig(setpoint=float(self.dataset.r[-1]), duration=n * ts, sample_time=ts)
        elif not same_sample_time(cfg.sample_time, ts):
            raise ValueError(
                f"sim_config sample time {cfg.sample_time} s differs "
                f"from the dataset's {ts} s"
            )
        # the candidate model is deterministic: no sensor corruption during matching
        object.__setattr__(self, "sim_config", replace(cfg, sensor=SensorConfig(), label=""))


@dataclass(frozen=True, eq=False)
class MatchResult:
    params: PeltierParams
    sse: float
    iterations: int
    converged: bool
    at_bound: bool
    start_index: int
    start_costs: tuple


def _residual_vector(problem: MatchProblem, candidate: PeltierParams):
    """The y residuals, then the u ones under ``"yu"``; None when the simulation diverges."""
    try:
        sim = simulate_closed_loop(candidate, problem.sim_config, reference=problem.dataset.r)
    except SimulationDivergedError:
        return None
    res_y = problem.dataset.y - sim.y
    if problem.channels == "y":
        return res_y
    return np.concatenate([res_y, problem.dataset.u - sim.u])


def sse_cost(problem: MatchProblem, candidate: PeltierParams) -> float:
    """Sum of squared errors over the problem's channels; +inf when the twin diverges.

    The infinite sentinel keeps a search loop alive instead of crashing it.
    """
    if not _in_box(candidate):
        raise ValueError(f"candidate must lie within the box {_BOX_TEXT}")
    r = _residual_vector(problem, candidate)
    return math.inf if r is None else float(r @ r)


def _starts(problem: MatchProblem) -> list[np.ndarray]:
    """The initial guess, the three presets and two preset midpoints, deduplicated."""
    sheet, meas, exp = (_vec(p) for p in INITIAL_GUESS_PRESETS.values())
    unique: list[np.ndarray] = []
    for s in (_vec(problem.initial), sheet, meas, exp, 0.5 * (sheet + exp), 0.5 * (meas + exp)):
        if not any(np.array_equal(s, t) for t in unique):
            unique.append(s)
    return unique


def _fd_jacobian(problem: MatchProblem, theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Forward differences of the residual ``r`` at ``theta``, one simulation per column.

    Column i steps theta_i, which the box keeps positive, by h = FD_STEP * theta_i,
    inward where theta_i + h would leave ``UPPER``, and divides by the realized
    width; a stepped run that diverges gives a zero column.
    """
    jac = np.empty((r.size, theta.size))
    for i in range(theta.size):
        h = FD_STEP * theta[i]
        step = theta.copy()
        step[i] = theta[i] + h if theta[i] + h <= UPPER[i] else theta[i] - h
        rs = _residual_vector(problem, params_from(step))
        jac[:, i] = 0.0 if rs is None else (rs - r) / (step[i] - theta[i])
    return jac


def match_parameters(problem: MatchProblem) -> MatchResult:
    """Box-constrained damped Gauss-Newton search for (alpha, K, C).

    Runs the deterministic multistart set (initial guess, the three guess
    presets, and two preset midpoints, deduplicated) within ``LOWER`` and
    ``UPPER`` for up to ``MAX_ITER`` iterations each, keeps the lowest final
    cost, and breaks ties toward the lowest start index.  The search runs
    in phi = log(theta / theta_0), theta_0 the initial guess, so every step
    is relative, the kernel's geodesic acceleration compares step lengths
    without units, and the initial guess is simulated at its exact bits.
    theta is clipped into the box, so no reported value leaves it.
    The resistance never varies and is reported as ``MEASURED_RESISTANCE``.
    """
    ref = _vec(problem.initial)

    def theta_of(phi):
        return np.minimum(np.maximum(ref * np.exp(phi), LOWER), UPPER)

    def residual(phi):
        theta = theta_of(phi)
        # a step that overflowed is NaN, which the clip keeps: not a parameter set
        if not np.all(np.isfinite(theta)):
            return None
        return _residual_vector(problem, params_from(theta))

    def jacobian(phi, r):
        theta = theta_of(phi)
        return _fd_jacobian(problem, theta, r) * theta

    search = multistart(
        residual, jacobian, [np.log(s / ref) for s in _starts(problem)], MAX_ITER,
        bounds=(np.log(LOWER / ref), np.log(UPPER / ref)), accelerate=True,
    )
    if search is None:
        # the first start is the initial guess: its run says how they diverged
        try:
            simulate_closed_loop(params_from(ref), problem.sim_config, reference=problem.dataset.r)
        except SimulationDivergedError as exc:
            raise MatchFailureError(f"every multistart diverged; at the initial guess, {exc}") from None
        raise MatchFailureError("every multistart diverged")
    idx, outcomes = search
    phi, cost, iterations, reason = outcomes[idx]
    theta = theta_of(phi)
    if not math.isfinite(cost):
        # the squared residuals overflow: the data lie far outside the twin's range
        raise MatchFailureError(f"no start reached a finite SSE (the best is {cost})")
    at_bound = bool(np.any(np.isclose(theta, LOWER, rtol=1e-12, atol=0.0))
                    or np.any(np.isclose(theta, UPPER, rtol=1e-12, atol=0.0)))
    return MatchResult(
        params=params_from(theta),
        sse=cost,
        iterations=iterations,
        converged=reason in CONVERGED_REASONS and not at_bound,
        at_bound=at_bound,
        start_index=idx,
        start_costs=tuple(math.inf if o is None else o[1] for o in outcomes),
    )
