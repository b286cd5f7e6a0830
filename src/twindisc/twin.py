"""Lumped thermal twin of a Peltier plant under discrete PID control.

Two thermal states are tracked: the controlled surface temperature ``T_A``
and the heatsink-side temperature ``T_B``.  The module heat flows follow
the classic thermoelectric lumped model

    q_a = alpha * T_A[K] * I - I^2 R / 2 + K (T_A - T_B)
    q_b = alpha * T_B[K] * I - I^2 R / 2 + K (T_B - T_A)

read as the heat each face loses through the module, with Seebeck terms on
absolute temperature.  Each face additionally leaks to ambient through its
own conductance (bare surface for A, heatsink for B).  The drive is wired
so that increasing duty heats the controlled face: counts map linearly to
a negative module current of magnitude duty * V_supply / R.

Everything is deterministic given (params, config, seed); a simulation
owns all of its state, so independent runs can proceed concurrently.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import lti

KELVIN_OFFSET = 273.15
MIN_SAMPLES = 50
MAX_SAMPLES = 1_000_000


class SimulationDivergedError(RuntimeError):
    """The Euler step is unstable for the parameters, or the state became non-finite."""


@dataclass(frozen=True)
class PeltierParams:
    """Physical unknowns of the module (heat capacity absorbs the mass)."""

    alpha: float  # Seebeck coefficient, V/K
    r_ohm: float  # electrical resistance, ohm
    k_cond: float  # thermal conductance between faces, W/K
    c_heat: float  # lumped heat capacity per face, J/K

    def __post_init__(self):
        for name in ("alpha", "r_ohm", "k_cond", "c_heat"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails every bound
                raise ValueError(f"{name} must be strictly positive and finite")


@dataclass(frozen=True)
class PidConfig:
    """Discrete PID acting in actuator counts with anti-windup."""

    kp: float = 2.0
    ki: float = 0.06
    kd: float = 0.0
    out_min: float = 0.0
    out_max: float = 255.0
    anti_windup: str = "conditional"  # or "none"

    def __post_init__(self):
        if not -math.inf < self.out_min < self.out_max < math.inf:
            raise ValueError("output range must be ordered and finite (out_min < out_max)")
        if not (math.isfinite(self.kp) and math.isfinite(self.ki) and math.isfinite(self.kd)):
            raise ValueError("kp, ki and kd must be finite")
        if self.anti_windup not in ("conditional", "none"):
            raise ValueError("anti_windup must be 'conditional' or 'none'")


@dataclass(frozen=True)
class SensorConfig:
    """Measurement corruption applied to the recorded temperature."""

    quantization: float = 0.0  # degC per step, 0 disables
    noise_std: float = 0.0  # degC, 0 disables
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.quantization < math.inf and 0.0 <= self.noise_std < math.inf):
            raise ValueError("quantization and noise_std must be >= 0 and finite")
        if not (lti.is_integer(self.seed) and self.seed >= 0):
            raise ValueError("seed must be >= 0 and an integer")


@dataclass(frozen=True)
class SimConfig:
    """Everything a closed-loop run needs besides the physical parameters."""

    setpoint: float
    ambient: float = 25.0
    duration: float = 600.0
    sample_time: float = 1.0
    ode_substeps: int = 10
    pid: PidConfig = field(default_factory=PidConfig)
    supply_voltage: float = 12.0
    heatsink_conductance: float = 1.5  # W/K, face B to ambient
    surface_conductance: float = 0.05  # W/K, face A to ambient
    sensor: SensorConfig = field(default_factory=SensorConfig)
    label: str = ""

    def __post_init__(self):
        if not self.sample_time > 0.0:  # NaN fails every bound
            raise ValueError("sample_time must be > 0")
        n = self.duration / self.sample_time
        n = round(n) if math.isfinite(n) else n  # n_samples, the count a run simulates
        if not n >= MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples (duration/sample_time)")
        if n > MAX_SAMPLES:
            raise ValueError(f"at most {MAX_SAMPLES} samples (duration/sample_time)")
        if not (lti.is_integer(self.ode_substeps) and self.ode_substeps >= 1):
            raise ValueError("ode_substeps must be >= 1 and an integer")
        if not 0.0 < self.supply_voltage < math.inf:
            raise ValueError("supply_voltage must be > 0 and finite")
        if not (0.0 <= self.heatsink_conductance < math.inf
                and 0.0 <= self.surface_conductance < math.inf):
            raise ValueError("conductances must be >= 0 and finite")
        if not (math.isfinite(self.setpoint) and math.isfinite(self.ambient)):
            raise ValueError("setpoint and ambient must be finite")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.sample_time))


@dataclass(frozen=True, eq=False)
class TimeSeriesDataset:
    """Sampled (t, r, u, y) records; every step of t is the first by ``lti.same_sample_time``."""

    t: np.ndarray
    r: np.ndarray
    u: np.ndarray
    y: np.ndarray
    label: str = ""

    def __init__(self, t, r, u, y, label: str = ""):
        # copies, so that freezing the columns leaves the caller's arrays writeable
        t, r, u, y = (np.array(col, dtype=float) for col in (t, r, u, y))
        if not (t.shape == r.shape == u.shape == y.shape) or t.ndim != 1:
            raise ValueError("t, r, u, y must be equal-length 1-D columns")
        if t.size < 2:
            raise ValueError("dataset needs at least 2 samples")
        if t.size > MAX_SAMPLES:
            raise ValueError(f"dataset has {t.size} samples, at most {MAX_SAMPLES} allowed")
        if not np.isfinite((t, r, u, y)).all():
            bad = next(n for n, a in zip("truy", (t, r, u, y)) if not np.isfinite(a).all())
            raise ValueError(f"column {bad} holds NaN or inf values")
        steps = np.diff(t)
        if np.any(steps <= 0.0) or not np.all(lti.same_sample_time(steps, steps[0])):
            raise ValueError("t must be strictly increasing with uniform spacing")
        for arr in (t, r, u, y):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "label", str(label))

    @property
    def sample_time(self) -> float:
        return float(self.t[1] - self.t[0])

    def __len__(self) -> int:
        return int(self.t.size)


def simulate_closed_loop(
    p: PeltierParams, cfg: SimConfig, reference=None
) -> TimeSeriesDataset:
    """Run the twin under PID control and record (t, r, u, y).

    The reference defaults to a constant setpoint step applied from rest at
    ambient; passing an explicit reference array overrides it (its length
    then sets the horizon).  Integration is fixed-step explicit Euler with
    ``ode_substeps`` substeps per control period; a step the integrator is
    unstable at raises SimulationDivergedError before the run, as a state
    that becomes non-finite or a reading that overflows does during it.  The
    recorded temperature carries the configured sensor noise and
    quantization; the controller acts on the same corrupted measurement.
    """
    if reference is None:
        n = cfg.n_samples
        ref = np.full(n, float(cfg.setpoint))
    else:
        ref = np.asarray(reference, dtype=float)
        n = ref.size
        if not 2 <= n <= MAX_SAMPLES:
            raise ValueError(f"reference has {n} samples, 2 to {MAX_SAMPLES} allowed")

    pid = cfg.pid
    dt = cfg.sample_time
    dt_sub = dt / cfg.ode_substeps
    noise = (
        np.random.default_rng(cfg.sensor.seed)
        .normal(0.0, cfg.sensor.noise_std, size=n)
        .tolist()
        if cfg.sensor.noise_std > 0.0
        else None
    )

    # hoisted locals keep the inner loop cheap; every value in it is a
    # Python float (the reference and noise come in through tolist()),
    # because numpy scalars do the same IEEE-754 arithmetic at several
    # times the cost per operation
    alpha, r_ohm, k_cond, c_heat = p.alpha, p.r_ohm, p.k_cond, p.c_heat
    g_surf, g_sink, ambient = cfg.surface_conductance, cfg.heatsink_conductance, cfg.ambient
    kp, ki, kd = pid.kp, pid.ki, pid.kd
    out_min, out_max = pid.out_min, pid.out_max
    integ_min = min(out_min, 0.0)
    conditional = pid.anti_windup == "conditional"
    drive_gain = -cfg.supply_voltage / r_ohm / (out_max - out_min)
    quant = cfg.sensor.quantization
    kelvin = KELVIN_OFFSET
    substeps = range(cfg.ode_substeps)
    # At a fixed current the state equations are linear in (t_a, t_b); the
    # Seebeck term (current <= 0) moves both decay rates toward zero, so
    # explicit Euler is stable at every current exactly when dt_sub * mu < 2,
    # mu the faster decay rate at zero current.
    a, b = k_cond + g_surf, k_cond + g_sink
    mu = (0.5 * (a + b) + math.hypot(0.5 * (a - b), k_cond)) / c_heat
    if not dt_sub * mu < 2.0:
        bound = dt * mu / 2.0  # overflows when mu is infinite or nearly so
        least = math.floor(bound) + 1 if math.isfinite(bound) else None
        raise SimulationDivergedError(
            f"the Euler step of {dt_sub:g} s is unstable for these parameters: "
            f"ode_substeps = {cfg.ode_substeps}, "
            + ("no substep count below 1e308 is stable" if least is None else
               f"the smallest stable is {least if least <= 10**6 else format(least, '.3g')}")
        )

    t_a = t_b = float(cfg.ambient)
    integ = 0.0
    prev_err = None
    u_trace = np.empty(n)
    y_trace = np.empty(n)

    for k, r_k in enumerate(ref.tolist()):
        y_meas = t_a
        if noise is not None:
            y_meas += noise[k]
        if quant > 0.0:
            try:
                y_meas = round(y_meas / quant) * quant
            except OverflowError:
                raise SimulationDivergedError(f"the reading at step {k} cannot be quantized") from None

        err = r_k - y_meas
        d_term = 0.0 if (prev_err is None or kd == 0.0) else kd * (err - prev_err) / dt
        prev_err = err

        new_integ = integ + ki * dt * err
        u_raw = kp * err + new_integ + d_term
        # Each clamp below is min(max(x, lo), hi) as those builtins evaluate
        # it: a bound replaces x only when strictly beyond it, so a tie (and
        # a signed zero) keeps x; lo < hi, so at most one bound applies.
        if conditional:
            if (u_raw > out_max and err > 0.0) or (u_raw < out_min and err < 0.0):
                # saturated and the error would push further out: hold the integrator
                new_integ = integ
                u_raw = kp * err + new_integ + d_term
            # the stored integrator never exceeds what maps to the saturation edge
            if integ_min > new_integ:
                new_integ = integ_min
            elif out_max < new_integ:
                new_integ = out_max
        integ = new_integ
        u = u_raw
        if out_min > u:
            u = out_min
        elif out_max < u:
            u = out_max

        u_trace[k] = u
        y_trace[k] = y_meas

        current = (u - out_min) * drive_gain
        joule_half = 0.5 * current * current * r_ohm
        seebeck = alpha * current
        for _ in substeps:
            # each face loses its module heat flow q and its leak to ambient;
            # q_b's conduction term k * (t_b - t_a) is exactly -flow, and
            # t += dt * (-q - leak) / c is exactly t -= dt * (q + leak) / c
            flow = k_cond * (t_a - t_b)
            t_a -= dt_sub * (
                seebeck * (t_a + kelvin) - joule_half + flow + g_surf * (t_a - ambient)
            ) / c_heat
            t_b -= dt_sub * (
                seebeck * (t_b + kelvin) - joule_half - flow + g_sink * (t_b - ambient)
            ) / c_heat
        if not (math.isfinite(t_a) and math.isfinite(t_b)):
            raise SimulationDivergedError(f"simulation state became non-finite at step {k}")

    if noise is not None and not np.isfinite(y_trace).all():
        raise SimulationDivergedError("the sensor noise made a reading overflow")
    t = np.arange(n) * dt
    return TimeSeriesDataset(t, ref, u_trace, y_trace, label=cfg.label)


def setpoint_label(setpoint: float) -> str:
    """A run's label, and the ``dataset_<label>.csv`` name ``simulate`` gives it."""
    return f"{setpoint:g}"


def generate_campaign(
    params_by_setpoint: dict, base_cfg: SimConfig, seed: int = 0
) -> Iterator[TimeSeriesDataset]:
    """Yield one dataset per operating point, seeded deterministically per label.

    ``params_by_setpoint`` maps a setpoint in degC to its PeltierParams; the
    base config supplies everything else.  The sensor seed of run ``i`` (in
    ascending setpoint order) is ``seed + i``.  Each run is simulated when
    the caller asks for it, so a caller that keeps no dataset holds one run
    at a time, however many setpoints the campaign has.
    """
    for i, sp in enumerate(sorted(params_by_setpoint)):
        cfg = replace(
            base_cfg,
            setpoint=float(sp),
            label=setpoint_label(sp),
            sensor=replace(base_cfg.sensor, seed=seed + i),
        )
        yield simulate_closed_loop(params_by_setpoint[sp], cfg)


def write_csv(dataset: TimeSeriesDataset, path) -> None:
    """Write a dataset as UTF-8 CSV: header t,r,u,y, LF endings, '.' decimals.

    Values are rendered with shortest round-trip formatting, so a write/read
    cycle reproduces them exactly.
    """
    # each column is rendered once; a row only joins those strings
    cols = [map(repr, col.tolist()) for col in (dataset.t, dataset.r, dataset.u, dataset.y)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(["t,r,u,y", *map(",".join, zip(*cols)), ""]))


def read_csv(path) -> TimeSeriesDataset:
    """Read a dataset CSV produced by :func:`write_csv` (or equivalent), labelled by its stem.

    Every ValueError it raises names ``path``, as an OSError from opening it does.
    """
    label = os.path.splitext(os.path.basename(str(path)))[0]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        if len(lines) < 2:  # a header and at least one row
            raise ValueError("dataset is empty")
        data = np.genfromtxt(lines, delimiter=",", names=True)
        required = ("t", "r", "u", "y")
        names = data.dtype.names or ()
        if any(col not in names for col in required):
            raise ValueError(f"CSV must have columns t,r,u,y (got {names})")
        # one data row parses to 0-d columns
        return TimeSeriesDataset(*(np.atleast_1d(data[col]) for col in required), label=label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
