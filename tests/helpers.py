"""Shared test utilities: random stable systems, oracles and reference fixtures.

Run as a script (with ``PYTHONPATH=src``):

- ``python tests/helpers.py OLD.json NEW.json`` prints the ``json_delta`` of
  two JSON files, e.g. a report before and after a change;
- ``python tests/helpers.py --standing-rule DIR`` writes the shipped
  campaign's outputs under ``DIR`` (:func:`write_standing_rule`);
- ``python tests/helpers.py OLD_DIR NEW_DIR`` prints :func:`tree_delta` of two
  such directories and exits 1 when any file differs.
"""

import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from twindisc import cli
from twindisc.lti import DiscreteTransferFunction, SimoModel
from twindisc.sysid import BoxJenkinsModel
from twindisc.twin import KELVIN_OFFSET


def random_stable_poly(rng, degree, max_radius=0.9):
    """Monic delay-operator polynomial with all roots inside max_radius."""
    roots = []
    remaining = degree
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            rad = rng.uniform(0.1, max_radius)
            ang = rng.uniform(0.0, np.pi)
            root = rad * np.exp(1j * ang)
            roots += [root, np.conj(root)]
            remaining -= 2
        else:
            roots.append(rng.uniform(-max_radius, max_radius))
            remaining -= 1
    coeffs = np.real(np.poly(roots))
    coeffs[0] = 1.0
    return coeffs


def random_stable_tf(rng, degree=2, sample_time=1.0, max_radius=0.9):
    den = random_stable_poly(rng, degree, max_radius)
    num = np.concatenate([[0.0], rng.normal(0.0, 0.5, size=degree)])
    return DiscreteTransferFunction(num, den, sample_time)


def random_simo(rng, degree=2, sample_time=1.0, label=""):
    return SimoModel(
        tf_y=random_stable_tf(rng, degree, sample_time),
        tf_u=random_stable_tf(rng, degree, sample_time),
        label=label,
    )


def static_gain_model(gain, sample_time=1.0):
    return DiscreteTransferFunction([float(gain)], [1.0], sample_time)


def bj_from_rows(rows, delay=1):
    """Build a BoxJenkinsModel from raw coefficient rows {b, c, d, f}."""
    return BoxJenkinsModel(b=rows["b"], c=rows["c"], d=rows["d"], f=rows["f"], delay=delay)


def pole_magnitudes(coeffs) -> np.ndarray:
    """Magnitudes of the roots of a delay-operator polynomial, descending.

    Roots are taken in the z plane: clearing the z^-k terms by z^degree
    orders the coefficients by descending power of z, as np.roots wants.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if not np.any(c):
        raise ValueError("zero polynomial has no roots")
    return np.sort(np.abs(np.roots(c)))[::-1]


# The Peltier physics written out on its own, as the oracle that
# twin.simulate_closed_loop's inlined loop is checked against.


def peltier_heat_flows(state, current, p):
    """Module heat flows (q_a, q_b) leaving each face, in watts.

    Temperatures enter the Seebeck terms in kelvin; the conduction terms
    only see the face difference.  Summing the pair cancels conduction
    exactly: q_a + q_b = alpha*I*(T_A + T_B)[K] - I^2 R.
    """
    t_a, t_b = float(state[0]), float(state[1])
    joule_half = 0.5 * current * current * p.r_ohm
    q_a = p.alpha * (t_a + KELVIN_OFFSET) * current - joule_half + p.k_cond * (t_a - t_b)
    q_b = p.alpha * (t_b + KELVIN_OFFSET) * current - joule_half + p.k_cond * (t_b - t_a)
    return q_a, q_b


def peltier_derivatives(state, current, p, cfg):
    """Time derivatives (dT_A/dt, dT_B/dt) in degC/s for one module state."""
    t_a, t_b = float(state[0]), float(state[1])
    q_a, q_b = peltier_heat_flows(state, current, p)
    d_a = (-q_a - cfg.surface_conductance * (t_a - cfg.ambient)) / p.c_heat
    d_b = (-q_b - cfg.heatsink_conductance * (t_b - cfg.ambient)) / p.c_heat
    return d_a, d_b


def euler_reference(p, cfg, reference=None):
    """(u, y) of the closed loop driven by peltier_derivatives.

    Covers sensor noise, the kd term, both anti-windup modes, an explicit
    reference, the sample time and the substep count; not quantization.
    """
    assert cfg.sensor.quantization == 0.0, "the oracle does not quantize"
    pid = cfg.pid
    ref = np.full(cfg.n_samples, cfg.setpoint) if reference is None else np.asarray(reference)
    noise = np.zeros(ref.size)
    if cfg.sensor.noise_std > 0.0:
        noise = np.random.default_rng(cfg.sensor.seed).normal(0.0, cfg.sensor.noise_std, ref.size)
    dt = cfg.sample_time
    dt_sub = dt / cfg.ode_substeps
    drive_gain = -cfg.supply_voltage / p.r_ohm / (pid.out_max - pid.out_min)
    conditional = pid.anti_windup == "conditional"
    state = [cfg.ambient, cfg.ambient]
    integ = 0.0
    prev_err = None
    u_out, y_out = [], []
    for k in range(ref.size):
        y_meas = state[0] + float(noise[k])
        err = float(ref[k]) - y_meas
        d_term = 0.0 if prev_err is None or pid.kd == 0.0 else pid.kd * (err - prev_err) / dt
        prev_err = err
        new_integ = integ + pid.ki * dt * err
        u_raw = pid.kp * err + new_integ + d_term
        if conditional:
            if (u_raw > pid.out_max and err > 0.0) or (u_raw < pid.out_min and err < 0.0):
                new_integ = integ
                u_raw = pid.kp * err + new_integ + d_term
            new_integ = min(max(new_integ, min(pid.out_min, 0.0)), pid.out_max)
        integ = new_integ
        u = min(max(u_raw, pid.out_min), pid.out_max)
        u_out.append(u)
        y_out.append(y_meas)
        current = (u - pid.out_min) * drive_gain
        for _ in range(cfg.ode_substeps):
            d_a, d_b = peltier_derivatives(state, current, p, cfg)
            state = [state[0] + dt_sub * d_a, state[1] + dt_sub * d_b]
    return np.array(u_out), np.array(y_out)


# Bundled reference coefficients for the 50C operating point, exactly as
# printed; row lengths are taken as-is rather than derived from the order
# labels.
REFERENCE_FAMILY_50C = {
    "22221": {
        "y": {
            "b": [0, 0.03, -0.028],
            "c": [1, -0.817, 0.002],
            "d": [1, -1.772, 0.786],
            "f": [1, -1.997, 0.999],
        },
        "u": {
            "b": [0, 0, 0],
            "c": [1, 0.003, 0],
            "d": [1, -0.995, -0.006],
            "f": [1, -1.978, 0.978],
        },
    },
    "33331": {
        "y": {
            "b": [0, -0.001, 0.002, 0],
            "c": [1, 1.235, 0.609, -0.016],
            "d": [1, 0.247, -0.613, -0.634],
            "f": [1, -2.949, 2.899, -0.95],
        },
        "u": {
            "b": [0, 0, 0, 0],
            "c": [1, 0.127, -0.077, -0.001],
            "d": [1, -0.87, -0.204, 0.074],
            "f": [1, -2.219, 1.455, -0.237],
        },
    },
    "44441": {
        "y": {
            "b": [0, -0.011, 0.01, 0, 0],
            "c": [1, -0.048, -0.007, -0.695, -0.001],
            "d": [1, -1.035, 0.041, -0.689, 0.683],
            "f": [1, -1.806, -0.158, 1.735, -0.77],
        },
        "u": {
            "b": [0, -0.006, 0.011, -0.006, 0.002],
            "c": [1, 0.142, -0.372, -0.297, -0.02],
            "d": [1, -0.84, -0.563, 0.121, 0.282],
            "f": [1, -2.264, 1.117, 0.557, -0.41],
        },
    },
    "55551": {
        "y": {
            "b": [0, -0.045, -0.603, 1.245, -0.601, -0.01],
            "c": [1, 2.098, 1.155, -0.075, -0.085, 0.047],
            "d": [1, 1.094, -0.966, -1.31, -0.033, 0.214],
            "f": [1, -1.776, 1.612, -1.067, 0.392, -0.125],
        },
        "u": {
            "b": [0, 0.089, -0.217, 0.144, 0.013, -0.029],
            "c": [1, -0.161, 0.017, 0.607, -0.233, -0.057],
            "d": [1, -1.156, 0.971, -1.34, 0.716, -0.186],
            "f": [1, -2.365, 2.259, -2.21, 2.148, -0.832],
        },
    },
}

# Matched physical parameter sets per setpoint (alpha V/K, K W/K, C J/K);
# the shared measured resistance is 3.3 ohm.
MATCHED_SETS = {
    30.0: (0.0963, 0.30, 34.9),
    50.0: (0.0825, 0.35, 31.93),
    70.0: (0.0211, 0.286, 11.1),
    90.0: (0.0295, 0.38, 13.7),
}


def load_report_schema() -> dict:
    """The ``discriminate`` report's contract, as the package ships it."""
    with resources.files("twindisc.schemas").joinpath(
        "discrimination_report.schema.json"
    ).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_report(report: dict) -> None:
    """Raise jsonschema.ValidationError unless ``report`` follows the schema."""
    jsonschema.validate(report, load_report_schema())


def read_report(path) -> dict:
    """Load the JSON report at ``path``, a ``pathlib.Path``, checked against the schema."""
    report = json.loads(path.read_text(encoding="utf-8"))
    validate_report(report)
    return report


def json_delta(old, new) -> str:
    """How far JSON document ``new`` moved from ``old``, in one line: the floats that moved, by
    path and relative change, largest first (the first five); then every other value and key
    that differs."""
    floats, others = [], []

    def walk(a, b, path):
        if type(a) is type(b) and isinstance(a, (dict, list)):
            a, b = (dict(enumerate(v)) if isinstance(v, list) else v for v in (a, b))
            for key in [*a, *(k for k in b if k not in a)]:
                sub = f"{path}[{key}]" if type(key) is int else f"{path}.{key}" if path else key
                if key in a and key in b:
                    walk(a[key], b[key], sub)
                else:
                    others.append(f"{sub} {'removed' if key in a else 'added'}")
        elif type(a) is type(b) is float and a != b:
            rel = (b - a) / abs(a) if a else math.copysign(math.inf, b)
            floats.append((abs(rel), f"{path} {rel:+.2g}"))
        elif a != b:
            others.append(f"{path} {json.dumps(a)} -> {json.dumps(b)}")

    walk(old, new, "")
    moved = [text for _, text in sorted(floats, key=lambda f: -f[0])]
    more = f", and {len(moved) - 5} more" if len(moved) > 5 else ""
    return (f"{len(moved)} float{'s' * (len(moved) > 1)} moved (relative, largest first): "
            f"{', '.join(moved[:5])}{more}" if moved else "no float moved") + "; " + (
        f"other values that differ: {', '.join(others)}" if others
        else "no string, integer, bool or null differs and no key was added or removed")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STANDING_SEEDS = (0, 400, 800)  # the sensor seeds of ROADMAP's standing rule


def write_standing_rule(out: Path) -> None:
    """The shipped campaign's outputs at each of ``STANDING_SEEDS``, 13 files a seed: under
    ``out/seed_<s>/``, ``data/`` from ``simulate``, ``report_{sim,pred}.{json,csv}`` from
    ``discriminate``, and ``match_<record>.json`` from ``match --initial datasheet``."""
    config = str(CONFIGS / "twin_default.ini")

    def run(*args):
        if cli.main([str(a) for a in args]) != 0:
            raise SystemExit(f"failed: {' '.join(map(str, args))}")

    for seed in STANDING_SEEDS:
        base = out / f"seed_{seed}"
        run("simulate", "--config", config, "--params", CONFIGS / "peltier_matched.ini",
            "--out-dir", base / "data", "--seed", seed)
        records = sorted((base / "data").glob("*.csv"))
        for residuals in ("sim", "pred"):
            run("discriminate", *records, "--out", base / f"report_{residuals}",
                "--residuals", residuals)
        for record in records:
            run("match", record, "--initial", "datasheet", "--config", config,
                "--out", base / f"match_{record.stem}.json")


def tree_delta(old: Path, new: Path) -> list:
    """``(path, verdict)`` for each file under either directory, by relative path: ``same``,
    ``only in <dir>``, the ``json_delta`` of a JSON file, or ``bytes differ``."""
    names = sorted({p.relative_to(d).as_posix() for d in (old, new)
                    for p in d.rglob("*") if p.is_file()})
    verdicts = []
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            verdict = f"only in {old if a.is_file() else new}"
        elif a.read_bytes() == b.read_bytes():
            verdict = "same"
        elif name.endswith(".json"):
            verdict = json_delta(json.loads(a.read_bytes()), json.loads(b.read_bytes()))
        else:
            verdict = "bytes differ"
        verdicts.append((name, verdict))
    return verdicts


if __name__ == "__main__":
    import sys

    args = sys.argv[1:]
    if args[0] == "--standing-rule":
        write_standing_rule(Path(args[1]))
    elif Path(args[0]).is_dir():
        verdicts = tree_delta(Path(args[0]), Path(args[1]))
        print("\n".join(f"{name}: {verdict}" for name, verdict in verdicts))
        sys.exit(any(verdict != "same" for _, verdict in verdicts))
    else:
        with open(args[0], encoding="utf-8") as old, open(args[1], encoding="utf-8") as new:
            print(json_delta(json.load(old), json.load(new)))
