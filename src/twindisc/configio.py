"""Key-value config files for the simulator and the parameter sets.

Two INI-style files drive the batch pipeline: a simulation config (control
gains, timing, sensor model, setpoints) and a Peltier parameter file with
a base section plus optional per-setpoint overrides.  Parse errors surface
with the line numbers the stock parser reports.
"""

from __future__ import annotations

import configparser

from .twin import PeltierParams, PidConfig, SensorConfig, SimConfig


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parser


def _get(parser, section, key, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def load_sim_config(path) -> tuple[SimConfig, tuple[float, ...]]:
    """Load a simulation config; returns (base config, configured setpoints).

    The returned config carries the first setpoint; the campaign runner
    swaps in the others.
    """
    parser = _read_ini(path)
    try:
        raw = parser.get("simulation", "setpoints", fallback="30, 50, 70, 90")
        setpoints = tuple(float(tok) for tok in raw.replace(",", " ").split())
        if not setpoints:
            raise ConfigError(f"{path}: [simulation] setpoints must be non-empty")
        pid = PidConfig(
            kp=_get(parser, "pid", "kp", float, PidConfig.kp),
            ki=_get(parser, "pid", "ki", float, PidConfig.ki),
            kd=_get(parser, "pid", "kd", float, PidConfig.kd),
            out_min=_get(parser, "pid", "out_min", float, PidConfig.out_min),
            out_max=_get(parser, "pid", "out_max", float, PidConfig.out_max),
            anti_windup=_get(parser, "pid", "anti_windup", str, PidConfig.anti_windup),
        )
        sensor = SensorConfig(
            quantization=_get(parser, "sensor", "quantization_c", float, 0.0),
            noise_std=_get(parser, "sensor", "noise_std_c", float, 0.0),
        )
        cfg = SimConfig(
            setpoint=setpoints[0],
            ambient=_get(parser, "simulation", "ambient_c", float, 25.0),
            duration=_get(parser, "simulation", "duration_s", float, 600.0),
            sample_time=_get(parser, "simulation", "sample_time_s", float, 1.0),
            ode_substeps=_get(parser, "simulation", "ode_substeps", int, 10),
            pid=pid,
            supply_voltage=_get(parser, "simulation", "supply_voltage_v", float, 12.0),
            heatsink_conductance=_get(parser, "simulation", "heatsink_w_per_k", float, 1.5),
            surface_conductance=_get(parser, "simulation", "surface_w_per_k", float, 0.05),
            sensor=sensor,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg, setpoints


_PARAM_KEYS = {
    "alpha_v_per_k": "alpha",
    "r_ohm": "r_ohm",
    "k_w_per_k": "k_cond",
    "c_j_per_k": "c_heat",
}


def _params_from_section(parser, section, base: dict) -> dict:
    values = dict(base)
    for key, name in _PARAM_KEYS.items():
        if parser.has_option(section, key):
            values[name] = _get(parser, section, key, float, None)
    return values


def load_params_file(path) -> dict[float, PeltierParams]:
    """Load Peltier parameters keyed by setpoint.

    The ``[peltier]`` section sets the shared values; ``[peltier.<sp>]``
    sections override per setpoint.  The returned map contains one entry
    per override section, plus ``None`` mapping to the base set when it is
    complete on its own.
    """
    parser = _read_ini(path)
    base: dict = {}
    if parser.has_section("peltier"):
        base = _params_from_section(parser, "peltier", {})
    result: dict = {}
    for section in parser.sections():
        if not section.startswith("peltier."):
            continue
        try:
            sp = float(section.split(".", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad setpoint section [{section}]") from exc
        values = _params_from_section(parser, section, base)
        missing = [k for k, n in _PARAM_KEYS.items() if n not in values]
        if missing:
            raise ConfigError(f"{path}: [{section}] missing keys {missing}")
        try:
            result[sp] = PeltierParams(**values)
        except ValueError as exc:
            raise ConfigError(f"{path}: [{section}]: {exc}") from exc
    base_complete = all(n in base for n in _PARAM_KEYS.values())
    if base_complete:
        try:
            result[None] = PeltierParams(**base)
        except ValueError as exc:
            raise ConfigError(f"{path}: [peltier]: {exc}") from exc
    if not result:
        missing = [k for k, n in _PARAM_KEYS.items() if n not in base]
        raise ConfigError(f"{path}: [peltier] missing keys {missing}")
    return result


def params_for_setpoint(params_map: dict, setpoint: float, path="params") -> PeltierParams:
    if setpoint in params_map:
        return params_map[setpoint]
    if None in params_map:
        return params_map[None]
    raise ConfigError(
        f"{path}: no parameter set for setpoint {setpoint:g} and no base [peltier] section"
    )
