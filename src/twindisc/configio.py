"""Key-value config files for the simulator and the parameter sets.

Two INI-style files drive the batch pipeline: a simulation config (control
gains, timing, sensor model, setpoints) and a Peltier parameter file with
a base section plus optional per-setpoint overrides.  Parse errors surface
with the line numbers the stock parser reports.
"""

from __future__ import annotations

import configparser
import math

from .twin import PeltierParams, PidConfig, SensorConfig, SimConfig, setpoint_label


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


def _read_ini(path) -> configparser.ConfigParser:
    # no interpolation: a '%' in a value is a value that fails to parse
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc  # the parser's message names the file
    return parser


def _get(parser, path, section, key, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: [{section}] {key}: cannot parse {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: [{section}] {key}: {raw!r} is not a finite number")
    return value


# INI key -> dataclass field, per section; an absent key keeps the field's default
_SIM_KEYS = {
    "ambient_c": "ambient",
    "duration_s": "duration",
    "sample_time_s": "sample_time",
    "ode_substeps": "ode_substeps",
    "supply_voltage_v": "supply_voltage",
    "heatsink_w_per_k": "heatsink_conductance",
    "surface_w_per_k": "surface_conductance",
}
_PID_KEYS = {key: key for key in ("kp", "ki", "kd", "out_min", "out_max", "anti_windup")}
_SENSOR_KEYS = {"quantization_c": "quantization", "noise_std_c": "noise_std"}


def _check_layout(parser, path, known_keys) -> None:
    """Reject sections and keys the loader does not read: a misspelled one keeps its defaults.

    ``known_keys(section)`` gives the keys a section may hold, or None for a
    section the loader does not read.
    """
    # [DEFAULT] first: its keys show up in every other section too
    sections = ([parser.default_section] if parser.defaults() else []) + parser.sections()
    for section in sections:
        known = known_keys(section)
        if known is None:
            raise ConfigError(f"{path}: [{section}]: unknown section")
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"{path}: [{section}] {key}: unknown key")


def _fields(parser, path, section, cls, keys) -> dict:
    """Field values of ``cls`` read from ``section``, each cast like its default."""
    return {
        name: _get(parser, path, section, key, type(getattr(cls, name)), getattr(cls, name))
        for key, name in keys.items()
    }


def load_sim_config(path) -> tuple[SimConfig, tuple[float, ...]]:
    """Load a simulation config; returns (base config, configured setpoints).

    The returned config carries the first setpoint; the campaign runner
    swaps in the others.
    """
    parser = _read_ini(path)
    known = {"simulation": {"setpoints", *_SIM_KEYS}, "pid": _PID_KEYS, "sensor": _SENSOR_KEYS}
    _check_layout(parser, path, known.get)
    try:
        raw = parser.get("simulation", "setpoints", fallback="30, 50, 70, 90")
        setpoints = tuple(float(tok) for tok in raw.replace(",", " ").split())
        if not setpoints:
            raise ConfigError(f"{path}: [simulation] setpoints must be non-empty")
        seen = set()
        labels = {}  # each run's label names its CSV, so two setpoints may not share one
        for sp in setpoints:
            if not math.isfinite(sp):
                raise ConfigError(f"{path}: [simulation] setpoint {sp:g} is not a finite number")
            if sp in seen:
                raise ConfigError(f"{path}: [simulation] setpoint {sp:g} is listed more than once")
            seen.add(sp)
            label = setpoint_label(sp)
            if label in labels:
                raise ConfigError(
                    f"{path}: [simulation] setpoints {labels[label]!r} and {sp!r} "
                    f"share the label {label!r}"
                )
            labels[label] = sp
        cfg = SimConfig(
            setpoint=setpoints[0],
            pid=PidConfig(**_fields(parser, path, "pid", PidConfig, _PID_KEYS)),
            sensor=SensorConfig(**_fields(parser, path, "sensor", SensorConfig, _SENSOR_KEYS)),
            **_fields(parser, path, "simulation", SimConfig, _SIM_KEYS),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg, setpoints


#: Parameter-file key -> PeltierParams field, also the keys of the ``match`` JSON
PARAM_KEYS = {
    "alpha_v_per_k": "alpha",
    "r_ohm": "r_ohm",
    "k_w_per_k": "k_cond",
    "c_j_per_k": "c_heat",
}


def _section_values(parser, path, section) -> dict:
    """The PeltierParams fields that ``section`` sets, by field name."""
    return {name: _get(parser, path, section, key, float, None)
            for key, name in PARAM_KEYS.items() if parser.has_option(section, key)}


def _params_set(path, section, values: dict) -> PeltierParams:
    """The parameter set of ``section``, from its fields ``values``, checked complete and valid."""
    missing = [k for k, n in PARAM_KEYS.items() if n not in values]
    if missing:
        raise ConfigError(f"{path}: [{section}] missing keys {missing}")
    try:
        return PeltierParams(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: [{section}]: {exc}") from exc


def load_params_file(path) -> dict[float, PeltierParams]:
    """Load Peltier parameters keyed by setpoint.

    The ``[peltier]`` section sets the shared values; ``[peltier.<sp>]``
    sections override per setpoint.  The returned map contains one entry
    per override section, plus ``None`` mapping to the base set when it is
    complete on its own.
    """
    parser = _read_ini(path)
    _check_layout(
        parser,
        path,
        lambda section: PARAM_KEYS if section.split(".", 1)[0] == "peltier" else None,
    )
    base = _section_values(parser, path, "peltier")
    result: dict = {}
    for section in parser.sections():
        if not section.startswith("peltier."):
            continue
        try:
            sp = float(section.split(".", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad setpoint section [{section}]") from exc
        if not math.isfinite(sp):
            raise ConfigError(f"{path}: [{section}] setpoint is not a finite number")
        if sp in result:
            raise ConfigError(f"{path}: [{section}] repeats setpoint {sp:g}")
        result[sp] = _params_set(path, section, {**base, **_section_values(parser, path, section)})
    # the base is an entry when complete, and the one error when no override exists
    if not result or len(base) == len(PARAM_KEYS):
        result[None] = _params_set(path, "peltier", base)
    return result


def params_for_setpoint(params_map: dict, setpoint: float, path="params") -> PeltierParams:
    if setpoint in params_map:
        return params_map[setpoint]
    if None in params_map:
        return params_map[None]
    raise ConfigError(
        f"{path}: no parameter set for setpoint {setpoint:g} and no base [peltier] section"
    )
