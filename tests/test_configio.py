import re

import pytest

from twindisc.configio import (
    ConfigError,
    load_params_file,
    load_sim_config,
    params_for_setpoint,
)
from twindisc.twin import PidConfig, SensorConfig, SimConfig

GOOD_SIM = """\
[simulation]
setpoints = 30, 50
ambient_c = 22
duration_s = 300
sample_time_s = 0.5
ode_substeps = 4
supply_voltage_v = 10
heatsink_w_per_k = 2.0
surface_w_per_k = 0.1

[pid]
kp = 3.5
ki = 0.1
kd = 0.2
out_min = 0
out_max = 200
anti_windup = conditional

[sensor]
quantization_c = 0.25
noise_std_c = 0.1
"""

GOOD_PARAMS = """\
[peltier]
r_ohm = 3.3

[peltier.30]
alpha_v_per_k = 0.0963
k_w_per_k = 0.30
c_j_per_k = 34.9

[peltier.50]
alpha_v_per_k = 0.0825
k_w_per_k = 0.35
c_j_per_k = 31.93
"""


class TestSimConfigFile:
    def test_full_parse(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(GOOD_SIM)
        cfg, setpoints = load_sim_config(path)
        assert setpoints == (30.0, 50.0)
        assert cfg.ambient == 22.0
        assert cfg.sample_time == 0.5
        assert cfg.pid.kp == 3.5
        assert cfg.pid.out_max == 200.0
        assert cfg.sensor.quantization == 0.25
        assert cfg == SimConfig(
            setpoint=30.0,
            ambient=22.0,
            duration=300.0,
            sample_time=0.5,
            ode_substeps=4,
            pid=PidConfig(kp=3.5, ki=0.1, kd=0.2, out_min=0.0, out_max=200.0),
            supply_voltage=10.0,
            heatsink_conductance=2.0,
            surface_conductance=0.1,
            sensor=SensorConfig(quantization=0.25, noise_std=0.1),
        )

    def test_defaults_fill_missing_sections(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text("[simulation]\nsetpoints = 40\n")
        cfg, setpoints = load_sim_config(path)
        assert setpoints == (40.0,)
        assert cfg.duration == 600.0
        assert cfg.pid.kp == 2.0

    def test_setpoints_alone_load_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text("[simulation]\nsetpoints = 40\n")
        cfg, _ = load_sim_config(path)
        assert cfg == SimConfig(setpoint=40.0)

    @pytest.mark.parametrize(
        "setpoints, message",
        [
            ("0, -0", "setpoint -0 is listed more than once"),
            ("30.000001, 50, 30.000002",
             "setpoints 30.000001 and 30.000002 share the label '30'"),
            ("1e-7, 1.0000004e-7", "setpoints 1e-07 and 1.0000004e-07 share the label '1e-07'"),
        ],
        ids=["signed_zero", "rounded_apart", "exponent"],
    )
    def test_setpoints_need_distinct_labels(self, tmp_path, setpoints, message):
        path = tmp_path / "sim.ini"
        path.write_text(f"[simulation]\nsetpoints = {setpoints}\n")
        with pytest.raises(ConfigError, match=rf"sim.ini: \[simulation\] {re.escape(message)}"):
            load_sim_config(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[simulation]\nsetpoints = 30\nthis line has no key\n")
        with pytest.raises(ConfigError, match=r"line\s+3"):
            load_sim_config(path)

    def test_bad_value_names_section_and_key(self, tmp_path):
        path = tmp_path / "badval.ini"
        path.write_text("[simulation]\nsetpoints = 30\nduration_s = short\n")
        with pytest.raises(ConfigError, match=r"\[simulation\] duration_s"):
            load_sim_config(path)

    def test_semantic_validation_surfaces_as_config_error(self, tmp_path):
        path = tmp_path / "zero.ini"
        path.write_text("[simulation]\nsetpoints = 30\nduration_s = 0\n")
        with pytest.raises(ConfigError, match="50 samples"):
            load_sim_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_sim_config(tmp_path / "absent.ini")

    def test_unknown_key_names_section_and_key(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(GOOD_SIM.replace("[pid]\n", "[pid]\nkp_gain = 5\n"))
        with pytest.raises(ConfigError, match=r"\[pid\] kp_gain: unknown key"):
            load_sim_config(path)

    @pytest.mark.parametrize(
        "old, new", [("[simulation]", "[simulaton]"), ("[pid]", "[DEFAULT]")]
    )
    def test_unknown_section_rejected(self, tmp_path, old, new):
        path = tmp_path / "sim.ini"
        path.write_text(GOOD_SIM.replace(old, new))
        with pytest.raises(ConfigError, match=rf"sim.ini: \{new}: unknown section"):
            load_sim_config(path)

    def test_percent_sign_is_a_value_not_an_interpolation(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(GOOD_SIM.replace("kp = 3.5", "kp = 5%"))
        with pytest.raises(ConfigError, match=r"\[pid\] kp: cannot parse '5%'"):
            load_sim_config(path)


class TestParamsFile:
    def test_per_setpoint_sections_with_shared_base(self, tmp_path):
        path = tmp_path / "params.ini"
        path.write_text(GOOD_PARAMS)
        params = load_params_file(path)
        assert set(params) == {30.0, 50.0}
        assert params[30.0].alpha == 0.0963
        assert params[30.0].r_ohm == 3.3
        assert params[50.0].c_heat == 31.93

    def test_base_only_file(self, tmp_path):
        path = tmp_path / "flat.ini"
        path.write_text(
            "[peltier]\nalpha_v_per_k = 0.05\nr_ohm = 3.3\n"
            "k_w_per_k = 0.3\nc_j_per_k = 12\n"
        )
        params = load_params_file(path)
        assert None in params
        assert params_for_setpoint(params, 70.0).alpha == 0.05

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "missing.ini"
        path.write_text("[peltier]\nr_ohm = 3.3\n[peltier.30]\nalpha_v_per_k = 0.1\n")
        with pytest.raises(ConfigError, match="missing keys"):
            load_params_file(path)

    def test_unknown_setpoint_without_base(self, tmp_path):
        path = tmp_path / "params.ini"
        path.write_text(GOOD_PARAMS)
        params = load_params_file(path)
        with pytest.raises(ConfigError, match="no parameter set"):
            params_for_setpoint(params, 70.0)

    @pytest.mark.parametrize("first, second", [("30", "30.0"), ("50", "5e1")])
    def test_repeated_setpoint_section_rejected(self, tmp_path, first, second):
        path = tmp_path / "params.ini"
        path.write_text(
            GOOD_PARAMS.replace(f"[peltier.{first}]", f"[peltier.{second}]")
            + f"\n[peltier.{first}]\nalpha_v_per_k = 0.05\nk_w_per_k = 0.3\nc_j_per_k = 12\n"
        )
        with pytest.raises(ConfigError, match="repeats setpoint"):
            load_params_file(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_setpoint_section_rejected(self, tmp_path, text):
        path = tmp_path / "params.ini"
        path.write_text(
            GOOD_PARAMS + f"\n[peltier.{text}]\nalpha_v_per_k = 0.05\nk_w_per_k = 0.3\n"
            "c_j_per_k = 12\n"
        )
        with pytest.raises(ConfigError, match="not a finite number"):
            load_params_file(path)

    @pytest.mark.parametrize("section", ["peltier", "peltier.30"])
    def test_unknown_key_names_section_and_key(self, tmp_path, section):
        path = tmp_path / "params.ini"
        path.write_text(GOOD_PARAMS.replace(f"[{section}]\n", f"[{section}]\nalpha = 0.1\n"))
        with pytest.raises(ConfigError, match=rf"\[{section}\] alpha: unknown key"):
            load_params_file(path)

    @pytest.mark.parametrize("section", ["pelteir.30", "peltier_30", "DEFAULT"])
    def test_unknown_section_rejected(self, tmp_path, section):
        path = tmp_path / "params.ini"
        path.write_text(GOOD_PARAMS + f"\n[{section}]\nr_ohm = 3.3\n")
        with pytest.raises(ConfigError, match=rf"params.ini: \[{section}\]: unknown section"):
            load_params_file(path)

    def test_invalid_physical_value(self, tmp_path):
        path = tmp_path / "neg.ini"
        path.write_text(
            "[peltier]\nalpha_v_per_k = -0.05\nr_ohm = 3.3\n"
            "k_w_per_k = 0.3\nc_j_per_k = 12\n"
        )
        with pytest.raises(ConfigError):
            load_params_file(path)
