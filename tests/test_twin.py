import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twindisc import twin
from twindisc.twin import (
    KELVIN_OFFSET,
    MAX_SAMPLES,
    PeltierParams,
    PidConfig,
    SensorConfig,
    SimConfig,
    TimeSeriesDataset,
    generate_campaign,
    read_csv,
    simulate_closed_loop,
    write_csv,
)

from helpers import MATCHED_SETS, euler_reference, peltier_derivatives, peltier_heat_flows


def params_for(setpoint):
    alpha, k_cond, c_heat = MATCHED_SETS[setpoint]
    return PeltierParams(alpha=alpha, r_ohm=3.3, k_cond=k_cond, c_heat=c_heat)


def clean_cfg(setpoint, **kw):
    return SimConfig(setpoint=setpoint, sensor=SensorConfig(), **kw)


class TestPhysics:
    def test_equilibrium_without_drive(self):
        p = params_for(70.0)
        cfg = clean_cfg(70.0)
        d_a, d_b = peltier_derivatives((cfg.ambient, cfg.ambient), 0.0, p, cfg)
        assert d_a == 0.0
        assert d_b == 0.0

    def test_heat_flow_pair_identity(self):
        rng = np.random.default_rng(3)
        p = params_for(50.0)
        for _ in range(200):
            state = rng.uniform(-20.0, 120.0, size=2)
            current = rng.uniform(-4.0, 4.0)
            q_a, q_b = peltier_heat_flows(state, current, p)
            expected = (
                p.alpha
                * current
                * (state[0] + KELVIN_OFFSET + state[1] + KELVIN_OFFSET)
                - current**2 * p.r_ohm
            )
            assert q_a + q_b == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_heat_flow_reference_arithmetic(self):
        # alpha=21.1 mV, R=3.3, K=0.286 at I=2 A and a 10 K face difference
        p = params_for(70.0)
        t_a, t_b = 60.0, 50.0
        q_a, _ = peltier_heat_flows((t_a, t_b), 2.0, p)
        by_hand = 0.0211 * (t_a + KELVIN_OFFSET) * 2.0 - 0.5 * 4.0 * 3.3 + 0.286 * 10.0
        assert q_a == pytest.approx(by_hand, rel=1e-12)

    def test_cooling_is_monotone_without_drive(self):
        p = params_for(50.0)
        cfg = clean_cfg(50.0)
        state = [80.0, 60.0]
        prev_max = max(state)
        for _ in range(5000):
            d_a, d_b = peltier_derivatives(state, 0.0, p, cfg)
            state = [state[0] + 0.1 * d_a, state[1] + 0.1 * d_b]
            cur_max = max(state)
            assert cur_max <= prev_max + 1e-12
            prev_max = cur_max
        assert prev_max < 30.0

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError):
            PeltierParams(alpha=0.0, r_ohm=3.3, k_cond=0.3, c_heat=10.0)


class TestClosedLoop:
    def test_no_gains_means_no_drive(self):
        p = params_for(50.0)
        cfg = clean_cfg(50.0, pid=PidConfig(kp=0.0, ki=0.0, kd=0.0))
        ds = simulate_closed_loop(p, cfg)
        assert np.array_equal(ds.u, np.zeros(len(ds)))
        assert np.allclose(ds.y, cfg.ambient, atol=1e-9)

    @pytest.mark.parametrize("setpoint", sorted(MATCHED_SETS))
    def test_default_loop_settles_at_setpoint(self, setpoint):
        ds = simulate_closed_loop(params_for(setpoint), clean_cfg(setpoint))
        tail = ds.y[-len(ds) // 10 :]
        assert np.max(np.abs(tail - setpoint)) < 1.0

    def test_substep_doubling_barely_moves_the_answer(self):
        p = params_for(50.0)
        y_10 = simulate_closed_loop(p, clean_cfg(50.0, ode_substeps=10)).y
        y_20 = simulate_closed_loop(p, clean_cfg(50.0, ode_substeps=20)).y
        assert abs(y_10[-1] - y_20[-1]) < 0.05

    def test_determinism_bit_identical(self):
        p = params_for(70.0)
        cfg = SimConfig(setpoint=70.0, sensor=SensorConfig(noise_std=0.1, seed=42))
        a = simulate_closed_loop(p, cfg)
        b = simulate_closed_loop(p, cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.u, b.u)

    def test_antiwindup_keeps_integrator_inside_actuator_range(self):
        # a far-away setpoint saturates the drive for a long stretch
        p = params_for(90.0)
        pid = PidConfig(kp=50.0, ki=5.0, kd=0.0)
        cfg = clean_cfg(150.0, pid=pid)
        ds = simulate_closed_loop(p, cfg)
        assert np.max(ds.u) == pid.out_max
        # replay the controller to observe the integrator state
        integ = 0.0
        for k in range(len(ds)):
            err = ds.r[k] - ds.y[k]
            new_integ = integ + pid.ki * cfg.sample_time * err
            u_raw = pid.kp * err + new_integ
            if (u_raw > pid.out_max and err > 0.0) or (u_raw < pid.out_min and err < 0.0):
                new_integ = integ
            integ = min(max(new_integ, min(pid.out_min, 0.0)), pid.out_max)
            assert min(pid.out_min, 0.0) <= integ <= pid.out_max

    def test_explicit_reference_overrides_setpoint(self):
        p = params_for(50.0)
        ref = np.concatenate([np.full(100, 30.0), np.full(200, 45.0)])
        ds = simulate_closed_loop(p, clean_cfg(99.0), reference=ref)
        assert len(ds) == ref.size
        assert np.array_equal(ds.r, ref)

    @pytest.mark.parametrize("n", [0, 1, MAX_SAMPLES + 1])
    def test_reference_length_is_checked_before_the_loop(self, n):
        # refused before the loop: past MAX_SAMPLES the whole loop would run
        # before the dataset refused its length
        with pytest.raises(ValueError, match=f"reference has {n} samples, 2 to {MAX_SAMPLES} allowed"):
            simulate_closed_loop(params_for(50.0), clean_cfg(50.0), reference=np.zeros(n))

    def test_sensor_quantization(self):
        p = params_for(50.0)
        cfg = SimConfig(setpoint=50.0, sensor=SensorConfig(quantization=0.5))
        ds = simulate_closed_loop(p, cfg)
        assert np.allclose(np.round(ds.y / 0.5) * 0.5, ds.y, atol=1e-12)

    def test_unstable_euler_step_is_refused_before_the_run(self):
        # the smallest stable substep count from the eigenvalues of the
        # state matrix at zero current, against the count the error names
        p = params_for(70.0)
        cfg = clean_cfg(70.0, duration=3000.0, sample_time=60.0, ode_substeps=1)
        a = p.k_cond + cfg.surface_conductance
        b = p.k_cond + cfg.heatsink_conductance
        rates = np.linalg.eigvalsh(np.array([[a, -p.k_cond], [-p.k_cond, b]]) / p.c_heat)
        stable = int(cfg.sample_time * rates.max() / 2.0) + 1
        with pytest.raises(twin.SimulationDivergedError,
                           match=f"ode_substeps = 1, the smallest stable is {stable}$"):
            simulate_closed_loop(p, cfg)
        with pytest.raises(twin.SimulationDivergedError, match="Euler step of 15 s is unstable"):
            simulate_closed_loop(p, replace(cfg, ode_substeps=stable - 1))
        assert len(simulate_closed_loop(p, replace(cfg, ode_substeps=stable))) == 50

    def test_euler_message_rounds_a_count_beyond_a_million(self):
        # a count no run could take is printed to 3 digits, not as 309 of them
        p = replace(params_for(70.0), k_cond=4e307)
        with pytest.raises(twin.SimulationDivergedError) as info:
            simulate_closed_loop(p, clean_cfg(70.0))
        message = str(info.value)
        assert len(message) <= 200 and "\n" not in message
        assert message.endswith("ode_substeps = 10, the smallest stable is 3.6e+306")
        # a count up to a million is printed exactly, a larger one to 3 digits
        p = replace(params_for(70.0), k_cond=1.0)
        for ts, count in ((7e6, "949151"), (1e7, "1.36e+06")):
            cfg = clean_cfg(70.0, duration=50 * ts, sample_time=ts, ode_substeps=1)
            with pytest.raises(twin.SimulationDivergedError) as info:
                simulate_closed_loop(p, cfg)
            assert str(info.value).endswith(f"the smallest stable is {count}")

    def test_state_that_overflows_at_a_stable_step_diverges(self):
        # the Seebeck heat of an absurd alpha overflows in the first sample
        p = PeltierParams(alpha=1e300, r_ohm=3.3, k_cond=0.3, c_heat=15.0)
        with pytest.raises(twin.SimulationDivergedError, match="non-finite at step 0$"):
            simulate_closed_loop(p, clean_cfg(50.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(setpoint=50.0, duration=10.0)  # fewer than 50 samples
        with pytest.raises(ValueError):
            PidConfig(out_min=255.0, out_max=0.0)
        with pytest.raises(ValueError):
            SimConfig(setpoint=50.0, ode_substeps=0)

    def test_sample_count_above_bound_rejected(self):
        with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES} samples"):
            SimConfig(setpoint=50.0, duration=MAX_SAMPLES + 1.0)
        with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES} samples"):
            SimConfig(setpoint=50.0, duration=MAX_SAMPLES / 2 + 0.5, sample_time=0.5)

    @pytest.mark.parametrize("ts", [0.17, 0.34, 1.37, 2.99, 5.19, 5.98])
    def test_sample_floor_counts_the_samples_a_run_simulates(self, ts):
        # (50 * ts) / ts falls just short of 50 at these steps; a run simulates its rounding
        assert SimConfig(setpoint=30.0, duration=50 * ts, sample_time=ts).n_samples == 50

    @pytest.mark.parametrize("config, field, message", [
        (SimConfig, "duration", "need at least 50 samples"),
        (SimConfig, "sample_time", "sample_time must be > 0"),
        (SimConfig, "ode_substeps", "ode_substeps must be >= 1"),
        (SimConfig, "supply_voltage", "supply_voltage must be > 0"),
        (SimConfig, "heatsink_conductance", "conductances must be >= 0"),
        (SimConfig, "surface_conductance", "conductances must be >= 0"),
        (SensorConfig, "quantization", "quantization and noise_std must be >= 0"),
        (SensorConfig, "noise_std", "quantization and noise_std must be >= 0"),
        (SensorConfig, "seed", "seed must be >= 0"),
    ])
    def test_nan_fails_every_bound(self, config, field, message):
        required = {"setpoint": 30.0} if config is SimConfig else {}
        with pytest.raises(ValueError, match=message):
            config(**required, **{field: float("nan")})

    def test_negative_sensor_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SensorConfig(noise_std=0.05, seed=-1)

    # duration and sample_time are left out: a non-finite one already fails
    # the sample-count bounds
    @pytest.mark.parametrize("config, field, value, message", [
        (PeltierParams, "alpha", np.inf, "alpha must be strictly positive and finite"),
        (PeltierParams, "r_ohm", np.inf, "r_ohm must be strictly positive and finite"),
        (PeltierParams, "k_cond", np.inf, "k_cond must be strictly positive and finite"),
        (PeltierParams, "c_heat", np.inf, "c_heat must be strictly positive and finite"),
        (PidConfig, "kp", np.nan, "kp, ki and kd must be finite"),
        (PidConfig, "ki", np.inf, "kp, ki and kd must be finite"),
        (PidConfig, "kd", -np.inf, "kp, ki and kd must be finite"),
        (PidConfig, "out_min", -np.inf, "output range must be ordered and finite"),
        (PidConfig, "out_max", np.inf, "output range must be ordered and finite"),
        (SensorConfig, "quantization", np.inf, "quantization and noise_std must be >= 0 and finite"),
        (SensorConfig, "noise_std", np.inf, "quantization and noise_std must be >= 0 and finite"),
        (SensorConfig, "seed", 1.5, "seed must be >= 0 and an integer"),
        (SimConfig, "setpoint", np.nan, "setpoint and ambient must be finite"),
        (SimConfig, "ambient", np.nan, "setpoint and ambient must be finite"),
        (SimConfig, "ode_substeps", 2.5, "ode_substeps must be >= 1 and an integer"),
        (SimConfig, "supply_voltage", np.inf, "supply_voltage must be > 0 and finite"),
        (SimConfig, "heatsink_conductance", np.inf, "conductances must be >= 0 and finite"),
        (SimConfig, "surface_conductance", np.inf, "conductances must be >= 0 and finite"),
        (SensorConfig, "seed", True, "seed must be >= 0 and an integer"),
        (SimConfig, "ode_substeps", True, "ode_substeps must be >= 1 and an integer"),
    ])
    def test_every_field_must_be_runnable_when_built(self, config, field, value, message):
        required = {
            PeltierParams: {"alpha": 0.02, "r_ohm": 3.3, "k_cond": 0.3, "c_heat": 11.0},
            SimConfig: {"setpoint": 30.0},
        }.get(config, {})
        with pytest.raises(ValueError, match=message):
            config(**{**required, field: value})

    def test_numpy_integer_counts_are_accepted(self):
        cfg = SimConfig(setpoint=30.0, ode_substeps=np.int64(10), sensor=SensorConfig(seed=np.int64(3)))
        assert (cfg.ode_substeps, cfg.sensor.seed) == (10, 3)


# SHA-256 of u.tobytes() + y.tobytes() per case, recorded from the
# numpy-scalar loop: the closed loop must keep its arithmetic and its
# evaluation order bit for bit.
STEP_REFERENCE = np.concatenate([np.full(100, 30.0), np.full(200, 45.0)])
UP_DOWN_REFERENCE = np.concatenate([np.full(150, 60.0), np.full(150, 20.0)])
PINNED_CASES = {
    "clean": (70.0, {}, None),
    "noise": (70.0, {"sensor": SensorConfig(noise_std=0.05, seed=7)}, None),
    "quantization": (70.0, {"sensor": SensorConfig(quantization=0.1)}, None),
    "noise_quantization": (
        30.0,
        {"sensor": SensorConfig(quantization=0.1, noise_std=0.05, seed=3)},
        None,
    ),
    "kd": (70.0, {"pid": PidConfig(kd=0.5)}, None),
    # at a sample time other than 1 s, so that the derivative's / dt shows
    "kd_sample_time_0.5": (
        70.0,
        {"pid": PidConfig(kd=0.5), "sample_time": 0.5, "duration": 300.0},
        None,
    ),
    "no_antiwindup": (
        90.0,
        {"pid": PidConfig(kp=50.0, ki=5.0, anti_windup="none")},
        None,
    ),
    "reference_step": (50.0, {}, STEP_REFERENCE),
    "sample_time_0.5": (50.0, {"sample_time": 0.5, "duration": 300.0}, None),
    "substeps_1": (30.0, {"ode_substeps": 1}, None),
    "substeps_20": (90.0, {"ode_substeps": 20}, None),
    # a negative out_min, so the integrator's floor is below 0 and the drive
    # maps from a non-zero out_min; the large kd drives both the output and
    # the integrator onto each of their bounds (digest recorded from the loop
    # that clamped with the builtin min and max)
    "negative_out_min": (
        30.0,
        {"pid": PidConfig(kp=2.0, ki=1.0, kd=100.0, out_min=-100.0, out_max=155.0)},
        UP_DOWN_REFERENCE,
    ),
}
PINNED_DIGESTS = {
    "clean": "3905120f37325d65ddd899bd4935d30054ba6f9887b01ab3da431fe066e0a5d6",
    "kd": "7375b36a801c9df91f3c677bb51dc6bba2d8fe0cee71bd312ba5b4c594bdfeb2",
    "kd_sample_time_0.5": "c41890318423c73ad8a78769810f3bc10086e73224949b22cefc81d868a078d3",
    "negative_out_min": "9968dcdf80f802b822748622c49e79b3466c0e4aa70970417b72f3c32890c411",
    "no_antiwindup": "8c1f35087f2b06e6d77579627e2bbdcec79f5e3eea7d182421230d99181d537c",
    "noise": "d9956e0831261f5377a74c163b9b11a676c9c2dcab2285087753635569cf543f",
    "noise_quantization": "85980330f2475fcbb261b48d100f3bae900bf45b4ed853c0072dd0939f03725c",
    "quantization": "46ad6b760ad78d7d7b1344b2e106ebe48b32714b6718ca51b8e5204281755270",
    "reference_step": "1beba941a533caae268cc6f182220f2e4a252bc2ea992416514ab6063268b655",
    "sample_time_0.5": "c24c40a76b44cfdacb613d20bc12c95ac9410580e372072cd6b50af76dff94ed",
    "substeps_1": "03c6c84d1b1c558e3748df7653907d49d4f11cc00c37c5ae105f4e2491ecb4c0",
    "substeps_20": "fbcc9cc425e5bb3be102e64deef60b3a0cfc5b83d8841d1583879c6e4a8af8ef",
}


def pinned_run(name):
    setpoint, kw, reference = PINNED_CASES[name]
    return simulate_closed_loop(
        params_for(setpoint), SimConfig(setpoint=setpoint, **kw), reference=reference
    )


class TestBitPins:
    @pytest.mark.parametrize("name", sorted(PINNED_CASES))
    def test_outputs_match_pinned_digest(self, name):
        ds = pinned_run(name)
        digest = hashlib.sha256(ds.u.tobytes() + ds.y.tobytes()).hexdigest()
        assert digest == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("setpoint", sorted(MATCHED_SETS))
    def test_loop_agrees_with_peltier_derivatives(self, setpoint):
        p = params_for(setpoint)
        cfg = clean_cfg(setpoint)
        ds = simulate_closed_loop(p, cfg)
        u_ref, y_ref = euler_reference(p, cfg)
        np.testing.assert_allclose(ds.y, y_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ds.u, u_ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "name",
        # the oracle does not quantize: a rounding boundary would turn a
        # last-bit difference into a whole quantization step
        [n for n, (_, kw, _) in sorted(PINNED_CASES.items())
         if "sensor" not in kw or kw["sensor"].quantization == 0.0],
    )
    def test_pinned_case_agrees_with_oracle(self, name):
        setpoint, kw, reference = PINNED_CASES[name]
        cfg = SimConfig(setpoint=setpoint, **kw)
        ds = pinned_run(name)
        u_ref, y_ref = euler_reference(params_for(setpoint), cfg, reference)
        np.testing.assert_allclose(ds.y, y_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ds.u, u_ref, rtol=1e-12, atol=0.0)


class TestCampaign:
    def test_four_setpoints_settle(self):
        params = {sp: params_for(sp) for sp in MATCHED_SETS}
        base = clean_cfg(30.0)
        datasets = list(generate_campaign(params, base, seed=5))
        assert [ds.label for ds in datasets] == ["30", "50", "70", "90"]
        for sp, ds in zip(sorted(MATCHED_SETS), datasets):
            assert abs(ds.y[-1] - sp) < 1.0

    def test_identical_params_pass_through(self):
        p = params_for(50.0)
        base = clean_cfg(40.0)
        datasets = list(generate_campaign({40.0: p, 60.0: p}, base, seed=1))
        assert datasets[0].r[0] == 40.0
        assert datasets[1].r[0] == 60.0

    def test_runs_are_simulated_as_they_are_taken(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            twin, "simulate_closed_loop", lambda params, cfg: calls.append(cfg) or cfg.label
        )
        params = {sp: params_for(sp) for sp in (50.0, 30.0)}
        runs = generate_campaign(params, clean_cfg(30.0), seed=7)
        assert calls == []
        assert next(runs) == "30"
        assert [cfg.sensor.seed for cfg in calls] == [7]
        assert list(runs) == ["50"]
        assert [cfg.sensor.seed for cfg in calls] == [7, 8]

    def test_campaign_repetition_is_bit_identical(self):
        params = {sp: params_for(sp) for sp in (30.0, 50.0)}
        base = clean_cfg(30.0)
        a = generate_campaign(params, base, seed=3)
        b = generate_campaign(params, base, seed=3)
        for da, db in zip(a, b):
            assert np.array_equal(da.y, db.y)
            assert np.array_equal(da.u, db.u)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def dataset_columns(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    dt = draw(st.floats(min_value=1e-3, max_value=1e3))
    cols = [draw(st.lists(finite_floats, min_size=n, max_size=n)) for _ in "ruy"]
    return (dt, *cols)


class TestDatasetIO:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(columns=dataset_columns())
    @example(columns=(1.0, [0.1, 5e-324], [-0.0, 1e300], [1e-300, -1e16]))
    @example(columns=(0.1, [-5e-324, 2.2250738585072014e-308], [1e16, 0.0], [-1e-300, -0.0]))
    def test_csv_round_trip_is_bit_exact(self, columns):
        dt, r, u, y = columns
        ds = TimeSeriesDataset(np.arange(len(r)) * dt, r, u, y)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.csv"
            write_csv(ds, path)
            back = read_csv(path)
        for col in "truy":
            assert getattr(back, col).tobytes() == getattr(ds, col).tobytes(), col

    def test_csv_bytes_are_pinned(self, tmp_path):
        ds = TimeSeriesDataset(
            [0.0, 0.5, 1.0, 1.5],
            [0.1, 5e-324, 1e16, -0.0],
            [-0.0, 0.1, 1e-300, 2.5e-308],
            [1e300, -1e16, 123456789.125, -5e-324],
        )
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        assert path.read_bytes() == (
            b"t,r,u,y\n"
            b"0.0,0.1,-0.0,1e+300\n"
            b"0.5,5e-324,0.1,-1e+16\n"
            b"1.0,1e+16,1e-300,123456789.125\n"
            b"1.5,-0.0,2.5e-308,-5e-324\n"
        )

    def test_csv_round_trip_is_exact(self, tmp_path):
        ds = simulate_closed_loop(
            params_for(70.0),
            SimConfig(setpoint=70.0, sensor=SensorConfig(noise_std=0.2, seed=9), label="rt"),
        )
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert np.array_equal(ds.t, back.t)
        assert np.array_equal(ds.r, back.r)
        assert np.array_equal(ds.u, back.u)
        assert np.array_equal(ds.y, back.y)

    def test_label_defaults_to_file_stem(self, tmp_path):
        ds = simulate_closed_loop(params_for(30.0), clean_cfg(30.0))
        path = tmp_path / "run_30.csv"
        write_csv(ds, path)
        assert read_csv(path).label == "run_30"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,r,u\n0.0,1.0,2.0\n1.0,1.0,2.0\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_single_row_csv_reports_sample_count(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t,r,u,y\n0.0,1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="dataset needs at least 2 samples"):
            read_csv(path)

    def test_dataset_validation(self):
        t = np.arange(5.0)
        ones = np.ones(5)
        with pytest.raises(ValueError):
            TimeSeriesDataset(t[:4], ones, ones, ones)
        with pytest.raises(ValueError):
            TimeSeriesDataset(np.array([0.0, 1.0, 1.0, 2.0, 3.0]), ones, ones, ones)
        with pytest.raises(ValueError):
            TimeSeriesDataset(np.array([0.0, 1.0, 2.5, 3.0, 4.0]), ones, ones, ones)

    @pytest.mark.parametrize("column", ["t", "r", "u", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, column, bad):
        cols = {"t": np.arange(5.0), "r": np.ones(5), "u": np.ones(5), "y": np.ones(5)}
        cols[column] = cols[column].copy()
        cols[column][4] = bad
        with pytest.raises(ValueError, match=f"column {column} holds NaN or inf"):
            TimeSeriesDataset(cols["t"], cols["r"], cols["u"], cols["y"])

    def test_read_csv_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,r,u,y\n0,1,2,3\n1,1,2,nan\n2,1,2,3\n")
        with pytest.raises(ValueError, match="NaN or inf"):
            read_csv(path)
