import numpy as np
import pytest

from twindisc import matching
from twindisc.matching import (
    INITIAL_GUESS_PRESETS,
    LOWER,
    MEASURED_RESISTANCE,
    UPPER,
    MatchProblem,
    match_parameters,
    sse_cost,
)
from twindisc.twin import (
    MIN_SAMPLES,
    PeltierParams,
    SensorConfig,
    SimConfig,
    simulate_closed_loop,
)

TRUTH_70 = PeltierParams(alpha=0.0211, r_ohm=3.3, k_cond=0.286, c_heat=11.1)


def make_problem(duration=300.0, initial=None, truth=TRUTH_70, **kw):
    cfg = SimConfig(setpoint=70.0, duration=duration, sensor=SensorConfig())
    dataset = simulate_closed_loop(truth, cfg)
    return MatchProblem(
        dataset=dataset,
        initial=initial or INITIAL_GUESS_PRESETS["datasheet"],
        sim_config=cfg,
        **kw,
    )


class TestPresets:
    def test_preset_values(self):
        exp = INITIAL_GUESS_PRESETS["experience"]
        assert (exp.alpha, exp.r_ohm, exp.k_cond, exp.c_heat) == (
            0.075,
            3.3,
            0.3808,
            31.4173,
        )
        sheet = INITIAL_GUESS_PRESETS["datasheet"]
        assert (sheet.alpha, sheet.k_cond, sheet.c_heat) == (0.053, 0.5555, 15.0)
        meas = INITIAL_GUESS_PRESETS["measurement"]
        assert (meas.alpha, meas.k_cond, meas.c_heat) == (0.040, 0.3333, 15.0)


class TestSseCost:
    def test_zero_at_generating_truth(self):
        problem = make_problem()
        assert sse_cost(problem, TRUTH_70) <= 1e-9

    def test_nonnegative_everywhere(self):
        problem = make_problem()
        rng = np.random.default_rng(13)
        for _ in range(5):
            theta = rng.uniform(LOWER, UPPER)
            assert sse_cost(problem, matching.params_from(theta)) >= 0.0

    def test_alpha_perturbation_costs(self):
        problem = make_problem()
        bumped = PeltierParams(
            alpha=TRUTH_70.alpha * 1.1,
            r_ohm=3.3,
            k_cond=TRUTH_70.k_cond,
            c_heat=TRUTH_70.c_heat,
        )
        assert sse_cost(problem, bumped) > 1.0

    def test_out_of_bounds_candidate_rejected(self):
        problem = make_problem()
        outside = PeltierParams(alpha=0.5, r_ohm=3.3, k_cond=0.3, c_heat=10.0)
        with pytest.raises(ValueError):
            sse_cost(problem, outside)

    def test_weighting_scales_cost(self):
        # "yu" adds the control trace's squared errors to those of "y"
        p_y = make_problem(channels="y")
        both = make_problem(channels="yu")
        cand = PeltierParams(alpha=0.03, r_ohm=3.3, k_cond=0.3, c_heat=12.0)
        sim = simulate_closed_loop(cand, both.sim_config, reference=both.dataset.r)
        res_u = both.dataset.u - sim.u
        assert sse_cost(both, cand) == pytest.approx(
            sse_cost(p_y, cand) + float(res_u @ res_u), rel=1e-12
        )
        assert sse_cost(p_y, cand) > 0.0 and res_u @ res_u > 0.0


def richardson_jacobian(problem, theta, rel_step=1e-3):
    """Central differences at h and h/2 combined to cancel the h**2 error term."""
    def central(i, h):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        r_up = matching._residual_vector(problem, matching.params_from(up))
        r_dn = matching._residual_vector(problem, matching.params_from(dn))
        return (r_up - r_dn) / (2.0 * h)

    columns = []
    for i in range(theta.size):
        h = rel_step * abs(theta[i])
        columns.append((4.0 * central(i, h / 2.0) - central(i, h)) / 3.0)
    return np.column_stack(columns)


class TestFdJacobian:
    @pytest.mark.parametrize(
        "theta",
        [
            [TRUTH_70.alpha, TRUTH_70.k_cond, TRUTH_70.c_heat],
            [0.053, 0.5555, 15.0],  # the datasheet start
            [TRUTH_70.alpha, UPPER[1], TRUTH_70.c_heat],  # K on its bound
        ],
        ids=["truth", "datasheet", "k_on_upper"],
    )
    def test_agrees_with_richardson_reference(self, theta):
        problem = make_problem(duration=60.0)
        theta = np.array(theta)
        r = matching._residual_vector(problem, matching.params_from(theta))
        jac = matching._fd_jacobian(problem, theta, r)
        ref = richardson_jacobian(problem, theta)
        # column by column in the 2-norm, since single entries pass through zero
        for i in range(theta.size):
            assert np.linalg.norm(jac[:, i] - ref[:, i]) <= 1e-5 * np.linalg.norm(ref[:, i])

    def test_one_simulation_per_column_inside_the_box(self, monkeypatch):
        problem = make_problem(duration=60.0)
        theta = np.array([TRUTH_70.alpha, UPPER[1], UPPER[2]])
        r = matching._residual_vector(problem, matching.params_from(theta))
        stepped = []

        def counting(p, *args, **kwargs):
            stepped.append(p)
            return simulate_closed_loop(p, *args, **kwargs)

        monkeypatch.setattr(matching, "simulate_closed_loop", counting)
        matching._fd_jacobian(problem, theta, r)
        assert len(stepped) == theta.size
        # a component on UPPER steps inward
        assert stepped[1].k_cond < UPPER[1]
        assert stepped[2].c_heat < UPPER[2]
        assert stepped[0].alpha > TRUTH_70.alpha


class TestMatchParameters:
    def test_started_at_truth_converges_immediately(self):
        problem = make_problem(duration=60.0, initial=TRUTH_70)
        result = match_parameters(problem)
        assert result.start_index == 0
        assert result.iterations <= 2
        assert result.sse <= 1e-9
        assert result.converged

    def test_round_trip_from_datasheet(self):
        # a single start can stall on a compensating alpha/K ridge;
        # the deterministic multistart set is part of the contract
        problem = make_problem(duration=60.0)
        result = match_parameters(problem)
        assert result.params.alpha == pytest.approx(TRUTH_70.alpha, rel=0.02)
        assert result.params.k_cond == pytest.approx(TRUTH_70.k_cond, rel=0.02)
        assert result.params.c_heat == pytest.approx(TRUTH_70.c_heat, rel=0.02)

    def test_r_reported_exactly(self):
        problem = make_problem(duration=60.0)
        result = match_parameters(problem)
        assert result.params.r_ohm == MEASURED_RESISTANCE

    def test_deterministic(self):
        problem = make_problem(duration=60.0)
        a = match_parameters(problem)
        b = match_parameters(problem)
        assert a.params == b.params
        assert a.sse == b.sse

    def test_bounds_excluding_truth_hit_the_boundary(self):
        # the true K = 1.3 W/K lies above the box: the search must end on
        # the K bound nearest the excluded optimum
        truth = PeltierParams(alpha=0.0211, r_ohm=3.3, k_cond=1.3, c_heat=11.1)
        problem = make_problem(duration=60.0, truth=truth)
        result = match_parameters(problem)
        assert result.at_bound
        assert not result.converged
        assert result.params.k_cond == UPPER[1]

    def test_noisy_short_record_budget_and_winner_bits(self, monkeypatch):
        # 60 s at 70 C with sensor noise: four of the five starts are pushed
        # into the k_cond = 1 corner.  Clipping each candidate there, with no
        # active set, crawls to the iteration cap in 5,167 simulations.  The
        # winner never touches the box, so its bits must not depend on it.
        cfg = SimConfig(setpoint=70.0, duration=60.0, sensor=SensorConfig(noise_std=0.05, seed=1))
        problem = MatchProblem(
            dataset=simulate_closed_loop(TRUTH_70, cfg),
            initial=INITIAL_GUESS_PRESETS["datasheet"],
            sim_config=cfg,
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return simulate_closed_loop(*args, **kwargs)

        monkeypatch.setattr(matching, "simulate_closed_loop", counting)
        result = match_parameters(problem)
        assert len(calls) <= 250
        assert result.start_index == 1
        assert not result.at_bound
        assert [
            v.hex()
            for v in (result.sse, result.params.alpha, result.params.k_cond, result.params.c_heat)
        ] == [
            "0x1.2c9ab041552afp-1",
            "0x1.53add036ccc1ap-6",
            "0x1.1deca8f905256p-2",
            "0x1.5e87045de0726p+3",
        ]

    def test_initial_must_be_in_bounds(self):
        outside = PeltierParams(alpha=0.3, r_ohm=3.3, k_cond=0.3, c_heat=10.0)
        with pytest.raises(ValueError, match=r"alpha in \[0.005, 0.2\] V/K"):
            make_problem(initial=outside)

    @pytest.mark.parametrize(
        "channels", ["u", "uy", "", ("y",), None], ids=["u", "uy", "empty", "tuple", "none"]
    )
    def test_channels_outside_the_choice_rejected(self, channels):
        with pytest.raises(ValueError, match=r"channels must be one of \('yu', 'y'\)"):
            make_problem(duration=60.0, channels=channels)

    def test_default_sim_config_follows_dataset_sample_time(self):
        cfg = SimConfig(setpoint=70.0, duration=60.0, sample_time=0.5, sensor=SensorConfig())
        dataset = simulate_closed_loop(TRUTH_70, cfg)
        problem = MatchProblem(dataset=dataset, initial=INITIAL_GUESS_PRESETS["datasheet"])
        assert problem.sim_config.sample_time == 0.5
        assert sse_cost(problem, TRUTH_70) <= 1e-9

    def test_default_sim_config_accepts_slow_sampled_dataset(self):
        # 100 samples at 20 s: the default horizon must follow the dataset
        cfg = SimConfig(setpoint=70.0, duration=2000.0, sample_time=20.0, sensor=SensorConfig())
        dataset = simulate_closed_loop(TRUTH_70, cfg)
        assert len(dataset) == 100
        problem = MatchProblem(dataset=dataset, initial=INITIAL_GUESS_PRESETS["datasheet"])
        assert problem.sim_config.sample_time == 20.0
        assert problem.sim_config.n_samples == 100
        assert sse_cost(problem, TRUTH_70) <= 1e-9

    @pytest.mark.parametrize("with_config", [False, True], ids=["default", "config"])
    def test_one_sample_floor_with_or_without_config(self, with_config):
        cfg = SimConfig(setpoint=70.0, duration=float(MIN_SAMPLES), sensor=SensorConfig())
        dataset = simulate_closed_loop(TRUTH_70, cfg)
        short = simulate_closed_loop(TRUTH_70, cfg, reference=dataset.r[1:])
        kw = {
            "initial": INITIAL_GUESS_PRESETS["datasheet"],
            "sim_config": cfg if with_config else None,
        }
        assert len(MatchProblem(dataset=dataset, **kw).dataset) == MIN_SAMPLES
        message = f"dataset has {MIN_SAMPLES - 1} samples, matching needs at least {MIN_SAMPLES}"
        with pytest.raises(ValueError, match=message):
            MatchProblem(dataset=short, **kw)

    def test_sim_config_sample_time_mismatch_rejected(self):
        cfg = SimConfig(setpoint=70.0, duration=60.0, sample_time=0.5, sensor=SensorConfig())
        dataset = simulate_closed_loop(TRUTH_70, cfg)
        with pytest.raises(ValueError, match="sample time"):
            MatchProblem(
                dataset=dataset,
                initial=INITIAL_GUESS_PRESETS["datasheet"],
                sim_config=SimConfig(setpoint=70.0),
            )
