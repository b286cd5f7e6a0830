"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Budgets are wall-clock upper bounds enforced per
criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.signal

from twindisc import cli
from twindisc.coding import InformationGainReport, encode_number
from twindisc.criteria import criteria_report
from twindisc.lti import DiscreteTransferFunction, SimoModel
from twindisc.matching import INITIAL_GUESS_PRESETS, MatchProblem, match_parameters
from twindisc.nugap import argmin_cumulative, nugap, select_nominal
from twindisc.sysid import OrderSpec, fit_output_error, identify_family
from twindisc.twin import (
    KELVIN_OFFSET,
    PeltierParams,
    PidConfig,
    SensorConfig,
    SimConfig,
    TimeSeriesDataset,
    simulate_closed_loop,
    write_csv,
)

from helpers import (
    peltier_derivatives,
    peltier_heat_flows,
    random_simo,
    read_report,
    static_gain_model,
)

TRUTH_70 = PeltierParams(alpha=0.0211, r_ohm=3.3, k_cond=0.286, c_heat=11.1)


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)", flush=True)


def test_c01_coding_exactness():
    with criterion(1, "coding exactness", budget_s=5.0):
        start = time.perf_counter()
        assert encode_number(10.34) == "+1034"
        assert len(encode_number(10.34)) == 5
        assert encode_number(-0.45) == "-45"
        assert len(encode_number(-0.45)) == 3
        assert (time.perf_counter() - start) < 1e-3


def test_c02_information_gain_arithmetic():
    with criterion(2, "information-gain arithmetic", budget_s=5.0):
        ig_y = InformationGainReport(1242, 681)
        ig_u = InformationGainReport(1019, 1014)
        assert ig_y.gain == 561
        assert ig_u.gain == 5
        assert ig_y.gain + ig_u.gain == 566


def test_c03_criteria_oracle_equivalence():
    with criterion(3, "criteria oracle equivalence", budget_s=5.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 500))
            residuals = rng.normal(0.0, rng.uniform(0.01, 50.0), size=n)
            p = int(rng.integers(0, 25))
            scored = criteria_report(residuals, p)
            # independent direct-formula oracle
            loss = sum(x * x for x in residuals) / n
            naic_oracle = math.log(loss) + 2.0 * p / n
            bic_oracle = (
                n * math.log(loss)
                + n * (1 * math.log(2 * math.pi) + 1)
                + p * math.log(n)
            )
            mdl_oracle = loss * (1 + p / n) * math.log(n)
            assert scored.naic == pytest.approx(naic_oracle, rel=1e-9)
            assert scored.bic == pytest.approx(bic_oracle, rel=1e-9)
            assert scored.mdl == pytest.approx(mdl_oracle, rel=1e-9)


def test_c04_nugap_properties():
    with criterion(4, "nu-gap metric properties", budget_s=60.0):
        rng = np.random.default_rng(7)
        pairs = [
            (random_simo(rng, degree=2), random_simo(rng, degree=3))
            for _ in range(50)
        ]
        for a, b in pairs:
            g_ab = nugap(a, b, grid_size=256)
            g_ba = nugap(b, a, grid_size=256)
            assert abs(g_ab - g_ba) < 1e-9
            assert 0.0 <= g_ab <= 1.0
            assert nugap(a, a, grid_size=256) == 0.0
        for (a, b), (c, _) in zip(pairs[:16], pairs[16:32]):
            gab = nugap(a, b, grid_size=256)
            gbc = nugap(b, c, grid_size=256)
            gac = nugap(a, c, grid_size=256)
            assert gac <= gab + gbc + 1e-6
        # closed form 1/sqrt(2), printed rounded as 0.70711
        gap = nugap(static_gain_model(0.0), static_gain_model(1.0), grid_size=256)
        assert abs(gap - 1.0 / math.sqrt(2.0)) < 1e-6
        for a, b in pairs[:10]:
            g1 = nugap(a, b, grid_size=512)
            g2 = nugap(a, b, grid_size=1024)
            assert abs(g1 - g2) < 1e-3


def test_c05_twin_physics():
    with criterion(5, "twin physics identities", budget_s=10.0):
        cfg = SimConfig(setpoint=70.0, sensor=SensorConfig())
        d_a, d_b = peltier_derivatives((cfg.ambient, cfg.ambient), 0.0, TRUTH_70, cfg)
        assert d_a == 0.0 and d_b == 0.0
        rng = np.random.default_rng(12)
        for _ in range(500):
            state = rng.uniform(-30.0, 150.0, size=2)
            current = rng.uniform(-5.0, 5.0)
            q_a, q_b = peltier_heat_flows(state, current, TRUTH_70)
            expected = (
                TRUTH_70.alpha
                * current
                * (state[0] + state[1] + 2 * KELVIN_OFFSET)
                - current**2 * TRUTH_70.r_ohm
            )
            assert q_a + q_b == pytest.approx(expected, rel=1e-12, abs=1e-12)
        y_coarse = simulate_closed_loop(
            TRUTH_70, SimConfig(setpoint=70.0, ode_substeps=10, sensor=SensorConfig())
        ).y
        y_fine = simulate_closed_loop(
            TRUTH_70, SimConfig(setpoint=70.0, ode_substeps=20, sensor=SensorConfig())
        ).y
        assert abs(y_coarse[-1] - y_fine[-1]) < 0.05


def test_c06_behavioral_matching_round_trip():
    with criterion(6, "behavioral-matching round trip", budget_s=60.0):
        cfg = SimConfig(setpoint=70.0, duration=600.0, sensor=SensorConfig())
        dataset = simulate_closed_loop(TRUTH_70, cfg)
        problem = MatchProblem(
            dataset=dataset,
            initial=INITIAL_GUESS_PRESETS["datasheet"],
            sim_config=cfg,
        )
        result = match_parameters(problem)
        assert result.params.alpha == pytest.approx(TRUTH_70.alpha, rel=0.02)
        assert result.params.k_cond == pytest.approx(TRUTH_70.k_cond, rel=0.02)
        assert result.params.c_heat == pytest.approx(TRUTH_70.c_heat, rel=0.02)
        assert result.params.r_ohm == 3.3


def _effectively_second_order_campaign(seed):
    """Closed loop with two comparable thermal modes under static (P-only)
    control: the linear content is second order, the smooth drive
    nonlinearity is the irreducible residual floor."""
    params = PeltierParams(alpha=0.05, r_ohm=3.3, k_cond=0.3, c_heat=15.0)
    cfg = SimConfig(
        setpoint=35.0,
        duration=500.0,
        heatsink_conductance=1.0,
        pid=PidConfig(kp=8.0, ki=0.0, kd=0.0),
        sensor=SensorConfig(noise_std=0.05, seed=seed),
        label=f"campaign{seed}",
    )
    return simulate_closed_loop(params, cfg)


def test_c07_order_selection_reproduction(tmp_path):
    with criterion(7, "order-selection reproduction", budget_s=300.0):
        hits = 0
        for seed in range(10):
            dataset = _effectively_second_order_campaign(seed)
            csv_path = tmp_path / f"campaign_{seed}.csv"
            write_csv(dataset, csv_path)
            out = tmp_path / f"report_{seed}"
            code = cli.main(
                [
                    "discriminate",
                    str(csv_path),
                    "--out", str(out),
                    "--seed", str(seed),
                ]
            )
            assert code == 0
            report = read_report(tmp_path / f"report_{seed}.json")
            best = report["datasets"][0]["best"]
            if all(best[k] == "22221" for k in ("naic", "bic", "mdl")):
                hits += 1
        assert hits >= 9, f"order 22221 flagged in only {hits}/10 campaigns"


def test_c08_nominal_selection_logic():
    with criterion(8, "nominal selection logic", budget_s=10.0):
        winner, tie = argmin_cumulative([2.93, 2.74, 2.22, 2.28])
        assert winner == 2 and not tie

        ts = 1.0
        base_num = np.array([0.0, 0.5, 0.1])
        base_den = [1.0, -0.6, 0.08]

        def model(y_scale, u_scale, label):
            return SimoModel(
                tf_y=DiscreteTransferFunction(base_num * (1 + y_scale), base_den, ts),
                tf_u=DiscreteTransferFunction(base_num * (1 + u_scale), base_den, ts),
                label=label,
            )

        # the barycenter sits at index 2, mirroring the third parameter set
        models = [
            model(+0.2, 0.0, "a"),
            model(0.0, +0.2, "b"),
            model(0.0, 0.0, "center"),
            model(-0.2, 0.0, "c"),
        ]
        matrix, winner, tie = select_nominal(models, grid_size=512)
        assert winner == 2
        assert not tie
        assert matrix.cumulative[2] == min(matrix.cumulative)


def test_c09_fitting_oracle():
    with criterion(9, "fitting oracle", budget_s=60.0):
        rng = np.random.default_rng(31)
        u = rng.standard_normal(400)
        y = scipy.signal.lfilter([0.0, 0.5], [1.0, -0.8], u)
        fit = fit_output_error(u, y, OrderSpec(nb=1, nc=1, nd=1, nf=1, nk=1))
        assert fit.model.b[1] == pytest.approx(0.5, abs=1e-3)
        assert fit.model.f[1] == pytest.approx(-0.8, abs=1e-3)

        step = np.where(np.arange(500) >= 10, 1.0, 0.0)
        truth = scipy.signal.lfilter([0.0, 0.3, -0.1], [1.0, -1.3, 0.42], step)
        noisy = truth + 0.05 * rng.standard_normal(500)
        dataset = TimeSeriesDataset(
            np.arange(500.0), step, step.copy(), noisy, label="oracle"
        )
        family = identify_family(dataset, seed=0)
        norms = [
            float(np.sum(family.fits[(lbl, "y")].sim_residuals ** 2))
            for lbl in ("22221", "33331", "44441", "55551")
        ]
        for lower, higher in zip(norms, norms[1:]):
            assert higher <= lower + 1e-6 * max(lower, 1.0)


def test_c10_pipeline_determinism(tmp_path):
    with criterion(10, "pipeline determinism", budget_s=120.0):
        cfg_path = tmp_path / "sim.ini"
        cfg_path.write_text(
            "[simulation]\nsetpoints = 35, 45\nduration_s = 150\n"
            "[pid]\nkp = 8.0\nki = 0.0\n"
            "[sensor]\nnoise_std_c = 0.05\n"
        )
        params_path = tmp_path / "params.ini"
        params_path.write_text(
            "[peltier]\nr_ohm = 3.3\nalpha_v_per_k = 0.05\n"
            "k_w_per_k = 0.3\nc_j_per_k = 15.0\n"
        )

        def run(tag):
            out_dir = tmp_path / f"data_{tag}"
            assert cli.main(
                [
                    "simulate",
                    "--config", str(cfg_path),
                    "--params", str(params_path),
                    "--out-dir", str(out_dir),
                    "--seed", "11",
                ]
            ) == 0
            report = tmp_path / f"report_{tag}"
            assert cli.main(
                [
                    "discriminate",
                    str(out_dir / "dataset_35.csv"),
                    str(out_dir / "dataset_45.csv"),
                    "--out", str(report),
                    "--orders", "22221,33331",
                    "--seed", "11",
                ]
            ) == 0
            read_report(tmp_path / f"report_{tag}.json")
            return (
                (tmp_path / f"report_{tag}.json").read_bytes(),
                (tmp_path / f"report_{tag}.csv").read_bytes(),
                (out_dir / "dataset_35.csv").read_bytes(),
                (out_dir / "manifest.json").read_bytes(),
            )

        assert run("a") == run("b")
