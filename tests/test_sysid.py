import re
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.signal

from twindisc import cli, lti, nugap, sysid
from twindisc.lm import multistart
from twindisc.lti import DiscreteTransferFunction, frequency_response
from twindisc.sysid import (
    DEFAULT_ORDER_LABELS,
    BoxJenkinsModel,
    OrderSpec,
    fit_noise_model,
    fit_output_error,
    identify_family,
    one_step_residuals,
    _delayed,
    _oe_problem,
)
from twindisc.twin import (
    PeltierParams,
    SensorConfig,
    SimConfig,
    TimeSeriesDataset,
    read_csv,
    simulate_closed_loop,
)

from helpers import REFERENCE_FAMILY_50C, bj_from_rows, pole_magnitudes


def step_input(n=400, at=10):
    u = np.zeros(n)
    u[at:] = 1.0
    return u


def noisy_step_response(b, f, n=400, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)  # rich excitation for clean recovery
    y = scipy.signal.lfilter(b, f, u)
    if noise:
        y = y + noise * rng.standard_normal(n)
    return u, y


class TestOrderSpec:
    def test_label_round_trip(self):
        spec = OrderSpec.from_label("22221")
        assert (spec.nb, spec.nc, spec.nd, spec.nf, spec.nk) == (2, 2, 2, 2, 1)
        assert spec.label == "22221"

    def test_bad_labels_rejected(self):
        for label in ("2222", "222a1", "2222211"):
            with pytest.raises(ValueError):
                OrderSpec.from_label(label)
        with pytest.raises(ValueError):
            OrderSpec(nb=0, nc=1, nd=1, nf=1)


class TestFitOutputError:
    def test_recovers_first_order_truth(self):
        u, y = noisy_step_response([0.0, 0.5], [1.0, -0.8])
        fit = fit_output_error(u, y, OrderSpec(nb=1, nc=1, nd=1, nf=1, nk=1))
        assert fit.model.b[1] == pytest.approx(0.5, abs=1e-3)
        assert fit.model.f[1] == pytest.approx(-0.8, abs=1e-3)
        assert fit.converged

    def test_recovers_second_order_truth(self):
        b_true = [0.0, 0.4, -0.3]
        f_true = [1.0, -1.1, 0.3]
        u, y = noisy_step_response(b_true, f_true)
        fit = fit_output_error(u, y, "22221")
        assert np.allclose(fit.model.b, b_true, atol=1e-3)
        assert np.allclose(fit.model.f, f_true, atol=1e-3)

    def test_all_zero_output_gives_zero_model(self):
        u = step_input()
        fit = fit_output_error(u, np.zeros_like(u), "22221")
        assert np.allclose(fit.model.b, 0.0, atol=1e-12)
        assert np.allclose(fit.sim_residuals, 0.0, atol=1e-12)

    def test_residual_norm_nonincreasing_with_order(self):
        rng = np.random.default_rng(6)
        u = step_input(500)
        truth = scipy.signal.lfilter([0.0, 0.3, -0.1], [1.0, -1.3, 0.42], u)
        y = truth + 0.05 * rng.standard_normal(u.size)
        dataset = TimeSeriesDataset(np.arange(u.size), u, u.copy(), y)
        family = identify_family(dataset)
        norms = [
            float(np.sum(family.fits[(lbl, "y")].sim_residuals ** 2))
            for lbl in ("22221", "33331", "44441", "55551")
        ]
        for lower, higher in zip(norms, norms[1:]):
            assert higher <= lower + 1e-6 * max(lower, 1.0)

    def test_short_data_rejected_with_minimum_length(self):
        with pytest.raises(ValueError, match="at least"):
            fit_output_error(np.ones(30), np.ones(30), "22221")

    def test_warm_start_of_wrong_size_rejected(self):
        u, y = noisy_step_response([0.0, 0.4, -0.3], [1.0, -1.1, 0.3])
        with pytest.raises(ValueError, match="warm_start"):
            fit_output_error(u, y, "22221", warm_start=np.zeros(3))

    def test_deterministic_given_seed(self):
        u, y = noisy_step_response([0.0, 0.4, -0.3], [1.0, -1.1, 0.3], noise=0.05)
        a = fit_output_error(u, y, "22221", seed=3)
        b = fit_output_error(u, y, "22221", seed=3)
        assert np.array_equal(a.model.b, b.model.b)
        assert np.array_equal(a.model.f, b.model.f)

    def test_gain_invariance_under_common_scaling(self):
        u, y = noisy_step_response([0.0, 0.4, -0.3], [1.0, -1.1, 0.3], noise=0.02)
        base = fit_output_error(u, y, "22221", seed=1)
        scaled = fit_output_error(5.0 * u, 5.0 * y, "22221", seed=1)
        assert np.allclose(base.model.b, scaled.model.b, rtol=1e-6, atol=1e-9)
        assert np.allclose(base.model.f, scaled.model.f, rtol=1e-6, atol=1e-9)

    def test_returned_f_is_stable(self):
        rng = np.random.default_rng(44)
        for seed in range(5):
            u = rng.standard_normal(300)
            y = scipy.signal.lfilter([0, 0.2, 0.1], [1.0, -1.85, 0.855], u)
            y = y + 0.1 * rng.standard_normal(300)
            fit = fit_output_error(u, y, "22221", seed=seed)
            assert np.max(pole_magnitudes(fit.model.f)) < 1.0 + 1e-9


def random_stable_f(rng, nf, max_radius=0.9):
    """Tail of a monic F with conjugate-pair or real poles."""
    poles = []
    while len(poles) < nf:
        radius = rng.uniform(0.1, max_radius)
        if nf - len(poles) >= 2 and rng.random() < 0.5:
            angle = rng.uniform(0.1, 3.0)
            poles += [radius * np.exp(1j * angle), radius * np.exp(-1j * angle)]
        else:
            poles.append(radius * rng.choice([-1.0, 1.0]))
    return np.real(np.poly(poles))[1:]


class TestAnalyticJacobian:
    @pytest.mark.parametrize("label", ["22221", "33331", "44441", "55551"])
    @pytest.mark.parametrize("nk", [0, 1, 2])
    def test_matches_central_difference(self, label, nk):
        spec = OrderSpec.from_label(label)
        rng = np.random.default_rng(100 * spec.nb + nk)
        u = rng.standard_normal(300)
        y = rng.standard_normal(300)
        residual, jacobian = _oe_problem(u, y, nk, spec.nb)
        for _ in range(3):
            f = random_stable_f(rng, spec.nf)
            r = residual(f)
            jac = jacobian(f, r)
            # Kaufman's dropped term is orthogonal to r, so 2 J^T r is the
            # exact gradient of ||r(f)||^2
            grad = np.empty(f.size)
            for i in range(f.size):
                h = 1e-6 * (1.0 + abs(f[i]))
                up, dn = f.copy(), f.copy()
                up[i] += h
                dn[i] -= h
                rp, rm = residual(up), residual(dn)
                grad[i] = (rp @ rp - rm @ rm) / (2.0 * h)
            assert np.max(np.abs(2.0 * jac.T @ r - grad)) < 1e-5 * np.max(np.abs(grad))
            # and its columns lie off the range of the regressors
            phi = _delayed(scipy.signal.lfilter([1.0], np.concatenate([[1.0], f]), u), nk, spec.nb)
            cosines = (phi.T @ jac) / np.outer(
                np.linalg.norm(phi, axis=0), np.linalg.norm(jac, axis=0)
            )
            assert np.max(np.abs(cosines)) < 1e-12


class TestFitNoiseModel:
    def test_white_residuals_give_flat_noise_shape(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(2000)
        c, d = fit_noise_model(v, nc=2, nd=2)
        w = np.linspace(0.0, np.pi, 64)
        h = frequency_response(DiscreteTransferFunction(c, d, 1.0), w)
        assert np.all(np.abs(np.abs(h) - 1.0) < 0.1)

    def test_zero_residuals_identity(self):
        c, d = fit_noise_model(np.zeros(100), nc=2, nd=2)
        assert c.tolist() == [1.0, 0.0, 0.0]
        assert d.tolist() == [1.0, 0.0, 0.0]

    def test_ar1_pole_recovered(self):
        rng = np.random.default_rng(21)
        e = rng.standard_normal(4000)
        v = scipy.signal.lfilter([1.0], [1.0, -0.9], e)
        c, d = fit_noise_model(v, nc=1, nd=1)
        assert d[1] == pytest.approx(-0.9, abs=0.05)

    def test_noise_poles_stay_inside_unit_circle(self):
        rng = np.random.default_rng(31)
        # near-integrated residuals push the raw estimate at the circle
        v = np.cumsum(rng.standard_normal(1500)) + rng.standard_normal(1500)
        c, d = fit_noise_model(v, nc=2, nd=2)
        assert np.max(pole_magnitudes(d)) < 1.0 + 1e-9
        assert np.max(pole_magnitudes(c)) < 1.0 + 1e-9
        # the boundary that C and D share with F
        assert lti.is_stable(c) and lti.is_stable(d)

    def test_short_residuals_rejected(self):
        with pytest.raises(ValueError):
            fit_noise_model(np.ones(10), nc=2, nd=2)


class TestIdentifyFamily:
    def _twin_dataset(self, noise=0.05, seed=2):
        params = PeltierParams(alpha=0.0825, r_ohm=3.3, k_cond=0.35, c_heat=31.93)
        cfg = SimConfig(
            setpoint=50.0,
            duration=400.0,
            sensor=SensorConfig(noise_std=noise, seed=seed),
            label="50",
        )
        return simulate_closed_loop(params, cfg)

    def test_full_family_on_twin_data(self):
        dataset = self._twin_dataset()
        family = identify_family(dataset)
        assert sorted(family.fits) == [
            (label, ch) for label in ("22221", "33331", "44441", "55551") for ch in ("u", "y")
        ]
        assert not family.errors
        for (label, channel), fit in family.fits.items():
            assert np.max(pole_magnitudes(fit.model.f)) < 1.0 + 1e-9
            assert fit.model.n_params == 4 * int(label[0])
            assert len(fit.sim_residuals) == len(dataset)
            innovations = sysid.innovations(fit, dataset.r, getattr(dataset, channel))
            assert len(innovations) == len(dataset)

    def test_fit_beats_trivial_mean_predictor(self):
        dataset = self._twin_dataset()
        family = identify_family(dataset)
        trivial_y = float(np.sum((dataset.y - dataset.y.mean()) ** 2))
        trivial_u = float(np.sum((dataset.u - dataset.u.mean()) ** 2))
        for label in {label for label, _ in family.fits}:
            assert np.sum(family.fits[(label, "y")].sim_residuals ** 2) <= trivial_y
            assert np.sum(family.fits[(label, "u")].sim_residuals ** 2) <= trivial_u

    def test_constant_dataset_yields_static_gain(self):
        n = 200
        t = np.arange(n, dtype=float)
        r = np.full(n, 2.0)
        dataset = TimeSeriesDataset(t, r, r.copy(), r.copy(), label="flat")
        family = identify_family(dataset, order_labels=("22221",))
        fit = family.fits[("22221", "y")]
        # the one-sample input delay makes y(0) unmatchable from r; the rest
        # of the record is reproduced exactly by a static-gain model
        assert np.allclose(fit.sim_residuals[1:], 0.0, atol=1e-6)
        tf = family.fits[("22221", "y")].model.deterministic_tf(dataset.sample_time)
        gain = frequency_response(tf, [0.0])[0]
        assert abs(gain - 1.0) < 1e-6

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_refused_before_the_first_fit(self, seed, monkeypatch):
        # refused before any fit: numpy's refusal inside each fit would be
        # recorded as fit failures, leaving a family with no fit
        fits = []
        monkeypatch.setattr(sysid, "fit_output_error", lambda *args: fits.append(args))
        u = step_input(100)
        dataset = TimeSeriesDataset(np.arange(100.0), u, u, u)
        with pytest.raises(ValueError, match=re.escape(f"seed must be >= 0 and an integer, not {seed!r}")):
            identify_family(dataset, seed=seed)
        assert fits == []

    def test_sim_residuals_are_the_free_run_errors_bit_for_bit(self):
        # scoring prices each fit's sim_residuals in place of simulating its
        # model again, so they must equal the free-run errors to the last bit
        rng = np.random.default_rng(31)
        step = np.where(np.arange(500) >= 10, 1.0, 0.0)
        truth = scipy.signal.lfilter([0.0, 0.3, -0.1], [1.0, -1.3, 0.42], step)
        noisy = truth + 0.05 * rng.standard_normal(500)
        dataset = TimeSeriesDataset(
            np.arange(500.0), step, step.copy(), noisy, label="oracle"
        )
        family = identify_family(dataset, seed=0)
        assert len(family.fits) == 8
        channels = {"y": dataset.y, "u": dataset.u}
        for (label, ch), fit in family.fits.items():
            free_run = channels[ch] - sysid.lfilter(fit.model.b, fit.model.f, dataset.r)
            assert np.array_equal(
                fit.sim_residuals.view(np.uint64), free_run.view(np.uint64)
            ), (label, ch)

    def test_prediction_residuals_whiter_than_simulation(self):
        rng = np.random.default_rng(5)
        u = step_input(600)
        clean = scipy.signal.lfilter([0.0, 0.5], [1.0, -0.9], u)
        colored = scipy.signal.lfilter([1.0], [1.0, -0.8], rng.standard_normal(600))
        y = clean + 0.2 * colored
        dataset = TimeSeriesDataset(np.arange(600), u, u.copy(), y)
        family = identify_family(dataset, order_labels=("22221",))
        fit = family.fits[("22221", "y")]
        # the noise model whitens: adjacent-sample correlation should drop
        def lag1(x):
            x = x - x.mean()
            return abs(float(np.dot(x[1:], x[:-1]) / np.dot(x, x)))

        assert lag1(sysid.innovations(fit, dataset.r, dataset.y)) < lag1(fit.sim_residuals)

    def test_output_error_fit_counts_the_noise_order_it_leaves_unfitted(self):
        u = step_input(200)
        y = scipy.signal.lfilter([0.0, 0.5], [1.0, -0.9], u)
        fit = fit_output_error(u, y, "21331")
        # C = D = 1, carrying the zero taps that make n_params nb + nc + nd + nf
        assert list(fit.model.c) == [1.0, 0.0]
        assert list(fit.model.d) == [1.0, 0.0, 0.0, 0.0]
        assert fit.model.n_params == 2 + 1 + 3 + 3


SHIPPED_SETPOINTS = (30, 50, 70, 90)

# Both winners are the zero-padded 44441 warm start, a near pole-zero
# cancellation that LM leaves after 3 iterations.  Its first steps are damped
# by lambda * diag(J^T J), whose diagonal is near 1e12 there, while the descent
# lies along directions of curvature 1e1-1e3, so each step lowers the cost by
# less than the 1e-10 relative drop that stops the search.
STUCK_WARM_STARTS = {
    ("dataset_50", "55551", "u"): 2.1e-5,
    ("dataset_70", "55551", "y"): 1.2e-5,
}


def _shipped_cases():
    for setpoint in SHIPPED_SETPOINTS:
        for label in DEFAULT_ORDER_LABELS:
            for channel in ("y", "u"):
                key = (f"dataset_{setpoint}", label, channel)
                marks = []
                if key in STUCK_WARM_STARTS:
                    reason = (
                        "warm start stops at a cancellation point the polish "
                        f"lowers by {STUCK_WARM_STARTS[key]:.1e} relative"
                    )
                    marks = [pytest.mark.xfail(strict=True, reason=reason)]
                yield pytest.param(*key, marks=marks, id="-".join(key))


@pytest.fixture(scope="module")
def shipped_campaign(tmp_path_factory):
    """Families of the shipped campaign at sensor seed 0, as ``discriminate``
    fits them, and the outcome of every LM run behind their fits."""
    out = tmp_path_factory.mktemp("shipped")
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert cli.main(
        [
            "simulate",
            "--config", str(configs / "twin_default.ini"),
            "--params", str(configs / "peltier_matched.ini"),
            "--out-dir", str(out),
            "--seed", "0",
        ]
    ) == 0
    outcomes = []

    def recording(*args):
        search = multistart(*args)
        outcomes.extend(search[1])
        return search

    fits = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysid, "multistart", recording)
        for setpoint in SHIPPED_SETPOINTS:
            dataset = read_csv(out / f"dataset_{setpoint}.csv")
            family = identify_family(dataset)
            assert not family.errors
            for (label, channel), fit in family.fits.items():
                fits[(dataset.label, label, channel)] = (dataset, fit)
    return fits, outcomes


def _joint_polish_cost(fit, u, y):
    """Cost after polishing B and F together with MINPACK's LM."""
    nk = fit.model.delay
    b0 = fit.model.b[nk:]
    nb = b0.size

    def polynomials(theta):
        return np.concatenate([np.zeros(nk), theta[:nb]]), np.concatenate([[1.0], theta[nb:]])

    def residual(theta):
        b, f = polynomials(theta)
        return y - scipy.signal.lfilter(b, f, u)

    def jacobian(theta):
        b, f = polynomials(theta)
        uf = scipy.signal.lfilter([1.0], f, u)
        yf = scipy.signal.lfilter([1.0], f, scipy.signal.lfilter(b, f, u))
        return np.hstack([-_delayed(uf, nk, nb), _delayed(yf, 1, f.size - 1)])

    theta0 = np.concatenate([b0, fit.model.f[1:]])
    sol = scipy.optimize.least_squares(
        residual, theta0, jacobian, method="lm", ftol=1e-15, xtol=1e-15, gtol=1e-15
    )
    return 2.0 * sol.cost


class TestShippedCampaign:
    @pytest.mark.parametrize("dataset, label, channel", list(_shipped_cases()))
    def test_winner_is_a_local_optimum(self, shipped_campaign, dataset, label, channel):
        fits, _ = shipped_campaign
        data, fit = fits[(dataset, label, channel)]
        polished = _joint_polish_cost(fit, data.r, data.y if channel == "y" else data.u)
        cost = float(fit.sim_residuals @ fit.sim_residuals)
        assert polished >= cost * (1.0 - 1e-6)

    def test_every_winner_is_inside_the_margin_the_nugap_accepts(self, shipped_campaign):
        fits, _ = shipped_campaign
        for _, fit in fits.values():
            assert lti.is_stable(fit.model.f)
            nugap._poles(fit.model.deterministic_tf(1.0))  # raises if refused

    def test_no_lm_run_stops_at_the_iteration_cap(self, shipped_campaign):
        _, outcomes = shipped_campaign
        # 32 fits of 5 starts each, and a warm start in all but the 8 lowest-order fits
        assert len(outcomes) == 184
        assert [o[3] for o in outcomes if o is not None].count("iteration_cap") == 0


class TestReferenceFamilyFixture:
    def test_fixture_loads_exactly_as_printed(self):
        for label, channels in REFERENCE_FAMILY_50C.items():
            for channel, rows in channels.items():
                model = bj_from_rows(rows)
                for name in "bcdf":
                    assert getattr(model, name).tolist() == [float(x) for x in rows[name]]
                assert model.delay == 1
                assert model.b[0] == 0.0

    def test_fixture_row_lengths_follow_the_printout(self):
        # the order-2 rows carry three printed coefficients (delay zero + 2)
        assert len(REFERENCE_FAMILY_50C["22221"]["y"]["b"]) == 3
        assert len(REFERENCE_FAMILY_50C["55551"]["y"]["b"]) == 6

    def test_order2_y_channel_is_bounded_but_slow(self):
        model = bj_from_rows(REFERENCE_FAMILY_50C["22221"]["y"])
        mags = pole_magnitudes(model.f)
        assert np.all(mags < 1.0)
        y = sysid.lfilter(model.b, model.f, np.ones(500))
        assert np.all(np.isfinite(y))

    def test_one_step_residuals_shape(self):
        model = bj_from_rows(REFERENCE_FAMILY_50C["22221"]["y"])
        u = step_input(120)
        y = sysid.lfilter(model.b, model.f, u)
        res = one_step_residuals(model, u, y)
        assert res.shape == y.shape
        assert np.allclose(res, 0.0, atol=1e-12)

    def test_bj_validation(self):
        with pytest.raises(ValueError):
            BoxJenkinsModel(b=[0.5, 1.0], c=[1.0], d=[1.0], f=[1.0, -0.5], delay=1)
        with pytest.raises(ValueError):
            BoxJenkinsModel(b=[0.0, 1.0], c=[2.0, 1.0], d=[1.0], f=[1.0], delay=1)
