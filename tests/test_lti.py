import math

import numpy as np
import pytest
import scipy.signal
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twindisc.lti import (
    STABILITY_MARGIN,
    DiscreteTransferFunction,
    SimoModel,
    frequency_response,
    coefficients,
    is_stable,
    same_sample_time,
    simulate,
)
from twindisc.sysid import denominator_band, lfilter

from helpers import REFERENCE_FAMILY_50C, pole_magnitudes, random_stable_poly, random_stable_tf


def tf(num, den, ts=1.0):
    return DiscreteTransferFunction(num, den, ts)


class TestTypes:
    def test_polynomial_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            coefficients([])
        with pytest.raises(ValueError):
            coefficients([1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            tf([1.0, np.inf], [1.0])

    def test_coefficients_are_read_only_copies(self):
        source = np.array([1.0, -0.5])
        model = tf([0.0, 1.0], source)
        source[1] = 9.0
        assert model.denominator.tolist() == [1.0, -0.5]
        assert model.denominator.dtype == np.float64
        with pytest.raises(ValueError):
            model.denominator[1] = 0.0

    def test_tf_requires_positive_sample_time(self):
        with pytest.raises(ValueError):
            tf([1.0], [1.0], ts=0.0)
        for ts in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"sample_time must be > 0 and finite, got {ts}"):
                tf([0.0, 1.0], [1.0, -0.5], ts=ts)

    def test_simo_requires_shared_sample_time(self):
        with pytest.raises(ValueError):
            SimoModel(tf_y=tf([1.0], [1.0], 1.0), tf_u=tf([1.0], [1.0], 2.0))

    def test_same_sample_time_edge(self):
        late = 1000.1 - 1000.0  # the first step of a clock that starts at 1000 s
        assert late - 0.1 == pytest.approx(2.3e-14, rel=0.02)
        assert same_sample_time(late, 0.1)
        assert not same_sample_time(1.0 + 2e-9, 1.0)
        assert same_sample_time(np.array([late, 0.1 + 1e-9]), 0.1).tolist() == [True, False]
        model = SimoModel(tf_y=tf([1.0], [1.0], 0.1), tf_u=tf([1.0], [1.0], late))
        assert model.sample_time == 0.1


def _monic_from_draw(xs):
    # scale by binomial coefficients so that stable and unstable draws both occur
    n = len(xs)
    return np.concatenate([[1.0], [math.comb(n, k + 1) * x for k, x in enumerate(xs)]])


class TestSchurCohn:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)
        )
    )
    def test_agrees_with_root_magnitudes(self, xs):
        monic = _monic_from_draw(xs)
        rho = float(np.max(np.abs(np.roots(monic))))
        assume(abs(rho - (1.0 - STABILITY_MARGIN)) > 1e-9)
        assert is_stable(monic) == (rho < 1.0 - STABILITY_MARGIN)

    def test_boundary_and_degenerate_cases(self):
        assert is_stable([1.0])
        assert is_stable([1.0, -0.5])
        assert not is_stable([1.0, -1.0])  # root on the circle
        assert not is_stable([1.0, -2.0, 1.0])  # double root at 1
        assert not is_stable([1.0, 0.0, 1.0])  # roots at +-j
        assert not is_stable([1.0, float("nan")])
        assert is_stable(np.real(np.poly([0.999, -0.999, 0.5j, -0.5j])))

    def test_refuses_a_root_inside_the_margin(self):
        assert not is_stable([1.0, -(1.0 - 1e-9)])
        assert is_stable([1.0, -(1.0 - 1e-7)])


class TestSimulate:
    def test_zero_numerator_gives_zeros(self):
        out = simulate(tf([0.0], [1.0]), [1.0, 2.0, 3.0])
        assert np.array_equal(out, np.zeros(3))

    def test_unit_delay(self):
        out = simulate(tf([0.0, 1.0], [1.0]), [1.0, 0.0, 0.0])
        assert np.array_equal(out, [0.0, 1.0, 0.0])

    def test_reference_order2_step_is_bounded(self):
        rows = REFERENCE_FAMILY_50C["22221"]["y"]
        model = tf(rows["b"], rows["f"])
        # poles sit at radius sqrt(0.999) ~ 0.99950, safely inside the circle
        mags = pole_magnitudes(model.denominator)
        assert np.allclose(mags, np.sqrt(0.999), atol=1e-12)
        y = simulate(model, np.ones(500))
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y)) < 1e3

    def test_nonmonic_denominator_rejected(self):
        # monic is part of the type: the model cannot be built, let alone simulated
        with pytest.raises(ValueError, match="z\\^0 coefficient must be 1"):
            tf([1.0], [2.0, 1.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            simulate(tf([1.0], [1.0]), [])

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_stable_tf(rng, degree=3)
            u1 = rng.normal(size=200)
            u2 = rng.normal(size=200)
            a, b = rng.normal(size=2)
            lhs = simulate(model, a * u1 + b * u2)
            rhs = a * simulate(model, u1) + b * simulate(model, u2)
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_stable_inverse_step_response_settles(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            den = random_stable_poly(rng, degree=3, max_radius=0.85)
            y = simulate(tf([1.0], den), np.ones(1000))
            first, last = y[:100], y[-100:]
            assert np.var(last) < np.var(first) + 1e-15


class TestLfilter:
    @pytest.mark.parametrize("n", [1, 2, 600])
    def test_matches_scipy_lfilter(self, n):
        rng = np.random.default_rng(n)
        dens = [np.array([1.0])] + [
            random_stable_poly(rng, degree, max_radius=0.98)
            for degree in range(1, 6)
            for _ in range(4)
        ]
        for den in dens:
            for zeros in range(3):
                num = np.concatenate([np.zeros(zeros), rng.normal(size=3)])
                x = rng.normal(size=n)
                want = scipy.signal.lfilter(num, den, x)
                got = lfilter(num, den, x)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_band_is_fortran_ordered(self):
        # a C-ordered band makes the BLAS wrapper copy it on every call
        band = denominator_band([1.0, -1.5, 0.56], 600)
        assert band.shape == (3, 600)
        assert band.flags.f_contiguous


class TestFrequencyResponse:
    def test_unity_system(self):
        w = np.linspace(0.0, np.pi, 32)
        h = frequency_response(tf([1.0], [1.0]), w)
        assert np.allclose(h, 1.0 + 0.0j)

    def test_pure_delay_is_allpass(self):
        w = np.linspace(0.0, np.pi, 64)
        h = frequency_response(tf([0.0, 1.0], [1.0]), w)
        assert np.allclose(np.abs(h), 1.0, atol=1e-12)

    def test_reference_dc_gain_is_one(self):
        rows = REFERENCE_FAMILY_50C["22221"]["y"]
        h = frequency_response(tf(rows["b"], rows["f"]), [0.0])
        # B(1)/F(1) = 0.002 / 0.002
        assert h[0] == pytest.approx(1.0, rel=1e-9)

    def test_cascade_response_is_product(self):
        rng = np.random.default_rng(3)
        w = np.linspace(0.0, np.pi, 65)
        for _ in range(15):
            t1 = random_stable_tf(rng, degree=2)
            t2 = random_stable_tf(rng, degree=3)
            cascade = tf(
                np.convolve(t1.numerator, t2.numerator),
                np.convolve(t1.denominator, t2.denominator),
            )
            lhs = frequency_response(cascade, w)
            rhs = frequency_response(t1, w) * frequency_response(t2, w)
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_grid_outside_unit_half_circle_rejected(self):
        with pytest.raises(ValueError):
            frequency_response(tf([1.0], [1.0]), [-0.1])
        with pytest.raises(ValueError):
            frequency_response(tf([1.0], [1.0]), [np.pi + 0.1])


class TestPoleMagnitudes:
    def test_single_real_root(self):
        assert pole_magnitudes([1.0, -0.5]) == pytest.approx([0.5])

    def test_conjugate_pair(self):
        mags = pole_magnitudes([1.0, 0.0, 0.25])
        assert mags == pytest.approx([0.5, 0.5])

    def test_reference_denominator_near_unit_circle(self):
        mags = pole_magnitudes([1.0, -1.997, 0.999])
        assert len(mags) == 2
        assert np.allclose(mags, np.sqrt(0.999), atol=1e-12)
        assert round(mags[0], 5) == 0.99950

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            pole_magnitudes([1.0])
        with pytest.raises(ValueError):
            pole_magnitudes([0.0, 0.0])

    def test_descending_order(self):
        mags = pole_magnitudes(np.poly([0.2, 0.9, -0.5]))
        assert np.all(np.diff(mags) <= 0)

    def test_roots_recompose_coefficients(self):
        rng = np.random.default_rng(23)
        for degree in range(1, 7):
            for _ in range(10):
                poly = random_stable_poly(rng, degree, max_radius=0.98)
                roots = np.roots(poly)
                recomposed = np.real(np.poly(roots))
                assert np.allclose(recomposed, poly, rtol=1e-6, atol=1e-9)
                assert pole_magnitudes(poly) == pytest.approx(
                    np.sort(np.abs(roots))[::-1]
                )
