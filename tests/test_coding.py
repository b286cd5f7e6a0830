import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twindisc.coding import (
    MAX_PRECISION,
    InformationGainReport,
    encode_number,
    information_gain,
    simo_information_gain,
    table_length,
)
from twindisc.lti import DiscreteTransferFunction, SimoModel, simulate
from twindisc.twin import TimeSeriesDataset


class TestEncodeNumber:
    def test_positive_two_decimals(self):
        assert encode_number(10.34) == "+1034"
        assert len(encode_number(10.34)) == 5

    def test_negative_with_leading_zeros_stripped(self):
        assert encode_number(-0.45) == "-45"
        assert len(encode_number(-0.45)) == 3

    def test_zero_is_single_character(self):
        assert encode_number(0.0) == "0"
        assert len(encode_number(0.0)) == 1

    def test_half_away_from_zero_rounding(self):
        assert encode_number(123.456) == "+12346"
        assert len(encode_number(123.456)) == 6
        assert encode_number(-123.456) == "-12346"

    def test_precision_knob(self):
        assert encode_number(10.34, 0) == "+10"
        assert encode_number(10.34, 3) == "+10340"

    def test_negative_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            encode_number(10.34, -1)

    def test_non_integer_precision_rejected(self):
        for precision in (2.5, np.int64(2), True):
            with pytest.raises(ValueError, match="precision must be >= 0 and an integer"):
                encode_number(1.234, precision)

    def test_precision_above_token_range_rejected(self):
        assert MAX_PRECISION == 18
        assert encode_number(9.0, 18) == "+9000000000000000000"
        for precision in (19, 400):
            with pytest.raises(ValueError, match="precision must be <= 18"):
                encode_number(9.0, precision)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            encode_number(float("nan"))
        with pytest.raises(ValueError):
            encode_number(float("inf"))

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            encode_number(1e19)

    @pytest.mark.parametrize("value", [1e307, -1e307])
    def test_value_whose_scaling_overflows_the_float_range_is_rejected(self, value):
        # 1e307 * 10**2 is inf, which math.floor refuses with an OverflowError
        with pytest.raises(ValueError, match="overflows the 63-bit token range"):
            encode_number(value, 2)

    def test_round_trip_recovers_rounded_value(self):
        rng = np.random.default_rng(5)
        for value in rng.uniform(-1e4, 1e4, size=200):
            token = encode_number(value)
            parsed = int(token) if token != "0" else 0
            rounded = np.sign(value) * np.floor(abs(value) * 100 + 0.5)
            assert parsed / 100.0 == rounded / 100.0

    def test_sign_symmetry(self):
        rng = np.random.default_rng(9)
        for value in rng.uniform(0.005, 1e5, size=200):
            assert len(encode_number(value)) == len(encode_number(-value))


def token_draws():
    """(value, precision) pairs: finite floats inside the 63-bit token range,
    half of them on or next to a rounding tie (k + 0.5) / 10**p."""

    def values(p):
        ties = st.integers(-(10**12), 10**12).map(lambda k: (k + 0.5) / 10**p)
        return st.one_of(st.floats(-9.2e18 / 10**p, 9.2e18 / 10**p), ties)

    return st.integers(0, 6).flatmap(lambda p: st.tuples(values(p), st.just(p)))


class TestCodecProperties:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(token_draws())
    def test_token_is_the_rounded_scaled_value(self, draw):
        x, p = draw
        token = encode_number(x, p)
        magnitude = math.floor(abs(x) * 10**p + 0.5)
        assert int(token) == (-magnitude if x < 0 else magnitude)
        if token != "0":
            assert token[0] in "+-" and token[1:].isdigit() and token[1] != "0"
        mirrored = encode_number(-x, p)
        assert mirrored[1:] == token[1:]
        if token == "0":
            assert mirrored == "0"
        else:
            assert {token[0], mirrored[0]} == {"+", "-"}


class TestTableLength:
    def test_sum_of_examples(self):
        assert table_length([10.34, -0.45]) == 8

    def test_empty_is_zero(self):
        assert table_length([]) == 0

    def test_repeated_entry(self):
        assert table_length([1.00] * 100) == 400  # each token "+100"

    def test_permutation_invariant_and_additive(self):
        rng = np.random.default_rng(17)
        values = rng.normal(0.0, 5.0, size=50)
        shuffled = rng.permutation(values)
        assert table_length(values) == table_length(shuffled)
        head, tail = values[:20], values[20:]
        assert table_length(values) == table_length(head) + table_length(tail)


class TestModelLengths:
    def test_trivial_length_from_examples(self):
        # program 15 + table 8
        assert information_gain([10.34, -0.45], [0.0]).l_trivial == 23

    def test_trivial_length_single_zero(self):
        # program 15 + table 1
        assert information_gain([0.0], [0.0]).l_trivial == 16

    def test_trivial_empty_rejected(self):
        with pytest.raises(ValueError, match="outputs must be non-empty"):
            information_gain([], [0.0])

    def test_perfect_model_pays_one_char_per_sample(self):
        outputs = np.linspace(1.0, 2.0, 100)
        report = information_gain(outputs, np.zeros_like(outputs))
        assert report.l_model == 176 + 100

    def test_zero_prediction_degenerates_to_trivial_table(self):
        rng = np.random.default_rng(2)
        outputs = rng.normal(10.0, 3.0, size=64)
        report = information_gain(outputs, outputs)  # predicting zero leaves the outputs
        assert report.l_model - 176 == report.l_trivial - 15


class TestInformationGain:
    def test_reference_30c_order2_arithmetic(self):
        ig_y = InformationGainReport(1242, 681)
        ig_u = InformationGainReport(1019, 1014)
        assert ig_y.gain == 561
        assert ig_u.gain == 5
        assert ig_y.gain + ig_u.gain == 566

    def test_negative_gain(self):
        ig = InformationGainReport(15 + 1004, 176 + 879)
        assert ig.gain == -36

    def test_identical_lengths_give_zero(self):
        ig = InformationGainReport(15 + 85, 15 + 85)
        assert ig.gain == 0
        assert ig.explanation_degree == 0.0

    def test_gain_antimonotone_under_residual_scaling(self):
        rng = np.random.default_rng(31)
        outputs = rng.normal(20.0, 4.0, size=120)
        residuals = rng.normal(0.0, 0.5, size=120)
        small = information_gain(outputs, residuals)
        large = information_gain(outputs, 10.0 * residuals)
        assert large.gain <= small.gain

    def test_explanation_degree_max_at_zero_residuals(self):
        rng = np.random.default_rng(12)
        outputs = rng.normal(15.0, 2.0, size=80)
        perfect = information_gain(outputs, np.zeros_like(outputs))
        ceiling = (perfect.l_trivial - 176 - len(outputs)) / perfect.l_trivial
        assert perfect.explanation_degree == pytest.approx(ceiling)
        assert perfect.explanation_degree < 1.0
        noisy = information_gain(outputs, np.full_like(outputs, -0.05))
        assert noisy.explanation_degree < perfect.explanation_degree


class TestSimoInformationGain:
    def _dataset_and_residuals(self, n=200):
        ts = 1.0
        t = np.arange(n) * ts
        r = np.ones(n)
        tf_y = DiscreteTransferFunction([0.0, 0.4], [1.0, -0.6], ts)
        tf_u = DiscreteTransferFunction([0.0, 1.5, -0.5], [1.0, -0.4], ts)
        simo = SimoModel(tf_y=tf_y, tf_u=tf_u, label="demo")
        y = simulate(tf_y, r)
        u = simulate(tf_u, r)
        residuals = (y - simulate(simo.tf_y, r), u - simulate(simo.tf_u, r))
        return TimeSeriesDataset(t, r, u, y), residuals

    def test_perfect_channels_hit_program_floor(self):
        dataset, residuals = self._dataset_and_residuals()
        y, u = simo_information_gain(dataset, residuals)
        n = len(dataset)
        # each zero residual costs one character on top of the model's program
        assert (y.l_model, u.l_model) == (176 + n, 176 + n)
        assert (y.gain, u.gain) == (y.l_trivial - 176 - n, u.l_trivial - 176 - n)

    def test_pair_is_y_then_u(self):
        dataset, residuals = self._dataset_and_residuals()
        res_y, res_u = residuals
        assert simo_information_gain(dataset, residuals) == (
            information_gain(dataset.y, res_y),
            information_gain(dataset.u, res_u),
        )

    def test_row_maximum_in_reference_50c_fixture(self):
        # per-order totals from injected lengths: the order-2 row must win
        lt_y, lt_u = 2048, 1622
        rows = {
            "22221": (979, 1493),
            "33331": (1082, 1506),
            "44441": (1067, 1549),
            "55551": (1836, 1653),
        }
        totals = {
            order: (lt_y - ly) + (lt_u - lu) for order, (ly, lu) in rows.items()
        }
        assert totals["22221"] == 1069 + 129 == 1198
        assert max(totals.values()) == totals["22221"]
