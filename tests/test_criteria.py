import math

import numpy as np
import pytest

from twindisc.criteria import (
    ResidualSummary,
    bic,
    criteria_report,
    loss_function,
    mdl,
    mdl_value,
    naic,
    simo_criteria,
)


def rs(residuals, n_params=0):
    return ResidualSummary(residuals, n_params)


class TestLossFunction:
    def test_unit_mean_square(self):
        assert loss_function(rs([1.0, -1.0, 1.0, -1.0])) == 1.0

    def test_zero_residuals(self):
        assert loss_function(rs([0.0, 0.0])) == 0.0

    def test_direct_arithmetic(self):
        assert loss_function(rs([3.0, 4.0])) == pytest.approx(12.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = rng.normal(0.0, 3.0, size=rng.integers(2, 200))
            brute = sum(x * x for x in r) / len(r)
            assert loss_function(rs(r)) == pytest.approx(brute, rel=1e-12)


class TestNaic:
    def test_zero_for_unit_loss_no_params(self):
        assert naic(rs([1.0, -1.0], n_params=0)) == 0.0

    def test_direct_formula(self):
        assert naic(rs([1.0, -1.0, 1.0, -1.0], n_params=2)) == pytest.approx(1.0)

    def test_literal_form_keeps_leading_n(self):
        summary = rs([2.0, -2.0, 2.0, -2.0], n_params=1)
        loss = loss_function(summary)
        assert naic(summary, form="literal") == pytest.approx(
            4 * math.log(loss) + 2 * 1 / 4
        )

    def test_zero_loss_sentinel(self):
        report = criteria_report(rs([0.0, 0.0, 0.0], n_params=1))
        assert report.naic == -math.inf
        assert report.bic == -math.inf
        assert report.zero_loss

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            naic(rs([1.0]), form="other")


class TestBic:
    def test_direct_formula_evaluation(self):
        summary = rs([1.0] * 10, n_params=2)
        expected = 10 * (math.log(2 * math.pi) + 1) + 2 * math.log(10)
        assert bic(summary) == pytest.approx(expected)
        assert bic(summary) == pytest.approx(32.9839, abs=2e-4)

    def test_parameter_increment_adds_log_n(self):
        base = rs([0.5, -0.25, 0.75, 1.0], n_params=3)
        more = rs([0.5, -0.25, 0.75, 1.0], n_params=4)
        assert bic(more) - bic(base) == pytest.approx(math.log(4))


class TestMdl:
    def test_unit_at_natural_sample_count(self):
        assert mdl_value(1.0, 0, math.e) == pytest.approx(1.0)

    def test_direct_substitution(self):
        n = 37
        assert mdl_value(2.0, n, n) == pytest.approx(4.0 * math.log(n))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            mdl(rs([1.0]))

    def test_zero_loss_gives_zero(self):
        assert mdl(rs([0.0, 0.0, 0.0])) == 0.0


class TestProperties:
    def test_all_criteria_increase_with_n_params(self):
        rng = np.random.default_rng(8)
        residuals = rng.normal(0.0, 2.0, size=64)
        for p in range(0, 12):
            a, b = rs(residuals, n_params=p), rs(residuals, n_params=p + 1)
            assert naic(b) > naic(a)
            assert bic(b) > bic(a)
            assert mdl(b) > mdl(a)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        residuals = rng.normal(0.0, 1.0, size=100)
        shuffled = rng.permutation(residuals)
        assert naic(rs(residuals, 3)) == pytest.approx(naic(rs(shuffled, 3)))
        assert bic(rs(residuals, 3)) == pytest.approx(bic(rs(shuffled, 3)))

    def test_ranking_invariant_to_naic_form_on_decisive_family(self):
        # with loss gaps that dominate the parameter penalty (the situation
        # the identified families produce when an order genuinely wins), the
        # normalized and literal forms rank the family identically
        rng = np.random.default_rng(40)
        n = 400
        base = rng.normal(0.0, 1.0, size=n)
        family = [
            rs(base * scale, n_params=4 * order)
            for order, scale in zip(range(2, 6), (3.0, 1.0, 1.4, 1.9))
        ]
        for form in ("normalized", "literal"):
            scores = [naic(member, form=form) for member in family]
            assert int(np.argmin(scores)) == 1

    def test_oracle_equivalence_on_random_summaries(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            residuals = rng.normal(0.0, rng.uniform(0.01, 10.0), size=n)
            p = int(rng.integers(0, 20))
            summary = rs(residuals, p)
            loss = float(np.mean(np.square(residuals)))
            assert naic(summary) == pytest.approx(
                math.log(loss) + 2 * p / n, rel=1e-9
            )
            assert bic(summary) == pytest.approx(
                n * math.log(loss) + n * (math.log(2 * math.pi) + 1) + p * math.log(n),
                rel=1e-9,
            )
            assert mdl(summary) == pytest.approx(
                loss * (1 + p / n) * math.log(n), rel=1e-9
            )


class TestResidualSummary:
    def test_sample_count_tracks_length(self):
        assert rs([1.0, 2.0, 3.0]).n_samples == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            rs([])
        with pytest.raises(ValueError):
            rs([np.inf])
        with pytest.raises(ValueError):
            rs([1.0], n_params=-1)


class TestSimoCriteria:
    def test_identical_channels_double_the_totals(self):
        res = 0.1 * np.random.default_rng(21).standard_normal(120)
        report = simo_criteria((res, res.copy()), n_params=4)
        assert report.naic_total == pytest.approx(2 * report.y.naic)
        assert report.bic_total == pytest.approx(2 * report.y.bic)
        assert report.mdl_total == pytest.approx(2 * report.y.mdl)

    def test_perfect_model_sentinels(self):
        report = simo_criteria((np.zeros(100), np.zeros(100)), n_params=4)
        assert report.y.zero_loss and report.u.zero_loss
        assert report.naic_total == -math.inf
        assert report.mdl_total == 0.0
