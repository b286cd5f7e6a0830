import math

import numpy as np
import pytest

from twindisc.criteria import bic, criteria_report, mdl, naic, simo_criteria


def report(residuals, n_params=0, **kw):
    return criteria_report(residuals, n_params, **kw)


class TestLossFunction:
    def test_unit_mean_square(self):
        assert report([1.0, -1.0, 1.0, -1.0]).loss == 1.0

    def test_zero_residuals(self):
        assert report([0.0, 0.0]).loss == 0.0

    def test_direct_arithmetic(self):
        assert report([3.0, 4.0]).loss == pytest.approx(12.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = rng.normal(0.0, 3.0, size=rng.integers(2, 200))
            brute = sum(x * x for x in r) / len(r)
            assert report(r).loss == pytest.approx(brute, rel=1e-12)


class TestNaic:
    def test_zero_for_unit_loss_no_params(self):
        assert report([1.0, -1.0], n_params=0).naic == 0.0

    def test_direct_formula(self):
        assert report([1.0, -1.0, 1.0, -1.0], n_params=2).naic == pytest.approx(1.0)
        assert naic(math.e, 3, 6) == pytest.approx(2.0)

    def test_zero_loss_sentinel(self):
        zero = report([0.0, 0.0, 0.0], n_params=1)
        assert zero.naic == naic(0.0, 1, 3) == -math.inf
        assert zero.bic == -math.inf
        assert zero.zero_loss


class TestBic:
    def test_direct_formula_evaluation(self):
        ones = report([1.0] * 10, n_params=2)
        expected = 10 * (math.log(2 * math.pi) + 1) + 2 * math.log(10)
        assert ones.bic == pytest.approx(expected)
        assert ones.bic == pytest.approx(32.9839, abs=2e-4)
        assert bic(1.0, 2, 10) == ones.bic

    def test_parameter_increment_adds_log_n(self):
        base = report([0.5, -0.25, 0.75, 1.0], n_params=3)
        more = report([0.5, -0.25, 0.75, 1.0], n_params=4)
        assert more.bic - base.bic == pytest.approx(math.log(4))


class TestMdl:
    def test_unit_at_natural_sample_count(self):
        assert mdl(1.0, 0, math.e) == pytest.approx(1.0)

    def test_direct_substitution(self):
        n = 37
        assert mdl(2.0, n, n) == pytest.approx(4.0 * math.log(n))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="mdl needs at least 2 samples"):
            report([1.0])
        with pytest.raises(ValueError, match="mdl needs at least 2 samples"):
            mdl(1.0, 0, 1)

    def test_zero_loss_gives_zero(self):
        assert report([0.0, 0.0, 0.0]).mdl == 0.0


class TestProperties:
    def test_all_criteria_increase_with_n_params(self):
        rng = np.random.default_rng(8)
        residuals = rng.normal(0.0, 2.0, size=64)
        for p in range(0, 12):
            a, b = report(residuals, n_params=p), report(residuals, n_params=p + 1)
            assert b.naic > a.naic
            assert b.bic > a.bic
            assert b.mdl > a.mdl

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        residuals = rng.normal(0.0, 1.0, size=100)
        shuffled = rng.permutation(residuals)
        a, b = report(residuals, 3), report(shuffled, 3)
        assert a.naic == pytest.approx(b.naic)
        assert a.bic == pytest.approx(b.bic)

    def test_ranking_invariant_to_naic_form_on_decisive_family(self):
        # with loss gaps that dominate the parameter penalty (the situation
        # the identified families produce when an order genuinely wins), nAIC
        # ranks the family by its loss, as any increasing function of log V
        # with the same penalty would
        rng = np.random.default_rng(40)
        n = 400
        base = rng.normal(0.0, 1.0, size=n)
        family = [
            (base * scale, 4 * order)
            for order, scale in zip(range(2, 6), (3.0, 1.0, 1.4, 1.9))
        ]
        scored = [report(r, p) for r, p in family]
        assert int(np.argmin([s.naic for s in scored])) == 1
        assert int(np.argmin([s.loss for s in scored])) == 1

    def test_oracle_equivalence_on_random_summaries(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            residuals = rng.normal(0.0, rng.uniform(0.01, 10.0), size=n)
            p = int(rng.integers(0, 20))
            scored = report(residuals, p)
            loss = float(np.mean(np.square(residuals)))
            assert scored.naic == pytest.approx(math.log(loss) + 2 * p / n, rel=1e-9)
            assert scored.bic == pytest.approx(
                n * math.log(loss) + n * (math.log(2 * math.pi) + 1) + p * math.log(n),
                rel=1e-9,
            )
            assert scored.mdl == pytest.approx(
                loss * (1 + p / n) * math.log(n), rel=1e-9
            )


class TestCriteriaReport:
    def test_sample_count_is_residual_length(self):
        # N enters through the penalties: unit loss and no parameters leave
        # mdl = ln N and bic = N (ln 2 pi + 1)
        scored = report(np.ones(3))
        assert scored.mdl == pytest.approx(math.log(3))
        assert scored.bic == pytest.approx(3 * (math.log(2 * math.pi) + 1))

    def test_validation(self):
        with pytest.raises(ValueError, match="need at least one residual"):
            report([])
        with pytest.raises(ValueError, match="residuals must be finite"):
            report([np.inf])
        with pytest.raises(ValueError, match="n_params must be >= 0"):
            report([1.0, 2.0], n_params=-1)


class TestSimoCriteria:
    def test_identical_channels_score_alike(self):
        res = 0.1 * np.random.default_rng(21).standard_normal(120)
        y, u = simo_criteria((res, res.copy()), n_params=4)
        assert y == u == criteria_report(res, n_params=4)

    def test_perfect_model_sentinels(self):
        y, u = simo_criteria((np.zeros(100), np.zeros(100)), n_params=4)
        for channel in (y, u):
            assert channel.zero_loss
            assert channel.naic == channel.bic == -math.inf
            assert channel.mdl == 0.0
