import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twindisc.lti import DiscreteTransferFunction, SimoModel, is_stable
from twindisc.nugap import (
    DEFAULT_GRID_SIZE,
    MAX_GRID_SIZE,
    argmin_cumulative,
    nugap,
    select_nominal,
    _chordal_grid,
    _poles,
    _response_columns,
    _winding_number,
)

from helpers import random_simo, random_stable_tf, static_gain_model


def grassmann_distance(p1, p2):
    """Independent oracle: sine of the angle between the graph subspaces."""
    a = np.concatenate([[1.0], np.asarray(p1, dtype=complex).ravel()])
    b = np.concatenate([[1.0], np.asarray(p2, dtype=complex).ravel()])
    cos2 = abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)
    return float(np.sqrt(max(1.0 - cos2, 0.0)))


@st.composite
def stable_tfs(draw):
    """Strictly proper channel of degree 1-3, every pole within radius 0.9."""
    degree = draw(st.integers(1, 3))
    roots = draw(st.lists(st.floats(-0.9, 0.9), min_size=degree, max_size=degree))
    if degree >= 2 and draw(st.booleans()):
        pole = draw(st.floats(0.1, 0.9)) * np.exp(1j * draw(st.floats(0.0, np.pi)))
        roots[:2] = [pole, np.conj(pole)]
    den = np.real(np.poly(roots))
    num = [0.0] + draw(st.lists(st.floats(-1.0, 1.0), min_size=degree, max_size=degree))
    return DiscreteTransferFunction(num, den, 1.0)


stable_simos = st.builds(SimoModel, tf_y=stable_tfs(), tf_u=stable_tfs())


def chordal_distance(p1, p2):
    """Chordal distance of two m x 1 responses, each passed as one column."""
    p1, p2 = (np.asarray(p, dtype=complex).reshape(-1, 1) for p in (p1, p2))
    return float(_chordal_grid(p1, p2)[0])


def narrow_bump_pair(rng):
    """A base model and a copy whose y channel adds a lightly damped mode.

    The mode's pole pair sits at radius 1 - 10^U(-4,-2), so its peak can be
    far narrower than the default grid spacing; the zero pair at the same
    angle, a little further in, leaves a 0.3 gain away from the resonance.
    """
    base = random_simo(rng, degree=2)
    radius = 1.0 - 10.0 ** rng.uniform(-4.0, -2.0)
    angle = rng.uniform(0.0, np.pi)

    def ring(r):
        return np.array([1.0, -2.0 * r * np.cos(angle), r * r])

    num, den = base.tf_y.numerator, base.tf_y.denominator
    mode_num = 0.3 * ring(1.0 - 3.0 * (1.0 - radius))
    tf_y = DiscreteTransferFunction(
        np.convolve(num, ring(radius)) + np.convolve(mode_num, den),
        np.convolve(den, ring(radius)),
        base.sample_time,
    )
    return SimoModel(tf_y=tf_y, tf_u=base.tf_u), base


def dense_winding(a, b, n=2**20):
    """Oracle: encirclements of the origin by 1 + P2* P1 over the full circle,
    from the phase steps on n uniform frequencies in [0, pi].  The loop is
    real at 0 and pi, and the lower half mirrors the upper."""
    x = np.exp(-1j * np.linspace(0.0, np.pi, n))

    def response(tf):
        return np.polyval(tf.numerator[::-1], x) / np.polyval(tf.denominator[::-1], x)

    pairs = ((a.tf_y, b.tf_y), (a.tf_u, b.tf_u))
    g = 1.0 + sum(np.conj(response(q)) * response(p) for p, q in pairs)
    return int(np.round(np.sum(np.angle(g[1:] * np.conj(g[:-1]))) / np.pi))


def admissible_pair(rng, degree):
    """A random model and a copy with its numerators scaled by 1.02: the two
    stay close, so the pair meets the winding condition."""
    a = random_simo(rng, degree=degree)
    tfs = [DiscreteTransferFunction(tf.numerator * 1.02, tf.denominator, tf.sample_time)
           for tf in (a.tf_y, a.tf_u)]
    return a, SimoModel(*tfs)


def scalar(gain, pole):
    """gain / (z - pole) at a sample time of 1."""
    return DiscreteTransferFunction([0.0, gain], [1.0, -pole], 1.0)


def dense_gap(a, b):
    """Oracle: the largest chordal distance on 2^17 uniform frequencies plus
    2^14 within 0.02 rad of every pole angle of either model."""
    angles = np.unique(
        [abs(np.angle(p)) for m in (a, b) for tf in (m.tf_y, m.tf_u)
         for p in np.roots(tf.denominator)]
    )
    near = (angles[:, None] + np.linspace(-0.02, 0.02, 2**14)).ravel()
    w = np.concatenate([np.linspace(0.0, np.pi, 2**17), np.clip(near, 0.0, np.pi)])
    return float(np.max(_chordal_grid(_response_columns(a, w), _response_columns(b, w))))


class TestChordalDistance:
    def test_identical_responses(self):
        assert chordal_distance([1 + 2j, 0.5], [1 + 2j, 0.5]) == 0.0

    def test_scalar_zero_vs_one(self):
        assert chordal_distance([0.0], [1.0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_scalar_antipodal(self):
        assert chordal_distance([1.0], [-1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_subspace_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            m = int(rng.integers(1, 4))
            p1 = rng.normal(size=m) + 1j * rng.normal(size=m)
            p2 = rng.normal(size=m) + 1j * rng.normal(size=m)
            assert chordal_distance(p1, p2) == pytest.approx(
                grassmann_distance(p1, p2), rel=1e-9, abs=1e-12
            )


class TestNugap:
    def test_self_distance_is_exactly_zero(self):
        rng = np.random.default_rng(1)
        model = random_simo(rng, degree=3)
        assert nugap(model, model, grid_size=128) == 0.0

    def test_static_gains_closed_form(self):
        gap = nugap(static_gain_model(0.0), static_gain_model(1.0), grid_size=256)
        assert gap == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(2)
        pairs = [(random_simo(rng, degree=2), random_simo(rng, degree=3)) for _ in range(20)]
        # about a third of the random pairs fail the winding condition and
        # score 1.0; the close pairs always reach the peak refinement
        close = [admissible_pair(rng, degree=3) for _ in range(10)]
        for a, b in pairs + close:
            g_ab = nugap(a, b, grid_size=256)
            g_ba = nugap(b, a, grid_size=256)
            assert 0.0 <= g_ab <= 1.0
            assert g_ab == pytest.approx(g_ba, abs=1e-9)
        assert all(nugap(a, b, grid_size=256) < 1.0 for a, b in close)

    def test_swapping_models_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = random_simo(rng, degree=2), random_simo(rng, degree=3)
            assert nugap(a, b, grid_size=256) == nugap(b, a, grid_size=256)

    def test_narrow_resonances_match_dense_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            a, b = narrow_bump_pair(rng)
            assert nugap(a, b) >= dense_gap(a, b) - 1e-7

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            a, b, c = (random_simo(rng, degree=2) for _ in range(3))
            gab = nugap(a, b, grid_size=256)
            gbc = nugap(b, c, grid_size=256)
            gac = nugap(a, c, grid_size=256)
            assert gac <= gab + gbc + 1e-6

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(stable_simos, stable_simos)
    def test_symmetry_property(self, a, b):
        g_ab = nugap(a, b, grid_size=256)
        assert 0.0 <= g_ab <= 1.0
        assert g_ab == pytest.approx(nugap(b, a, grid_size=256), abs=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(stable_simos, stable_simos, stable_simos)
    def test_triangle_inequality_property(self, a, b, c):
        gab = nugap(a, b, grid_size=256)
        gbc = nugap(b, c, grid_size=256)
        gac = nugap(a, c, grid_size=256)
        assert gac <= gab + gbc + 1e-6

    def test_grid_doubling_stability(self):
        rng = np.random.default_rng(4)
        pairs = [(random_simo(rng, degree=3), random_simo(rng, degree=3)) for _ in range(10)]
        close = [admissible_pair(rng, degree=3) for _ in range(10)]
        for a, b in pairs + close:
            g1 = nugap(a, b, grid_size=512)
            g2 = nugap(a, b, grid_size=1024)
            assert abs(g1 - g2) < 1e-3
        assert all(nugap(a, b, grid_size=512) < 1.0 for a, b in close)

    def test_sample_time_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        a = random_simo(rng, degree=2, sample_time=1.0)
        b = random_simo(rng, degree=2, sample_time=0.5)
        with pytest.raises(ValueError):
            nugap(a, b)

    def test_sample_times_of_a_clock_that_starts_late_are_shared(self):
        rng = np.random.default_rng(5)
        a = random_simo(rng, degree=2, sample_time=0.1)
        b = random_simo(rng, degree=2, sample_time=1000.1 - 1000.0)
        assert 0.0 <= nugap(a, b) <= 1.0

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            nugap(static_gain_model(0.0), static_gain_model(1.0), grid_size=32)

    def test_grid_above_bound_rejected(self):
        with pytest.raises(ValueError, match=f"grid_size must be >= 64 and <= {MAX_GRID_SIZE}"):
            nugap(static_gain_model(0.0), static_gain_model(1.0), grid_size=MAX_GRID_SIZE + 1)

    def test_unit_circle_pole_raises(self):
        integrator = DiscreteTransferFunction([0.0, 1.0], [1.0, -1.0], 1.0)
        healthy = static_gain_model(1.0)
        with pytest.raises(ValueError, match="has a pole within"):
            nugap(integrator, healthy, grid_size=128)

    def test_responses_too_large_to_square_are_a_value_error_without_warnings(self):
        # channels [0, g] / [1, -0.5]: the chordal distance squares a gain of 2g at DC
        def model(g, label):
            tf_y = DiscreteTransferFunction([0.0, g], [1.0, -0.5], 1.0)
            tf_u = DiscreteTransferFunction([0.0, 1.0], [1.0, -0.5], 1.0)
            return SimoModel(tf_y, tf_u, label=label)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < nugap(model(1e76, "a"), model(2e76, "b")) < 1e-70
            for g1, g2 in ((1e80, 2e80), (1e160, 1.0)):
                with pytest.raises(ValueError, match="of models 'a' and 'b' are too large"):
                    nugap(model(g1, "a"), model(g2, "b"))

    def test_every_denominator_the_search_accepts_is_evaluated(self):
        # a pole p = 1 - k * 1e-9 straddles the stability margin as k rises
        accepted = 0
        for k in range(1, 31):
            den = np.convolve([1.0, -(1.0 - k * 1e-9)], [1.0, -0.5])
            if is_stable(den):
                _poles(DiscreteTransferFunction([0.0, 1.0], den, 1.0))  # raises if refused
                accepted += 1
        assert 0 < accepted < 30

    def test_close_stable_pairs_score_below_one(self):
        rng = np.random.default_rng(6)
        base = random_stable_tf(rng, degree=2)
        num = base.numerator * 1.02
        near = DiscreteTransferFunction(num, base.denominator, base.sample_time)
        assert 0.0 < nugap(base, near, grid_size=256) < 1.0

    def test_winding_counter_on_synthetic_loop(self):
        # a delayed channel against a strong static gain drives det(I + P2* P1)
        # around the origin, so the pair fails the winding condition
        delay = DiscreteTransferFunction([0.0, 3.0], [1.0], 1.0)
        gain = DiscreteTransferFunction([3.0], [1.0], 1.0)
        omegas = np.linspace(0.0, np.pi, 512)
        winding, min_mag = _winding_number(
            _response_columns(delay, omegas), _response_columns(gain, omegas)
        )
        assert winding != 0 or min_mag < 1e-9
        assert nugap(delay, gain, grid_size=512) == 1.0

    @pytest.mark.parametrize(
        "a, b, gap",
        [
            (scalar(0.01, 2.0), scalar(0.005, 0.5), 1.0),
            (scalar(10.0, 2.0), scalar(5.0, 0.5), 20 / 101),
            (scalar(0.1, 1.001), scalar(0.1, 0.999), 200 / 10001),
        ],
        ids=["weak_unstable_mirror", "strong_unstable_mirror", "near_integrators"],
    )
    def test_winding_condition_counts_unstable_poles(self, a, b, gap):
        # one model of each pair has one pole outside the unit circle, so
        # det(1 + P2* P1) must wind once round the origin.  The weak mirror
        # pair does not, though its chordal distance peaks at 0.02; the
        # others do, and score their chordal supremum, reached at omega 0
        assert nugap(a, b) == pytest.approx(gap, rel=1e-9)
        assert nugap(b, a) == pytest.approx(gap, rel=1e-9)

    def test_narrow_bump_winding_matches_dense_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            a, b = narrow_bump_pair(rng)
            angles = np.abs(np.angle(np.concatenate([_poles(a), _poles(b)])))
            omegas = np.union1d(np.linspace(0.0, np.pi, DEFAULT_GRID_SIZE), angles)
            winding, _ = _winding_number(_response_columns(a, omegas), _response_columns(b, omegas))
            assert winding == dense_winding(a, b)


class TestSelection:
    def test_reference_cumulative_sums_pick_third_set(self):
        winner, tie = argmin_cumulative([2.93, 2.74, 2.22, 2.28])
        assert winner == 2
        assert not tie

    def test_barycenter_wins(self):
        # three perturbations of a base model in distinct directions: the base
        # sits at the family barycenter and must take the smallest sum
        ts = 1.0
        base_num = np.array([0.0, 0.5, 0.1])
        base_den = [1.0, -0.6, 0.08]

        def model(y_scale, u_scale, label):
            return SimoModel(
                tf_y=DiscreteTransferFunction(base_num * (1 + y_scale), base_den, ts),
                tf_u=DiscreteTransferFunction(base_num * (1 + u_scale), base_den, ts),
                label=label,
            )

        models = [
            model(0.0, 0.0, "base"),
            model(+0.2, 0.0, "dy+"),
            model(0.0, +0.2, "du+"),
            model(-0.2, 0.0, "dy-"),
        ]
        matrix, winner, tie = select_nominal(models, grid_size=256)
        assert winner == 0
        assert not tie
        assert matrix.cumulative[0] == min(matrix.cumulative)

    def test_two_identical_models_tie_at_lowest_index(self):
        rng = np.random.default_rng(7)
        model = random_simo(rng, degree=2)
        clone = SimoModel(tf_y=model.tf_y, tf_u=model.tf_u, label="clone")
        matrix, winner, tie = select_nominal([model, clone], grid_size=128)
        assert winner == 0
        assert tie
        assert matrix.cumulative[0] == matrix.cumulative[1]

    def test_needs_two_models(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            select_nominal([random_simo(rng)], grid_size=128)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_select_nominal_builds_a_valid_matrix(self, n):
        rng = np.random.default_rng(40 + n)
        models = [random_simo(rng, degree=1, label=i) for i in range(n)]  # 17 of 20 gaps below 1
        matrix, _, _ = select_nominal(models, grid_size=128)
        values = matrix.values
        assert values.shape == (n, n)
        assert values.tobytes() == values.T.tobytes()  # bit for bit
        assert np.diag(values).tobytes() == np.zeros(n).tobytes()
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert matrix.cumulative.tobytes() == values.sum(axis=1).tobytes()
        assert matrix.labels == tuple(str(i) for i in range(n))


def test_package_attribute_is_the_nugap_module():
    import twindisc

    assert twindisc.nugap is importlib.import_module("twindisc.nugap")
