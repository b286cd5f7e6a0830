"""Vinnicombe nu-gap distance between models and nominal-model selection.

The gap between two systems is the worst-case chordal distance between
their frequency responses over the unit circle, always in [0, 1], when the
pair meets Vinnicombe's winding-number condition, and 1 when it does not.
Small values mean a controller designed for one plant nearly works for the
other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lti

DEFAULT_GRID_SIZE = 2048
MAX_GRID_SIZE = 65536
_REFINE_PEAKS = 4
_REFINE_ROUNDS = 5
_REFINE_POINTS = 33


@dataclass(frozen=True, eq=False)
class NuGapMatrix:
    """Pairwise gaps of a model family plus per-model cumulative sums."""

    labels: tuple
    values: np.ndarray
    cumulative: np.ndarray


def _channels(model) -> tuple:
    if isinstance(model, lti.SimoModel):
        return (model.tf_y, model.tf_u)
    return (model,)


def _response_columns(model, omegas) -> np.ndarray:
    """Stack a model's frequency response as an (m, len(omegas)) array."""
    return np.vstack([lti.frequency_response(tf, omegas) for tf in _channels(model)])


def _label_of(model) -> str:
    return getattr(model, "label", "")


def _poles(model) -> np.ndarray:
    """Every channel's poles.  A model whose channels pass ``lti.is_stable``, as
    every fit does, is accepted; any other raises ValueError, naming the pole's
    angle, on a pole within ``lti.STABILITY_MARGIN`` of the unit circle."""
    roots = np.concatenate([np.roots(tf.denominator) for tf in _channels(model)])
    near = np.abs(np.abs(roots) - 1.0) < lti.STABILITY_MARGIN
    if np.any(near) and not all(lti.is_stable(tf.denominator) for tf in _channels(model)):
        omega = abs(np.angle(roots[np.argmax(near)]))
        raise ValueError(f"model {_label_of(model)!r} has a pole within {lti.STABILITY_MARGIN:g} "
                         f"of the unit circle near omega={omega:.6f}")
    return roots


def _chordal_grid(P1: np.ndarray, P2: np.ndarray) -> np.ndarray:
    """Chordal distance per column of (m, G) stacks.

    The sine of the angle between lines (1, P1) and (1, P2), by Lagrange's
    identity.  Products keep their operand order under a swap (complex ones
    need not commute bit for bit), so the result is symmetric bit for bit.
    """
    i, j = np.triu_indices(len(P1), 1)
    num = np.sum(np.abs(P1 - P2) ** 2, axis=0)
    num += np.sum(np.abs(P1[i] * P2[j] - P2[i] * P1[j]) ** 2, axis=0)
    den = (1.0 + np.sum(np.abs(P1) ** 2, axis=0)) * (1.0 + np.sum(np.abs(P2) ** 2, axis=0))
    return np.sqrt(num / den)


def _winding_number(P1: np.ndarray, P2: np.ndarray) -> tuple[int, float]:
    """Anticlockwise encirclements of the origin by det(I + P2* P1) as omega
    rises through [0, 2 pi], from (m, G) responses over [0, pi]."""
    g_half = 1.0 + np.sum(P2.conj() * P1, axis=0)
    # responses at negative frequencies are conjugates, so the full closed
    # contour is the upper half, its reversed conjugate, then back to start
    g = np.concatenate([g_half, g_half[-2:0:-1].conj(), g_half[:1]])
    min_mag = float(np.min(np.abs(g)))
    phase = np.unwrap(np.angle(g))
    winding = int(np.round((phase[-1] - phase[0]) / (2.0 * np.pi)))
    return winding, min_mag


def nugap(m1, m2, grid_size: int = DEFAULT_GRID_SIZE) -> float:
    """Vinnicombe's nu-gap between two models whose sample times pass ``lti.same_sample_time``.

    The search grid is ``grid_size`` uniform frequencies plus both models'
    pole angles, where a lightly damped resonance peaks.  On it the pair
    must meet the winding-number condition: det(I + P2* P1) stays off zero
    and, as omega rises, winds eta(m1) - eta(m2) times round the origin,
    eta counting the poles outside the unit circle.  A pair that fails
    scores 1.0.  Otherwise the gap is the worst-case chordal distance over
    [0, pi], whose highest local maxima on the grid are refined together on
    successively finer local grids.  For a SIMO model eta sums each
    channel's count, which is Vinnicombe's eta when the channels share no
    unstable pole.  A pair whose responses are too large for the chordal
    distance to square (a gain above about 1e77) is a ValueError.
    """
    if not 64 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be >= 64 and <= {MAX_GRID_SIZE}")
    ts1, ts2 = m1.sample_time, m2.sample_time
    if not lti.same_sample_time(ts2, ts1):
        raise ValueError(f"models must share a sample time ({ts1} != {ts2})")
    p1, p2 = _poles(m1), _poles(m2)
    try:
        with np.errstate(over="raise", invalid="raise"):  # changes no arithmetic
            return _gap(m1, m2, p1, p2, grid_size)
    except FloatingPointError as exc:  # a response too large to square or multiply
        raise ValueError(f"the responses of models {_label_of(m1)!r} and {_label_of(m2)!r} "
                         f"are too large for the chordal distance ({exc})") from None


def _gap(m1, m2, p1, p2, grid_size: int) -> float:
    """:func:`nugap` of two models whose poles are ``p1`` and ``p2``."""
    angles = np.abs(np.angle(np.concatenate([p1, p2])))
    omegas = np.union1d(np.linspace(0.0, np.pi, grid_size), angles)
    P1, P2 = _response_columns(m1, omegas), _response_columns(m2, omegas)
    winding, min_mag = _winding_number(P1, P2)
    if winding != np.sum(np.abs(p1) > 1.0) - np.sum(np.abs(p2) > 1.0) or min_mag < 1e-9:
        return 1.0

    d = _chordal_grid(P1, P2)
    edged = np.concatenate([[-np.inf], d, [-np.inf]])
    peaks = np.flatnonzero((d >= edged[:-2]) & (d >= edged[2:]))
    peaks = peaks[np.argsort(-d[peaks], kind="stable")[:_REFINE_PEAKS]]
    best = float(d.max())
    # a peak's neighbours lie within one uniform step, even where two pole angles
    # nearly coincide; each round keeps the two cells around a row's maximum
    step = np.pi / (grid_size - 1)
    lo = np.maximum(omegas[peaks] - step, 0.0)
    hi = np.minimum(omegas[peaks] + step, np.pi)
    rows = np.arange(len(peaks))
    for _ in range(_REFINE_ROUNDS):
        w = np.linspace(lo, hi, _REFINE_POINTS, axis=1)
        dw = _chordal_grid(
            _response_columns(m1, w.ravel()), _response_columns(m2, w.ravel())
        ).reshape(w.shape)
        k = np.argmax(dw, axis=1)
        best = max(best, float(dw.max()))
        lo = w[rows, np.maximum(k - 1, 0)]
        hi = w[rows, np.minimum(k + 1, _REFINE_POINTS - 1)]
    return float(min(max(best, 0.0), 1.0))


def argmin_cumulative(sums) -> tuple[int, bool]:
    """Index of the smallest cumulative sum; flags exact ties (lowest wins)."""
    sums = np.asarray(sums, dtype=float)
    winner = int(np.argmin(sums))
    tie = bool(np.sum(sums == sums[winner]) > 1)
    return winner, tie


def select_nominal(
    models, grid_size: int = DEFAULT_GRID_SIZE
) -> tuple[NuGapMatrix, int, bool]:
    """Pick the model family member closest to all others.

    Fills the gap matrix (symmetric, zero diagonal, in [0, 1]), sums each row,
    and returns both read-only, labelled by string, plus the argmin and a tie flag.
    """
    models = list(models)
    if len(models) < 2:
        raise ValueError("nominal selection needs at least 2 models")
    n = len(models)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            gap = nugap(models[i], models[j], grid_size)
            values[i, j] = gap
            values[j, i] = gap
    values.setflags(write=False)
    cumulative = values.sum(axis=1)
    cumulative.setflags(write=False)
    winner, tie = argmin_cumulative(cumulative)
    return NuGapMatrix(tuple(str(_label_of(m)) for m in models), values, cumulative), winner, tie
