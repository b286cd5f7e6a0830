"""Vinnicombe nu-gap distance between models and nominal-model selection.

The gap between two systems is the worst-case chordal distance between
their frequency responses over the unit circle, always in [0, 1].  Small
values mean a controller designed for one plant nearly works for the
other.  The default mode performs only the sup-norm maximization; the
winding-number admissibility test of the full definition is opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lti

DEFAULT_GRID_SIZE = 2048
REFINE_ITERATIONS = 20
_UNIT_CIRCLE_TOL = 1e-8


class UnitCirclePoleError(ArithmeticError):
    """A model has a pole too close to the unit circle to evaluate the gap."""

    def __init__(self, label: str, omega: float):
        self.label = label
        self.omega = float(omega)
        super().__init__(
            f"model {label!r} has a pole within {_UNIT_CIRCLE_TOL:g} of the unit "
            f"circle near omega={self.omega:.6f}"
        )


@dataclass(frozen=True, eq=False)
class NuGapMatrix:
    """Pairwise gaps of a model family plus per-model cumulative sums."""

    labels: tuple
    values: np.ndarray
    cumulative: np.ndarray

    def __init__(self, labels, values):
        values = np.asarray(values, dtype=float)
        n = values.shape[0]
        if values.shape != (n, n):
            raise ValueError("gap matrix must be square")
        if not np.allclose(values, values.T, atol=1e-12):
            raise ValueError("gap matrix must be symmetric")
        if np.any(np.diag(values) != 0.0):
            raise ValueError("self-distances must be zero")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("gap entries must lie in [0, 1]")
        values = values.copy()
        values.setflags(write=False)
        cumulative = values.sum(axis=1)
        cumulative.setflags(write=False)
        object.__setattr__(self, "labels", tuple(str(x) for x in labels))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cumulative", cumulative)


def chordal_distance(p1_response, p2_response) -> float:
    """Chordal distance between two m x 1 responses at a single frequency."""
    p1 = np.asarray(p1_response, dtype=complex).ravel()
    p2 = np.asarray(p2_response, dtype=complex).ravel()
    if p1.shape != p2.shape:
        raise ValueError("responses must have the same shape")
    return float(_chordal_grid(p1[:, None], p2[:, None])[0])


def _response_columns(model, omegas) -> np.ndarray:
    """Stack a model's frequency response as an (m, len(omegas)) array."""
    if isinstance(model, lti.SimoModel):
        return np.vstack(
            [
                lti.frequency_response(model.tf_y, omegas),
                lti.frequency_response(model.tf_u, omegas),
            ]
        )
    return np.atleast_2d(lti.frequency_response(model, omegas))


def _denominators(model):
    if isinstance(model, lti.SimoModel):
        return (model.tf_y.denominator, model.tf_u.denominator)
    return (model.denominator,)


def _label_of(model) -> str:
    return getattr(model, "label", "") or repr(model)


def _screen_unit_circle_poles(model) -> None:
    for den in _denominators(model):
        if den.degree < 1:
            continue
        roots = np.roots(den.as_array())
        mags = np.abs(roots)
        near = np.abs(mags - 1.0) < _UNIT_CIRCLE_TOL
        if np.any(near):
            k = int(np.argmax(near))
            raise UnitCirclePoleError(_label_of(model), abs(np.angle(roots[k])))


def _chordal_grid(P1: np.ndarray, P2: np.ndarray) -> np.ndarray:
    """Chordal distance per column of (m, G) stacks (rank-one form of (I + vv*)^(-1/2))."""
    w = P1 - P2
    s2 = np.sum((P2.conj() * P2).real, axis=0)
    vw = np.sum(P2.conj() * w, axis=0)
    shrink = np.zeros_like(s2)
    nz = s2 > 0.0
    shrink[nz] = (1.0 - 1.0 / np.sqrt(1.0 + s2[nz])) / s2[nz]
    g = w - P2 * (vw * shrink)
    left = np.sqrt(np.sum((g.conj() * g).real, axis=0))
    right = np.sqrt(1.0 + np.sum((P1.conj() * P1).real, axis=0))
    return left / right


def _winding_number(P1: np.ndarray, P2: np.ndarray) -> tuple[int, float]:
    """Encirclement count of det(I + P2* P1) from (m, G) responses over [0, pi]."""
    g_half = 1.0 + np.sum(P2.conj() * P1, axis=0)
    # responses at negative frequencies are conjugates, so the full closed
    # contour is the upper half, its reversed conjugate, then back to start
    g = np.concatenate([g_half, g_half[-2:0:-1].conj(), g_half[:1]])
    min_mag = float(np.min(np.abs(g)))
    phase = np.unwrap(np.angle(g))
    winding = int(np.round((phase[-1] - phase[0]) / (2.0 * np.pi)))
    return winding, min_mag


def nugap(
    m1,
    m2,
    grid_size: int = DEFAULT_GRID_SIZE,
    strict_winding: bool = False,
) -> float:
    """Worst-case chordal distance between two models over [0, pi].

    The grid maximum is refined by bisection around the winning node.  With
    ``strict_winding`` the admissibility condition is checked first and a
    failing pair scores 1.0 outright.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    ts1 = getattr(m1, "sample_time", None)
    ts2 = getattr(m2, "sample_time", None)
    if ts1 != ts2:
        raise ValueError(f"models must share a sample time ({ts1} != {ts2})")
    _screen_unit_circle_poles(m1)
    _screen_unit_circle_poles(m2)

    omegas = np.linspace(0.0, np.pi, grid_size)
    P1, P2 = _response_columns(m1, omegas), _response_columns(m2, omegas)
    if strict_winding:
        winding, min_mag = _winding_number(P1, P2)
        if winding != 0 or min_mag < 1e-9:
            return 1.0

    d = _chordal_grid(P1, P2)
    k = int(np.argmax(d))
    best = float(d[k])

    def at(w: float) -> float:
        return float(_chordal_grid(_response_columns(m1, [w]), _response_columns(m2, [w]))[0])

    lo = omegas[max(k - 1, 0)]
    hi = omegas[min(k + 1, grid_size - 1)]
    mid = omegas[k]
    for _ in range(REFINE_ITERATIONS):
        wl = 0.5 * (lo + mid)
        wr = 0.5 * (mid + hi)
        fl, fr = at(wl), at(wr)
        if fl > best and fl >= fr:
            hi, mid, best = mid, wl, fl
        elif fr > best:
            lo, mid, best = mid, wr, fr
        else:
            lo, hi = wl, wr
    return float(min(max(best, 0.0), 1.0))


def argmin_cumulative(sums) -> tuple[int, bool]:
    """Index of the smallest cumulative sum; flags exact ties (lowest wins)."""
    sums = np.asarray(sums, dtype=float)
    winner = int(np.argmin(sums))
    tie = bool(np.sum(sums == sums[winner]) > 1)
    return winner, tie


def select_nominal(
    models,
    grid_size: int = DEFAULT_GRID_SIZE,
    strict_winding: bool = False,
) -> tuple[NuGapMatrix, int, bool]:
    """Pick the model family member closest to all others.

    Fills the pairwise gap matrix, sums each model's row, and returns the
    matrix plus the argmin index and a tie flag.
    """
    models = list(models)
    if len(models) < 2:
        raise ValueError("nominal selection needs at least 2 models")
    n = len(models)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            gap = nugap(models[i], models[j], grid_size, strict_winding)
            values[i, j] = gap
            values[j, i] = gap
    matrix = NuGapMatrix([_label_of(m) for m in models], values)
    winner, tie = argmin_cumulative(matrix.cumulative)
    return matrix, winner, tie
