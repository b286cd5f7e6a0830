"""Discrete-time LTI building blocks.

Polynomials are plain coefficient arrays in the unit-delay operator:
``c[k]`` multiplies ``z^-k``, so a coefficient vector reads left to right
from the undelayed tap to the most delayed one.  Models hold read-only
arrays; every operation here is a pure function, safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv


class InvalidModelError(ValueError):
    """A transfer function violates the monic-denominator contract."""


class NearPoleError(ArithmeticError):
    """A frequency-response evaluation landed (numerically) on a pole."""

    def __init__(self, omega: float, magnitude: float):
        self.omega = float(omega)
        self.magnitude = float(magnitude)
        super().__init__(
            f"denominator magnitude {magnitude:.3e} below 1e-300 at omega={omega!r}"
        )


def coefficients(values) -> np.ndarray:
    """Read-only float64 copy of a coefficient vector, checked non-empty and finite."""
    c = np.array(values, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("a polynomial needs a non-empty 1-D coefficient vector")
    if not np.all(np.isfinite(c)):
        raise ValueError("polynomial coefficients must be finite")
    c.setflags(write=False)
    return c


@dataclass(frozen=True, eq=False)
class DiscreteTransferFunction:
    """Rational transfer function N(z^-1)/D(z^-1) at a fixed sample time."""

    numerator: np.ndarray
    denominator: np.ndarray
    sample_time: float

    def __init__(self, numerator, denominator, sample_time: float):
        sample_time = float(sample_time)
        if not (sample_time > 0.0):
            raise ValueError(f"sample_time must be > 0, got {sample_time}")
        object.__setattr__(self, "numerator", coefficients(numerator))
        object.__setattr__(self, "denominator", coefficients(denominator))
        object.__setattr__(self, "sample_time", sample_time)


@dataclass(frozen=True)
class SimoModel:
    """One reference input driving two channels: temperature y and control u."""

    tf_y: DiscreteTransferFunction
    tf_u: DiscreteTransferFunction
    label: str = ""

    def __post_init__(self):
        if self.tf_y.sample_time != self.tf_u.sample_time:
            raise ValueError(
                "both channels must share the sample time "
                f"({self.tf_y.sample_time} != {self.tf_u.sample_time})"
            )

    @property
    def sample_time(self) -> float:
        return self.tf_y.sample_time


def denominator_band(f, n: int) -> np.ndarray:
    """Monic F as the band of its n x n lower-triangular Toeplitz matrix.

    Row d holds the z^-d tap in every column, the BLAS band layout.  The
    array is Fortran-ordered so that BLAS reads it without a copy.
    """
    return np.repeat(np.asarray(f, dtype=float)[None, :], n, 0).T


def forward_solve(band: np.ndarray, w) -> np.ndarray:
    """Zero-state response of 1/F to ``w``: forward substitution F y = w.

    ``band`` comes from :func:`denominator_band`; its z^0 row is taken as 1.
    """
    return dtbsv(band.shape[0] - 1, band, w, lower=1, diag=1)


def lfilter(b, f, x) -> np.ndarray:
    """Zero-state response (B/F)x for a monic F; ``f[0]`` is taken as 1."""
    x = np.asarray(x, dtype=float)
    return forward_solve(denominator_band(f, x.size), np.convolve(x, b)[: x.size])


def simulate(tf: DiscreteTransferFunction, input) -> np.ndarray:
    """Run the difference-equation recursion with zero initial conditions.

    Raises InvalidModelError unless the denominator's z^0 coefficient is
    exactly 1 (the recursion solves for the newest output sample).
    """
    u = np.asarray(input, dtype=float)
    if u.size == 0:
        raise ValueError("input sequence must be non-empty")
    if tf.denominator[0] != 1.0:
        raise InvalidModelError(
            f"denominator z^0 coefficient must be 1, got {tf.denominator[0]}"
        )
    return lfilter(tf.numerator, tf.denominator, u)


def frequency_response(tf: DiscreteTransferFunction, omegas) -> np.ndarray:
    """Evaluate N(e^-jw)/D(e^-jw) on a radian-per-sample grid in [0, pi]."""
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(w < 0.0) or np.any(w > np.pi):
        raise ValueError("frequencies must lie in [0, pi] rad/sample")
    x = np.exp(-1j * w)
    num = np.polyval(tf.numerator[::-1], x)
    den = np.polyval(tf.denominator[::-1], x)
    bad = np.abs(den) < 1e-300
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NearPoleError(w[k], float(np.abs(den[k])))
    return num / den
