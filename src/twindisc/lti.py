"""Discrete-time LTI building blocks.

Polynomials are plain coefficient arrays in the unit-delay operator:
``c[k]`` multiplies ``z^-k``, so a coefficient vector reads left to right
from the undelayed tap to the most delayed one.  Models hold read-only
arrays; every operation here is a pure function, safe to call
concurrently.

This module loads no scipy, so the model-order vocabulary that the CLI
checks its options against lives here, and the BLAS filter lives in
:mod:`twindisc.sysid`, its one hot caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STABILITY_MARGIN = 1e-8  # how far inside the unit circle every pole must lie


def same_sample_time(a, reference):
    """Whether ``a`` (elementwise for an array) is the sample time ``reference``, to within
    1e-12 + 1e-9 |reference|: a step of timestamps far from zero carries their rounding."""
    return np.abs(a - reference) <= 1e-12 + 1e-9 * abs(reference)


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a bool: a seed or a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    """Rational transfer function N(z^-1)/D(z^-1) at a fixed sample time.

    D is monic: its z^0 coefficient is exactly 1, so the difference
    equation solves for the newest output sample.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    sample_time: float

    def __init__(self, numerator, denominator, sample_time: float):
        sample_time = float(sample_time)
        if not 0.0 < sample_time < np.inf:
            raise ValueError(f"sample_time must be > 0 and finite, got {sample_time}")
        denominator = coefficients(denominator)
        if denominator[0] != 1.0:
            raise ValueError(f"denominator z^0 coefficient must be 1, got {denominator[0]}")
        object.__setattr__(self, "numerator", coefficients(numerator))
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "sample_time", sample_time)


@dataclass(frozen=True)
class SimoModel:
    """One reference input driving two channels, temperature y and control u, whose
    sample times agree by :func:`same_sample_time`."""

    tf_y: DiscreteTransferFunction
    tf_u: DiscreteTransferFunction
    label: str = ""

    def __post_init__(self):
        if not same_sample_time(self.tf_u.sample_time, self.tf_y.sample_time):
            raise ValueError(
                "both channels must share the sample time "
                f"({self.tf_y.sample_time} != {self.tf_u.sample_time})"
            )

    @property
    def sample_time(self) -> float:
        return self.tf_y.sample_time


DEFAULT_ORDER_LABELS = ("22221", "33331", "44441", "55551")


class FitFailureError(RuntimeError):
    """No start of a fit reached a stable iterate, or no order or no dataset was identified."""


# what a fit of recorded data can end in: data it refuses or cannot solve, no stable iterate
FIT_FAILURES = (ValueError, np.linalg.LinAlgError, FitFailureError)


@dataclass(frozen=True)
class OrderSpec:
    """Polynomial orders (nb, nc, nd, nf) and input delay nk of one model."""

    nb: int
    nc: int
    nd: int
    nf: int
    nk: int = 1

    def __post_init__(self):
        for name in ("nb", "nc", "nd", "nf"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.nk < 0:
            raise ValueError("nk must be >= 0")

    @property
    def label(self) -> str:
        return f"{self.nb}{self.nc}{self.nd}{self.nf}{self.nk}"

    @classmethod
    def from_label(cls, label: str) -> "OrderSpec":
        label = str(label)
        if len(label) != 5 or not label.isdigit():
            raise ValueError(f"order label must be 5 digits like '22221', got {label!r}")
        nb, nc, nd, nf, nk = (int(ch) for ch in label)
        return cls(nb=nb, nc=nc, nd=nd, nf=nf, nk=nk)


def is_stable(monic) -> bool:
    """Schur-Cohn step-down on the roots scaled by 1/rho: all inside rho = 1 - margin."""
    rho = 1.0 - STABILITY_MARGIN
    a = [float(c) / rho**i for i, c in enumerate(monic)]
    while len(a) > 1:
        k = a[-1]
        if not abs(k) < 1.0:  # also rejects NaN
            return False
        a = [(a[i] - k * a[-1 - i]) / (1.0 - k * k) for i in range(len(a) - 1)]
    return True


def simulate(tf: DiscreteTransferFunction, input) -> np.ndarray:
    """Run the difference-equation recursion with zero initial conditions."""
    u = np.asarray(input, dtype=float)
    if u.size == 0:
        raise ValueError("input sequence must be non-empty")
    from .sysid import lfilter  # the one module that loads scipy

    return lfilter(tf.numerator, tf.denominator, u)


def frequency_response(tf: DiscreteTransferFunction, omegas) -> np.ndarray:
    """Evaluate N(e^-jw)/D(e^-jw) on a radian-per-sample grid in [0, pi]."""
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(w < 0.0) or np.any(w > np.pi):
        raise ValueError("frequencies must lie in [0, pi] rad/sample")
    x = np.exp(-1j * w)
    num = np.polyval(tf.numerator[::-1], x)
    return num / np.polyval(tf.denominator[::-1], x)
