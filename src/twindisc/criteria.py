"""Penalized-likelihood scores for prediction-error sequences.

Three standard criteria (normalized AIC, BIC, and a minimum-description-
length index) computed per channel and summed over the two channels of a
SIMO model.  Smaller is better for all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NAIC_FORMS = ("normalized", "literal")


@dataclass(frozen=True)
class ResidualSummary:
    """One scalar channel's prediction errors plus its parameter count."""

    residuals: tuple
    n_params: int

    def __init__(self, residuals, n_params: int):
        residuals = tuple(float(r) for r in np.asarray(residuals, dtype=float).ravel())
        if len(residuals) < 1:
            raise ValueError("need at least one residual")
        if not all(math.isfinite(r) for r in residuals):
            raise ValueError("residuals must be finite")
        if n_params < 0:
            raise ValueError("n_params must be >= 0")
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "n_params", int(n_params))

    @property
    def n_samples(self) -> int:
        return len(self.residuals)


@dataclass(frozen=True)
class CriteriaReport:
    """All three criteria for one channel.

    ``zero_loss`` flags a degenerate (perfect) model: naic and bic are then
    the -inf sentinel rather than the log of zero.
    """

    naic: float
    bic: float
    mdl: float
    loss: float
    zero_loss: bool = False


def loss_function(rs: ResidualSummary) -> float:
    """det((1/N) sum eps eps^T); for a scalar channel, the mean square."""
    r = np.asarray(rs.residuals)
    return float(np.mean(r * r))


def naic_value(
    loss: float, n_params: int, n_samples: int, form: str = "normalized"
) -> float:
    if form not in NAIC_FORMS:
        raise ValueError(f"naic form must be one of {NAIC_FORMS}, got {form!r}")
    if loss == 0.0:
        return -math.inf
    penalty = 2.0 * n_params / n_samples
    if form == "literal":
        return n_samples * math.log(loss) + penalty
    return math.log(loss) + penalty


def bic_value(loss: float, n_params: int, n_samples: int) -> float:
    if loss == 0.0:
        return -math.inf
    n = n_samples
    return (
        n * math.log(loss)
        + n * (math.log(2.0 * math.pi) + 1.0)
        + n_params * math.log(n)
    )


def mdl_value(loss: float, n_params: int, n_samples: float) -> float:
    if n_samples < 2:
        raise ValueError("mdl needs at least 2 samples")
    return loss * (1.0 + n_params / n_samples) * math.log(n_samples)


def naic(rs: ResidualSummary, form: str = "normalized") -> float:
    """Normalized Akaike criterion; the "literal" form keeps the leading N."""
    return naic_value(loss_function(rs), rs.n_params, rs.n_samples, form)


def bic(rs: ResidualSummary) -> float:
    """Bayesian information criterion with the Gaussian-likelihood constant."""
    return bic_value(loss_function(rs), rs.n_params, rs.n_samples)


def mdl(rs: ResidualSummary) -> float:
    """Description-length index loss * (1 + d/N) * ln(N)."""
    return mdl_value(loss_function(rs), rs.n_params, rs.n_samples)


def criteria_report(rs: ResidualSummary, naic_form: str = "normalized") -> CriteriaReport:
    loss = loss_function(rs)
    return CriteriaReport(
        naic=naic_value(loss, rs.n_params, rs.n_samples, naic_form),
        bic=bic_value(loss, rs.n_params, rs.n_samples),
        mdl=mdl_value(loss, rs.n_params, rs.n_samples),
        loss=loss,
        zero_loss=(loss == 0.0),
    )


@dataclass(frozen=True)
class SimoCriteriaReport:
    """Per-channel criteria plus the channel sums used for ranking."""

    y: CriteriaReport
    u: CriteriaReport

    @property
    def naic_total(self) -> float:
        return self.y.naic + self.u.naic

    @property
    def bic_total(self) -> float:
        return self.y.bic + self.u.bic

    @property
    def mdl_total(self) -> float:
        return self.y.mdl + self.u.mdl


def simo_criteria(
    residuals, n_params: int, naic_form: str = "normalized"
) -> SimoCriteriaReport:
    """Score a SIMO model from its ``(res_y, res_u)`` residual pair.

    Each channel is scored on its own (n_y = 1); the pair may hold free-run
    simulation errors or one-step prediction errors.
    """
    res_y, res_u = residuals
    return SimoCriteriaReport(
        y=criteria_report(ResidualSummary(res_y, n_params), naic_form),
        u=criteria_report(ResidualSummary(res_u, n_params), naic_form),
    )
