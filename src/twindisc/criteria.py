"""Penalized-likelihood scores for prediction-error sequences.

Three standard criteria (normalized AIC, BIC, and a minimum-description-
length index) computed per channel; a SIMO model scores the sum over its
two channels.  Smaller is better for all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def naic(loss: float, n_params: int, n_samples: int) -> float:
    """Normalized Akaike criterion log V + 2d/N (Ljung 1999)."""
    if loss == 0.0:
        return -math.inf
    return math.log(loss) + 2.0 * n_params / n_samples


def bic(loss: float, n_params: int, n_samples: int) -> float:
    """Bayesian information criterion with the Gaussian-likelihood constant."""
    if loss == 0.0:
        return -math.inf
    n = n_samples
    return (
        n * math.log(loss)
        + n * (math.log(2.0 * math.pi) + 1.0)
        + n_params * math.log(n)
    )


def mdl(loss: float, n_params: int, n_samples: float) -> float:
    """Description-length index loss * (1 + d/N) * ln(N)."""
    if n_samples < 2:
        raise ValueError("mdl needs at least 2 samples")
    return loss * (1.0 + n_params / n_samples) * math.log(n_samples)


def criteria_report(residuals, n_params: int) -> CriteriaReport:
    """Score one channel; its loss det((1/N) sum eps eps^T) is the mean square."""
    r = np.asarray(residuals, dtype=float).ravel()
    if r.size < 1:
        raise ValueError("need at least one residual")
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals must be finite")
    if n_params < 0:
        raise ValueError("n_params must be >= 0")
    loss = float(np.mean(r * r))
    return CriteriaReport(
        naic=naic(loss, n_params, r.size),
        bic=bic(loss, n_params, r.size),
        mdl=mdl(loss, n_params, r.size),
        loss=loss,
        zero_loss=(loss == 0.0),
    )


def simo_criteria(residuals, n_params: int) -> tuple[CriteriaReport, CriteriaReport]:
    """Score a SIMO model from its ``(res_y, res_u)`` residual pair.

    Each channel is scored on its own (n_y = 1); the pair may hold free-run
    simulation errors or one-step prediction errors.  Returns the ``(y, u)``
    pair of per-channel reports.
    """
    res_y, res_u = residuals
    return criteria_report(res_y, n_params), criteria_report(res_u, n_params)
