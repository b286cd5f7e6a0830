"""Code-length calculus for model scoring.

A signal is priced by writing each sample as a signed scaled integer and
counting characters.  The trivial model stores the raw outputs in its
look-up table; a candidate model stores only its residuals, so the saving
in characters is the information the model carries about the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Number of fractional digits kept before a value is scaled to an integer.
#: Scores are sensitive to it, so every pricing function takes it as an
#: argument; the pipeline exposes it as ``discriminate --precision``.
DEFAULT_PRECISION = 2
#: Largest p with 10**p < 2**63; at 19 no value of magnitude >= 1 fits a token.
MAX_PRECISION = 18

#: Fixed program lengths measured once for the reference implementations of
#: the trivial look-up model and the rational-model evaluator.  They are
#: injected constants: recounting them for another host language would shift
#: every score without changing a single ranking.
TRIVIAL_PROGRAM_LENGTH = 15
MODEL_PROGRAM_LENGTH = 176


@dataclass(frozen=True)
class InformationGainReport:
    """Character saving of a model over the trivial look-up model."""

    l_trivial: int
    l_model: int

    @property
    def gain(self) -> int:
        return self.l_trivial - self.l_model

    @property
    def explanation_degree(self) -> float:
        return self.gain / self.l_trivial


def encode_number(n: float, precision: int = DEFAULT_PRECISION) -> str:
    """Encode a real as a signed integer token, e.g. 10.34 -> "+1034".

    The value is scaled by 10**precision, a Python int (no bool or numpy), rounded
    half away from zero, stripped of leading zeros and prefixed with its sign.
    Exact zero has no sign and encodes as "0".
    """
    if not (type(precision) is int and precision >= 0):
        raise ValueError("precision must be >= 0 and an integer")
    if precision > MAX_PRECISION:
        raise ValueError(f"precision must be <= {MAX_PRECISION}")
    n = float(n)
    if not math.isfinite(n):
        raise ValueError(f"cannot encode non-finite value {n!r}")
    magnitude = abs(n) * 10**precision + 0.5  # inf when n is too large to scale
    if magnitude >= 2**63:
        raise ValueError(f"value {n!r} overflows the 63-bit token range")
    if magnitude < 1.0:
        return "0"
    return ("-" if n < 0.0 else "+") + str(math.floor(magnitude))


def table_length(values, precision: int = DEFAULT_PRECISION) -> int:
    """Summed token length of a look-up table; an empty table costs 0."""
    return sum(len(encode_number(v, precision)) for v in np.ravel(values))


def information_gain(
    outputs, residuals, precision: int = DEFAULT_PRECISION
) -> InformationGainReport:
    """Gain of program plus ``residuals`` table over program plus raw ``outputs``; may be < 0."""
    outputs = np.asarray(outputs, dtype=float)
    if outputs.size == 0:
        raise ValueError("outputs must be non-empty")
    return InformationGainReport(
        TRIVIAL_PROGRAM_LENGTH + table_length(outputs, precision),
        MODEL_PROGRAM_LENGTH + table_length(residuals, precision),
    )


def simo_information_gain(
    dataset, residuals, precision: int = DEFAULT_PRECISION
) -> tuple[InformationGainReport, InformationGainReport]:
    """Score both channels of a SIMO model against one recorded dataset.

    ``residuals`` is the model's ``(res_y, res_u)`` pair of simulation errors
    on the dataset; returns the ``(y, u)`` pair of per-channel reports.
    """
    res_y, res_u = residuals
    return (information_gain(dataset.y, res_y, precision),
            information_gain(dataset.u, res_u, precision))
