"""Model discrimination for digital-twin behavioral matching.

A small numpy/scipy toolkit that simulates a Peltier thermal twin, fits its
unknown physical parameters to recorded step responses, identifies families
of Box-Jenkins SIMO models at each operating point, scores them with
code-length information gain and nAIC/BIC/MDL, and picks the nominal
parameter set with the Vinnicombe nu-gap metric.

Only model identification (:mod:`twindisc.sysid`) imports scipy, for its
BLAS and LAPACK wrappers.  The public names below load their submodule on
first access (PEP 562), so ``import twindisc.cli`` and the ``match`` and
``simulate`` commands never load scipy.
"""

import importlib

# submodule -> the public names it defines; each submodule is public too
_EXPORTS = {
    "lti": (
        "DiscreteTransferFunction",
        "FitFailureError",
        "InvalidModelError",
        "NearPoleError",
        "OrderSpec",
        "SimoModel",
        "frequency_response",
        "simulate",
    ),
    "coding": (
        "DEFAULT_PRECISION",
        "InformationGainReport",
        "SimoGainReport",
        "encode_number",
        "information_gain",
        "simo_information_gain",
        "table_length",
    ),
    "criteria": (
        "CriteriaReport",
        "SimoCriteriaReport",
        "bic",
        "criteria_report",
        "mdl",
        "naic",
        "simo_criteria",
    ),
    "nugap": ("NuGapMatrix", "UnitCirclePoleError", "select_nominal"),
    "twin": (
        "PeltierParams",
        "PidConfig",
        "SensorConfig",
        "SimConfig",
        "SimulationDivergedError",
        "TimeSeriesDataset",
        "generate_campaign",
        "simulate_closed_loop",
    ),
    "sysid": (
        "BoxJenkinsModel",
        "FitResult",
        "fit_noise_model",
        "fit_output_error",
        "identify_family",
        "one_step_residuals",
    ),
    "matching": (
        "INITIAL_GUESS_PRESETS",
        "MatchFailureError",
        "MatchProblem",
        "MatchResult",
        "match_parameters",
        "sse_cost",
    ),
    "lm": (),
}
_SUBMODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names)
}

__all__ = sorted(_SUBMODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        submodule = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{submodule}", __name__)
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
