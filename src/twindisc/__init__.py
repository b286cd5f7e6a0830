"""Model discrimination for digital-twin behavioral matching.

A small numpy/scipy toolkit that simulates a Peltier thermal twin, fits its
unknown physical parameters to recorded step responses, identifies families
of Box-Jenkins SIMO models at each operating point, scores them with
code-length information gain and nAIC/BIC/MDL, and picks the nominal
parameter set with the Vinnicombe nu-gap metric.
"""

from .lti import (
    DiscreteTransferFunction,
    InvalidModelError,
    NearPoleError,
    SimoModel,
    frequency_response,
    simulate,
)
from .coding import (
    DEFAULT_PRECISION,
    InformationGainReport,
    SimoGainReport,
    encode_number,
    information_gain,
    simo_information_gain,
    table_length,
)
from .criteria import (
    CriteriaReport,
    SimoCriteriaReport,
    bic,
    criteria_report,
    mdl,
    naic,
    simo_criteria,
)
from .nugap import (
    NuGapMatrix,
    UnitCirclePoleError,
    select_nominal,
)
from .twin import (
    PeltierParams,
    PidConfig,
    SensorConfig,
    SimConfig,
    SimulationDivergedError,
    TimeSeriesDataset,
    generate_campaign,
    simulate_closed_loop,
)
from .sysid import (
    BoxJenkinsModel,
    FitResult,
    FitFailureError,
    OrderSpec,
    fit_noise_model,
    fit_output_error,
    identify_family,
    one_step_residuals,
)
from .matching import (
    INITIAL_GUESS_PRESETS,
    MatchFailureError,
    MatchProblem,
    MatchResult,
    match_parameters,
    sse_cost,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
