"""Local linear estimation of drift and second infinitesimal moment for
jump-diffusions observed through their integral, plus the simulators,
bandwidth selectors, confidence bands and Monte Carlo harness used to
benchmark the estimators.
"""

__version__ = "0.1.0"

from .errors import LljdError, NumericalError, ValidationError
from .kernels import (
    EPANECHNIKOV,
    GAUSSIAN,
    Kernel,
    KernelMoments,
    bias_constant,
    get_kernel,
    kernel_moment,
    moments,
    variance_constant,
)
from .proxy import ProxySeries, build_log_proxy, build_proxy
from .simulate import (
    CompoundPoisson,
    JumpSizeDist,
    ModelSpec,
    NoJumps,
    PathConfig,
    SamplePath,
    VarianceGamma,
    default_model,
    derive_seeds,
    simulate_path,
    simulate_paths,
)
from .estimators import (
    LOCAL_LINEAR,
    NADARAYA_WATSON,
    CurveEstimate,
    EstimatorConfig,
    default_grid,
    density_estimate,
    drift_responses,
    estimate_curve,
    estimate_curves,
    fit_responses,
    second_derivative_fit,
    second_moment_responses,
)
from .bandwidth import BandwidthChoice, cross_validate, default_cv_grid, rule_of_thumb
from .inference import ConfidenceBands, attach_bands
from .mcstudy import (
    McConfig,
    McReport,
    example_model,
    qq_data,
    rmse,
    run_studies,
    run_study,
    table_presets,
)
