"""Fluid-model and event-driven analysis of loss-based congestion control.

The package splits into a deterministic track (delay fluid model, fixed
points, Lyapunov convergence certificates) and a stochastic track (an
event-driven simulator whose losses follow a non-homogeneous Poisson
process), built to cross-validate each other.
"""

from .core import (
    FlowState,
    SystemParams,
    WindowFunction,
    cbrt,
    loss_probability,
    loss_rate,
    rhs_about,
)
from .dde import (
    IntegrationError,
    Trajectory,
    integrate,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    build_config,
    read_config_file,
    run_experiment,
)
from .fixedpoint import (
    FixedPoint,
    SolverError,
    cubic_fixed_point,
    reno_steady_state,
)
from .nhpl import (
    Event,
    RngStream,
    SimResult,
    SimState,
    compute_T,
    generate_poi_loss,
    make_sim_state,
    pick_losing_flow,
    run_simulation,
    t_bdp,
)
from .protocols import (
    CUBIC,
    FROZEN,
    RENO,
    window_function,
)
from .stability import (
    Certificate,
    CertificateError,
    DiagnosticTrace,
    basin_delta,
    certificate,
    convergence_bound,
    expansion_coeffs,
    lyapunov_V,
    razumikhin_mask,
    shifted_samples,
    stability_trace,
    vdot_along,
)

from types import ModuleType as _Module

__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _Module))
