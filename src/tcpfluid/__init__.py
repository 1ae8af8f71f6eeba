"""Fluid-model and event-driven analysis of loss-based congestion control.

The package splits into a deterministic track (delay fluid model, fixed
points, Lyapunov convergence certificates) and a stochastic track (an
event-driven simulator whose losses follow a non-homogeneous Poisson
process), built to cross-validate each other.

``__all__`` is the user API: what a Python caller of the command line's
modes needs.  Internals (the simulator's sampler and state, the RHS builder,
the per-sample diagnostics) are imported from their own modules, as is
``protocols.FROZEN``, the constant window of the statistical tests, which
no command-line mode runs.
"""

from .core import FlowState, SystemParams, WindowFunction, loss_probability, loss_rate
from .dde import IntegrationError, Trajectory, integrate
from .experiment import (ConfigError, ExperimentConfig, ExperimentResult, build_config,
                         read_config_file, run_experiment)
from .fixedpoint import FixedPoint, SolverError, cubic_fixed_point, reno_steady_state
from .nhpl import Event, RngStream, SimResult, run_simulation
from .protocols import CUBIC, RENO, window_function
from .stability import (Certificate, CertificateError, DiagnosticTrace, basin_delta, certificate,
                        convergence_bound, lyapunov_V, stability_trace)

from types import ModuleType as _Module

__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _Module))
