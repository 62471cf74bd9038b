"""Bridge problems for 1-D diffusions.

Build transition kernels (closed-form or numeric Feynman-Kac), solve the
two-marginal boundary system for their positive factor pair, propagate
the factors into interpolating densities and drift fields, sample the
corresponding SDEs, and check everything against the free Gaussian
packet closed forms.
"""

from .bridge import (BoundaryData, BridgeFactors, BridgeSolution,
                     backward_transition, forward_transition, gauge_align,
                     propagate_factors, solve_boundary_system)
from .burgers import (burgers_residual, compatibility_potential,
                      hopf_cole_forward, hopf_cole_inverse, hopf_cole_velocity)
from .dynamics import (PathEnsemble, SDEConfig, cdf_from_field,
                       empirical_density, fokker_planck_residual, ks_distance,
                       simulate_backward, simulate_forward)
from .errors import (ConfigError, ConvergenceError, ExtrapolationWarning,
                     IncompatibilityError, MissingInputError,
                     NormalizationError, NumericDomainError, PositivityError,
                     PropagationError, SchrobridgeError, TimeOrderingError)
from .gallery import (example1_suite, example2_suite, packet_boundary,
                      packet_bridge, quantum_free_suite, run_scenario,
                      scenario_names, verify_parabolic_system)
from .grids import (FieldStack, Grid1D, ScalarField, integrate, normalize,
                    sample_field)
from .kernels import (FeynmanKacPropagator, GaussianKernel, Kernel,
                      KernelMatrix, MomentRates, NumericFeynmanKacKernel,
                      Potential, Propagator,
                      check_chapman_kolmogorov, extract_forward_drift,
                      generalized_heat_residual, make_kernel,
                      pinned_coefficient, pinned_coefficient_dt,
                      short_time_moments)
from .packet import PACKET, FreeGaussianPacket
from .report import CheckResult, RunReport

__version__ = "0.1.0"
