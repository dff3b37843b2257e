"""Toolkit for semilinear differential-algebraic systems built on a matrix
pair of arbitrary index: chain analysis, projector decomposition, reduction
to explicit form, simulation with consistent initialization and escape
detection, and sampled certificate checking."""

__version__ = "0.1.0"

from .config import Tolerances, DEFAULT_TOLERANCES
from .errors import (BiorthogonalizationFailure, ChainExtensionFailure,
                     ConstraintSolveFailure, DaekitError,
                     InconsistentInitialValue, InvariantViolation,
                     NoConvergence, RankAmbiguity, SamplingFailure,
                     SchemaError, SingularJacobian, SingularPencil,
                     StructureViolation, UnknownRegistryId)
from .pencil import (CanonicalSystem, Chain, DualSystem, Pencil,
                     analysis_report, build_chains, build_dual_chains,
                     chain_residuals, compute_index, dual_residuals,
                     find_regular_point)
from .projectors import (ProjectorSet, build_all, build_projectors,
                         build_semi_inverses, build_tilde_A,
                         verify_projectors)
from .implicit import (ImplicitProblem, JacobianCache, consistent_initialize,
                       implicit_derivative, solve_newton)
from .reduction import (NonlinearField, ReducedCascade, ReducedFirst,
                        SemilinearDAE, StructureReport, StructureTag,
                        check_structure, reduce_cascade, reduce_first,
                        residual_L0)
from .integrate import (IntegrationOptions, TerminationReason, Trajectory,
                        TrajectoryInternals, classify_termination,
                        integrate_cascade, integrate_first)
from .certificates import (CertificateReport, ComparisonSpec,
                           LyapunovComponent, LyapunovSpec, MonitorReport,
                           SamplerConfig, check_blowup_certificate,
                           check_global_solvability,
                           check_lagrange_stability, monitor_comparison,
                           probe_integral)
from .problems import (FIELD_REGISTRY, LoadedProblem, WeierstrassSample,
                       builtin, builtin_names, load_builtin, load_problem,
                       make_dae, random_weierstrass, reference_solution)
