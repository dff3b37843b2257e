"""Exception hierarchy for the toolkit.

Every numerical failure mode has a dedicated class so callers (and the CLI)
can react to the *kind* of failure, not a message string.
"""

from __future__ import annotations


class DaekitError(Exception):
    """Base class for all toolkit errors."""


class SingularPencil(DaekitError):
    """No candidate shift makes the matrix pair invertible."""


class RankAmbiguity(DaekitError):
    """A singular value fell inside the guard band of a rank decision."""

    def __init__(self, message: str, sigma: float, band: tuple[float, float]):
        super().__init__(f"{message}: sigma={sigma:.3e} inside guard band "
                         f"({band[0]:.3e}, {band[1]:.3e})")
        self.sigma = sigma
        self.band = band


class ChainExtensionFailure(DaekitError):
    """A chain extension predicted by the rank staircase failed the
    range-membership residual test."""


class BiorthogonalizationFailure(DaekitError):
    """The dual-chain system could not be solved to tolerance."""


class InvariantViolation(DaekitError):
    """A projector/operator identity exceeded its tolerance."""

    def __init__(self, name: str, residual: float, tol: float):
        super().__init__(f"identity '{name}' residual {residual:.3e} "
                         f"exceeds tolerance {tol:.3e}")
        self.name = name
        self.residual = residual
        self.tol = tol


class StructureViolation(DaekitError):
    """A projected component of the field depends on an excluded state slice."""

    def __init__(self, projection: str, dependence: float, sample):
        super().__init__(f"projection {projection} depends on excluded "
                         f"components (observed dependence {dependence:.3e})")
        self.projection = projection
        self.dependence = dependence
        self.sample = sample


class NoConvergence(DaekitError):
    """An iterative solve did not reach the residual tolerance."""

    def __init__(self, iters: int, last_residual: float, label: str = ""):
        tag = f" [{label}]" if label else ""
        # the fixed trailing ", contraction estimate None" keeps the text of
        # the CLI's termination records stable
        super().__init__(
            f"no convergence{tag} after {iters} iterations, "
            f"residual {last_residual:.3e}, contraction estimate None")
        self.iters = iters
        self.last_residual = last_residual
        self.label = label


class SingularJacobian(DaekitError):
    """The derivative of the residual is numerically singular, so the
    algebraic equation is not uniquely solvable near the point."""

    def __init__(self, point=None, message: str = "singular jacobian"):
        super().__init__(message if point is None
                         else f"{message} at {point}")
        self.point = point


class InconsistentInitialValue(DaekitError):
    """Initial state does not satisfy the algebraic constraint."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"initial point off the constraint manifold: "
                         f"residual {residual:.3e} > {tol:.3e}")
        self.residual = residual
        self.tol = tol


class ConstraintSolveFailure(DaekitError):
    """The per-step algebraic solve diverged during integration."""

    def __init__(self, t: float, level: str, cause: Exception | None = None):
        super().__init__(f"constraint solve failed at t={t:.6g} "
                         f"(level {level}): {cause}")
        self.t = t
        self.level = level
        self.cause = cause


class SamplingFailure(DaekitError):
    """Could not place the requested number of samples on the manifold."""


class SchemaError(DaekitError):
    """A problem file failed validation; carries a JSON-pointer location."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


class UnknownRegistryId(DaekitError):
    """A registry id in a problem file is not known."""
