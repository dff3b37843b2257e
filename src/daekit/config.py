"""Numerical tolerances shared across the toolkit.

The thresholds are constants: every module reads the one record
DEFAULT_TOLERANCES.  They follow standard numerical-rank practice (rank
cutoffs scaled by the largest singular value) with headroom above machine
precision for O(N^3) arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Rank decisions: cutoff = rank_factor * N * eps * sigma_max.
    rank_factor: float = 1e4
    # Guard band around the rank cutoff; a singular value inside
    # (cutoff / guard_low, cutoff * guard_high) raises RankAmbiguity.
    # The lower edge is tighter than the upper one so that floating-point
    # fuzz from matrix products (~N*eps*sigma_max) stays outside the band.
    guard_low: float = 30.0
    guard_high: float = 1e3
    # Largest acceptable condition number for a regular-point candidate.
    cond_cap: float = 1e12
    # Chain relation residuals, relative to the matrix scales.
    chain: float = 1e-8
    # Biorthogonality residuals.
    biorth: float = 1e-8
    # Projector/operator identity residuals, relative.
    proj: float = 1e-8
    # Consistent-initialization residual.
    cons: float = 1e-10
    # Constraint residual allowed along accepted trajectory steps.
    traj: float = 1e-6
    # Maximum relative dependence tolerated by the structure check.
    struct_dep: float = 1e-7
    # Inner algebraic (Newton) solves.
    solver: float = 1e-12
    # Imaginary parts below this (relative) are trimmed when reporting
    # real-field results computed through a complex detour.
    imag_trim: float = 1e-10


DEFAULT_TOLERANCES = Tolerances()
