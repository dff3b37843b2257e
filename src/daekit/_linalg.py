"""Small shared linear-algebra helpers (rank decisions, bases, residuals)."""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOLERANCES as TOL
from .errors import RankAmbiguity

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if np.iscomplexobj(m):
        return np.ascontiguousarray(m, dtype=np.complex128)
    return np.ascontiguousarray(m, dtype=np.float64)


def rank_cutoff(sigmas: np.ndarray, n: int, ref: float | None = None
                ) -> float:
    """Rank threshold; `ref` overrides the scale when the matrix itself may
    be numerically zero (e.g. a power of a nilpotent matrix, whose own
    largest singular value is pure floating-point fuzz)."""
    smax = float(sigmas[0]) if sigmas.size else 0.0
    scale = max(smax, ref) if ref is not None else smax
    return TOL.rank_factor * n * _EPS * scale


def guarded_count(sig: np.ndarray, n: int, what: str,
                  ref: float | None = None) -> int:
    """Numerical rank from descending singular values, with an ambiguity
    guard.

    Raises RankAmbiguity when a singular value sits inside the guard band
    around the cutoff, i.e. when the keep/drop decision is ill-conditioned.
    """
    if sig.size == 0 or sig[0] == 0.0:
        return 0
    cut = rank_cutoff(sig, n, ref)
    lo, hi = cut / TOL.guard_low, cut * TOL.guard_high
    for s in sig:
        if lo < s < hi:
            raise RankAmbiguity(f"rank of {what} ambiguous", float(s), (lo, hi))
    return int(np.sum(sig > cut))


def guarded_rank(m: np.ndarray, what: str = "matrix") -> int:
    """Numerical rank of `m` with the ambiguity guard of `guarded_count`."""
    return guarded_count(np.linalg.svd(m, compute_uv=False), max(m.shape),
                         what)


def svd(m: np.ndarray, full_matrices: bool = True):
    """Singular value decomposition with vectors, ``(u, sigma, vh)``.

    numpy's divide-and-conquer driver (LAPACK ``gesdd``) sometimes fails to
    converge on a matrix whose conjugate transpose it decomposes; where the
    first call fails, m^H = u' sigma vh' is decomposed instead and
    m = vh'^H sigma u'^H returned.
    """
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        u, s, vh = np.linalg.svd(m.conj().T, full_matrices=full_matrices)
        return vh.conj().T, s, u.conj().T


def orth_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space (columns of the result)."""
    if m.size == 0:
        return m.reshape(m.shape[0], 0)
    u, sig, _ = svd(m, full_matrices=False)
    cut = rank_cutoff(sig, max(m.shape))
    r = int(np.sum(sig > cut))
    return u[:, :r]


def rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Relative Frobenius distance, floored at absolute scale 1.

    numpy's norm squares the entries, so where the largest entry exceeds
    2**500 both arrays are first scaled by one power of two, which is
    exact; below that the quotient is the unscaled one, bit for bit.
    """
    big = max(float(np.abs(lhs).max(initial=0.0)),
              float(np.abs(rhs).max(initial=0.0)))
    floor = 1.0
    if big > 2.0 ** 500:
        floor = math.ldexp(1.0, -math.frexp(big)[1])
        lhs, rhs = lhs * floor, rhs * floor
    num = float(np.linalg.norm(lhs - rhs))
    den = max(floor, float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return num / den


def norm2(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array: numpy's `norm` computes
    sqrt(v . v) too, so the bits are equal, without its per-call overhead."""
    return math.sqrt(v @ v)


def cond2(m: np.ndarray) -> float:
    sig = np.linalg.svd(m, compute_uv=False)
    if sig.size == 0:
        return np.inf
    if sig[-1] == 0.0:
        return np.inf
    return float(sig[0] / sig[-1])


def subspace_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between two column spans."""
    ua = orth_basis(a)
    ub = orth_basis(b)
    if ua.shape[1] != ub.shape[1]:
        return 1.0
    if ua.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(ua @ ua.conj().T - ub @ ub.conj().T, 2))


def trim_imag(a: np.ndarray, rel: float) -> np.ndarray:
    """Drop negligible imaginary parts (relative to the array scale)."""
    if not np.iscomplexobj(a):
        return a
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    worst = float(np.max(np.abs(a.imag))) if a.size else 0.0
    if worst <= rel * scale:
        return np.ascontiguousarray(a.real)
    return a
