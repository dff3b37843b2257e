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
    be numerically zero (e.g. the part of B W off range A in the Wong
    sequence, whose own largest singular value may be rounding alone)."""
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

    Each norm of real float64 arrays is numpy's own sqrt(v . v) of the
    array raveled in memory order.  Where both squared norms are at most
    2**1000, every entry is at most 2**500, so the largest entries are not
    looked up; NaN, inf and complex arrays go the general way.
    """
    if lhs.dtype == rhs.dtype == np.float64:
        with np.errstate(over="ignore"):
            sl, sr = _square_sum(lhs), _square_sum(rhs)
        if sl <= 2.0 ** 1000 and sr <= 2.0 ** 1000:
            return math.sqrt(_square_sum(lhs - rhs)) / max(
                1.0, math.sqrt(sl), math.sqrt(sr))
    big = max(float(np.abs(lhs).max(initial=0.0)),
              float(np.abs(rhs).max(initial=0.0)))
    floor = 1.0
    if big > 2.0 ** 500:
        floor = math.ldexp(1.0, -math.frexp(big)[1])
        lhs, rhs = lhs * floor, rhs * floor
    num = float(np.linalg.norm(lhs - rhs))
    den = max(floor, float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return num / den


def _square_sum(a: np.ndarray) -> float:
    """v . v for v the real array a raveled in memory order, as
    `np.linalg.norm` sums it."""
    v = a.ravel(order="K")
    return float(v.dot(v))


def norm2(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array: numpy's `norm` computes
    sqrt(v . v) too, so the bits are equal, without its per-call overhead."""
    return math.sqrt(v @ v)


def column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b for two real vectors (n,), or for each pair of columns of two
    real (n, S) arrays: one `@` of two vectors per pair, so that up to
    n = 3 each has the bits of `np.dot` of that pair on any layout."""
    a, b = np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def column_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a real 2-D array."""
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def cond2(m: np.ndarray) -> float:
    sig = np.linalg.svd(m, compute_uv=False)
    if sig.size == 0:
        return np.inf
    if sig[-1] == 0.0:
        return np.inf
    return float(sig[0] / sig[-1])

