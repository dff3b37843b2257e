"""Projector family and auxiliary operators built from the chain systems.

Everything is assembled as explicit matrices by outer-product sums of chain
and dual vectors; every defining identity is verified numerically, once,
before a set is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import rel_residual
from .config import DEFAULT_TOLERANCES as TOL
from .errors import InvariantViolation
from .pencil import (CanonicalSystem, DualSystem, Pencil, build_chains,
                     build_dual_chains)

__all__ = ["ProjectorSet", "build_projectors", "build_all",
           "verify_projectors"]


@dataclass
class ProjectorSet:
    """All projectors plus the invertible correction and semi-inverses.

    Lists indexed by adjoined-vector order s run s = 0..nu-1 (or nu-2 for
    `q2_sigma_s`); `q2s_by_mult[(s, j)]` refines by chain multiplicity j.
    """

    nu: int
    n: int
    multiplicities: list
    p1: np.ndarray
    p2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    p2s: list
    q2s: list
    q2s_by_mult: dict
    p20: np.ndarray
    p2_sigma: np.ndarray
    q2_star: np.ndarray
    q2_sigma: np.ndarray
    q2_sigma_s: list
    p2_sigma_1: np.ndarray
    p2_sigma_2: np.ndarray
    q2_star_1: np.ndarray
    q2_star_2: np.ndarray
    a_tilde: np.ndarray
    a_tilde_inv: np.ndarray
    a_semi_inv: np.ndarray
    b2_semi_inv: np.ndarray
    fingerprint: str = ""
    residuals: dict = field(default_factory=dict)


def _outer(cols_left: np.ndarray, cols_right: np.ndarray) -> np.ndarray:
    """Sum of outer products  sum_k  left[:,k] right[:,k]^H."""
    return cols_left @ cols_right.conj().T


def build_projectors(canonical: CanonicalSystem, dual: DualSystem,
                     pencil: Pencil) -> ProjectorSet:
    """Assemble the projector family as partial outer-product sums, the
    invertible correction of A and the semi-inverses, and verify every
    defining identity once."""
    n_dim = pencil.n_dim
    nu = canonical.nu
    a, b = pencil.a, pencil.b
    eye = np.eye(n_dim)
    dual_shape = [len(qs) for qs in dual.chains]
    if dual_shape != canonical.multiplicities:
        raise InvariantViolation("chain/dual multiplicity match",
                                 float("inf"), TOL.proj)
    phi = canonical.matrix()
    qmat = dual.matrix()
    dtype = np.result_type(phi.dtype if phi.size else float,
                           qmat.dtype if qmat.size else float, a.dtype)

    def select(pred):
        idx = canonical.columns(pred)
        if not idx:
            zp = np.zeros((n_dim, n_dim), dtype=dtype)
            return zp, zp.copy()
        ph = phi[:, idx]
        qs = qmat[:, idx]
        pmat = _outer(ph, b.conj().T @ qs)   # phi <x, B* q> pairing
        qproj = _outer(b @ ph, qs)           # B phi <y, q> pairing
        return pmat, qproj

    p2, q2 = select(lambda m, j: True)
    p1 = eye - p2
    q1 = eye - q2

    p2s, q2s = [], []
    q2s_by_mult = {}
    for s in range(nu):
        ps, qs = select(lambda m, j, s=s: j == s + 1)
        p2s.append(ps)
        q2s.append(qs)
        for mult in range(s + 1, nu + 1):
            q2s_by_mult[(s, mult)] = select(
                lambda m, j, s=s, mult=mult: j == s + 1 and m == mult)[1]

    p20, _ = select(lambda m, j: j == 1)
    p2_sigma, _ = select(lambda m, j: j >= 2)
    _, q2_star = select(lambda m, j: j == m)
    _, q2_sigma = select(lambda m, j: j < m)

    q2_sigma_s = [select(lambda m, j, s=s: j == s + 1 and m >= s + 2)[1]
                  for s in range(max(nu - 1, 0))]

    p2_sigma_1, _ = select(lambda m, j: j == m and j >= 2)
    p2_sigma_2, _ = select(lambda m, j: 2 <= j < m)
    _, q2_star_1 = select(lambda m, j: j == m == 1)
    _, q2_star_2 = select(lambda m, j: j == m and m >= 2)

    a_tilde, a_tilde_inv = _tilde_a(pencil, canonical, dual)
    z, *_ = np.linalg.lstsq(b @ p2, q2, rcond=None)
    ps = ProjectorSet(
        nu=nu, n=canonical.n, multiplicities=canonical.multiplicities,
        p1=p1, p2=p2, q1=q1, q2=q2,
        p2s=p2s, q2s=q2s, q2s_by_mult=q2s_by_mult,
        p20=p20, p2_sigma=p2_sigma, q2_star=q2_star, q2_sigma=q2_sigma,
        q2_sigma_s=q2_sigma_s,
        p2_sigma_1=p2_sigma_1, p2_sigma_2=p2_sigma_2,
        q2_star_1=q2_star_1, q2_star_2=q2_star_2,
        a_tilde=a_tilde, a_tilde_inv=a_tilde_inv,
        a_semi_inv=a_tilde_inv @ (q1 + q2_sigma), b2_semi_inv=p2 @ z,
        fingerprint=pencil.fingerprint,
    )
    ps.residuals = verify_projectors(ps, pencil)
    worst_name = max(ps.residuals, key=ps.residuals.get)
    worst = ps.residuals[worst_name]
    if not worst <= TOL.proj:
        raise InvariantViolation(worst_name, worst, TOL.proj)
    return ps


def _tilde_a(pencil: Pencil, canonical: CanonicalSystem,
             dual: DualSystem) -> tuple[np.ndarray, np.ndarray]:
    """Invertible correction of A and its inverse.

    The correction adds, for every chain, the rank-one coupling of the
    kernel-coordinate functional with the image of the chain top. The
    inverse from direct solution is cross-checked against its closed form.
    """
    a, b = pencil.a, pencil.b
    n_dim = pencil.n_dim
    corr = np.zeros_like(a, dtype=np.result_type(a.dtype, canonical.matrix().dtype
                                                 if canonical.n else float))
    for chain, qs in zip(canonical.chains, dual.chains):
        top_image = b @ chain.vectors()[-1]
        kernel_functional = b.conj().T @ qs[0]
        corr = corr + np.outer(top_image, kernel_functional.conj())
    a_tilde = a + corr
    try:
        a_tilde_inv = np.linalg.inv(a_tilde)
    except np.linalg.LinAlgError:
        raise InvariantViolation("a_tilde invertible", float("inf"),
                                 TOL.proj) from None
    # closed-form cross check: inv = semi-inverse part + kernel couplings
    closed = a_tilde_inv.copy()
    if canonical.n:
        couple = sum(np.outer(ch.eigenvector, qs[-1].conj())
                     for ch, qs in zip(canonical.chains, dual.chains))
        # semi-inverse part reproduces inv on the complement:
        tops = canonical.columns(lambda m, j: j == m)
        closed = a_tilde_inv @ (np.eye(n_dim) - _outer(
            b @ canonical.matrix()[:, tops], dual.matrix()[:, tops])) + couple
    r = rel_residual(a_tilde_inv, closed)
    if not r <= TOL.proj:
        raise InvariantViolation("a_tilde_inv closed form", r, TOL.proj)
    return a_tilde, a_tilde_inv


def build_all(pencil: Pencil):
    """Chains, duals and the fully verified projector set in one call."""
    canonical = build_chains(pencil)
    dual = build_dual_chains(pencil, canonical)
    return canonical, dual, build_projectors(canonical, dual, pencil)


def verify_projectors(ps: ProjectorSet, pencil: Pencil) -> dict:
    """Residuals of every defining identity (relative Frobenius)."""
    a, b = pencil.a, pencil.b
    eye = np.eye(pencil.n_dim)
    out: dict[str, float] = {}

    def put(name, lhs, rhs):
        out[name] = rel_residual(lhs, rhs)

    put("p1 idempotent", ps.p1 @ ps.p1, ps.p1)
    put("p2 idempotent", ps.p2 @ ps.p2, ps.p2)
    put("q1 idempotent", ps.q1 @ ps.q1, ps.q1)
    put("q2 idempotent", ps.q2 @ ps.q2, ps.q2)
    put("p1 p2 disjoint", ps.p1 @ ps.p2, np.zeros_like(ps.p1))
    put("q1 q2 disjoint", ps.q1 @ ps.q2, np.zeros_like(ps.q1))
    put("p1 + p2 complete", ps.p1 + ps.p2, eye)
    put("q1 + q2 complete", ps.q1 + ps.q2, eye)
    for k, (p, q) in enumerate(((ps.p1, ps.q1), (ps.p2, ps.q2)), start=1):
        put(f"A intertwines k={k}", a @ p, q @ a)
        put(f"B intertwines k={k}", b @ p, q @ b)
    if ps.nu:
        put("q2 partial sum", sum(ps.q2s), ps.q2)
        put("p2 split", ps.p2_sigma + ps.p20, ps.p2)
        put("q2 split", ps.q2_sigma + ps.q2_star, ps.q2)
        if ps.q2_sigma_s:
            put("q2_sigma partial sum", sum(ps.q2_sigma_s), ps.q2_sigma)
        put("p2_sigma split", ps.p2_sigma_1 + ps.p2_sigma_2, ps.p2_sigma)
        put("q2_star split", ps.q2_star_1 + ps.q2_star_2, ps.q2_star)
        put("A annihilates p20", a @ ps.p20, np.zeros_like(a))
        put("top level annihilates A", ps.q2s[-1] @ a, np.zeros_like(a))
        for s in range(ps.nu):
            put(f"B intertwines level s={s}", ps.q2s[s] @ b, b @ ps.p2s[s])
        for s in range(ps.nu - 1):
            put(f"A shifts level s={s}", ps.q2s[s] @ a, a @ ps.p2s[s + 1])
    put("a_tilde right inverse", ps.a_tilde @ ps.a_tilde_inv, eye)
    put("a_tilde left inverse", ps.a_tilde_inv @ ps.a_tilde, eye)
    put("a_tilde_inv A", ps.a_tilde_inv @ a, ps.p1 + ps.p2_sigma)
    put("A a_tilde_inv", a @ ps.a_tilde_inv, ps.q1 + ps.q2_sigma)
    put("semi-inverse left", ps.a_semi_inv @ a, ps.p1 + ps.p2_sigma)
    put("semi-inverse right", a @ ps.a_semi_inv, ps.q1 + ps.q2_sigma)
    put("semi-inverse range", (ps.p1 + ps.p2_sigma) @ ps.a_semi_inv,
        ps.a_semi_inv)
    bp2 = b @ ps.p2
    put("b2 semi-inverse left", ps.b2_semi_inv @ bp2, ps.p2)
    put("b2 semi-inverse right", bp2 @ ps.b2_semi_inv, ps.q2)
    put("b2 semi-inverse range", ps.p2 @ ps.b2_semi_inv, ps.b2_semi_inv)
    return out
