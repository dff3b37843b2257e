"""Projector family and auxiliary operators built from the chain systems.

Each P2- and Q2-side projector, the correction of A and the semi-inverse
of B P2 is one outer product of selected chain columns Phi and dual columns
Q; P1, Q1 and the semi-inverse of A follow by complement and inversion.
Every defining identity is verified numerically, once, before a set is
returned.
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
    `q2_sigma_s`).
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
    """Assemble the projector family, the invertible correction of A and
    the semi-inverses from the chain columns Phi and dual columns Q, and
    verify every defining identity once."""
    nu = canonical.nu
    a, b = pencil.a, pencil.b
    eye = np.eye(pencil.n_dim)
    phi, qmat = canonical.phi, dual.q
    if qmat.shape != phi.shape:
        raise InvariantViolation("chain/dual shape match", float("inf"),
                                 TOL.proj)

    def cols(pred) -> tuple[np.ndarray, np.ndarray]:
        """The columns of Phi and of Q whose chain length m and level j
        satisfy pred (N x 0 where none does, so the product is zero)."""
        idx = canonical.columns(pred)
        return phi[:, idx], qmat[:, idx]

    def select(pred, side: str) -> np.ndarray:
        """The P-side (side "p") or Q-side ("q") projector onto the chain
        columns whose (m, j) satisfy pred."""
        ph, qs = cols(pred)
        if side == "p":
            return _outer(ph, b.conj().T @ qs)   # phi <x, B* q> pairing
        return _outer(b @ ph, qs)                # B phi <y, q> pairing

    p2, q2 = (select(lambda m, j: True, side) for side in "pq")
    p1 = eye - p2
    q1 = eye - q2

    p2s, q2s = ([select(lambda m, j, s=s: j == s + 1, side)
                 for s in range(nu)] for side in "pq")

    p20 = select(lambda m, j: j == 1, "p")
    p2_sigma = select(lambda m, j: j >= 2, "p")
    q2_star = select(lambda m, j: j == m, "q")
    q2_sigma = select(lambda m, j: j < m, "q")

    q2_sigma_s = [select(lambda m, j, s=s: j == s + 1 and m >= s + 2, "q")
                  for s in range(max(nu - 1, 0))]

    p2_sigma_1 = select(lambda m, j: j == m and j >= 2, "p")
    p2_sigma_2 = select(lambda m, j: 2 <= j < m, "p")
    q2_star_1 = select(lambda m, j: j == m == 1, "q")
    q2_star_2 = select(lambda m, j: j == m and m >= 2, "q")

    # The correction of A couples the image of each chain top with the
    # functional of its chain's kernel coordinate; its inverse is checked
    # against the closed form  inv (I - q2_star) + Phi_kernel Q_tops^H.
    phi_tops, q_tops = cols(lambda m, j: j == m)
    phi_kernel, q_kernel = cols(lambda m, j: j == 1)
    a_tilde = a + _outer(b @ phi_tops, b.conj().T @ q_kernel)
    try:
        a_tilde_inv = np.linalg.inv(a_tilde)
    except np.linalg.LinAlgError:
        raise InvariantViolation("a_tilde invertible", float("inf"),
                                 TOL.proj) from None
    r = rel_residual(a_tilde_inv, a_tilde_inv @ (eye - q2_star)
                     + _outer(phi_kernel, q_tops))
    if not r <= TOL.proj:
        raise InvariantViolation("a_tilde_inv closed form", r, TOL.proj)

    ps = ProjectorSet(
        nu=nu, n=canonical.n, multiplicities=canonical.multiplicities,
        p1=p1, p2=p2, q1=q1, q2=q2, p2s=p2s, q2s=q2s,
        p20=p20, p2_sigma=p2_sigma, q2_star=q2_star, q2_sigma=q2_sigma,
        q2_sigma_s=q2_sigma_s,
        p2_sigma_1=p2_sigma_1, p2_sigma_2=p2_sigma_2,
        q2_star_1=q2_star_1, q2_star_2=q2_star_2,
        a_tilde=a_tilde, a_tilde_inv=a_tilde_inv,
        a_semi_inv=a_tilde_inv @ (q1 + q2_sigma),
        b2_semi_inv=_outer(phi, qmat),   # Phi Q^H, the semi-inverse of B P2
        fingerprint=pencil.fingerprint,
    )
    ps.residuals = verify_projectors(ps, pencil)
    worst_name = max(ps.residuals, key=ps.residuals.get)
    worst = ps.residuals[worst_name]
    if not worst <= TOL.proj:
        raise InvariantViolation(worst_name, worst, TOL.proj)
    return ps


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
