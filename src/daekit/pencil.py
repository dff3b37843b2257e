"""Regularity, index and root-vector chains of a matrix pair (A, B).

The chain vectors of the pencil lambda*A + B span the limit W* of the Wong
sequence W_1 = ker A, W_{i+1} = A^{-1}(B W_i) (Wong 1974; Berger, Ilchmann
& Trenn 2012): W_i holds the chain vectors of levels up to i, so the growth
of dim W_i gives the index and the chain lengths. Inside W* the nilpotent
map N = -(B W*)^+ (A W*) takes each chain vector one level down. The same
recursion on (A^H, B^H) gives the limit L*, the span of the dual chains,
and one d x d solve pairs the duals with B times the chains. One SVD of A
serves every step of both sequences; no shift of the pencil is taken.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import as_matrix, guarded_count, orth_basis, rank_cutoff, svd
from .config import DEFAULT_TOLERANCES as TOL
from .errors import (BiorthogonalizationFailure, ChainExtensionFailure,
                     SingularPencil)

__all__ = [
    "Pencil", "CanonicalSystem", "DualSystem",
    "compute_index", "build_chains",
    "build_dual_chains", "chain_residuals", "dual_residuals",
    "analysis_report",
]


@dataclass
class Pencil:
    """Square matrix pair (A, B) defining lambda*A + B; `scale` is
    max(1, ||A|| + ||B||) in Frobenius norms, the scale of the chains."""

    a: np.ndarray
    b: np.ndarray
    scale: float = field(init=False, repr=False)

    def __post_init__(self):
        self.a = as_matrix(self.a)
        self.b = as_matrix(self.b)
        if self.a.shape != self.b.shape or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("A and B must be square with identical shapes")
        self.scale = max(1.0, float(np.linalg.norm(self.a))
                         + float(np.linalg.norm(self.b)))

    @property
    def n_dim(self) -> int:
        return self.a.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.a) or np.iscomplexobj(self.b)

    @property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.a).tobytes())
        h.update(np.ascontiguousarray(self.b).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class CanonicalSystem:
    """The root-vector chains of the pair as one table of columns, and a
    basis of the span of their duals.

    `phi` holds every chain vector as a column, N x d, chain-major with the
    longest chains first; `labels[k]` is the (chain length m, level j) of
    column k, level 1 being the eigenvector. At index 0 `phi` is N x 0.
    `dual_span` is an orthonormal basis of L*, the limit of the Wong
    sequence of (A^H, B^H), N x d: the span of the dual chains.
    `residuals` is what `chain_residuals` returns for the chains, kept by
    `build_chains` from its final check.
    """

    phi: np.ndarray
    labels: tuple
    dual_span: np.ndarray
    residuals: dict | None = None

    def columns(self, pred) -> list[int]:
        """Indices of the columns whose chain length m and level j satisfy
        pred(m, j)."""
        return [k for k, (m, j) in enumerate(self.labels) if pred(m, j)]

    @property
    def multiplicities(self) -> list[int]:
        """The chain lengths, longest first."""
        return [m for m, j in self.labels if j == 1]

    @property
    def n(self) -> int:
        """The number of chains, the dimension of ker A."""
        return len(self.multiplicities)

    @property
    def nu(self) -> int:
        """The index: the longest chain's length, 0 without chains."""
        return max((m for m, _ in self.labels), default=0)


@dataclass(frozen=True)
class DualSystem:
    """The dual chains as one table: column k of `q` (N x d) is the dual
    of column k of the canonical system's `phi`. `residuals` is what
    `dual_residuals` returns, kept by `build_dual_chains`."""

    q: np.ndarray
    residuals: dict | None = None


def _wong(b: np.ndarray, kernel: np.ndarray, outside: np.ndarray,
          back: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of W_1 = ker A, W_{i+1} = ker A + A^+(B W_i ∩
    range A), up to the last one that grows.

    `kernel` spans ker A, `outside` the orthogonal complement of range A,
    and `back` is A^+. B W_i c lies in range A where (outside^H B W_i) c
    = 0, a kernel that `guarded_count` decides against the scale of
    B W_i: the part of B W_i off range A may be rounding alone.
    """
    n_dim = b.shape[0]
    spaces = [kernel]
    while spaces[-1].shape[1] < n_dim:
        bw = b @ spaces[-1]
        _, sig, vh = svd(outside.conj().T @ bw)
        rank = guarded_count(sig, n_dim, "B W_i off range A",
                             ref=float(np.linalg.norm(bw)))
        into = vh[rank:].conj().T
        # W_{i+1} has at most dim ker A + (columns of `into`) dimensions
        if into.shape[1] <= spaces[-1].shape[1] - kernel.shape[1]:
            break
        grown = np.hstack([kernel, orth_basis(back @ (bw @ into))])
        if grown.shape[1] <= spaces[-1].shape[1]:
            break
        spaces.append(grown)
    return spaces


def _wong_pair(pencil: Pencil):
    """The Wong sequence of the pair, the limit L* of the sequence of
    (A^H, B^H), and the map N = -(B W*)^+ (A W*) that takes a chain vector
    one level down, in coordinates of W* = the last space. At index 0 the
    sequence is empty.

    Raises SingularPencil unless dim L* = dim W* and B W* has full column
    rank: on a singular pair B maps some vector of W* to zero.
    """
    a, b, n_dim = pencil.a, pencil.b, pencil.n_dim
    u, sig, vh = svd(a)
    r = guarded_count(sig, n_dim, "A")
    if r == n_dim:
        return [], np.zeros((n_dim, 0)), np.zeros((0, 0))
    kernel, outside = vh[r:].conj().T, u[:, r:]
    back = (vh[:r].conj().T / sig[:r]) @ u[:, :r].conj().T   # A^+
    spaces = _wong(b, kernel, outside, back)
    dual_span = _wong(b.conj().T, outside, kernel, back.conj().T)[-1]
    w = spaces[-1]
    d = w.shape[1]
    bu, bsig, bvh = svd(b @ w, full_matrices=False)
    rank = guarded_count(bsig, n_dim, "B W*")
    if dual_span.shape[1] != d or rank < d:
        raise SingularPencil(
            f"the pair is singular (det(lambda A + B) vanishes identically): "
            f"B has rank {rank} on the limit of the Wong sequence, of "
            f"dimension {d}, and the dual limit has dimension "
            f"{dual_span.shape[1]}")
    down = -(bvh.conj().T / bsig) @ (bu.conj().T @ (a @ w))
    return spaces, dual_span, down


def compute_index(pencil: Pencil) -> int:
    """The index: the number of steps of the Wong sequence before it stops
    growing, zero iff A is invertible. Raises SingularPencil for a singular
    pair."""
    return len(_wong_pair(pencil)[0])


def _sign_fix(chain_vectors: list[np.ndarray]) -> list[np.ndarray]:
    """Rotate/flip a whole chain so the eigenvector's first significant
    entry is real positive."""
    v = chain_vectors[0]
    mags = np.abs(v)
    idx = int(np.argmax(mags > 1e-8 * mags.max())) if mags.max() > 0 else 0
    z = v[idx]
    if z == 0:
        return chain_vectors
    phase = z / abs(z)
    return [w / phase for w in chain_vectors]


def build_chains(pencil: Pencil) -> CanonicalSystem:
    """Construct a canonical system of root-vector chains.

    The growth of the Wong sequence fixes how many chains of each length
    exist. Top vectors are chosen greedily from its spaces (longest chains
    first, avoiding the level below and the directions already used) and
    mapped down by N, so a chain is v, Nv, N^2 v, ...; a final check of
    the chain relations guards the result.
    """
    n_dim = pencil.n_dim
    spaces, dual_span, down = _wong_pair(pencil)
    nu = len(spaces)
    if nu == 0:
        system = CanonicalSystem(phi=np.zeros((n_dim, 0)), labels=(),
                                 dual_span=dual_span)
        return replace(system, residuals=chain_residuals(pencil, system))

    w = spaces[-1]
    # at_least[j - 1]: the number of chains of length j or more
    at_least = np.diff([0, *(s.shape[1] for s in spaces), w.shape[1]])

    # greedy top-vector selection, longest chains first; each top is mapped
    # down in the coordinates of W*, and a chain is listed eigenvector first
    chains: list[list[np.ndarray]] = []
    for j in range(nu, 0, -1):
        need = at_least[j - 1] - at_least[j]
        if need == 0:
            continue
        avoid = [spaces[j - 2] if j > 1 else np.zeros((n_dim, 0))]
        avoid += [ch[j - 1][:, np.newaxis] for ch in chains]
        w_basis = orth_basis(np.hstack(avoid))
        cand = spaces[j - 1]
        proj = cand - w_basis @ (w_basis.conj().T @ cand)
        u, sig, _ = svd(proj, full_matrices=False)
        found = int(np.sum(sig > rank_cutoff(sig, n_dim)))
        if found < need:
            raise ChainExtensionFailure(
                f"the Wong sequence predicts {need} chains of length {j} "
                f"but only {found} independent top directions found")
        for k in range(need):
            coords = [w.conj().T @ u[:, k]]
            for _ in range(j - 1):
                coords.append(down @ coords[-1])
            chains.append([w @ c for c in reversed(coords)])

    # orthonormalize eigenvectors within equal-multiplicity groups
    grouped: dict[int, list[list[np.ndarray]]] = {}
    for ch in chains:
        grouped.setdefault(len(ch), []).append(ch)
    finished: list[list[np.ndarray]] = []
    for m, group in grouped.items():
        eig = np.column_stack([ch[0] for ch in group])
        q, r = np.linalg.qr(eig)
        rinv = np.linalg.inv(r)
        for j in range(m):
            level = np.column_stack([ch[j] for ch in group]) @ rinv
            for k, ch in enumerate(group):
                ch[j] = level[:, k]
        finished.extend(group)

    finished = [_sign_fix(ch) for ch in finished]

    def sort_key(ch):
        v = ch[0]
        return (-len(ch), tuple(np.round(np.real(v), 10)),
                tuple(np.round(np.imag(v), 10)))

    finished.sort(key=sort_key)
    system = CanonicalSystem(
        phi=np.column_stack([v for ch in finished for v in ch]),
        labels=tuple((len(ch), j) for ch in finished
                     for j in range(1, len(ch) + 1)),
        dual_span=dual_span)
    residuals = chain_residuals(pencil, system)
    if not residuals["worst"] <= TOL.chain:
        raise ChainExtensionFailure(
            f"constructed chains violate the chain relations "
            f"(worst relative residual {residuals['worst']:.3e})")
    return replace(system, residuals=residuals)


def build_dual_chains(pencil: Pencil, canonical: CanonicalSystem) -> DualSystem:
    """Dual chains Q = L* (L*^H B Phi)^{-H}, from one d x d solve.

    The duals q_i^j are pinned by the adjoint chain relations
    (A^H q^m = 0, A^H q^j + B^H q^{j+1} = 0) and biorthogonality
    <B phi_k^l, q_i^j> = delta_ik delta_jl; that system has a unique
    solution, the chain rows of the left transform of the Weierstrass form
    (Gantmacher 1959, ch. XII; Berger, Ilchmann & Trenn 2012). Those rows
    span L*, the limit of the Wong sequence of (A^H, B^H), whose basis
    `canonical.dual_span` is; within L* biorthogonality alone pins them.
    """
    phi = canonical.phi
    n_dim, d = phi.shape
    if d == 0:  # no chains: there is nothing to solve
        dual = DualSystem(q=np.zeros((n_dim, 0)))
        return replace(dual, residuals=dual_residuals(pencil, canonical, dual))
    span = canonical.dual_span
    pairing = span.conj().T @ (pencil.b @ phi)
    try:
        q = span @ np.linalg.solve(pairing.conj().T, np.eye(d))
    except np.linalg.LinAlgError:
        q = None
    if q is None or not np.all(np.isfinite(q)):
        raise BiorthogonalizationFailure(
            "the pairing matrix of the chains and the span of the duals is "
            "numerically singular")
    dual = DualSystem(q=q)
    residuals = dual_residuals(pencil, canonical, dual)
    if not residuals["worst"] <= TOL.biorth:
        raise BiorthogonalizationFailure(
            f"dual system residuals too large "
            f"(worst {residuals['worst']:.3e})")
    return replace(dual, residuals=residuals)


def _vectors(table: np.ndarray) -> list[np.ndarray]:
    """The columns of a chain or dual table as contiguous vectors, so that
    a residual takes the products it takes per vector."""
    return list(table.T.copy())


def chain_residuals(pencil: Pencil, canonical: CanonicalSystem) -> dict:
    """Relative residuals of the chain relations; keys per relation kind."""
    a, b = pencil.a, pencil.b
    scale = pencil.scale
    vs = _vectors(canonical.phi)
    kernel = 0.0
    links = 0.0
    for k, (_, j) in enumerate(canonical.labels):
        rel = scale * max(1.0, float(np.linalg.norm(vs[k])))
        if j == 1:  # A phi^1 = 0
            kernel = max(kernel, float(np.linalg.norm(a @ vs[k])) / rel)
        else:       # A phi^j + B phi^{j-1} = 0
            r = float(np.linalg.norm(a @ vs[k] + b @ vs[k - 1]))
            links = max(links, r / rel)
    # chain vectors must stay independent
    sig = np.linalg.svd(canonical.phi, compute_uv=False)
    smin = float(sig[-1]) if sig.size else 1.0
    return {"kernel": kernel, "links": links, "min_singular_value": smin,
            "worst": max(kernel, links)}


def dual_residuals(pencil: Pencil, canonical: CanonicalSystem,
                   dual: DualSystem) -> dict:
    """Residuals of the adjoint chain relations, relative to the pair's
    scale, and of biorthogonality against B Phi."""
    a, b = pencil.a, pencil.b
    ah, bh = a.conj().T, b.conj().T
    scale = pencil.scale
    qs = _vectors(dual.q)
    chain_rel = 0.0
    for k, (m, j) in enumerate(canonical.labels):
        if j == m:  # A^H q^m = 0
            r = float(np.linalg.norm(ah @ qs[k]))
        else:       # A^H q^j + B^H q^{j+1} = 0
            r = float(np.linalg.norm(ah @ qs[k] + bh @ qs[k + 1]))
        chain_rel = max(chain_rel, r / scale)
    gram = dual.q.conj().T @ (b @ canonical.phi)
    biorth = float(np.max(np.abs(gram - np.eye(gram.shape[0])),
                          initial=0.0))
    return {"adjoint_links": chain_rel, "biorthogonality": biorth,
            "worst": max(chain_rel, biorth)}


def analysis_report(pencil: Pencil, canonical: CanonicalSystem,
                    dual: DualSystem) -> dict:
    """JSON-ready summary of the pencil analysis; the residuals are those
    `build_chains` and `build_dual_chains` kept."""
    return {
        "dimension": pencil.n_dim,
        "index": canonical.nu,
        "kernel_dimension": canonical.n,
        "multiplicities": canonical.multiplicities,
        "chain_residuals": canonical.residuals,
        "dual_residuals": dual.residuals,
    }
