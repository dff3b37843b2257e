"""Regularity, index and root-vector chains of a matrix pair (A, B).

The central objects are the shifted inverse G = (lambda* A + B)^{-1} A and
its staircase of kernels at the eigenvalue 0. One SVD of each power G^j
decides its rank, gives its kernel basis and, at j = nu, an orthonormal
basis of the finite deflating subspace range(G^nu). The staircase fixes
how many chains of each length exist, and chains of G are converted into
chains of the pair. The dual chains are the matching rows of the
Weierstrass form's left transform: one N x N solve pairs them with the
chains and with that finite subspace basis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import (as_matrix, cond2, guarded_count, guarded_rank,
                      orth_basis, rank_cutoff, svd, trim_imag)
from .config import DEFAULT_TOLERANCES as TOL
from .errors import (BiorthogonalizationFailure, ChainExtensionFailure,
                     SingularPencil)

__all__ = [
    "Pencil", "CanonicalSystem", "DualSystem",
    "find_regular_point", "compute_index", "build_chains",
    "build_dual_chains", "chain_residuals", "dual_residuals",
    "analysis_report",
]


@dataclass
class Pencil:
    """Square matrix pair (A, B) defining lambda*A + B; `lambda_star` is
    the regular point `regular_point()` found, once it has run, and `scale`
    is max(1, ||A|| + ||B||) in Frobenius norms, the scale of the chains."""

    a: np.ndarray
    b: np.ndarray
    lambda_star: complex | float | None = field(default=None, init=False)
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

    def shifted(self, lam) -> np.ndarray:
        return lam * self.a + self.b

    def regular_point(self):
        """`find_regular_point` on the first call, kept in `lambda_star`."""
        if self.lambda_star is None:
            self.lambda_star = find_regular_point(self)
        return self.lambda_star


@dataclass(frozen=True)
class CanonicalSystem:
    """The root-vector chains of the pair as one table of columns, and a
    basis of the finite deflating subspace range(G^nu).

    `phi` holds every chain vector as a column, N x d, chain-major with the
    longest chains first; `labels[k]` is the (chain length m, level j) of
    column k, level 1 being the eigenvector. At index 0 `phi` is N x 0.
    `finite` is the orthonormal basis from the SVD of G^nu, N x (N - d):
    the identity for index 0. range(G^nu) does not depend on the shift
    lambda of G. `residuals` is what `chain_residuals` returns for the
    chains, kept by `build_chains` from its final check.
    """

    phi: np.ndarray
    labels: tuple
    finite: np.ndarray
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


# seed and length of each random run in the ladder of candidate shifts
_LADDER_SEED = 0
_LADDER_RANDOM = 16


def _candidate_points(pencil: Pencil):
    n = pencil.n_dim
    for k in range(1, n + 2):
        yield float(k)
        yield float(-k)
    na = float(np.linalg.norm(pencil.a))
    nb = float(np.linalg.norm(pencil.b))
    scale = nb / na if na > 0 and nb > 0 else 1.0
    rng = np.random.default_rng(_LADDER_SEED)
    for _ in range(_LADDER_RANDOM):
        draw = rng.standard_normal()
        if pencil.is_complex:
            draw = draw + 1j * rng.standard_normal()
        yield scale * draw
    if not pencil.is_complex:
        # complex detour for real pairs whose real candidates all failed
        for _ in range(_LADDER_RANDOM):
            yield scale * (rng.standard_normal() + 1j * rng.standard_normal())


def find_regular_point(pencil: Pencil):
    """First shift in a deterministic ladder making lambda*A + B invertible.

    The ladder is 1, -1, 2, -2, ... followed by seeded random draws scaled
    to ||B||/||A||. Raises SingularPencil when every candidate fails the
    condition-number cap.
    """
    tried = 0
    for lam in _candidate_points(pencil):
        tried += 1
        if cond2(pencil.shifted(lam)) <= TOL.cond_cap:
            if isinstance(lam, complex) and lam.imag == 0.0:
                lam = lam.real
            return lam
    raise SingularPencil(
        f"no regular point among {tried} candidates; "
        "the pair appears singular (det identically zero to tolerance)")


def _shift_inverse(pencil: Pencil) -> np.ndarray:
    lam = pencil.regular_point()
    c = pencil.shifted(lam)
    a = pencil.a
    if isinstance(lam, complex) and not pencil.is_complex:
        c = c.astype(np.complex128)
        a = a.astype(np.complex128)
    return np.linalg.solve(c, a)


def _staircase(pencil: Pencil):
    """The staircase of kernels of the powers of G, one SVD per power.

    The SVD of G^j, j = 1..nu+1, gives its rank, the kernel basis and, at
    j = nu, the range basis. Returns (G, ranks [N, rank G, ..., rank
    G^{nu+1}], kernel bases of G^0..G^nu, orthonormal basis of
    range(G^nu)). The rank threshold for the j-th power is referenced
    against sigma_max(G)**j, not against the power's own largest singular
    value: once the power is numerically zero the latter is pure rounding
    fuzz.
    """
    g = _shift_inverse(pencil)
    n = g.shape[0]
    ranks = [n]
    kernels = [np.zeros((n, 0), dtype=g.dtype)]
    p = finite = np.eye(n, dtype=g.dtype)  # G^0
    for j in range(1, n + 2):
        p = p @ g
        u, sig, vh = svd(p)
        if j == 1:
            smax = float(sig[0])
        r = guarded_count(sig, n, what="power of shifted inverse",
                          ref=max(smax, 1e-300) ** j)
        ranks.append(r)
        if r == ranks[-2]:
            return g, ranks, kernels, finite
        kernels.append(vh[r:].conj().T)
        finite = u[:, :r]
    raise AssertionError("rank staircase did not stabilize")  # pragma: no cover


def _segre(ranks: list[int]) -> list[int]:
    """Chain lengths (descending) from the rank staircase."""
    nu = len(ranks) - 2  # index where ranks stabilized
    ge = [ranks[j - 1] - ranks[j] for j in range(1, nu + 1)]  # blocks >= j
    out = []
    for j in range(1, nu + 1):
        exact = ge[j - 1] - (ge[j] if j < nu else 0)
        out.extend([j] * exact)
    return sorted(out, reverse=True)


def compute_index(pencil: Pencil) -> int:
    """Pole order of (A + mu B)^{-1} at mu = 0; zero iff A is invertible."""
    if guarded_rank(pencil.a, what="A") == pencil.n_dim:
        return 0
    return len(_staircase(pencil)[1]) - 2


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

    Chain lengths come from the rank staircase of G = (lambda*A+B)^{-1}A;
    top vectors are chosen greedily (longest chains first, deflating used
    directions), mapped down by G, converted to chains of the pair, and
    polished by a minimal-norm least-squares correction with a
    range-membership residual test.
    """
    n_dim = pencil.n_dim
    # one SVD of A gives its rank and the polish step's pseudo-inverse, as
    # numpy's pinv takes it: of the conjugate, with values to 1e-15 sigma_max
    a_u, a_sig, a_vt = np.linalg.svd(pencil.a.conjugate(),
                                     full_matrices=False)
    if guarded_count(a_sig, n_dim, "A") == n_dim:
        system = CanonicalSystem(phi=np.zeros((n_dim, 0)), labels=(),
                                 finite=np.eye(n_dim))
        return replace(system, residuals=chain_residuals(pencil, system))

    lam = pencil.regular_point()
    g, ranks, kernels, finite = _staircase(pencil)
    nu = len(ranks) - 2
    lengths = _segre(ranks)
    count_exact = {m: lengths.count(m) for m in set(lengths)}

    # greedy top-vector selection, longest chains first
    tops: list[tuple[np.ndarray, int]] = []
    for j in range(nu, 0, -1):
        need = count_exact.get(j, 0)
        if need == 0:
            continue
        avoid = [kernels[j - 1]]
        for v, lvl in tops:
            w = v
            for _ in range(lvl - j):
                w = g @ w
            avoid.append(w.reshape(-1, 1))
        w_basis = orth_basis(np.hstack(avoid))
        cand = kernels[j]
        proj = cand - w_basis @ (w_basis.conj().T @ cand)
        u, sig, _ = svd(proj, full_matrices=False)
        cut = rank_cutoff(sig, n_dim)
        if int(np.sum(sig > cut)) < need:
            raise ChainExtensionFailure(
                f"staircase predicts {need} chains of length {j} but only "
                f"{int(np.sum(sig > cut))} independent top directions found")
        for k in range(need):
            tops.append((u[:, k], j))

    # map tops down by G and convert to chains of the pair
    raw_chains: list[list[np.ndarray]] = []
    for v, m in tops:
        gv = [v]
        for _ in range(m - 1):
            gv.append(g @ gv[-1])
        gv = gv[::-1]  # gv[0] is the eigenvector
        # coefficient recurrence expressing pair-chain vectors in the g-chain
        coeffs = np.zeros((m, m), dtype=g.dtype)
        coeffs[0, 0] = 1.0
        for j in range(1, m):
            prev = coeffs[j - 1]
            cur = np.zeros(m, dtype=g.dtype)
            for l in range(1, m):
                cur[l] = -prev[l - 1] + lam * prev[l]
            coeffs[j] = cur
        chain = [sum(coeffs[j, l] * gv[l] for l in range(m)) for j in range(m)]
        raw_chains.append(chain)

    # polish: enforce A phi^j = -B phi^{j-1} by least squares, testing
    # range membership of -B phi^{j-1}
    large = a_sig > 1e-15 * a_sig[0]
    s_inv = np.divide(1, a_sig, where=large, out=np.zeros_like(a_sig))
    a_pinv = a_vt.T @ (s_inv[:, np.newaxis] * a_u.T)
    a, b = pencil.a, pencil.b
    if np.iscomplexobj(g):
        a = a.astype(np.complex128)
        b = b.astype(np.complex128)
    for chain in raw_chains:
        for j in range(1, len(chain)):
            rhs = -b @ chain[j - 1]
            membership = float(np.linalg.norm(a @ (a_pinv @ rhs) - rhs))
            if membership > TOL.chain * pencil.scale * max(
                    1.0, float(np.linalg.norm(rhs))):
                raise ChainExtensionFailure(
                    f"extension to level {j + 1} failed the range test "
                    f"(residual {membership:.3e})")
            chain[j] = chain[j] - a_pinv @ (a @ chain[j] - rhs)

    # orthonormalize eigenvectors within equal-multiplicity groups
    grouped: dict[int, list[list[np.ndarray]]] = {}
    for ch in raw_chains:
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
    if not pencil.is_complex:
        finished = [[trim_imag(v, TOL.imag_trim) for v in ch] for ch in finished]

    def sort_key(ch):
        v = ch[0]
        return (-len(ch), tuple(np.round(np.real(v), 10)),
                tuple(np.round(np.imag(v), 10)))

    finished.sort(key=sort_key)
    system = CanonicalSystem(
        phi=np.column_stack([v for ch in finished for v in ch]),
        labels=tuple((len(ch), j) for ch in finished
                     for j in range(1, len(ch) + 1)),
        finite=finite)
    residuals = chain_residuals(pencil, system)
    if not residuals["worst"] <= TOL.chain:
        raise ChainExtensionFailure(
            f"constructed chains violate the chain relations "
            f"(worst relative residual {residuals['worst']:.3e})")
    return replace(system, residuals=residuals)


def build_dual_chains(pencil: Pencil, canonical: CanonicalSystem) -> DualSystem:
    """Dual chains: the rows of the Weierstrass left transform that belong
    to the chains, from one N x N solve.

    The duals q_i^j are pinned by the adjoint chain relations
    (A^H q^m = 0, A^H q^j + B^H q^{j+1} = 0) and biorthogonality
    <B phi_k^l, q_i^j> = delta_ik delta_jl; that system has a unique
    solution, the chain rows of the left transform of the Weierstrass form
    (Gantmacher 1959, ch. XII; Berger, Ilchmann & Trenn 2012). Those rows
    annihilate (lambda A + B) T_f, where T_f spans the finite deflating
    subspace range(G^nu), G = (lambda A + B)^{-1} A; here T_f is the
    basis `canonical.finite` from the staircase. On the chains, A phi^l =
    -B phi^{l-1} gives q_i^{jH} (lambda A + B) phi_k^l = delta_ik
    (delta_jl - lambda delta_{j,l-1}). So Q^H M = [0, I + lambda N_c] with
    M = (lambda A + B) [T_f, Phi] and N_c the per-chain signed shift: one
    solve with M^H.
    """
    phi = canonical.phi
    n_dim, d = phi.shape
    if d == 0:  # no chains: no shift is needed, and there is nothing to solve
        dual = DualSystem(q=np.zeros((n_dim, 0)))
        return replace(dual, residuals=dual_residuals(pencil, canonical, dual))
    lam = pencil.regular_point()
    pairing = pencil.shifted(lam) @ np.hstack([canonical.finite, phi])
    # [0, I + lambda N_c]^H: the identity, and -conj(lambda) pairing each
    # vector above a chain's first level with the dual one level below
    rhs = np.zeros((n_dim, d), dtype=pairing.dtype)
    rhs[n_dim - d:] = np.eye(d)
    above = np.array(canonical.columns(lambda m, j: j > 1), dtype=int)
    rhs[n_dim - d + above, above - 1] = -np.conj(lam)
    try:
        q = np.linalg.solve(pairing.conj().T, rhs)
    except np.linalg.LinAlgError:
        q = None
    if q is None or not np.all(np.isfinite(q)):
        raise BiorthogonalizationFailure(
            "the pairing matrix of the chains and the finite deflating "
            "subspace is numerically singular")
    vectors = list(q.T.copy())
    if not pencil.is_complex and not np.iscomplexobj(phi):
        # the table is real only where every one of its columns trims
        vectors = [trim_imag(v, TOL.imag_trim) for v in vectors]
    dual = DualSystem(q=np.column_stack(vectors))
    residuals = dual_residuals(pencil, canonical, dual)
    if not residuals["worst"] <= TOL.biorth:
        raise BiorthogonalizationFailure(
            f"dual system residuals too large "
            f"(worst {residuals['worst']:.3e})")
    return replace(dual, residuals=residuals)


def _vectors(table: np.ndarray) -> list[np.ndarray]:
    """The columns of a chain or dual table as contiguous vectors, each one
    real where its imaginary part is zero: the vectors as they were built,
    so that a residual takes the products it took per vector."""
    return [trim_imag(v, 0.0) for v in table.T.copy()]


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
    lam = pencil.lambda_star
    lam_out = ([lam.real, lam.imag] if isinstance(lam, complex) else lam)
    return {
        "dimension": pencil.n_dim,
        "regular_point": lam_out,
        "index": canonical.nu,
        "kernel_dimension": canonical.n,
        "multiplicities": canonical.multiplicities,
        "chain_residuals": canonical.residuals,
        "dual_residuals": dual.residuals,
    }
