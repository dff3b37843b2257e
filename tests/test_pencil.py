import dataclasses

import numpy as np
import pytest

from daekit import (BiorthogonalizationFailure, Pencil, RankAmbiguity,
                    SingularPencil, build_all, build_chains,
                    build_dual_chains, chain_residuals, compute_index,
                    dual_residuals, find_regular_point)
from daekit._linalg import guarded_count, guarded_rank, rank_cutoff, svd
from daekit.pencil import DualSystem, _shift_inverse, _staircase
from daekit.problems import random_weierstrass

from conftest import subspace_gap

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
EYE2 = np.eye(2)


def test_regular_point_identity_case():
    assert find_regular_point(Pencil(EYE2, np.zeros((2, 2)))) == 1.0


def test_regular_point_nilpotent():
    # 1*A + B = [[1,1],[0,1]] is invertible, so the first candidate wins
    assert find_regular_point(Pencil(NILPOTENT, EYE2)) == 1.0


def test_regular_point_caches_only_through_the_method():
    p = Pencil(NILPOTENT, EYE2)
    assert find_regular_point(p) == 1.0
    assert p.lambda_star is None
    assert p.regular_point() == 1.0 and p.lambda_star == 1.0


def test_regular_point_zero_pencil():
    with pytest.raises(SingularPencil):
        find_regular_point(Pencil(np.zeros((2, 2)), np.zeros((2, 2))))


def test_index_invertible_a():
    assert compute_index(Pencil(EYE2, np.diag([1.0, 2.0]))) == 0


def test_index_one():
    assert compute_index(Pencil(np.diag([1.0, 0.0]), EYE2)) == 1


def test_index_two():
    assert compute_index(Pencil(NILPOTENT, EYE2)) == 2


def test_rank_ambiguity_guard():
    # a singular value placed inside the guard band of the rank cutoff
    with pytest.raises(RankAmbiguity):
        compute_index(Pencil(np.diag([1.0, 1e-10]), EYE2))


def test_staircase_rank_ambiguity_guard():
    # A's rank is clear, but sigma(G^2) = 2.5e-11 lies inside the guard
    # band (5.6e-14, 1.7e-9) of the second power's rank cutoff
    for analyse in (compute_index, build_chains):
        with pytest.raises(RankAmbiguity,
                           match="rank of power of shifted inverse ambiguous"):
            analyse(Pencil(np.diag([1.0, 5e-6, 0.0]), np.eye(3)))


def two_pass_staircase(pencil):
    """Reference: the guarded rank of each power of G from its singular
    values alone, then the kernel of each power from a second SVD."""
    g = _shift_inverse(pencil)
    n = g.shape[0]
    smax = float(np.linalg.svd(g, compute_uv=False)[0])
    ranks = [n]
    p = np.eye(n, dtype=g.dtype)
    for j in range(1, n + 2):
        p = p @ g
        ranks.append(guarded_count(np.linalg.svd(p, compute_uv=False), n,
                                   "power", ref=max(smax, 1e-300) ** j))
        if ranks[-1] == ranks[-2]:
            break
    kernels = [np.zeros((n, 0), dtype=g.dtype)]
    p = np.eye(n, dtype=g.dtype)
    for j in range(1, len(ranks) - 1):
        p = p @ g
        _, sig, vh = svd(p)
        cut = rank_cutoff(sig, n, ref=max(smax, 1e-300) ** j)
        kernels.append(vh[int(np.sum(sig > cut)):].conj().T)
    return ranks, kernels


def benchmark_shapes():
    """Pairs of the sizes and chain patterns the pair-analysis benchmark
    draws: N = 32, 64, 128, index 1..6, chains of the index filling a
    quarter of the dimension and one shorter chain for the remainder."""
    for n_dim in (32, 64, 128):
        for index in range(1, 7):
            count, rest = divmod(n_dim // 4, index)
            segre = [index] * count + ([rest] if rest else [])
            yield random_weierstrass(n_dim + index, n_dim, segre)


def test_one_pass_staircase_matches_the_two_pass_reference(pencil_corpus):
    for ws in [*pencil_corpus, *benchmark_shapes()]:
        p = Pencil(ws.pencil.a, ws.pencil.b)
        _, ranks, kernels, finite = _staircase(p)
        ref_ranks, ref_kernels = two_pass_staircase(p)
        assert ranks == ref_ranks
        assert len(kernels) == len(ref_kernels) == ws.index + 1
        for got, ref in zip(kernels, ref_kernels):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        n_dim, d = ws.pencil.n_dim, sum(ws.segre)
        if ws.index == 0:
            # A is invertible: the analysis takes no staircase
            assert guarded_rank(ws.pencil.a) == n_dim
            finite = build_chains(p).finite
            assert np.array_equal(finite, np.eye(n_dim))
        assert finite.shape == (n_dim, n_dim - d)
        truth = np.linalg.inv(ws.t_mat)[:, :n_dim - d]
        assert subspace_gap(finite, truth) <= 1e-8


def test_chains_nilpotent_pair():
    cs = build_chains(Pencil(NILPOTENT, EYE2))
    assert cs.n == 1 and cs.nu == 2 and cs.multiplicities == [2]
    assert cs.labels == ((2, 1), (2, 2))
    np.testing.assert_allclose(cs.phi, [[1.0, 0.0], [0.0, -1.0]],
                               atol=1e-12)


def test_chains_index_one():
    cs = build_chains(Pencil(np.diag([1.0, 0.0]), EYE2))
    assert cs.multiplicities == [1]
    np.testing.assert_allclose(cs.phi[:, 0], [0.0, 1.0],
                               atol=1e-12)


def test_chains_trivial_kernel():
    rng = np.random.default_rng(0)
    cs = build_chains(Pencil(np.eye(3), rng.standard_normal((3, 3))))
    assert cs.n == 0 and cs.nu == 0 and cs.labels == ()
    assert cs.phi.shape == (3, 0)
    assert cs.residuals == {"kernel": 0.0, "links": 0.0,
                            "min_singular_value": 1.0, "worst": 0.0}


def test_duals_nilpotent_pair():
    p = Pencil(NILPOTENT, EYE2)
    cs = build_chains(p)
    ds = build_dual_chains(p, cs)
    np.testing.assert_allclose(ds.q, [[1.0, 0.0], [0.0, -1.0]],
                               atol=1e-12)


def test_duals_index_one():
    p = Pencil(np.diag([1.0, 0.0]), EYE2)
    ds = build_dual_chains(p, build_chains(p))
    np.testing.assert_allclose(ds.q[:, 0], [0.0, 1.0], atol=1e-12)


def test_duals_empty_for_index_zero():
    p = Pencil(EYE2, np.diag([1.0, 2.0]))
    ds = build_dual_chains(p, build_chains(p))
    assert ds.q.shape == (2, 0)
    assert ds.residuals == {"adjoint_links": 0.0, "biorthogonality": 0.0,
                            "worst": 0.0}


def test_corpus_chain_and_dual_invariants(analyzed_corpus):
    for ws, canonical, dual, _ps in analyzed_corpus:
        p = ws.pencil
        assert canonical.nu == ws.index
        assert canonical.n == ws.n
        assert canonical.multiplicities == sorted(ws.segre, reverse=True)
        assert sum(canonical.multiplicities) == sum(ws.segre)
        cres = chain_residuals(p, canonical)
        assert canonical.residuals == cres  # kept from the final check
        assert cres["worst"] <= 1e-8
        if canonical.n:
            assert cres["min_singular_value"] > 1e-8
        norms = np.linalg.norm(canonical.phi, axis=0)
        eig = canonical.columns(lambda m, j: j == 1)
        assert np.all(np.abs(norms[eig] - 1.0) <= 1e-12)
        assert np.all(norms <= 1e3)  # adjoined vectors: unit-order, not unit
        assert dual.q.shape == canonical.phi.shape
        dres = dual_residuals(p, canonical, dual)
        assert dual.residuals == dres
        assert dres["worst"] <= 1e-8


def test_index_matches_chain_lengths(analyzed_corpus):
    for ws, canonical, _dual, _ps in analyzed_corpus:
        nu = compute_index(ws.pencil)
        if canonical.n:
            assert nu == max(canonical.multiplicities)
        else:
            assert nu == 0


def test_determinism_bitwise():
    a = np.array([[0.3, 1.2, 0.0], [0.0, 0.3, 0.9], [0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.0], [0.0, 0.4, 1.0]])
    first = build_chains(Pencil(a, b))
    second = build_chains(Pencil(a, b))
    assert first.labels == second.labels
    assert first.phi.tobytes() == second.phi.tobytes()


def test_complex_pencil_supported():
    rng = np.random.default_rng(3)
    # unitary conjugation of a 3x3 pair with one length-2 chain
    a_bar = np.zeros((3, 3), dtype=complex)
    a_bar[0, 0] = 1.0
    a_bar[1, 2] = 1.0
    b_bar = np.eye(3, dtype=complex)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    p = Pencil(u @ a_bar @ v, u @ b_bar @ v)
    assert compute_index(p) == 2
    cs = build_chains(p)
    ds = build_dual_chains(p, cs)
    assert cs.multiplicities == [2]
    assert chain_residuals(p, cs)["worst"] <= 1e-8
    assert dual_residuals(p, cs, ds)["worst"] <= 1e-8


def test_real_input_gives_real_output(analyzed_corpus):
    for ws, canonical, dual, _ps in analyzed_corpus[:10]:
        assert not np.iscomplexobj(canonical.phi)
        assert not np.iscomplexobj(dual.q)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_duals_of_equal_length_chains(seed):
    # three chains of length 3 and two of length 2 share two solves
    ws = random_weierstrass(seed, 48, [3, 3, 3, 2, 2])
    cs = build_chains(ws.pencil)
    assert cs.multiplicities == [3, 3, 3, 2, 2]
    ds = build_dual_chains(ws.pencil, cs)
    assert ds.q.shape == cs.phi.shape == (48, 13)
    assert dual_residuals(ws.pencil, cs, ds)["worst"] <= 1e-8


def test_index_five_pair_beyond_the_bundled_problems():
    # numpy's divide-and-conquer SVD (gesdd) can fail to converge on the
    # third power of G for this pair; the analysis retries on its transpose
    ws = random_weierstrass(7, 64, [5, 5, 5, 1])
    cs, ds, ps = build_all(ws.pencil)
    assert cs.nu == 5 and cs.multiplicities == [5, 5, 5, 1]
    assert chain_residuals(ws.pencil, cs)["worst"] <= 1e-8
    assert dual_residuals(ws.pencil, cs, ds)["worst"] <= 1e-8
    gt = ws.projectors_gt
    for name in ("p1", "p2", "q1", "q2"):
        assert np.abs(getattr(ps, name) - gt[name]).max() <= 1e-6
    assert subspace_gap(ps.p20, gt["p20"]) <= 1e-6
    assert subspace_gap(ps.q2_sigma, gt["q2_sigma"]) <= 1e-6


def stacked_duals(pencil, canonical):
    """Reference duals from the stacked formulation: per chain length m,
    the adjoint chain relations and biorthogonality against B phi on the
    unknowns q^1 ... q^m, solved in the least-squares sense."""
    a, b = pencil.a, pencil.b
    bphi = b @ canonical.phi
    n_dim, d = bphi.shape
    duals = []
    for first in canonical.columns(lambda m, j: j == 1):
        m = canonical.labels[first][0]
        mat = np.zeros((m * (n_dim + d), m * n_dim), dtype=bphi.dtype)
        mat[:n_dim, (m - 1) * n_dim:] = a.conj().T
        for j in range(m - 1):
            rows = slice((j + 1) * n_dim, (j + 2) * n_dim)
            mat[rows, j * n_dim:(j + 1) * n_dim] = a.conj().T
            mat[rows, (j + 1) * n_dim:(j + 2) * n_dim] = b.conj().T
        vec = np.zeros(mat.shape[0], dtype=bphi.dtype)
        for j in range(m):
            top = m * n_dim + j * d
            mat[top:top + d, j * n_dim:(j + 1) * n_dim] = bphi.conj().T
            vec[top + first + j] = 1.0
        sol = np.linalg.lstsq(mat, vec, rcond=None)[0]
        duals.append(sol.reshape(m, n_dim).T)
    return DualSystem(q=np.hstack(duals))


def weierstrass_corpus():
    rng = np.random.default_rng(20)
    for k in range(42):
        n_dim = int(rng.integers(4, 40))
        segre, budget = [], int(rng.integers(1, n_dim // 2 + 1))
        while budget > 0:
            segre.append(int(rng.integers(1, min(6, budget) + 1)))
            budget -= segre[-1]
        yield random_weierstrass(600 + k, n_dim, segre)


def test_duals_match_the_stacked_least_squares_solve():
    for ws in weierstrass_corpus():
        cs = build_chains(ws.pencil)
        got = build_dual_chains(ws.pencil, cs).q
        ref = stacked_duals(ws.pencil, cs).q
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_duals_at_the_largest_benchmark_shape():
    ws = random_weierstrass(11, 128, [6] * 5 + [2])
    cs = build_chains(ws.pencil)
    ds = build_dual_chains(ws.pencil, cs)
    assert cs.multiplicities == [6] * 5 + [2]
    assert chain_residuals(ws.pencil, cs)["worst"] <= 1e-10
    assert dual_residuals(ws.pencil, cs, ds)["worst"] <= 1e-10
    p2 = cs.phi @ ds.q.conj().T @ ws.pencil.b
    assert np.abs(p2 - ws.projectors_gt["p2"]).max() <= 1e-8


def test_duals_reach_numpy_linalg_with_square_matrices_only(monkeypatch):
    ws = random_weierstrass(5, 24, [4, 3, 2])
    cs = build_chains(ws.pencil)
    shapes = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            shapes.extend(np.shape(v) for v in (*args, *kwargs.values())
                          if isinstance(v, np.ndarray))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("solve", "lstsq", "svd", "qr", "inv", "pinv", "eig",
                 "matrix_power", "norm", "cond", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg,
                                                                name)))
    build_dual_chains(ws.pencil, cs)
    assert shapes and max(max(s) for s in shapes) <= 24


def _replaced(canonical, vector, level=0):
    """The canonical system with the vector of level `level` + 1 of its
    first chain (column `level`) replaced."""
    phi = canonical.phi.copy()
    phi[:, level] = vector
    return dataclasses.replace(canonical, phi=phi)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_chain_vector_in_the_finite_subspace_fails_biorthogonalization(level):
    # the pairing matrix (lambda A + B) [T_f, Phi] is then singular: its
    # solve must not return duals, nor let a LinAlgError escape
    ws = random_weierstrass(4, 12, [3, 2])
    p = ws.pencil
    cs = build_chains(p)
    g = np.linalg.solve(p.shifted(p.regular_point()), p.a)
    x = np.linalg.matrix_power(g, cs.nu) @ np.ones(12)
    with pytest.raises(BiorthogonalizationFailure):
        build_dual_chains(p, _replaced(cs, x / np.linalg.norm(x),
                                       level=level))


def test_zero_chain_vector_fails_biorthogonalization():
    ws = random_weierstrass(4, 12, [3, 2])
    cs = build_chains(ws.pencil)
    # an exactly singular pairing matrix: numpy's solve raises LinAlgError
    with pytest.raises(BiorthogonalizationFailure, match="pairing matrix"):
        build_dual_chains(ws.pencil, _replaced(cs, np.zeros(12), level=1))


def test_complex_shift_of_a_real_pair_gives_real_duals():
    # the complex detour: the pairing matrix is complex, the duals of real
    # chains are real and do not depend on the shift
    ws = random_weierstrass(3, 10, [3, 2])
    cs = build_chains(ws.pencil)
    detour = Pencil(ws.pencil.a, ws.pencil.b)
    detour.lambda_star = 0.5 + 0.7j
    ds = build_dual_chains(detour, cs)
    assert not np.iscomplexobj(ds.q)
    np.testing.assert_allclose(
        ds.q, build_dual_chains(ws.pencil, cs).q, atol=1e-12)
