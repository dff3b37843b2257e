import dataclasses

import numpy as np
import pytest

from daekit import (BiorthogonalizationFailure, Pencil, RankAmbiguity,
                    SingularPencil, build_all, build_chains,
                    build_dual_chains, chain_residuals, compute_index,
                    dual_residuals)
from daekit.pencil import DualSystem, _wong_pair
from daekit.problems import random_weierstrass

from conftest import subspace_gap

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
EYE2 = np.eye(2)


def test_regular_point_identity_case():
    # every lambda != 0 is a regular point of (I, 0); A is invertible, so
    # the Wong sequence is empty and the index is 0
    p = Pencil(EYE2, np.zeros((2, 2)))
    assert np.linalg.det(p.a + p.b) == 1.0
    assert compute_index(p) == 0
    cs = build_chains(p)
    assert cs.phi.shape == cs.dual_span.shape == (2, 0)


def test_regular_point_nilpotent():
    # det(lambda*A + B) = 1 for every lambda, and the analysis takes none:
    # the Wong sequence is ker A = span(e1), then the whole space
    p = Pencil(NILPOTENT, EYE2)
    for lam in (0.0, 1.0, -2.5):
        assert np.linalg.det(lam * p.a + p.b) == 1.0
    spaces, dual_span, down = _wong_pair(p)
    assert [s.shape[1] for s in spaces] == [1, 2]
    assert dual_span.shape == (2, 2)
    np.testing.assert_allclose(np.linalg.matrix_power(down, 2), 0.0,
                               atol=1e-15)


def test_regular_point_zero_pencil():
    # no lambda is a regular point of the zero pair: it is singular
    for analyse in (compute_index, build_chains):
        with pytest.raises(SingularPencil, match="the pair is singular"):
            analyse(Pencil(np.zeros((2, 2)), np.zeros((2, 2))))


def test_analysis_keeps_no_state_on_the_pencil():
    p = Pencil(NILPOTENT, EYE2)
    before = {k: np.copy(v) for k, v in vars(p).items()}
    build_all(p)
    assert compute_index(p) == 2
    assert vars(p).keys() == before.keys() == {"a", "b", "scale"}
    assert all(np.array_equal(vars(p)[k], v) for k, v in before.items())


# more singular pairs, each with the rank of [A; B]: the L1 + L1^T pair's ker A =
# span(e2) and ker B = span(e1) meet only in 0, yet det(lambda A + B)
# vanishes for every lambda
SINGULAR_PAIRS = {
    "common_kernel": (np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), 1),
    "l1_l1t": (np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
               np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
               3),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_PAIRS))
def test_singular_pairs_raise(name):
    a, b, stacked_rank = SINGULAR_PAIRS[name]
    assert np.linalg.matrix_rank(np.vstack([a, b])) == stacked_rank
    for lam in (0.3, -1.7, 2.9, 1j):
        assert abs(np.linalg.det(lam * a + b)) == 0.0
    for analyse in (compute_index, build_chains):
        with pytest.raises(SingularPencil, match="the pair is singular"):
            analyse(Pencil(a, b))


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


def test_intersection_rank_ambiguity_guard():
    # A's rank is clear, but B e3, the image of ker A, leaves range A by
    # 1e-10, inside the guard band (2.2e-13, 6.7e-9) of the intersection's
    # rank cutoff: index 1 and index 2 are both within rounding
    a = np.diag([1.0, 1.0, 0.0])
    b = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-10]])
    for analyse in (compute_index, build_chains):
        with pytest.raises(RankAmbiguity,
                           match="rank of B W_i off range A ambiguous"):
            analyse(Pencil(a, b))


def benchmark_shapes():
    """Pairs of the sizes and chain patterns the pair-analysis benchmark
    draws: N = 32, 64, 128, index 1..6, chains of the index filling a
    quarter of the dimension and one shorter chain for the remainder."""
    for n_dim in (32, 64, 128):
        for index in range(1, 7):
            count, rest = divmod(n_dim // 4, index)
            segre = [index] * count + ([rest] if rest else [])
            yield random_weierstrass(n_dim + index, n_dim, segre)


def test_wong_sequence_matches_the_weierstrass_form(pencil_corpus):
    # W_j is spanned by the columns of T^{-1} at the first j levels of each
    # chain block, and L* by the rows of S^{-1} at the chain blocks
    for ws in [*pencil_corpus, *benchmark_shapes()]:
        p = Pencil(ws.pencil.a, ws.pencil.b)
        n_dim, d = ws.pencil.n_dim, sum(ws.segre)
        n_ode = n_dim - d
        spaces, dual_span, _ = _wong_pair(p)
        assert compute_index(p) == len(spaces) == ws.index
        assert [s.shape[1] for s in spaces] == [
            sum(min(m, j) for m in ws.segre) for j in range(1, ws.index + 1)]
        t_inv = np.linalg.inv(ws.t_mat)
        starts = n_ode + np.cumsum([0] + ws.segre[:-1])
        for j, space in enumerate(spaces, start=1):
            cols = [s + k for s, m in zip(starts, ws.segre)
                    for k in range(min(m, j))]
            assert subspace_gap(space, t_inv[:, cols]) <= 1e-8
        s_mat = np.hstack([(p.a @ t_inv)[:, :n_ode], (p.b @ t_inv)[:, n_ode:]])
        truth = np.linalg.inv(s_mat).conj().T[:, n_ode:]
        assert dual_span.shape == (n_dim, d)
        assert subspace_gap(dual_span, truth) <= 1e-8


def neumann_laplacian(n: int) -> np.ndarray:
    """The discrete Neumann Laplacian on [0, 1] with n cells: it
    annihilates constants, and its norm grows like 4 n^2."""
    lap = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
           + np.diag(np.ones(n - 1), -1))
    lap[0, 0] = lap[-1, -1] = -1.0
    return lap * n ** 2


@pytest.mark.parametrize("n", [32, 64])
def test_method_of_lines_pair_is_index_one(n):
    # A = diag(I_N, 0), B = diag(-L_N, 1): badly scaled, as ||B|| grows
    # like 4 N^2 while ||A|| = 1
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.eye(n)
    b = np.zeros((n + 1, n + 1))
    b[:n, :n] = -neumann_laplacian(n)
    b[n, n] = 1.0
    p = Pencil(a, b)
    assert compute_index(p) == 1
    cs, ds, ps = build_all(p)
    assert cs.multiplicities == [1]
    np.testing.assert_array_equal(cs.phi[:, 0], np.eye(n + 1)[n])
    assert ds.residuals["worst"] <= 1e-8


@pytest.mark.parametrize("seed", range(40))
def test_segre_characteristic_of_row_and_column_scaled_pairs(seed):
    # D_r A D_c, D_r B D_c with diagonal entries 10^U(-1, 1) have the same
    # chains up to the scaling, and the same Segre characteristic
    rng = np.random.default_rng(900 + seed)
    n_dim = int(rng.integers(6, 17))
    segre = [int(m) for m in rng.integers(1, 5, rng.integers(1, 4))
             ][:n_dim]
    while sum(segre) > n_dim:
        segre.pop()
    ws = random_weierstrass(900 + seed, n_dim, segre)
    rows = 10.0 ** rng.uniform(-1, 1, n_dim)
    cols = 10.0 ** rng.uniform(-1, 1, n_dim)
    p = Pencil(rows[:, np.newaxis] * ws.pencil.a * cols,
               rows[:, np.newaxis] * ws.pencil.b * cols)
    assert compute_index(p) == ws.index
    cs, ds, ps = build_all(p)
    assert cs.multiplicities == ws.segre
    assert cs.residuals["worst"] <= 1e-8 and ds.residuals["worst"] <= 1e-8
    gt_p2 = ws.projectors_gt["p2"]
    p2 = (cols[:, np.newaxis] ** -1) * gt_p2 * cols
    assert np.abs(ps.p2 - p2).max() <= 1e-6 * max(1.0, np.abs(p2).max())


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
    # an index-5 pair of dimension 64, beyond the bundled index 0 to 3
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
    # B maps the finite deflating subspace, spanned by the columns of T^{-1}
    # at the explicit block, onto vectors that L* annihilates: the pairing
    # matrix L*^H B Phi is then singular, and its solve must not return
    # duals, nor let a LinAlgError escape
    ws = random_weierstrass(4, 12, [3, 2])
    p = ws.pencil
    cs = build_chains(p)
    x = np.linalg.inv(ws.t_mat)[:, :12 - 5] @ np.ones(12 - 5)
    with pytest.raises(BiorthogonalizationFailure):
        build_dual_chains(p, _replaced(cs, x / np.linalg.norm(x),
                                       level=level))


def test_zero_chain_vector_fails_biorthogonalization():
    ws = random_weierstrass(4, 12, [3, 2])
    cs = build_chains(ws.pencil)
    # an exactly singular pairing matrix: numpy's solve raises LinAlgError
    with pytest.raises(BiorthogonalizationFailure, match="pairing matrix"):
        build_dual_chains(ws.pencil, _replaced(cs, np.zeros(12), level=1))


def test_duals_do_not_depend_on_the_basis_of_the_dual_span():
    # only the span L* enters the duals: a real rotation of its basis keeps
    # them real, and a complex unitary one leaves no imaginary part beyond
    # rounding
    ws = random_weierstrass(3, 10, [3, 2])
    cs = build_chains(ws.pencil)
    ref = build_dual_chains(ws.pencil, cs).q
    rng = np.random.default_rng(5)
    real_rot, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    unitary, _ = np.linalg.qr(rng.standard_normal((5, 5))
                              + 1j * rng.standard_normal((5, 5)))
    for rot in (real_rot, unitary):
        turned = dataclasses.replace(cs, dual_span=cs.dual_span @ rot)
        ds = build_dual_chains(ws.pencil, turned)
        assert np.iscomplexobj(ds.q) == np.iscomplexobj(rot)
        np.testing.assert_allclose(ds.q, ref, atol=1e-12)
