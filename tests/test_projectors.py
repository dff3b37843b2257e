import math
import warnings
from collections import Counter

import numpy as np
import pytest

import daekit.projectors
from daekit import (InvariantViolation, Pencil, build_chains,
                    build_dual_chains, build_projectors, verify_projectors)
from daekit._linalg import rel_residual
from daekit.config import DEFAULT_TOLERANCES as TOL
from daekit.pencil import DualSystem
from daekit.problems import (builtin_names, load_builtin, load_problem_dict,
                             random_weierstrass)
from daekit.projectors import build_all, verify_projectors

from conftest import subspace_gap

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
EYE2 = np.eye(2)


def test_projectors_nilpotent_pair():
    _, _, ps = build_all(Pencil(NILPOTENT, EYE2))
    np.testing.assert_allclose(ps.p2, EYE2, atol=1e-12)
    np.testing.assert_allclose(ps.p1, 0 * EYE2, atol=1e-12)
    np.testing.assert_allclose(ps.q2, EYE2, atol=1e-12)
    np.testing.assert_allclose(ps.p20, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(ps.p2_sigma, np.diag([0.0, 1.0]), atol=1e-12)


def test_projectors_index_one():
    _, _, ps = build_all(Pencil(np.diag([1.0, 0.0]), EYE2))
    np.testing.assert_allclose(ps.p2, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(ps.q2, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(ps.p2_sigma, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(ps.p20, ps.p2, atol=1e-12)


def test_projectors_index_zero():
    _, _, ps = build_all(Pencil(EYE2, np.diag([1.0, 2.0])))
    np.testing.assert_allclose(ps.p1, EYE2, atol=1e-12)
    np.testing.assert_allclose(ps.q1, EYE2, atol=1e-12)
    np.testing.assert_allclose(ps.p2, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(ps.b2_semi_inv, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(ps.a_semi_inv, np.linalg.inv(EYE2), atol=1e-12)


def test_tilde_a_nilpotent_pair():
    _, _, ps = build_all(Pencil(NILPOTENT, EYE2))
    np.testing.assert_allclose(ps.a_tilde, [[0.0, 1.0], [-1.0, 0.0]],
                               atol=1e-12)
    np.testing.assert_allclose(ps.a_tilde_inv, [[0.0, -1.0], [1.0, 0.0]],
                               atol=1e-12)


def test_tilde_a_trivial_cases():
    _, _, ps = build_all(Pencil(EYE2, np.diag([1.0, 2.0])))
    np.testing.assert_allclose(ps.a_tilde, EYE2, atol=1e-12)
    _, _, ps = build_all(Pencil(np.diag([1.0, 0.0]), EYE2))
    np.testing.assert_allclose(ps.a_tilde, EYE2, atol=1e-12)


def test_semi_inverses_examples():
    _, _, ps = build_all(Pencil(np.diag([1.0, 0.0]), EYE2))
    np.testing.assert_allclose(ps.a_semi_inv, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(ps.b2_semi_inv, np.diag([0.0, 1.0]), atol=1e-12)

    _, _, ps = build_all(Pencil(NILPOTENT, EYE2))
    np.testing.assert_allclose(ps.a_semi_inv, [[0.0, 0.0], [1.0, 0.0]],
                               atol=1e-12)
    # defining relation of the semi-inverse
    np.testing.assert_allclose(ps.a_semi_inv @ NILPOTENT,
                               ps.p1 + ps.p2_sigma, atol=1e-12)


def least_squares_b2_semi_inv(ps, pencil):
    """The semi-inverse of B P2 by a least-squares solve: P2 Z with Z the
    minimum-norm solution of (B P2) Z = Q2."""
    z, *_ = np.linalg.lstsq(pencil.b @ ps.p2, ps.q2, rcond=None)
    return ps.p2 @ z


def rank_one_a_tilde(pencil, canonical, dual):
    """A plus, chain by chain, the image of the chain top coupled with the
    functional of the chain's kernel coordinate."""
    a, b = pencil.a, pencil.b
    tops = canonical.columns(lambda m, j: j == m)
    kernels = canonical.columns(lambda m, j: j == 1)
    return a + sum((np.outer(b @ canonical.phi[:, top],
                             (b.conj().T @ dual.q[:, kernel]).conj())
                    for top, kernel in zip(tops, kernels)),
                   np.zeros_like(a))


def benchmark_shaped_pairs():
    """Pairs of the pair-analysis benchmark's shapes: N = 32, 64 and 128 and
    index 1 to 6, with chains of length `index` and one shorter chain for
    the remainder filling a quarter of N."""
    shapes = [(n_dim, index) for n_dim in (32, 64, 128)
              for index in range(1, 7)]
    for seed, (n_dim, index) in enumerate(shapes, start=2000):
        count, rest = divmod(n_dim // 4, index)
        yield random_weierstrass(seed, n_dim,
                                 [index] * count + ([rest] if rest else []))


def test_b2_semi_inverse_closed_form(analyzed_corpus):
    # Phi Q^H is the least-squares semi-inverse of B P2
    for ws, _c, _d, ps in analyzed_corpus:
        np.testing.assert_allclose(
            ps.b2_semi_inv, least_squares_b2_semi_inv(ps, ws.pencil),
            atol=1e-9)


def test_a_tilde_is_the_rank_one_sum_over_chains(analyzed_corpus):
    for ws, canonical, dual, ps in analyzed_corpus:
        np.testing.assert_allclose(
            ps.a_tilde, rank_one_a_tilde(ws.pencil, canonical, dual),
            atol=1e-9)


def test_outer_products_at_benchmark_shapes():
    for ws in benchmark_shaped_pairs():
        canonical, dual, ps = build_all(ws.pencil)
        assert ps.nu == ws.index
        assert max(ps.residuals.values()) <= TOL.proj
        np.testing.assert_allclose(
            ps.b2_semi_inv, least_squares_b2_semi_inv(ps, ws.pencil),
            atol=1e-9)
        np.testing.assert_allclose(
            ps.a_tilde, rank_one_a_tilde(ws.pencil, canonical, dual),
            atol=1e-9)


def test_identity_suite_on_corpus(analyzed_corpus):
    for ws, _c, _d, ps in analyzed_corpus:
        res = verify_projectors(ps, ws.pencil)
        assert max(res.values()) <= 1e-8


def test_partial_sum_identities(analyzed_corpus):
    for ws, _c, _d, ps in analyzed_corpus:
        if ps.nu == 0:
            continue
        np.testing.assert_allclose(sum(ps.q2s), ps.q2, atol=1e-10)
        np.testing.assert_allclose(ps.p2_sigma + ps.p20, ps.p2, atol=1e-10)
        np.testing.assert_allclose(ps.q2_sigma + ps.q2_star, ps.q2, atol=1e-10)
        np.testing.assert_allclose(ps.p2_sigma_1 + ps.p2_sigma_2,
                                   ps.p2_sigma, atol=1e-10)
        np.testing.assert_allclose(ps.q2_star_1 + ps.q2_star_2, ps.q2_star,
                                   atol=1e-10)
        if ps.q2_sigma_s:
            np.testing.assert_allclose(sum(ps.q2_sigma_s), ps.q2_sigma,
                                       atol=1e-10)


def test_inconsistent_inputs_raise():
    p1 = Pencil(NILPOTENT, EYE2)
    p2 = Pencil(np.diag([1.0, 0.0]), EYE2)
    cs1 = build_chains(p1)
    ds2 = build_dual_chains(p2, build_chains(p2))
    with pytest.raises(InvariantViolation):
        build_projectors(cs1, ds2, p1)  # Q has one column, Phi two

    # same shape but duals from a rotated pair: identities must fail
    rot = np.array([[0.0, 1.0], [1.0, 0.0]])
    p3 = Pencil(rot @ NILPOTENT, rot @ EYE2)
    cs3 = build_chains(p3)
    ds3 = build_dual_chains(p3, cs3)
    with pytest.raises(InvariantViolation):
        build_projectors(cs1, ds3, p1)


def test_nan_duals_raise():
    p = Pencil(NILPOTENT, EYE2)
    cs = build_chains(p)
    nan_duals = DualSystem(q=np.full_like(build_dual_chains(p, cs).q,
                                          np.nan))
    with pytest.raises(InvariantViolation):
        build_projectors(cs, nan_duals, p)


def test_pair_analysis_does_each_piece_of_work_once(pencil_corpus,
                                                    monkeypatch):
    svd, rel_residual = np.linalg.svd, daekit.projectors.rel_residual
    decomposed = []
    residual_calls = []

    def recording_svd(m, *args, **kwargs):
        m = np.asarray(m)
        decomposed.append((m.shape, m.dtype.str, m.tobytes()))
        return svd(m, *args, **kwargs)

    def counting_residual(lhs, rhs):
        residual_calls.append(1)
        return rel_residual(lhs, rhs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(daekit.projectors, "rel_residual", counting_residual)
    for ws in pencil_corpus:
        decomposed.clear()
        residual_calls.clear()
        pencil = Pencil(ws.pencil.a, ws.pencil.b)
        canonical, _, ps = build_all(pencil)
        for (shape, _, _), count in Counter(decomposed).items():
            # equal values of different quantities, for a lone chain of
            # length 1 only: its top direction, whose SVD chose it, is
            # decomposed again in the independence check, and the 1 x 1
            # part of B ker A off range A is the same number in the Wong
            # sequences of (A, B) and of (A^H, B^H)
            assert count == 1 or (
                canonical.multiplicities == [1] and shape[1] == 1)
        # every identity once, and the closed form of a_tilde's inverse
        assert len(residual_calls) == len(ps.residuals) + 1
        # what `analyze` reports as projector_residuals
        assert list(ps.residuals.items()) == list(
            verify_projectors(ps, pencil).items())


def test_ground_truth_subspaces(analyzed_corpus):
    # unique spectral projectors agree as matrices; refined projectors agree
    # on their canonical subspace sides (the complements are a convention)
    eye_cache = {}
    for ws, _c, _d, ps in analyzed_corpus:
        gt = ws.projectors_gt
        for name in ("p1", "p2", "q1", "q2"):
            assert np.abs(getattr(ps, name) - gt[name]).max() <= 1e-6
        n_dim = ws.pencil.n_dim
        eye = eye_cache.setdefault(n_dim, np.eye(n_dim))
        if ws.n == 0:
            continue
        assert subspace_gap(ps.p20, gt["p20"]) <= 1e-6          # ker A
        assert subspace_gap(ps.q2_sigma, gt["q2_sigma"]) <= 1e-6  # A D2
        assert subspace_gap(eye - ps.p2_sigma, eye - gt["p2_sigma"]) <= 1e-6
        assert subspace_gap(eye - ps.q2_star, eye - gt["q2_star"]) <= 1e-6


def test_rel_residual_of_large_entries_does_not_overflow():
    # the squared entries overflow; a 5 % identity error used to read 0.0
    lhs = np.full((2, 2), 1e155)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = rel_residual(lhs, lhs - 5e153)
    assert abs(r - 0.05) <= 1e-12


def _rel_residual_reference(lhs, rhs):
    """rel_residual as written on `np.linalg.norm`, with both largest
    entries looked up: the oracle of its shorter form."""
    big = max(float(np.abs(lhs).max(initial=0.0)),
              float(np.abs(rhs).max(initial=0.0)))
    floor = 1.0
    if big > 2.0 ** 500:
        floor = math.ldexp(1.0, -math.frexp(big)[1])
        lhs, rhs = lhs * floor, rhs * floor
    num = float(np.linalg.norm(lhs - rhs))
    den = max(floor, float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return num / den


def _residual_cases():
    rng = np.random.default_rng(39)
    for shape in [(3, 3), (7, 5), (64, 64), (4,), (0, 4), (1, 1)]:
        a = rng.standard_normal(shape)
        b = a + 1e-9 * rng.standard_normal(shape)
        yield a, b
        yield a.T, b.T                              # Fortran order
        yield a, np.zeros_like(a)
        yield np.zeros_like(a), np.zeros_like(a)
        yield a * 1e151, b * 1e151                  # entries above 2**500
        yield a * 1e160, b * 1e160                  # squares overflow
        yield a + 1j * b, b - 2j * a                # complex
    a = rng.standard_normal((6, 8))
    b = a + 1e-3
    yield a[::2, ::3], b[1::2, ::3]                 # strided views
    yield a, b.T.copy().T                           # mixed layouts
    # squared norms at the 2**1000 bound and just past it
    yield np.array([[2.0 ** 500]]), np.array([[2.0 ** 500 - 2.0 ** 450]])
    yield np.array([[2.0 ** 500 * (1.0 + 2.0 ** -52)]]), np.array([[1.0]])
    yield np.array([[2.0 ** 500, 1.0]]), np.array([[1.0, 0.0]])
    yield np.array([[2.0 ** 499, 2.0 ** 499]]), np.array([[0.5, 0.0]])
    for bad in (np.nan, np.inf, -np.inf):
        c = a.copy()
        c[2, 3] = bad
        yield c, a
        yield a, c
        yield c, c


@pytest.mark.parametrize("k, case", enumerate(_residual_cases()))
def test_rel_residual_matches_the_norm_formula_bit_for_bit(k, case):
    lhs, rhs = case
    out = {}
    for name, fun in (("ours", rel_residual),
                      ("reference", _rel_residual_reference)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = fun(lhs, rhs)
        out[name] = (np.float64(value).tobytes(),
                     [str(w.message) for w in caught])
    assert out["ours"] == out["reference"]


def _verify_with_reference(ps, pencil, monkeypatch) -> dict:
    with monkeypatch.context() as m:
        m.setattr(daekit.projectors, "rel_residual", _rel_residual_reference)
        return verify_projectors(ps, pencil)


def test_verification_residuals_equal_the_norm_formulas(monkeypatch):
    # every bundled fixture and the benchmark's seeded pair shapes
    pairs = [(pb.dae.projectors, pb.dae.pencil)
             for pb in map(load_builtin, builtin_names())]
    for ws in benchmark_shaped_pairs():
        pairs.append((build_all(ws.pencil)[2], ws.pencil))
    for ps, pencil in pairs:
        ours = verify_projectors(ps, pencil)
        assert ours == _verify_with_reference(ps, pencil, monkeypatch)


def test_tiny_b_pair_loads_without_overflow():
    # B of order 1e-233 makes chain vectors and operators of order 1e233
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pb = load_problem_dict({"name": "tiny", "A": [[0.0]],
                                "B": [[5.700772058129799e-233]],
                                "field": {"registry_id": "zero"}})
    assert pb.dae.projectors.nu == 1
    assert max(pb.dae.projectors.residuals.values()) == 0.0
