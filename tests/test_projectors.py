import warnings
from collections import Counter

import numpy as np
import pytest

import daekit.projectors
from daekit import (InvariantViolation, Pencil, build_chains,
                    build_dual_chains, build_projectors, verify_projectors)
from daekit._linalg import rel_residual, subspace_gap
from daekit.pencil import DualSystem
from daekit.problems import load_problem_dict
from daekit.projectors import build_all

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


def test_b2_semi_inverse_closed_form(analyzed_corpus):
    # the least-squares construction must coincide with  Phi Q^H
    for ws, canonical, dual, ps in analyzed_corpus[:15]:
        if canonical.n == 0:
            continue
        closed = canonical.matrix() @ dual.matrix().conj().T
        np.testing.assert_allclose(ps.b2_semi_inv, closed, atol=1e-9)


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
        for s, mat in enumerate(ps.q2s):
            got = sum(ps.q2s_by_mult[(s, j)] for j in range(s + 1, ps.nu + 1))
            np.testing.assert_allclose(got, mat, atol=1e-10)


def test_inconsistent_inputs_raise():
    p1 = Pencil(NILPOTENT, EYE2)
    p2 = Pencil(np.diag([1.0, 0.0]), EYE2)
    cs1 = build_chains(p1)
    ds2 = build_dual_chains(p2, build_chains(p2))
    with pytest.raises(InvariantViolation):
        build_projectors(cs1, ds2, p1)  # multiplicities disagree

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
    nan_duals = DualSystem(chains=tuple(
        tuple(np.full(2, np.nan) for _ in qs)
        for qs in build_dual_chains(p, cs).chains))
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
        for (shape, _, data), count in Counter(decomposed).items():
            # equal values of different quantities: A = 0 makes G and its
            # powers 0, and a lone chain of length 1 is the top direction
            # whose SVD chose it, decomposed again in the independence check
            assert count == 1 or not any(data) or (
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


def test_tiny_b_pair_loads_without_overflow():
    # B of order 1e-233 makes chain vectors and operators of order 1e233
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pb = load_problem_dict({"name": "tiny", "A": [[0.0]],
                                "B": [[5.700772058129799e-233]],
                                "field": {"registry_id": "zero"}})
    assert pb.dae.projectors.nu == 1
    assert max(pb.dae.projectors.residuals.values()) == 0.0
