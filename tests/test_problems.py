import json

import numpy as np
import pytest

from daekit import (SchemaError, UnknownRegistryId, builtin, builtin_names,
                    compute_index, load_builtin, load_problem)
from daekit.problems import (load_problem_dict, random_weierstrass,
                             reference_solution)

EXPECTED_BUILTINS = {
    "ode_index0", "ode_scalar_quadratic", "ode_scalar_decay",
    "index1_blowup", "index1_cubic_blowup", "index1_stable",
    "index2_nilpotent_linear", "index2_structured", "index3_chain",
    "failing_constraint",
}


def test_builtin_registry():
    assert EXPECTED_BUILTINS <= set(builtin_names())
    dae = builtin("index1_blowup")
    assert dae.projectors.nu == 1
    with pytest.raises(UnknownRegistryId):
        builtin("no_such_problem")


def test_bundled_indices():
    expected = {"ode_index0": 0, "index1_blowup": 1, "index1_stable": 1,
                "index2_nilpotent_linear": 2, "index2_structured": 2,
                "index3_chain": 3}
    for name, nu in expected.items():
        assert builtin(name).projectors.nu == nu


def test_load_problem_roundtrip(tmp_path):
    pb = load_builtin("index1_blowup")
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(pb.raw))
    again = load_problem(path)
    # lossless numeric round trip of the file content
    assert json.loads(json.dumps(again.raw)) == pb.raw
    np.testing.assert_array_equal(again.dae.pencil.a, pb.dae.pencil.a)
    assert again.options.t_max == pb.options.t_max


def test_schema_rejects_nonsquare_matrix():
    data = {"name": "bad", "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "field": {"registry_id": "zero"}}
    with pytest.raises(SchemaError) as err:
        load_problem_dict(data)
    assert err.value.pointer == "/A"


def test_schema_rejects_missing_field():
    with pytest.raises(SchemaError):
        load_problem_dict({"name": "bad", "A": [[1.0]], "B": [[1.0]]})


def test_schema_rejects_empty_horizon():
    data = {"name": "bad", "A": [[1.0]], "B": [[1.0]],
            "field": {"registry_id": "zero"},
            "integration": {"t0": 1.0, "t_max": 1.0}}
    with pytest.raises(SchemaError) as err:
        load_problem_dict(data)
    assert err.value.pointer == "/integration"


def test_schema_rejects_field_of_wrong_dimension():
    # a two-component registry field on a 3 x 3 pair
    data = {"name": "bad", "A": np.diag([1.0, 1.0, 0.0]).tolist(),
            "B": np.eye(3).tolist(),
            "field": {"registry_id": "blowup_quadratic"}}
    with pytest.raises(SchemaError) as err:
        load_problem_dict(data)
    assert err.value.pointer == "/field"


def test_unknown_registry_id():
    data = {"name": "bad", "A": [[1.0]], "B": [[1.0]],
            "field": {"registry_id": "not_a_field"}}
    with pytest.raises(UnknownRegistryId):
        load_problem_dict(data)


def test_complex_matrix_entries():
    data = {"name": "cplx", "A": [[[0.0, 1.0]]], "B": [[1.0]],
            "field": {"registry_id": "zero"}}
    pb = load_problem_dict(data)
    assert pb.dae.pencil.is_complex
    assert pb.dae.pencil.a[0, 0] == 1j


def test_bundled_field_jacobians_match_fd():
    rng = np.random.default_rng(8)
    for name in ("index1_blowup", "index1_stable", "index2_structured",
                 "index3_chain", "index2_nilpotent_linear"):
        fld = load_builtin(name).dae.field
        pts = [(float(rng.uniform(0, 2)),
                rng.standard_normal(load_builtin(name).dae.pencil.n_dim))
               for _ in range(3)]
        assert fld.validate_jacobian(pts) <= 1e-5


def test_reference_solutions_satisfy_the_equations():
    # oracle self-check: substitute the closed form into the balance law
    # d/dt[Ax] + Bx = f using central differences
    for name in ("index1_blowup", "index1_stable", "index2_nilpotent_linear"):
        pb = load_builtin(name)
        a, b = pb.dae.pencil.a, pb.dae.pencil.b
        x0 = pb.x_guess if name != "index2_nilpotent_linear" \
            else np.array([0.0, 1.0])
        for t in (0.1, 0.4, 0.7):
            h = 1e-6
            xp = reference_solution(name, t + h, x0)
            xm = reference_solution(name, t - h, x0)
            x = reference_solution(name, t, x0)
            lhs = a @ ((xp - xm) / (2 * h)) + b @ x
            assert np.abs(lhs - pb.dae.field(t, x)).max() <= 1e-7


def test_random_weierstrass_ground_truth():
    ws = random_weierstrass(seed=7, n_dim=6, segre=[2, 2, 1])
    assert ws.index == 2 and ws.n == 3
    assert compute_index(ws.pencil) == 2
    # projector ground truth really projects
    p2 = ws.projectors_gt["p2"]
    assert np.abs(p2 @ p2 - p2).max() <= 1e-10
    # intertwining with the constructed pair
    q2 = ws.projectors_gt["q2"]
    assert np.abs(ws.pencil.a @ p2 - q2 @ ws.pencil.a).max() <= 1e-10
    assert np.abs(ws.pencil.b @ p2 - q2 @ ws.pencil.b).max() <= 1e-10


def test_random_weierstrass_rejects_overfull_segre():
    with pytest.raises(ValueError):
        random_weierstrass(seed=0, n_dim=3, segre=[2, 2])
