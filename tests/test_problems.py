import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from daekit import (DaekitError, SchemaError, UnknownRegistryId,
                    builtin_names, compute_index, load_builtin, load_problem)
from daekit.implicit import _fd_mismatch
from daekit import problems
from daekit.problems import (FIELD_REGISTRY, PROBLEM_SCHEMA, _checked, _walk,
                             load_problem_dict, random_weierstrass,
                             reference_solution)
from daekit.reduction import NonlinearField

EXPECTED_BUILTINS = {
    "ode_index0", "ode_scalar_quadratic", "ode_scalar_decay",
    "index1_blowup", "index1_cubic_blowup", "index1_stable",
    "index2_nilpotent_linear", "index2_structured", "index3_chain",
    "failing_constraint",
}

# f = 1/x with the guess 0: the field divides by zero at the start, and with
# B = 0 the constraint residual 0 * inf is NaN
NAN_START = {"name": "sp", "A": [[1.0]], "B": [[0.0]],
             "field": {"registry_id": "scalar_power",
                       "params": {"exponent": -1.0}},
             "initial": {"x_guess": [0.0]}}


def test_builtin_registry():
    assert EXPECTED_BUILTINS <= set(builtin_names())
    dae = load_builtin("index1_blowup").dae
    assert dae.projectors.nu == 1
    with pytest.raises(UnknownRegistryId):
        load_builtin("no_such_problem")


def test_bundled_indices():
    expected = {"ode_index0": 0, "index1_blowup": 1, "index1_stable": 1,
                "index2_nilpotent_linear": 2, "index2_structured": 2,
                "index3_chain": 3}
    for name, nu in expected.items():
        assert load_builtin(name).dae.projectors.nu == nu


def test_field_shape_probe_is_quiet():
    # loading evaluates f(t0, x_guess) only for its shape; a guess where
    # the field overflows or divides by zero loads without a warning
    overflowing = dict(load_builtin("index1_blowup").raw,
                       initial={"x_guess": [1e200, 0.0]})
    for data in (overflowing, NAN_START):
        assert load_problem_dict(data).x_guess.size == len(data["A"])


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


@pytest.mark.parametrize("key", ["A", "B"])
def test_schema_rejects_ragged_rows(key):
    data = {"name": "bad", "A": [[1.0, 0.0], [0.0, 0.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "field": {"registry_id": "zero"}}
    data[key] = [[1.0, 0.0], [0.0]]
    with pytest.raises(SchemaError) as err:
        load_problem_dict(data)
    assert err.value.pointer == f"/{key}"


@pytest.mark.parametrize("key, entry", [("A", "NaN"), ("B", "Infinity"),
                                        ("B", "-Infinity")])
def test_schema_rejects_non_finite_entry(tmp_path, key, entry):
    # Python's json reads NaN and +-Infinity, and the schema's `number`
    # lets them through
    rows = {"A": "[[1.0, 0.0], [0.0, 0.0]]", "B": "[[1.0, 0.0], [0.0, 1.0]]"}
    rows[key] = f"[[1.0, 0.0], [0.0, {entry}]]"
    path = tmp_path / "bad.json"
    path.write_text(f'{{"name": "bad", "A": {rows["A"]}, "B": {rows["B"]}, '
                    f'"field": {{"registry_id": "zero"}}}}')
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.pointer == f"/{key}/1/1"


def test_schema_rejects_non_finite_complex_entry():
    data = {"name": "bad", "A": [[1.0, [0.0, float("nan")]], [0.0, 0.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "field": {"registry_id": "zero"}}
    with pytest.raises(SchemaError) as err:
        load_problem_dict(data)
    assert err.value.pointer == "/A/0/1"


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


def test_schema_rejects_nonpositive_step_bound():
    data = {"name": "bad", "A": [[1.0]], "B": [[1.0]],
            "field": {"registry_id": "zero"},
            "integration": {"h_max": -1.0}}
    with pytest.raises(SchemaError) as err:
        load_problem_dict(data)
    assert err.value.pointer == "/integration"


def test_schema_rejects_sweep_start_longer_than_state():
    data = {"name": "bad", "A": [[1.0]], "B": [[1.0]],
            "field": {"registry_id": "zero"},
            "sweep": {"initial_values": [[1.0], [1.0, 2.0]]}}
    with pytest.raises(SchemaError) as err:
        load_problem_dict(data)
    assert err.value.pointer == "/sweep/initial_values/1"


def _unit_pair(**blocks) -> dict:
    return {"name": "bad", "A": np.eye(2).tolist(), "B": np.eye(2).tolist(),
            "field": {"registry_id": "zero"}, **blocks}


@pytest.mark.parametrize("blocks, pointer", [
    # x_guess items are numbers: an [re, im] pair fails at the schema
    ({"initial": {"x_guess": [[1.0, 2.0], 0.0]}}, "/initial/x_guess/0"),
    ({"initial": {"x_guess": [0.0, [1.0, 0.0]]}}, "/initial/x_guess/1"),
    ({"initial": {"x_guess": [0.0, float("nan")]}}, "/initial/x_guess/1"),
    ({"initial": {"x_guess": [-float("inf"), 0.0]}}, "/initial/x_guess/0"),
    ({"sweep": {"initial_values": [[1.0], [1.0, float("nan")]]}},
     "/sweep/initial_values/1/1"),
    ({"sweep": {"initial_values": [[float("inf")]]}},
     "/sweep/initial_values/0/0"),
    ({"initial": {"x_guess": [10 ** 400, 0.0]}}, "/initial/x_guess")])
def test_schema_rejects_start_not_finite_real(blocks, pointer):
    with pytest.raises(SchemaError) as err:
        load_problem_dict(_unit_pair(**blocks))
    assert err.value.pointer == pointer


@pytest.mark.parametrize("key, value", [
    ("t0", float("nan")), ("t_max", float("inf")), ("rtol", float("nan")),
    ("atol", float("inf")), ("h_min", float("nan")), ("h_max", float("inf")),
    ("blowup_norm_cap", float("inf")),
    pytest.param("t_max", 10 ** 400, id="t_max-huge_int"),
    pytest.param("blowup_window", 0, id="blowup_window-zero"),
    pytest.param("blowup_window", -2, id="blowup_window-negative"),
    # an rtol no step can meet, and a horizon shorter than h_min = 1e-10
    pytest.param("rtol", 1e-16, id="rtol-below-floor"),
    pytest.param("t_max", 1e-12, id="t_max-below-h_min")])
def test_schema_rejects_non_finite_integration_option(key, value):
    with pytest.raises(SchemaError) as err:
        load_problem_dict(_unit_pair(integration={key: value}))
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


# a bundled problem, the keys down to one entry, its new value, and the
# pointer of the SchemaError that loading the edited problem raises
_BAD_CASES = [
    ("ode_scalar_quadratic", ("field", "params", "exponent"), "x",
     "/field/params"),
    ("ode_scalar_quadratic", ("field", "params", "exponent"), [1],
     "/field/params"),
    ("ode_scalar_quadratic", ("field", "params", "exponent"), 10 ** 400,
     "/field/params"),
    ("index2_structured", ("field", "params", "gamma"), None, "/field/params"),
    ("index2_structured", ("field", "params", "gamma"), float("inf"),
     "/field/params"),
    ("index1_stable", ("certificate", "psi", "params", "rate"), "fast",
     "/certificate/psi/params"),
    ("index1_blowup", ("certificate", "region", "params"), {"offset": 0.5},
     "/certificate/region/params"),
    ("index1_blowup", ("certificate", "region", "params", "normal"),
     [1.0, 0.0, 0.0], "/certificate/region/params"),
    ("index1_stable", ("certificate", "R"), 0.0, "/certificate/R"),
    ("index1_stable", ("certificate", "R"), -1.0, "/certificate/R"),
    ("index1_stable", ("certificate", "R"), float("nan"), "/certificate/R"),
]
BAD_INPUTS = [pytest.param(*case, id=f"{case[0]}-{case[1][-1]}={case[2]!r}")
              for case in _BAD_CASES]


def edited_builtin(name: str, keys: tuple, value) -> dict:
    data = copy.deepcopy(load_builtin(name).raw)
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return data


@pytest.mark.parametrize("name, keys, value, pointer", BAD_INPUTS)
def test_bad_registry_params_and_geometry_are_schema_errors(name, keys, value,
                                                            pointer):
    with pytest.raises(SchemaError) as err:
        load_problem_dict(edited_builtin(name, keys, value))
    assert err.value.pointer == pointer


@pytest.mark.parametrize("key, rows, pointer", [
    ("A", [[1e308]], "/A/0/0"),
    ("B", [[1.0, 0.0], [-1e151, 1.0]], "/B/1/0"),
    ("A", [[1.0, [1e200, 0.0]], [0.0, 1.0]], "/A/0/1"),
    ("A", [[1.0, [0.0, -1e200]], [0.0, 1.0]], "/A/0/1")])
def test_matrix_entry_above_the_state_bound_is_a_schema_error(key, rows,
                                                              pointer):
    # the square of such an entry overflows in the norms of the pair
    data = {"name": "big", "A": np.eye(len(rows)).tolist(),
            "B": np.eye(len(rows)).tolist(),
            "field": {"registry_id": "zero"}, key: rows}
    with pytest.raises(SchemaError) as err:
        load_problem_dict(data)
    assert err.value.pointer == pointer
    assert "exceeds 1e+150 in magnitude" in str(err.value)


def test_matrix_entries_at_the_state_bound_load_quietly():
    # a RuntimeWarning fails the test
    data = {"name": "at_bound", "A": [[1e150, 1e150], [0.0, 1e150]],
            "B": [[1e150, 0.0], [1e150, -1e150]],
            "field": {"registry_id": "zero"}}
    assert load_problem_dict(data).dae.projectors.nu == 0


def test_deeply_nested_json_is_a_schema_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(SchemaError) as err:
        load_problem(path)
    assert err.value.pointer == "/"


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
        assert _fd_mismatch((lambda z, t=t: fld.eval(t, z), fld.jac(t, x), x)
                            for t, x in pts) <= 1e-5


# the state dimension each registry field is written for, and the fields
# whose formulas hold `**`, whose array form may differ from the one-state
# form in the last bit
_FIELD_DIMS = {"zero": 3, "scalar_power": 1, "blowup_quadratic": 2,
               "blowup_cubic": 2, "stable_linear": 2,
               "nilpotent_linear_forced": 2, "structured_index2": 4,
               "structured_index3_chain": 4, "failing_constraint": 2}
_POWER_FIELDS = {"scalar_power", "blowup_quadratic", "blowup_cubic"}
_COLUMN_FIELDS = sorted(rid for rid, build in FIELD_REGISTRY.items()
                        if build({}).columns)


def _per_column(fn, ts, x):
    return [fn(t, x[:, i].copy()) for i, t in enumerate(ts.tolist())]


def test_every_registry_field_but_the_switch_declares_columns():
    assert set(FIELD_REGISTRY) - set(_COLUMN_FIELDS) == {"failing_constraint"}


@pytest.mark.parametrize("size", [1, 300])
@pytest.mark.parametrize("rid", _COLUMN_FIELDS)
def test_stacked_field_is_the_per_column_field(rid, size):
    fld = FIELD_REGISTRY[rid]({})
    n = _FIELD_DIMS[rid]
    rng = np.random.default_rng(size)
    ts = rng.uniform(0.0, 5.0, size)
    x = rng.uniform(-3.0, 3.0, (n, size))
    assert np.unique(ts).size == size
    f, jac = fld(ts, x), fld.jac(ts, x)
    assert f.shape == (n, size) and jac.shape == (size, n, n)
    ref_f = np.stack(_per_column(fld, ts, x), axis=1)
    ref_jac = np.stack(_per_column(fld.jac, ts, x))
    if rid in _POWER_FIELDS:
        np.testing.assert_allclose(f, ref_f, rtol=4e-16, atol=0.0)
        np.testing.assert_allclose(jac, ref_jac, rtol=4e-16, atol=0.0)
    else:
        assert np.array_equal(f, ref_f) and np.array_equal(jac, ref_jac)


def test_field_without_columns_is_evaluated_per_column():
    # the README's field does not broadcast: its Jacobian is a nested list
    fld = NonlinearField(
        eval=lambda t, x: np.array([x[0] ** 2, np.sin(t) + x[0]]),
        jacobian=lambda t, x: np.array([[2 * x[0], 0.0], [1.0, 0.0]]))
    assert not fld.columns
    rng = np.random.default_rng(3)
    ts, x = rng.uniform(0.0, 5.0, 7), rng.uniform(-3.0, 3.0, (2, 7))
    assert np.array_equal(fld(ts, x),
                          np.stack(_per_column(fld, ts, x), axis=1))
    assert np.array_equal(fld.jac(ts, x),
                          np.stack(_per_column(fld.jac, ts, x)))


def _built(registry: dict, rid: str, **params):
    return registry[rid](params)


def test_registry_callables_on_one_value_are_unchanged():
    # one Python float or state gives what plain float arithmetic gives:
    # a Python float, or its ZeroDivisionError and OverflowError
    power = _built(problems._U_REGISTRY, "power", coefficient=2.0,
                      exponent=1.5)
    affine = _built(problems._U_REGISTRY, "affine", offset=0.5, slope=3.0)
    decay = _built(problems._PSI_REGISTRY, "exp_decay", rate=0.7)
    for u in (-1.0, 0.0, 0.3, 2.0, 1e5):
        assert type(power(u)) is float and power(u) == 2.0 * max(u, 0.0) ** 1.5
        assert type(affine(u)) is float and affine(u) == 0.5 + 3.0 * u
        assert type(decay(u)) is float and decay(u) == float(np.exp(-0.7 * u))
    constant = _built(problems._PSI_REGISTRY, "constant", value=2.5)
    assert constant(3.0) == 2.5
    with pytest.raises(ZeroDivisionError):
        _built(problems._U_REGISTRY, "power", exponent=-1.0)(0.0)
    with pytest.raises(OverflowError):
        _built(problems._U_REGISTRY, "power", exponent=400.0)(1e10)
    norm = _built(problems._LYAPUNOV_REGISTRY, "squared_norm")
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4, 7):
        block = rng.standard_normal((n, 3))
        for w in (block[:, 0], block[:, 1].copy()):  # strided, contiguous
            assert type(norm.eval(w)) is float
            assert norm.eval(w) == float(np.dot(w, w))
            assert np.array_equal(norm.gradient(w), 2.0 * w)


def test_registry_callables_on_arrays_are_the_one_value_callables():
    rng = np.random.default_rng(5)
    values = np.concatenate([[0.0, -1.0], rng.uniform(-1.0, 50.0, 500)])
    for fn in (_built(problems._U_REGISTRY, "power", coefficient=2.0,
                         exponent=1.5),
               _built(problems._U_REGISTRY, "power", exponent=3.0),
               _built(problems._U_REGISTRY, "affine", slope=0.3),
               _built(problems._PSI_REGISTRY, "exp_decay", rate=0.7)):
        assert np.array_equal(fn(values), [fn(u) for u in values.tolist()])
    norm = _built(problems._LYAPUNOV_REGISTRY, "squared_norm")
    for n in (1, 2, 3):  # beyond n = 3 BLAS may sum a column another way
        w = rng.standard_normal((n, 400))
        assert np.array_equal(norm.eval(w), [norm.eval(c) for c in w.T])
        assert np.array_equal(norm.gradient(w), 2.0 * w)


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


# ---------------------------------------------------------------------------
# the shipped schema as the oracle for the loader's errors

_ORACLE = Draft202012Validator(PROBLEM_SCHEMA)
_NUMBERS = st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                     st.integers(-5, 5))
_SCALARS = st.one_of(_NUMBERS, st.just(float("nan")), st.just(float("inf")),
                     st.booleans(), st.text(max_size=2), st.none())
# mostly valid entries, so that a fault sits among valid ones
_ENTRIES = st.one_of(
    _NUMBERS, _NUMBERS, _NUMBERS, st.lists(_NUMBERS, min_size=2, max_size=2),
    st.lists(_NUMBERS, min_size=1, max_size=3),
    st.tuples(_SCALARS, _SCALARS).map(list), _SCALARS, st.just([]), st.lists(_SCALARS, min_size=1, max_size=3),
    st.lists(st.lists(_SCALARS, max_size=2), min_size=1, max_size=2))


@st.composite
def _matrices(draw):
    """Mostly square matrices of up to 3 rows; some rows of another length;
    now and then no matrix at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_SCALARS)
    n = draw(st.integers(0, 3))
    lengths = draw(st.lists(st.sampled_from([n, n, n, n, 0, 1, 2, 3]),
                            min_size=n, max_size=n))
    return [draw(st.lists(_ENTRIES, min_size=k, max_size=k))
            for k in lengths]


@st.composite
def _documents(draw):
    data = {"name": "fuzz", "A": draw(_matrices()), "B": draw(_matrices()),
            "field": {"registry_id": "zero"}}
    fault = draw(st.sampled_from(["none", "none", "field", "name",
                                  "integration"]))
    if fault == "field":
        del data["field"]
    elif fault == "name":
        data["name"] = draw(st.one_of(st.integers(), st.none(),
                                      st.lists(st.text(max_size=1))))
    elif fault == "integration":
        key = draw(st.sampled_from(["t0", "rtol", "blowup_window"]))
        data["integration"] = {key: draw(st.one_of(st.text(max_size=2),
                                                   st.booleans(),
                                                   st.just(0.5)))}
    return data


def _assert_loader_matches_oracle(data):
    """The loader raises the oracle's first error by path, and otherwise
    nothing but a DaekitError."""
    errors = sorted(_ORACLE.iter_errors(data),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        # the loader's own checks (ragged, square, finite, analysis) may
        # still reject the document, but only with a classified error
        try:
            load_problem_dict(data)
        except DaekitError:
            pass
        return
    with pytest.raises(SchemaError) as err:
        load_problem_dict(data)
    first = errors[0]
    assert err.value.pointer == "/" + "/".join(
        str(p) for p in first.absolute_path)
    assert str(err.value) == f"{err.value.pointer}: {first.message}"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_documents())
def test_loader_errors_match_shipped_schema(data):
    _assert_loader_matches_oracle(data)


# every other block of the schema: a valid document that uses them, with a
# value replaced, a key dropped or a key added at up to two places; every
# container is drawn new, since the faults edit them in place
_ANY = st.one_of(_SCALARS, st.builds(list), st.builds(dict),
                 st.lists(_NUMBERS, max_size=3),
                 st.dictionaries(st.sampled_from(["registry_id", "params",
                                                  "zz"]),
                                 st.one_of(st.text(max_size=2), _NUMBERS,
                                           st.builds(dict)), max_size=2))


def _registry(*ids):
    return st.fixed_dictionaries({"registry_id": st.sampled_from(ids)},
                                 optional={"params": st.builds(dict)})


def _optional(**keys):
    return st.fixed_dictionaries({}, optional=keys)


_VALID_DOCUMENTS = st.fixed_dictionaries(
    {"name": st.text(max_size=2),
     "A": st.builds(lambda: [[1.0, 0.0], [0.0, 0.0]]),
     "B": st.builds(lambda: [[1.0, 0.0], [0.0, 1.0]]),
     "field": _registry("zero", "stable_linear")},
    optional={
        "structure_tag": st.sampled_from(["general", "structured",
                                          "structured_variant"]),
        "initial": _optional(x_guess=st.lists(_NUMBERS, min_size=2,
                                              max_size=2)),
        "integration": _optional(t_max=st.floats(0.5, 2.0),
                                 blowup_window=st.sampled_from([3, 4.0])),
        "certificate": st.fixed_dictionaries(
            {"kind": st.sampled_from(["global_solvability",
                                      "global_solvability_norm",
                                      "lagrange_stability", "blowup"]),
             "V": st.lists(_registry("squared_norm"), min_size=1,
                           max_size=2),
             "U": _registry("affine", "power"),
             "psi": _registry("constant", "exp_decay")},
            optional={"combination": st.sampled_from(["max", "min"]),
                      "R": st.floats(0.5, 2.0),
                      "region": _registry("halfspace", "norm_above"),
                      "declared_U_integral": st.sampled_from(
                          ["diverges", "converges"]),
                      "declared_psi_integral": st.sampled_from(
                          ["diverges", "converges"]),
                      "bound_constant": _NUMBERS}),
        "sweep": st.fixed_dictionaries({"initial_values": st.lists(
            st.lists(_NUMBERS, max_size=2), max_size=2)}),
        "reference": _optional(id=st.text(max_size=2)),
        "zz": _ANY,  # the root admits keys of its own
    })


def _containers(node, out):
    """node and every dict or list below it, leaving out the matrices."""
    out.append(node)
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)) and key not in ("A", "B"):
            _containers(child, out)
    return out


@st.composite
def _whole_documents(draw):
    data = draw(_VALID_DOCUMENTS)
    for _ in range(draw(st.sampled_from([1, 1, 2, 0]))):
        node = draw(st.sampled_from(_containers(data, [])[::-1]))
        keys = list(node) if isinstance(node, dict) else range(len(node))
        fault = draw(st.sampled_from(["replace", "drop", "add"]))
        if fault == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(["zz", "yy", "params"]))] = \
                    draw(_ANY)
            else:
                node.append(draw(_ANY))
        elif fault == "drop":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(_ANY)
    return data


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_whole_documents())
def test_loader_errors_match_shipped_schema_in_every_block(data):
    _assert_loader_matches_oracle(data)


# a valid document with every block, and one edit to it per case: the keys
# down to a value and its new value, or _DROP to delete the key
_FULL = {
    "name": "full", "A": [[1.0, 0.0], [0.0, 0.0]],
    "B": [[1.0, 0.0], [0.0, 1.0]],
    "field": {"registry_id": "stable_linear", "params": {}},
    "structure_tag": "general", "initial": {"x_guess": [0.5, 0.0]},
    "integration": {"t_max": 1.0, "blowup_window": 3.0},
    "certificate": {"kind": "blowup", "combination": "min",
                    "V": [{"registry_id": "squared_norm"}],
                    "U": {"registry_id": "affine", "params": {}},
                    "psi": {"registry_id": "constant"},
                    "region": {"registry_id": "norm_above",
                               "params": {"radius": 1.0}},
                    "R": 1.0, "declared_U_integral": "diverges",
                    "declared_psi_integral": "converges",
                    "bound_constant": 1.0},
    "sweep": {"initial_values": [[0.5], []]},
    "reference": {"id": "none"},
    "notes": "the root admits keys of its own",
}
_DROP = object()
_EDITS = [
    ((), None),
    (("certificate", "kind"), "stable"),
    (("certificate", "combination"), "mean"),
    (("certificate", "declared_U_integral"), "maybe"),
    (("certificate", "declared_psi_integral"), 1),
    (("certificate", "psi"), _DROP),
    (("certificate",), {"kind": "blowup"}),
    (("certificate", "U", "registry_id"), _DROP),
    (("certificate", "V"), []),
    (("certificate", "V", 0, "zz"), 1),
    (("certificate", "U", "zz"), 1),
    (("certificate", "psi", "weight"), 1),
    (("certificate", "region", "params"), 1),
    (("certificate", "region"), {"registry_id": "norm_above", "zz": 1,
                                 "yy": 2}),
    (("certificate", "R"), True),
    (("sweep", "initial_values"), _DROP),
    (("sweep", "initial_values", 1), [0.5, "a"]),
    (("sweep", "initial_values"), [0.5]),
    (("initial", "x_guess", 1), [1.0]),
    (("initial", "x_guess", 1), [1.0, 2.0, 3.0]),
    (("initial", "x_guess", 0), "a"),
    (("initial", "x_guess"), {}),
    (("integration", "blowup_window"), 2.5),
    (("reference", "id"), 3),
    (("reference",), []),
    (("structure_tag",), "other"),
    (("field", "zz"), {}),
]


@pytest.mark.parametrize("keys, value", _EDITS, ids=[
    "valid" if not k else "/".join(map(str, k))
    + ("-drop" if v is _DROP else f"={v!r}") for k, v in _EDITS])
def test_loader_errors_match_shipped_schema_for_each_block(keys, value):
    data = copy.deepcopy(_FULL)
    if keys:
        node = data
        for key in keys[:-1]:
            node = node[key]
        if value is _DROP:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    assert bool(list(_ORACLE.iter_errors(data))) == bool(keys)
    _assert_loader_matches_oracle(data)
    if not keys:
        load_problem_dict(data)


@pytest.mark.parametrize("blocks, accepted", [
    ({"A": [[np.float64(1.0), np.float64(0.0)], [np.int64(0), np.int64(0)]]},
     True),
    ({"integration": {"t_max": np.float64(2.0),
                      "blowup_window": np.float64(3.0)}}, True),
    ({"initial": {"x_guess": [np.int64(1), np.float64(0.5)]}}, True),
    ({"certificate": {"kind": "blowup", "V": [{"registry_id": "squared_norm"}],
                      "U": {"registry_id": "affine"},
                      "psi": {"registry_id": "constant"},
                      "region": {"registry_id": "norm_above"},
                      "R": np.float64(2.0)}}, True),
    # jsonschema's `integer` is an int or an integral float
    ({"integration": {"blowup_window": np.int64(3)}}, False),
    ({"A": [[np.bool_(True), 0.0], [0.0, 0.0]]}, False),
    ({"sweep": {"initial_values": [[np.bool_(False)]]}}, False),
], ids=["float64-int64-entries", "float64-options", "int64-guess",
        "float64-radius", "int64-window", "bool_-entry", "bool_-start"])
def test_numpy_scalars_as_the_oracle_reads_them(blocks, accepted):
    data = {"name": "np", "A": [[1.0, 0.0], [0.0, 0.0]],
            "B": np.eye(2).tolist(), "field": {"registry_id": "zero"},
            **blocks}
    assert (not list(_ORACLE.iter_errors(data))) == accepted
    _assert_loader_matches_oracle(data)
    if accepted:
        load_problem_dict(data)


# keyword uses the shipped schema leaves out, each walked as jsonschema does
@pytest.mark.parametrize("schema, value", [
    ({"oneOf": [{"type": "number"}, {"type": "integer"},
                {"type": "number"}]}, 3),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 2.5),
    ({"type": "array", "minItems": 3, "maxItems": 0}, [1]),
    ({"type": "array", "maxItems": 1}, [1, 2]),
    ({"type": "object", "properties": {"a": {}},
      "additionalProperties": False}, {"c": 1, "a": 1, "b": 2}),
    # a `$ref` beside other keywords, and one inside a definition
    ({"$defs": {"n": {"type": "number"},
                "pair": {"type": "array", "items": {"$ref": "#/$defs/n"},
                         "maxItems": 2}},
      "type": "array", "items": {"$ref": "#/$defs/pair"}, "minItems": 3},
     [[1, "a", True], "b"]),
])
def test_walk_matches_the_oracle_beyond_the_shipped_schema(schema, value):
    want = [(list(e.absolute_path), e.message)
            for e in Draft202012Validator(schema).iter_errors(value)]
    assert list(_walk(value, _checked(schema), [])) == want


@pytest.mark.parametrize("schema", [
    {"type": "object",
     "properties": {"name": {"type": "string", "pattern": "^a"}}},
    {"items": {"type": "null"}},
    {"type": ["number", "string"]},
    {"enum": ["a", 1]},
    {"additionalProperties": {"type": "number"}},
    {"items": {"$ref": "other.json#/$defs/n"}},
    {"$defs": {"n": {"type": "number"}}, "items": {"$ref": "#/$defs/m"}},
], ids=["pattern", "null-type", "type-list", "non-string-enum",
        "additionalProperties-schema", "non-local-ref", "unknown-definition"])
def test_unsupported_schema_raises(schema):
    with pytest.raises(ValueError, match="unsupported schema"):
        _checked(schema)
