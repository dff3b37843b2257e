"""Built-in example problems, the on-disk problem format, and a seeded
generator of matrix pairs with known block structure.

Problem files are JSON: matrices row-major (complex entries as [re, im]
pairs), the field selected from a registry by id, optional certificate,
initial-value, integration and sweep blocks.
"""

from __future__ import annotations

import copy
import json
import numbers
from dataclasses import dataclass, field as dc_field
from importlib import resources

import numpy as np

from ._linalg import column_dots
from .certificates import ComparisonSpec, LyapunovComponent, LyapunovSpec
from .config import DEFAULT_TOLERANCES as TOL
from .errors import SchemaError, UnknownRegistryId
from .integrate import IntegrationOptions
from .pencil import Pencil
from .projectors import build_all
from .reduction import NonlinearField, SemilinearDAE, StructureTag

__all__ = ["LoadedProblem", "load_problem", "load_problem_dict",
           "load_builtin", "builtin_names", "random_weierstrass",
           "WeierstrassSample", "make_dae", "FIELD_REGISTRY",
           "reference_solution", "PROBLEM_SCHEMA"]


# ---------------------------------------------------------------------------
# field registry


def _number(params: dict, key: str, default: float) -> float:
    """The finite number params[key], or the default."""
    value = float(params.get(key, default))
    if not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return value


# Every field below but `failing_constraint`, which branches on one time,
# broadcasts and declares `columns` (see NonlinearField).


def _jacobian(x, entries: dict) -> np.ndarray:
    """df/dx at one state x (N,) or at each column of x (N, S), as (N, N) or
    (S, N, N): zero but for `entries`, (row, column) -> value."""
    j = np.zeros(np.shape(x)[1:] + (len(x), len(x)))
    for (row, col), value in entries.items():
        j[..., row, col] = value
    return j


def _field_zero(params):
    return NonlinearField(
        eval=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        jacobian=lambda t, x: np.zeros((len(x), len(x))),
        t_derivative=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        columns=True)


def _field_scalar_power(params):
    p = _number(params, "exponent", 2.0)

    return NonlinearField(
        eval=lambda t, x: np.array([x[0] ** p]),
        jacobian=lambda t, x: _jacobian(x, {(0, 0): p * x[0] ** (p - 1.0)}),
        t_derivative=lambda t, x: np.zeros(1), columns=True)


def _field_blowup(p: int):
    """The escape field of power p: x1' = x1^p, the algebraic part tracks
    sin(t) + x1."""
    return lambda params: NonlinearField(
        eval=lambda t, x: np.array([x[0] ** p, np.sin(t) + x[0]]),
        jacobian=lambda t, x: _jacobian(x, {(0, 0): p * x[0] ** (p - 1),
                                            (1, 0): 1.0}),
        t_derivative=lambda t, x: np.array([0.0, np.cos(t)]), columns=True)


def _field_stable_linear(params):
    # explicit part decays toward a vanishing forcing; the algebraic part
    # lags the explicit one by a bounded offset
    return NonlinearField(
        eval=lambda t, x: np.array([np.exp(-t), np.sin(t) + x[0]]),
        jacobian=lambda t, x: np.array([[0.0, 0.0], [1.0, 0.0]]),
        t_derivative=lambda t, x: np.array([-np.exp(-t), np.cos(t)]),
        columns=True)


def _field_nilpotent_linear(params):
    # ties the algebraic row to the kernel component, so the whole state is
    # recoverable; the closed-form solution is exponential-times-affine
    return NonlinearField(
        eval=lambda t, x: np.array([np.exp(-t), x[0] + np.exp(-t)]),
        jacobian=lambda t, x: np.array([[0.0, 0.0], [1.0, 0.0]]),
        t_derivative=lambda t, x: np.array([-np.exp(-t), -np.exp(-t)]),
        columns=True)


def _field_structured_index2(params):
    gamma = _number(params, "gamma", 0.5)

    def ev(t, x):
        return np.array([
            np.cos(t) + 0.25 * x[2],
            np.sin(t) + 0.5 * x[0] + 0.3 * x[3],
            gamma * x[2] + 0.8 * np.sin(t),
            0.1 * x[0] + 0.2 * x[1] + 0.5 * np.cos(t),
        ])

    def jac(t, x):
        return np.array([
            [0.0, 0.0, 0.25, 0.0],
            [0.5, 0.0, 0.0, 0.3],
            [0.0, 0.0, gamma, 0.0],
            [0.1, 0.2, 0.0, 0.0],
        ])

    def dt(t, x):
        return np.array([-np.sin(t), np.cos(t), 0.8 * np.cos(t),
                         -0.5 * np.sin(t)])

    return NonlinearField(eval=ev, jacobian=jac, t_derivative=dt,
                          structure_tag=StructureTag.STRUCTURED, columns=True)


def _field_structured_index3(params):
    def ev(t, x):
        return np.array([
            np.sin(t) + 0.25 * x[1],
            0.4 + 0.3 * x[0] + 0.15 * x[1],
            np.sin(t) + 0.1 * x[2] + 0.5 * x[3],
            np.cos(t) + 0.2 * x[3],
        ])

    def jac(t, x):
        return np.array([
            [0.0, 0.25, 0.0, 0.0],
            [0.3, 0.15, 0.0, 0.0],
            [0.0, 0.0, 0.1, 0.5],
            [0.0, 0.0, 0.0, 0.2],
        ])

    def dt(t, x):
        return np.array([np.cos(t), 0.0, np.cos(t), -np.sin(t)])

    return NonlinearField(eval=ev, jacobian=jac, t_derivative=dt,
                          structure_tag=StructureTag.STRUCTURED, columns=True)


def _field_failing_constraint(params):
    switch = _number(params, "switch_time", 0.3)

    def ev(t, x):
        if t < switch:
            alg = np.sin(t) + x[0]
        else:
            alg = x[1] ** 2 + 1.0 + x[0]  # loses its real root
        return np.array([-x[0], alg])

    return NonlinearField(eval=ev)


FIELD_REGISTRY = {
    "zero": _field_zero,
    "scalar_power": _field_scalar_power,
    "blowup_quadratic": _field_blowup(2),
    "blowup_cubic": _field_blowup(3),
    "stable_linear": _field_stable_linear,
    "nilpotent_linear_forced": _field_nilpotent_linear,
    "structured_index2": _field_structured_index2,
    "structured_index3_chain": _field_structured_index3,
    "failing_constraint": _field_failing_constraint,
}


# ---------------------------------------------------------------------------
# certificate registries
#
# Each callable also takes an array (see LyapunovComponent and
# ComparisonSpec).  On one Python float or state it returns, or raises, what
# float arithmetic does: where the integral probes' array pass raises, they
# call U and psi one value at a time and read the ZeroDivisionError or
# OverflowError of `**` as inconclusive.


def _plain(value):
    """One value (a numpy scalar or 0-d array) as a Python float; an array
    of values as it is."""
    return value if value.ndim else float(value)


def _clipped_power(u, p: float):
    """max(u, 0) ** p; on an array elementwise, by `np.float_power`, whose
    bits are those of `**` on one value (numpy's array `**` differs in the
    last bit on a few percent of inputs)."""
    if isinstance(u, np.ndarray):
        return np.float_power(np.maximum(u, 0.0), p)
    return max(u, 0.0) ** p


def _lyap_squared_norm(params):
    return LyapunovComponent(
        eval=lambda w: _plain(column_dots(w, w)),
        gradient=lambda w: 2.0 * np.asarray(w, dtype=float))


_LYAPUNOV_REGISTRY = {"squared_norm": _lyap_squared_norm}


def _u_affine(params):
    a = _number(params, "offset", 1.0)
    b = _number(params, "slope", 1.0)
    return lambda u: a + b * u


def _u_power(params):
    c = _number(params, "coefficient", 1.0)
    p = _number(params, "exponent", 1.0)
    return lambda u: c * _clipped_power(u, p)


_U_REGISTRY = {"affine": _u_affine, "power": _u_power}


def _psi_constant(params):
    v = _number(params, "value", 1.0)
    return lambda t: v


def _psi_exp_decay(params):
    rate = _number(params, "rate", 1.0)
    return lambda t: _plain(np.exp(-rate * t))


_PSI_REGISTRY = {"constant": _psi_constant, "exp_decay": _psi_exp_decay}


def _region_halfspace(params, n_dim):
    normal = np.asarray(params["normal"], dtype=float)
    if normal.shape != (n_dim,) or not np.all(np.isfinite(normal)):
        raise ValueError(f"normal must be {n_dim} finite numbers, "
                         f"got {params['normal']!r}")
    offset = _number(params, "offset", 0.0)
    return lambda w: column_dots(normal, w) > offset


def _region_norm_above(params, n_dim):
    r = _number(params, "radius", 1.0)
    return lambda w: np.sqrt(column_dots(w, w)) > r


_REGION_REGISTRY = {"halfspace": _region_halfspace,
                    "norm_above": _region_norm_above}


# ---------------------------------------------------------------------------
# problem format

_FIXTURES = resources.files("daekit") / "fixtures"
PROBLEM_SCHEMA = json.loads((_FIXTURES / "problem.schema.json").read_text())


# `_walk` interprets the keywords of the shipped schema by JSON Schema draft
# 2020-12, with jsonschema's type rules, error order and wording; `_checked`
# refuses any other keyword, so a schema edit that needs one cannot pass
# unchecked.
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "number": lambda v: (not isinstance(v, bool)
                         and isinstance(v, numbers.Number)),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}
_KEYWORDS = frozenset(("$schema", "$defs", "$ref", "type", "enum",
                       "required", "properties", "additionalProperties",
                       "items", "minItems", "maxItems", "oneOf"))
_NO_MATCH = "{!r} is not valid under any of the given schemas"


def _checked(schema: dict) -> dict:
    """A copy of the schema in which each `$ref` holds the definition of the
    root's `$defs` that it names, once every keyword and value in it is one
    `_walk` interprets; ValueError otherwise."""
    out = copy.deepcopy(schema)
    refs = {f"#/$defs/{k}": sub for k, sub in out.get("$defs", {}).items()}

    def check(node: dict, pointer: str):
        for key, rule in node.items():
            where = f"{pointer}/{key}"
            if key not in _KEYWORDS:
                raise ValueError(f"unsupported schema keyword at {where}")
            names = {"type": _TYPES, "$ref": refs}.get(key)
            if (names is not None
                    and not (isinstance(rule, str) and rule in names)
                    or key == "enum" and not all(isinstance(e, str)
                                                 for e in rule)
                    or key == "additionalProperties" and rule is not False):
                raise ValueError(f"unsupported schema value at {where}: "
                                 f"{rule!r}")
            if key in ("properties", "$defs"):
                for name, sub in rule.items():
                    check(sub, f"{where}/{name}")
            elif key == "items":
                check(rule, where)
            elif key == "oneOf":
                for k, sub in enumerate(rule):
                    check(sub, f"{where}/{k}")
            elif key == "$ref":
                node[key] = refs[rule]

    check(out, "")
    return out


def _walk(value, schema: dict, path: list):
    """(path, message) of each way value breaks schema, in schema key order."""
    for key, rule in schema.items():
        if key == "$ref":  # `_checked` put the definition in its place
            yield from _walk(value, rule, path)
        elif key == "type":
            if not _TYPES[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum":
            if not (isinstance(value, str) and value in rule):
                yield path, f"{value!r} is not one of {rule!r}"
        elif key == "oneOf":
            valid = [sub for sub in rule if not any(_walk(value, sub, path))]
            if not valid:
                yield path, _NO_MATCH.format(value)
            elif len(valid) > 1:  # jsonschema names the first valid one last
                yield path, f"{value!r} is valid under each of " + ", ".join(
                    map(repr, valid[1:] + valid[:1]))
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    yield from _walk(item, rule, path + [i])
            elif key == "minItems" and len(value) < rule:
                yield path, f"{value!r} " + (
                    "should be non-empty" if rule == 1 else "is too short")
            elif key == "maxItems" and len(value) > rule:
                yield path, f"{value!r} " + (
                    "is expected to be empty" if rule == 0 else "is too long")
        elif isinstance(value, dict):
            if key == "required":
                for name in rule:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in rule.items():
                    if name in value:
                        yield from _walk(value[name], sub, path + [name])
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                extra = sorted((k for k in value if k not in known), key=str)
                if extra:
                    yield path, ("Additional properties are not allowed "
                                 f"({', '.join(map(repr, extra))} "
                                 f"{'was' if len(extra) == 1 else 'were'} "
                                 "unexpected)")


# Matrix entries are checked here in one pass, not by the walk: the schema's
# per-entry `oneOf` made validation cost seconds on a 128 x 128 pair.  The
# rest of a document is walked against the shipped schema minus the rule for
# one A/B entry, which `_is_entry` states in Python.
_PLAIN_NUMBERS = frozenset((float, int))
_RULES = _checked(PROBLEM_SCHEMA)
del _RULES["$defs"]["matrix"]["items"]["items"]  # the entry rule of A and B


def _is_number(value) -> bool:
    return type(value) in _PLAIN_NUMBERS or _TYPES["number"](value)


def _is_entry(value) -> bool:
    """A matrix entry: a number (not a bool) or an [re, im] pair of them."""
    return _is_number(value) or (isinstance(value, list) and len(value) == 2
                                 and _is_number(value[0])
                                 and _is_number(value[1]))


def _is_plain_row(row: list) -> bool:
    return _PLAIN_NUMBERS.issuperset(map(type, row))


def _schema_errors(data) -> list:
    """(path, message) of every violation of the shipped schema, with the
    paths, messages and order of jsonschema's draft 2020-12 validator; the
    matrix entries' errors come last."""
    errors = list(_walk(data, _RULES, []))
    for key in ("A", "B"):
        rows = data.get(key) if isinstance(data, dict) else None
        if not isinstance(rows, list):
            continue
        for i, row in enumerate(rows):
            if isinstance(row, list) and not _is_plain_row(row):
                errors += [([key, i, j], _NO_MATCH.format(v))
                           for j, v in enumerate(row) if not _is_entry(v)]
    return errors


def _parse_matrix(rows: list, pointer: str) -> np.ndarray:
    """A schema-valid A or B as a square array with entries of magnitude at
    most TOL.state_max, above which the squares in the pair's norms
    overflow; complex only if an entry has a non-zero imaginary part."""
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(pointer, f"row {i} has {len(row)} entries, "
                                       f"row 0 has {width}")
    if width != len(rows):
        raise SchemaError(pointer,
                          f"matrix must be square, got {(len(rows), width)}")
    try:
        if all(_is_plain_row(row) for row in rows):
            mat = np.array(rows, dtype=float)
        else:
            mat = np.array([[complex(*v) if isinstance(v, list) else v
                             for v in row] for row in rows], dtype=complex)
            if np.all(mat.imag == 0.0):
                mat = mat.real
    except OverflowError as exc:
        raise SchemaError(pointer, f"entry out of range: {exc}")
    with np.errstate(over="ignore"):
        bad = np.argwhere(~(np.abs(mat) <= TOL.state_max))
    if bad.size:
        i, j = bad[0]
        what = f"exceeds {TOL.state_max:g} in magnitude" \
            if np.isfinite(mat[i, j]) else "is not finite"
        raise SchemaError(f"{pointer}/{i}/{j}", f"entry {rows[i][j]!r} {what}")
    return mat


def _parse_vector(values: list, pointer: str) -> np.ndarray:
    """A schema-valid list of numbers as a finite real vector."""
    try:
        vec = np.array(values, dtype=float)
    except OverflowError as exc:
        raise SchemaError(pointer, f"entry out of range: {exc}")
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        k = bad[0]
        raise SchemaError(f"{pointer}/{k}",
                          f"entry {values[k]!r} is not finite")
    return vec


@dataclass
class LoadedProblem:
    name: str
    dae: SemilinearDAE
    options: IntegrationOptions
    x_guess: np.ndarray
    certificate: dict | None = None
    sweep_values: list = dc_field(default_factory=list)
    raw: dict = dc_field(default_factory=dict)
    bound_constant: float | None = None

    def lyapunov(self) -> LyapunovSpec | None:
        if self.certificate is None:
            return None
        return self.certificate["lyapunov"]

    def comparison(self) -> ComparisonSpec | None:
        if self.certificate is None:
            return None
        return self.certificate["comparison"]


def make_dae(a, b, field: NonlinearField, name: str = "") -> SemilinearDAE:
    """Full analysis pipeline: chains, duals, projectors."""
    pencil = Pencil(a, b)
    canonical, dual, ps = build_all(pencil)
    return SemilinearDAE(pencil=pencil, projectors=ps, canonical=canonical,
                         dual=dual, field=field, name=name)


def _from_registry(registry: dict, spec: dict, pointer: str, what: str,
                   *args):
    """What the registry entry named by spec["registry_id"] builds from
    spec["params"] (and args).  Params its builder cannot take are a
    SchemaError at pointer/params."""
    rid = spec["registry_id"]
    if rid not in registry:
        raise UnknownRegistryId(f"{pointer}: unknown {what} '{rid}'")
    try:
        return registry[rid](spec.get("params", {}), *args)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise SchemaError(f"{pointer}/params",
                          f"{what} '{rid}': {type(exc).__name__}: {exc}")


def _build_field(spec: dict, tag: StructureTag, pointer: str) -> NonlinearField:
    fld = _from_registry(FIELD_REGISTRY, spec, pointer, "field")
    if tag is not StructureTag.GENERAL:
        fld.structure_tag = tag
    return fld


def _build_certificate(spec: dict, n_dim: int) -> dict:
    comps = [_from_registry(_LYAPUNOV_REGISTRY, v, f"/certificate/V/{k}",
                            "functional") for k, v in enumerate(spec["V"])]
    kind = spec["kind"]
    combination = "min" if kind == "blowup" else "max"
    lyap = LyapunovSpec(components=comps, kind=combination)

    u_fn = _from_registry(_U_REGISTRY, spec["U"], "/certificate/U",
                          "envelope")
    psi_fn = _from_registry(_PSI_REGISTRY, spec["psi"], "/certificate/psi",
                            "weight")
    region = None
    label = ""
    if "region" in spec:
        region = _from_registry(_REGION_REGISTRY, spec["region"],
                                "/certificate/region", "region", n_dim)
        label = spec["region"]["registry_id"]
    try:
        radius = _number(spec, "R", 1.0)
    except (ValueError, OverflowError) as exc:
        raise SchemaError("/certificate/R", str(exc))
    if radius <= 0:  # the sampler draws magnitudes up to R
        raise SchemaError("/certificate/R", f"must be positive, got {radius}")
    # what the checks require of their kind, so that a file breaking it ends
    # as a malformed file and not as a verdict
    if spec.get("combination", combination) != combination:
        raise SchemaError("/certificate/combination",
                          f"a {kind} certificate uses a {combination} "
                          "combination")
    if kind == "blowup" and region is None:
        raise SchemaError("/certificate/region",
                          "a blowup certificate needs a declared region")
    comp = ComparisonSpec(U=u_fn, psi=psi_fn, R=radius,
                          domain_set=region, domain_label=label,
                          declared_U_integral=spec.get("declared_U_integral"),
                          declared_psi_integral=spec.get("declared_psi_integral"))
    return {"kind": kind, "lyapunov": lyap, "comparison": comp}


# the `integration` keys of a problem file, each with its conversion
_INTEGRATION_KEYS = {"t0": float, "t_max": float, "rtol": float,
                     "atol": float, "h_min": float, "h_max": lambda v: v,
                     "blowup_norm_cap": float, "blowup_window": int}


def load_problem_dict(data: dict) -> LoadedProblem:
    """Validate and construct a problem from an already-parsed dictionary."""
    errors = _schema_errors(data)
    if errors:
        # the first error by path; `min` keeps the report order among ties
        path, message = min(errors, key=lambda e: e[0])
        raise SchemaError("/" + "/".join(str(p) for p in path), message)
    a = _parse_matrix(data["A"], "/A")
    b = _parse_matrix(data["B"], "/B")
    if a.shape != b.shape:
        raise SchemaError("/B", f"shape {b.shape} does not match A {a.shape}")
    tag = StructureTag(data.get("structure_tag", "general"))
    fld = _build_field(data["field"], tag, "/field")
    dae = make_dae(a, b, fld, name=data["name"])

    integ = data.get("integration", {})
    try:
        # the keys the file sets; every default lives on IntegrationOptions
        options = IntegrationOptions(**{
            key: convert(integ[key])
            for key, convert in _INTEGRATION_KEYS.items() if key in integ})
    except (ValueError, OverflowError) as exc:
        raise SchemaError("/integration", str(exc))
    n = a.shape[0]
    guess = _parse_vector(data.get("initial", {}).get("x_guess", [0.0] * n),
                          "/initial/x_guess")
    if guess.size != n:
        raise SchemaError("/initial/x_guess",
                          f"length {guess.size} does not match dimension {n}")
    try:
        # only the shape is read; the guess may overflow the field
        with np.errstate(all="ignore"):
            f_dim = np.shape(fld(options.t0, guess))
    except (IndexError, ValueError) as exc:
        raise SchemaError("/field", f"cannot evaluate at (t0, x_guess): {exc}")
    if f_dim != (n,):
        raise SchemaError("/field", f"field returns shape {f_dim} for "
                                    f"dimension {n}")
    cert = _build_certificate(data["certificate"], n) \
        if "certificate" in data else None
    sweep = [_parse_vector(v, f"/sweep/initial_values/{k}") for k, v
             in enumerate(data.get("sweep", {}).get("initial_values", []))]
    for k, value in enumerate(sweep):
        # a start sets the leading entries of the initial guess
        if value.size > n:
            raise SchemaError(f"/sweep/initial_values/{k}",
                              f"length {value.size} exceeds dimension {n}")
    bound = data.get("certificate", {}).get("bound_constant")
    return LoadedProblem(name=data["name"], dae=dae,
                         options=options, x_guess=guess, certificate=cert,
                         sweep_values=sweep, raw=data,
                         bound_constant=bound)


def load_problem(path) -> LoadedProblem:
    """Load a problem file; schema errors carry JSON-pointer locations."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except IsADirectoryError:
        raise SchemaError("/", f"{path} is a directory, not a problem file")
    except UnicodeDecodeError as exc:
        raise SchemaError("/", f"not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}")
    except RecursionError:
        raise SchemaError("/", "invalid JSON: nested too deeply")
    return load_problem_dict(data)


def builtin_names() -> list:
    return sorted(p.name[:-5] for p in _FIXTURES.iterdir()
                  if p.name.endswith(".json") and p.name != "problem.schema.json")


def load_builtin(name: str) -> LoadedProblem:
    candidate = _FIXTURES / f"{name}.json"
    if not candidate.is_file():
        raise UnknownRegistryId(
            f"no bundled problem '{name}'; available: {builtin_names()}")
    data = json.loads(candidate.read_text())
    return load_problem_dict(data)


# ---------------------------------------------------------------------------
# reference solutions for the bundled problems


def reference_solution(ref_id: str, t, x0):
    """Closed-form solutions used as oracles by the test suite."""
    t = float(t)
    x0 = np.asarray(x0, dtype=float)
    if ref_id == "index2_nilpotent_linear":
        y0 = x0[1]
        x2 = np.exp(-t) * (y0 + 2.0 * t)
        return np.array([x2 - np.exp(-t), x2])
    if ref_id == "index1_blowup":
        x1 = x0[0] / (1.0 - x0[0] * t)
        return np.array([x1, np.sin(t) + x1])
    if ref_id == "index1_stable":
        x1 = np.exp(-t) * (x0[0] + t)
        return np.array([x1, np.sin(t) + x1])
    raise UnknownRegistryId(f"no reference solution '{ref_id}'")


# ---------------------------------------------------------------------------
# random pairs with known block structure


@dataclass
class WeierstrassSample:
    pencil: Pencil
    index: int
    segre: list
    n: int
    projectors_gt: dict
    t_mat: np.ndarray


def _well_conditioned(rng, n: int) -> np.ndarray:
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(0.8, 1.25, n)) @ q2


def random_weierstrass(seed: int, n_dim: int, segre) -> WeierstrassSample:
    """Conjugate a known block pair by well-conditioned similarity
    transforms; index, kernel dimension and projectors are ground truth by
    construction."""
    segre = sorted([int(m) for m in segre], reverse=True)
    d = sum(segre)
    if d > n_dim:
        raise ValueError("chain lengths exceed the dimension")
    rng = np.random.default_rng(seed)
    n_ode = n_dim - d
    a_bar = np.zeros((n_dim, n_dim))
    b_bar = np.zeros((n_dim, n_dim))
    if n_ode:
        a_bar[:n_ode, :n_ode] = np.eye(n_ode)
        q, _ = np.linalg.qr(rng.standard_normal((n_ode, n_ode)))
        # explicit-block eigenvalues of modulus 0.25 to 0.45, random sign
        b_bar[:n_ode, :n_ode] = q @ np.diag(
            rng.uniform(0.25, 0.45, n_ode) * rng.choice([-1.0, 1.0], n_ode)) @ q.T
    p20_bar = np.zeros((n_dim, n_dim))
    p2s_bar = {}
    q2star_bar = np.zeros((n_dim, n_dim))
    pos = n_ode
    for m in segre:
        blk = slice(pos, pos + m)
        a_bar[blk, blk] = np.diag(np.ones(m - 1), 1)
        b_bar[blk, blk] = np.eye(m)
        p20_bar[pos, pos] = 1.0
        q2star_bar[pos + m - 1, pos + m - 1] = 1.0
        for s in range(m):
            p2s_bar.setdefault(s, np.zeros((n_dim, n_dim)))
            p2s_bar[s][pos + s, pos + s] = 1.0
        pos += m
    p2_bar = np.zeros((n_dim, n_dim))
    p2_bar[n_ode:, n_ode:] = np.eye(d)

    s_mat = _well_conditioned(rng, n_dim)
    t_mat = _well_conditioned(rng, n_dim)
    a = s_mat @ a_bar @ t_mat
    b = s_mat @ b_bar @ t_mat
    t_inv = np.linalg.inv(t_mat)
    s_inv = np.linalg.inv(s_mat)

    def conj_p(mat):
        return t_inv @ mat @ t_mat

    def conj_q(mat):
        return s_mat @ mat @ s_inv

    eye = np.eye(n_dim)
    gt = {
        "p2": conj_p(p2_bar), "p1": conj_p(eye - p2_bar),
        "q2": conj_q(p2_bar), "q1": conj_q(eye - p2_bar),
        "p20": conj_p(p20_bar), "p2_sigma": conj_p(p2_bar - p20_bar),
        "q2_star": conj_q(q2star_bar),
        "q2_sigma": conj_q(p2_bar - q2star_bar),
        "p2s": {s: conj_p(m) for s, m in p2s_bar.items()},
    }
    return WeierstrassSample(pencil=Pencil(a, b),
                             index=(max(segre) if segre else 0),
                             segre=segre, n=len(segre), projectors_gt=gt,
                             t_mat=t_mat)
