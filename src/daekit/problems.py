"""Built-in example problems, the on-disk problem format, and a seeded
generator of matrix pairs with known block structure.

Problem files are JSON: matrices row-major (complex entries as [re, im]
pairs), the field selected from a registry by id, optional certificate,
initial-value, integration and sweep blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from importlib import resources

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from .certificates import ComparisonSpec, LyapunovComponent, LyapunovSpec
from .errors import SchemaError, UnknownRegistryId
from .integrate import IntegrationOptions
from .pencil import Pencil
from .projectors import build_all
from .reduction import NonlinearField, SemilinearDAE, StructureTag

__all__ = ["LoadedProblem", "load_problem", "load_problem_dict", "builtin",
           "load_builtin", "builtin_names", "random_weierstrass",
           "WeierstrassSample", "make_dae", "FIELD_REGISTRY",
           "reference_solution", "PROBLEM_SCHEMA"]


# ---------------------------------------------------------------------------
# field registry


def _field_zero(params):
    return NonlinearField(
        eval=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        jacobian=lambda t, x: np.zeros((len(x), len(x))),
        t_derivative=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)))


def _field_scalar_power(params):
    p = float(params.get("exponent", 2.0))

    return NonlinearField(
        eval=lambda t, x: np.array([x[0] ** p]),
        jacobian=lambda t, x: np.array([[p * x[0] ** (p - 1.0)]]),
        t_derivative=lambda t, x: np.zeros(1))


def _field_blowup_quadratic(params):
    return NonlinearField(
        eval=lambda t, x: np.array([x[0] ** 2, np.sin(t) + x[0]]),
        jacobian=lambda t, x: np.array([[2.0 * x[0], 0.0], [1.0, 0.0]]),
        t_derivative=lambda t, x: np.array([0.0, np.cos(t)]))


def _field_blowup_cubic(params):
    return NonlinearField(
        eval=lambda t, x: np.array([x[0] ** 3, np.sin(t) + x[0]]),
        jacobian=lambda t, x: np.array([[3.0 * x[0] ** 2, 0.0], [1.0, 0.0]]),
        t_derivative=lambda t, x: np.array([0.0, np.cos(t)]))


def _field_stable_linear(params):
    # explicit part decays toward a vanishing forcing; the algebraic part
    # lags the explicit one by a bounded offset
    return NonlinearField(
        eval=lambda t, x: np.array([np.exp(-t), np.sin(t) + x[0]]),
        jacobian=lambda t, x: np.array([[0.0, 0.0], [1.0, 0.0]]),
        t_derivative=lambda t, x: np.array([-np.exp(-t), np.cos(t)]))


def _field_nilpotent_linear(params):
    # ties the algebraic row to the kernel component, so the whole state is
    # recoverable; the closed-form solution is exponential-times-affine
    return NonlinearField(
        eval=lambda t, x: np.array([np.exp(-t), x[0] + np.exp(-t)]),
        jacobian=lambda t, x: np.array([[0.0, 0.0], [1.0, 0.0]]),
        t_derivative=lambda t, x: np.array([-np.exp(-t), -np.exp(-t)]))


def _field_structured_index2(params):
    gamma = float(params.get("gamma", 0.5))

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
                          structure_tag=StructureTag.STRUCTURED)


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
                          structure_tag=StructureTag.STRUCTURED)


def _field_failing_constraint(params):
    switch = float(params.get("switch_time", 0.3))

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
    "blowup_quadratic": _field_blowup_quadratic,
    "blowup_cubic": _field_blowup_cubic,
    "stable_linear": _field_stable_linear,
    "nilpotent_linear_forced": _field_nilpotent_linear,
    "structured_index2": _field_structured_index2,
    "structured_index3_chain": _field_structured_index3,
    "failing_constraint": _field_failing_constraint,
}


# ---------------------------------------------------------------------------
# certificate registries


def _lyap_squared_norm(params):
    return LyapunovComponent(
        eval=lambda w: float(np.dot(w, w)),
        gradient=lambda w: 2.0 * np.asarray(w, dtype=float))


_LYAPUNOV_REGISTRY = {"squared_norm": _lyap_squared_norm}


def _u_affine(params):
    a = float(params.get("offset", 1.0))
    b = float(params.get("slope", 1.0))
    return lambda u: a + b * u


def _u_power(params):
    c = float(params.get("coefficient", 1.0))
    p = float(params.get("exponent", 1.0))
    return lambda u: c * max(u, 0.0) ** p


_U_REGISTRY = {"affine": _u_affine, "power": _u_power}


def _psi_constant(params):
    v = float(params.get("value", 1.0))
    return lambda t: v


def _psi_exp_decay(params):
    rate = float(params.get("rate", 1.0))
    return lambda t: float(np.exp(-rate * t))


_PSI_REGISTRY = {"constant": _psi_constant, "exp_decay": _psi_exp_decay}


def _region_halfspace(params):
    normal = np.asarray(params["normal"], dtype=float)
    offset = float(params.get("offset", 0.0))
    return lambda w: float(np.dot(normal, w)) > offset


def _region_norm_above(params):
    r = float(params.get("radius", 1.0))
    return lambda w: float(np.linalg.norm(w)) > r


_REGION_REGISTRY = {"halfspace": _region_halfspace,
                    "norm_above": _region_norm_above}


# ---------------------------------------------------------------------------
# problem format

_FIXTURES = resources.files("daekit") / "fixtures"
PROBLEM_SCHEMA = json.loads((_FIXTURES / "problem.schema.json").read_text())


def _parse_matrix(rows, pointer: str) -> np.ndarray:
    parsed = []
    for row in rows:
        out_row = []
        for entry in row:
            if isinstance(entry, (int, float)):
                out_row.append(float(entry))
            else:
                out_row.append(complex(entry[0], entry[1]))
        parsed.append(out_row)
    mat = np.array(parsed)
    if np.iscomplexobj(mat) and np.all(mat.imag == 0.0):
        mat = mat.real
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SchemaError(pointer, f"matrix must be square, got {mat.shape}")
    return mat


@dataclass
class LoadedProblem:
    name: str
    dae: SemilinearDAE
    options: IntegrationOptions
    x_guess: np.ndarray
    certificate: dict | None = None
    sweep_values: list = dc_field(default_factory=list)
    reference_id: str | None = None
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


def make_dae(a, b, field: NonlinearField, name: str = "",
             tol=None) -> SemilinearDAE:
    """Full analysis pipeline: regular point, chains, duals, projectors."""
    pencil = Pencil(a, b) if tol is None else Pencil(a, b, tol=tol)
    canonical, dual, ps = build_all(pencil)
    return SemilinearDAE(pencil=pencil, projectors=ps, canonical=canonical,
                         dual=dual, field=field, name=name)


def _build_field(spec: dict, tag: StructureTag, pointer: str) -> NonlinearField:
    rid = spec["registry_id"]
    if rid not in FIELD_REGISTRY:
        raise UnknownRegistryId(f"{pointer}: unknown field '{rid}'")
    fld = FIELD_REGISTRY[rid](spec.get("params", {}))
    if tag is not StructureTag.GENERAL:
        fld.structure_tag = tag
    return fld


def _build_certificate(spec: dict) -> dict:
    comps = []
    for k, v in enumerate(spec["V"]):
        rid = v["registry_id"]
        if rid not in _LYAPUNOV_REGISTRY:
            raise UnknownRegistryId(
                f"/certificate/V/{k}: unknown functional '{rid}'")
        comps.append(_LYAPUNOV_REGISTRY[rid](v.get("params", {})))
    kind = spec["kind"]
    combination = spec.get("combination",
                           "min" if kind == "blowup" else "max")
    lyap = LyapunovSpec(components=comps, kind=combination)

    uid = spec["U"]["registry_id"]
    if uid not in _U_REGISTRY:
        raise UnknownRegistryId(f"/certificate/U: unknown envelope '{uid}'")
    u_fn = _U_REGISTRY[uid](spec["U"].get("params", {}))
    pid = spec["psi"]["registry_id"]
    if pid not in _PSI_REGISTRY:
        raise UnknownRegistryId(f"/certificate/psi: unknown weight '{pid}'")
    psi_fn = _PSI_REGISTRY[pid](spec["psi"].get("params", {}))
    region = None
    label = ""
    if "region" in spec:
        rid = spec["region"]["registry_id"]
        if rid not in _REGION_REGISTRY:
            raise UnknownRegistryId(f"/certificate/region: unknown '{rid}'")
        region = _REGION_REGISTRY[rid](spec["region"].get("params", {}))
        label = rid
    comp = ComparisonSpec(U=u_fn, psi=psi_fn, R=float(spec.get("R", 1.0)),
                          domain_set=region, domain_label=label,
                          declared_U_integral=spec.get("declared_U_integral"),
                          declared_psi_integral=spec.get("declared_psi_integral"))
    return {"kind": kind, "lyapunov": lyap, "comparison": comp}


def load_problem_dict(data: dict, name_hint: str = "<dict>") -> LoadedProblem:
    """Validate and construct a problem from an already-parsed dictionary."""
    if jsonschema is not None:
        validator = jsonschema.Draft202012Validator(PROBLEM_SCHEMA)
        errors = sorted(validator.iter_errors(data),
                        key=lambda e: list(e.absolute_path))
        if errors:
            err = errors[0]
            pointer = "/" + "/".join(str(p) for p in err.absolute_path)
            raise SchemaError(pointer, err.message)
    a = _parse_matrix(data["A"], "/A")
    b = _parse_matrix(data["B"], "/B")
    if a.shape != b.shape:
        raise SchemaError("/B", f"shape {b.shape} does not match A {a.shape}")
    tag = StructureTag(data.get("structure_tag", "general"))
    fld = _build_field(data["field"], tag, "/field")
    dae = make_dae(a, b, fld, name=data.get("name", name_hint))

    integ = data.get("integration", {})
    try:
        options = IntegrationOptions(
            t0=float(integ.get("t0", 0.0)),
            t_max=float(integ.get("t_max", 1.0)),
            rtol=float(integ.get("rtol", 1e-8)),
            atol=float(integ.get("atol", 1e-10)),
            h_min=float(integ.get("h_min", 1e-10)),
            h_max=integ.get("h_max"),
            blowup_norm_cap=float(integ.get("blowup_norm_cap", 1e6)),
            blowup_window=int(integ.get("blowup_window", 5)),
        )
    except ValueError as exc:
        raise SchemaError("/integration", str(exc))
    n = a.shape[0]
    guess = np.asarray(data.get("initial", {}).get("x_guess", [0.0] * n),
                       dtype=float)
    if guess.size != n:
        raise SchemaError("/initial/x_guess",
                          f"length {guess.size} does not match dimension {n}")
    try:
        f_dim = np.shape(fld(options.t0, guess))
    except (IndexError, ValueError) as exc:
        raise SchemaError("/field", f"cannot evaluate at (t0, x_guess): {exc}")
    if f_dim != (n,):
        raise SchemaError("/field", f"field returns shape {f_dim} for "
                                    f"dimension {n}")
    cert = _build_certificate(data["certificate"]) \
        if "certificate" in data else None
    sweep = [np.asarray(v, dtype=float)
             for v in data.get("sweep", {}).get("initial_values", [])]
    ref = data.get("reference", {}).get("id")
    bound = data.get("certificate", {}).get("bound_constant")
    return LoadedProblem(name=data.get("name", name_hint), dae=dae,
                         options=options, x_guess=guess, certificate=cert,
                         sweep_values=sweep, reference_id=ref, raw=data,
                         bound_constant=bound)


def load_problem(path) -> LoadedProblem:
    """Load a problem file; schema errors carry JSON-pointer locations."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("/", f"invalid JSON: {exc}")
    return load_problem_dict(data, name_hint=str(path))


def builtin_names() -> list:
    return sorted(p.name[:-5] for p in _FIXTURES.iterdir()
                  if p.name.endswith(".json") and p.name != "problem.schema.json")


def load_builtin(name: str) -> LoadedProblem:
    candidate = _FIXTURES / f"{name}.json"
    if not candidate.is_file():
        raise UnknownRegistryId(
            f"no bundled problem '{name}'; available: {builtin_names()}")
    data = json.loads(candidate.read_text())
    return load_problem_dict(data, name_hint=name)


def builtin(name: str) -> SemilinearDAE:
    return load_builtin(name).dae


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
    s_mat: np.ndarray
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
        # explicit-block eigenvalues kept away from the integer shift
        # ladder so the first candidates stay well conditioned
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
                             s_mat=s_mat, t_mat=t_mat)
