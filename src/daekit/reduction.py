"""Reduction of a semilinear DAE to explicit ODE plus algebraic parts.

Two routes are provided.  The direct route keeps the whole explicit block
(x1 + x2_sigma) as the differential variable and solves one algebraic
equation for the kernel component x20.  The cascade route applies to fields
with a declared block-triangular structure: the chain-top components are
solved level by level as functions of time only, their time derivatives are
obtained by implicit differentiation, and only the kernel level remains
coupled to the differential variable.  Both routes share one table of level
equations and one per-run state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._linalg import column_norms, norm2, orth_basis
from .config import DEFAULT_TOLERANCES as TOL
from .errors import (ConstraintSolveFailure, DaekitError,
                     InconsistentInitialValue, NoConvergence,
                     SingularJacobian, StructureViolation)
from .implicit import (ImplicitProblem, JacobianCache, _time_derivative,
                       fd_jacobian, solve_newton, solve_newton_columns)
from .pencil import CanonicalSystem, DualSystem, Pencil
from .projectors import ProjectorSet

__all__ = ["StructureTag", "NonlinearField", "SemilinearDAE", "ReducedFirst",
           "ReducedCascade", "reduce_first", "reduce_cascade",
           "check_structure", "StructureReport"]


class StructureTag(enum.Enum):
    GENERAL = "general"
    STRUCTURED = "structured"
    STRUCTURED_VARIANT = "structured_variant"


def _columns(t, x):
    """(t_i, x_i) for the times t (S,) and the columns of x (N, S), each x_i
    a contiguous vector and each t_i a Python float, as one state is."""
    return zip(np.asarray(t).tolist(), np.ascontiguousarray(x.T))


@dataclass
class NonlinearField:
    """Right-hand side f(t, x) with optional analytic derivatives.

    `__call__` and `jac` also take a stack: states x (N, S) as columns and
    their times t (S,).  They return f (N, S) and df/dx (S, N, N).  A field
    that declares `columns` broadcasts: its `eval` and `jacobian` take the
    stack as well, in one call, and `jacobian` may return one (N, N) that
    holds for every column.  Any other field is evaluated one column at a
    time, so it need not broadcast.
    """

    eval: Callable
    jacobian: Callable | None = None
    t_derivative: Callable | None = None
    structure_tag: StructureTag = StructureTag.GENERAL
    columns: bool = False

    def __call__(self, t, x):
        if np.ndim(x) == 2 and not self.columns:
            return np.stack([self(*tx) for tx in _columns(t, x)], axis=1)
        return np.asarray(self.eval(t, x), dtype=float)

    def jac(self, t, x):
        stacked = np.ndim(x) == 2
        if stacked and not (self.columns and self.jacobian is not None):
            return np.stack([self.jac(*tx) for tx in _columns(t, x)])
        if self.jacobian is None:
            return fd_jacobian(lambda z: self.eval(t, z), np.asarray(x, float))
        j = np.asarray(self.jacobian(t, x), dtype=float)
        if stacked:  # a constant (N, N) holds for every column
            return np.broadcast_to(j, (x.shape[1],) + j.shape[-2:])
        return j

    def dt(self, t, x):
        if self.t_derivative is not None:
            return np.asarray(self.t_derivative(t, x), dtype=float)
        return _time_derivative(lambda tt: self(tt, x), t)


@dataclass
class SemilinearDAE:
    """Matrix pair, its verified operator family, and the nonlinear field."""

    pencil: Pencil
    projectors: ProjectorSet
    canonical: CanonicalSystem
    dual: DualSystem
    field: NonlinearField
    name: str = ""

    def __post_init__(self):
        if self.projectors.fingerprint != self.pencil.fingerprint:
            raise ValueError("projector set was built from a different pair")

    @property
    def structured(self) -> bool:
        """The field declares a structure and the index is 2 or more."""
        return (self.field.structure_tag is not StructureTag.GENERAL
                and self.projectors.nu >= 2)


@dataclass(frozen=True)
class _Block:
    """Columns of chain vectors and dual functionals for one state slice.
    A record of the level table is the block of one algebraic level with
    its label, its equation and, for a wedge level, its order."""

    phi: np.ndarray  # N x k
    q: np.ndarray    # N x k
    label: str = ""
    order: int | None = None
    problem: ImplicitProblem | None = None

    @property
    def dim(self) -> int:
        return self.phi.shape[1]

    def x_coords(self, b_mat, x):
        return self.q.conj().T @ (b_mat @ x)

    def y_coords(self, y):
        return self.q.conj().T @ y

    def lift(self, coords):
        return self.phi @ coords


class _FieldColumns:
    """The field values of a stacked level solve, one column per system: a
    level residual on the columns idx records its values there, as one
    residual records its value on a per-run state.  Each column then holds
    the field at its last residual, which is at the returned solution."""

    def __init__(self, values: np.ndarray, idx: np.ndarray):
        self.values, self.idx = values, idx

    def record(self, t, key, f) -> None:
        self.values[:, self.idx] = f


def _select_block(dae: SemilinearDAE, pred) -> _Block:
    idx = dae.canonical.columns(pred)
    return _Block(dae.canonical.phi[:, idx], dae.dual.q[:, idx])


class _Reduced:
    """What both routes share: the level table (the slices and equation of
    every algebraic level), `make_state()` and the one rule of a reduced
    state, x = explicit + eta + x20, with its drift dw = W (f(t, x) - B x)
    or W (f(t, x) - B explicit), its start `consistent_point` and its
    stacked form `drift_columns`.

    A route supplies only data: `w_projector` W (onto the space of the
    reduced variable w, explicit = a_tilde_inv w), `start_projector` (the
    explicit part of a start guess), `_drift_subtracts_state`, and the name
    `drift` looks up at call time, so a wrapper set on that class attribute
    (the benchmark tracer counts right-hand sides by the `drift_w` and
    `drift_w1` spans) sees every call.
    """

    def __init__(self, dae: SemilinearDAE):
        for name, mat in (("A", dae.pencil.a), ("B", dae.pencil.b)):
            if np.iscomplexobj(mat):
                # analysis takes complex pairs; a reduction would drop the
                # imaginary parts of the field and of every solve
                raise DaekitError(f"matrix {name} is complex: reduction "
                                  "needs a real pair, as states are real")
        self.dae = dae
        ps = dae.projectors
        self.ps = ps
        self.nu = ps.nu
        self.n = ps.n
        # the non-empty chain-top slices, top first: order s holds the
        # order-s vectors of chains of exact length s+1 (s = 1..nu-1)
        tops = {s: _select_block(dae, lambda m, j, s=s: j == m == s + 1)
                for s in range(self.nu - 1, 0, -1)}
        tops = {s: blk for s, blk in tops.items() if blk.dim}
        # the level table: every non-empty algebraic level, top first.  A
        # variant field's chain rows read every chain-top slice, so its chain
        # levels are one fused equation over the stacked slices.
        if dae.field.structure_tag is StructureTag.STRUCTURED_VARIANT:
            groups = [("chain_levels", sorted(tops))] if tops else []
        else:
            groups = [(f"chain_level_{s}", [s]) for s in tops]
        # and, read off the table, where the parts of order k sit: [its
        # chain-top part, its wedge part], each None or (the label of its
        # level, its coordinates in that level, its own block)
        self.levels = {}
        self.parts = {k: [None, None] for k in range(1, self.nu)}
        for label, group in groups:
            self.levels[label] = self._level(label, _Block(
                np.column_stack([tops[s].phi for s in group]),
                np.column_stack([tops[s].q for s in group])))
            start = 0
            for s in group:
                cols = slice(start, start + tops[s].dim)
                self.parts[s][0], start = (label, cols, tops[s]), cols.stop
        # wedge slices: order-s vectors of strictly longer chains; never
        # empty, as a longest chain (length nu >= s + 2) has one
        for s in range(self.nu - 2, 0, -1):
            label = f"wedge_level_{s}"
            self.levels[label] = self._level(label, _select_block(
                dae, lambda m, j, s=s: j == s + 1 and m >= s + 2), s)
            self.parts[s][1] = (label, slice(None), self.levels[label])
        # the kernel level's offset for a field that declares no structure
        self._no_offset = np.zeros(dae.pencil.n_dim)
        kernel = _select_block(dae, lambda m, j: j == 1)  # x20 slice, last
        if kernel.dim:
            self.levels["kernel_level"] = self._level("kernel_level", kernel)

    @property
    def level_count(self) -> int:
        """Number of equations in the reduced system (2 nu - 1, floor 1)."""
        return max(2 * self.nu - 1, 1)

    def make_state(self, x=None) -> "_CascadeEvaluator":
        """A fresh per-run state; with a state x, the kernel level is
        warm-started from the kernel coordinates of x."""
        state = _CascadeEvaluator(self)
        if x is not None and "kernel_level" in self.levels:
            state.warm["kernel_level"] = self.kernel_coords(x)
        return state

    def kernel_coords(self, x) -> np.ndarray:
        """The kernel level's coordinates of the state x, its warm start from
        x; an x out of range is rejected by consistent_point before use."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.levels["kernel_level"].x_coords(self.dae.pencil.b, x)

    def consistent_point(self, t0, x_guess, state=None):
        """The start from the guess, checked on L0: explicit =
        `start_projector` x_guess is kept, and eta and x20 are solved for on
        the per-run state (a fresh one if None), which a run then starts
        from; for a structure-tagged field eta holds the chain-top parts on
        both routes.  A guess entry above TOL.state_max, which the step
        loop could not step, or a start off L0 raises; for a field that
        declares a structure, a start off L0 first runs check_structure, so
        a mis-declared structure_tag is named."""
        x_guess = np.asarray(x_guess, dtype=float)
        if not np.abs(x_guess).max() <= TOL.state_max:
            raise DaekitError("initial guess entries must be finite and at "
                              f"most {TOL.state_max:g} in magnitude")
        state = state or self.make_state(x_guess)
        explicit = self.start_projector @ x_guess
        parts = state.algebraic_parts(t0)
        base = explicit + parts["eta_2sigma"]
        x0 = base + self._x20(t0, explicit, base, parts["d_vec"], state)
        # the kernel solve's field value, recorded under x0; a start where
        # the field overflows leaves a NaN residual, which is off L0 too
        with np.errstate(all="ignore"):
            self._field(t0, x0, state, state.warm.get("kernel_level"))
            res = self.residual_L0(t0, x0, state)
        if not res <= TOL.cons:
            if self.dae.structured:
                check_structure(self.dae)
            raise InconsistentInitialValue(res, TOL.cons)
        return x0

    def _level(self, label: str, blk: _Block, order: int | None = None,
               plain_rows: _Block | None = None) -> _Block:
        """The level record `label` of the slice `blk`, built once per
        reduction, with the equation for the coordinates c of its component
        phi c.

        Every algebraic level solves rows^H (f(t, base + phi c) - B phi c
        - offset) = 0 on its own rows.  The parameter p = (base, offset)
        carries the per-call data: base is the state without the level's
        component, offset is A times the time derivative of the parts one
        order up, or zero.  With `plain_rows` it builds the plain form
        instead, the direct route's kernel equation for a general field:
        those rows of f(t, x) - B x at x = base + phi c.

        The third entry of p is None or where the residual records its
        field value: a per-run state, keyed by c, for `_field`, or the
        `_FieldColumns` of a stacked solve.  The residual and Jacobian serve
        one system and a stack alike: for the columns c (k, S) at the times
        t (S,), base and offset are (N, S) and the Jacobian is (S, k, k).
        """
        fld = self.dae.field
        b = self.dae.pencil.b
        phi = blk.phi
        q_h = (blk if plain_rows is None else plain_rows).q.conj().T
        b_phi = b @ phi

        if plain_rows is None:
            def resid(t, p, c):
                base, offset, state = p
                x = phi @ c
                fx = fld(t, base + x)
                if state is not None:
                    state.record(t, c, fx)
                return q_h @ (fx - b @ x - offset)
        else:
            def resid(t, p, c):
                base, _, state = p
                x = base + phi @ c
                fx = fld(t, x)
                if state is not None:
                    state.record(t, c, fx)
                return q_h @ (fx - b @ x)

        def jac(t, p, c):
            return q_h @ (fld.jac(t, p[0] + phi @ c) @ phi - b_phi)

        return replace(blk, label=label, order=order,
                       problem=ImplicitProblem(residual=resid, jac_y=jac))

    def _field(self, t, x, state, key):
        """f(t, x), taken from the per-run state where its record holds f at
        (t, key), and recorded there under x.

        A level solve records f at its last residual, which is the residual
        at the returned coordinates c.  Its argument base + phi c has the
        same bits as the assembled state x when key is c, so the drift
        needs no evaluation of its own; nor does the residual of an
        accepted step, with key x.
        """
        got = state.field_at
        if got is not None and got[0] == t and got[1] is key:
            f = got[2]
        else:
            f = self.dae.field(t, x)
        state.field_at = (t, x, f)
        return f

    def _x20(self, t, explicit, base, offset, state):
        """The kernel part phi c of the state base + phi c at t, base =
        explicit + eta: c solves the kernel level on the per-run state,
        warm-started, to TOL.solver max(1, |explicit|), the stop of every
        kernel solve."""
        if "kernel_level" not in self.levels:
            return np.zeros(self.dae.pencil.n_dim)
        c = state._solve("kernel_level", t, base, offset,
                         max(1.0, norm2(explicit)))
        return self.levels["kernel_level"].lift(c)

    def _drift(self, t, w, state):
        """The reduced right-hand side at w, plus the assembled state x: the
        one-column form of `drift_columns`, on the per-run state."""
        w = self.w_projector @ w
        explicit = self.ps.a_tilde_inv @ w
        base, offset = explicit, self._no_offset
        if self.dae.structured:
            eta, offset = self._t_only_parts(state, t)
            base = explicit + eta
        x = base + self._x20(t, explicit, base, offset, state)
        f = self._field(t, x, state, state.warm.get("kernel_level"))
        minus = x if self._drift_subtracts_state else explicit
        return self.w_projector @ (f - self.dae.pencil.b @ minus), x

    drift = property(lambda self: getattr(self, self._drift_name))

    def _t_only_parts(self, state, t):
        """eta and the kernel level's offset at t for a structure-tagged
        field, from the per-run state.  eta is zero where the drift
        subtracts B x: there the explicit part holds the chain-top parts."""
        offset = state.level_offset(0, t)
        if self._drift_subtracts_state:
            return np.zeros(self.dae.pencil.n_dim), offset
        return state.eta_2sigma(t), offset

    def drift_columns(self, ts, w):
        """`drift` at every column of w (n x S), at the times ts (S,): (dw,
        x, ok), ok False where a column did not solve.

        eta and the kernel level's offset depend on t only; for a
        structure-tagged field (reduce_cascade refuses any other at index 2
        and up) `_t_only_parts` solves them on a fresh state per column,
        and a column whose parts do not solve is dropped.  c solves the
        kernel level from zero, for all columns in one stacked Newton
        solve, to the tolerance of `_x20`.  A singular column raises
        SingularJacobian only after the columns before it are solved.
        """
        w = self.w_projector @ w
        explicit = self.ps.a_tilde_inv @ w
        n_dim, cols = explicit.shape
        base, offset = explicit, np.zeros((n_dim, cols))
        ok = np.ones(cols, dtype=bool)
        error = None
        if self.dae.structured:
            eta = np.zeros((n_dim, cols))
            for i, t in enumerate(ts.tolist()):
                try:
                    eta[:, i], offset[:, i] = self._t_only_parts(
                        self.make_state(), t)
                except ConstraintSolveFailure:
                    ok[i] = False
                except SingularJacobian as exc:
                    ok[i:], error = False, exc
                    break
            base = explicit + eta
        idx = np.flatnonzero(ok)
        x, fx = base.copy(), np.zeros((n_dim, cols))
        blk = self.levels.get("kernel_level")
        if blk is None:
            if idx.size:
                fx[:, idx] = self.dae.field(ts[idx], base[:, idx])
        else:
            tol = TOL.solver * np.maximum(1.0, column_norms(explicit[:, idx]))

            def params(j):
                return (base[:, idx[j]], offset[:, idx[j]],
                        _FieldColumns(fx, idx[j]))
            try:
                c, ok[idx] = solve_newton_columns(
                    blk.problem, ts[idx], params,
                    np.zeros((blk.dim, idx.size)), tol)
            except SingularJacobian as exc:
                exc.level = "kernel_level"
                raise
            x[:, idx] += blk.lift(c)
        if error is not None:
            raise error
        minus = x if self._drift_subtracts_state else explicit
        return self.w_projector @ (fx - self.dae.pencil.b @ minus), x, ok

    def f2_star(self, t, x, state=None):
        """Constraint residual vector (ambient).  With the per-run state, a
        field value recorded there at x is reused."""
        f = (self.dae.field(t, x) if state is None
             else self._field(t, x, state, x))
        return self.ps.q2_star @ (f - self.dae.pencil.b @ x)

    def residual_L0(self, t, x, state=None) -> float:
        """Constraint distance, scaled by the block norm of the state so the
        measure stays meaningful on trajectories of growing magnitude."""
        ps = self.ps
        split = norm2(ps.p1 @ x) + norm2(ps.p2_sigma @ x) + norm2(ps.p20 @ x)
        return norm2(self.f2_star(t, x, state)) / max(1.0, split)


# ---------------------------------------------------------------------------
# direct reduction


class ReducedFirst(_Reduced):
    """Explicit form with the whole (x1 + x2_sigma) block differential."""

    _drift_name = "drift_w"
    _drift_subtracts_state = True  # B x, of the whole state

    def __init__(self, dae: SemilinearDAE):
        super().__init__(dae)
        ps = self.ps
        self.w_projector = ps.q1 + ps.q2_sigma
        # a structure-tagged field's levels pin the chain-top parts of a
        # start, and its constraint rows do not involve x20 (the Jacobian of
        # the plain form is singular), so x20 solves the differentiated
        # kernel-level form; any other field keeps x2_sigma of the guess and
        # solves the plain form on the residual rows, the chain tops
        if dae.structured:
            self.start_projector = ps.p1
        else:
            self.start_projector = ps.p1 + ps.p2_sigma
            if "kernel_level" in self.levels:
                self.levels["kernel_level"] = self._level(
                    "kernel_level", self.levels["kernel_level"],
                    plain_rows=_select_block(dae, lambda m, j: j == m))

    drift_w = _Reduced._drift

    def solve_x20(self, t, x12, state: "_CascadeEvaluator | None" = None):
        """Kernel component on the constraint manifold at fixed (t, x12)."""
        state = state or self.make_state()
        offset = state.algebraic_parts(t)["d_vec"]
        return self._x20(t, x12, x12, offset, state), state

    def eta_hat(self, t, w, state: "_CascadeEvaluator | None" = None):
        """Kernel component as a function of the reduced variable."""
        x12 = self.ps.a_tilde_inv @ w
        return self.solve_x20(t, x12, state)


def reduce_first(dae: SemilinearDAE) -> ReducedFirst:
    return ReducedFirst(dae)


# ---------------------------------------------------------------------------
# cascade reduction


class ReducedCascade(_Reduced):
    """Level-by-level explicit form for structure-tagged fields."""

    _drift_name = "drift_w1"
    _drift_subtracts_state = False  # B x1, of the explicit part only

    def __init__(self, dae: SemilinearDAE):
        super().__init__(dae)
        self.w_projector = self.ps.q1
        self.start_projector = self.ps.p1

    drift_w1 = _Reduced._drift

    def level_residuals(self, t, x, evaluator: "_CascadeEvaluator | None" = None):
        """Residual norm of every algebraic level equation at the state x.

        Each level's component and the components of the levels above it
        are read from x; the offsets are functions of time only and come
        from the evaluator.
        """
        ev = evaluator or self.make_state()
        b = self.dae.pencil.b
        zero = np.zeros(self.dae.pencil.n_dim)
        out = {}
        above = zero
        for label, blk in self.levels.items():
            base, offset = above, zero
            if label == "kernel_level":
                base = self.ps.p1 @ x + above
                offset = ev.algebraic_parts(t)["d_vec"]
            elif blk.order is not None:
                offset = ev.level_offset(blk.order, t)
            c = blk.x_coords(b, x)
            r = blk.problem.residual(t, (base, offset, None), c)
            out[label] = float(np.linalg.norm(r))
            above = above + blk.lift(c)
        return out


def reduce_cascade(dae: SemilinearDAE, waive_structure_check: bool = False
                   ) -> ReducedCascade:
    """Build the cascade reduction, verifying the declared field structure
    by sampling unless explicitly waived."""
    if dae.structured:
        if not waive_structure_check:
            check_structure(dae)
    elif dae.projectors.nu >= 2:
        raise StructureViolation()
    return ReducedCascade(dae)


class _CascadeEvaluator:
    """The per-run state of both routes, from `make_state()`: the warm start
    and the kept Jacobian of every level, the field record and the chain and
    wedge levels of the last time asked for."""

    def __init__(self, rc: _Reduced):
        self.rc = rc
        self.warm: dict[str, np.ndarray] = {}  # last solution of each level
        # kept Jacobian of each level, for its next Newton solve
        self.jac_caches = {label: JacobianCache() for label in rc.levels}
        # (t, {label: (c, dc)}, eta) of the chain and wedge levels at the last
        # time asked for, see _levels
        self._last_levels: tuple | None = None
        # (t, key, f(t, x)) of the last level residual or drift, see _field
        self.field_at: tuple | None = None

    def record(self, t, key, f) -> None:
        """Keep f(t, x) of a level residual, keyed by its coordinates."""
        self.field_at = (t, key, f)

    def _solve(self, label: str, t: float, base, offset, scale: float = 1.0
               ) -> np.ndarray:
        """Coordinates of the level's component, warm-started from its last
        solution and its kept Jacobian, to the solver tolerance times
        `scale`: the one Newton solve of every level on both routes.  A
        failure raises ConstraintSolveFailure labelled with the level."""
        blk = self.rc.levels[label]
        guess = self.warm.get(label)
        guess = np.zeros(blk.dim) if guess is None else guess
        try:
            c = solve_newton(blk.problem, t, (base, offset, self), guess,
                             TOL.solver * scale,
                             jac_cache=self.jac_caches[label])
        except NoConvergence as exc:
            raise ConstraintSolveFailure(t, label, exc)
        except SingularJacobian as exc:
            exc.level = label
            raise
        self.warm[label] = c
        return c

    def _derivative(self, label: str, t: float, x, base_d, offset_d,
                    keep: bool) -> np.ndarray:
        """Implicit time derivative of a t-only level's coordinates at the
        point x = base + phi c: dc = -J^-1 rows^H (f_t + f_x base' -
        offset'), J = rows^H (f_x phi - B phi) the level Jacobian at x.  A
        None base' or offset' is zero.  With `keep` (x a solution) J, tested
        once, is kept for the level's next Newton solve.  A singular J
        raises SingularJacobian labelled with the level."""
        rc = self.rc
        blk = rc.levels[label]
        fld = rc.dae.field
        jf = fld.jac(t, x)
        j_own = blk.y_coords(jf @ blk.phi - rc.dae.pencil.b @ blk.phi)
        g = fld.dt(t, x)
        if base_d is not None:
            g = g + jf @ base_d
        if offset_d is not None:
            g = g - offset_d
        cache = self.jac_caches[label] if keep else JacobianCache()
        dc = cache.factor_solve(j_own, -blk.y_coords(g))
        if dc is None:
            # Newton returns at once where the residual already vanishes,
            # so a singular level Jacobian can first show here
            raise SingularJacobian(point=(t,),
                                   message=f"dF/dy of {label} singular",
                                   level=label)
        return dc

    def _pass(self, t: float, values: dict | None = None,
              last: str | None = None) -> tuple:
        """({label: (c, dc)} of the chain and wedge levels, top first, eta).

        Each level's base is the sum of the components of the levels
        before it in the table, and eta is that sum over all of them.  A
        wedge level's offset is A times the derivative of the parts one
        order up (`_order_term`).  Without `values` every level is solved
        at t and its derivative keeps its Jacobian.  With `values` (label
        -> c) nothing is solved: the derivatives are taken at those
        coordinates, up to the level `last`.
        """
        rc = self.rc
        a = rc.dae.pencil.a
        zero = np.zeros(rc.dae.pencil.n_dim)
        base, base_d = zero, None
        out: dict = {}
        for label, blk in rc.levels.items():
            if label == "kernel_level":
                break
            s = blk.order
            if values is None:
                offset = zero if s is None \
                    else a @ self._order_term(s + 1, out)
                c = self._solve(label, t, base, offset)
            else:
                c = values[label]
            offset_d = None if s is None \
                else self._offset_derivative(s, t, out)
            x = base + blk.lift(c)
            dc = self._derivative(label, t, x, base_d, offset_d,
                                  keep=values is None)
            out[label] = (c, dc)
            if label == last:
                break
            base = x
            base_d = blk.lift(dc) if base_d is None else base_d + blk.lift(dc)
        return out, base

    def _order_term(self, k: int, levels: dict) -> np.ndarray:
        """Time derivative of the chain and wedge parts of order k, from
        the (c, dc) of their levels."""
        def lift(part):
            label, cols, blk = part
            return blk.lift(levels[label][1][cols])

        top, wedge = self.rc.parts[k]
        d_term = np.zeros(self.rc.dae.pencil.n_dim) if top is None \
            else lift(top)
        return d_term if wedge is None else d_term + lift(wedge)

    def _offset_derivative(self, s: int, t: float, above: dict
                           ) -> np.ndarray:
        """Time derivative of wedge level s's offset, A times the second
        derivative of the parts of order s + 1: the central difference of
        their implicit first derivatives along the tangent line, each at
        (t', c + (t' - t) dc) for every level in `above` (label -> (c, dc)).
        No level is solved; for a wedge level of order s + 1 the
        differences nest."""
        rc = self.rc
        k = s + 1
        top, wedge = rc.parts[k]
        last = (wedge or top)[0]

        def term(tt):
            shifted = {label: c + (tt - t) * dc
                       for label, (c, dc) in above.items()}
            return self._order_term(k, self._pass(tt, shifted, last)[0])
        return rc.dae.pencil.a @ _time_derivative(term, t)

    def _levels(self, t: float) -> tuple:
        """({label: (c, dc)} of every chain and wedge level at t, eta), from
        one `_pass` unless t is the last time asked for: a run asks again
        only at its newest time."""
        if self._last_levels is None or self._last_levels[0] != t:
            self._last_levels = (t, *self._pass(t))
        return self._last_levels[1:]

    # -- chain-top levels ----------------------------------------------------
    def chain_values(self, t: float) -> dict:
        """Coordinates and derivatives of the chain-top parts at t, keyed by
        order."""
        levels, _ = self._levels(t)
        values = {s: np.zeros(0) for s in range(1, self.rc.nu)}
        derivs = dict(values)
        for s, (top, _) in self.rc.parts.items():
            if top is not None:
                c, dc = levels[top[0]]
                values[s], derivs[s] = c[top[1]], dc[top[1]]
        return {"values": values, "derivatives": derivs}

    # -- wedge levels ----------------------------------------------------------
    def wedge_value(self, s: int, t: float) -> np.ndarray:
        return self._levels(t)[0][f"wedge_level_{s}"][0]

    def wedge_derivative(self, s: int, t: float) -> np.ndarray:
        """Implicit time derivative of wedge level s at t."""
        return self._levels(t)[0][f"wedge_level_{s}"][1]

    def level_offset(self, s: int, t: float) -> np.ndarray:
        """Offset of wedge level s, or of the kernel level for s = 0: A times
        the time derivative of the chain and wedge parts of level s + 1."""
        levels, _ = self._levels(t)
        return self.rc.dae.pencil.a @ self._order_term(s + 1, levels)

    # -- assembled pieces --------------------------------------------------------
    def eta_2sigma(self, t: float) -> np.ndarray:
        """The chain and wedge parts of the state at t, summed by `_pass`."""
        return self._levels(t)[1]

    def algebraic_parts(self, t: float) -> dict:
        """The algebraic part eta_2sigma of the state and the offset d_vec of
        the kernel level, both functions of time only; zero for a field that
        declares no structure."""
        rc = self.rc
        if not rc.dae.structured:
            zero = np.zeros(rc.dae.pencil.n_dim)
            return {"eta_2sigma": zero, "d_vec": zero}
        d_vec = self.level_offset(0, t)
        return {"eta_2sigma": self.eta_2sigma(t), "d_vec": d_vec}

    def solve_x20(self, t: float, x1: np.ndarray, parts: dict) -> np.ndarray:
        return self.rc._x20(t, x1, x1 + parts["eta_2sigma"], parts["d_vec"],
                            self)


# ---------------------------------------------------------------------------
# structure verification


# sampling of the structure check: states standard normal per coordinate,
# times uniform on [0, 10], each excluded direction moved by _STRUCT_STEP
_STRUCT_SAMPLES = 32
_STRUCT_STEP = 1e-2
_STRUCT_SEED = 1234


@dataclass
class StructureReport:
    passed: bool
    worst_projection: str
    worst_dependence: float


def check_structure(dae: SemilinearDAE) -> StructureReport:
    """Sampled verification of the declared field structure.

    For every projected component that the declared structure restricts,
    sample states, perturb only the excluded state slices, and measure the
    induced change of the projected component.  Raises StructureViolation
    on the first projection whose observed dependence exceeds
    `DEFAULT_TOLERANCES.struct_dep`.
    """
    if dae.field.structure_tag is StructureTag.GENERAL:
        raise StructureViolation()
    if not dae.structured:
        return StructureReport(True, "<vacuous>", 0.0)

    rc = _Reduced(dae)  # its level table
    n_dim = dae.pencil.n_dim
    # the rule of the table's order: the rows of a level may depend neither
    # on the explicit part nor on any level after their own (the kernel
    # level last).  Chain rows by order, then wedge rows by order.
    labels = list(rc.levels)
    explicit = list(orth_basis(dae.projectors.p1).T)
    checks = []  # (label, q_cols, excluded directions)
    for which, kind in enumerate(("chain", "wedge")):
        for k, parts in rc.parts.items():
            if parts[which] is not None:
                level, _, blk = parts[which]
                after = labels[labels.index(level) + 1:]
                checks.append((f"{kind}_rows_level_{k}", blk.q, explicit + [
                    v for label in after for v in rc.levels[label].phi.T]))

    rng = np.random.default_rng(_STRUCT_SEED)
    worst_label, worst_dep = "<none>", 0.0
    for label, q_cols, excluded in checks:
        dep = 0.0
        sample = None
        for _ in range(_STRUCT_SAMPLES):
            t = float(rng.uniform(0.0, 10.0))
            x = rng.standard_normal(n_dim)
            base = q_cols.conj().T @ dae.field(t, x)
            for direction in excluded:
                moved = q_cols.conj().T @ dae.field(
                    t, x + _STRUCT_STEP * direction)
                delta = float(np.linalg.norm(moved - base)) / (
                    _STRUCT_STEP * max(1.0, float(np.linalg.norm(base))))
                if delta > dep:
                    dep = delta
                    sample = (t, x.copy())
        if dep > worst_dep:
            worst_dep, worst_label = dep, label
        if dep > TOL.struct_dep:
            raise StructureViolation(label, dep, sample)
    return StructureReport(True, worst_label, worst_dep)
