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
from dataclasses import dataclass
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
    their times t (S,).  They evaluate the field one column at a time, so a
    field need not broadcast, and return f (N, S) and df/dx (S, N, N).
    """

    eval: Callable
    jacobian: Callable | None = None
    t_derivative: Callable | None = None
    structure_tag: StructureTag = StructureTag.GENERAL

    def __call__(self, t, x):
        if np.ndim(x) == 2:
            return np.stack([self(*tx) for tx in _columns(t, x)], axis=1)
        return np.asarray(self.eval(t, x), dtype=float)

    def jac(self, t, x):
        if np.ndim(x) == 2:
            return np.stack([self.jac(*tx) for tx in _columns(t, x)])
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t, x), dtype=float)
        return fd_jacobian(lambda z: self.eval(t, z), np.asarray(x, float))

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
    """Columns of chain vectors and dual functionals for one state slice."""

    phi: np.ndarray  # N x k
    q: np.ndarray    # N x k

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
    explicit part of a start guess), `_drift_subtracts_state` and
    `_t_only_parts` (eta and the kernel level's offset at t), and the name
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
        self.kernel = _select_block(dae, lambda m, j: j == 1)       # x20 slice
        # chain-top slices: level s holds the order-s vectors of chains of
        # exact length s+1 (s = 1..nu-1)
        self.chain_blocks = {
            s: _select_block(dae, lambda m, j, s=s: j == s + 1 and m == s + 1)
            for s in range(1, max(self.nu, 1))
        }
        # wedge slices: order-s vectors of strictly longer chains; never
        # empty, as a longest chain (length nu >= s + 2) has one
        self.wedge_blocks = {
            s: _select_block(dae, lambda m, j, s=s: j == s + 1 and m >= s + 2)
            for s in range(1, max(self.nu - 1, 1))
        }
        # chain levels, top first, each with the chain-top slices it solves
        # for.  A variant field's chain rows read every chain-top slice, so
        # its chain levels are one fused equation over the stacked slices.
        if dae.field.structure_tag is StructureTag.STRUCTURED_VARIANT:
            fused = tuple(s for s in range(1, self.nu)
                          if self.chain_blocks[s].dim)
            self.chain_levels = [("chain_levels", fused)] if fused else []
        else:
            self.chain_levels = [(f"chain_level_{s}", (s,))
                                 for s in range(self.nu - 1, 0, -1)
                                 if self.chain_blocks[s].dim]
        # every non-empty algebraic level, top first: label -> (slice, equation)
        slices = {label: _Block(
            np.column_stack([self.chain_blocks[s].phi for s in group]),
            np.column_stack([self.chain_blocks[s].q for s in group]))
            for label, group in self.chain_levels}
        slices.update((f"wedge_level_{s}", self.wedge_blocks[s])
                      for s in reversed(self.wedge_blocks))
        # the chain and wedge levels in table order, each with its wedge
        # order s (None for a chain level), and the (label, start, end) of
        # every chain-top slice within its level's coordinates
        self.t_only = [(label, None) for label, _ in self.chain_levels]
        self.t_only += [(f"wedge_level_{s}", s)
                        for s in reversed(self.wedge_blocks)]
        self.chain_slots = {}
        for label, group in self.chain_levels:
            start = 0
            for s in group:
                end = start + self.chain_blocks[s].dim
                self.chain_slots[s] = (label, start, end)
                start = end
        # the kernel level's offset for a field that declares no structure
        self._no_offset = np.zeros(dae.pencil.n_dim)
        if self.kernel.dim:
            slices["kernel_level"] = self.kernel
        self.levels = {label: (blk, self._level_problem(blk))
                       for label, blk in slices.items()}

    @property
    def level_count(self) -> int:
        """Number of equations in the reduced system (2 nu - 1, floor 1)."""
        return max(2 * self.nu - 1, 1)

    def make_state(self, x=None) -> "_CascadeEvaluator":
        """A fresh per-run state; with a state x, the kernel level is
        warm-started from the kernel coordinates of x."""
        state = _CascadeEvaluator(self)
        if x is not None and self.kernel.dim:
            # an x out of range is rejected by consistent_point before use
            with np.errstate(over="ignore", invalid="ignore"):
                state.warm["kernel_level"] = self.kernel.x_coords(
                    self.dae.pencil.b, x)
        return state

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

    def _level_problem(self, blk: _Block, plain_rows: _Block | None = None
                       ) -> ImplicitProblem:
        """The equation for the coordinates c of the component phi c on the
        slice `blk`, built once per reduction.

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

        return ImplicitProblem(residual=resid, jac_y=jac)

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
        if not self.kernel.dim:
            return np.zeros(self.dae.pencil.n_dim)
        c = state._solve("kernel_level", t, base, offset,
                         max(1.0, norm2(explicit)))
        return self.kernel.lift(c)

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
        if not self.kernel.dim:
            if idx.size:
                fx[:, idx] = self.dae.field(ts[idx], base[:, idx])
        else:
            blk, problem = self.levels["kernel_level"]
            tol = TOL.solver * np.maximum(1.0, column_norms(explicit[:, idx]))

            def params(j):
                return (base[:, idx[j]], offset[:, idx[j]],
                        _FieldColumns(fx, idx[j]))
            try:
                c, ok[idx] = solve_newton_columns(
                    problem, ts[idx], params, np.zeros((blk.dim, idx.size)),
                    tol)
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
            if self.kernel.dim:
                self.levels["kernel_level"] = (self.kernel, self._level_problem(
                    self.kernel, _select_block(dae, lambda m, j: j == m)))

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

    def _t_only_parts(self, state, t):
        """No eta (x12 holds the chain-top parts) and the kernel offset."""
        return np.zeros(self.dae.pencil.n_dim), state.level_offset(0, t)


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

    def _t_only_parts(self, state, t):
        """eta_2sigma and the kernel offset: the algebraic parts at t."""
        parts = state.algebraic_parts(t)
        return parts["eta_2sigma"], parts["d_vec"]

    def level_residuals(self, t, x, evaluator: "_CascadeEvaluator | None" = None):
        """Residual norm of every algebraic level equation at the state x.

        Each level's component and the components of the levels above it
        are read from x; the offsets are functions of time only and come
        from the evaluator.
        """
        ev = evaluator or self.make_state()
        b = self.dae.pencil.b
        zero = np.zeros(self.dae.pencil.n_dim)
        offsets = [(label, zero if s is None else ev.level_offset(s, t))
                   for label, s in self.t_only]
        if self.kernel.dim:
            offsets.append(("kernel_level", ev.algebraic_parts(t)["d_vec"]))
        out = {}
        above = zero
        for label, offset in offsets:
            blk, problem = self.levels[label]
            c = blk.x_coords(b, x)
            base = self.ps.p1 @ x + above if label == "kernel_level" else above
            r = problem.residual(t, (base, offset, None), c)
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
        # (t, {label: (c, dc)}) of every chain and wedge level, see _levels
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
        blk, problem = self.rc.levels[label]
        guess = self.warm.get(label)
        guess = np.zeros(blk.dim) if guess is None else guess
        try:
            c = solve_newton(problem, t, (base, offset, self), guess,
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
        blk = rc.levels[label][0]
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
              last: str | None = None) -> dict:
        """{label: (c, dc)} of the chain and wedge levels, top first.

        Each level's base is the sum of the components of the levels
        before it in the table, and a wedge level's offset is A times the
        derivative of the parts one order up (`_order_term`).  Without
        `values` every level is solved at t and its derivative keeps its
        Jacobian.  With `values` (label -> c) nothing is solved: the
        derivatives are taken at those coordinates, up to the level `last`.
        """
        rc = self.rc
        a = rc.dae.pencil.a
        zero = np.zeros(rc.dae.pencil.n_dim)
        base, base_d = zero, None
        out: dict = {}
        for label, s in rc.t_only:
            blk = rc.levels[label][0]
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
        return out

    def _order_term(self, k: int, levels: dict) -> np.ndarray:
        """Time derivative of the chain and wedge parts of order k, from
        the (c, dc) of their levels."""
        rc = self.rc
        label, start, end = rc.chain_slots.get(k, (None, 0, 0))
        d_term = rc.chain_blocks[k].lift(levels[label][1][start:end]) \
            if label is not None else np.zeros(rc.dae.pencil.n_dim)
        if k in rc.wedge_blocks:
            d_term = d_term + rc.wedge_blocks[k].lift(
                levels[f"wedge_level_{k}"][1])
        return d_term

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
        last = f"wedge_level_{k}" if k in rc.wedge_blocks \
            else rc.chain_slots[k][0]

        def term(tt):
            shifted = {label: c + (tt - t) * dc
                       for label, (c, dc) in above.items()}
            return self._order_term(k, self._pass(tt, shifted, last))
        return rc.dae.pencil.a @ _time_derivative(term, t)

    def _levels(self, t: float) -> dict:
        """{label: (c, dc)} of every chain and wedge level at t, from one
        `_pass` unless t is the last time asked for: a run asks again only
        at its newest time."""
        got = self._last_levels
        if got is None or got[0] != t:
            got = self._last_levels = (t, self._pass(t))
        return got[1]

    # -- chain-top levels ----------------------------------------------------
    def chain_values(self, t: float) -> dict:
        """Coordinates and derivatives of the chain-top parts at t, keyed by
        order."""
        levels = self._levels(t)
        values = {s: np.zeros(0) for s in range(1, self.rc.nu)}
        derivs = dict(values)
        for s, (label, start, end) in self.rc.chain_slots.items():
            c, dc = levels[label]
            values[s], derivs[s] = c[start:end], dc[start:end]
        return {"values": values, "derivatives": derivs}

    # -- wedge levels ----------------------------------------------------------
    def wedge_value(self, s: int, t: float) -> np.ndarray:
        return self._levels(t)[f"wedge_level_{s}"][0]

    def wedge_derivative(self, s: int, t: float) -> np.ndarray:
        """Implicit time derivative of wedge level s at t."""
        return self._levels(t)[f"wedge_level_{s}"][1]

    def level_offset(self, s: int, t: float) -> np.ndarray:
        """Offset of wedge level s, or of the kernel level for s = 0: A times
        the time derivative of the chain and wedge parts of level s + 1."""
        return self.rc.dae.pencil.a @ self._order_term(s + 1, self._levels(t))

    # -- assembled pieces --------------------------------------------------------
    def eta_2sigma(self, t: float) -> np.ndarray:
        """The chain and wedge parts of the state at t."""
        rc = self.rc
        levels = self._levels(t)
        return sum((rc.levels[label][0].lift(levels[label][0])
                    for label, _ in rc.t_only), np.zeros(rc.dae.pencil.n_dim))

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
    tag = dae.field.structure_tag
    nu = dae.projectors.nu
    if tag is StructureTag.GENERAL:
        raise StructureViolation()
    if not dae.structured:
        return StructureReport(True, "<vacuous>", 0.0)

    rc = _Reduced(dae)  # its level slices
    n_dim = dae.pencil.n_dim

    def directions(blocks):
        return [v for blk in blocks for v in blk.phi.T]

    # every row set may depend on neither the explicit part nor x20; chain
    # rows of level s on no wedge slice and, for a structured field, on no
    # chain slice below s; wedge rows of level s on no wedge slice below s
    always = [*orth_basis(dae.projectors.p1).T, *rc.kernel.phi.T]
    wedges = rc.wedge_blocks
    checks = []  # (label, q_cols, excluded directions)
    for s in range(1, nu):
        blk = rc.chain_blocks[s]
        below = range(1, s) if tag is StructureTag.STRUCTURED else ()
        if blk.dim:
            checks.append((f"chain_rows_level_{s}", blk.q, always
                           + directions(rc.chain_blocks[j] for j in below)
                           + directions(wedges.values())))
    for s in range(1, nu - 1):
        checks.append((f"wedge_rows_level_{s}", wedges[s].q,
                       always + directions(wedges[i] for i in range(1, s))))

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
