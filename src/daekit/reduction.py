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
    """What both routes share.

    The level table (the slices and equation of every algebraic level),
    `make_state()`, `consistent_point` and `drift_columns`.  A route adds
    `_initial_state`, what `drift_columns` reads of it (`_t_only_parts`,
    `_drift_subtracts_state`) and the reduction protocol: `w_projector`
    (the projector onto the space of the reduced variable w) and
    `drift(t, w, state) -> (dw, x)` (the reduced right-hand side plus the
    assembled state).
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
        """The route's `_initial_state` from the guess, checked on L0: the
        explicit components of the guess are kept and the algebraic ones
        solved for, on the per-run state (a fresh one if None), which a run
        then starts from.  A guess entry above TOL.state_max, which the
        step loop could not step, or a start off L0 raises; for a field
        that declares a structure, a start off L0 first runs
        check_structure, so a mis-declared structure_tag is named."""
        x_guess = np.asarray(x_guess, dtype=float)
        if not np.abs(x_guess).max() <= TOL.state_max:
            raise DaekitError("initial guess entries must be finite and at "
                              f"most {TOL.state_max:g} in magnitude")
        state = state or self.make_state(x_guess)
        x0 = self._initial_state(t0, x_guess, state)
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

    def drift_columns(self, ts, w):
        """The route's `drift` at every column of w (n x S), at the times ts
        (S,): (dw, x, ok), ok False where a column did not solve.

        Column i is the state x = explicit + eta + phi c, explicit =
        a_tilde_inv w.  eta and the kernel level's offset depend on t only;
        for a structure-tagged field (reduce_cascade refuses any other at
        index 2 and up) `_t_only_parts` solves them on a fresh state per
        column, and a column whose parts do not solve is dropped.  c solves
        the kernel level from zero, for all columns in one stacked Newton
        solve, to TOL.solver max(1, |explicit|).  A singular column raises
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

    def __init__(self, dae: SemilinearDAE):
        super().__init__(dae)
        ps = self.ps
        self.p12 = ps.p1 + ps.p2_sigma
        self.w_projector = ps.q1 + ps.q2_sigma
        self.tops = _select_block(dae, lambda m, j: j == m)          # residual rows
        # a structure-tagged field's constraint rows do not involve x20 (the
        # Jacobian of the plain form is singular), so x20 solves the
        # differentiated kernel-level form; any other field, the plain form
        self.differentiated = dae.structured
        if self.kernel.dim and not self.differentiated:
            self.levels["kernel_level"] = (
                self.kernel, self._level_problem(self.kernel, self.tops))

    # -- algebraic solve -----------------------------------------------------
    def solve_x20(self, t, x12, state: "_CascadeEvaluator | None" = None):
        """Kernel component on the constraint manifold at fixed (t, x12),
        from the table's kernel level."""
        state = state or self.make_state()
        if self.n == 0:
            return np.zeros(self.dae.pencil.n_dim), state
        guess = state.warm.get("kernel_level")
        # tolerance scaled by the state magnitude: at large states the
        # floating-point floor of the residual grows alongside
        scale = max(1.0, norm2(x12), 0.0 if guess is None else norm2(guess))
        d_vec = state.level_offset(0, t) if self.differentiated else None
        c = state._solve("kernel_level", t, x12, d_vec, scale)
        return self.kernel.lift(c), state

    def eta_hat(self, t, w, state: "_CascadeEvaluator | None" = None):
        """Kernel component as a function of the reduced variable."""
        x12 = self.ps.a_tilde_inv @ w
        return self.solve_x20(t, x12, state)

    def drift_w(self, t, w, state: "_CascadeEvaluator"):
        """Right-hand side of the reduced ODE, plus the assembled state."""
        w = self.w_projector @ w
        x12 = self.ps.a_tilde_inv @ w
        x20, _ = self.solve_x20(t, x12, state)
        x = x12 + x20
        f = self._field(t, x, state, state.warm.get("kernel_level"))
        return self.w_projector @ (f - self.dae.pencil.b @ x), x

    # The protocol's drift looks drift_w up at call time, so a wrapper set on
    # the class attribute (the benchmark tracer counts right-hand sides by
    # the drift_w spans) sees every call.
    drift = property(lambda self: self.drift_w)

    # drift_w subtracts B x, of the whole state
    _drift_subtracts_state = True

    def _t_only_parts(self, state, t):
        """No eta (x12 holds the chain-top parts) and the kernel offset."""
        return np.zeros(self.dae.pencil.n_dim), state.level_offset(0, t)

    def _initial_state(self, t0, x_guess, state):
        """Keep the explicit components of the guess, solve the rest; for a
        structure-tagged field the levels pin the chain-top parts too."""
        if self.differentiated:
            x1 = self.ps.p1 @ x_guess
            x12 = x1 + state.eta_2sigma(t0)
        else:
            x12 = self.p12 @ x_guess
        return x12 + self.solve_x20(t0, x12, state)[0]


def reduce_first(dae: SemilinearDAE) -> ReducedFirst:
    return ReducedFirst(dae)


# ---------------------------------------------------------------------------
# cascade reduction


class ReducedCascade(_Reduced):
    """Level-by-level explicit form for structure-tagged fields."""

    def __init__(self, dae: SemilinearDAE):
        super().__init__(dae)
        self.w_projector = self.ps.q1

    def drift_w1(self, t, w1, evaluator: "_CascadeEvaluator"):
        """Right-hand side of the reduced ODE for w1 = corrected-A x1."""
        w1 = self.w_projector @ w1
        x1 = self.ps.a_tilde_inv @ w1
        parts = evaluator.algebraic_parts(t)
        x20 = evaluator.solve_x20(t, x1, parts)
        x = x1 + parts["eta_2sigma"] + x20
        f = self._field(t, x, evaluator, evaluator.warm.get("kernel_level"))
        drift = self.w_projector @ (f - self.dae.pencil.b @ x1)
        return drift, x

    # looked up at call time for the same reason as ReducedFirst.drift
    drift = property(lambda self: self.drift_w1)

    # drift_w1 subtracts B x1, of the explicit part only
    _drift_subtracts_state = False

    def _t_only_parts(self, state, t):
        """eta_2sigma and the kernel offset: the algebraic parts at t."""
        parts = state.algebraic_parts(t)
        return parts["eta_2sigma"], parts["d_vec"]

    def _initial_state(self, t0, x_guess, state):
        """The explicit part of the guess plus the level solutions."""
        x1 = self.ps.p1 @ x_guess
        parts = state.algebraic_parts(t0)
        return x1 + parts["eta_2sigma"] + state.solve_x20(t0, x1, parts)

    def level_residuals(self, t, x, evaluator: "_CascadeEvaluator | None" = None):
        """Residual norm of every algebraic level equation at the state x.

        Each level's component and the components of the levels above it
        are read from x; the offsets are functions of time only and come
        from the evaluator.
        """
        ev = evaluator or self.make_state()
        b = self.dae.pencil.b
        zero = np.zeros(self.dae.pencil.n_dim)
        offsets = [(label, zero) for label, _ in self.chain_levels]
        offsets += [(f"wedge_level_{s}", ev.level_offset(s, t))
                    for s in reversed(self.wedge_blocks)]
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
    and the kept Jacobian of every level, the field record and
    small per-time caches of the chain and wedge levels."""

    _CACHE_MAX = 24

    def __init__(self, rc: _Reduced):
        self.rc = rc
        self.warm: dict[str, np.ndarray] = {}  # last solution of each level
        # kept Jacobian of each level, for its next Newton solve
        self.jac_caches = {label: JacobianCache() for label in rc.levels}
        self._chain_cache: dict[float, dict] = {}
        self._wedge_cache: dict[tuple[int, float], np.ndarray] = {}
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

    # -- chain-top levels ----------------------------------------------------
    def chain_values(self, t: float) -> dict:
        got = self._chain_cache.get(t)
        if got is not None:
            return got
        rc = self.rc
        fld = rc.dae.field
        b = rc.dae.pencil.b
        zero = np.zeros(rc.dae.pencil.n_dim)
        values = {s: np.zeros(0) for s in range(1, rc.nu)}
        derivs = dict(values)
        above = []  # (slice, value, derivative) of the levels solved so far
        for label, group in rc.chain_levels:
            blk = rc.levels[label][0]
            upper = sum((u.lift(c) for u, c, _ in reversed(above)), zero)
            c = self._solve(label, t, upper, zero)
            # implicit derivative with chain rule through upper levels; the
            # level Jacobian at the solution, tested once, is kept for the
            # level's next Newton solve
            x = upper + blk.lift(c)
            jf = fld.jac(t, x)
            j_own = blk.y_coords(jf @ blk.phi - b @ blk.phi)
            rhs = blk.y_coords(fld.dt(t, x))
            for u, _, du in reversed(above):
                rhs = rhs + blk.y_coords(jf @ u.phi) @ du
            dc = self.jac_caches[label].factor_solve(j_own, -rhs)
            if dc is None:
                # Newton returns at once where the residual already vanishes,
                # so a singular level Jacobian can first show here
                raise SingularJacobian(point=(t,),
                                       message=f"dF/dy of {label} singular",
                                       level=label)
            above.append((blk, c, dc))
            off = 0
            for s in group:
                end = off + rc.chain_blocks[s].dim
                values[s], derivs[s] = c[off:end], dc[off:end]
                off = end

        got = {"values": values, "derivatives": derivs}
        if len(self._chain_cache) >= self._CACHE_MAX:
            self._chain_cache.pop(next(iter(self._chain_cache)))
        self._chain_cache[t] = got
        return got

    # -- wedge levels ----------------------------------------------------------
    def wedge_value(self, s: int, t: float) -> np.ndarray:
        rc = self.rc
        key = (s, t)
        got = self._wedge_cache.get(key)
        if got is not None:
            return got
        chain_part = self._chain_part(t)
        upper_wedge = sum((rc.wedge_blocks[i].lift(self.wedge_value(i, t))
                           for i in range(s + 1, rc.nu - 1)),
                          np.zeros(rc.dae.pencil.n_dim))
        c = self._solve(f"wedge_level_{s}", t, chain_part + upper_wedge,
                        self.level_offset(s, t))
        if len(self._wedge_cache) >= 4 * self._CACHE_MAX:
            self._wedge_cache.pop(next(iter(self._wedge_cache)))
        self._wedge_cache[key] = c
        return c

    def wedge_derivative(self, s: int, t: float) -> np.ndarray:
        """Central finite difference of the wedge-level branch."""
        return _time_derivative(lambda tt: self.wedge_value(s, tt), t)

    def level_offset(self, s: int, t: float) -> np.ndarray:
        """Offset of wedge level s, or of the kernel level for s = 0: A times
        the time derivative of the chain and wedge parts of level s + 1."""
        rc = self.rc
        chain = self.chain_values(t)  # first: solve order sets warm starts
        blk = rc.chain_blocks[s + 1]
        d_term = blk.lift(chain["derivatives"][s + 1]) if blk.dim \
            else np.zeros(rc.dae.pencil.n_dim)
        if s + 1 in rc.wedge_blocks:
            d_term = d_term + rc.wedge_blocks[s + 1].lift(
                self.wedge_derivative(s + 1, t))
        return rc.dae.pencil.a @ d_term

    # -- assembled pieces --------------------------------------------------------
    def _chain_part(self, t: float) -> np.ndarray:
        rc = self.rc
        values = self.chain_values(t)["values"]
        return sum((rc.chain_blocks[j].lift(values[j]) for j in range(1, rc.nu)
                    if rc.chain_blocks[j].dim), np.zeros(rc.dae.pencil.n_dim))

    def eta_2sigma(self, t: float) -> np.ndarray:
        rc = self.rc
        if rc.nu <= 1:
            return np.zeros(rc.dae.pencil.n_dim)
        out = self._chain_part(t)
        for s in range(1, rc.nu - 1):
            out = out + rc.wedge_blocks[s].lift(self.wedge_value(s, t))
        return out

    def algebraic_parts(self, t: float) -> dict:
        """The algebraic part eta_2sigma of the state and the offset d_vec of
        the kernel level, both functions of time only."""
        rc = self.rc
        if rc.nu <= 1:
            zero = np.zeros(rc.dae.pencil.n_dim)
            return {"eta_2sigma": zero, "d_vec": zero}
        d_vec = self.level_offset(0, t)
        return {"eta_2sigma": self.eta_2sigma(t), "d_vec": d_vec}

    def solve_x20(self, t: float, x1: np.ndarray, parts: dict) -> np.ndarray:
        rc = self.rc
        if rc.kernel.dim == 0:
            return np.zeros(rc.dae.pencil.n_dim)
        c = self._solve("kernel_level", t, x1 + parts["eta_2sigma"],
                        parts["d_vec"], max(1.0, norm2(x1)))
        return rc.kernel.lift(c)


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
