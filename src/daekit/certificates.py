"""Sampled checking of comparison-functional certificates.

The checkers falsify, they do not prove: hypotheses quantified over
unbounded regions are probed on a seeded sample cloud drawn on the
constraint manifold, improper integrals are classified heuristically with
an explicit "inconclusive" escape, and region invariance is monitored along
computed trajectories rather than asserted statically.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from ._linalg import orth_basis
from .errors import (ConstraintSolveFailure, NoConvergence, SamplingFailure)
from .implicit import fd_jacobian
from .integrate import Trajectory

__all__ = [
    "LyapunovComponent", "LyapunovSpec", "ComparisonSpec", "SamplerConfig",
    "CertificateReport", "MonitorReport", "probe_integral",
    "check_global_solvability", "check_lagrange_stability",
    "check_blowup_certificate", "monitor_comparison",
    "DIVERGES", "CONVERGES", "INCONCLUSIVE",
    "PASS", "VIOLATED", "UNDECIDED",
]

DIVERGES = "diverges"
CONVERGES = "converges"
INCONCLUSIVE = "inconclusive"

PASS = "hypotheses_sampled_pass"
VIOLATED = "hypotheses_violated"
UNDECIDED = "inconclusive"


@dataclass
class LyapunovComponent:
    eval: Callable
    gradient: Callable


@dataclass
class LyapunovSpec:
    """Piecewise extremum of nonnegative functionals of the reduced state."""

    components: list
    kind: str = "max"  # "max" for solvability/stability, "min" for escape
    tie_tolerance: float = 1e-9

    def value(self, w) -> float:
        vals = [float(c.eval(w)) for c in self.components]
        return max(vals) if self.kind == "max" else min(vals)

    def active_index(self, w) -> int:
        """Lowest index among components tied at the extremum."""
        vals = [float(c.eval(w)) for c in self.components]
        target = max(vals) if self.kind == "max" else min(vals)
        for k, v in enumerate(vals):
            if abs(v - target) <= self.tie_tolerance * (1.0 + abs(target)):
                return k
        return int(np.argmax(vals) if self.kind == "max" else np.argmin(vals))

    def active_gradient(self, w) -> np.ndarray:
        return np.asarray(self.components[self.active_index(w)].gradient(w),
                          dtype=float)

    def validate(self, points, rtol: float = 1e-4) -> float:
        """Check nonnegativity and gradient-vs-finite-difference agreement."""
        worst = 0.0
        for w in points:
            for k, comp in enumerate(self.components):
                v = float(comp.eval(w))
                if v < -1e-12:
                    raise ValueError(f"component {k} negative at sampled point")
                g = np.atleast_1d(np.asarray(comp.gradient(w), dtype=float))
                gfd = fd_jacobian(lambda z: np.atleast_1d(comp.eval(z)),
                                  np.asarray(w, float)).ravel()
                scale = max(1.0, float(np.abs(gfd).max()))
                worst = max(worst, float(np.abs(g - gfd).max()) / scale)
        if worst > rtol:
            raise ValueError(f"gradient mismatch {worst:.3e} exceeds {rtol}")
        return worst


@dataclass
class ComparisonSpec:
    """Comparison data: scalar envelope U, time weight psi, exclusion radius
    R, and (for escape certificates) the declared region."""

    U: Callable
    psi: Callable
    R: float = 1.0
    domain_set: Callable | None = None
    domain_label: str = ""
    declared_U_integral: str | None = None    # "diverges" | "converges"
    declared_psi_integral: str | None = None


@dataclass
class SamplerConfig:
    n_samples: int = 500
    seed: int = 42
    t_low: float = 1e-3
    t_high: float = 1e3
    w_span: float = 1e3          # magnitudes log-uniform on [R, R * w_span]
    max_attempt_factor: int = 8
    grad_check_points: int = 3
    # deterministic grid drawn before the random fill: times crossed with
    # coordinate directions at a ladder of magnitudes
    grid_times: tuple = (0.0, 1.0, 10.0, 100.0)
    grid_magnitudes: tuple = (1.0, 10.0, 100.0)  # multiples of R


@dataclass
class CertificateReport:
    kind: str
    samples_checked: int
    violations: list
    integral_U: str
    integral_psi: str
    verdict: str
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "samples_checked": self.samples_checked,
            "violations": self.violations,
            "integral_U": self.integral_U,
            "integral_psi": self.integral_psi,
            "verdict": self.verdict,
            "extras": self.extras,
        }


@dataclass
class MonitorReport:
    direction: str
    worst_margin: float
    worst_margin_relative: float
    worst_pair: tuple
    in_region_fraction: float | None = None
    first_exit_index: int | None = None

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "worst_margin": self.worst_margin,
            "worst_margin_relative": self.worst_margin_relative,
            "worst_pair": list(self.worst_pair),
            "in_region_fraction": self.in_region_fraction,
            "first_exit_index": self.first_exit_index,
        }


def probe_integral(g: Callable, lower: float, kind: str = "over_value",
                   windows: int = 40, eps_int: float = 1e-2,
                   trace: list | None = None) -> str:
    """Heuristic classification of the improper integral of g.

    Geometric windows are integrated with adaptive quadrature; the decision
    uses the asymptotic ratio of consecutive window contributions together
    with the tail fraction of the partial sum.  Slowly divergent and slowly
    convergent integrands land in the inconclusive bucket on purpose.
    Window contributions are appended to `trace` when given.
    """
    if kind == "over_value":
        base = max(lower, 1e-6)
        edges = [base * 2.0 ** k for k in range(windows + 1)]
    elif kind == "over_time":
        start = max(lower, 0.0)
        edges = [start] + [start + 2.0 ** k for k in range(windows)]
    else:
        raise ValueError("kind must be 'over_value' or 'over_time'")

    # imported here, not at module level, so that only a certificate check
    # loads scipy.integrate; outside the `try`, so that a failed import is an
    # error and not an "inconclusive" verdict
    from scipy.integrate import quad

    contributions = []
    for a, b in zip(edges[:-1], edges[1:]):
        try:
            with np.errstate(all="ignore"):
                val, _ = quad(g, a, b, limit=200)
        except Exception:
            return INCONCLUSIVE
        if trace is not None:
            trace.append({"window": [a, b], "value": float(val)})
        if not np.isfinite(val):
            return DIVERGES
        contributions.append(max(val, 0.0))
    total = float(np.sum(contributions))
    if not np.isfinite(total):
        return DIVERGES
    if total <= 0.0:
        return CONVERGES
    ratios = [contributions[k + 1] / contributions[k]
              for k in range(len(contributions) - 1)
              if contributions[k] > 1e-300]
    if not ratios:
        return CONVERGES
    tail_ratio = float(np.median(ratios[-8:]))
    tail_fraction = float(np.sum(contributions[-3:]) / total)
    if tail_ratio >= 0.995:
        return DIVERGES
    if tail_ratio <= 0.95 and tail_fraction <= max(eps_int, 1e-12):
        return CONVERGES
    if tail_fraction <= 1e-9:
        return CONVERGES
    return INCONCLUSIVE


class _DriftAdapter:
    """The reduced drift of either route on one warm-start state."""

    def __init__(self, reduced):
        self.reduced = reduced
        self.basis = orth_basis(reduced.w_projector)
        self._state = reduced.make_state()

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def drift(self, t: float, w: np.ndarray):
        """Drift vector and the assembled on-manifold state at (t, w)."""
        return self.reduced.drift(t, w, self._state)

    def x20_part(self, x: np.ndarray) -> np.ndarray:
        return self.reduced.ps.p20 @ x


def _grid_points(adapter: _DriftAdapter, comp: ComparisonSpec,
                 cfg: SamplerConfig):
    for t in cfg.grid_times:
        for mag in cfg.grid_magnitudes:
            for k in range(adapter.dim):
                for sign in (1.0, -1.0):
                    yield t, adapter.basis[:, k] * (sign * mag * comp.R)


def _draw_samples(adapter: _DriftAdapter, comp: ComparisonSpec,
                  cfg: SamplerConfig, region_required: bool):
    """Deterministic grid first, then seeded random fill up to n_samples."""
    rng = np.random.default_rng(cfg.seed)
    want = cfg.n_samples
    out = []
    failures = 0

    def try_add(t, w):
        nonlocal failures
        if region_required and comp.domain_set is not None \
                and not comp.domain_set(w):
            return
        try:
            dw, x = adapter.drift(t, w)
        except (NoConvergence, ConstraintSolveFailure):
            failures += 1
            return
        out.append((t, w, dw, x))

    for t, w in _grid_points(adapter, comp, cfg):
        if len(out) >= want:
            break
        try_add(t, w)

    attempts = 0
    max_attempts = cfg.max_attempt_factor * want
    while len(out) < want and attempts < max_attempts:
        attempts += 1
        t = 10.0 ** rng.uniform(np.log10(cfg.t_low), np.log10(cfg.t_high))
        direction = rng.standard_normal(adapter.dim)
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            continue
        direction /= nrm
        mag = 10.0 ** rng.uniform(np.log10(comp.R),
                                  np.log10(comp.R * cfg.w_span))
        try_add(t, adapter.basis @ (mag * direction))
    if len(out) < want:
        raise SamplingFailure(
            f"placed {len(out)}/{want} samples after the grid plus "
            f"{attempts} random attempts ({failures} constraint-solve "
            f"failures)")
    return out


def _slack(lhs: float, rhs: float) -> float:
    return 1e-9 * (1.0 + abs(lhs) + abs(rhs))


def _probe_U(comp: ComparisonSpec, trace: list | None = None) -> str:
    if comp.declared_U_integral is not None:
        return comp.declared_U_integral
    return probe_integral(lambda u: 1.0 / comp.U(u), lower=1.0,
                          kind="over_value", trace=trace)


def _probe_psi(comp: ComparisonSpec, trace: list | None = None) -> str:
    if comp.declared_psi_integral is not None:
        return comp.declared_psi_integral
    return probe_integral(comp.psi, lower=0.0, kind="over_time", trace=trace)


def check_global_solvability(reduced, lyap: LyapunovSpec, comp: ComparisonSpec,
                             sampler: SamplerConfig | None = None,
                             mode: str = "gradient") -> CertificateReport:
    """Sampled check of the growth-envelope condition for global existence.

    Gradient mode tests <drift, grad V_active> <= U(V) psi(t); the norm
    (Lipschitz) mode tests ||drift|| <= U(V) psi(t).  The verdict also
    requires the reciprocal envelope integral to diverge.
    """
    if lyap.kind != "max":
        raise ValueError("global-solvability certificates use a max combination")
    cfg = sampler or SamplerConfig()
    adapter = _DriftAdapter(reduced)
    samples = _draw_samples(adapter, comp, cfg, region_required=False)
    lyap.validate([w for (_, w, _, _) in samples[:cfg.grad_check_points]])
    violations = []
    for t, w, dw, _x in samples:
        v = lyap.value(w)
        rhs = comp.U(v) * comp.psi(t)
        if mode == "gradient":
            lhs = float(np.dot(dw, lyap.active_gradient(w)))
        elif mode == "norm_lipschitz":
            lhs = float(np.linalg.norm(dw))
        else:
            raise ValueError("mode must be 'gradient' or 'norm_lipschitz'")
        if lhs > rhs + _slack(lhs, rhs):
            violations.append({"t": t, "w": w.tolist(), "lhs": lhs, "rhs": rhs})
    traces = {"U": [], "psi": []}
    u_probe = _probe_U(comp, traces["U"])
    psi_probe = _probe_psi(comp, traces["psi"])
    if violations:
        verdict = VIOLATED
    elif u_probe == DIVERGES:
        verdict = PASS
    else:
        verdict = UNDECIDED
    kind = ("global_solvability" if mode == "gradient"
            else "global_solvability_norm")
    return CertificateReport(kind=kind, samples_checked=len(samples),
                             violations=violations, integral_U=u_probe,
                             integral_psi=psi_probe, verdict=verdict,
                             extras={"probe_traces": traces})


def check_lagrange_stability(reduced, lyap: LyapunovSpec, comp: ComparisonSpec,
                             sampler: SamplerConfig | None = None,
                             mode: str = "gradient",
                             ladder=(1.0, 2.0, 4.0, 8.0)) -> CertificateReport:
    """Global-existence check plus integrable time weight plus an empirical
    boundedness ladder for the kernel component."""
    cfg = sampler or SamplerConfig()
    base = check_global_solvability(reduced, lyap, comp, cfg, mode)
    psi_probe = base.integral_psi
    if base.verdict == VIOLATED:
        verdict = VIOLATED
    elif base.integral_U == DIVERGES and psi_probe == CONVERGES:
        verdict = PASS
    else:
        verdict = UNDECIDED

    # kernel-component bound K(b) over manifold samples with bounded
    # explicit part
    adapter = _DriftAdapter(reduced)
    rng = np.random.default_rng(cfg.seed + 1)
    kb = {}
    per_b = max(16, cfg.n_samples // (4 * max(len(ladder), 1)))
    for b in ladder:
        worst = 0.0
        placed = 0
        attempts = 0
        while placed < per_b and attempts < cfg.max_attempt_factor * per_b:
            attempts += 1
            t = 10.0 ** rng.uniform(np.log10(cfg.t_low), np.log10(cfg.t_high))
            direction = rng.standard_normal(adapter.dim)
            nrm = float(np.linalg.norm(direction))
            if nrm == 0.0:
                continue
            w = adapter.basis @ (direction / nrm * rng.uniform(0.0, b))
            try:
                _, x = adapter.drift(t, w)
            except (NoConvergence, ConstraintSolveFailure):
                continue
            placed += 1
            worst = max(worst, float(np.linalg.norm(adapter.x20_part(x))))
        kb[str(b)] = worst
    extras = dict(base.extras)
    extras["kernel_bound_ladder"] = kb
    return CertificateReport(kind="lagrange_stability",
                             samples_checked=base.samples_checked,
                             violations=base.violations,
                             integral_U=base.integral_U,
                             integral_psi=psi_probe, verdict=verdict,
                             extras=extras)


def check_blowup_certificate(reduced, lyap: LyapunovSpec, comp: ComparisonSpec,
                             sampler: SamplerConfig | None = None
                             ) -> CertificateReport:
    """Sampled check of the escape certificate on the declared region.

    Tests <drift, grad V_active> >= U(V) psi(t) on manifold samples inside
    the region; the verdict also needs a convergent reciprocal envelope
    integral and a divergent time weight.  Region invariance is not checked
    here; monitor it along trajectories.
    """
    if lyap.kind != "min":
        raise ValueError("escape certificates use a min combination")
    if comp.domain_set is None:
        raise ValueError("escape certificates need a declared region")
    cfg = sampler or SamplerConfig()
    adapter = _DriftAdapter(reduced)
    samples = _draw_samples(adapter, comp, cfg, region_required=True)
    lyap.validate([w for (_, w, _, _) in samples[:cfg.grad_check_points]])
    violations = []
    for t, w, dw, _x in samples:
        v = lyap.value(w)
        rhs = comp.U(v) * comp.psi(t)
        lhs = float(np.dot(dw, lyap.active_gradient(w)))
        if lhs < rhs - _slack(lhs, rhs):
            violations.append({"t": t, "w": w.tolist(), "lhs": lhs, "rhs": rhs})
    traces = {"U": [], "psi": []}
    u_probe = _probe_U(comp, traces["U"])
    psi_probe = _probe_psi(comp, traces["psi"])
    if violations:
        verdict = VIOLATED
    elif u_probe == CONVERGES and psi_probe == DIVERGES:
        verdict = PASS
    else:
        verdict = UNDECIDED
    return CertificateReport(kind="blowup", samples_checked=len(samples),
                             violations=violations, integral_U=u_probe,
                             integral_psi=psi_probe, verdict=verdict,
                             extras={"region": comp.domain_label,
                                     "probe_traces": traces})


def monitor_comparison(trajectory: Trajectory, lyap: LyapunovSpec,
                       comp: ComparisonSpec, direction: str = "ge"
                       ) -> MonitorReport:
    """Compare the functional's increments with the envelope integral over
    every subinterval of the stored grid (trapezoid on the grid itself).

    direction "ge": V(t2) - V(t1) >= integral is expected; "le" the reverse.
    Also reports how long the reduced state stayed inside the declared
    region, when one is present.
    """
    ts = trajectory.times
    ws = trajectory.w_states
    vs = np.array([lyap.value(ws[k]) for k in range(ts.size)])
    gs = np.array([comp.U(vs[k]) * comp.psi(ts[k]) for k in range(ts.size)])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (gs[1:] + gs[:-1])
                                           * np.diff(ts))])
    d = vs - cum
    if direction == "ge":
        # want D nondecreasing: compare each point with the largest earlier D
        run_extreme = np.maximum.accumulate(d)
        margins = d[1:] - run_extreme[:-1]
        worst_idx = int(np.argmin(margins)) + 1
        worst = float(margins[worst_idx - 1])
    elif direction == "le":
        run_extreme = np.minimum.accumulate(d)
        margins = d[1:] - run_extreme[:-1]
        worst_idx = int(np.argmax(margins)) + 1
        worst = float(margins[worst_idx - 1])
    else:
        raise ValueError("direction must be 'ge' or 'le'")
    scale = 1.0 + float(np.max(np.abs(vs))) + float(np.max(np.abs(cum)))
    in_frac = None
    first_exit = None
    if comp.domain_set is not None:
        inside = [bool(comp.domain_set(ws[k])) for k in range(ts.size)]
        in_frac = float(np.mean(inside))
        if not all(inside):
            first_exit = int(inside.index(False))
    return MonitorReport(direction=direction, worst_margin=worst,
                         worst_margin_relative=worst / scale,
                         worst_pair=(worst_idx - 1, worst_idx),
                         in_region_fraction=in_frac,
                         first_exit_index=first_exit)
