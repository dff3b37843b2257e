"""Sampled checking of comparison-functional certificates.

The checkers falsify, they do not prove: hypotheses quantified over
unbounded regions are probed on a seeded sample cloud drawn on the
constraint manifold (off it on the direct route at index 2 and above, see
`_DriftAdapter`), improper integrals are classified heuristically with
an explicit "inconclusive" escape, and region invariance is monitored along
computed trajectories rather than asserted statically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from ._linalg import orth_basis
from .errors import SamplingFailure
from .implicit import _fd_mismatch
from .integrate import Trajectory

__all__ = [
    "LyapunovComponent", "LyapunovSpec", "ComparisonSpec",
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


# Sampler knobs.  A deterministic grid (times crossed with coordinate
# directions at magnitudes that are multiples of R) comes before the random
# fill of log-uniform times and magnitudes; the fill gives up after
# _MAX_ATTEMPT_FACTOR draws per wanted sample.
_GRID_TIMES = (0.0, 1.0, 10.0, 100.0)
_GRID_MAGNITUDES = (1.0, 10.0, 100.0)
_N_SAMPLES = 500
_T_LOW, _T_HIGH = 1e-3, 1e3
_LOG_T = (float(np.log10(_T_LOW)), float(np.log10(_T_HIGH)))
_W_SPAN = 1e3                   # magnitudes on [R, R * _W_SPAN]
_MAX_ATTEMPT_FACTOR = 8
_GRAD_CHECK_POINTS = 3          # samples on which V's gradients are checked
_KERNEL_LADDER = (1.0, 2.0, 4.0, 8.0)   # bounds b of the Lagrange ladder
_TIE_TOLERANCE = 1e-9           # relative, for the active component of V
_GRAD_RTOL = 1e-4               # V's gradient vs central differences
_PROBE_WINDOWS = 40             # geometric windows of probe_integral
_PROBE_TAIL = 1e-2              # tail fraction below which it converges
_PROBE_RTOL = 1e-14             # 20- vs 10-node agreement of a window piece
_PROBE_DEPTH = 30               # halvings of a window piece at most
_PROBE_SPLITS = 200             # bisections in one window at most


@dataclass
class LyapunovComponent:
    eval: Callable
    gradient: Callable


@dataclass
class LyapunovSpec:
    """Piecewise extremum of nonnegative functionals of the reduced state."""

    components: list
    kind: str = "max"  # "max" for solvability/stability, "min" for escape

    def _extremum(self, w) -> tuple[float, int]:
        """V(w) and the lowest index among components tied at it."""
        vals = [float(c.eval(w)) for c in self.components]
        target = max(vals) if self.kind == "max" else min(vals)
        for k, v in enumerate(vals):
            if abs(v - target) <= _TIE_TOLERANCE * (1.0 + abs(target)):
                return target, k
        # an infinite extremum ties with nothing (inf - inf is NaN)
        return target, int(np.argmax(vals) if self.kind == "max"
                           else np.argmin(vals))

    def value(self, w) -> float:
        return self._extremum(w)[0]

    def validate(self, points) -> float:
        """Check nonnegativity and gradient-vs-finite-difference agreement."""
        for k, comp in enumerate(self.components):
            if any(float(comp.eval(w)) < -1e-12 for w in points):
                raise ValueError(f"component {k} negative at sampled point")
        worst = _fd_mismatch(
            (lambda z, c=comp: np.atleast_1d(c.eval(z)),
             np.atleast_2d(np.asarray(comp.gradient(w), dtype=float)), w)
            for w in points for comp in self.components)
        if worst > _GRAD_RTOL:
            raise ValueError(f"gradient mismatch {worst:.3e} exceeds "
                             f"{_GRAD_RTOL}")
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
class CertificateReport:
    kind: str
    samples_checked: int
    violations: list
    integral_U: str
    integral_psi: str
    verdict: str
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MonitorReport:
    direction: str
    worst_margin: float
    worst_margin_relative: float
    in_region_fraction: float | None = None
    first_exit_index: int | None = None


@functools.cache
def _gauss_rules() -> tuple:
    """The 20- and 10-node Gauss–Legendre rules on [-1, 1], as tuples of
    (node, weight) float pairs.  Built at the first probe, so that only a
    certificate check imports numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss
    return tuple(tuple(zip(*(map(float, a) for a in leggauss(n))))
                 for n in (20, 10))


def _gauss_pair(g: Callable, a: float, b: float) -> tuple[float, float]:
    """The 20- and 10-node Gauss–Legendre values of the integral of g over
    [a, b], in plain Python floats."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    out = []
    for rule in _gauss_rules():
        s = 0.0
        for x, w in rule:
            s += w * float(g(mid + half * x))
        out.append(half * s)
    return out[0], out[1]


def _window_integral(g: Callable, a: float, b: float, floor: float) -> float:
    """Adaptive Gauss–Legendre integral of g over [a, b].

    A piece takes its 20-node value when that agrees with the 10-node value
    within _PROBE_RTOL times the larger of the window's 20-node value and
    `floor`; otherwise it is bisected, down to _PROBE_DEPTH halvings and
    for at most _PROBE_SPLITS bisections in the window.  A non-finite value
    ends the window at once.
    """
    fine, coarse = _gauss_pair(g, a, b)
    tol = _PROBE_RTOL * max(abs(fine), floor)
    total = 0.0
    splits = 0
    pending = [(a, b, fine, coarse, 0)]
    while pending:
        a, b, fine, coarse, depth = pending.pop()
        if not math.isfinite(fine + coarse):
            return fine + coarse
        if (abs(fine - coarse) <= tol or depth == _PROBE_DEPTH
                or splits == _PROBE_SPLITS):
            total += fine
            continue
        splits += 1
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            pending.append((lo, hi, *_gauss_pair(g, lo, hi), depth + 1))
    return total


def probe_integral(g: Callable, lower: float, kind: str = "over_value",
                   trace: list | None = None) -> str:
    """Heuristic classification of the improper integral of g.

    Geometric windows are integrated with adaptive Gauss–Legendre
    quadrature (`_window_integral`, numpy's nodes and weights, plain Python
    floats); the decision uses the asymptotic ratio of consecutive window
    contributions together with the tail fraction of the partial sum.
    Slowly divergent and slowly convergent integrands land in the
    inconclusive bucket on purpose.  An exception inside g reads as
    inconclusive, a non-finite window as divergent.  Window contributions
    are appended to `trace` when given.
    """
    if kind == "over_value":
        base = max(lower, 1e-6)
        edges = [base * 2.0 ** k for k in range(_PROBE_WINDOWS + 1)]
    elif kind == "over_time":
        start = max(lower, 0.0)
        edges = [start] + [start + 2.0 ** k for k in range(_PROBE_WINDOWS)]
    else:
        raise ValueError("kind must be 'over_value' or 'over_time'")

    # built outside the `try`, so that a failed import of the rules is an
    # error and not an "inconclusive" verdict
    _gauss_rules()
    contributions = []
    running = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        try:
            with np.errstate(all="ignore"):
                val = _window_integral(g, a, b, running)
        except Exception:
            return INCONCLUSIVE
        if trace is not None:
            trace.append({"window": [a, b], "value": val})
        if not math.isfinite(val):
            return DIVERGES
        running += abs(val)
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
    if tail_ratio <= 0.95 and tail_fraction <= _PROBE_TAIL:
        return CONVERGES
    if tail_fraction <= 1e-9:
        return CONVERGES
    return INCONCLUSIVE


class _DriftAdapter:
    """The reduced drift of either route at chunks of independent samples:
    `reduced.drift_columns`, each sample solved on its own state.  It holds
    no per-run state and stays because `perfbench/layertrace.py` counts the
    sampler's drift calls by its `drift`.

    On the direct route at index 2 and above the samples are off L0: w
    holds free x2_sigma coordinates, which L0 fixes as functions of t.
    """

    def __init__(self, reduced):
        self.reduced = reduced
        self.basis = orth_basis(reduced.w_projector)

    def drift(self, ts: np.ndarray, w: np.ndarray):
        """Drift vectors, assembled states and solve flags at the columns
        of w, at the times ts: `drift_columns`."""
        return self.reduced.drift_columns(ts, w)


def _random_draws(rng, basis: np.ndarray, magnitude: Callable):
    """Endless seeded candidates (t, w): a log-uniform time, a unit
    direction of the reduced coordinates and magnitude() along it, drawn in
    that order, or None for a zero direction.

    The arithmetic gives the bits of `rng.uniform` and `np.linalg.norm`.
    """
    lo, hi = _LOG_T
    while True:
        t = 10.0 ** (lo + (hi - lo) * rng.random())
        direction = rng.standard_normal(basis.shape[1])
        nrm = math.sqrt(float(direction.dot(direction)))
        if nrm == 0.0:
            yield None
            continue
        yield t, basis @ (magnitude() * (direction / nrm))


@dataclass
class _Placed:
    """The samples a sampler placed, in draw order, and what it tried."""

    samples: list            # (t, w, drift, state) of each placed sample
    attempts: int = 0        # random draws
    failures: int = 0        # candidates whose constraint solve failed
    outside: int = 0         # candidates outside the region


def _place(adapter: _DriftAdapter, want: int, draws, limit: int,
           grid=(), region: Callable | None = None) -> _Placed:
    """The first `want` candidates, in draw order, that lie in `region` and
    whose drift solves: the `grid` first, then up to `limit` random draws.

    Candidates are drawn one at a time, in chunks of as many in-region
    candidates as samples are still wanted, and each chunk's drift is one
    stacked solve; another chunk is drawn only where some solves failed.
    So the draws, and the samples kept, are those of a sampler that solves
    one candidate at a time and stops at `want` samples.
    """
    placed = _Placed([])
    grid = iter(grid)
    while len(placed.samples) < want:
        ts, ws = [], []
        while len(ts) < want - len(placed.samples):
            cand = next(grid, None)
            if cand is None:
                if placed.attempts == limit:
                    break
                placed.attempts += 1
                cand = next(draws)
                if cand is None:
                    continue
            if region is not None and not region(cand[1]):
                placed.outside += 1
                continue
            ts.append(cand[0])
            ws.append(cand[1])
        if not ts:
            break
        dw, x, ok = adapter.drift(np.array(ts), np.column_stack(ws))
        placed.failures += int(ok.size - ok.sum())
        placed.samples += [(ts[i], ws[i], dw[:, i].copy(), x[:, i].copy())
                           for i in np.flatnonzero(ok)]
    return placed


def _draw_samples(adapter: _DriftAdapter, comp: ComparisonSpec, seed: int,
                  region: Callable | None):
    """(t, w, drift, state) of each sample: the grid first, then a seeded
    random fill up to _N_SAMPLES, keeping points inside `region` when one
    is given.  A reduced space of dimension 0 has no state to draw.  w is
    drawn freely, so on the direct route at index 2 and above the samples
    are off L0 (see `_DriftAdapter`)."""
    if adapter.basis.shape[1] == 0:
        raise SamplingFailure(
            "the reduced space has dimension 0: there is no state to sample")
    rng = np.random.default_rng(seed)
    lo, hi = float(np.log10(comp.R)), float(np.log10(comp.R * _W_SPAN))
    grid = ((t, adapter.basis[:, k] * (sign * mag * comp.R))
            for t in _GRID_TIMES for mag in _GRID_MAGNITUDES
            for k in range(adapter.basis.shape[1]) for sign in (1.0, -1.0))
    draws = _random_draws(rng, adapter.basis,
                          lambda: 10.0 ** (lo + (hi - lo) * rng.random()))
    placed = _place(adapter, _N_SAMPLES, draws,
                    _MAX_ATTEMPT_FACTOR * _N_SAMPLES, grid, region)
    if len(placed.samples) < _N_SAMPLES:
        rejected = ("" if region is None
                    else f"{placed.outside} outside the region, ")
        raise SamplingFailure(
            f"placed {len(placed.samples)}/{_N_SAMPLES} samples after the "
            f"grid plus {placed.attempts} random attempts ({rejected}"
            f"{placed.failures} constraint-solve failures)")
    return placed.samples


def _gradient_side(dw, w, active: LyapunovComponent) -> float:
    """<drift, grad V_active>, the left side of the gradient checks."""
    return float(np.dot(dw, np.asarray(active.gradient(w), dtype=float)))


def _probes(comp: ComparisonSpec):
    """Classes of the integrals of 1/U over values and of psi over time,
    declared ones first, and the windows of the probes that ran."""
    traces = {"U": [], "psi": []}
    u_probe = comp.declared_U_integral
    if u_probe is None:
        u_probe = probe_integral(lambda u: 1.0 / comp.U(u), lower=1.0,
                                 kind="over_value", trace=traces["U"])
    psi_probe = comp.declared_psi_integral
    if psi_probe is None:
        psi_probe = probe_integral(comp.psi, lower=0.0, kind="over_time",
                                   trace=traces["psi"])
    return u_probe, psi_probe, traces


def _verdict(violations: list, passes: bool) -> str:
    return VIOLATED if violations else PASS if passes else UNDECIDED


def _sampled_check(reduced, lyap: LyapunovSpec, comp: ComparisonSpec,
                   seed: int, kind: str, lhs: Callable,
                   direction: str, passes: Callable,
                   region: Callable | None = None,
                   extras: dict | None = None) -> CertificateReport:
    """lhs(drift, w, active component) <= U(V) psi(t) ("le"), or >= ("ge"),
    on sampled manifold points, then the probes of both integrals.  The
    verdict is VIOLATED on any violation, else PASS if `passes(integral_U,
    integral_psi)`.  A non-finite side ends the check in a SamplingFailure
    (NaN fails every comparison, so it would count as satisfied); numpy's
    overflow warnings on the way to it are muted.
    """
    adapter = _DriftAdapter(reduced)
    violations = []
    with np.errstate(over="ignore", invalid="ignore"):
        samples = _draw_samples(adapter, comp, seed, region)
        lyap.validate([w for (_, w, _, _) in samples[:_GRAD_CHECK_POINTS]])
        for t, w, dw, _ in samples:
            v, k = lyap._extremum(w)
            try:
                rhs = comp.U(v) * comp.psi(t)
            except OverflowError:  # inside U or psi: reads as inf
                rhs = math.inf
            side = lhs(dw, w, lyap.components[k])
            if not (math.isfinite(side) and math.isfinite(rhs)):
                raise SamplingFailure(f"non-finite sample at t={t:.6g}: "
                                      f"lhs {side}, rhs {rhs}")
            slack = 1e-9 * (1.0 + abs(side) + abs(rhs))
            if (side > rhs + slack if direction == "le"
                    else side < rhs - slack):
                violations.append({"t": t, "w": w.tolist(), "lhs": side,
                                   "rhs": rhs})
    u_probe, psi_probe, traces = _probes(comp)
    return CertificateReport(kind=kind, samples_checked=len(samples),
                             violations=violations, integral_U=u_probe,
                             integral_psi=psi_probe,
                             verdict=_verdict(violations,
                                              passes(u_probe, psi_probe)),
                             extras={**(extras or {}),
                                     "probe_traces": traces})


def check_global_solvability(reduced, lyap: LyapunovSpec, comp: ComparisonSpec,
                             seed: int = 42,
                             mode: str = "gradient") -> CertificateReport:
    """Sampled check of the growth-envelope condition for global existence.

    Gradient mode tests <drift, grad V_active> <= U(V) psi(t); the norm
    (Lipschitz) mode tests ||drift|| <= U(V) psi(t).  The verdict also
    requires the reciprocal envelope integral to diverge.
    """
    if lyap.kind != "max":
        raise ValueError("global-solvability certificates use a max combination")
    if mode == "gradient":
        kind, lhs = "global_solvability", _gradient_side
    elif mode == "norm_lipschitz":
        kind = "global_solvability_norm"
        lhs = lambda dw, w, active: float(np.linalg.norm(dw))
    else:
        raise ValueError("mode must be 'gradient' or 'norm_lipschitz'")
    return _sampled_check(reduced, lyap, comp, seed, kind, lhs, "le",
                          passes=lambda u, psi: u == DIVERGES)


def check_lagrange_stability(reduced, lyap: LyapunovSpec, comp: ComparisonSpec,
                             seed: int = 42) -> CertificateReport:
    """Gradient-mode global-existence check plus integrable time weight plus
    an empirical boundedness ladder for the kernel component."""
    base = check_global_solvability(reduced, lyap, comp, seed)
    verdict = _verdict(base.violations, base.integral_U == DIVERGES
                       and base.integral_psi == CONVERGES)

    # kernel-component bound K(b) over samples with |w| below b; the
    # levels draw from one generator, and each sample's levels are solved
    # on its own state, as in the check above
    adapter = _DriftAdapter(reduced)
    rng = np.random.default_rng(seed + 1)
    kb = {}
    per_b = max(16, _N_SAMPLES // (4 * len(_KERNEL_LADDER)))
    for b in _KERNEL_LADDER:
        draws = _random_draws(rng, adapter.basis,
                              lambda b=b: b * rng.random())
        placed = _place(adapter, per_b, draws, _MAX_ATTEMPT_FACTOR * per_b)
        if len(placed.samples) < per_b:
            raise SamplingFailure(
                f"kernel bound ladder at b = {b}: placed "
                f"{len(placed.samples)}/{per_b} samples after "
                f"{placed.attempts} random attempts ({placed.failures} "
                f"constraint-solve failures)")
        kb[str(b)] = max(float(np.linalg.norm(reduced.ps.p20 @ x))
                         for *_, x in placed.samples)
    return replace(
        base, kind="lagrange_stability", verdict=verdict,
        extras={**base.extras, "kernel_bound_ladder": kb})


def check_blowup_certificate(reduced, lyap: LyapunovSpec, comp: ComparisonSpec,
                             seed: int = 42) -> CertificateReport:
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
    return _sampled_check(
        reduced, lyap, comp, seed, "blowup", _gradient_side, "ge",
        passes=lambda u, psi: u == CONVERGES and psi == DIVERGES,
        region=comp.domain_set, extras={"region": comp.domain_label})


def monitor_comparison(trajectory: Trajectory, lyap: LyapunovSpec,
                       comp: ComparisonSpec, direction: str = "ge"
                       ) -> MonitorReport:
    """Compare the functional's increments with the envelope integral over
    every subinterval of the stored grid (trapezoid on the grid itself).

    direction "ge": V(t2) - V(t1) >= integral is expected; "le" the reverse.
    Also reports how long the reduced state stayed inside the declared
    region, when one is present.  A one-point trajectory has no
    subinterval: both margins are then 0.0, and the region fields are
    those of its one point.
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
        gaps = d[1:] - np.maximum.accumulate(d)[:-1]
        worst_gap = np.min
    elif direction == "le":
        gaps = d[1:] - np.minimum.accumulate(d)[:-1]
        worst_gap = np.max
    else:
        raise ValueError("direction must be 'ge' or 'le'")
    worst = float(worst_gap(gaps)) if gaps.size else 0.0
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
                         in_region_fraction=in_frac,
                         first_exit_index=first_exit)
