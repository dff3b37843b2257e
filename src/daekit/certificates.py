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
from dataclasses import dataclass, field as dc_field, fields, replace
from typing import Callable

import numpy as np

from ._linalg import column_dots, norm2, orth_basis
from .errors import SamplingFailure
from .implicit import _fd_steps
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


def _at_columns(value, shape: tuple) -> np.ndarray:
    """A callable's value at one point (shape ()) or at a stack (shape
    (S,)), as a float array of that shape; a constant holds everywhere."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


@dataclass
class LyapunovComponent:
    """One functional of the reduced state.  eval and gradient take one
    state w (n,), giving a value and an (n,) gradient, or the columns of w
    (n, S), giving (S,) values and (n, S) gradients.  U and psi of a
    ComparisonSpec act elementwise on an array; a constant may return one
    number."""

    eval: Callable
    gradient: Callable


@dataclass
class LyapunovSpec:
    """Piecewise extremum of nonnegative functionals of the reduced state."""

    components: list
    kind: str = "max"  # "max" for solvability/stability, "min" for escape

    def _extremum(self, w) -> tuple:
        """V and the lowest index among the components tied at it, at one
        state w (n,) or at each column of w (n, S)."""
        vals = np.array([_at_columns(c.eval(w), np.shape(w)[1:])
                         for c in self.components])
        target = vals.max(axis=0) if self.kind == "max" else vals.min(axis=0)
        # only an equal value ties with an infinite extremum; where nothing
        # ties (a NaN extremum), the first extremal index
        tol = np.where(np.isfinite(target),
                       _TIE_TOLERANCE * (1.0 + np.abs(target)), 0.0)
        with np.errstate(invalid="ignore"):
            tied = (vals == target) | (np.abs(vals - target) <= tol)
        first = vals.argmax(axis=0) if self.kind == "max" \
            else vals.argmin(axis=0)
        return target, np.where(tied.any(axis=0), tied.argmax(axis=0), first)

    def value(self, w):
        return self._extremum(w)[0]

    def _active_gradients(self, w, k) -> np.ndarray:
        """The gradient of component k[i] at each column w[:, i], (n, S):
        one call per active component, on its columns."""
        out = np.empty_like(w)
        for c in np.unique(k).tolist():
            cols = k == c
            out[:, cols] = self.components[c].gradient(w[:, cols])
        return out

    def validate(self, points) -> float:
        """Check nonnegativity and gradient-vs-finite-difference agreement
        at the states `points`, taken as the P columns of w (n, P).

        Each component is evaluated once on w, once on the 2 n P central
        differences of `fd_jacobian`'s steps (w + h_k e_k for every k and
        column, then w - h_k e_k) and its gradient once on w.  At each
        column the mismatch is max_k |gradient - fd| / max(1, max_k |fd|);
        a column where it is NaN is passed over, as in the one-point check.
        """
        w = np.array(points, dtype=float).T
        n, p = w.shape
        h = _fd_steps(w)
        diag = np.arange(n)
        shifted = np.repeat(w[:, None, :], 2 * n, axis=1)   # (n, 2n, P)
        shifted[diag, diag] += h
        shifted[diag, n + diag] -= h
        shifted = shifted.reshape(n, 2 * n * p)
        for k, comp in enumerate(self.components):
            if (_at_columns(comp.eval(w), (p,)) < -1e-12).any():
                raise ValueError(f"component {k} negative at sampled point")
        worst = 0.0
        for comp in self.components:
            f = _at_columns(comp.eval(shifted), (2 * n * p,)).reshape(2, n, p)
            with np.errstate(over="ignore", invalid="ignore"):
                fd = (f[0] - f[1]) / (2.0 * h)
                err = np.abs(np.asarray(comp.gradient(w), dtype=float) - fd)
                scale = np.fmax(1.0, np.abs(fd).max(axis=0))
                worst = max(worst, float(np.fmax.reduce(
                    err.max(axis=0) / scale, initial=0.0)))
        if worst > _GRAD_RTOL:
            raise ValueError(f"gradient mismatch {worst:.3e} exceeds "
                             f"{_GRAD_RTOL}")
        return worst


@dataclass
class ComparisonSpec:
    """Comparison data: scalar envelope U, time weight psi, exclusion radius
    R, and (for escape certificates) the declared region.  The region takes
    one state w (n,), giving a bool, or the columns of w (n, S), giving (S,)
    bools."""

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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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


def _first_pairs(g: Callable, edges: list) -> list | None:
    """`_gauss_pair` of g on each window [edges[i], edges[i + 1]], from one
    call of g on the 30 nodes of every window, or None where that pass
    raises, a floating-point exception included.

    Each row's weighted values are added in the Python loop's order by
    `np.cumsum`, so the pairs have its bits.  A pass that raises says
    nothing about which window raised first; the one-value loop does.
    """
    # built outside the `try`, so that a failed import of the rules is an
    # error and not an "inconclusive" verdict
    rules = _gauss_rules()
    nodes, weights = (np.array(c) for c in zip(*rules[0], *rules[1]))
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            x = mid[:, None] + half[:, None] * nodes
            terms = weights * _at_columns(g(x), x.shape)
            # + 0.0: the loop starts from 0.0, so an all -0.0 row sums to 0.0
            fine, coarse = (half * (np.cumsum(terms[:, part], axis=1)[:, -1]
                                    + 0.0)
                            for part in (slice(0, 20), slice(20, None)))
            return list(zip(fine.tolist(), coarse.tolist()))
    except Exception:
        return None


def _window_integral(g: Callable, a: float, b: float, floor: float,
                     first: tuple) -> float:
    """Adaptive Gauss–Legendre integral of g over [a, b], from its 20- and
    10-node values `first`.

    A piece takes its 20-node value when that agrees with the 10-node value
    within _PROBE_RTOL times the larger of the window's 20-node value and
    `floor`; otherwise it is bisected, down to _PROBE_DEPTH halvings and
    for at most _PROBE_SPLITS bisections in the window, each half by
    `_gauss_pair`.  A non-finite value ends the window at once.
    """
    fine, coarse = first
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


def _probe_edges(lower: float, kind: str) -> list:
    """The edges of the _PROBE_WINDOWS geometric windows of a probe."""
    if kind == "over_value":
        base = max(lower, 1e-6)
        return [base * 2.0 ** k for k in range(_PROBE_WINDOWS + 1)]
    if kind == "over_time":
        start = max(lower, 0.0)
        return [start] + [start + 2.0 ** k for k in range(_PROBE_WINDOWS)]
    raise ValueError("kind must be 'over_value' or 'over_time'")


def probe_integral(g: Callable, lower: float, kind: str = "over_value",
                   trace: list | None = None) -> str:
    """Heuristic classification of the improper integral of g.

    Geometric windows are integrated with adaptive Gauss–Legendre
    quadrature (`_window_integral`, numpy's nodes and weights).  The first
    20- and 10-node values of all windows come from one call of g on an
    array (`_first_pairs`); where that call raises, they are taken one
    value of g at a time in plain Python floats, as the bisection's are.
    The decision uses the asymptotic ratio of consecutive window
    contributions together with the tail fraction of the partial sum.
    Slowly divergent and slowly convergent integrands land in the
    inconclusive bucket on purpose.  An exception inside g reads as
    inconclusive, a non-finite window as divergent.  Window contributions
    are appended to `trace` when given.
    """
    edges = _probe_edges(lower, kind)
    pairs = _first_pairs(g, edges)
    contributions = []
    running = 0.0
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        try:
            with np.errstate(all="ignore"):
                first = _gauss_pair(g, a, b) if pairs is None else pairs[i]
                val = _window_integral(g, a, b, running, first)
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


def _random_draws(rng, basis: np.ndarray, magnitude: Callable, size: int):
    """Endless seeded blocks of `size` candidates, each (ts (S,), ws (n, S),
    nonzero (S,)): the block's log-uniform times, then its standard-normal
    directions of the reduced coordinates (row i is candidate i's), then
    magnitude(size) along the unit directions, and one product with
    `basis`.  `nonzero` is False where a direction is zero.  So the
    candidates depend on the seed, `size` and the reduced dimension only,
    not on which of them a sampler keeps.
    """
    lo, hi = _LOG_T
    while True:
        ts = 10.0 ** (lo + (hi - lo) * rng.random(size))
        directions = rng.standard_normal((size, basis.shape[1]))
        nrm = np.linalg.norm(directions, axis=1)
        units = directions / np.where(nrm == 0.0, 1.0, nrm)[:, None]
        yield ts, basis @ (units * magnitude(size)[:, None]).T, nrm != 0.0


@dataclass
class _Placed:
    """The samples a sampler placed, in draw order, as the columns of
    C-ordered arrays, and what it tried."""

    ts: np.ndarray           # (S,) times
    w: np.ndarray            # (n, S) reduced states
    dw: np.ndarray           # (n, S) drifts
    x: np.ndarray            # (n, S) assembled states
    attempts: int = 0        # random candidates taken
    failures: int = 0        # candidates whose constraint solve failed
    outside: int = 0         # candidates outside the region


def _columns(parts: list) -> np.ndarray:
    """The (n, S_i) parts side by side, C-ordered (a selection of the
    columns of a C-ordered array is F-ordered)."""
    return np.ascontiguousarray(np.concatenate(parts, axis=1))


def _place(adapter: _DriftAdapter, want: int, draws, limit: int,
           grid: tuple | None = None,
           region: Callable | None = None) -> _Placed:
    """The first `want` candidates, in draw order, that lie in `region` and
    whose drift solves: the `grid` block first, then up to `limit` random
    candidates from the blocks of `draws`, each drawn only when the one
    before it is used up.

    The region is called once per block, on all its candidates.  These are
    taken in order, in chunks of as many in-region candidates as samples
    are still wanted, and each chunk's drift is one stacked solve; another
    chunk is taken only where some solves failed.  So the samples kept are
    those of a sampler that solves one candidate at a time and stops at
    `want` samples.
    """
    kept = [(np.empty(0),) + (np.empty((adapter.basis.shape[0], 0)),) * 3]
    attempts = failures = outside = placed = 0
    size = pos = 0
    counted = False
    while placed < want:
        parts, need = [], want - placed
        while need:
            if pos == size:
                if grid is not None:
                    (ts, ws, nonzero), grid, counted = grid, None, False
                elif attempts == limit:
                    break
                else:
                    (ts, ws, nonzero), counted = next(draws), True
                keep = nonzero if region is None else nonzero & region(ws)
                size, pos = ts.size, 0
                continue
            end = min(size, pos + limit - attempts) if counted else size
            if end == pos:
                break
            # the chunk ends at the need-th kept candidate, if it is here
            csum = np.cumsum(keep[pos:end])
            stop = (end if csum[-1] < need
                    else pos + int(np.searchsorted(csum, need)) + 1)
            take = pos + np.flatnonzero(keep[pos:stop])
            if counted:
                attempts += stop - pos
            outside += int(np.count_nonzero(nonzero[pos:stop])) - take.size
            parts.append((ts[take], ws[:, take]))
            need -= take.size
            pos = stop
        if need == want - placed:      # no candidate left
            break
        cts = np.concatenate([t for t, _ in parts])
        cws = _columns([w for _, w in parts])
        dw, x, ok = adapter.drift(cts, cws)
        failures += int(ok.size - ok.sum())
        placed += int(ok.sum())
        kept.append((cts[ok], cws[:, ok], dw[:, ok], x[:, ok]))
    return _Placed(np.concatenate([k[0] for k in kept]),
                   *(_columns([k[j] for k in kept]) for j in (1, 2, 3)),
                   attempts=attempts, failures=failures, outside=outside)


def _draw_samples(adapter: _DriftAdapter, comp: ComparisonSpec, seed: int,
                  region: Callable | None) -> _Placed:
    """The samples: the grid first, then a seeded random fill from blocks
    of _N_SAMPLES candidates, up to _N_SAMPLES samples inside `region` when
    one is given.  A reduced space of dimension 0 has no state to draw.  w
    is drawn freely, so on the direct route at index 2 and above the
    samples are off L0 (see `_DriftAdapter`)."""
    if adapter.basis.shape[1] == 0:
        raise SamplingFailure(
            "the reduced space has dimension 0: there is no state to sample")
    rng = np.random.default_rng(seed)
    lo, hi = float(np.log10(comp.R)), float(np.log10(comp.R * _W_SPAN))
    ts, ks, scales = (np.array(c) for c in zip(*(
        (t, k, sign * mag * comp.R)
        for t in _GRID_TIMES for mag in _GRID_MAGNITUDES
        for k in range(adapter.basis.shape[1]) for sign in (1.0, -1.0))))
    grid = (ts, adapter.basis[:, ks] * scales, np.ones(ts.size, dtype=bool))
    draws = _random_draws(
        rng, adapter.basis,
        lambda size: 10.0 ** (lo + (hi - lo) * rng.random(size)), _N_SAMPLES)
    placed = _place(adapter, _N_SAMPLES, draws,
                    _MAX_ATTEMPT_FACTOR * _N_SAMPLES, grid, region)
    if placed.ts.size < _N_SAMPLES:
        rejected = ("" if region is None
                    else f"{placed.outside} outside the region, ")
        raise SamplingFailure(
            f"placed {placed.ts.size}/{_N_SAMPLES} samples after the "
            f"grid plus {placed.attempts} random attempts ({rejected}"
            f"{placed.failures} constraint-solve failures)")
    return placed


def _gradient_side(dw, w, lyap: LyapunovSpec, k) -> np.ndarray:
    """<drift, grad V_active> at each column, the left side of the gradient
    checks."""
    return column_dots(dw, lyap._active_gradients(w, k))


def _norm_side(dw, w, lyap: LyapunovSpec, k) -> np.ndarray:
    """||drift|| at each column, the left side of the norm check."""
    return np.sqrt(column_dots(dw, dw))


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
    """lhs(drift, w, lyap, active index) <= U(V) psi(t) ("le"), or >=
    ("ge"), on sampled manifold points, then the probes of both integrals.
    V, the active gradients, U and psi are each called once, on the columns
    of all samples.  The verdict is VIOLATED on any violation, else PASS if
    `passes(integral_U, integral_psi)`.  A non-finite side ends the check in
    a SamplingFailure at the first such sample (NaN fails every comparison,
    so it would count as satisfied); numpy's overflow warnings on the way
    to it are muted.
    """
    adapter = _DriftAdapter(reduced)
    with np.errstate(over="ignore", invalid="ignore"):
        placed = _draw_samples(adapter, comp, seed, region)
        ts, w = placed.ts, placed.w
        lyap.validate(w.T[:_GRAD_CHECK_POINTS])
        v, k = lyap._extremum(w)
        rhs = _at_columns(comp.U(v) * comp.psi(ts), ts.shape)
        side = lhs(placed.dw, w, lyap, k)
        bad = np.flatnonzero(~(np.isfinite(side) & np.isfinite(rhs)))
        if bad.size:
            i = bad[0]
            raise SamplingFailure(f"non-finite sample at t={ts[i]:.6g}: "
                                  f"lhs {float(side[i])}, "
                                  f"rhs {float(rhs[i])}")
        slack = 1e-9 * (1.0 + np.abs(side) + np.abs(rhs))
        hit = side > rhs + slack if direction == "le" else side < rhs - slack
        violations = [{"t": float(ts[i]), "w": w[:, i].tolist(),
                       "lhs": float(side[i]), "rhs": float(rhs[i])}
                      for i in np.flatnonzero(hit).tolist()]
    u_probe, psi_probe, traces = _probes(comp)
    return CertificateReport(kind=kind, samples_checked=ts.size,
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
        kind, lhs = "global_solvability_norm", _norm_side
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
    # levels draw blocks of per_b candidates from one generator, and each
    # sample's levels are solved on its own state, as in the check above
    adapter = _DriftAdapter(reduced)
    rng = np.random.default_rng(seed + 1)
    kb = {}
    per_b = max(16, _N_SAMPLES // (4 * len(_KERNEL_LADDER)))
    for b in _KERNEL_LADDER:
        draws = _random_draws(rng, adapter.basis,
                              lambda size, b=b: b * rng.random(size), per_b)
        placed = _place(adapter, per_b, draws, _MAX_ATTEMPT_FACTOR * per_b)
        if placed.ts.size < per_b:
            raise SamplingFailure(
                f"kernel bound ladder at b = {b}: placed "
                f"{placed.ts.size}/{per_b} samples after "
                f"{placed.attempts} random attempts ({placed.failures} "
                f"constraint-solve failures)")
        # one product per state, each contiguous, as the samples' were
        kb[str(b)] = max(norm2(reduced.ps.p20 @ x)
                         for x in placed.x.T.copy())
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
    vs = lyap.value(ws.T)
    gs = _at_columns(comp.U(vs) * comp.psi(ts), ts.shape)
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
        inside = comp.domain_set(ws.T)
        in_frac = float(np.mean(inside))
        if not inside.all():
            first_exit = int(np.argmin(inside))
    return MonitorReport(direction=direction, worst_margin=worst,
                         worst_margin_relative=worst / scale,
                         in_region_fraction=in_frac,
                         first_exit_index=first_exit)
