"""The index-m chain family's field, registered from the benchmark's files.

The family is A = diag(1, J_m) with J_m the nilpotent upper shift, B = I,
and f = g(t) with g_k(t) = sin(omega_k t).  Row 0 is the explicit part,
x_0' + x_0 = sin(omega_0 t); rows 1..m form one chain whose components have
the closed form x_k = sum_j (-1)^j g_{k+j}^{(j)}.
"""

from __future__ import annotations

import math

import numpy as np

FIELD_ID = "bench_sine_chain"


def _sine_chain(params):
    from daekit.reduction import NonlinearField, StructureTag

    omega = np.asarray(params["omegas"], dtype=float)
    zero_jac = np.zeros((omega.size, omega.size))
    return NonlinearField(
        eval=lambda t, x: np.sin(omega * t),
        jacobian=lambda t, x: zero_jac,
        t_derivative=lambda t, x: omega * np.cos(omega * t),
        structure_tag=StructureTag.STRUCTURED)


def register() -> None:
    """Add the family's field to daekit's field registry."""
    from daekit.problems import FIELD_REGISTRY

    FIELD_REGISTRY[FIELD_ID] = _sine_chain


def problem_dict(name: str, omegas, x0: float, t_max: float) -> dict:
    """Problem file for the index-m chain, m = len(omegas) - 1."""
    n = len(omegas)
    a = np.zeros((n, n))
    a[0, 0] = 1.0
    for k in range(1, n - 1):
        a[k, k + 1] = 1.0
    return {
        "name": name,
        "A": a.tolist(),
        "B": np.eye(n).tolist(),
        "field": {"registry_id": FIELD_ID,
                  "params": {"omegas": [float(w) for w in omegas]}},
        "structure_tag": "structured",
        "initial": {"x_guess": [float(x0)] + [0.0] * (n - 1)},
        "integration": {"t_max": float(t_max)},
    }


def exact_states(omegas, x0: float, times) -> np.ndarray:
    """Closed-form states at `times` for the explicit start value x0."""
    om = np.asarray(omegas, dtype=float)
    ts = np.asarray(times, dtype=float)
    m = om.size - 1
    w = om[0]
    c = x0 + w / (1.0 + w * w)
    out = np.empty((ts.size, m + 1))
    out[:, 0] = c * np.exp(-ts) + (np.sin(w * ts) - w * np.cos(w * ts)) \
        / (1.0 + w * w)
    for k in range(1, m + 1):
        # d^j/dt^j sin(w t) = w^j sin(w t + j pi / 2)
        out[:, k] = sum((-1) ** j * om[k + j] ** j
                        * np.sin(om[k + j] * ts + j * math.pi / 2)
                        for j in range(m + 1 - k))
    return out
