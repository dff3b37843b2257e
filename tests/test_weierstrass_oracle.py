"""Closed-form trajectories of seeded Weierstrass pairs, on both routes.

`random_weierstrass` builds A = S Abar T and B = S Bbar T from a known
Weierstrass form (Abar, Bbar).  With the field f(t, x) = S g(t) and
g_k(t) = sin(w_k t), y = T x solves the canonical system: the explicit
block solves y0' + B0 y0 = g0 with B0 symmetric, and each chain block,
N y' + y = g on its rows, has y = sum_j (-N)^j g^(j), with no integration.
"""

import numpy as np
import pytest

from daekit import (IntegrationOptions, NonlinearField, StructureTag,
                    integrate_cascade, integrate_first, make_dae,
                    reduce_cascade, reduce_first)
from daekit.config import DEFAULT_TOLERANCES as TOL
from daekit.problems import random_weierstrass


class SineOracle:
    """The field S g(t) of a seeded pair and the closed form of T x."""

    def __init__(self, seed: int, segre, n_ode: int):
        self.segre = sorted(segre, reverse=True)
        self.n_ode = n_ode
        n_dim = n_ode + sum(segre)
        ws = random_weierstrass(seed, n_dim, segre)
        self.pencil, self.t_mat = ws.pencil, ws.t_mat
        t_inv = np.linalg.inv(ws.t_mat)
        # S: Abar is the identity on the explicit columns, Bbar on the chains
        self.s_mat = np.hstack([(ws.pencil.a @ t_inv)[:, :n_ode],
                                (ws.pencil.b @ t_inv)[:, n_ode:]])
        b0 = np.linalg.solve(self.s_mat, ws.pencil.b @ t_inv)[:n_ode, :n_ode]
        self.decay, self.modes = np.linalg.eigh(b0)
        self.omega = 1.0 + 0.5 * np.arange(n_dim)

    def g(self, t, order: int = 0):
        """The order-th derivative of g at t."""
        return self.omega ** order * np.sin(self.omega * t
                                            + order * np.pi / 2)

    def field(self) -> NonlinearField:
        n_dim = self.omega.size
        return NonlinearField(
            eval=lambda t, x: self.s_mat @ self.g(t),
            jacobian=lambda t, x: np.zeros((n_dim, n_dim)),
            t_derivative=lambda t, x: self.s_mat @ self.g(t, 1),
            structure_tag=StructureTag.STRUCTURED)

    def canonical(self, t: float, y0_start) -> np.ndarray:
        """y = T x at t, from the explicit block's value at time 0."""
        # modal coordinates u = V^T y0: u_k' = -d_k u_k + (V^T g0)_k
        w = self.omega[:self.n_ode]
        d = self.decay[:, None]
        forced = (d * np.sin(w * t) - w * np.cos(w * t)
                  + w * np.exp(-d * t)) / (d ** 2 + w ** 2)
        u = (np.exp(-self.decay * t) * (self.modes.T @ y0_start)
             + np.sum(self.modes.T * forced, axis=1))
        blocks, pos = [self.modes @ u], self.n_ode
        for m in self.segre:
            # N y' + y = g with N the upper shift: y = sum_j (-N)^j g^(j)
            y = np.zeros(m)
            for j in range(m):
                y[:m - j] += (-1.0) ** j * self.g(t, j)[pos + j:pos + m]
            blocks.append(y)
            pos += m
        return np.concatenate(blocks)


CASES = [(seed, segre, n_ode)
         for seed, segre in enumerate([[1], [2], [2, 1], [3], [2, 2],
                                       [3, 2, 1]], start=300)
         for n_ode in (0, 1, 2)]


@pytest.mark.parametrize("seed, segre, n_ode", CASES)
def test_both_routes_follow_the_closed_form(seed, segre, n_ode):
    oracle = SineOracle(seed, segre, n_ode)
    dae = make_dae(oracle.pencil.a, oracle.pencil.b, oracle.field())
    opts = IntegrationOptions(t_max=1.0)
    guess = np.linalg.solve(oracle.t_mat, np.ones(oracle.omega.size))
    finals = []
    for reduce, integrate in ((reduce_first, integrate_first),
                              (reduce_cascade, integrate_cascade)):
        red = reduce(dae)
        traj = integrate(red, 0.0, guess, opts)
        assert traj.termination.kind == "reached_tmax"
        x0 = traj.states[0]
        assert red.residual_L0(0.0, x0) <= TOL.cons
        y0_start = (oracle.t_mat @ x0)[:n_ode]
        exact = np.array([np.linalg.solve(oracle.t_mat,
                                          oracle.canonical(t, y0_start))
                          for t in traj.times])
        assert np.abs(traj.states - exact).max() <= 1e-8
        assert traj.residuals.max() <= TOL.traj
        finals.append(traj.states[-1])
    assert np.abs(finals[0] - finals[1]).max() <= 1e-7
