import numpy as np
import pytest

from daekit._linalg import orth_basis
from daekit.problems import random_weierstrass
from daekit.projectors import build_all


def subspace_gap(a, b):
    """Sine of the largest principal angle between two column spans."""
    ua = orth_basis(a)
    ub = orth_basis(b)
    if ua.shape[1] != ub.shape[1]:
        return 1.0
    if ua.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(ua @ ua.conj().T - ub @ ub.conj().T, 2))


def corpus_samples(seed0=1000, count=100, max_dim=8, max_len=4):
    """Seeded corpus of conjugated block pairs, N <= 8, chain lengths <= 4."""
    rng = np.random.default_rng(7)
    samples = []
    for k in range(count):
        n_dim = int(rng.integers(2, max_dim + 1))
        segre = []
        budget = int(rng.integers(0, n_dim + 1))
        while budget > 0:
            m = int(rng.integers(1, min(max_len, budget) + 1))
            segre.append(m)
            budget -= m
        samples.append(random_weierstrass(seed=seed0 + k, n_dim=n_dim,
                                          segre=segre))
    return samples


@pytest.fixture(scope="session")
def pencil_corpus():
    return corpus_samples()


@pytest.fixture(scope="session")
def analyzed_corpus(pencil_corpus):
    return [(ws, *build_all(ws.pencil)) for ws in pencil_corpus]
