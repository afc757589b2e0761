import numpy as np
import pytest

from blocklaser import BasisElement
from blocklaser.opkernels import apply_chain


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def expand():
    """A kernel chain on one element: {BasisElement: weight}, output order."""
    def run(kinds, e, n_atoms, cutoff):
        _, f, w = apply_chain(kinds, np.zeros(1, dtype=int),
                              np.array([e], dtype=np.int32), np.ones(1),
                              n_atoms, cutoff)
        return {BasisElement(*map(int, x)): float(v) for x, v in zip(f, w)}
    return run
