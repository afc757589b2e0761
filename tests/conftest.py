import numpy as np
import pytest

from blocklaser import BasisElement
from blocklaser.opkernels import apply_chain


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def expand():
    """A kernel chain on one element: {BasisElement: weight}, in order of
    first appearance, the paths to one target summed in path order and
    zero sums dropped."""
    def run(kinds, e, n_atoms, cutoff):
        _, f, w = apply_chain(kinds, np.zeros(1, dtype=int),
                              np.array([e], dtype=np.int32), n_atoms, cutoff)
        out = {}
        for x, v in zip(f, w):
            key = BasisElement(*map(int, x))
            out[key] = out.get(key, 0.0) + float(v)
        return {key: v for key, v in out.items() if v != 0.0}
    return run
