"""Explicit full-space matrices of symmetric basis elements and states, so
tests can compare kernel and Liouvillian actions entry by entry against
literal operator products (small N only)."""

import math
from itertools import combinations

import numpy as np

from blocklaser.oracle import hilbert_dim
from blocklaser.symbasis import BasisElement, is_legal

#: s^+ = |e><g|, s^-, s^z and the identity on one atom, in the oracle's
#: layout (index 0 is the excited state)
_ATOM = {"plus": np.array([[0.0, 1.0], [0.0, 0.0]]),
         "minus": np.array([[0.0, 0.0], [1.0, 0.0]]),
         "z": np.diag([1.0, -1.0]), "id": np.eye(2)}


def lift_element(e: BasisElement, n_atoms: int, cutoff: int) -> np.ndarray:
    """Explicit matrix of a symmetric basis element.

    Sums the distinct placements of the (s^+, s^-, s^z, identity) content
    over atom slots, each weighted by the number of permutations that
    realize it, normalized by 1/(2^N N!).
    """
    if not is_legal(e, n_atoms, cutoff):
        raise ValueError(f"{e} is illegal for N={n_atoms}, M={cutoff}")
    N = n_atoms
    dim = hilbert_dim(N, cutoff)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    photon = (np.linalg.matrix_power(a.T, e.n_adag)
              @ np.linalg.matrix_power(a, e.n_a))
    n_i = N - e.n_plus - e.n_minus - e.n_z
    multiplicity = (math.factorial(e.n_plus) * math.factorial(e.n_minus)
                    * math.factorial(e.n_z) * math.factorial(n_i))
    total = np.zeros((dim, dim), dtype=complex)
    slots = set(range(N))
    for plus in combinations(range(N), e.n_plus):
        rest1 = slots - set(plus)
        for minus in combinations(sorted(rest1), e.n_minus):
            rest2 = rest1 - set(minus)
            for zpos in combinations(sorted(rest2), e.n_z):
                atom = np.array([[1.0]])
                for j in range(N):
                    kind = ("plus" if j in plus else "minus" if j in minus
                            else "z" if j in zpos else "id")
                    atom = np.kron(atom, _ATOM[kind])
                total += np.kron(atom, photon) * multiplicity
    return total / (2 ** N * math.factorial(N))


def lift_state(state) -> np.ndarray:
    """Explicit density matrix of a SymmetricState (small N only)."""
    sector = state.sector
    dim = hilbert_dim(sector.n_atoms, sector.photon_cutoff)
    rho = np.zeros((dim, dim), dtype=complex)
    for c, e in zip(state.coeffs, sector.elements):
        if c != 0.0:
            rho += c * lift_element(e, sector.n_atoms, sector.photon_cutoff)
    return rho
