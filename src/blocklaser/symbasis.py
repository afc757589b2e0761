"""Operator-content basis for permutation-symmetric density matrices.

A basis element labels the symmetrized operator

    (1/(2^N N!)) sum_P  s^+ x ... x s^- x ... x s^z x ... x I x ...  (x)  (a^+)^p a^q

by the multiset content ``(n_plus, n_minus, n_z, n_adag, n_a)``: how many
raising, lowering and s^z factors appear among the N atom slots (identity
on the rest) and the powers of the normal-ordered photon operators. The
sum runs over all atom permutations, so any permutation-symmetric density
matrix is a linear combination of these elements.

Dissipative dynamics conserves the U(1) charge

    delta_n = n_plus + n_adag - n_minus - n_a,

so the evolution block-diagonalizes over fixed-charge sectors. A
``SectorBasis`` enumerates one sector in lexicographic order of
``(n_plus, n_minus, n_z, n_adag, n_a)``; the ordering is part of the
serialization contract and must not change. Read as digits of base N + 1
(atomic counts) and M + 1 (photon powers), the content is a packed integer
key that increases strictly along that order, so the position of any
legal content is one ``searchsorted`` over the sector's keys.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Optional

import numpy as np


class BasisElement(NamedTuple):
    n_plus: int
    n_minus: int
    n_z: int
    n_adag: int
    n_a: int

    @property
    def delta_n(self) -> int:
        return self.n_plus + self.n_adag - self.n_minus - self.n_a


def is_legal(e: BasisElement, n_atoms: int, cutoff: int) -> bool:
    """True if the element exists for N atoms and photon cutoff M."""
    if min(e) < 0:
        return False
    if e.n_plus + e.n_minus + e.n_z > n_atoms:
        return False
    return e.n_adag <= cutoff and e.n_a <= cutoff


def packed_keys(contents: np.ndarray, n_atoms: int, cutoff: int) -> np.ndarray:
    """Lexicographic integer keys of legal content rows (an (n, 5) array)."""
    keys = contents[:, 0].astype(np.int64)
    for k, base in ((1, n_atoms + 1), (2, n_atoms + 1), (3, cutoff + 1),
                    (4, cutoff + 1)):
        keys = keys * base + contents[:, k]
    return keys


class SectorBasis:
    """Ordered enumeration of all basis elements of one delta_n sector."""

    def __init__(self, n_atoms: int, photon_cutoff: int, delta_n: int,
                 elements: tuple):
        self.n_atoms = n_atoms
        self.photon_cutoff = photon_cutoff
        self.delta_n = delta_n
        self.elements = elements
        self._index = {e: k for k, e in enumerate(elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[BasisElement]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return (f"SectorBasis(N={self.n_atoms}, M={self.photon_cutoff}, "
                f"delta_n={self.delta_n}, dim={len(self.elements)})")

    def index_of(self, e: BasisElement) -> Optional[int]:
        """Position of ``e`` in the enumeration; None if absent or illegal."""
        return self._index.get(e)

    @cached_property
    def contents(self) -> np.ndarray:
        """The elements as a (dim, 5) int32 array, in enumeration order."""
        return np.array(self.elements, dtype=np.int32).reshape(-1, 5)

    @cached_property
    def keys(self) -> np.ndarray:
        """Packed keys of :attr:`contents`; strictly increasing."""
        return packed_keys(self.contents, self.n_atoms, self.photon_cutoff)

    def positions(self, contents: np.ndarray) -> np.ndarray:
        """Positions of legal content rows in the enumeration; -1 where a
        row lies outside this sector."""
        keys = packed_keys(contents, self.n_atoms, self.photon_cutoff)
        pos = np.searchsorted(self.keys, keys)
        found = pos < len(self)
        found[found] = self.keys[pos[found]] == keys[found]
        return np.where(found, pos, -1)


@lru_cache(maxsize=None)
def enumerate_sector(n_atoms: int, photon_cutoff: int, delta_n: int) -> SectorBasis:
    """Enumerate the fixed-charge sector, lexicographically ordered.

    An unsatisfiable charge (|delta_n| > N + M) yields an empty basis.
    """
    if n_atoms < 1 or photon_cutoff < 1:
        raise ValueError("need n_atoms >= 1 and photon_cutoff >= 1")
    N, M = n_atoms, photon_cutoff
    elements = []
    for n_plus in range(N + 1):
        for n_minus in range(N - n_plus + 1):
            for n_z in range(N - n_plus - n_minus + 1):
                for n_adag in range(M + 1):
                    n_a = n_plus + n_adag - n_minus - delta_n
                    if 0 <= n_a <= M:
                        elements.append(BasisElement(n_plus, n_minus, n_z, n_adag, n_a))
    return SectorBasis(N, M, delta_n, tuple(elements))


def sector_dimension(n_atoms: int, photon_cutoff: int, delta_n: int) -> int:
    """Sector size, counted without materializing the element list.

    For fixed (n_plus, n_minus) the s^z count contributes
    N - n_plus - n_minus + 1 choices and the photon pair is constrained to
    n_adag - n_a = delta_n - (n_plus - n_minus), which admits
    M + 1 - |d| pairs when |d| <= M. The total is Theta(N^2) for fixed M,
    versus 4^N (M+1)^2 for the unreduced operator space.
    """
    N, M = n_atoms, photon_cutoff
    if N < 1 or M < 1:
        raise ValueError("need n_atoms >= 1 and photon_cutoff >= 1")
    total = 0
    for n_plus in range(N + 1):
        for n_minus in range(N - n_plus + 1):
            d = delta_n - (n_plus - n_minus)
            if abs(d) <= M:
                total += (N - n_plus - n_minus + 1) * (M + 1 - abs(d))
    return total
