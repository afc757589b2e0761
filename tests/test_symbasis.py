import math
from itertools import product

import numpy as np
import pytest

from blocklaser import BasisElement, enumerate_sector, sector_dimension
from blocklaser.symbasis import is_legal


def brute_force_sector(n_atoms, cutoff, delta_n):
    """Independent enumeration: filter the full index hypercube."""
    out = []
    for np_, nm, nz, p, q in product(range(n_atoms + 1), range(n_atoms + 1),
                                     range(n_atoms + 1), range(cutoff + 1),
                                     range(cutoff + 1)):
        if np_ + nm + nz <= n_atoms and np_ + p - nm - q == delta_n:
            out.append(BasisElement(np_, nm, nz, p, q))
    return set(out)


def test_two_atom_blockaded_sector_has_12_elements():
    sector = enumerate_sector(2, 1, 0)
    assert len(sector) == 12
    assert set(sector.elements) == brute_force_sector(2, 1, 0)


def test_single_atom_charge_two_sector():
    sector = enumerate_sector(1, 1, 2)
    assert sector.elements == (BasisElement(1, 0, 0, 1, 0),)


def test_unsatisfiable_charge_gives_empty_basis():
    for n, m in [(1, 1), (3, 2)]:
        assert len(enumerate_sector(n, m, n + m + 1)) == 0
        assert sector_dimension(n, m, n + m + 1) == 0


@pytest.mark.parametrize("n,m,delta", [(1, 1, 0), (2, 1, 0), (3, 2, -1),
                                       (4, 2, 1), (5, 3, 2), (4, 1, -3)])
def test_enumeration_matches_brute_force(n, m, delta):
    sector = enumerate_sector(n, m, delta)
    assert set(sector.elements) == brute_force_sector(n, m, delta)
    assert len(set(sector.elements)) == len(sector.elements)
    assert sector_dimension(n, m, delta) == len(sector)


def test_ordering_is_lexicographic():
    sector = enumerate_sector(3, 2, 0)
    assert list(sector.elements) == sorted(sector.elements)


def test_all_elements_carry_the_sector_charge():
    sector = enumerate_sector(4, 2, -2)
    assert all(e.delta_n == -2 for e in sector.elements)


def test_index_roundtrip_and_absences():
    sector = enumerate_sector(3, 1, 0)
    for k, e in enumerate(sector.elements):
        assert sector.index_of(e) == k
    assert sector.index_of(sector.elements[0]) == 0
    # overfull photon index is an absent ("illegal") element
    assert sector.index_of(BasisElement(0, 0, 0, 2, 2)) is None
    assert sector.index_of(BasisElement(1, 0, 0, 1, 0)) is None  # wrong charge
    assert not is_legal(BasisElement(0, 0, 0, 2, 2), 3, 1)
    assert not is_legal(BasisElement(2, 1, 1, 0, 0), 3, 1)
    assert not is_legal(BasisElement(-1, 0, 0, 0, 0), 3, 1)


def test_full_liouville_dimension_comparison():
    # 4^N (M+1)^2 without the symmetry reduction
    assert 4 ** 2 * (1 + 1) ** 2 == 64
    assert sector_dimension(2, 1, 0) == 12


@pytest.mark.parametrize("n,m", [(3, 1), (4, 2), (6, 1), (5, 2)])
def test_partition_completeness(n, m):
    total = sum(sector_dimension(n, m, d) for d in range(-(n + m), n + m + 1))
    compositions = math.comb(n + 3, 3)  # (n+, n-, nz) with sum <= n
    assert total == compositions * (m + 1) ** 2


def test_quadratic_growth_in_atom_number():
    # fixed M: dimension ~ N^2, so doubling N quadruples the size
    for n in (100, 200):
        ratio = sector_dimension(2 * n, 1, 0) / sector_dimension(n, 1, 0)
        assert abs(ratio - 4.0) < 0.8


def test_packed_keys_increase_along_the_enumeration():
    # the searchsorted lookup of SectorBasis.positions relies on this
    for n in range(1, 7):
        for m in range(1, 4):
            for delta in range(-(n + m), n + m + 1):
                sector = enumerate_sector(n, m, delta)
                assert sector.contents.shape == (len(sector), 5)
                assert np.all(np.diff(sector.keys) > 0), (n, m, delta)
                assert np.array_equal(sector.positions(sector.contents),
                                      np.arange(len(sector)))


def test_positions_mark_contents_of_other_sectors():
    sector = enumerate_sector(3, 2, 0)
    other = enumerate_sector(3, 2, 1)
    assert np.all(sector.positions(other.contents) == -1)
