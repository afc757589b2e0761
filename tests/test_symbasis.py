import math
from itertools import product

import numpy as np
import pytest

from blocklaser import (BasisElement, ModelParams, enumerate_sector,
                        liouvillian_for, sector_dimension, steady_state)
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


def nested_loop_contents(n_atoms, cutoff, delta_n):
    """The per-element enumeration loop that ``enumerate_sector`` replaced,
    as a (dim, 5) int32 array in its order. The pair-level ``continue``
    skips only pairs for which no n_adag gives a legal n_a."""
    N, M = n_atoms, cutoff
    rows = []
    for n_plus in range(N + 1):
        for n_minus in range(N - n_plus + 1):
            if abs(delta_n - (n_plus - n_minus)) > M:
                continue
            for n_z in range(N - n_plus - n_minus + 1):
                for n_adag in range(M + 1):
                    n_a = n_plus + n_adag - n_minus - delta_n
                    if 0 <= n_a <= M:
                        rows.append((n_plus, n_minus, n_z, n_adag, n_a))
    return np.array(rows, dtype=np.int32).reshape(-1, 5)


def charges_to_check(n_atoms, cutoff):
    """Every charge with |delta_n| <= N + M + 1, empty sectors included.
    At N = 100 the loop over all of them takes about 10 s, so M > 1 keeps
    the edges: 0, +-1, +-M, +-(M + 1), +-N, +-(N + M), +-(N + M + 1)."""
    top = n_atoms + cutoff + 1
    if n_atoms < 100 or cutoff == 1:
        return range(-top, top + 1)
    edges = {0, 1, cutoff, cutoff + 1, n_atoms, top - 1, top}
    return sorted(edges | {-x for x in edges})


@pytest.mark.parametrize("n", [1, 2, 5, 24, 100])
@pytest.mark.parametrize("m", [1, 2, 7])
def test_contents_equal_the_nested_loop(n, m):
    for delta in charges_to_check(n, m):
        sector = enumerate_sector(n, m, delta)
        ref = nested_loop_contents(n, m, delta)
        assert sector.contents.dtype == np.int32
        assert np.array_equal(sector.contents, ref), (n, m, delta)
        assert len(sector) == sector_dimension(n, m, delta)


def test_index_of_rejects_illegal_contents_whose_key_is_legal():
    # packed digits overflow into the next one: each of these illegal
    # contents packs to the key of an element of the sector
    sector = enumerate_sector(3, 1, 0)
    aliases = [((0, 0, 0, 2, 0), (0, 0, 1, 0, 0)),      # n_adag = M + 1
               ((0, 0, 0, 2, -1), (0, 0, 0, 1, 1)),
               ((0, 0, 0, 4, 4), (0, 0, 3, 0, 0)),      # same charge
               ((0, 1, -1, 0, 0), (0, 0, 3, 0, 0))]     # n_z = -1
    for illegal, legal in aliases:
        k = sector.index_of(BasisElement(*legal))
        assert k is not None
        assert sector.positions(np.array([illegal]))[0] == k
        assert sector.index_of(BasisElement(*illegal)) is None


def test_steady_state_leaves_the_element_tuple_unbuilt():
    # the sector route reads contents and keys alone; a fresh sector
    # (the cache is shared with every other test) must stay that way
    enumerate_sector.cache_clear()
    L = liouvillian_for(ModelParams(100, 1, 0.1, 1.0, 0.02), 0)
    steady_state(L)
    assert set(vars(L.sector)) == {"n_atoms", "photon_cutoff", "delta_n",
                                   "contents", "keys"}
