"""Kernel rules against literal operator products on the lifted basis.

Per-element expansions run through the ``expand`` fixture (conftest.py),
which runs :func:`~blocklaser.opkernels.apply_chain` on a one-element
array and sums the paths to each target.
"""

import numpy as np
import pytest

from blocklaser import BasisElement, enumerate_sector
from blocklaser.opkernels import KERNELS, apply_chain
from blocklaser.symbasis import is_legal
from blocklaser.oracle import site_operators
from lifting import lift_element


def rebuild(terms, n_atoms, cutoff, shape):
    out = np.zeros(shape, dtype=complex)
    for e, w in terms.items():
        out += w * lift_element(e, n_atoms, cutoff)
    return out


@pytest.mark.parametrize("n_atoms,cutoff", [(1, 1), (2, 1), (1, 2), (2, 2),
                                            (3, 1), (3, 2)])
def test_every_kernel_matches_explicit_products(n_atoms, cutoff, expand):
    ops = site_operators(n_atoms, cutoff)
    Sp, Sm, Sz = (sum(ops[k]) for k in ("sp", "sm", "sz"))
    a, ad = ops["a"], ops["adag"]
    for delta in range(-(n_atoms + cutoff), n_atoms + cutoff + 1):
        for e in enumerate_sector(n_atoms, cutoff, delta).elements:
            E = lift_element(e, n_atoms, cutoff)
            cases = [
                (E @ a, "a_right"),
                (ad @ E, "adag_left"),
                (E @ ad, "adag_right"),
                (a @ E, "a_left"),
                (Sp @ E, "sp_left"),
                (E @ Sp, "sp_right"),
                (Sm @ E, "sm_left"),
                (E @ Sm, "sm_right"),
                (Sz @ E, "sz_left"),
                (E @ Sz, "sz_right"),
                (sum(2 * sm @ E @ sp
                     for sp, sm in zip(ops["sp"], ops["sm"])),
                 "emission_sandwich"),
                (sum(2 * sp @ E @ sm
                     for sp, sm in zip(ops["sp"], ops["sm"])),
                 "pump_sandwich"),
            ]
            for direct, kind in cases:
                terms = expand((kind,), e, n_atoms, cutoff)
                got = rebuild(terms, n_atoms, cutoff, E.shape)
                assert np.abs(got - direct).max() < 1e-12
            # dephasing sandwich: sum_j sz rho sz = (N - 2(n+ + n-)) rho
            sandwich = sum(sz @ E @ sz for sz in ops["sz"])
            diag = expand(("dephasing",), e, n_atoms, cutoff)
            assert set(diag) <= {e}
            factor = n_atoms - 2 * diag.get(e, 0.0)
            assert np.abs(sandwich - factor * E).max() < 1e-12


def test_right_mode_application_is_an_index_shift(expand):
    e = BasisElement(1, 0, 2, 0, 0)
    assert expand(("a_right",), e, 3, 2) == {BasisElement(1, 0, 2, 0, 1): 1.0}


def test_blockaded_reordering_gives_identity_minus_number(expand):
    # a a^+ = |0><0| = 1 - a^+ a on the two-level mode
    out = expand(("adag_right",), BasisElement(0, 0, 0, 0, 1), 1, 1)
    assert out == {BasisElement(0, 0, 0, 0, 0): 1.0,
                   BasisElement(0, 0, 0, 1, 1): -1.0}
    out = expand(("a_left",), BasisElement(0, 0, 0, 1, 0), 1, 1)
    assert out == {BasisElement(0, 0, 0, 0, 0): 1.0,
                   BasisElement(0, 0, 0, 1, 1): -1.0}


def test_large_cutoff_recovers_harmonic_relations(expand):
    # far from the boundary only a negligible 1/(M - n)! truncation weight
    # survives next to the harmonic-oscillator terms
    for kind, e in [("adag_right", BasisElement(0, 0, 0, 1, 2)),
                    ("a_left", BasisElement(0, 0, 0, 2, 1))]:
        out = expand((kind,), e, 1, 10)
        assert out.pop(BasisElement(0, 0, 0, 2, 2)) == 1.0
        assert out.pop(BasisElement(0, 0, 0, 1, 1)) == 2.0
        assert all(abs(w) < 1e-4 for w in out.values())


def test_collective_examples(expand):
    out = expand(("sz_left",), BasisElement(0, 0, 0, 0, 0), 2, 1)
    assert out == {BasisElement(0, 0, 1, 0, 0): 2.0}
    out = expand(("sz_left",), BasisElement(1, 0, 0, 0, 1), 1, 1)
    assert out == {BasisElement(1, 0, 0, 0, 1): 1.0}
    out = expand(("sp_left",), BasisElement(0, 0, 0, 0, 0), 1, 1)
    assert out == {BasisElement(1, 0, 0, 0, 0): 1.0}


def test_recycling_examples(expand):
    out = expand(("pump_sandwich",), BasisElement(0, 0, 0, 0, 0), 1, 1)
    assert out == {BasisElement(0, 0, 0, 0, 0): 1.0,
                   BasisElement(0, 0, 1, 0, 0): 1.0}
    # 2 s^- (sz/2) s^+ = (1 - sz)/2 by direct 2x2 algebra; the stated rule
    # produces both the lowered and the diagonal term
    out = expand(("emission_sandwich",), BasisElement(0, 0, 1, 0, 0), 1, 1)
    assert out == {BasisElement(0, 0, 0, 0, 0): 1.0,
                   BasisElement(0, 0, 1, 0, 0): -1.0}


def test_saturated_content_drops_raising_term(expand):
    # N_I = 0 kills the (n_z + 1) branch
    e = BasisElement(1, 1, 1, 0, 0)
    for kind in ("emission_sandwich", "pump_sandwich"):
        out = expand((kind,), e, 3, 1)
        assert BasisElement(1, 1, 2, 0, 0) not in out


def test_dephasing_diagonal_factors(expand):
    # a zero factor is a dropped entry
    e = BasisElement(0, 0, 3, 1, 1)
    assert expand(("dephasing",), e, 3, 1) == {}
    e = BasisElement(1, 0, 0, 0, 0)
    assert expand(("dephasing",), e, 1, 1) == {e: 1.0}
    e = BasisElement(1, 1, 0, 1, 0)
    assert expand(("dephasing",), e, 2, 1) == {e: 2.0}


def test_outputs_are_legal_and_nonzero():
    # every kind on every element of every sector with N <= 4, M <= 3
    for n_atoms in range(1, 5):
        for cutoff in range(1, 4):
            for delta in range(-(n_atoms + cutoff), n_atoms + cutoff + 1):
                sector = enumerate_sector(n_atoms, cutoff, delta)
                for kind in KERNELS:
                    _, contents, w = apply_chain(
                        (kind,), np.arange(len(sector)), sector.contents,
                        n_atoms, cutoff)
                    assert all(is_legal(BasisElement(*map(int, f)), n_atoms,
                                        cutoff) for f in contents)
                    assert np.all(w != 0.0)


def test_charge_shifts_per_kind(expand):
    shifts = {"a_right": -1, "adag_left": 1, "adag_right": 1, "a_left": -1}
    e = BasisElement(1, 1, 0, 1, 1)
    for kind, shift in shifts.items():
        for f in expand((kind,), e, 2, 2):
            assert f.delta_n - e.delta_n == shift
    shifts = {"sp_left": 1, "sp_right": 1, "sm_left": -1, "sm_right": -1,
              "sz_left": 0, "sz_right": 0}
    for kind, shift in shifts.items():
        for f in expand((kind,), e, 3, 1):
            assert f.delta_n - e.delta_n == shift


def test_master_equation_pairings_preserve_charge(expand):
    # every left/right pairing that appears in the generator is neutral
    M, N = 2, 3
    pairings = [
        ("sp_right", "a_right"),    # rho S^+ a
        ("sm_left", "adag_left"),   # S^- a^+ rho
        ("a_left", "adag_right"),   # a rho a^+
        ("adag_right", "a_right"),  # rho a^+ a
    ]
    for e in enumerate_sector(N, M, 0).elements:
        for chain in pairings:
            for f in expand(chain, e, N, M):
                assert f.delta_n == e.delta_n


def test_chain_arrays_equal_per_element_calls():
    # a whole sector at once gives each source column's own paths, in
    # column order: sources never mix
    chains = [("sp_right", "a_right"), ("a_left", "adag_right"),
              ("adag_right", "a_right"), ("sm_left", "sz_right"),
              ("pump_sandwich", "emission_sandwich", "dephasing")]
    for n_atoms, cutoff in [(1, 1), (3, 2), (4, 3)]:
        sector = enumerate_sector(n_atoms, cutoff, 0)
        for kinds in chains:
            got = apply_chain(kinds, np.arange(len(sector)), sector.contents,
                              n_atoms, cutoff)
            alone = [apply_chain(kinds, np.array([j]), sector.contents[j:j + 1],
                                 n_atoms, cutoff) for j in range(len(sector))]
            for a, b in zip(got, zip(*alone)):
                assert np.array_equal(a, np.concatenate(b)), kinds
