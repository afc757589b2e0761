"""Kernel rules against literal operator products on the lifted basis."""

import numpy as np
import pytest

from blocklaser import BasisElement, enumerate_sector
from blocklaser.opkernels import (apply_cavity, apply_chain, apply_collective,
                                  apply_dephasing_diag, apply_kernel,
                                  apply_product, apply_recycling,
                                  merge_entries)
from blocklaser.symbasis import is_legal
from blocklaser.oracle import lift_element, site_operators


def as_dict(terms):
    return {e: w for e, w in terms}


def rebuild(terms, n_atoms, cutoff, shape):
    out = np.zeros(shape, dtype=complex)
    for e, w in terms:
        out += w * lift_element(e, n_atoms, cutoff)
    return out


@pytest.mark.parametrize("n_atoms,cutoff", [(1, 1), (2, 1), (1, 2), (2, 2),
                                            (3, 1), (3, 2)])
def test_every_kernel_matches_explicit_products(n_atoms, cutoff):
    ops = site_operators(n_atoms, cutoff)
    Sp = sum(o.toarray() for o in ops["sp"])
    Sm = sum(o.toarray() for o in ops["sm"])
    Sz = sum(o.toarray() for o in ops["sz"])
    a, ad = ops["a"].toarray(), ops["adag"].toarray()
    for delta in range(-(n_atoms + cutoff), n_atoms + cutoff + 1):
        for e in enumerate_sector(n_atoms, cutoff, delta).elements:
            E = lift_element(e, n_atoms, cutoff)
            cases = [
                (E @ a, apply_cavity("a_right", e, cutoff)),
                (ad @ E, apply_cavity("adag_left", e, cutoff)),
                (E @ ad, apply_cavity("adag_right", e, cutoff)),
                (a @ E, apply_cavity("a_left", e, cutoff)),
                (Sp @ E, apply_collective("sp_left", e, n_atoms)),
                (E @ Sp, apply_collective("sp_right", e, n_atoms)),
                (Sm @ E, apply_collective("sm_left", e, n_atoms)),
                (E @ Sm, apply_collective("sm_right", e, n_atoms)),
                (Sz @ E, apply_collective("sz_left", e, n_atoms)),
                (E @ Sz, apply_collective("sz_right", e, n_atoms)),
                (sum(2 * sm.toarray() @ E @ sp.toarray()
                     for sp, sm in zip(ops["sp"], ops["sm"])),
                 apply_recycling("emission_sandwich", e, n_atoms)),
                (sum(2 * sp.toarray() @ E @ sm.toarray()
                     for sp, sm in zip(ops["sp"], ops["sm"])),
                 apply_recycling("pump_sandwich", e, n_atoms)),
            ]
            for direct, terms in cases:
                got = rebuild(terms, n_atoms, cutoff, E.shape)
                assert np.abs(got - direct).max() < 1e-12
            # dephasing sandwich: sum_j sz rho sz = (N - 2(n+ + n-)) rho
            sandwich = sum(sz.toarray() @ E @ sz.toarray() for sz in ops["sz"])
            factor = n_atoms - 2 * apply_dephasing_diag(e)
            assert np.abs(sandwich - factor * E).max() < 1e-12


def test_right_mode_application_is_an_index_shift():
    e = BasisElement(1, 0, 2, 0, 0)
    assert as_dict(apply_cavity("a_right", e, 2)) == {
        BasisElement(1, 0, 2, 0, 1): 1.0}


def test_blockaded_reordering_gives_identity_minus_number():
    # a a^+ = |0><0| = 1 - a^+ a on the two-level mode
    out = as_dict(apply_cavity("adag_right", BasisElement(0, 0, 0, 0, 1), 1))
    assert out == {BasisElement(0, 0, 0, 0, 0): 1.0,
                   BasisElement(0, 0, 0, 1, 1): -1.0}
    out = as_dict(apply_cavity("a_left", BasisElement(0, 0, 0, 1, 0), 1))
    assert out == {BasisElement(0, 0, 0, 0, 0): 1.0,
                   BasisElement(0, 0, 0, 1, 1): -1.0}


def test_large_cutoff_recovers_harmonic_relations():
    # far from the boundary only a negligible 1/(M - n)! truncation weight
    # survives next to the harmonic-oscillator terms
    for kind, e in [("adag_right", BasisElement(0, 0, 0, 1, 2)),
                    ("a_left", BasisElement(0, 0, 0, 2, 1))]:
        out = as_dict(apply_cavity(kind, e, 10))
        assert out.pop(BasisElement(0, 0, 0, 2, 2)) == 1.0
        assert out.pop(BasisElement(0, 0, 0, 1, 1)) == 2.0
        assert all(abs(w) < 1e-4 for w in out.values())


def test_collective_examples():
    out = as_dict(apply_collective("sz_left", BasisElement(0, 0, 0, 0, 0), 2))
    assert out == {BasisElement(0, 0, 1, 0, 0): 2.0}
    out = as_dict(apply_collective("sz_left", BasisElement(1, 0, 0, 0, 1), 1))
    assert out == {BasisElement(1, 0, 0, 0, 1): 1.0}
    out = as_dict(apply_collective("sp_left", BasisElement(0, 0, 0, 0, 0), 1))
    assert out == {BasisElement(1, 0, 0, 0, 0): 1.0}


def test_recycling_examples():
    out = as_dict(apply_recycling("pump_sandwich", BasisElement(0, 0, 0, 0, 0), 1))
    assert out == {BasisElement(0, 0, 0, 0, 0): 1.0,
                   BasisElement(0, 0, 1, 0, 0): 1.0}
    # 2 s^- (sz/2) s^+ = (1 - sz)/2 by direct 2x2 algebra; the stated rule
    # produces both the lowered and the diagonal term
    out = as_dict(apply_recycling("emission_sandwich", BasisElement(0, 0, 1, 0, 0), 1))
    assert out == {BasisElement(0, 0, 0, 0, 0): 1.0,
                   BasisElement(0, 0, 1, 0, 0): -1.0}


def test_saturated_content_drops_raising_term():
    # N_I = 0 kills the (n_z + 1) branch
    e = BasisElement(1, 1, 1, 0, 0)
    for kind in ("emission_sandwich", "pump_sandwich"):
        out = as_dict(apply_recycling(kind, e, 3))
        assert BasisElement(1, 1, 2, 0, 0) not in out


def test_dephasing_diagonal_factors():
    assert apply_dephasing_diag(BasisElement(0, 0, 3, 1, 1)) == 0.0
    assert apply_dephasing_diag(BasisElement(1, 0, 0, 0, 0)) == 1.0
    assert apply_dephasing_diag(BasisElement(1, 1, 0, 1, 0)) == 2.0


def test_outputs_are_merged_legal_and_nonzero(rng):
    for _ in range(50):
        n_atoms = int(rng.integers(1, 5))
        cutoff = int(rng.integers(1, 4))
        sector = enumerate_sector(n_atoms, cutoff,
                                  int(rng.integers(-2, 3)))
        if len(sector) == 0:
            continue
        e = sector.elements[int(rng.integers(len(sector)))]
        outputs = []
        for kind in ("a_right", "adag_left", "adag_right", "a_left"):
            outputs.append(apply_cavity(kind, e, cutoff))
        for kind in ("sp_left", "sp_right", "sm_left", "sm_right",
                     "sz_left", "sz_right"):
            outputs.append(apply_collective(kind, e, n_atoms))
        for kind in ("emission_sandwich", "pump_sandwich"):
            outputs.append(apply_recycling(kind, e, n_atoms))
        for terms in outputs:
            elements = [f for f, _ in terms]
            assert len(set(elements)) == len(elements)
            assert all(is_legal(f, n_atoms, cutoff) for f in elements)
            assert all(w != 0.0 for _, w in terms)


def test_charge_shifts_per_kind():
    shifts = {"a_right": -1, "adag_left": 1, "adag_right": 1, "a_left": -1}
    e = BasisElement(1, 1, 0, 1, 1)
    for kind, shift in shifts.items():
        for f, _ in apply_cavity(kind, e, 2):
            assert f.delta_n - e.delta_n == shift
    shifts = {"sp_left": 1, "sp_right": 1, "sm_left": -1, "sm_right": -1,
              "sz_left": 0, "sz_right": 0}
    for kind, shift in shifts.items():
        for f, _ in apply_collective(kind, e, 3):
            assert f.delta_n - e.delta_n == shift


def test_master_equation_pairings_preserve_charge():
    # every left/right pairing that appears in the generator is neutral
    M, N = 2, 3
    cav = lambda kind: (lambda x: apply_cavity(kind, x, M))
    col = lambda kind: (lambda x: apply_collective(kind, x, N))
    pairings = [
        [col("sp_right"), cav("a_right")],    # rho S^+ a
        [col("sm_left"), cav("adag_left")],   # S^- a^+ rho
        [cav("a_left"), cav("adag_right")],   # a rho a^+
        [cav("adag_right"), cav("a_right")],  # rho a^+ a
    ]
    for e in enumerate_sector(N, M, 0).elements:
        for chain in pairings:
            for f, _ in apply_product(chain, e):
                assert f.delta_n == e.delta_n


def test_merge_entries_sums_in_order_and_keeps_first_appearance():
    cols = np.array([1, 1, 0, 1, 1])
    contents = np.array([[0, 0, 2, 0, 0], [0, 0, 1, 0, 0], [0, 0, 2, 0, 0],
                         [0, 0, 2, 0, 0], [0, 0, 1, 0, 0]], dtype=np.int32)
    w = np.array([0.1, 1.0, 5.0, 0.2, -1.0])
    c, f, v = merge_entries(cols, contents, w, 2, 1)
    # (1, z=2) first, then (1, z=1) summing to zero is dropped, then (0, z=2)
    assert c.tolist() == [1, 0]
    assert f[:, 2].tolist() == [2, 2]
    assert v.tolist() == [0.1 + 0.2, 5.0]
    with pytest.raises(OverflowError):
        merge_entries(np.array([2 ** 60]), contents[:1], w[:1], 2, 1)


def test_chain_arrays_equal_product_expansion(rng):
    chains = [("sp_right", "a_right"), ("a_left", "adag_right"),
              ("adag_right", "a_right"), ("sm_left", "sz_right"),
              ("pump_sandwich", "emission_sandwich", "dephasing")]
    for n_atoms, cutoff in [(1, 1), (3, 2), (4, 3)]:
        sector = enumerate_sector(n_atoms, cutoff, 0)
        for kinds in chains:
            kernels = [lambda e, k=k: apply_kernel(k, e, n_atoms, cutoff)
                       for k in kinds]
            cols, contents, w = apply_chain(
                kinds, np.arange(len(sector)), sector.contents,
                np.ones(len(sector)), n_atoms, cutoff)
            got = [(int(j), BasisElement(*map(int, f)), x)
                   for j, f, x in zip(cols, contents, w)]
            ref = [(j, f, x) for j, e in enumerate(sector.elements)
                   for f, x in apply_product(kernels, e)]
            assert got == ref, kinds
