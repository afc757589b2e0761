import numpy as np
import pytest

from blocklaser import ModelParams, enumerate_sector, propagate_grid
from blocklaser.dynamics import DegenerateSteadyStateError
from blocklaser.oracle import (atom_swap, build_full_liouvillian, hilbert_dim,
                               lift_element, lift_state, oracle_expectations,
                               oracle_g1, oracle_g2, oracle_steady_state,
                               oracle_two_time, site_operators)
from blocklaser.symbasis import BasisElement
from blocklaser.model import random_params


def test_cavity_only_spectrum():
    p = ModelParams(1, 1, 0.0, 0.7, 0.0)
    L = build_full_liouvillian(p)
    w = np.linalg.eigvals(L.toarray())
    # two-level decay generator: {0, -kappa/2 (x2), -kappa} on the photon
    # factor, each copied over the 4-dim frozen atomic factor
    uniq = sorted(set(np.round(w.real, 10)))
    assert uniq == pytest.approx([-0.7, -0.35, 0.0])
    assert np.abs(w.imag).max() < 1e-12


def test_vectorized_identity_is_left_null(rng):
    p = random_params(rng, 2, 2)
    L = build_full_liouvillian(p)
    dim = hilbert_dim(2, 2)
    ident = np.eye(dim, dtype=complex).reshape(-1)
    assert np.abs(ident @ L).max() < 1e-12 * np.abs(L.data).max()


def test_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        build_full_liouvillian(ModelParams(5, 2, 1.0, 1.0, 0.5))
    # N = 5, M = 1 sits exactly at the default cap
    build_full_liouvillian(ModelParams(5, 1, 1.0, 1.0, 0.5))


def test_fully_pumped_product_state():
    p = ModelParams(3, 1, 0.0, 1.0, 0.8)
    rho = oracle_steady_state(p)
    dim = hilbert_dim(3, 1)
    expected = np.zeros((dim, dim), dtype=complex)
    expected[0, 0] = 1.0  # |eee> x |0> is the first basis vector
    assert np.abs(rho - expected).max() < 1e-10


def test_detailed_balance(rng):
    p = random_params(rng, 3, 1, with_gamma=False)
    rho = oracle_steady_state(p)
    ex = oracle_expectations(p, rho)
    lhs = p.n_atoms * p.pump * (1.0 - ex["sz"]) / 2.0
    assert lhs == pytest.approx(p.cavity_decay * ex["nb"], rel=1e-9)


def test_steady_state_is_permutation_invariant(rng):
    p = random_params(rng, 3, 1)
    rho = oracle_steady_state(p)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        P = atom_swap(3, 1, i, j).toarray()
        assert np.abs(P @ rho @ P.T - rho).max() < 1e-10


def test_atom_swap_is_an_involution():
    P = atom_swap(3, 2, 0, 2)
    assert np.abs((P @ P).toarray() - np.eye(P.shape[0])).max() == 0
    # symmetric basis elements are swap invariant
    E = lift_element(BasisElement(1, 1, 0, 1, 0), 3, 2)
    assert np.abs(P.toarray() @ E @ P.toarray().T - E).max() < 1e-12


def test_density_matrix_stays_physical_along_evolution(rng):
    p = random_params(rng, 2, 2)
    dim = hilbert_dim(2, 2)
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[1, 1] = 1.0
    L = build_full_liouvillian(p)
    traj = propagate_grid(L, rho0.reshape(-1), np.linspace(0, 4.0, 9))
    for vec in traj:
        rho = vec.reshape(dim, dim)
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-8


def test_two_time_equal_time_limits(rng):
    p = random_params(rng, 2, 1)
    rho = oracle_steady_state(p)
    nb = oracle_expectations(p, rho)["nb"]
    val = oracle_two_time(p, "adag", "a", [0.0], rho_ss=rho)[0]
    assert val == pytest.approx(nb, rel=1e-10)
    assert oracle_g1(p, [0.0], rho_ss=rho)[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(oracle_g2(p, [0.0], rho_ss=rho)[0]) < 1e-12  # M = 1


def test_eig_and_solve_steady_state_paths_agree(rng):
    p = random_params(rng, 2, 1)
    r1 = oracle_steady_state(p, method="solve")
    r2 = oracle_steady_state(p, method="eig")
    assert np.abs(r1 - r2).max() < 1e-9


def test_eig_path_reports_degeneracy():
    p = ModelParams(2, 1, 0.0, 1.0, 0.0)  # frozen atoms
    with pytest.raises(DegenerateSteadyStateError):
        oracle_steady_state(p, method="eig")


def test_lift_state_reproduces_mixed_state():
    from blocklaser import initial_mixed_state
    sector = enumerate_sector(2, 1, 0)
    rho = lift_state(initial_mixed_state(sector))
    dim = hilbert_dim(2, 1)
    assert np.abs(rho - np.eye(dim) / dim).max() < 1e-14


def test_lift_element_rejects_illegal_input():
    with pytest.raises(ValueError):
        lift_element(BasisElement(2, 1, 0, 0, 0), 2, 1)


def test_site_operator_algebra():
    ops = site_operators(2, 1)
    a, ad = ops["a"].toarray(), ops["adag"].toarray()
    # truncated commutation: [a, a+] = 1 - 2 a+ a at M = 1
    comm = a @ ad - ad @ a
    assert np.abs(comm - (np.eye(8) - 2 * ad @ a)).max() < 1e-14
    for j in range(2):
        sp_, sm_, sz_ = (ops[k][j].toarray() for k in ("sp", "sm", "sz"))
        assert np.abs(sp_ @ sm_ - sm_ @ sp_ - sz_).max() < 1e-14
