import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from blocklaser import ModelParams, enumerate_sector, oracle, propagate
from blocklaser.dynamics import SolverError
from blocklaser.oracle import (DEFAULT_HILBERT_CAP, atom_swap,
                               build_full_liouvillian, full_hamiltonian,
                               hilbert_dim, lift_element, lift_state,
                               oracle_expectations, oracle_g1, oracle_g2,
                               oracle_steady_state, oracle_two_time,
                               site_operators)
from blocklaser.symbasis import BasisElement
from blocklaser.model import random_params


def _per_term_liouvillian(params):
    """The generator summed term by term, one Kronecker-built dissipator
    per rate and atom, each scaled by its rate: a reference for the
    cached unit parts."""
    ops = site_operators(params.n_atoms, params.photon_cutoff)
    dim = hilbert_dim(params.n_atoms, params.photon_cutoff)
    eye = sp.identity(dim, format="csr")

    def dissipator(c):
        cdc = (c.conj().T @ c).tocsr()
        return (sp.kron(c, c.conj(), format="csr")
                - 0.5 * sp.kron(cdc, eye, format="csr")
                - 0.5 * sp.kron(eye, cdc.T, format="csr"))

    H = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(params.n_atoms):
        H = H + 0.5 * params.coupling * (ops["sp"][j] @ ops["a"]
                                         + ops["sm"][j] @ ops["adag"])
    L = 1j * (sp.kron(eye, H.T, format="csr") - sp.kron(H, eye, format="csr"))
    L = L + params.cavity_decay * dissipator(ops["a"])
    for j in range(params.n_atoms):
        if params.pump:
            L = L + params.pump * dissipator(ops["sp"][j])
        if params.spont_emission:
            L = L + params.spont_emission * dissipator(ops["sm"][j])
        if params.dephasing:
            L = L + 0.25 * params.dephasing * dissipator(ops["sz"][j])
    return L.tocsr()


def test_unit_parts_reproduce_the_per_term_generator():
    rng = np.random.default_rng(11)
    systems = [(n, m) for n in range(1, 7)
               for m in range(1, DEFAULT_HILBERT_CAP)
               if hilbert_dim(n, m) <= DEFAULT_HILBERT_CAP]
    assert (1, 31) in systems and (5, 1) in systems and len(systems) == 57
    for n, m in systems:
        p = random_params(rng, n, m)
        for case in (p, dataclasses.replace(p, coupling=0.0),
                     dataclasses.replace(p, pump=0.0),
                     dataclasses.replace(p, spont_emission=0.0, dephasing=0.0)):
            new, ref = build_full_liouvillian(case), _per_term_liouvillian(case)
            new.eliminate_zeros()
            ref.eliminate_zeros()
            assert abs(new - ref).max() <= 1e-14 * abs(ref).max(), (case,)
            assert ((new != 0) != (ref != 0)).nnz == 0, (case,)


def test_full_generator_is_real_in_the_photon_gauge():
    # kron(D, conj D), D = i^(n_ph), conjugates the generator, built term
    # by term or from the cached parts, to one with exactly zero imaginary
    # part, and the oracle's own gauged generator is that real matrix
    rng = np.random.default_rng(13)
    powers = np.array([1.0, 1.0j, -1.0, -1.0j])
    systems = [(n, m) for n in range(1, 7)
               for m in range(1, DEFAULT_HILBERT_CAP)
               if hilbert_dim(n, m) <= DEFAULT_HILBERT_CAP]
    for n, m in systems:
        photons = np.tile(np.arange(m + 1), 2 ** n)
        D = powers[photons % 4]
        gauge = sp.diags(np.kron(D, D.conj()))
        p = random_params(rng, n, m)
        for case in (p, dataclasses.replace(p, coupling=0.0),
                     dataclasses.replace(p, pump=0.0, cavity_decay=0.0)):
            real = oracle._gauged_liouvillian(case)
            assert real.dtype == np.float64
            for L in (_per_term_liouvillian(case), build_full_liouvillian(case)):
                gauged = gauge @ L @ gauge.conj()
                assert not gauged.imag.toarray().any(), (case,)
                assert np.abs(gauged.real - real).max() <= (
                    1e-14 * np.abs(real).max()), (case,)


def test_cached_parts_do_not_leak_into_later_builds():
    # the second system is exactly one unit part: cavity decay at rate 1
    for p in (ModelParams(3, 1, 0.8, 1.2, 0.4, spont_emission=0.1,
                          dephasing=0.3),
              ModelParams(3, 1, 0.0, 1.0, 0.0)):
        first = build_full_liouvillian(p)
        expected = first.copy()
        first.data[:] = 7.0
        first.resize((4, 4))
        again = build_full_liouvillian(p)
        assert again.shape == expected.shape
        assert abs(again - expected).max() == 0.0
    p = ModelParams(3, 1, 1.0, 1.0, 0.0)
    H = full_hamiltonian(p)
    H_expected = H.copy()
    H.data *= 3.0
    assert abs(full_hamiltonian(p) - H_expected).max() == 0.0


def _sector_route_imports(source: str) -> list:
    """Imports of blocklaser.liouvillian or blocklaser.opkernels in a
    module of the package (relative imports resolved)."""
    forbidden = ("blocklaser.liouvillian", "blocklaser.opkernels")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "blocklaser" + (f".{base}" if base else "")
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names
                  if any(name == f or name.startswith(f + ".")
                         for f in forbidden)]
    return found


def test_detector_sees_sector_route_imports():
    assert _sector_route_imports(
        "from .liouvillian import build_liouvillian\n"
        "from . import opkernels\n"
        "import blocklaser.opkernels as ok\n"
        "from .dynamics import propagate\n") == [
        "blocklaser.liouvillian", "blocklaser.liouvillian.build_liouvillian",
        "blocklaser.opkernels", "blocklaser.opkernels"]


def test_oracle_takes_no_code_from_the_sector_builder():
    source = Path(oracle.__file__).read_text()
    assert _sector_route_imports(source) == []


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
    traj = propagate(L, rho0.reshape(-1), np.linspace(0, 4.0, 9)).values
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


def _dense_null_state(params):
    """Steady density matrix from a dense eigendecomposition of the full
    generator: the eigenvector of its smallest |eigenvalue|, after checking
    that this eigenvalue is zero and isolated from the rest."""
    w, v = np.linalg.eig(build_full_liouvillian(params).toarray())
    order = np.argsort(np.abs(w))
    scale = np.abs(w).max()
    assert np.abs(w[order[0]]) <= 1e-10 * scale
    assert np.abs(w[order[1]]) >= 1e-6 * scale
    dim = hilbert_dim(params.n_atoms, params.photon_cutoff)
    rho = v[:, order[0]].reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def test_eig_and_solve_steady_state_paths_agree(rng):
    p = random_params(rng, 2, 1)
    r1 = oracle_steady_state(p)
    r2 = _dense_null_state(p)
    assert np.abs(r1 - r2).max() < 1e-9


def test_singular_solve_raises_solver_error():
    p = ModelParams(2, 1, 0.0, 1.0, 0.0)  # frozen atoms: singular bordering
    with pytest.warns(sp.linalg.MatrixRankWarning), \
            pytest.raises(SolverError, match="not finite"):
        oracle_steady_state(p)


def test_solve_path_reports_its_residual(monkeypatch):
    solve = sp.linalg.spsolve
    monkeypatch.setattr(sp.linalg, "spsolve", lambda A, b: solve(A, b) + 1e-3)
    with pytest.raises(SolverError, match=r"residual .* above tolerance"):
        oracle_steady_state(ModelParams(2, 1, 0.9, 1.0, 0.5))


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
