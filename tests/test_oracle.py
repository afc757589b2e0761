import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from blocklaser import ModelParams, enumerate_sector, oracle, propagate
from blocklaser.dynamics import (_TAIL_TOL, DegenerateSteadyStateError,
                                 SolverError)
from blocklaser.oracle import (DEFAULT_HILBERT_CAP, build_full_liouvillian,
                               hilbert_dim, oracle_expectations, oracle_g1,
                               oracle_g2, oracle_steady_state,
                               site_operators)
from blocklaser.symbasis import BasisElement
from blocklaser.model import random_params, rate_sum, to_gauge
from lifting import lift_element, lift_state


def sparse_site_operators(n_atoms, cutoff):
    """The per-atom sigma operators and the mode operators as
    ``oracle.site_operators`` built them before its dense operators: CSR
    matrices from nested ``scipy.sparse.kron`` products."""
    eye_ph = sp.identity(cutoff + 1, format="csr")
    mode = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)

    def embed(op2, j):
        left = sp.identity(2 ** j, format="csr")
        right = sp.identity(2 ** (n_atoms - 1 - j), format="csr")
        return sp.kron(sp.kron(sp.kron(left, sp.csr_matrix(op2)), right),
                       eye_ph, format="csr")

    a = sp.kron(sp.identity(2 ** n_atoms, format="csr"),
                sp.csr_matrix(mode), format="csr")
    atom = {"sp": np.array([[0.0, 1.0], [0.0, 0.0]]),
            "sm": np.array([[0.0, 0.0], [1.0, 0.0]]),
            "sz": np.diag([1.0, -1.0])}
    ops = {k: [embed(op2, j) for j in range(n_atoms)]
           for k, op2 in atom.items()}
    ops.update(a=a, adag=a.conj().T.tocsr())
    return ops


def sparse_dissipator(c, dim):
    """D[c] = c . c^+ - (1/2) c^+ c . - (1/2) . c^+ c by sparse ``kron``."""
    cdc = (c.conj().T @ c).tocsr()
    eye = sp.identity(dim, format="csr")
    return (sp.kron(c, c.conj(), format="csr")
            - 0.5 * sp.kron(cdc, eye, format="csr")
            - 0.5 * sp.kron(eye, cdc.T, format="csr"))


def sparse_kron_parts(n_atoms, cutoff):
    """The gauged unit parts as ``oracle._full_unit_parts`` built them
    before its one-pass assembly: sparse ``kron`` products of the sparse
    operators, added as sparse matrices, then taken to the photon gauge.
    The reference for the bit-identity of the dense Kronecker pass."""
    ops = sparse_site_operators(n_atoms, cutoff)
    dim = hilbert_dim(n_atoms, cutoff)
    eye = sp.identity(dim, format="csr")
    H = sp.csr_matrix((dim, dim), dtype=complex)   # H_1, at g = 1
    for j in range(n_atoms):
        H = H + 0.5 * (ops["sp"][j] @ ops["a"] + ops["sm"][j] @ ops["adag"])
    H = H.tocsr()

    def summed(label):
        return sum(sparse_dissipator(c, dim) for c in ops[label])

    parts = {
        "hamiltonian": 1j * (sp.kron(eye, H.T, format="csr")
                             - sp.kron(H, eye, format="csr")),
        "cavity_decay": sparse_dissipator(ops["a"], dim),
        "pump": summed("sp"),
        "spont": summed("sm"),
        "deph": 0.25 * summed("sz"),
    }
    power = oracle._photon_power(n_atoms, cutoff)
    return {name: to_gauge(part, power, name) for name, part in parts.items()}


def atom_swap(n_atoms, cutoff, i, j):
    """Unitary permutation exchanging atoms i and j (photon untouched)."""
    dim_at = 2 ** n_atoms
    perm = np.arange(dim_at)
    bi, bj = n_atoms - 1 - i, n_atoms - 1 - j
    for idx in range(dim_at):
        vi, vj = (idx >> bi) & 1, (idx >> bj) & 1
        out = idx & ~(1 << bi) & ~(1 << bj) | (vj << bi) | (vi << bj)
        perm[idx] = out
    P = sp.csr_matrix((np.ones(dim_at), (perm, np.arange(dim_at))),
                      shape=(dim_at, dim_at))
    return sp.kron(P, sp.identity(cutoff + 1), format="csr")


def _per_term_liouvillian(params):
    """The generator summed term by term, one Kronecker-built dissipator
    per rate and atom, each scaled by its rate: a reference for the
    cached unit parts."""
    ops = sparse_site_operators(params.n_atoms, params.photon_cutoff)
    dim = hilbert_dim(params.n_atoms, params.photon_cutoff)
    eye = sp.identity(dim, format="csr")
    H = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(params.n_atoms):
        H = H + 0.5 * params.coupling * (ops["sp"][j] @ ops["a"]
                                         + ops["sm"][j] @ ops["adag"])
    L = 1j * (sp.kron(eye, H.T, format="csr") - sp.kron(H, eye, format="csr"))
    L = L + params.cavity_decay * sparse_dissipator(ops["a"], dim)
    for j in range(params.n_atoms):
        for label, rate in (("sp", params.pump),
                            ("sm", params.spont_emission),
                            ("sz", 0.25 * params.dephasing)):
            if rate:
                L = L + rate * sparse_dissipator(ops[label][j], dim)
    return L.tocsr()


SYSTEMS_TO_64 = [(n, m) for n in range(1, 7)
                 for m in range(1, DEFAULT_HILBERT_CAP)
                 if hilbert_dim(n, m) <= DEFAULT_HILBERT_CAP]


def test_dense_site_operators_are_the_sparse_kron_operators():
    for n, m in SYSTEMS_TO_64:
        ops, ref = site_operators(n, m), sparse_site_operators(n, m)
        for k in ("sp", "sm", "sz"):
            assert len(ops[k]) == n
            for got, want in zip(ops[k], ref[k]):
                assert got.dtype == np.float64
                assert np.array_equal(got, want.toarray()), (n, m, k)
        for k in ("a", "adag"):
            assert np.array_equal(ops[k], ref[k].toarray()), (n, m, k)
        assert np.array_equal(ops["n"], (ref["adag"] @ ref["a"]).toarray())


def check_one_pass_parts_are_the_sparse_kron_parts(systems):
    """The cached unit parts of each (N, M) of ``systems`` are the sparse
    ``kron`` parts bit for bit: pattern, order, dtype and values."""
    for n, m in systems:
        parts, ref = oracle._full_unit_parts(n, m), sparse_kron_parts(n, m)
        assert list(parts) == list(ref)
        for name, part in parts.items():
            assert part.shape == ref[name].shape
            for attr in ("indptr", "indices", "data"):
                got, want = getattr(part, attr), getattr(ref[name], attr)
                assert got.dtype == want.dtype, (n, m, name, attr)
                assert np.array_equal(got, want), (n, m, name, attr)


def test_one_pass_parts_are_the_sparse_kron_parts_bit_for_bit():
    # every system under the cap; the exact zeros of the sums must go
    # (at (4, 2) the dephasing part would keep 144 of them)
    check_one_pass_parts_are_the_sparse_kron_parts(SYSTEMS_TO_64)


def check_unit_parts_reproduce_the_per_term_generator(systems, rng):
    """The generator of the cached unit parts is the term-by-term one, to
    1e-14 of its largest entry and with the same pattern, at a draw of
    ``rng`` per (N, M) of ``systems`` and with g, w or gamma and gamma_d
    set to zero."""
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


def test_unit_parts_reproduce_the_per_term_generator():
    systems = SYSTEMS_TO_64
    assert (1, 31) in systems and (5, 1) in systems and len(systems) == 57
    check_unit_parts_reproduce_the_per_term_generator(
        systems, np.random.default_rng(11))


def test_full_generator_is_real_in_the_photon_gauge():
    # kron(D, conj D), D = i^(n_ph), conjugates the generator, built term
    # by term or from the cached parts, to one with exactly zero imaginary
    # part, and the oracle's own gauged generator is that real matrix
    rng = np.random.default_rng(13)
    powers = np.array([1.0, 1.0j, -1.0, -1.0j])
    for n, m in SYSTEMS_TO_64:
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
                assert not gauged.data.imag.any(), (case,)
                assert np.abs(gauged.real - real).max() <= (
                    1e-14 * np.abs(real).max()), (case,)


def _flat_charges(n, m):
    """e_r - e_c of each flattened index, e = excited atoms + photons read
    off the diagonals of sum_j (s_j^z + 1)/2 and a^+ a."""
    ops = site_operators(n, m)
    e = sum(0.5 * (z.diagonal() + 1.0) for z in ops["sz"])
    e = e + (ops["adag"] @ ops["a"]).diagonal()   # sqrt(n)^2: not exact
    counts = np.rint(e).astype(int)
    assert np.abs(e - counts).max() < 1e-12
    return np.subtract.outer(counts, counts).reshape(-1)


def test_every_part_keeps_the_excitation_charge():
    rng = np.random.default_rng(17)
    systems = SYSTEMS_TO_64
    assert len(systems) == 57
    for n, m in systems:
        charge = _flat_charges(n, m)
        assert np.array_equal(oracle._excitation_charge(n, m), charge)
        mats = list(oracle._full_unit_parts(n, m).values())
        mats.append(_per_term_liouvillian(random_params(rng, n, m)))
        for mat in mats:
            coo = mat.tocoo()
            assert coo.nnz and np.array_equal(charge[coo.row],
                                              charge[coo.col]), (n, m)


def _full_space_steady(params):
    """Steady density matrix from the whole gauged generator: its row 0
    replaced by the trace row and one sparse solve over every index."""
    L = oracle._gauged_liouvillian(params)
    dim = hilbert_dim(params.n_atoms, params.photon_cutoff)
    coo = L.tocoo()
    keep = coo.row != 0
    bordered = sp.csc_matrix(
        (np.concatenate([coo.data[keep], np.ones(dim)]),
         (np.concatenate([coo.row[keep], np.zeros(dim, dtype=int)]),
          np.concatenate([coo.col[keep], np.arange(dim) * (dim + 1)]))),
        shape=L.shape)
    rhs = np.zeros(L.shape[0])
    rhs[0] = 1.0
    photons = np.tile(np.arange(params.photon_cutoff + 1), 2 ** params.n_atoms)
    phase = np.array([1.0, 1.0j, -1.0, -1.0j])[photons % 4]
    rho = (sp.linalg.spsolve(bordered, rhs).reshape(dim, dim)
           * np.outer(phase.conj(), phase))
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def test_charge_block_solve_matches_the_full_space_solve():
    rng = np.random.default_rng(19)
    systems = [(n, m) for n in range(1, 5) for m in (1, 2)]
    cases = [random_params(rng, *systems[k % len(systems)]) for k in range(20)]
    cases += [random_params(rng, 1, 31), random_params(rng, 5, 1)]
    for p in cases:
        rho, ref = oracle_steady_state(p), _full_space_steady(p)
        assert np.abs(rho - ref).max() <= 1e-12 * np.abs(ref).max(), (p,)


def _sliced_block(params, charge):
    """The full-space path: the whole gauged generator summed, then cut to
    one excitation-charge block."""
    index = np.flatnonzero(oracle._excitation_charge(
        params.n_atoms, params.photon_cutoff) == charge)
    return index, oracle._charge_block(oracle._gauged_liouvillian(params),
                                       index)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 2)])
def test_block_generator_is_the_block_of_the_full_generator(n, m):
    rng = np.random.default_rng(23)
    p = random_params(rng, n, m)
    charges = np.unique(oracle._excitation_charge(n, m))
    for case in (p, dataclasses.replace(p, pump=p.spont_emission),
                 dataclasses.replace(p, coupling=0.0), p):
        for q in charges:
            index, got = oracle._block_liouvillian(case, int(q))
            ref_index, ref = _sliced_block(case, int(q))
            assert np.array_equal(index, ref_index)
            assert got.shape == ref.shape
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, name),
                                      getattr(ref, name)), (q, name, case)


def test_block_path_is_bit_identical_to_the_full_space_path(monkeypatch):
    # the first 10 of criterion 1's 50 draws per system
    # (tests/test_acceptance.py), steady state and g1/g2 traces on its
    # grid, with the block generator from the cached block parts and from
    # the full-space sum
    draws = []
    for n in (1, 2, 3, 4):
        for m in (1, 2):
            rng = np.random.default_rng(1000 + 10 * n + m)
            draws += [random_params(rng, n, m) for _ in range(10)]
    block_path = oracle._block_liouvillian
    for p in draws:
        times = np.linspace(0.0, 5.0 / p.cavity_decay, 100)
        results = []
        for path in (block_path, _sliced_block):
            monkeypatch.setattr(oracle, "_block_liouvillian", path)
            rho = oracle_steady_state(p)
            results.append((rho, oracle_g1(p, times, rho_ss=rho),
                            oracle_g2(p, times, rho_ss=rho)))
        for got, ref in zip(*results):
            assert np.array_equal(got, ref), p


def _sparse_rate_sum(params, parts):
    """The rate-weighted sum of ``parts`` in sparse arithmetic, zero rates
    skipped: the reference for the array sum of ``model.rate_sum``, which
    the oracle's whole-space and block generators call."""
    rates = {"hamiltonian": params.coupling,
             "cavity_decay": params.cavity_decay, "pump": params.pump,
             "spont": params.spont_emission, "deph": params.dephasing}
    total = sp.csr_matrix(parts["hamiltonian"].shape)
    for name, rate in rates.items():
        if rate != 0.0:
            total = total + rate * parts[name]
    return total.tocsr()


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (4, 2), (1, 31)])
def test_array_rate_sum_is_the_sparse_sum_bit_for_bit(n, m):
    rng = np.random.default_rng(29)
    p = random_params(rng, n, m)
    full = oracle._full_unit_parts(n, m)
    charge = oracle._excitation_charge(n, m)
    for case in (p, dataclasses.replace(p, pump=p.spont_emission),
                 dataclasses.replace(p, coupling=0.0, dephasing=0.0), p):
        pairs = [(oracle._gauged_liouvillian(case),
                  _sparse_rate_sum(case, full))]
        for q in np.unique(charge):
            index = np.flatnonzero(charge == q)
            block = {name: oracle._charge_block(part, index)
                     for name, part in full.items()}
            pairs.append((oracle._block_liouvillian(case, int(q))[1],
                          _sparse_rate_sum(case, block)))
        for got, ref in pairs:
            assert got.shape == ref.shape
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype, (name, case)
                assert np.array_equal(a, b), (name, case)
                # the sum owns its arrays: the cached plan stays intact
                a[:] = 0


def test_cached_parts_do_not_leak_into_later_builds():
    # the second system is exactly one unit part: cavity decay at rate 1;
    # the whole generator and a block generator, each built twice
    def block(p):
        return oracle._block_liouvillian(p, -1)[1]

    for p in (ModelParams(3, 1, 0.8, 1.2, 0.4, spont_emission=0.1,
                          dephasing=0.3),
              ModelParams(3, 1, 0.0, 1.0, 0.0)):
        for build in (build_full_liouvillian, block):
            first = build(p)
            expected = first.copy()
            first.data[:] = 7.0
            first.resize((4, 4))
            again = build(p)
            assert again.shape == expected.shape
            assert abs(again - expected).max() == 0.0
    # the cached dense operators cannot be written to
    ops = site_operators(3, 1)
    for op in (*ops["sp"], *ops["sm"], *ops["sz"], ops["a"], ops["adag"],
               ops["n"]):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 3.0


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


def _lapack_warnings(caught):
    """The ``LinAlgWarning``s among recorded warnings: LAPACK's zero-pivot
    warning must not escape the typed error."""
    return [w for w in caught
            if issubclass(w.category, scipy.linalg.LinAlgWarning)]


def test_singular_solve_raises_solver_error():
    p = ModelParams(2, 1, 0.0, 1.0, 0.0)  # frozen atoms: singular bordering
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError,
                           match="even half .* is singular") as err:
            oracle_steady_state(p)
    assert isinstance(err.value, DegenerateSteadyStateError)
    assert not _lapack_warnings(caught)


def test_solve_path_reports_its_residual(monkeypatch):
    lu_solve = scipy.linalg.lu_solve

    def shifted(factor, rhs, **kwargs):
        """The dense factor's solve, off by 1e-3 in every entry."""
        return lu_solve(factor, rhs, **kwargs) + 1e-3

    monkeypatch.setattr(scipy.linalg, "lu_solve", shifted)
    with pytest.raises(SolverError, match=r"residual .* above tolerance"):
        oracle_steady_state(ModelParams(2, 1, 0.9, 1.0, 0.5))


def _transposition(n, m):
    """(index, twin, r, c): the sorted charge-0 flattened indices r dim + c,
    and the block position of c dim + r for each."""
    dim = hilbert_dim(n, m)
    index = np.flatnonzero(_flat_charges(n, m) == 0)
    r, c = np.divmod(index, dim)
    twin = np.searchsorted(index, c * dim + r)
    assert np.array_equal(index[twin], c * dim + r)
    return index, twin, r, c


def test_transposition_commutes_with_every_charge0_part():
    # rho -> rho^+ is the transposition of flattened indices in the photon
    # gauge; the cached helper asserts the same, entry by entry
    systems = SYSTEMS_TO_64
    assert {(1, 31), (5, 1), (3, 7)} <= set(systems) and len(systems) == 57
    for n, m in systems:
        index, twin, r, c = _transposition(n, m)
        for name, part in oracle._full_unit_parts(n, m).items():
            block = oracle._charge_block(part, index)
            assert (block[twin][:, twin] != block).nnz == 0, (n, m, name)
        slot, even, odd = oracle._hermitian_halves(n, m)
        assert even.shape == (np.count_nonzero(r <= c),) * 2, (n, m)
        assert odd.shape == (np.count_nonzero(r < c),) * 2, (n, m)
    assert [oracle._hermitian_halves(4, 2)[k].shape[0] for k in (1, 2)] == [
        269, 221]


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (4, 2), (5, 1), (1, 31),
                                 (3, 7)])
def test_halves_reproduce_the_block_on_its_even_and_odd_vectors(n, m):
    rng = np.random.default_rng(31)
    index, twin, r, c = _transposition(n, m)
    even_rows, odd_rows = np.flatnonzero(r <= c), np.flatnonzero(r < c)
    slot, even_plan, odd_plan = oracle._hermitian_halves(n, m)
    p = random_params(rng, n, m)
    for case in (p, dataclasses.replace(p, coupling=0.0),
                 dataclasses.replace(p, pump=0.0, dephasing=0.0)):
        L = oracle._block_liouvillian(case, 0)[1]
        even, odd = rate_sum(case, even_plan), rate_sum(case, odd_plan)
        x_even = rng.standard_normal(even.shape[0])
        x = x_even[slot]
        assert np.array_equal(x[twin], x) and np.array_equal(x[even_rows],
                                                             x_even)
        x_odd = rng.standard_normal(odd.shape[0])
        y = np.zeros(len(index))
        y[odd_rows], y[twin[odd_rows]] = x_odd, -x_odd
        for vec, rows, half, part in ((x, even_rows, even, x_even),
                                      (y, odd_rows, odd, x_odd)):
            full = L @ vec
            scale = (abs(L) @ np.abs(vec)).max()
            assert np.abs(full[rows] - half @ part).max() <= 1e-14 * scale
            # the block keeps the vector's parity
            sign = 1.0 if half is even else -1.0
            assert np.abs(full[twin] - sign * full).max() <= 1e-14 * scale


def _folded_halves(block, n, m):
    """(even, odd): one charge-0 block matrix folded under rho -> rho^+ as
    the definition reads: even rows r <= c, each column summed with its
    twin, and odd rows r < c, twin columns with sign -1, exact zeros of
    the sums dropped."""
    index, twin, r, c = _transposition(n, m)
    even, odd = np.flatnonzero(r <= c), np.flatnonzero(r < c)
    slot = np.empty(len(index), dtype=np.int64)
    slot[even] = slot[twin[even]] = np.arange(len(even))
    odd_slot = np.zeros(len(index), dtype=np.int64)
    odd_slot[odd] = odd_slot[twin[odd]] = np.arange(len(odd))
    sign = np.where(r < c, 1.0, -1.0)
    coo = block.tocoo()
    rows, cols, data = coo.row, coo.col, coo.data
    keep = r[rows] <= c[rows]
    halves = [sp.csr_matrix((data[keep], (slot[rows[keep]],
                                          slot[cols[keep]])),
                            shape=(len(even),) * 2)]
    keep = (r[rows] < c[rows]) & (r[cols] != c[cols])
    halves.append(sp.csr_matrix(((data * sign[cols])[keep],
                                 (odd_slot[rows[keep]],
                                  odd_slot[cols[keep]])),
                                shape=(len(odd),) * 2))
    for half in halves:
        half.eliminate_zeros()
    return halves


def test_half_sums_are_the_folded_block_of_the_whole_sum_bit_for_bit():
    # the first 10 of criterion 1's 50 draws per system
    # (tests/test_acceptance.py): the halves the steady solve sums from
    # their cached plans against the halves folded from the charge-0
    # block of the whole-space sum
    for n in (1, 2, 3, 4):
        for m in (1, 2):
            rng = np.random.default_rng(1000 + 10 * n + m)
            index = _transposition(n, m)[0]
            _, even_plan, odd_plan = oracle._hermitian_halves(n, m)
            for _ in range(10):
                p = random_params(rng, n, m)
                block = oracle._charge_block(oracle._gauged_liouvillian(p),
                                             index)
                for got, ref in zip((rate_sum(p, even_plan),
                                     rate_sum(p, odd_plan)),
                                    _folded_halves(block, n, m)):
                    for name in ("data", "indices", "indptr"):
                        assert np.array_equal(getattr(got, name),
                                              getattr(ref, name)), (p, name)


def test_singular_odd_half_raises(monkeypatch):
    # no parameter set leaves only the odd half singular, so the cached
    # odd half gets an empty column
    p = ModelParams(2, 1, 0.9, 1.0, 0.5)
    oracle_steady_state(p)
    slot, even, odd = oracle._hermitian_halves(2, 1)
    kept = odd.indices != 0
    emptied = odd._replace(parts={name: (data * kept[slots], slots)
                                  for name, (data, slots) in odd.parts.items()})
    assert rate_sum(p, emptied).getcol(0).nnz == 0
    monkeypatch.setattr(oracle, "_hermitian_halves",
                        lambda n, m: (slot, even, emptied))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateSteadyStateError, match="odd half"):
            oracle_steady_state(p)
    assert not _lapack_warnings(caught)


def _whole_block_g2(params, times, rho):
    """(g2, walk): g2 walked on the whole charge-0 block, the reference
    for ``oracle_g2``'s even half: the seed a rho a^+, Hermitian or not,
    and the readout of a^+ a in the photon gauge, both cut to the block."""
    n, m = params.n_atoms, params.photon_cutoff
    ops = site_operators(n, m)
    a = ops["a"]
    phase = np.array([1.0, 1.0j, -1.0, -1.0j])[oracle._photon_power(n, m) & 3]
    seed = (a @ rho @ a.conj().T).reshape(-1) * phase
    readout = ops["n"].T.reshape(-1) * phase.conj()
    block, L = oracle._block_liouvillian(params, 0)
    walk = propagate(L, seed[block], times, observe=readout[block])
    return walk.values.real / oracle_expectations(params, rho)["nb"] ** 2, walk


def _recorded_walks(call):
    """(result, walks): ``call()`` with each of the oracle's ``propagate``
    calls recorded as (generator rows, Propagation)."""
    walks = []

    def recording(L, c0, times, observe=None):
        walk = propagate(L, c0, times, observe=observe)
        walks.append((L.shape[0], walk))
        return walk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "propagate", recording)
        return call(), walks


#: out to t = 200, where most charge-0 walks end in their analytic tail
GEOMETRIC_GRID = np.concatenate([[0.0], np.geomspace(0.01, 200.0, 60)])


def check_g2_on_the_even_half(params, times):
    """``oracle_g2`` walks the even half of the charge-0 block, and agrees
    with the walk of the whole block to 1e-12 of max|g2| at every delay
    read before either walk's analytic tail. The tail's start is decided
    by a rounding-level Re theta < 0 there (ROADMAP item 10), so after it
    the two walks, each certified to ``_TAIL_TOL`` of its state, differ
    by up to 1.2e-12 of max|g2| in these cases (the whole block's walk
    being the one off); the gate there is ten times the tail tolerance."""
    rho = oracle_steady_state(params)
    # through the module, so that a seeded fault in it is what runs
    got, walks = _recorded_walks(lambda: oracle.oracle_g2(params, times,
                                                          rho_ss=rho))
    ref, ref_walk = _whole_block_g2(params, times, rho)
    _, even, _ = oracle._hermitian_halves(params.n_atoms,
                                          params.photon_cutoff)
    assert [rows for rows, _ in walks] == [even.shape[0]], params
    tails = [w.tail_delay for w in (walks[0][1], ref_walk)
             if w.tail_delay is not None]
    walked = np.asarray(times) <= min(tails, default=np.inf)
    dev, scale = np.abs(got - ref), np.abs(ref).max()
    assert dev[walked].max() <= 1e-12 * scale, params
    assert dev.max() <= 10 * _TAIL_TOL * scale, params


def test_g2_on_the_even_half_matches_the_whole_block_walk():
    # the first 10 of criterion 1's 50 draws per system
    # (tests/test_acceptance.py), and the widest systems under the cap
    draws = []
    for n in (1, 2, 3, 4):
        for m in (1, 2):
            rng = np.random.default_rng(1000 + 10 * n + m)
            draws += [random_params(rng, n, m) for _ in range(10)]
    rng = np.random.default_rng(41)
    draws += [random_params(rng, 1, 31), random_params(rng, 5, 1)]
    for p in draws:
        for times in (np.linspace(0.0, 5.0 / p.cavity_decay, 100),
                      GEOMETRIC_GRID):
            check_g2_on_the_even_half(p, times)


def test_g2_of_a_non_hermitian_state_is_the_whole_block_walk():
    # a rho a^+ is not Hermitian here, yet only its Hermitian part reaches
    # the readout a^+ a, so the even half still gives the whole block's g2
    p = ModelParams(3, 2, 0.9, 1.0, 0.5, spont_emission=0.1, dephasing=0.2)
    rho = oracle_steady_state(p)
    skewed = rho + 0.1 * rho @ site_operators(3, 2)["n"]
    assert not np.allclose(skewed, skewed.conj().T)
    times = np.linspace(0.0, 4.0, 21)
    got, walks = _recorded_walks(lambda: oracle.oracle_g2(p, times,
                                                          rho_ss=skewed))
    _, even, _ = oracle._hermitian_halves(3, 2)
    assert [rows for rows, _ in walks] == [even.shape[0]]
    ref, _ = _whole_block_g2(p, times, skewed)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_oracle_traces_raise_at_zero_photon_number():
    # g = 0: the pumped atoms never feed the mode, so <a^+ a> = 0
    p = ModelParams(2, 1, 0.0, 1.0, 0.5)
    rho = oracle_steady_state(p)
    assert oracle_expectations(p, rho)["nb"] == 0.0
    for trace, label in ((oracle_g1, "g1"), (oracle_g2, "g2")):
        with pytest.raises(SolverError, match=f"zero photon number; {label}"):
            trace(p, [0.0, 1.0], rho_ss=rho)


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
    a, ad = ops["a"], ops["adag"]
    # truncated commutation: [a, a+] = 1 - 2 a+ a at M = 1
    comm = a @ ad - ad @ a
    assert np.abs(comm - (np.eye(8) - 2 * ad @ a)).max() < 1e-14
    for j in range(2):
        sp_, sm_, sz_ = (ops[k][j] for k in ("sp", "sm", "sz"))
        assert np.abs(sp_ @ sm_ - sm_ @ sp_ - sz_).max() < 1e-14
