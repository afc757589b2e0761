import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from blocklaser import (ModelParams, enumerate_sector, build_liouvillian,
                        expect_photon_number, expect_sigma_z,
                        liouvillian_for, photon_trace_weights, propagate,
                        steady_state, trace_functional)
from blocklaser import liouvillian
from blocklaser.liouvillian import (_part_terms, _photon_hs_norm, _sum_plan,
                                    _unit_parts, basis_scaling, chain_matrix,
                                    gauge_power)
from blocklaser.dynamics import SymmetricState
from blocklaser.oracle import (_full_unit_parts, build_full_liouvillian,
                               oracle_expectations, oracle_steady_state)
from blocklaser.model import PART_RATES, from_gauge, random_params, to_gauge
from lifting import lift_element, lift_state

RATES = ("coupling", "cavity_decay", "pump", "spont_emission", "dephasing")


def only(params, rate):
    """``params`` with every rate but ``rate`` set to 0: its Liouvillian is
    that one part of the master equation."""
    return replace(params, **{r: 0.0 for r in RATES if r != rate})


def test_photon_trace_weights_match_direct_traces():
    assert photon_trace_weights(1).tolist() == [2.0, 1.0]
    assert photon_trace_weights(2).tolist() == [3.0, 3.0, 2.0]
    # direct evaluation Tr[(a^+)^m a^m] = sum_n n!/(n-m)!
    for M in (1, 2, 3, 5):
        a = np.diag(np.sqrt(np.arange(1, M + 1)), k=1)
        pm = photon_trace_weights(M)
        for m in range(M + 1):
            direct = np.trace(np.linalg.matrix_power(a.T, m)
                              @ np.linalg.matrix_power(a, m))
            assert pm[m] == pytest.approx(direct, rel=1e-13)
        assert pm[0] == M + 1
        assert np.all(pm > 0)


def test_trace_functional_support():
    sector = enumerate_sector(2, 1, 0)
    t = trace_functional(sector)
    assert np.count_nonzero(t) == 2
    nz = {sector.elements[k]: t[k] for k in np.nonzero(t)[0]}
    assert {tuple(e): w for e, w in nz.items()} == {
        (0, 0, 0, 0, 0): 2.0, (0, 0, 0, 1, 1): 1.0}
    # no traceable element outside the charge-0 sector
    assert not trace_functional(enumerate_sector(2, 1, 1)).any()


def test_trace_annihilates_each_part(rng):
    for _ in range(6):
        p = random_params(rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)))
        sector = enumerate_sector(p.n_atoms, p.photon_cutoff, 0)
        t = trace_functional(sector)
        scale = np.abs(t).max()
        for rate in RATES:
            part = build_liouvillian(only(p, rate), sector).physical()
            bound = 1e-12 * scale * max(1.0, np.abs(part.data).max() if part.nnz else 1.0)
            assert np.abs(t @ part).max() < bound, rate


@pytest.mark.parametrize("n_atoms,cutoff", [(1, 18), (1, 31), (2, 15),
                                            (3, 7)])
def test_trace_annihilates_every_part_column_by_column(n_atoms, cutoff):
    # |t . P| against |t| . |P| per column: the photon traces in t span
    # 32 to 8.5e33 at M = 31, so a bound on max|t| cannot see a column
    # whose small truncation terms (1/M! and below) went missing
    sector = enumerate_sector(n_atoms, cutoff, 0)
    t = trace_functional(sector)
    for name, part in _unit_parts(n_atoms, cutoff, 0).items():
        P = from_gauge(part, gauge_power(sector))
        assert np.all(np.abs(t @ P) <= 1e-14 * (np.abs(t) @ abs(P))), name


def test_steady_state_past_cutoff_18_meets_the_oracle():
    # this draw passed every gate of the solve with nb = 29.69 and
    # sz = 0.737 (the oracle: 0.576 and 0.055) while truncation terms
    # below 1e-15 were dropped from its parts; in the raw photon basis
    # it now keeps about 4 digits (ROADMAP item 8)
    rng = np.random.default_rng(130)
    random_params(rng, 1, 30)
    p = random_params(rng, 1, 30)
    ss = steady_state(liouvillian_for(p, 0))
    ref = oracle_expectations(p, oracle_steady_state(p))
    for name, value in (("nb", expect_photon_number(ss)),
                        ("sz", expect_sigma_z(ss))):
        assert abs(value - ref[name]) <= 1e-4 * (1 + abs(ref[name])), name


def test_trace_conservation_full_liouvillian(rng):
    for n_atoms in (3, 40):
        p = random_params(rng, n_atoms, 1)
        L = liouvillian_for(p, 0)
        t = trace_functional(L.sector)
        resid = np.abs(t @ L.physical()).max()
        scale = np.abs(t).max() * np.abs(L.matrix.data).max()
        assert resid <= 1e-12 * scale


def test_zero_rates_give_zero_parts():
    p = ModelParams(2, 1, 0.0, 0.0, 0.0, 0.0, 0.0)
    sector = enumerate_sector(2, 1, 0)
    assert build_liouvillian(p, sector).matrix.nnz == 0


def test_dephasing_part_is_diagonal():
    p = ModelParams(3, 1, 0.4, 0.7, 0.2, 0.1, 0.9)
    sector = enumerate_sector(3, 1, 0)
    deph = build_liouvillian(only(p, "dephasing"), sector).matrix
    dense = deph.toarray()
    assert np.abs(dense - np.diag(np.diag(dense))).max() == 0.0
    for k, e in enumerate(sector.elements):
        expected = -0.5 * p.dephasing * (e.n_plus + e.n_minus)
        assert dense[k, k] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n_atoms,cutoff", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)])
def test_lifted_action_equals_full_space_action(n_atoms, cutoff, rng):
    p = random_params(rng, n_atoms, cutoff)
    sector = enumerate_sector(n_atoms, cutoff, 0)
    L = build_liouvillian(p, sector)
    Lfull = build_full_liouvillian(p)
    c = rng.normal(size=len(sector)) + 1j * rng.normal(size=len(sector))
    lifted = lift_state(SymmetricState(sector, L.physical() @ c)).reshape(-1)
    direct = Lfull @ lift_state(SymmetricState(sector, c)).reshape(-1)
    scale = np.abs(direct).max()
    assert np.abs(lifted - direct).max() < 1e-12 * scale


def test_hamiltonian_action_matches_commutator(rng):
    p = ModelParams(2, 1, 0.8, 0.0, 0.0)
    sector = enumerate_sector(2, 1, 0)
    ham = build_liouvillian(p, sector).physical()
    Lfull = build_full_liouvillian(p)  # only the commutator survives
    c = rng.normal(size=len(sector)) + 1j * rng.normal(size=len(sector))
    lifted = lift_state(SymmetricState(sector, ham @ c)).reshape(-1)
    direct = Lfull @ lift_state(SymmetricState(sector, c)).reshape(-1)
    assert np.abs(lifted - direct).max() < 1e-12


def test_projection_of_full_liouvillian_reproduces_sector_matrix(rng):
    p = random_params(rng, 2, 1)
    sector = enumerate_sector(2, 1, 0)
    assert len(sector) == 12
    L = build_liouvillian(p, sector)
    Lfull = build_full_liouvillian(p).toarray()
    B = np.column_stack([lift_element(e, 2, 1).reshape(-1)
                         for e in sector.elements])
    projected, *_ = np.linalg.lstsq(B, Lfull @ B, rcond=None)
    assert np.abs(projected - L.physical().toarray()).max() < 1e-10


def test_spectrum_lies_in_left_half_plane(rng):
    for _ in range(4):
        p = random_params(rng, int(rng.integers(1, 5)), 1)
        L = liouvillian_for(p, 0)
        d = basis_scaling(p.n_atoms, 1, 0)
        scaled = (np.diag(d) @ L.physical().toarray()) @ np.diag(1.0 / d)
        w = np.linalg.eigvals(scaled)
        assert w.real.max() < 1e-10 * max(1.0, np.abs(w).max())


def test_hermiticity_conjugation_commutes_with_evolution(rng):
    p = random_params(rng, 3, 1)
    sector = enumerate_sector(3, 1, 0)
    L = build_liouvillian(p, sector)
    # build a Hermitian-symmetric coefficient vector: c(e) = conj(c(swap e))
    c = rng.normal(size=len(sector)) + 1j * rng.normal(size=len(sector))
    swap = [sector.index_of(type(e)(e.n_minus, e.n_plus, e.n_z, e.n_a, e.n_adag))
            for e in sector.elements]
    c = c + np.conj(c[swap])
    out = propagate(L, c, [1.3]).values[0]
    sym_defect = np.abs(out - np.conj(out[swap])).max()
    assert sym_defect < 1e-10 * np.abs(out).max()


def test_sector_must_match_params():
    p = ModelParams(3, 1, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        build_liouvillian(p, enumerate_sector(2, 1, 0))


def test_one_sector_is_assembled_once(rng):
    # the plan holds the only cached copy of the sector's parts, as
    # float64: their complex builds bypass chain_matrix's cache
    chain_matrix.cache_clear()
    _sum_plan.cache_clear()
    sector = enumerate_sector(5, 1, 0)
    build_liouvillian(random_params(rng, 5, 1), sector)
    build_liouvillian(random_params(rng, 5, 1), sector)
    liouvillian_for(random_params(rng, 5, 1), 0)
    assert _sum_plan.cache_info().misses == 1
    assert chain_matrix.cache_info().currsize == 0
    plan = _sum_plan(5, 1, 0)
    assert list(plan.parts) == list(_part_terms(5))
    assert all(data.dtype == np.float64 for data, _ in plan.parts.values())


def test_both_routes_name_the_same_parts_in_the_rate_order():
    # the shared rate table adds the parts of both routes, so each route
    # must build exactly its five parts, named and ordered as the table
    names = list(PART_RATES)
    for n_atoms in (1, 3):
        assert names == list(_part_terms(n_atoms))
        assert names == list(_full_unit_parts(n_atoms, 1))
    assert list(PART_RATES.values()) == list(RATES)


def sparse_sum(params, unit):
    """The Liouvillian as the rate-weighted sum of the unit parts ``unit``
    in sparse arithmetic, zero rates and empty parts skipped: the
    reference for the array sum of ``build_liouvillian``."""
    total = sp.csr_matrix(unit["hamiltonian"].shape)
    for name, field in PART_RATES.items():
        rate = getattr(params, field)
        if rate != 0.0 and unit[name].nnz:
            total = total + rate * unit[name]
    return total.tocsr()


@pytest.mark.parametrize("n_atoms,cutoff,delta_n", [
    (1, 1, 0), (3, 2, 0), (4, 2, -1), (10, 3, 2), (24, 1, -1), (100, 1, 0),
    (2, 1, 4)])
def test_array_sum_is_the_sparse_sum_bit_for_bit(n_atoms, cutoff, delta_n,
                                                 rng):
    sector = enumerate_sector(n_atoms, cutoff, delta_n)
    unit = _unit_parts(n_atoms, cutoff, delta_n)
    p = random_params(rng, n_atoms, cutoff)
    cases = [p, replace(p, coupling=0.0, dephasing=0.0),
             replace(p, cavity_decay=0.0, spont_emission=0.0),
             # the s^z terms of pump and emission cancel exactly
             replace(p, pump=p.spont_emission),
             # a build after the cancelling one must not see its pattern
             p, random_params(rng, n_atoms, cutoff)]
    for case in cases:
        got, ref = build_liouvillian(case, sector).matrix, sparse_sum(case, unit)
        assert got.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), (
                name, case)
            # a built matrix owns its arrays: writing to them in place
            # leaves the cached plan, and so every later build, intact
            getattr(got, name)[:] = 0
    if len(sector):   # the cancelling case drops entries of the pattern
        cancelled = build_liouvillian(cases[3], sector).matrix
        assert cancelled.nnz < len(_sum_plan(n_atoms, cutoff, delta_n).indices)


def entrywise_unit_parts(expand, n_atoms, cutoff, delta_n):
    """The unit parts rebuilt column by column: each column's chains run
    on that element alone (the ``expand`` fixture), summed in a dict, and
    taken to the photon gauge."""
    sector = enumerate_sector(n_atoms, cutoff, delta_n)
    dim = len(sector)
    parts = {}
    for name, chains in _part_terms(n_atoms).items():
        rows, cols, vals = [], [], []
        for j, e in enumerate(sector.elements):
            acc = {}
            for coef, kinds in chains:
                for f, w in expand(kinds, e, n_atoms, cutoff).items():
                    acc[f] = acc.get(f, 0.0) + coef * w
            for f, v in acc.items():
                if v != 0.0:
                    rows.append(sector.index_of(f))
                    cols.append(j)
                    vals.append(v)
        mat = sp.csr_matrix((np.asarray(vals, dtype=complex), (rows, cols)),
                            shape=(dim, dim))
        parts[name] = to_gauge(mat, gauge_power(sector), name)
    return parts


def canonical_coo(mat):
    coo = mat.tocoo()
    order = np.lexsort((coo.col, coo.row))
    return coo.row[order], coo.col[order], coo.data[order]


@pytest.mark.parametrize("n_atoms,cutoff,delta_n", [
    (1, 1, 0), (1, 2, 1), (3, 2, 0), (3, 2, -1), (4, 3, 2), (24, 1, -1),
    (2, 1, 4)])
def test_array_assembly_equals_entrywise_expansion(n_atoms, cutoff, delta_n,
                                                   monkeypatch, expand):
    ref = entrywise_unit_parts(expand, n_atoms, cutoff, delta_n)
    dim = len(enumerate_sector(n_atoms, cutoff, delta_n))
    builds = [_unit_parts(n_atoms, cutoff, delta_n)]
    monkeypatch.setattr(liouvillian, "ASSEMBLY_BLOCK", 7)  # many blocks
    builds.append(_unit_parts(n_atoms, cutoff, delta_n))
    for got in builds:
        assert got.keys() == ref.keys()
        for name in ref:
            assert got[name].shape == (dim, dim)
            for a, b in zip(canonical_coo(got[name]), canonical_coo(ref[name])):
                assert np.array_equal(a, b), name
    if delta_n == 4:  # |delta_n| > N + M: the empty sector
        assert dim == 0


def test_basis_scaling_matches_lifted_norms():
    # the internal conditioning weights are the Hilbert-Schmidt norms of
    # the lifted elements, normalized to the contentless element
    for n_atoms, cutoff, delta in [(3, 1, 0), (2, 2, -1), (3, 2, 1)]:
        sector = enumerate_sector(n_atoms, cutoff, delta)
        d = basis_scaling(n_atoms, cutoff, delta)
        ref = np.linalg.norm(lift_element(type(sector.elements[0])(0, 0, 0, 0, 0),
                                          n_atoms, cutoff))
        for k, e in enumerate(sector.elements):
            norm = np.linalg.norm(lift_element(e, n_atoms, cutoff))
            assert d[k] == pytest.approx(norm / ref, rel=1e-11)


def per_element_scaling(n_atoms, cutoff, delta_n):
    """The per-element loop that ``basis_scaling`` replaced, over the
    content rows. Each atomic and each photon logarithm is computed once
    and reused by the rows that share it: the same floats, since the loop
    computed each from the counts alone."""
    contents = enumerate_sector(n_atoms, cutoff, delta_n).contents
    N = n_atoms
    log_photon = {(p, q): math.log(_photon_hs_norm(p, q, cutoff))
                  for p in range(cutoff + 1) for q in range(cutoff + 1)}
    ref = math.log(_photon_hs_norm(0, 0, cutoff))
    logs = []
    atomic = None
    for row in contents.tolist():
        if row[:3] != atomic:   # rows come grouped by atomic content
            atomic = row[:3]
            n_plus, n_minus, n_z = atomic
            n_i = N - n_plus - n_minus - n_z
            log_atomic = 0.5 * (
                math.lgamma(n_plus + 1) + math.lgamma(n_minus + 1)
                + math.lgamma(n_z + 1) + math.lgamma(n_i + 1)
                - math.lgamma(N + 1)
            ) + 0.5 * (n_z + n_i - N) * math.log(2.0)
        logs.append(log_atomic + log_photon[row[3], row[4]] - ref)
    return np.exp(np.array(logs, dtype=float))


@pytest.mark.parametrize("n_atoms", [1, 4, 24, 100, 150])
@pytest.mark.parametrize("cutoff", [1, 2, 7])
def test_basis_scaling_equals_the_per_element_loop(n_atoms, cutoff):
    for delta in range(-2, 3):
        d = basis_scaling(n_atoms, cutoff, delta)
        ref = per_element_scaling(n_atoms, cutoff, delta)
        assert d.dtype == ref.dtype and np.array_equal(d, ref), delta
