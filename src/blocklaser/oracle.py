"""Brute-force full-Hilbert-space reference implementation.

Everything here works on the unreduced space (C^2)^(x N) (x) C^(M+1)
with explicit per-atom operators and no symmetry assumptions; it defines
ground truth for the symmetry-reduced solver at small N. Density
matrices are flattened row-major, so A rho B maps to (A kron B^T) acting
on the flattened vector.

Like the sector generators, the full generator is a rate-weighted sum
of five unit-rate parts. This module builds its own parts, each once per
(N, M), cached; ``rate_sum`` of ``blocklaser.model``, shared with the
sector builder, adds them. The explicit per-atom and mode operators of
``site_operators`` are dense float64 arrays, ``np.kron`` of the 2 x 2
and (M+1) x (M+1) matrices, built once per (N, M). Each part is a list
of terms coef A rho B on them (``_part_terms``), and ``_kron_sum``
assembles it in one pass: every term adds the outer product of the
nonzeros of A and of B^T, and one COO -> CSR construction sums them.
The cached operators and parts are shared and must not be modified;
``build_full_liouvillian`` always returns a new matrix. Of
the package the module imports only ``blocklaser.model`` and, from
``dynamics``, the propagator, ``SolverError`` and
``DegenerateSteadyStateError`` (tests/test_imports.py checks this), so
its parts stay an independent check.

The numerics run in the photon gauge: with D = i^(n_ph) on the Hilbert
space, rho -> D rho D^+ is the similarity kron(D, conj D) on flattened
density matrices, which multiplies entry r dim + c by i^(n_r - n_c). It
takes a to -i a and a^+ to i a^+, so i[rho, H] and every dissipator
become real. Each unit part is taken there once, as it is built, by the
gauge that the sector route uses too (``model.to_gauge``, with exponent
n_r - n_c per flattened index), and kept as float64 alone.
``oracle_steady_state`` factors a real bordered matrix, and
``oracle_g1`` and ``oracle_g2`` walk the real generator with a seed and
a readout that are real up to a power of i, so the propagator runs in
float64.
Multiplying by a power of i is exact, so the gauge changes no value by
more than the rounding of the real arithmetic; ``build_full_liouvillian``
takes the sum back out of the gauge (``model.from_gauge``) and returns
the physical complex generator.

Every part also keeps the excitation charge e_r - e_c of a flattened
|r><c|, e the number of excited atoms plus photons (see
``_excitation_charge``); ``_full_unit_parts`` asserts it entry by entry,
so the generator is block-diagonal in it. Each unit part's slice to one
charge block is cached too, per (N, M, charge), and the entry points sum
only the block they use from those slices, with the same ``rate_sum``
as the whole generator (``_block_liouvillian``): ``oracle_steady_state``
the charge-0 block, which holds the trace row and the steady state, and
``oracle_g1`` the charge -1 block of its seed a rho. Other blocks are
never summed, factored or walked; only ``build_full_liouvillian`` sums
the whole space.

Every Lindblad generator commutes with rho -> rho^+, which in the photon
gauge is the transposition r dim + c -> c dim + r of the real flattened
vectors of the charge-0 block; ``_hermitian_halves`` asserts it entry by
entry for every unit part and folds each part's block into an even half
(Hermitian vectors, rows r <= c) and an odd half (anti-Hermitian ones,
rows r < c), cached per (N, M). The steady state is Hermitian, so
``oracle_steady_state`` solves on the even half alone and factors the
odd half only to show that it is not singular: at N = 4, M = 2 the
charge-0 block's 490 of 2304 rows split into 269 even and 221 odd ones.
The halves are nearly full, so each is summed into a dense array and
factored by LAPACK (``scipy.linalg.lu_factor``), not by a sparse LU.
``oracle_g2`` walks its seed a rho a^+ on the even half: its readout
a^+ a is Hermitian and diagonal, so only the seed's Hermitian part, whose
real part in the gauge is symmetric, reaches it.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from typing import Dict, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dynamics import DegenerateSteadyStateError, SolverError, propagate
from .model import (I_POWERS, ModelParams, SumPlan, from_gauge, rate_sum,
                    sum_plan, to_gauge, validate)

DEFAULT_HILBERT_CAP = 64

_SP = np.array([[0.0, 1.0], [0.0, 0.0]])   # |e><g|
_SM = _SP.T.copy()
_SZ = np.diag([1.0, -1.0])


def hilbert_dim(n_atoms: int, cutoff: int) -> int:
    return 2 ** n_atoms * (cutoff + 1)


def _mode_matrix(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff + 1, cutoff + 1))
    for n in range(1, cutoff + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


@lru_cache(maxsize=32)
def site_operators(n_atoms: int, cutoff: int) -> Dict[str, object]:
    """Dense float64 per-atom sigma operators, the truncated mode
    operators and the photon number a^+ a, each ``np.kron`` of the 2 x 2
    and (M+1) x (M+1) matrices with identities: 64 x 64 at most under
    the cap, 128 x 128 were it raised to 128.

    Cached per (n_atoms, cutoff): every caller gets the same dict and
    lists, and the arrays are read-only.
    """
    dim_ph = cutoff + 1

    def embed(op2, j):
        return np.kron(np.kron(np.eye(2 ** j), op2),
                       np.eye(2 ** (n_atoms - 1 - j) * dim_ph))

    a = np.kron(np.eye(2 ** n_atoms), _mode_matrix(cutoff))
    ops = {
        "sp": [embed(_SP, j) for j in range(n_atoms)],
        "sm": [embed(_SM, j) for j in range(n_atoms)],
        "sz": [embed(_SZ, j) for j in range(n_atoms)],
        "a": a,
        "adag": a.T.copy(),
        "n": a.T @ a,
    }
    for op in (*ops["sp"], *ops["sm"], *ops["sz"], a, ops["adag"], ops["n"]):
        op.flags.writeable = False
    return ops


def _part_terms(n_atoms: int, cutoff: int) -> Dict[str, list]:
    """(coef, A, B) of each term coef A rho B of the five unit parts, on
    the dense operators of ``site_operators``: i[rho, H_1] with
    H_1 = (1/2) sum_j (s_j^+ a + s_j^- a^+), the Hamiltonian at g = 1,
    D[a], sum_j D[s_j^+], sum_j D[s_j^-] and (1/4) sum_j D[s_j^z], with
    D[c] rho = c rho c^+ - (1/2) c^+ c rho - (1/2) rho c^+ c."""
    ops = site_operators(n_atoms, cutoff)
    eye = np.eye(hilbert_dim(n_atoms, cutoff))
    H = sum(0.5 * (ops["sp"][j] @ ops["a"] + ops["sm"][j] @ ops["adag"])
            for j in range(n_atoms))

    def dissipator(c, scale=1.0):
        cdc = c.T @ c
        return [(scale, c, c.T), (-0.5 * scale, cdc, eye),
                (-0.5 * scale, eye, cdc)]

    def summed(label, scale=1.0):
        return [term for c in ops[label] for term in dissipator(c, scale)]

    return {
        # i[rho, H] = i rho H - i H rho
        "hamiltonian": [(-1j, H, eye), (1j, eye, H)],
        "cavity_decay": dissipator(ops["a"]),
        "pump": summed("sp"),
        "spont": summed("sm"),
        "deph": summed("sz", 0.25),
    }


def _kron_sum(terms: list, dim: int) -> sp.csr_matrix:
    """Sparse sum_k coef_k A_k (x) B_k^T over dense Hilbert-space
    operators: the superoperator of sum_k coef_k A_k rho B_k on row-major
    flattened rho. Each term adds the outer product of the nonzeros of
    A_k and of B_k^T, one COO -> CSR construction sums the entries of
    each position, and exact zeros of the sums are dropped, as a sum of
    sparse matrices drops them."""
    rows, cols, vals = [], [], []
    for coef, A, B in terms:
        right = B.T
        ra, ca = np.nonzero(A)
        rb, cb = np.nonzero(right)
        rows.append(np.add.outer(ra * dim, rb).reshape(-1))
        cols.append(np.add.outer(ca * dim, cb).reshape(-1))
        vals.append(coef * np.multiply.outer(A[ra, ca], right[rb, cb])
                    .reshape(-1))
    mat = sp.csr_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(dim * dim,) * 2)
    mat.eliminate_zeros()
    return mat


@lru_cache(maxsize=16)
def _photon_power(n_atoms: int, cutoff: int) -> np.ndarray:
    """Exponent n_r - n_c of kron(D, conj D), D = i^(n_ph), at each
    flattened index r dim + c. Cached; callers must not modify it."""
    n = np.tile(np.arange(cutoff + 1), 2 ** n_atoms)
    return (n[:, None] - n[None, :]).reshape(-1)


@lru_cache(maxsize=16)
def _excitation_charge(n_atoms: int, cutoff: int) -> np.ndarray:
    """Charge e_r - e_c of each flattened index r dim + c, e the number of
    excited atoms plus photons of Hilbert index r or c.

    In the ``site_operators`` layout atom bit 0 is the excited state
    (s^z = +1 on index 0), so e = (N - popcount(atom index)) + n_ph.
    Every part of the master equation keeps this charge (checked in
    ``_full_unit_parts``), so the generator is block-diagonal in it.
    Cached; callers must not modify it.
    """
    atoms = np.arange(2 ** n_atoms)
    ground = np.array([bin(k).count("1") for k in atoms])
    e = ((n_atoms - ground)[:, None] + np.arange(cutoff + 1)).reshape(-1)
    return (e[:, None] - e[None, :]).reshape(-1)


@lru_cache(maxsize=16)
def _full_unit_parts(n_atoms: int, cutoff: int) -> Dict[str, sp.csr_matrix]:
    """Unit-rate superoperators of the five master-equation parts, in the
    photon gauge, where each is real.

    Each is assembled in one pass by ``_kron_sum`` from its terms (see
    ``_part_terms``) on the dense per-atom operators, and then conjugated
    by kron(D, conj D) with ``model.to_gauge`` (see ``_photon_power``).
    D a D^+ = -i a makes i[rho, H_1] real, and D[a] keeps a rho a^+; a
    part with an imaginary entry left, or with an entry between indices
    of different ``_excitation_charge``, raises AssertionError. Cached
    per (n_atoms, cutoff); callers must not modify them.
    """
    dim = hilbert_dim(n_atoms, cutoff)
    power = _photon_power(n_atoms, cutoff)
    charge = _excitation_charge(n_atoms, cutoff)
    real = {}
    for name, terms in _part_terms(n_atoms, cutoff).items():
        real[name] = gauged = to_gauge(_kron_sum(terms, dim), power, name)
        rows = np.repeat(charge, np.diff(gauged.indptr))
        if (rows != charge[gauged.indices]).any():
            raise AssertionError(f"gauged {name} part mixes excitation "
                                 "charges")
    return real


def _check(params: ModelParams) -> None:
    """Validate ``params`` and check the Hilbert dimension cap, before
    any unit part is built."""
    validate(params)
    dim = hilbert_dim(params.n_atoms, params.photon_cutoff)
    if dim > DEFAULT_HILBERT_CAP:
        raise ValueError(f"Hilbert dimension {dim} exceeds cap "
                         f"{DEFAULT_HILBERT_CAP}")


@lru_cache(maxsize=16)
def _full_plan(n_atoms: int, cutoff: int) -> SumPlan:
    """The ``sum_plan`` of ``_full_unit_parts``, cached per (N, M)."""
    return sum_plan(_full_unit_parts(n_atoms, cutoff))


def _gauged_liouvillian(params: ModelParams) -> sp.csr_matrix:
    """Real generator kron(D, conj D) L kron(D, conj D)^-1 on the full
    space, the rate-weighted sum of the cached gauged unit parts."""
    _check(params)
    return rate_sum(params, _full_plan(params.n_atoms, params.photon_cutoff))


def _charge_block(L: sp.csr_matrix, index: np.ndarray) -> sp.csr_matrix:
    """L on the sorted flattened indices ``index`` of one excitation-charge
    block, which no entry of L leaves (see ``_excitation_charge``)."""
    rows = L[index]
    local = np.full(L.shape[0], -1, dtype=rows.indices.dtype)
    local[index] = np.arange(len(index))
    return sp.csr_matrix((rows.data, local[rows.indices], rows.indptr),
                         shape=(len(index),) * 2)


@lru_cache(maxsize=64)
def _block_parts(n_atoms: int, cutoff: int, charge: int) -> tuple:
    """(index, plan): the sorted flattened indices of one excitation
    charge (see ``_excitation_charge``) and the ``sum_plan`` of the
    cached gauged unit parts of ``_full_unit_parts`` on that block (see
    ``_charge_block``). Cached per (n_atoms, cutoff, charge); callers
    must not modify them.
    """
    index = np.flatnonzero(_excitation_charge(n_atoms, cutoff) == charge)
    parts = {name: _charge_block(part, index)
             for name, part in _full_unit_parts(n_atoms, cutoff).items()}
    return index, sum_plan(parts)


@lru_cache(maxsize=16)
def _hermitian_halves(n_atoms: int, cutoff: int) -> tuple:
    """(slot, even, odd): the charge-0 block folded into its two halves
    under rho -> rho^+.

    In the photon gauge rho -> rho^+ maps the real flattened vectors of
    the charge-0 block by the transposition r dim + c -> c dim + r, and
    every gauged unit part's block (see ``_block_parts``) commutes with
    it; a part that does not, entry by entry, raises AssertionError.
    ``even`` is the ``sum_plan`` of the parts' even halves, their rows
    r <= c with each column summed with its transposed twin, and ``odd``
    that of their odd halves, the rows r < c with twin columns combined
    with sign -1. A symmetric block vector is x = x_even[slot], ``slot``
    the even row of each index or of its twin, and the block L_0 is
    similar to the direct sum of the even and the odd half. Cached per
    (n_atoms, cutoff); callers must not modify them.
    """
    index, _ = _block_parts(n_atoms, cutoff, 0)
    dim = hilbert_dim(n_atoms, cutoff)
    n = len(index)
    r, c = index // dim, index % dim
    twin = np.searchsorted(index, c * dim + r)
    # the even and the odd row of each index or of its twin, and the sign
    # of an odd vector's entry off the diagonal: +1 above it, -1 below
    even, odd = np.flatnonzero(r <= c), np.flatnonzero(r < c)
    slot = np.empty(n, dtype=np.int64)
    slot[even] = slot[twin[even]] = np.arange(len(even))
    odd_slot = np.zeros(n, dtype=np.int64)
    odd_slot[odd] = odd_slot[twin[odd]] = np.arange(len(odd))
    sign = np.where(r < c, 1.0, -1.0)
    evens, odds = {}, {}
    for name, part in _full_unit_parts(n_atoms, cutoff).items():
        block = _charge_block(part, index)
        coo = block.tocoo()
        rows, cols, data = coo.row, coo.col, coo.data
        moved = sp.csr_matrix((data, (twin[rows], twin[cols])),
                              shape=block.shape)
        if not all(np.array_equal(getattr(moved, a), getattr(block, a))
                   for a in ("indptr", "indices", "data")):
            raise AssertionError(f"gauged {name} part does not commute "
                                 "with rho -> rho^+")
        # the constructor sums each column with its twin
        keep = r[rows] <= c[rows]
        evens[name] = sp.csr_matrix(
            (data[keep], (slot[rows[keep]], slot[cols[keep]])),
            shape=(len(even),) * 2)
        keep = (r[rows] < c[rows]) & (r[cols] != c[cols])
        odds[name] = sp.csr_matrix(
            ((data * sign[cols])[keep],
             (odd_slot[rows[keep]], odd_slot[cols[keep]])),
            shape=(len(odd),) * 2)
    return slot, sum_plan(evens), sum_plan(odds)


def _block_liouvillian(params: ModelParams, charge: int) -> tuple:
    """(index, generator): the real gauged generator on one excitation-
    charge block, summed from the cached block parts alone. Each entry of
    a block is summed from the same entries in the same order as in the
    whole space, so it equals
    ``_charge_block(_gauged_liouvillian(params), index)`` exactly."""
    _check(params)
    index, plan = _block_parts(params.n_atoms, params.photon_cutoff, charge)
    return index, rate_sum(params, plan)


def build_full_liouvillian(params: ModelParams) -> sp.csr_matrix:
    """Vectorized master-equation generator on the full space: the gauged
    sum of ``_gauged_liouvillian`` taken back to the physical, complex
    generator by ``model.from_gauge``."""
    return from_gauge(_gauged_liouvillian(params),
                      _photon_power(params.n_atoms, params.photon_cutoff))


def _factor(mat: np.ndarray, half: str) -> tuple:
    """``lu_factor`` of one dense, Fortran-ordered half of the bordered
    charge-0 block, in place; an exactly zero pivot raises
    :class:`DegenerateSteadyStateError` naming the half instead of
    LAPACK's ``LinAlgWarning``, which never escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        try:
            return sla.lu_factor(mat, overwrite_a=True, check_finite=False)
        except sla.LinAlgWarning as exc:  # "Diagonal number k is exactly zero"
            raise DegenerateSteadyStateError(
                f"oracle steady state: the {half} half of the bordered "
                f"charge-0 block is singular ({exc})") from exc


def oracle_steady_state(params: ModelParams) -> np.ndarray:
    """Unique steady density matrix of the full master equation.

    The real gauged generator keeps the excitation charge (see
    ``_excitation_charge``), and the trace row and every diagonal index
    have charge 0, so the solve runs on the charge-0 block L_0 alone. The
    bordered block, L_0 with its first row, that of index 0 and
    trace-redundant, replaced by the trace row, commutes with
    rho -> rho^+ and is similar to the direct sum of its even half and
    the odd half of L_0 (see ``_hermitian_halves``). Both halves are
    nearly full (at N = 4, M = 2 a sparse LU of the 221-row odd half
    holds 21 914 of its 48 841 entries), so each is summed from its
    cached plan into a dense array and factored by LAPACK
    (``scipy.linalg.lu_factor``). The even half, bordered with the trace
    row at index 0, is factored and solved, and the solution is expanded
    onto the block and scattered into the full vector, zero outside the
    block. The odd half is factored only to check that it is not
    singular: an exactly zero pivot in either half raises
    :class:`DegenerateSteadyStateError`, which names it. No other block
    is built or factored. The solution is taken out of the gauge
    afterwards. A solution x that is not finite, or whose residual
    ||L_0 x|| exceeds 1e-9 ||L_0||_1 ||x||, raises :class:`SolverError`;
    there is no fallback. Outside the block the residual is zero, and
    ||L_0||_1 is at most the 1-norm of the whole generator.
    """
    block, L = _block_liouvillian(params, 0)
    dim = hilbert_dim(params.n_atoms, params.photon_cutoff)
    slot, even_plan, odd_plan = _hermitian_halves(params.n_atoms,
                                                  params.photon_cutoff)
    bordered = rate_sum(params, even_plan).toarray(order="F")
    bordered[0] = 0.0
    bordered[0, slot[np.searchsorted(block, np.arange(dim) * (dim + 1))]] = 1.0
    rhs = np.zeros(len(bordered))
    rhs[0] = 1.0
    x = sla.lu_solve(_factor(bordered, "even"), rhs, check_finite=False)[slot]
    del bordered   # holds the even factor: freed before the odd half
    _factor(rate_sum(params, odd_plan).toarray(order="F"), "odd")
    if not np.all(np.isfinite(x)):
        raise SolverError("oracle steady-state solve is not finite")
    resid = np.linalg.norm(L @ x)
    bound = 1e-9 * max(spla.norm(L, 1) * np.linalg.norm(x), 1e-300)
    if not resid <= bound:
        raise SolverError(f"oracle steady-state residual {resid:.3e} "
                          f"above tolerance {bound:.3e}")
    vec = np.zeros(dim * dim)
    vec[block] = x
    # out of the gauge, which keeps the trace row and the residual norm
    phase = I_POWERS[_photon_power(params.n_atoms, params.photon_cutoff) & 3]
    rho = (vec * phase.conj()).reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    _check_density_matrix(rho)
    return rho


def _check_density_matrix(rho: np.ndarray) -> None:
    herm = np.linalg.norm(rho - rho.conj().T)
    if herm > 1e-10:
        raise SolverError(f"steady state not Hermitian: {herm:.3e}")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise SolverError(f"steady state trace {np.trace(rho)!r}")
    wmin = np.linalg.eigvalsh(rho).min()
    if wmin < -1e-8:
        raise SolverError(f"steady state not positive: min eigval {wmin:.3e}")


def oracle_expectations(params: ModelParams, rho: np.ndarray) -> Dict[str, float]:
    """<s_1^z>, <s_1^+ s_2^-> (N >= 2 only) and <a^+ a> from a full rho."""
    ops = site_operators(params.n_atoms, params.photon_cutoff)
    out = {
        "sz": float(np.trace(ops["sz"][0] @ rho).real),
        "nb": float(np.trace(ops["n"] @ rho).real),
    }
    if params.n_atoms >= 2:
        out["spsm"] = float(np.trace(ops["sp"][0] @ ops["sm"][1] @ rho).real)
    return out


def _correlation_inputs(params: ModelParams, rho_ss, name: str) -> tuple:
    """(ops, rho_ss, nb, phase): the ``site_operators``, the steady state
    (solved if ``rho_ss`` is None), its <a^+ a> and the photon-gauge phase
    of each flattened index. <a^+ a> <= 1e-14 raises :class:`SolverError`,
    as in the sector route's traces."""
    _check(params)
    if rho_ss is None:
        rho_ss = oracle_steady_state(params)
    nb = oracle_expectations(params, rho_ss)["nb"]
    if nb <= 1e-14:
        raise SolverError(f"zero photon number; {name} normalization "
                          "undefined")
    n, m = params.n_atoms, params.photon_cutoff
    return site_operators(n, m), rho_ss, nb, I_POWERS[_photon_power(n, m) & 3]


def oracle_g1(params: ModelParams, times: Sequence[float],
              rho_ss: np.ndarray = None) -> np.ndarray:
    """Normalized <a^+(t) a(0)> / <a^+ a> on the full space: the seed
    a rho_ss, asserted to lie in the charge -1 block (see
    ``_excitation_charge``), walked on that block alone (see
    ``_block_liouvillian``) in the photon gauge, with the readout
    Tr[a^+ X] = vec(a) . vec(X) cut to it."""
    ops, rho_ss, nb, phase = _correlation_inputs(params, rho_ss, "g1")
    seed = (ops["a"] @ rho_ss).reshape(-1) * phase
    charge = _excitation_charge(params.n_atoms, params.photon_cutoff)
    if seed[charge != -1].any():
        raise AssertionError("g1 seed a rho leaves the charge -1 block")
    block, L = _block_liouvillian(params, -1)
    readout = ops["a"].reshape(-1)[block] * phase.conj()[block]
    return propagate(L, seed[block], times, observe=readout).values / nb


def oracle_g2(params: ModelParams, times: Sequence[float],
              rho_ss: np.ndarray = None) -> np.ndarray:
    """Normalized <a^+(0) a^+(t) a(t) a(0)> / <a^+ a>^2 =
    Re Tr[n exp(Lt)(a rho_ss a^+)] / <a^+ a>^2 on the full space.

    The seed is walked on the even half of the charge-0 block (see
    ``_hermitian_halves``), exactly for any ``rho_ss``: the readout
    n = a^+ a is Hermitian and diagonal, so no other charge block reaches
    it, and the generator commutes with rho -> rho^+, so only the seed's
    Hermitian part does. In the photon gauge that part is a real symmetric
    vector plus i times an antisymmetric one, which stays in the odd half
    and is zero on the diagonal. The real part is folded by ``slot``,
    asserted to be its own twin, and read out by the sum of n's entries
    over each slot; at N = 4, M = 2 the walk runs on 269 rows, not 490.
    """
    ops, rho_ss, nb, phase = _correlation_inputs(params, rho_ss, "g2")
    n, m = params.n_atoms, params.photon_cutoff
    seed = ops["a"] @ rho_ss @ ops["a"].T
    # Hermitian to the last bit, whatever the rounding of the products
    seed = (0.5 * (seed + seed.conj().T)).reshape(-1) * phase
    block, _ = _block_parts(n, m, 0)
    slot, even_plan, _ = _hermitian_halves(n, m)
    seed = seed.real[block]
    folded = np.empty(even_plan.shape[0])
    folded[slot] = seed
    if not np.array_equal(folded[slot], seed):
        raise AssertionError("g2 seed is not symmetric in the photon gauge")
    readout = np.zeros(len(folded))   # n is real and diagonal: no phase
    np.add.at(readout, slot, ops["n"].reshape(-1)[block])
    return propagate(rate_sum(params, even_plan), folded, times,
                     observe=readout).values.real / nb ** 2
