"""Brute-force full-Hilbert-space reference implementation.

Everything here works on the unreduced space (C^2)^(x N) (x) C^(M+1)
with explicit per-atom operators and no symmetry assumptions; it defines
ground truth for the symmetry-reduced solver at small N. Density
matrices are flattened row-major, so A rho B maps to (A kron B^T) acting
on the flattened vector.

Like the sector generators, the full generator is a rate-weighted sum
of five unit-rate parts. This module builds its own parts, each once per
(N, M) from the explicit per-atom operators, cached; ``rate_sum`` of
``blocklaser.model``, shared with the sector builder, adds them. Like
``site_operators``, the cached parts are shared and must not be
modified; ``build_full_liouvillian`` always returns a new matrix. The
module imports nothing from ``blocklaser.liouvillian`` or
``blocklaser.opkernels`` (of ``dynamics`` only the propagator,
``SolverError`` and ``DegenerateSteadyStateError``), so its parts stay
an independent check.

The numerics run in the photon gauge: with D = i^(n_ph) on the Hilbert
space, rho -> D rho D^+ is the similarity kron(D, conj D) on flattened
density matrices. It takes a to -i a and a^+ to i a^+, so i[rho, H] and
every dissipator become real, and the cached unit parts are kept in that
real form. ``oracle_steady_state`` factors a real bordered matrix, and
``oracle_two_time`` walks the real generator with a seed and a readout
that are real up to a power of i, so the propagator runs in float64.
Multiplying by a power of i is exact, so the gauge changes no value by
more than the rounding of the real arithmetic; ``build_full_liouvillian``
still returns the physical complex generator.

Every part also keeps the excitation charge e_r - e_c of a flattened
|r><c|, e the number of excited atoms plus photons (see
``_excitation_charge``); ``_full_unit_parts`` asserts it entry by entry,
so the generator is block-diagonal in it. Each unit part's slice to one
charge block is cached too, per (N, M, charge), and the entry points sum
only the block they use from those slices, with the same ``rate_sum``
as the whole generator (``_block_liouvillian``): ``oracle_steady_state``
the charge-0 block, which holds the trace row and the steady state, and
``oracle_two_time`` the block of its seed. Other blocks are never
summed, factored or walked; only ``build_full_liouvillian`` sums the
whole space.

Every Lindblad generator commutes with rho -> rho^+, which in the photon
gauge is the transposition r dim + c -> c dim + r of the real flattened
vectors of the charge-0 block; ``_hermitian_halves`` asserts it entry by
entry for every unit part and folds each part's block into an even half
(Hermitian vectors, rows r <= c) and an odd half (anti-Hermitian ones,
rows r < c), cached per (N, M). The steady state is Hermitian, so
``oracle_steady_state`` solves on the even half alone and factors the
odd half only to show that it is not singular: at N = 4, M = 2 the
charge-0 block's 490 of 2304 rows split into 269 even and 221 odd ones.

``lift_element`` expands a symmetric basis element into its explicit
matrix, which lets tests compare kernel and Liouvillian actions entry by
entry against literal operator products.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Dict, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dynamics import DegenerateSteadyStateError, SolverError, propagate
from .model import ModelParams, SumPlan, rate_sum, sum_plan, validate
from .symbasis import BasisElement, is_legal

DEFAULT_HILBERT_CAP = 64

_SP = np.array([[0.0, 1.0], [0.0, 0.0]])   # |e><g|
_SM = _SP.T.copy()
_SZ = np.diag([1.0, -1.0])
_ID2 = np.eye(2)


def hilbert_dim(n_atoms: int, cutoff: int) -> int:
    return 2 ** n_atoms * (cutoff + 1)


def _mode_matrix(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff + 1, cutoff + 1))
    for n in range(1, cutoff + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


@lru_cache(maxsize=32)
def site_operators(n_atoms: int, cutoff: int) -> Dict[str, object]:
    """Sparse per-atom sigma operators and the truncated mode operators.

    Cached per (n_atoms, cutoff): every caller gets the same dict, lists
    and matrices, and must not modify them.
    """
    dim_ph = cutoff + 1
    eye_ph = sp.identity(dim_ph, format="csr")

    def embed(op2, j):
        left = sp.identity(2 ** j, format="csr")
        right = sp.identity(2 ** (n_atoms - 1 - j), format="csr")
        return sp.kron(sp.kron(sp.kron(left, sp.csr_matrix(op2)), right),
                       eye_ph, format="csr")

    a = sp.kron(sp.identity(2 ** n_atoms, format="csr"),
                sp.csr_matrix(_mode_matrix(cutoff)), format="csr")
    return {
        "sp": [embed(_SP, j) for j in range(n_atoms)],
        "sm": [embed(_SM, j) for j in range(n_atoms)],
        "sz": [embed(_SZ, j) for j in range(n_atoms)],
        "a": a,
        "adag": a.conj().T.tocsr(),
    }


def _unit_hamiltonian(n_atoms: int, cutoff: int) -> sp.csr_matrix:
    """H_1 = (1/2) sum_j (s_j^+ a + s_j^- a^+), the Hamiltonian at g = 1."""
    ops = site_operators(n_atoms, cutoff)
    H = sp.csr_matrix((hilbert_dim(n_atoms, cutoff),) * 2, dtype=complex)
    for j in range(n_atoms):
        H = H + 0.5 * (ops["sp"][j] @ ops["a"] + ops["sm"][j] @ ops["adag"])
    return H.tocsr()


def _dissipator(c: sp.spmatrix, dim: int) -> sp.csr_matrix:
    cdc = (c.conj().T @ c).tocsr()
    eye = sp.identity(dim, format="csr")
    return (sp.kron(c, c.conj(), format="csr")
            - 0.5 * sp.kron(cdc, eye, format="csr")
            - 0.5 * sp.kron(eye, cdc.T, format="csr"))


#: i^k for k = 0, 1, 2, 3
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


@lru_cache(maxsize=16)
def _photon_gauge(n_atoms: int, cutoff: int) -> np.ndarray:
    """Diagonal of kron(D, conj D), D = i^(n_ph) on the Hilbert space.

    Entry r dim + c of a flattened density matrix takes the phase
    i^(n_r - n_c), n the photon number of Hilbert index r or c. Cached;
    callers must not modify it.
    """
    n = np.tile(np.arange(cutoff + 1), 2 ** n_atoms)
    return _I_POWERS[(n[:, None] - n[None, :]) % 4].reshape(-1)


def _conjugated(mat: sp.csr_matrix, phase: np.ndarray) -> sp.csr_matrix:
    """diag(phase) mat diag(phase)^-1 for phases that are powers of i:
    every entry is multiplied by a power of i, which is exact."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    data = mat.data * (phase[rows] * phase.conj()[mat.indices])
    return sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)


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

    Each is built from the explicit per-atom operators: the commutator
    i[rho, H_1], D[a], sum_j D[s_j^+], sum_j D[s_j^-] and
    (1/4) sum_j D[s_j^z], and then conjugated by kron(D, conj D) (see
    ``_photon_gauge``). D a D^+ = -i a makes i[rho, H_1] real, and D[a]
    keeps a rho a^+; a part with an imaginary entry left, or with an entry
    between indices of different ``_excitation_charge``, raises
    AssertionError. Cached per (n_atoms, cutoff); callers must not modify
    them.
    """
    ops = site_operators(n_atoms, cutoff)
    dim = hilbert_dim(n_atoms, cutoff)
    eye = sp.identity(dim, format="csr")
    H = _unit_hamiltonian(n_atoms, cutoff)
    phase = _photon_gauge(n_atoms, cutoff)
    charge = _excitation_charge(n_atoms, cutoff)

    def summed(label):
        return sum(_dissipator(c, dim) for c in ops[label])

    parts = {
        # i[rho, H] = i rho H - i H rho
        "hamiltonian": 1j * (sp.kron(eye, H.T, format="csr")
                             - sp.kron(H, eye, format="csr")),
        "cavity_decay": _dissipator(ops["a"], dim),
        "pump": summed("sp"),
        "spont": summed("sm"),
        "deph": 0.25 * summed("sz"),
    }
    real = {}
    for name, part in parts.items():
        gauged = _conjugated(part, phase)
        if gauged.data.imag.any():
            raise AssertionError(f"gauged {name} part is not real")
        rows = np.repeat(charge, np.diff(gauged.indptr))
        if (rows != charge[gauged.indices]).any():
            raise AssertionError(f"gauged {name} part mixes excitation "
                                 "charges")
        real[name] = sp.csr_matrix(
            (gauged.data.real.copy(), gauged.indices, gauged.indptr),
            shape=gauged.shape)
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
    sum of ``_gauged_liouvillian`` conjugated back to the physical,
    complex generator."""
    phase = _photon_gauge(params.n_atoms, params.photon_cutoff)
    return _conjugated(_gauged_liouvillian(params), phase.conj())


def lift_element(e: BasisElement, n_atoms: int, cutoff: int) -> np.ndarray:
    """Explicit matrix of a symmetric basis element.

    Sums the distinct placements of the (s^+, s^-, s^z, identity) content
    over atom slots, each weighted by the number of permutations that
    realize it, normalized by 1/(2^N N!).
    """
    if not is_legal(e, n_atoms, cutoff):
        raise ValueError(f"{e} is illegal for N={n_atoms}, M={cutoff}")
    N = n_atoms
    dim = hilbert_dim(N, cutoff)
    a = _mode_matrix(cutoff)
    photon = (np.linalg.matrix_power(a.T, e.n_adag)
              @ np.linalg.matrix_power(a, e.n_a))
    n_i = N - e.n_plus - e.n_minus - e.n_z
    multiplicity = (math.factorial(e.n_plus) * math.factorial(e.n_minus)
                    * math.factorial(e.n_z) * math.factorial(n_i))
    total = np.zeros((dim, dim), dtype=complex)
    slots = set(range(N))
    for plus in combinations(range(N), e.n_plus):
        rest1 = slots - set(plus)
        for minus in combinations(sorted(rest1), e.n_minus):
            rest2 = rest1 - set(minus)
            for zpos in combinations(sorted(rest2), e.n_z):
                mats = []
                for j in range(N):
                    if j in plus:
                        mats.append(_SP)
                    elif j in minus:
                        mats.append(_SM)
                    elif j in zpos:
                        mats.append(_SZ)
                    else:
                        mats.append(_ID2)
                atom = np.array([[1.0]])
                for m in mats:
                    atom = np.kron(atom, m)
                total += np.kron(atom, photon) * multiplicity
    return total / (2 ** N * math.factorial(N))


def lift_state(state) -> np.ndarray:
    """Explicit density matrix of a SymmetricState (small N only)."""
    sector = state.sector
    dim = hilbert_dim(sector.n_atoms, sector.photon_cutoff)
    rho = np.zeros((dim, dim), dtype=complex)
    for c, e in zip(state.coeffs, sector.elements):
        if c != 0.0:
            rho += c * lift_element(e, sector.n_atoms, sector.photon_cutoff)
    return rho


def _factor(mat: sp.csc_matrix, half: str):
    """``splu`` of one half of the bordered charge-0 block; an exactly
    singular half raises :class:`DegenerateSteadyStateError`."""
    try:
        return spla.splu(mat)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            f"oracle steady state: the {half} half of the bordered charge-0 "
            f"block is singular ({exc})") from exc


def oracle_steady_state(params: ModelParams) -> np.ndarray:
    """Unique steady density matrix of the full master equation.

    The real gauged generator keeps the excitation charge (see
    ``_excitation_charge``), and the trace row and every diagonal index
    have charge 0, so the solve runs on the charge-0 block L_0 alone. The
    bordered block, L_0 with its first row, that of index 0 and
    trace-redundant, replaced by the trace row, commutes with
    rho -> rho^+ and is similar to the direct sum of its even half and
    the odd half of L_0 (see ``_hermitian_halves``), each summed from
    its cached plan. The even half, bordered with the trace row at index
    0, is factored and solved, and the solution is expanded onto the
    block and scattered into the full vector, zero outside the block.
    The odd half is factored only to check that it is not singular: an
    exactly singular half raises :class:`DegenerateSteadyStateError`,
    which names it. No other block is built or factored. The solution is
    taken out of the gauge afterwards. A solution x that is not finite,
    or whose residual ||L_0 x|| exceeds 1e-9 ||L_0||_1 ||x||, raises
    :class:`SolverError`; there is no fallback. Outside the block the
    residual is zero, and ||L_0||_1 is at most the 1-norm of the whole
    generator.
    """
    block, L = _block_liouvillian(params, 0)
    dim = hilbert_dim(params.n_atoms, params.photon_cutoff)
    slot, even_plan, odd_plan = _hermitian_halves(params.n_atoms,
                                                  params.photon_cutoff)
    coo = rate_sum(params, even_plan).tocoo()
    keep = coo.row != 0
    trace_slots = slot[np.searchsorted(block, np.arange(dim) * (dim + 1))]
    rows = np.concatenate([coo.row[keep], np.zeros(dim, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], trace_slots])
    vals = np.concatenate([coo.data[keep], np.ones(dim)])
    bordered = sp.csc_matrix((vals, (rows, cols)), shape=coo.shape)
    rhs = np.zeros(coo.shape[0])
    rhs[0] = 1.0
    x = _factor(bordered, "even").solve(rhs)[slot]
    # the transpose of a CSR matrix is a CSC matrix on the same arrays,
    # and singular with it
    _factor(rate_sum(params, odd_plan).T, "odd")
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
    phase = _photon_gauge(params.n_atoms, params.photon_cutoff)
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
        "nb": float(np.trace((ops["adag"] @ ops["a"]) @ rho).real),
    }
    if params.n_atoms >= 2:
        out["spsm"] = float(np.trace((ops["sp"][0] @ ops["sm"][1]) @ rho).real)
    return out


def oracle_two_time(params: ModelParams, a_label: str, b_label: str,
                    times: Sequence[float], sandwich: bool = False,
                    rho_ss: np.ndarray = None) -> np.ndarray:
    """Tr[A exp(Lt)(B rho_ss)] or, with ``sandwich``, Tr[A exp(Lt)(B rho_ss B^+)].

    Labels name operators of the output mode: 'a', 'adag' or 'n' (= a^+ a);
    any other label raises ValueError. The seed B rho_ss (B rho_ss B^+)
    lies in one excitation-charge block of the generator (see
    ``_excitation_charge``), which is asserted; ``propagate`` walks that
    block alone, summed from the cached block parts (see
    ``_block_liouvillian``), with the readout restricted to it, so no
    other block is ever built or multiplied.
    """
    ops = site_operators(params.n_atoms, params.photon_cutoff)
    table = {"a": ops["a"], "adag": ops["adag"], "n": ops["adag"] @ ops["a"]}
    for label in (a_label, b_label):
        if label not in table:
            raise ValueError(f"unknown operator label {label!r}; expected "
                             "one of 'a', 'adag', 'n'")
    A = table[a_label].toarray()
    B = table[b_label].toarray()
    if rho_ss is None:
        rho_ss = oracle_steady_state(params)
    seed = B @ rho_ss @ B.conj().T if sandwich else B @ rho_ss
    pairing = A.T.reshape(-1)  # Tr[A X] = vec(A^T) . vec(X), row-major
    # in the photon gauge, where seed and pairing are real up to a power of i
    phase = _photon_gauge(params.n_atoms, params.photon_cutoff)
    seed = seed.reshape(-1) * phase
    charge = _excitation_charge(params.n_atoms, params.photon_cutoff)
    q = int(charge[np.argmax(np.abs(seed))])
    if seed[charge != q].any():
        raise AssertionError("two-time seed spans several excitation charges")
    block, L = _block_liouvillian(params, q)
    return propagate(L, seed[block], times,
                     observe=(pairing * phase.conj())[block]).values


def oracle_g1(params: ModelParams, times: Sequence[float],
              rho_ss: np.ndarray = None) -> np.ndarray:
    """Normalized <a^+(t) a(0)> / <a^+ a> on the full space; <a^+ a> <=
    1e-14 raises :class:`SolverError`, as in ``g1_trace``."""
    if rho_ss is None:
        rho_ss = oracle_steady_state(params)
    nb = oracle_expectations(params, rho_ss)["nb"]
    if nb <= 1e-14:
        raise SolverError("zero photon number; g1 normalization undefined")
    raw = oracle_two_time(params, "adag", "a", times, rho_ss=rho_ss)
    return raw / nb


def oracle_g2(params: ModelParams, times: Sequence[float],
              rho_ss: np.ndarray = None) -> np.ndarray:
    """Normalized <a^+(0) a^+(t) a(t) a(0)> / <a^+ a>^2 on the full space;
    <a^+ a> <= 1e-14 raises :class:`SolverError`, as in ``g2_trace``."""
    if rho_ss is None:
        rho_ss = oracle_steady_state(params)
    nb = oracle_expectations(params, rho_ss)["nb"]
    if nb <= 1e-14:
        raise SolverError("zero photon number; g2 normalization undefined")
    raw = oracle_two_time(params, "n", "a", times, sandwich=True,
                          rho_ss=rho_ss)
    return raw.real / nb ** 2

