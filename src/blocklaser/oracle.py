"""Brute-force full-Hilbert-space reference implementation.

Everything here works on the unreduced space (C^2)^(x N) (x) C^(M+1)
with explicit per-atom operators and no symmetry assumptions; it defines
ground truth for the symmetry-reduced solver at small N. Density
matrices are flattened row-major, so A rho B maps to (A kron B^T) acting
on the flattened vector.

The full generator is built the way the sector builder builds its
matrices, but from its own code: a rate-weighted sum of five unit-rate
parts, each assembled once per (N, M) from the explicit per-atom
operators and cached. Like ``site_operators``, the cached parts are
shared and must not be modified; ``build_full_liouvillian`` always
returns a new matrix. The module imports nothing from
``blocklaser.liouvillian`` or ``blocklaser.opkernels`` (it shares only
the propagator and ``SolverError`` of ``dynamics``), so it stays an
independent check of the sector generators.

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

from .dynamics import SolverError, propagate
from .model import ModelParams, validate
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


def full_hamiltonian(params: ModelParams) -> sp.csr_matrix:
    return params.coupling * _unit_hamiltonian(params.n_atoms,
                                               params.photon_cutoff)


def _dissipator(c: sp.spmatrix, dim: int) -> sp.csr_matrix:
    cdc = (c.conj().T @ c).tocsr()
    eye = sp.identity(dim, format="csr")
    return (sp.kron(c, c.conj(), format="csr")
            - 0.5 * sp.kron(cdc, eye, format="csr")
            - 0.5 * sp.kron(eye, cdc.T, format="csr"))


@lru_cache(maxsize=16)
def _full_unit_parts(n_atoms: int, cutoff: int) -> Dict[str, sp.csr_matrix]:
    """Unit-rate superoperators of the five master-equation parts.

    Each is built from the explicit per-atom operators: the commutator
    i[rho, H_1], D[a], sum_j D[s_j^+], sum_j D[s_j^-] and
    (1/4) sum_j D[s_j^z]. Cached per (n_atoms, cutoff); callers must not
    modify them.
    """
    ops = site_operators(n_atoms, cutoff)
    dim = hilbert_dim(n_atoms, cutoff)
    eye = sp.identity(dim, format="csr")
    H = _unit_hamiltonian(n_atoms, cutoff)

    def summed(label):
        return sum(_dissipator(c, dim) for c in ops[label])

    return {
        # i[rho, H] = i rho H - i H rho
        "hamiltonian": 1j * (sp.kron(eye, H.T, format="csr")
                             - sp.kron(H, eye, format="csr")),
        "cavity_decay": _dissipator(ops["a"], dim),
        "pump": summed("sp"),
        "spont": summed("sm"),
        "deph": 0.25 * summed("sz"),
    }


def build_full_liouvillian(params: ModelParams) -> sp.csr_matrix:
    """Vectorized master-equation generator on the full space, the
    rate-weighted sum of the cached unit parts (zero rates skipped)."""
    validate(params)
    dim = hilbert_dim(params.n_atoms, params.photon_cutoff)
    if dim > DEFAULT_HILBERT_CAP:
        raise ValueError(f"Hilbert dimension {dim} exceeds cap "
                         f"{DEFAULT_HILBERT_CAP}")
    unit = _full_unit_parts(params.n_atoms, params.photon_cutoff)
    rates = {
        "hamiltonian": params.coupling,
        "cavity_decay": params.cavity_decay,
        "pump": params.pump,
        "spont": params.spont_emission,
        "deph": params.dephasing,
    }
    L = sp.csr_matrix((dim * dim,) * 2, dtype=complex)
    for name, rate in rates.items():
        if rate != 0.0:
            L = L + rate * unit[name]
    return L.tocsr()


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


def oracle_steady_state(params: ModelParams) -> np.ndarray:
    """Unique steady density matrix of the full master equation.

    One trace-redundant row of the vectorized generator is replaced by the
    trace row and the sparse system is solved. A solution that is not
    finite, or whose residual ||L v|| exceeds 1e-9 ||L||_1 ||v||, raises
    :class:`SolverError`; there is no fallback.
    """
    L = build_full_liouvillian(params)
    dim = int(round(math.sqrt(L.shape[0])))
    trace_idx = np.arange(dim) * dim + np.arange(dim)
    coo = L.tocoo()
    keep = coo.row != 0
    rows = np.concatenate([coo.row[keep], np.zeros(dim, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], trace_idx])
    vals = np.concatenate([coo.data[keep], np.ones(dim, dtype=complex)])
    bordered = sp.csc_matrix((vals, (rows, cols)), shape=L.shape)
    rhs = np.zeros(L.shape[0], dtype=complex)
    rhs[0] = 1.0
    vec = spla.spsolve(bordered, rhs)
    if not np.all(np.isfinite(vec)):  # SuperLU: "exactly singular"
        raise SolverError("oracle steady-state solve is not finite "
                          "(singular bordered matrix)")
    resid = np.linalg.norm(L @ vec)
    bound = 1e-9 * max(spla.norm(L, 1) * np.linalg.norm(vec), 1e-300)
    if not resid <= bound:
        raise SolverError(f"oracle steady-state residual {resid:.3e} "
                          f"above tolerance {bound:.3e}")
    rho = vec.reshape(dim, dim)
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

    Labels name operators of the output mode: 'a', 'adag' or 'n' (= a^+ a).
    """
    ops = site_operators(params.n_atoms, params.photon_cutoff)
    table = {"a": ops["a"], "adag": ops["adag"], "n": ops["adag"] @ ops["a"]}
    A = table[a_label].toarray()
    B = table[b_label].toarray()
    if rho_ss is None:
        rho_ss = oracle_steady_state(params)
    seed = B @ rho_ss @ B.conj().T if sandwich else B @ rho_ss
    L = build_full_liouvillian(params)
    pairing = A.T.reshape(-1)  # Tr[A X] = vec(A^T) . vec(X), row-major
    return propagate(L, seed.reshape(-1), times, observe=pairing).values


def oracle_g1(params: ModelParams, times: Sequence[float],
              rho_ss: np.ndarray = None) -> np.ndarray:
    """Normalized <a^+(t) a(0)> / <a^+ a> on the full space."""
    if rho_ss is None:
        rho_ss = oracle_steady_state(params)
    nb = oracle_expectations(params, rho_ss)["nb"]
    raw = oracle_two_time(params, "adag", "a", times, rho_ss=rho_ss)
    return raw / nb


def oracle_g2(params: ModelParams, times: Sequence[float],
              rho_ss: np.ndarray = None) -> np.ndarray:
    """Normalized <a^+(0) a^+(t) a(t) a(0)> / <a^+ a>^2 on the full space."""
    if rho_ss is None:
        rho_ss = oracle_steady_state(params)
    nb = oracle_expectations(params, rho_ss)["nb"]
    raw = oracle_two_time(params, "n", "a", times, sandwich=True,
                          rho_ss=rho_ss)
    return raw.real / nb ** 2


def atom_swap(n_atoms: int, cutoff: int, i: int, j: int) -> sp.csr_matrix:
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
