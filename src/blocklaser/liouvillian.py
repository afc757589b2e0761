"""Sector-restricted sparse superoperator for the driven-dissipative model.

The master equation

    d(rho)/dt = i[rho, H] + L_cav + L_pump + L_spont + L_deph,
    H = (g/2) (S^+ a + S^- a^+),
    L_cav   = -(kappa/2)  (a^+ a rho + rho a^+ a - 2 a rho a^+),
    L_pump  = -(w/2)     sum_j (s_j^- s_j^+ rho + rho s_j^- s_j^+ - 2 s_j^+ rho s_j^-),
    L_spont = -(gamma/2) sum_j (s_j^+ s_j^- rho + rho s_j^+ s_j^- - 2 s_j^- rho s_j^+),
    L_deph  = -(gamma_d/4) sum_j (rho - s_j^z rho s_j^z),

conserves the U(1) charge of the symmetric basis, so it restricts to a
sparse matrix on each fixed-charge sector. Assembly evaluates each
part's kernel chains (see :mod:`blocklaser.opkernels`) over blocks of
the sector's columns at once, as arrays of source column, content and
weight, and maps the targets to rows by one ``searchsorted`` of their
packed keys; no operator product is ever formed in the full
4^N (M+1)^2 space.
Entries are bit-identical to the element-by-element expansion of
:func:`~blocklaser.opkernels.apply_product`. The one-sided single-atom
sums are lifted to collective operators via
sum_j s_j^- s_j^+ = (N - S^z)/2 and sum_j s_j^+ s_j^- = (N + S^z)/2; the
sandwich parts use the dedicated recycling kernels.

Each Lindblad term is linear in its rate, so unit-rate part matrices are
cached per (N, M, delta_n) and rescaled per parameter set; parameter
sweeps then cost a few sparse additions per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

import numpy as np
import scipy.sparse as sp

from .model import ModelParams, validate
from .opkernels import apply_chain, merge_entries
from .symbasis import BasisElement, SectorBasis, enumerate_sector

#: entries with |value| below this after merging are rounding dust and dropped
DROP_TOL = 1e-15

#: sector columns assembled together. One part and one block at a time
#: keep the transient arrays near 1 MB at N = 100; whole-sector arrays
#: left about 5 MB more in the heap, on top of the steady solve's peak
ASSEMBLY_BLOCK = 1024


@dataclass
class Superoperator:
    """Sparse action of the master equation on one charge sector."""

    sector: SectorBasis
    matrix: sp.csr_matrix


def photon_trace_weights(cutoff: int) -> np.ndarray:
    """Traces P_m = Tr[(a^+)^m a^m] over the (M+1)-dim photon space.

    P_m = sum_{n=m}^{M} n!/(n-m)!; in particular P_0 = M + 1.
    """
    M = cutoff
    return np.array([sum(math.factorial(n) // math.factorial(n - m)
                         for n in range(m, M + 1)) for m in range(M + 1)],
                    dtype=float)


def trace_functional(sector: SectorBasis) -> np.ndarray:
    """Weights t with Tr[rho] = t . c for coefficient vectors c.

    Only elements with no atomic content and equal photon powers have a
    nonzero trace; the weight of (0,0,0,m,m) is P_m. Sectors with
    delta_n != 0 contain no such element and get an all-zero functional.
    """
    c = sector.contents
    traced = ((c[:, 0] == 0) & (c[:, 1] == 0) & (c[:, 2] == 0)
              & (c[:, 3] == c[:, 4]))
    weights = np.zeros(len(sector))
    weights[traced] = photon_trace_weights(sector.photon_cutoff)[c[traced, 3]]
    return weights


def _photon_hs_norm(p: int, q: int, cutoff: int) -> float:
    """Hilbert-Schmidt norm of (a^+)^p a^q on the truncated photon space."""
    total = 0.0
    for n in range(q, cutoff + 1):
        if n - q + p > cutoff:
            continue
        total += (math.factorial(n) / math.factorial(n - q)) * \
                 (math.factorial(n - q + p) / math.factorial(n - q))
    return math.sqrt(total)


@lru_cache(maxsize=64)
def basis_scaling(n_atoms: int, cutoff: int, delta_n: int) -> np.ndarray:
    """Hilbert-Schmidt norms of the sector's basis elements, scaled so the
    contentless element has weight 1.

    Physical coefficient vectors in the raw basis span binomially many
    orders of magnitude (the expansion of a product state carries factors
    C(N, k)), which destroys the conditioning of linear solves and of the
    Krylov propagator beyond N of a few tens. Conjugating the sector
    matrices by this diagonal is an exact similarity that brings all
    physical coefficients to a common scale; solvers apply it internally
    and convert back, so the stored convention never changes. Computed in
    log space to avoid overflow.
    """
    sector = enumerate_sector(n_atoms, cutoff, delta_n)
    N = n_atoms
    ref = math.log(_photon_hs_norm(0, 0, cutoff))
    logs = np.empty(len(sector))
    for k, e in enumerate(sector.elements):
        n_i = N - e.n_plus - e.n_minus - e.n_z
        log_atomic = 0.5 * (
            math.lgamma(e.n_plus + 1) + math.lgamma(e.n_minus + 1)
            + math.lgamma(e.n_z + 1) + math.lgamma(n_i + 1)
            - math.lgamma(N + 1)
        ) + 0.5 * (e.n_z + n_i - N) * math.log(2.0)
        logs[k] = log_atomic + math.log(
            _photon_hs_norm(e.n_adag, e.n_a, cutoff)) - ref
    return np.exp(logs)


def _part_terms(n_atoms: int):
    """Unit-rate expansion of each master-equation part.

    Returns {part: [(coefficient, chain of kernel kinds)]}; an empty chain
    is the identity (pure diagonal term).
    """
    N = n_atoms
    return {
        # i[rho, H], H = (1/2)(S^+ a + S^- a^+) at unit g
        "hamiltonian": [
            (0.5j, ("sp_right", "a_right")),     # +i rho S^+ a
            (0.5j, ("sm_right", "adag_right")),  # +i rho S^- a^+
            (-0.5j, ("sp_left", "a_left")),      # -i S^+ a rho
            (-0.5j, ("sm_left", "adag_left")),   # -i S^- a^+ rho
        ],
        "cavity_decay": [
            (-0.5, ("a_left", "adag_left")),     # -1/2 a^+ a rho
            (-0.5, ("adag_right", "a_right")),   # -1/2 rho a^+ a
            (1.0, ("a_left", "adag_right")),     # + a rho a^+
        ],
        "pump": [
            (-0.5 * N, ()),
            (0.25, ("sz_left",)),
            (0.25, ("sz_right",)),
            (0.5, ("pump_sandwich",)),
        ],
        "spont": [
            (-0.5 * N, ()),
            (-0.25, ("sz_left",)),
            (-0.25, ("sz_right",)),
            (0.5, ("emission_sandwich",)),
        ],
        "deph": [
            (-0.5, ("dephasing",)),
        ],
    }


@lru_cache(maxsize=64)
def _unit_parts(n_atoms: int, cutoff: int, delta_n: int) -> Dict[str, sp.csr_matrix]:
    """Unit-rate part matrices on the given sector, cached.

    The chains run over ``ASSEMBLY_BLOCK`` columns at a time; within a
    block, the chains of a part are summed entry by entry in chain order,
    as a per-column dict accumulation would sum them.
    """
    sector = enumerate_sector(n_atoms, cutoff, delta_n)
    dim = len(sector)
    parts = {}
    for name, chains in _part_terms(n_atoms).items():
        blocks = []
        # one (empty) block for an empty sector
        for lo in range(0, max(dim, 1), ASSEMBLY_BLOCK):
            columns = np.arange(lo, min(lo + ASSEMBLY_BLOCK, dim))
            contents = sector.contents[columns]
            ones = np.ones(len(columns))
            pieces = [apply_chain(kinds, columns, contents, ones,
                                  n_atoms, cutoff) for _, kinds in chains]
            cols, targets, vals = merge_entries(
                np.concatenate([p[0] for p in pieces]),
                np.concatenate([p[1] for p in pieces]),
                np.concatenate([coef * p[2]
                                for (coef, _), p in zip(chains, pieces)]),
                n_atoms, cutoff)
            rows = sector.positions(targets)
            if (rows < 0).any():  # kernels preserve the charge; cannot happen
                f = BasisElement(*map(int, targets[np.argmax(rows < 0)]))
                raise AssertionError(f"element {f} escaped sector {sector}")
            blocks.append((rows.astype(np.int32), cols.astype(np.int32), vals))
        rows, cols, vals = (np.concatenate(x) for x in zip(*blocks))
        mat = sp.csr_matrix((vals.astype(complex), (rows, cols)),
                            shape=(dim, dim))
        mat.data[np.abs(mat.data) < DROP_TOL] = 0
        mat.eliminate_zeros()
        parts[name] = mat
    return parts


def _rates(params: ModelParams) -> Dict[str, float]:
    return {
        "hamiltonian": params.coupling,
        "cavity_decay": params.cavity_decay,
        "pump": params.pump,
        "spont": params.spont_emission,
        "deph": params.dephasing,
    }


def build_liouvillian(params: ModelParams, sector: SectorBasis) -> Superoperator:
    """Assemble the full sector Liouvillian from cached unit parts.

    A single part (say i[rho, H]) is the Liouvillian of ``params`` with the
    other four rates set to zero.
    """
    validate(params)
    if (sector.n_atoms, sector.photon_cutoff) != (params.n_atoms, params.photon_cutoff):
        raise ValueError("sector was enumerated for different (N, M)")
    unit = _unit_parts(sector.n_atoms, sector.photon_cutoff, sector.delta_n)
    dim = len(sector)
    total = sp.csr_matrix((dim, dim), dtype=complex)
    for name, rate in _rates(params).items():
        if rate != 0.0 and unit[name].nnz:
            total = total + rate * unit[name]
    return Superoperator(sector=sector, matrix=total.tocsr())


@lru_cache(maxsize=32)
def liouvillian_for(params: ModelParams, delta_n: int) -> Superoperator:
    """Cached Liouvillian on the delta_n sector of ``params``.

    The returned object is shared; treat it as immutable.
    """
    sector = enumerate_sector(params.n_atoms, params.photon_cutoff, delta_n)
    return build_liouvillian(params, sector)


def dump_coo(superop: Superoperator, path) -> None:
    """Write the matrix as 'row col re im' text, sorted, for diffing."""
    coo = superop.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write(f"# dim {coo.shape[0]} nnz {coo.nnz}\n")
        for k in order:
            v = coo.data[k]
            fh.write(f"{coo.row[k]} {coo.col[k]} "
                     f"{float(v.real)!r} {float(v.imag)!r}\n")
