"""Sector-restricted sparse superoperator for the driven-dissipative model.

The master equation

    d(rho)/dt = i[rho, H] + L_cav + L_pump + L_spont + L_deph,
    H = (g/2) (S^+ a + S^- a^+),
    L_cav   = -(kappa/2)  (a^+ a rho + rho a^+ a - 2 a rho a^+),
    L_pump  = -(w/2)     sum_j (s_j^- s_j^+ rho + rho s_j^- s_j^+ - 2 s_j^+ rho s_j^-),
    L_spont = -(gamma/2) sum_j (s_j^+ s_j^- rho + rho s_j^+ s_j^- - 2 s_j^- rho s_j^+),
    L_deph  = -(gamma_d/4) sum_j (rho - s_j^z rho s_j^z),

conserves the U(1) charge of the symmetric basis, so it restricts to a
sparse matrix on each fixed-charge sector. Every sparse operator from
one sector to another (a unit-rate part of the generator, the a . rho
and a . rho . a^+ seeds of g1 and g2, the a^+ trace pairing) is one
:func:`chain_matrix`: its kernel chains (see :mod:`blocklaser.opkernels`)
run over blocks of source columns at once, the targets are mapped to
rows by one ``searchsorted`` of their packed keys, and the sparse
constructor sums all paths to one entry at once; no operator product is
ever formed in the full 4^N (M+1)^2 space. The one-sided single-atom
sums are lifted to collective operators via
sum_j s_j^- s_j^+ = (N - S^z)/2 and sum_j s_j^+ s_j^- = (N + S^z)/2; the
sandwich parts use the dedicated recycling kernels.

Each Lindblad term is linear in its rate, so unit-rate part matrices are
cached per (N, M, delta_n) and rescaled per parameter set; the rate
table and sum of :mod:`blocklaser.model`, shared with the oracle, add
them on their union pattern, cached with them (see :func:`_sum_plan`),
so a parameter point costs one array of sums and no sparse addition.

The parts are cached in the photon gauge g = i^((n_adag + n_a) mod 4)
of each element, where they are real: i[rho, H] moves one photon power,
the dissipators none or two. ``model.to_gauge`` takes each part there
once, as it is built, and a :class:`Superoperator` holds the real sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .model import (ModelParams, SumPlan, from_gauge, rate_sum, sum_plan,
                    to_gauge, validate)
from .opkernels import apply_chain
from .symbasis import BasisElement, SectorBasis, enumerate_sector

#: sector columns assembled together. One part and one block at a time
#: keep the transient arrays near 1 MB at N = 100; whole-sector arrays
#: left about 5 MB more in the heap, on top of the steady solve's peak
ASSEMBLY_BLOCK = 1024


def gauge_power(sector: SectorBasis) -> np.ndarray:
    """Photon-gauge exponent n_adag + n_a of each element of ``sector``."""
    return sector.contents[:, 3] + sector.contents[:, 4]


@dataclass
class Superoperator:
    """Sparse action of the master equation on one charge sector, in the
    photon gauge: ``matrix`` is the real float64 diag(g) L diag(g)^-1,
    g = i^(:func:`gauge_power`) of each element."""

    sector: SectorBasis
    matrix: sp.csr_matrix

    def __post_init__(self):
        if self.matrix.dtype != np.float64:
            raise TypeError("Superoperator.matrix is the real gauged matrix")

    def physical(self) -> sp.csr_matrix:
        """The complex generator L, taken out of the gauge."""
        return from_gauge(self.matrix, gauge_power(self.sector))


def photon_trace_weights(cutoff: int) -> np.ndarray:
    """Traces P_m = Tr[(a^+)^m a^m] over the (M+1)-dim photon space.

    P_m = sum_{n=m}^{M} n!/(n-m)!; in particular P_0 = M + 1.
    """
    M = cutoff
    return np.array([sum(math.factorial(n) // math.factorial(n - m)
                         for n in range(m, M + 1)) for m in range(M + 1)],
                    dtype=float)


def diagonal_functional(sector: SectorBasis, atomic: Tuple[int, int, int],
                        weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Row vector with weights[m] at the elements (atomic, m, m) and zero
    elsewhere; the weights default to the photon traces P_m. Sectors with
    delta_n != 0 contain no such element and get an all-zero row."""
    if weights is None:
        weights = photon_trace_weights(sector.photon_cutoff)
    c = sector.contents
    on = np.all(c[:, :3] == atomic, axis=1) & (c[:, 3] == c[:, 4])
    row = np.zeros(len(sector))
    row[on] = weights[c[on, 3]]
    return row


def trace_functional(sector: SectorBasis) -> np.ndarray:
    """Weights t with Tr[rho] = t . c for coefficient vectors c.

    Only elements with no atomic content and equal photon powers have a
    nonzero trace; the weight of (0,0,0,m,m) is P_m.
    """
    return diagonal_functional(sector, (0, 0, 0))


def number_functional(sector: SectorBasis) -> np.ndarray:
    """Row vector n with <a^+ a> = n . c: weights P_{m+1} + m P_m at the
    elements (0,0,0,m,m), with P_{M+1} = 0."""
    pm = photon_trace_weights(sector.photon_cutoff)
    m = np.arange(len(pm))
    return diagonal_functional(sector, (0, 0, 0),
                               np.append(pm[1:], 0.0) + m * pm)


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
    propagator beyond N of a few tens. Conjugating the sector
    matrices by this diagonal is an exact similarity that brings all
    physical coefficients to a common scale; solvers apply it internally
    and convert back, so the stored convention never changes. Computed in
    log space to avoid overflow.

    The logarithms come from two small tables indexed by the contents:
    ``math.lgamma(k + 1)`` for k = 0..N and ``math.log`` of
    :func:`_photon_hs_norm` for every (n_adag, n_a). Each element's terms
    are summed in one fixed left-to-right order,
    0.5 (lg n_plus + lg n_minus + lg n_z + lg n_i - lg N)
    + 0.5 (n_z + n_i - N) log 2 + log |photon| - log |photon_0|,
    with n_i = N - n_plus - n_minus - n_z, so every float operation is
    the one a per-element loop with ``math`` functions performs.
    """
    c = enumerate_sector(n_atoms, cutoff, delta_n).contents
    N = n_atoms
    lg = np.array([math.lgamma(k + 1) for k in range(N + 1)])
    log_photon = np.array([[math.log(_photon_hs_norm(p, q, cutoff))
                            for q in range(cutoff + 1)]
                           for p in range(cutoff + 1)])
    n_i = N - c[:, 0] - c[:, 1] - c[:, 2]
    log_atomic = 0.5 * (lg[c[:, 0]] + lg[c[:, 1]] + lg[c[:, 2]] + lg[n_i]
                        - lg[N]) + 0.5 * (c[:, 2] + n_i - N) * math.log(2.0)
    return np.exp(log_atomic + log_photon[c[:, 3], c[:, 4]]
                  - log_photon[0, 0])


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


@lru_cache(maxsize=512)   # seeds and pairings; unit parts bypass it
def chain_matrix(chains: Tuple[Tuple[complex, Tuple[str, ...]], ...],
                 n_atoms: int, cutoff: int, source_dn: int,
                 target_dn: int) -> sp.csr_matrix:
    """Sparse matrix of sum_k coef_k chain_k from the source_dn sector to
    the target_dn sector, cached; treat it as immutable.

    ``chains`` holds (coef_k, kinds_k) pairs; the kernels of kinds_k act
    in order, and an empty kinds_k is the identity. The chains run over
    ``ASSEMBLY_BLOCK`` source columns at a time, and every path through a
    chain is one (row, column, coef * weight) entry. The sparse
    constructor sums the entries of one position once, and only the exact
    zeros of those sums are dropped: no absolute threshold, since the
    truncation terms of the (0, 0, 0, M, M) rows scale like 1/M! and fall
    below 1e-15 from M = 18 on, where dropping them breaks the trace.
    """
    source = enumerate_sector(n_atoms, cutoff, source_dn)
    target = enumerate_sector(n_atoms, cutoff, target_dn)
    blocks = []
    # one (empty) block for an empty sector
    for lo in range(0, max(len(source), 1), ASSEMBLY_BLOCK):
        columns = np.arange(lo, min(lo + ASSEMBLY_BLOCK, len(source)))
        pieces = [apply_chain(kinds, columns, source.contents[columns],
                              n_atoms, cutoff) for _, kinds in chains]
        targets = np.concatenate([p[1] for p in pieces])
        rows = target.positions(targets)
        if (rows < 0).any():  # kernels shift the charge deterministically
            f = BasisElement(*map(int, targets[np.argmax(rows < 0)]))
            raise AssertionError(f"element {f} escaped sector {target}")
        blocks.append((rows.astype(np.int32),
                       np.concatenate([p[0] for p in pieces]).astype(np.int32),
                       np.concatenate([coef * p[2] for (coef, _), p
                                       in zip(chains, pieces)])))
    rows, cols, vals = (np.concatenate(x) for x in zip(*blocks))
    mat = sp.csr_matrix((vals.astype(complex, copy=False), (rows, cols)),
                        shape=(len(target), len(source)))
    mat.eliminate_zeros()
    return mat


def _unit_parts(n_atoms: int, cutoff: int, delta_n: int) -> Dict[str, sp.csr_matrix]:
    """Unit-rate float64 part matrices on the given sector in the photon
    gauge: each a :func:`chain_matrix`, built past its cache, that
    ``model.to_gauge`` takes there (AssertionError if it is not real)."""
    power = gauge_power(enumerate_sector(n_atoms, cutoff, delta_n))
    build = chain_matrix.__wrapped__
    return {name: to_gauge(build(tuple(chains), n_atoms, cutoff, delta_n,
                                 delta_n), power, name)
            for name, chains in _part_terms(n_atoms).items()}


@lru_cache(maxsize=64)
def _sum_plan(n_atoms: int, cutoff: int, delta_n: int) -> SumPlan:
    """``model.sum_plan`` of the sector's unit parts: their only cache."""
    return sum_plan(_unit_parts(n_atoms, cutoff, delta_n))


def build_liouvillian(params: ModelParams, sector: SectorBasis) -> Superoperator:
    """Assemble the full sector Liouvillian from cached unit parts.

    The real parts are added by :func:`~blocklaser.model.rate_sum` on
    their cached union pattern (:func:`_sum_plan`): the same numbers,
    pattern and order as the sum of sparse matrices, in a matrix that
    owns its arrays. A single part (say i[rho, H]) is the Liouvillian of
    ``params`` with the other four rates set to zero.
    """
    validate(params)
    if (sector.n_atoms, sector.photon_cutoff) != (params.n_atoms, params.photon_cutoff):
        raise ValueError("sector was enumerated for different (N, M)")
    plan = _sum_plan(sector.n_atoms, sector.photon_cutoff, sector.delta_n)
    return Superoperator(sector=sector, matrix=rate_sum(params, plan))


def liouvillian_for(params: ModelParams, delta_n: int) -> Superoperator:
    """Liouvillian on the delta_n sector of ``params``, summed from the
    cached sector and unit parts."""
    sector = enumerate_sector(params.n_atoms, params.photon_cutoff, delta_n)
    return build_liouvillian(params, sector)
