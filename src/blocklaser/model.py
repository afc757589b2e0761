"""Physical parameters of the driven atoms + truncated-cavity model.

All rates are angular frequencies in a single consistent unit (typically
the problem is scaled so that ``cavity_decay = 1``). The cavity mode holds
at most ``photon_cutoff`` photons; ``photon_cutoff = 1`` is the fully
blockaded (two-level) cavity.

The sector Liouvillian and the brute-force oracle each build their own
five unit-rate parts, real in the photon gauge of :func:`to_gauge`;
:data:`PART_RATES`, :func:`sum_plan` and :func:`rate_sum` add them, for
both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class ModelParams:
    """Rates of the open atoms-cavity system.

    Attributes
    ----------
    n_atoms : int
        Number N of two-level emitters.
    photon_cutoff : int
        Maximum photon number M of the truncated cavity mode (M = 1 for a
        hard photon blockade).
    coupling : float
        Atom-cavity coupling g; the interaction is (g/2) sum_j (s_j^+ b + s_j^- b^+).
    cavity_decay : float
        Cavity (polariton) decay rate kappa.
    pump : float
        Incoherent repump rate w per atom.
    spont_emission : float
        Spontaneous emission rate gamma per atom.
    dephasing : float
        Dephasing rate gamma_d per atom (Lindblad prefactor gamma_d/4 on
        1 - s_j^z . s_j^z sandwiches).
    """

    n_atoms: int
    photon_cutoff: int
    coupling: float
    cavity_decay: float
    pump: float
    spont_emission: float = 0.0
    dephasing: float = 0.0


#: each unit-rate part of the master equation and the ModelParams field of
#: its rate, in the order in which :func:`rate_sum` adds the parts
PART_RATES = {
    "hamiltonian": "coupling",        # i[rho, H_1]
    "cavity_decay": "cavity_decay",   # D[a]
    "pump": "pump",                   # sum_j D[s_j^+]
    "spont": "spont_emission",        # sum_j D[s_j^-]
    "deph": "dephasing",              # (1/4) sum_j D[s_j^z]
}


@dataclass(frozen=True)
class DerivedScales:
    """Dimensionless combinations used throughout the analysis.

    ``cooperativity`` is C = g^2/(kappa*gamma) and is None when gamma = 0.
    ``purcell_rate`` is the combination C*gamma = g^2/kappa, which stays
    well defined at gamma = 0 and sets the collective emission scale N*C*gamma.
    ``kappa_tilde`` is kappa/(N g) = sqrt(kappa/(N^2 C gamma)) and
    ``w_tilde`` is w N / kappa.
    """

    cooperativity: Optional[float]
    purcell_rate: float
    kappa_tilde: float
    w_tilde: float


def validate(params: ModelParams) -> ModelParams:
    """Check invariants of a parameter set; return it unchanged if valid."""
    if params.n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    if params.photon_cutoff < 1:
        raise ValueError("photon_cutoff must be >= 1")
    for name in PART_RATES.values():
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if value < 0:
            raise ValueError(f"rates must be non-negative; {name} = {value!r}")
    return params


def derive_scales(params: ModelParams) -> DerivedScales:
    """Compute C, C*gamma, kappa_tilde and w_tilde for a parameter set."""
    validate(params)
    g, kappa = params.coupling, params.cavity_decay
    if kappa <= 0:
        raise ValueError("cavity_decay must be positive to form dimensionless scales")
    if g <= 0:
        raise ValueError("coupling must be positive to form kappa_tilde")
    purcell = g * g / kappa
    coop = purcell / params.spont_emission if params.spont_emission > 0 else None
    return DerivedScales(
        cooperativity=coop,
        purcell_rate=purcell,
        kappa_tilde=kappa / (params.n_atoms * g),
        w_tilde=params.pump * params.n_atoms / kappa,
    )


def random_params(rng, n_atoms: int, cutoff: int,
                  with_gamma: bool = True) -> ModelParams:
    """Rates drawn uniformly from the ranges used for randomized validation.

    ``rng`` is a numpy Generator; the draws are g, kappa, w, then gamma and
    gamma_d. With ``with_gamma=False`` the last two are 0 and consume no draws.
    """
    return ModelParams(
        n_atoms=n_atoms, photon_cutoff=cutoff,
        coupling=rng.uniform(0.2, 1.5),
        cavity_decay=rng.uniform(0.3, 2.0),
        pump=rng.uniform(0.05, 1.5),
        spont_emission=rng.uniform(0.0, 0.5) if with_gamma else 0.0,
        dephasing=rng.uniform(0.0, 0.5) if with_gamma else 0.0,
    )


def coupling_from_kappa_tilde(n_atoms: int, kappa: float, kappa_tilde: float) -> float:
    """Invert kappa_tilde = kappa/(N g) for the coupling g."""
    if kappa_tilde <= 0 or kappa <= 0 or n_atoms < 1:
        raise ValueError("kappa, kappa_tilde must be positive and n_atoms >= 1")
    return kappa / (n_atoms * kappa_tilde)


class SumPlan(NamedTuple):
    """Union CSR pattern of unit parts: each part's data with the int32
    slots of its entries, in CSR order, in the union's ``indices``. Holds
    the parts' own data arrays; treat all of it as immutable."""

    parts: Dict[str, Tuple[np.ndarray, np.ndarray]]
    indices: np.ndarray
    indptr: np.ndarray
    shape: Tuple[int, int]


def sum_plan(parts: Dict[str, sp.csr_matrix]) -> SumPlan:
    """The :class:`SumPlan` of canonical CSR parts of one shape, keyed by
    the names of :data:`PART_RATES`."""
    n_rows, n_cols = next(iter(parts.values())).shape
    keys = {name: np.repeat(np.arange(n_rows, dtype=np.int64) * n_cols,
                            np.diff(part.indptr)) + part.indices
            for name, part in parts.items()}
    # each part's keys are sorted, so a stable sort merges sorted runs:
    # with a mask of repeats, 1.2 ms against np.unique's 26 ms for the
    # sector parts at N = 100, charge 0
    merged = np.sort(np.concatenate(list(keys.values())), kind="stable")
    union = merged[np.diff(merged, prepend=-1) != 0]   # keys are >= 0
    return SumPlan(
        parts={name: (part.data,
                      np.searchsorted(union, keys[name]).astype(np.int32))
               for name, part in parts.items()},
        indices=(union % n_cols).astype(np.int32),
        indptr=np.searchsorted(union, np.arange(n_rows + 1) * n_cols
                               ).astype(np.int32),
        shape=(n_rows, n_cols))


def rate_sum(params: ModelParams, plan: SumPlan) -> sp.csr_matrix:
    """Rate-weighted sum of the real unit parts of ``plan``.

    Each part with a nonzero rate and entries adds rate * its data into
    one float64 array on the union pattern, in :data:`PART_RATES` order,
    and the exact zeros of the sum are dropped: the numbers, pattern and
    order of the sum of sparse matrices, whose additions drop exact zeros
    too, without their merges. The matrix owns its arrays.
    """
    data = np.zeros(len(plan.indices))
    for name, field in PART_RATES.items():
        part_data, slots = plan.parts[name]
        rate = getattr(params, field)
        if rate != 0.0 and len(part_data):
            data[slots] += part_data * rate
    kept = data != 0
    if kept.all():
        indices, indptr = plan.indices.copy(), plan.indptr.copy()
    else:
        data, indices = data[kept], plan.indices[kept]
        counts = np.zeros(len(kept) + 1, dtype=np.int32)
        np.cumsum(kept, out=counts[1:])
        indptr = counts[plan.indptr]
    return sp.csr_matrix((data, indices, indptr), shape=plan.shape)


#: i^k for k = 0, 1, 2, 3: the phases of the photon gauge
I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def to_gauge(mat: sp.csr_matrix, power: np.ndarray,
             name: str) -> sp.csr_matrix:
    """diag(i^power) mat diag(i^power)^-1, float64, on the index arrays
    of ``mat``. ``power`` is an integer per index: n_adag + n_a of a
    sector element, n_ph(r) - n_ph(c) of the oracle's flattened index
    r dim + c. Each entry is multiplied by a power of i, which is exact;
    an imaginary part left over raises AssertionError naming ``name``."""
    z = from_gauge(mat, -power)
    if z.data.imag.any():
        raise AssertionError(f"gauged {name} part is not real")
    return sp.csr_matrix((z.data.real.copy(), mat.indices, mat.indptr),
                         shape=mat.shape)


def from_gauge(mat: sp.csr_matrix, power: np.ndarray) -> sp.csr_matrix:
    """Inverse of :func:`to_gauge`, exact, on the index arrays of ``mat``:
    entry (r, c) times i^(power_c - power_r)."""
    k = np.take(power, mat.indices) - np.repeat(power, np.diff(mat.indptr))
    return sp.csr_matrix((mat.data * I_POWERS[k & 3], mat.indices,
                          mat.indptr), shape=mat.shape)
