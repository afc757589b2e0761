"""Physical parameters of the driven atoms + truncated-cavity model.

All rates are angular frequencies in a single consistent unit (typically
the problem is scaled so that ``cavity_decay = 1``). The cavity mode holds
at most ``photon_cutoff`` photons; ``photon_cutoff = 1`` is the fully
blockaded (two-level) cavity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


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
    rates = {
        "coupling": params.coupling,
        "cavity_decay": params.cavity_decay,
        "pump": params.pump,
        "spont_emission": params.spont_emission,
        "dephasing": params.dephasing,
    }
    for name, value in rates.items():
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
