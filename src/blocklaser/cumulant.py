"""Second-order cumulant description of the collective emission.

Factorizing third-order moments (e.g. <b^+ s_1^- s_2^z> into
<b^+ s_1^-><s_2^z>) closes the moment hierarchy on four quantities: the
inversion z = <s_1^z>, the cross-atom coherence s = <s_1^+ s_2^->, the
mode occupation n = <b^+ b> and the atom-mode coherence x = <b^+ s_1^->.
Their equations of motion are

    dz/dt = i g (x - x*) - (w + gamma) z + (w - gamma)
    ds/dt = (g z / 2i) (x - x*) - (w + gamma + gamma_d) s
    dn/dt = (N g / 2i) (x - x*) - kappa n
    dx/dt = (i g / 2) { [ (N-1) s + (z+1)/2 ] B + n z }
            - ((w + kappa + gamma + gamma_d)/2) x

where B = <1 - 2 b^+ b> = 1 - 2n for the blockaded (two-level) mode and
B = 1 for a normal bosonic mode; B is the only place the mode statistics
enter, through the commutator [b, b^+] = 1 - 2 b^+ b versus [a, a^+] = 1.
Cross-atom coherence is treated as real, s = <s_1^- s_2^+>, which the
permutation symmetry of the full model guarantees.

In the large-N limit at fixed wt = w N / kappa and kt = kappa/(N g) the
blockaded steady state has the closed form

    n      = (1/4) (1 + wt - sqrt((1 - wt)^2 + 4 wt^2 kt^2)),

which the factorization reproduces exactly at N -> infinity.

Every fixed point at finite N is a root of one cubic. Re x relaxes to 0
on its own, and with n = N g t, x = i kappa t the equations for n and
Re x hold for every t. Those for z and s then give

    z = z0 - z1 t,   z0 = (w - gamma)/(w + gamma),  z1 = 2 g kappa/(w + gamma),
    s = g kappa t z / (w + gamma + gamma_d),

and dx/dt = 0 is a polynomial of degree <= 3 in t (the t^3 term comes
from the blockade's 2n, so the normal mode gives a quadratic). Nothing is
divided by g or kappa, so the uncoupled atom (g = 0) and the lossless
mode (kappa = 0) are ordinary roots. :func:`cumulant_steady` takes the
real roots, polishes those in the physical range with full Newton steps
and certifies each: residual within the gate, physical range
(<S^+ S^-> >= 0 allows s < 0) and a Jacobian with every eigenvalue in the
left half plane. Exactly one root must pass.

No two-time function is modelled here. The paper's linewidth of the
narrow spectral component,

    Gamma  = C gamma sqrt((1 - wt)^2 + 4 wt^2 kt^2),

is the slow rate of the factorized regression equations for
(<b^+(t) b(0)>, <s_1^+(t) b(0)>) to leading order in kt only; at finite
kt their slow rate tends to a different limit (0.769 C gamma against
0.666 C gamma at wt = 1.05, kt = 0.316). Neither is the limit of the exact
model: the slow rate is a 1/N effect (gain and loss of the collective
dipole cancel at leading order), set by the fluctuations of single atoms
and of the saturated mode that the factorization does not keep. The
exact large-N rate is derived in :func:`large_n_linewidth`; at wt = 1.05,
kt = 0.316 it is 0.492 C gamma, which the exact slow rates 0.662, 0.597,
0.566, 0.543 C gamma at N = 30, 50, 70, 100 approach as 1/N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .dynamics import SolverError
from .model import ModelParams, derive_scales, validate


@dataclass
class CumulantState:
    sz: float
    spsm: float
    nb: float
    bdsm: complex

    def as_vector(self) -> np.ndarray:
        return np.array([self.sz, self.spsm, self.nb,
                         self.bdsm.real, self.bdsm.imag])

    @staticmethod
    def from_vector(y: np.ndarray) -> "CumulantState":
        return CumulantState(sz=float(y[0]), spsm=float(y[1]), nb=float(y[2]),
                             bdsm=complex(y[3], y[4]))


def _rhs_vec(y: np.ndarray, params: ModelParams, blockaded: bool) -> np.ndarray:
    N = params.n_atoms
    g, kappa, w = params.coupling, params.cavity_decay, params.pump
    gam, gam_d = params.spont_emission, params.dephasing
    z, s, n, u, v = y
    B = 1.0 - 2.0 * n if blockaded else 1.0
    half = 0.5 * (w + kappa + gam + gam_d)
    X = ((N - 1) * s + 0.5 * (z + 1.0)) * B + n * z
    return np.array([
        -2.0 * g * v - (w + gam) * z + (w - gam),
        g * z * v - (w + gam + gam_d) * s,
        N * g * v - kappa * n,
        -half * u,
        0.5 * g * X - half * v,
    ])


def _jac_vec(y: np.ndarray, params: ModelParams, blockaded: bool) -> np.ndarray:
    N = params.n_atoms
    g, kappa, w = params.coupling, params.cavity_decay, params.pump
    gam, gam_d = params.spont_emission, params.dephasing
    z, s, n, u, v = y
    B = 1.0 - 2.0 * n if blockaded else 1.0
    dB = -2.0 if blockaded else 0.0
    half = 0.5 * (w + kappa + gam + gam_d)
    J = np.zeros((5, 5))
    J[0, 0] = -(w + gam)
    J[0, 4] = -2.0 * g
    J[1, 0] = g * v
    J[1, 1] = -(w + gam + gam_d)
    J[1, 4] = g * z
    J[2, 2] = -kappa
    J[2, 4] = N * g
    J[3, 3] = -half
    J[4, 0] = 0.5 * g * (0.5 * B + n)
    J[4, 1] = 0.5 * g * (N - 1) * B
    J[4, 2] = 0.5 * g * (((N - 1) * s + 0.5 * (z + 1.0)) * dB + z)
    J[4, 4] = -half
    return J


def cumulant_rhs(state: CumulantState, params: ModelParams,
                 blockaded: bool = True) -> CumulantState:
    """Time derivative of the cumulant variables."""
    validate(params)
    return CumulantState.from_vector(_rhs_vec(state.as_vector(), params, blockaded))


def cumulant_jacobian(state: CumulantState, params: ModelParams,
                      blockaded: bool = True) -> np.ndarray:
    """Analytic Jacobian in the (sz, spsm, nb, Re bdsm, Im bdsm) ordering."""
    validate(params)
    return _jac_vec(state.as_vector(), params, blockaded)


#: a polished root moves by less than this (relative) under one more Newton step
POLISH_RTOL = 1e-12
#: Newton's residual gate, in units of the largest rate
RESIDUAL_TOL = 1e-12
#: a root t of the cubic is real when |Im t| is at most this times |t|
REAL_RTOL = 1e-6
#: slack of the physical-range screen in :func:`_admissible`
ADMISSIBLE_SLACK = 1e-6


def _rate_scale(params: ModelParams) -> float:
    return max(params.cavity_decay,
               params.pump + params.spont_emission + params.dephasing,
               params.n_atoms * params.coupling)


def _fixed_points(params: ModelParams, blockaded: bool) -> List[np.ndarray]:
    """Every real fixed point, from the real roots t of one cubic.

    With n = N g t and x = i kappa t (see the module docstring) z, s and
    the mode factor B = 1 - 2 N g t (or 1) are linear or quadratic in t,
    so Im dx/dt = (g/2) X(t) - ((w + kappa + gamma + gamma_d)/2) kappa t
    is a polynomial in t, with X as in :func:`_rhs_vec`. Complex pairs
    within :data:`REAL_RTOL` of the real axis count once, at their real
    part.
    """
    N = params.n_atoms
    g, kappa, w = params.coupling, params.cavity_decay, params.pump
    gam, gam_d = params.spont_emission, params.dephasing
    z0 = (w - gam) / (w + gam)
    z1 = 2.0 * g * kappa / (w + gam)
    a = g * kappa / (w + gam + gam_d)          # s = a t z
    b = 2.0 * N * g if blockaded else 0.0     # B = 1 - b t
    half = 0.5 * (w + kappa + gam + gam_d)
    # (N - 1) s + (z + 1)/2 = p0 + p1 t + p2 t^2
    p0 = 0.5 * (z0 + 1.0)
    p1 = (N - 1) * a * z0 - 0.5 * z1
    p2 = -(N - 1) * a * z1
    # X = (p0 + p1 t + p2 t^2)(1 - b t) + N g t (z0 - z1 t)
    coeffs = 0.5 * g * np.array([-b * p2,
                                 p2 - b * p1 - N * g * z1,
                                 p1 - b * p0 + N * g * z0,
                                 p0])
    coeffs[2] -= half * kappa
    roots = np.roots(coeffs)
    real = np.unique(roots.real[np.abs(roots.imag) <= REAL_RTOL * np.abs(roots)])
    return [np.array([z0 - z1 * t, a * t * (z0 - z1 * t), N * g * t, 0.0, kappa * t])
            for t in real]


def _polish(y: np.ndarray, params: ModelParams, blockaded: bool) -> np.ndarray:
    """Full Newton steps until the step is below ``POLISH_RTOL`` of the
    state or stops shrinking.

    A residual gate alone would stop short of the root where the Jacobian
    is ill-conditioned: next to the normal-mode threshold (cond ~ 2.5e7)
    a state at residual 1.6e-12 is still 4e-6 relative off the root.
    """
    last = np.inf
    for _ in range(80):
        try:
            step = np.linalg.solve(_jac_vec(y, params, blockaded),
                                   -_rhs_vec(y, params, blockaded))
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular cumulant Jacobian") from exc
        size = np.linalg.norm(step, np.inf)
        if size <= POLISH_RTOL * np.linalg.norm(y, np.inf) or size >= last:
            return y
        y, last = y + step, size
    raise SolverError(f"Newton polish still moving by {last:.3e} after 80 steps")


def _certificate_failure(y: np.ndarray, params: ModelParams, blockaded: bool,
                         tol: float) -> Optional[str]:
    """None if y is a stable physical root, else the check it fails."""
    resid = np.linalg.norm(_rhs_vec(y, params, blockaded), np.inf)
    if not resid <= tol:
        return f"residual {resid:.3e} above {tol:.3e}"
    if not _admissible(y, params.n_atoms):
        return f"state {CumulantState.from_vector(y)} outside the physical range"
    growth = np.linalg.eigvals(_jac_vec(y, params, blockaded)).real.max()
    if not growth < 0:
        return f"unstable: Jacobian eigenvalue with real part {growth:.3e}"
    return None


def cumulant_steady(params: ModelParams, blockaded: bool = True) -> CumulantState:
    """Stable physical fixed point of the cumulant equations.

    Every real fixed point comes from the roots of one cubic (see
    :func:`_fixed_points`). Those in the physical range (-1 <= z <= 1,
    <S^+ S^-> >= 0, s <= 1/4, n >= 0) are polished with full Newton steps
    (see :func:`_polish`) and must pass a certificate: the residual is
    within :data:`RESIDUAL_TOL` (in units of the largest rate), the state
    is still in the physical range and every eigenvalue of the Jacobian
    there has a negative real part. The one root that passes is returned.
    If none or more than one passes (a self-pulsing regime, or
    bistability), SolverError lists every root's failed check. With
    g = 0 and kappa = 0 together every n is a fixed point, and
    SolverError says so.
    """
    validate(params)
    if params.pump + params.spont_emission <= 0:
        raise ValueError("need pump + spont_emission > 0 for a relaxing fixed point")
    if params.coupling == 0.0 and params.cavity_decay == 0.0:
        # every coefficient of the cubic vanishes: every n is a fixed point
        raise SolverError("g = 0 and kappa = 0 leave the mode occupation "
                          "undetermined")
    tol = RESIDUAL_TOL * _rate_scale(params)
    roots, checks = [], []
    for y in _fixed_points(params, blockaded):
        if not _admissible(y, params.n_atoms):
            failure = f"state {CumulantState.from_vector(y)} outside the physical range"
        else:
            try:
                y = _polish(y, params, blockaded)
                failure = _certificate_failure(y, params, blockaded, tol)
            except SolverError as exc:
                failure = str(exc)
        if failure is None:
            roots.append(y)
        checks.append(failure or f"certified {CumulantState.from_vector(y)}")
    if len(roots) == 1:
        return CumulantState.from_vector(roots[0])
    raise SolverError(f"{len(roots)} certified cumulant fixed points among "
                      f"{len(checks)} real roots: " + "; ".join(checks))


def _admissible(y: np.ndarray, n_atoms: int) -> bool:
    """Physical range: -1 <= z <= 1, s <= 1/4, n >= 0 and
    <S^+ S^-> = N (1 + z)/2 + N (N - 1) s >= 0, i.e. s may be negative
    (anticorrelated atoms) down to -(1 + z)/(2 (N - 1)), each within
    :data:`ADMISSIBLE_SLACK`."""
    z, s, n = y[0], y[1], y[2]
    slack = ADMISSIBLE_SLACK
    s_min = -(1.0 + z) / (2.0 * (n_atoms - 1)) if n_atoms > 1 else -np.inf
    return (-1.0 - slack <= z <= 1.0 + slack
            and s_min - slack <= s <= 0.25 + slack
            and n >= -slack)


def closed_form_photon(params: ModelParams) -> float:
    """Large-N blockaded-mode occupation from the dimensionless scales."""
    sc = derive_scales(params)
    wt, kt = sc.w_tilde, sc.kappa_tilde
    return 0.25 * (1.0 + wt - np.sqrt((1.0 - wt) ** 2 + 4.0 * wt ** 2 * kt ** 2))


def closed_form_linewidth(params: ModelParams) -> float:
    """The paper's large-N linewidth C gamma sqrt((1 - wt)^2 + 4 wt^2 kt^2).

    It agrees with the large-N slow rate of the factorized regression
    equations only to leading order in kt, and it is not the limit of the exact model at
    finite kt: at wt = 1.05, kt = 0.316 it gives 0.666 C gamma while the
    exact slow rates fall from 0.662 C gamma (N = 30) through 0.543 C gamma
    (N = 100) towards :func:`large_n_linewidth` = 0.492 C gamma. As kt -> 0
    it is twice that limit.

    Expressed through C*gamma = g^2/kappa, so it remains defined when the
    spontaneous rate is set to zero in the model.
    """
    sc = derive_scales(params)
    wt, kt = sc.w_tilde, sc.kappa_tilde
    return sc.purcell_rate * np.sqrt((1.0 - wt) ** 2 + 4.0 * wt ** 2 * kt ** 2)


def large_n_linewidth(params: ModelParams) -> float:
    """Exact large-N decay rate Gamma of the slow component of <b^+(t) b(0)>.

    Gamma is defined by g1 ~ (1 - 2n) exp(-Gamma t/2) and is the limit
    N -> infinity at fixed wt and kt of the blockaded model with
    gamma = gamma_d = 0 (like :func:`closed_form_photon`, it ignores both):

        Gamma = C gamma (wt (1 - n) - n) / (2 n) = C gamma (B + z) / (2 (1 - z))

    with n from :func:`closed_form_photon`, B = 1 - 2n and z = 1 - 2n/wt.

    Derivation. With the collective spin J^- = J_x - i J_y,
    [J_x, J_y] = i J_z (so J_z = S^z/2), and the mode's Pauli operators
    sigma_x = b + b^+, sigma_y = i (b - b^+), sigma_z = 2 b^+ b - 1, the
    Hamiltonian is H = (g/2) (J_x sigma_x + J_y sigma_y). At large N the
    atoms carry a dipole of length |<J^->| = N sqrt(s), s = n kt^2 / B,
    with a free phase; take it along x. The exact equations of motion are

        d<J_y^2>/dt        = -(g/2) <sigma_x {J_y, J_z}> - w <J_y^2> + N w/4
        d<sigma_x J_y>/dt  = -((kappa + w)/2) <sigma_x J_y>
                             + g <sigma_z J_y^2> - (g/2) <J_z>,

    where N w/4 comes from the pump acting on each atom's own sigma_y^2 = 1
    and -(g/2) <J_z> from the blockade identity sigma_x^2 = 1. To leading
    order in 1/N, J_z -> N z/2 inside the correlations and
    <sigma_z J_y^2> -> -B <J_y^2>. The mode correlation relaxes at kappa/2,
    fast against the O(1/N) atomic rates, so it follows adiabatically:

        d<J_y^2>/dt = (g^2 N z B/kappa - w) <J_y^2> + N w/4 + g^2 N^2 z^2/(4 kappa).

    The bracket is zero by the mean-field gain condition g^2 N z B = w kappa,
    so the transverse variance grows at a constant rate: the phase phi of
    the dipole diffuses with d<phi^2>/dt = (N w/4 + g^2 N^2 z^2/(4 kappa))/(N^2 s),
    and <e^{i phi(t)} e^{-i phi(0)}> decays as exp(-Gamma t/2) with Gamma
    equal to that rate. Inserting s, z = wt kt^2/B and n = wt (1 - z)/2
    gives the formula above. The neglected terms are O(1/N) relative, which
    is how the exact slow rates approach it.

    Raises ValueError below the coherent-emission threshold
    (wt = 0 or wt kt^2 >= 1), where there is no dipole whose phase could
    diffuse.
    """
    sc = derive_scales(params)
    wt, kt = sc.w_tilde, sc.kappa_tilde
    if wt <= 0.0 or wt * kt ** 2 >= 1.0:
        raise ValueError("large-N linewidth needs coherent emission, "
                         f"0 < wt kt^2 < 1 (wt = {wt!r}, kt = {kt!r})")
    n = closed_form_photon(params)
    return sc.purcell_rate * (wt * (1.0 - n) - n) / (2.0 * n)
