"""Time evolution and steady states of symmetric coefficient vectors.

All solvers conjugate the sector matrix by the Hilbert-Schmidt basis
scaling (see :func:`blocklaser.liouvillian.basis_scaling`) before doing
numerics and convert back afterwards: the raw operator-content basis is
exponentially ill-scaled in N, and without the similarity both sparse LU
and the propagator silently lose accuracy beyond a few tens of atoms.
Inputs and outputs always use the raw coefficient convention.

A :class:`~blocklaser.liouvillian.Superoperator` holds its generator in
the photon gauge, where it is real (see :mod:`blocklaser.liouvillian`).
``propagate`` walks that matrix; the g1 and g2 seeds and readouts are a
real vector times a power of i there, so their walks run in float64 and
get the power back at each read. ``steady_state`` and ``slow_eigenmode``
factor the complex generator (``Superoperator.physical``): a real LU of
the gauged bordered matrix picks a different pivot order, and at N = 100
that moves nb, sz and spsm by up to 4.9e-6 relative, more than the 1e-7
at which ``perfbench/reference.json`` pins the benchmark's outputs.

Time evolution has one propagator, ``propagate``, the truncated Taylor
method of Al-Mohy & Higham (2011) with the norms that choose the Taylor
degree taken once per grid. It returns a :class:`Propagation`: the
values on the grid, where, if anywhere, its analytic tail began, and its
number of products with the generator. Grid points closer together than
H_max = theta_55 / ||A||_1 share one Taylor run, whose terms are read at
each of them (dense output); a longer gap is one step of its own. If any
gap of the grid needs the estimates of ||A^p||_1, they are taken once,
before the first long step, and every long step chooses its degree and
sub-step count from them; a run chooses from ||A||_1 alone. Readouts are
linear functionals, so a run is read through its terms without forming
the state at every point.
Late in a decay the state is one slow eigenmode. After each long step
from t_k to t_k+1 = t_k + h, the walk compares the propagated state
c(t_k+1) with e^(theta h) c(t_k), theta the Rayleigh quotient of c(t_k).
Once they agree to a tolerance scaled by h over the span still ahead,
and Re theta < 0, every later point is read in closed form as c(t_k+1)
e^(theta (t - t_k+1)) (analytic tail). A rotating, growing or
still-mixing state fails the test and is propagated as before.
The walk holds the shifted generator A = mat - mu I in one of two forms,
by size alone: a dense C-ordered array up to :data:`_DENSE_ROWS` (128)
rows, where one BLAS product costs less than scipy's per-call sparse
dispatch, and CSR above (the crossover table is at the constant: 0.9-2.3
us dense against 3.3-3.9 us CSR at 16-124 rows, even at about 170 rows,
99 against 6.9 us at 625). The two forms hold the same entries and the
same ||A||_1; their products differ only in rounding.

Every steady state, whatever the sector size, takes one sparse LU of the
trace-bordered Liouvillian B. Its factors give the solution, and, through
the pencil (B, P) with P the projector that drops the bordered row, the
charge-0 spectral gap that certifies uniqueness. There is no dense or
iterative fallback: a singular or degenerate sector raises
:class:`DegenerateSteadyStateError`, and a state that breaks a bound every
density matrix keeps (0 <= nb <= M, |sz| <= 1, spsm >= -(1 + sz) / (2 (N -
1))) raises :class:`PrecisionLossError`, as does one whose refinement step
from the same factors exceeds :data:`REFINEMENT_TOL` (from N ~ 140 on,
where the LU loses its digits with every other gate passing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import idamax

from .liouvillian import (Superoperator, basis_scaling, diagonal_functional,
                          gauge_power, number_functional, trace_functional)
from .model import I_POWERS
from .symbasis import BasisElement, SectorBasis


class SolverError(RuntimeError):
    """Base class for evolution / steady-state failures."""


class DegenerateSteadyStateError(SolverError):
    """The Liouvillian null space is not one-dimensional."""


class PrecisionLossError(SolverError):
    """A computed result breaks a bound that every physical answer keeps."""


@dataclass
class SymmetricState:
    """Coefficient vector over one sector basis."""

    sector: SectorBasis
    coeffs: np.ndarray


def expect_sigma_z(state: SymmetricState) -> float:
    """Per-atom inversion <s_1^z>."""
    row = diagonal_functional(state.sector, (0, 0, 1))
    return (row @ state.coeffs / state.sector.n_atoms).real


def expect_spin_spin(state: SymmetricState) -> float:
    """Cross-atom coherence <s_1^+ s_2^->; undefined for a single atom."""
    N = state.sector.n_atoms
    if N < 2:
        raise ValueError("spin-spin coherence needs at least two atoms")
    row = diagonal_functional(state.sector, (1, 1, 0))
    return (row @ state.coeffs / (4.0 * N * (N - 1))).real


def expect_photon_number(state: SymmetricState) -> float:
    """Cavity occupation <a^+ a>."""
    return (number_functional(state.sector) @ state.coeffs).real


def initial_mixed_state(sector: SectorBasis) -> SymmetricState:
    """Completely mixed state: identity / (2^N (M+1)).

    Only the contentless element carries weight, c_(0,0,0,0,0) = 1/(M+1),
    which gives unit trace against the trace functional.
    """
    if sector.delta_n != 0:
        raise ValueError("mixed state lives in the delta_n = 0 sector")
    coeffs = np.zeros(len(sector), dtype=complex)
    k = sector.index_of(BasisElement(0, 0, 0, 0, 0))
    coeffs[k] = 1.0 / (sector.photon_cutoff + 1)
    return SymmetricState(sector=sector, coeffs=coeffs)


def _scaled(mat: sp.csr_matrix, sector: SectorBasis) -> tuple:
    """(``mat`` on ``sector`` in the norm-scaled basis, scaling vector).

    The scaled matrix is diag(d) mat diag(1/d), d from ``basis_scaling``:
    the data of mat, a CSR matrix without duplicate entries or stored
    zeros (as every builder returns it), is multiplied by d[rows] and
    then by (1/d)[cols], in that order. Those are the products that the
    sparse products diags(d) @ mat @ diags(1/d) formed, entry by entry,
    so the numbers are the same. The result owns its index arrays.
    """
    d = basis_scaling(sector.n_atoms, sector.photon_cutoff, sector.delta_n)
    data = (mat.data * np.repeat(d, np.diff(mat.indptr))
            * np.take(1.0 / d, mat.indices))
    return sp.csr_matrix((data, mat.indices.copy(), mat.indptr.copy()),
                         shape=mat.shape), d


def _max_abs(v: np.ndarray):
    """max|v|, for a float64 vector as |v_k| with k from BLAS ``idamax``.

    That is np.abs(v).max() bit for bit on every vector without NaN, at a
    quarter of the cost. With a NaN term the two may differ, but the
    partial sum then holds the NaN, its exit test (against np.abs(f).max())
    never passes, and the walk ends non-finite as before. A complex vector
    takes np.abs: ``izamax`` ranks by |Re| + |Im|, not by modulus.
    """
    return abs(v[idamax(v)]) if v.dtype.char == "d" else np.abs(v).max()


def _split_phase(v: np.ndarray, real: bool) -> tuple:
    """(f, r) with v = f r: r a float64 vector and f = 1 or 1j if ``real``
    and v is a real or an imaginary vector, else (1, v)."""
    if real and not v.imag.any():
        return 1, v.real.copy()
    if real and not v.real.any():
        return 1j, v.imag.copy()
    return 1, v


#: theta_m of the truncated Taylor method: the largest ||h A||_1 for
#: which s = 1 step of degree m has backward error below 2^-53. Values
#: for m <= 30 are from Higham & Al-Mohy, Acta Numerica 19 (2010) 159,
#: Table A.3; m = 35..55 from Al-Mohy & Higham, SIAM J. Sci. Comput. 33
#: (2011) 488, Table 3.1.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_M_MAX = 55
_P_MAX = 8          # largest p with p (p - 1) <= m_max + 1
_TAYLOR_TOL = 2.0 ** -53
#: growth factor of the running bound on max|f| in the Taylor loop, far
#: above the few units of 2^-53 that one rounded update can add
_FMAX_SLACK = 1.0 + 2.0 ** -40
#: condition (3.13) with l = 2 estimator columns and one vector: below
#: this ||h A||_1 the degree choice needs no estimate of ||A^p||_1
_NORM_ONLY_BOUND = 2 * 2 * _P_MAX * (_P_MAX + 3) * _THETA[_M_MAX] / _M_MAX
#: relative error allowed over the whole analytic tail of ``propagate``
_TAIL_TOL = 1e-12
#: the largest generator that ``_TaylorStepper`` holds as a dense array;
#: a larger one stays CSR. Below the cut a float64 ``A @ v`` costs less
#: as one BLAS product than scipy's per-call sparse dispatch. Best of
#: 5 x 3000 products on shifted, scaled sector generators, BLAS on 1
#: thread (2-vCPU VM):
#:
#:   rows (nnz)           dense          CSR
#:   16-124 (87-1341)     0.9-2.3 us     3.3-3.9 us
#:   137 (1405)           3.3 us         4.2 us
#:   174 (1832)           4.5 us         4.7 us
#:   625 (4969)           99 us          6.9 us
#:
#: The cut sits below the crossover, and a dense A stays within 128 KB.
_DENSE_ROWS = 128
#: the degrees m of _THETA and their theta_m, in its order
_DEGREES = np.array(list(_THETA), dtype=float)
_THETAS = np.array(list(_THETA.values()))
#: the choices (p, index of m in _THETA) that the estimates allow, p
#: outer: every m >= p (p - 1) - 1, for p = 2..p_max
_CHOICE_P, _CHOICE_K = np.array([(p, k) for p in range(2, _P_MAX + 1)
                                 for k, m in enumerate(_THETA)
                                 if m >= p * (p - 1) - 1]).T


class _TaylorStepper:
    """v -> exp(h mat) v by Al-Mohy & Higham (2011), Algorithm 3.2.

    Everything that fixes the Taylor degree m* and the step count s
    belongs to mat alone: the shift mu = tr(mat) / n, the exact 1-norm of
    A = mat - mu I and d_p = ||A^p||_1^(1/p), and d_p(h A) = h d_p(A). So
    a grid of gaps h shares one ||A||_1, one set of d_p (p = 2..9,
    estimated only if some gap fails condition (3.13)) and one (m*, s)
    per distinct gap. Once the d_p exist, every long step (h ||A||_1 >
    theta_55) chooses (m*, s) from them: d_p <= ||A||_1, so the backward
    error stays below 2^-53 at a cost m* s no larger than ||A||_1 alone
    gives. A run (h ||A||_1 <= theta_55) chooses from ||A||_1 alone and
    takes s = 1. A real mat and a real vector keep every term in float64.
    ``matvecs`` counts products with A: one per Taylor term, plus those
    its caller adds (the Rayleigh quotients of ``propagate``).

    A mat of at most :data:`_DENSE_ROWS` rows is held as a dense
    C-ordered array, ``mat.toarray()`` with mu taken off its diagonal,
    and a larger one as CSR, ``mat - mu I``; every Taylor term, Rayleigh
    quotient and norm estimate runs on A as held. Both forms hold the
    same entries, and ||A||_1, the column sums in row order, is the same
    number in both.
    """

    def __init__(self, mat: sp.csr_matrix):
        n = mat.shape[0]
        self.mu = mat.diagonal().sum() / n
        if n <= _DENSE_ROWS:
            self.A = mat.astype(np.result_type(mat.dtype, np.float64),
                                copy=False).toarray()
            self.A.flat[::n + 1] -= self.mu
        else:
            self.A = (mat - self.mu * sp.identity(n, format="csr")).tocsr()
        self.norm1 = float(abs(self.A).sum(axis=0).max())
        self._d = None
        self._degrees = {}
        self.matvecs = 0

    def _norm_powers(self) -> np.ndarray:
        """d_p at index p = 2..p_max+1 (entries 0 and 1 unused) by
        ``onenormest``.

        Its random sign vectors come from numpy's global RNG; they run
        under a fixed seed here, and the caller's RNG state is restored.
        """
        if self._d is None:
            op = spla.aslinearoperator(self.A)
            state = np.random.get_state()
            np.random.seed(0)
            try:
                self._d = np.array([np.nan, np.nan] + [
                    spla.onenormest(op ** p) ** (1.0 / p)
                    for p in range(2, _P_MAX + 2)])
            finally:
                np.random.set_state(state)
            self._degrees.clear()   # long steps now choose from the d_p
        return self._d

    def _degree(self, h: float) -> tuple:
        """(m*, s) of code fragment (3.1) for the matrix h A."""
        if h not in self._degrees:
            self._degrees[h] = self._fragment_3_1(h)
        return self._degrees[h]

    def _fragment_3_1(self, h: float) -> tuple:
        norm = h * self.norm1
        if norm == 0.0:
            return 0, 1
        if norm <= _THETA[_M_MAX] or (norm <= _NORM_ONLY_BOUND
                                      and self._d is None):
            m, s = _DEGREES, np.ceil(norm / _THETAS)
        else:
            d = self._norm_powers()
            alpha = np.maximum(d[_CHOICE_P], d[_CHOICE_P + 1])
            m = _DEGREES[_CHOICE_K]
            s = np.maximum(np.ceil(h * alpha / _THETAS[_CHOICE_K]), 1.0)
        # the first of the cheapest, counted in mat-vecs m s
        k = int(np.argmin(m * s))
        return int(m[k]), int(s[k])

    def _partial_sum(self, v: np.ndarray, h: float, s: int, m: int,
                     rows: Optional[list] = None) -> np.ndarray:
        """One of s sub-steps without its factor e^(mu h / s): the sum of
        the terms (h A / s)^j v / j!, j = 0..m, up to the early exit.

        The exit test c1 + c2 <= tol max|f| needs max|f| only when it can
        pass: fmax, grown from max|v| by c2 and a rounding slack at each
        update, bounds the computed max|f| from above, so while the test
        fails against fmax it fails against max|f| too, and every exit
        falls where the exact test alone would put it. With ``rows``, each
        term j >= 1 is appended to it. Each term adds one to ``matvecs``.
        """
        A = self.A
        c1 = _max_abs(v)
        fmax = c1  # v is f here
        f = v.copy()
        k = 0
        for k in range(1, m + 1):
            v = A @ v
            v *= h / (s * k)
            if rows is not None:
                rows.append(v)
            c2 = _max_abs(v)
            f += v
            fmax = (fmax + c2) * _FMAX_SLACK
            if (c1 + c2 <= _TAYLOR_TOL * fmax
                    and c1 + c2 <= _TAYLOR_TOL * np.abs(f).max()):
                break
            c1 = c2
        self.matvecs += k
        return f

    def step(self, v: np.ndarray, h: float) -> np.ndarray:
        """exp(h mat) v in the s sub-steps of degree m* that h needs."""
        m, s = self._degree(h)
        eta = np.exp(h * self.mu / s)
        for _ in range(s):
            v = self._partial_sum(v, h, s, m)
            v *= eta
        return v

    def run(self, v: np.ndarray, h: float) -> tuple:
        """(term rows, exp(h mat) v) of one step with h ||A||_1 <= theta_55.

        Row j of the (k, n) array is (h A)^j v / j!, for the k terms the
        loop took, so exp(tau mat) v = e^(mu tau) sum_j (tau / h)^j row_j
        for every 0 < tau <= h. Such an h always takes s = 1 and never
        needs ``onenormest``. The end state is ``step(v, h)`` bit for bit.
        """
        m, s = self._degree(h)
        if s != 1:
            raise AssertionError(f"a run of h ||A||_1 = {h * self.norm1:g} "
                                 f"took {s} sub-steps")
        rows = [v]
        f = self._partial_sum(v, h, 1, m, rows)
        f *= np.exp(h * self.mu)
        return np.asarray(rows), f


@dataclass
class Propagation:
    """Values of one ``propagate`` walk and how its late tail was read.

    ``tail_delay`` is the grid delay after which every later point was read
    in closed form from the state there, as v e^(tail_eigenvalue (t -
    tail_delay)); both are None when the walk propagated to the last point.
    ``matvecs`` is the number of products with the generator: the Taylor
    terms and the Rayleigh quotients, not the norm estimates. It depends
    on the grid and the generator only, so identical runs agree on it.
    """

    values: np.ndarray
    tail_delay: Optional[float] = None
    tail_eigenvalue: Optional[complex] = None
    matvecs: int = 0


def propagate(L, c0: np.ndarray, times: Sequence[float],
              observe: Optional[np.ndarray] = None) -> Propagation:
    """Apply exp(L t) c0 on an increasing time grid starting from t = 0.

    ``L`` is a :class:`Superoperator` (propagated in the scaled basis) or
    a bare sparse matrix (used as is). The grid is walked in truncated
    Taylor steps of Al-Mohy & Higham (2011), with the norms that choose
    their degree taken once per call (see ``_TaylorStepper``):

    - the grid points within H_max = theta_55 / ||A||_1 of the last
      propagated time t0 share one run of step H, up to the farthest of
      them; every point t of the run is read from its term rows as
      e^(mu tau) sum_j (tau / H)^j row_j with tau = t - t0, and the end
      state starts the next run (dense output, Al-Mohy & Higham, section
      5). A run takes s = 1 and chooses its degree from ||A||_1, and each
      read point has ||tau A||_1 <= theta_m for the degree m the run used;
    - a gap longer than H_max is one step of s sub-steps, from t_k to
      t_k+1 = t_k + h. If any gap of the grid fails condition (3.13), the
      ||A^p||_1 estimates are taken once, before the first long step, and
      every long step takes its (m, s) from them; otherwise from
      ||A||_1. Before the step, theta = c^H mat c / c^H c, the Rayleigh
      quotient of the state c(t_k), costs one mat-vec. If Re theta < 0 and
      the propagated state is the one-mode prediction to within

          ||c(t_k+1) - e^(theta h) c(t_k)|| <= tol ||c(t_k+1)|| h / (T - t_k+1)

      (T the last grid delay, tol = :data:`_TAIL_TOL`), the state is one
      decaying eigenvector to that accuracy over the whole remaining
      span: the walk stops, and every later point t is read in closed
      form as c(t_k+1) e^(theta (t - t_k+1)) (analytic tail). A rotating
      or growing state fails the test and keeps propagating.

    A :class:`Superoperator` is walked as its real photon-gauge matrix;
    a bare sparse matrix is walked as given. With a real matrix, a start
    vector or readout that is a real vector times 1 or i walks and reads
    in float64, and the factor is put back at every read. Results do not
    depend on numpy's global RNG, which is left as it was. A state or read
    value that is not finite raises :class:`SolverError` naming its delay.
    ``observe``, if given, is a row vector l in the raw coefficient
    convention, and the returned :class:`Propagation` holds l . c(t) for
    each t in ``values``; otherwise ``values`` is the trajectory
    (len(times), dim). Its ``tail_delay`` and ``tail_eigenvalue`` say
    where the analytic tail began, and ``matvecs`` how many products with
    the generator the walk took.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d grid")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and non-negative")
    if callable(observe):
        raise TypeError("observe is a row vector of the linear readout, "
                        "not a callable")
    if isinstance(L, Superoperator):
        mat, d = _scaled(L.matrix, L.sector)
        g = I_POWERS[gauge_power(L.sector) & 3]
    else:
        mat = sp.csr_matrix(L)
        d = g = np.ones(mat.shape[0])
    dim = mat.shape[0]
    c = np.asarray(c0, dtype=complex)
    if c.shape != (dim,):
        raise ValueError(f"state has shape {c.shape} but the generator acts "
                         f"on dimension {dim}; wrong sector?")
    stepper = _TaylorStepper(mat)
    real = stepper.A.dtype.kind != "c"
    # one set of ||A^p||_1 estimates per walk, taken before its first long
    # step if any gap needs it; every long step then chooses from them
    if np.any(np.diff(times, prepend=0.0) * stepper.norm1 > _NORM_ONLY_BOUND):
        stepper._norm_powers()
    # the walk runs on c, the scaled-basis state divided by phase
    phase, c = _split_phase(c * d * g, real)
    if observe is None:
        out = np.empty((len(times), dim), dtype=complex)
        back = phase * g.conj()   # a walked state to raw, after / d
    else:
        ell = np.asarray(observe)
        if ell.shape != (dim,):
            raise ValueError(f"observe has shape {ell.shape}, not ({dim},)")
        # the readout of a scaled-basis state, split the same way
        ell_phase, ell = _split_phase(ell / d * g.conj(), real)
        phase = phase * ell_phase
        out = np.empty(len(times), dtype=complex)

    def read(state):
        return state / d * back if observe is None else phase * (ell @ state)

    i, t_prev = 0, 0.0
    if times[0] == 0.0:
        out[0] = read(c)
        i = 1
    while i < len(times):
        # the points of one run: h ||A||_1 <= theta_55, as _fragment_3_1
        # computes it, so the run takes s = 1
        end = i + int(np.searchsorted((times[i:] - t_prev) * stepper.norm1,
                                      _THETA[_M_MAX], side="right")) - 1
        theta = None
        if end < i:
            end, h = i, times[i] - t_prev
            if end + 1 < len(times) and c.any():
                theta = stepper.mu + np.vdot(c, stepper.A @ c) / np.vdot(c, c)
                stepper.matvecs += 1
                before = c
            c = stepper.step(c, h)
        else:
            h = times[end] - t_prev
            rows, c = stepper.run(c, h)
            tau = times[i:end] - t_prev
            weights = (np.exp(stepper.mu * tau)[:, None]
                       * np.vander(tau / h, len(rows), increasing=True))
            out[i:end] = (phase * (weights @ (rows @ ell))
                          if observe is not None
                          else (weights @ rows) / d * back)
            finite = np.isfinite(out[i:end])
            if out.ndim == 2:
                finite = finite.all(axis=1)
            if not finite.all():
                raise SolverError(f"propagated state is not finite at delay "
                                  f"t = {times[i + np.argmin(finite)]:g}")
        if not np.isfinite(c).all():
            raise SolverError(f"propagated state is not finite at "
                              f"delay t = {times[end]:g}")
        out[end] = read(c)
        i, t_prev = end + 1, times[end]
        if (theta is not None and theta.real < 0.0
                and np.linalg.norm(c - np.exp(theta * h) * before)
                <= _TAIL_TOL * np.linalg.norm(c) * h / (times[-1] - t_prev)):
            out[i:] = np.multiply.outer(np.exp(theta * (times[i:] - t_prev)),
                                        out[end])
            return Propagation(out, float(t_prev), complex(theta),
                               stepper.matvecs)
    return Propagation(out, matvecs=stepper.matvecs)


@dataclass
class SlowMode:
    """Slowest eigenvalue of a sector Liouvillian and its accuracy.

    ``condition`` is ||l|| ||r|| / |l^H r| from the left and right
    eigenvectors and ``norm1`` the 1-norm of the matrix, both in the
    norm-scaled basis where the numerics run.
    """

    eigenvalue: complex
    condition: float
    norm1: float

    @property
    def rate(self) -> float:
        """Decay rate in the convention g1 ~ exp(-rate t / 2)."""
        return -2.0 * self.eigenvalue.real

    @property
    def error_bound(self) -> float:
        """First-order bound condition * eps * ||L||_1 on the eigenvalue."""
        return self.condition * np.finfo(float).eps * self.norm1


def slow_eigenmode(L: Superoperator) -> SlowMode:
    """Eigenvalue of largest real part among the six nearest zero.

    Shift-invert Arnoldi at zero on the scaled ``L.physical()``; one
    sparse LU serves both the right and the left (adjoint) iteration, and both
    start from a fixed vector, so repeated calls agree bit for bit. The
    charge-0 sector is rejected: its zero eigenvalue is the steady state.
    A shifted sector of a physical generator decays, so an eigenvalue with
    Re lambda > 0 has lost its accuracy, and one whose first-order error
    bound reaches |Re lambda| has no certified sign or rate; both raise
    :class:`PrecisionLossError` with the bound and the sector dimension.
    """
    if L.sector.delta_n == 0:
        raise ValueError("slow modes are sought in shifted sectors; "
                         "charge 0 holds the steady state")
    mat, _ = _scaled(L.physical(), L.sector)
    lu = spla.splu(mat.tocsc())
    v0 = np.ones(mat.shape[0], dtype=complex)
    right = spla.LinearOperator(mat.shape, matvec=lu.solve, dtype=complex)
    mu, vecs = spla.eigs(right, k=6, which="LM", v0=v0)
    vals = 1.0 / mu
    i = int(np.argmax(vals.real))
    left = spla.LinearOperator(mat.shape, dtype=complex,
                               matvec=lambda x: lu.solve(x, trans="H"))
    mu_l, lvecs = spla.eigs(left, k=6, which="LM", v0=v0)
    j = int(np.argmin(np.abs(1.0 / mu_l - np.conj(vals[i]))))
    r, l = vecs[:, i], lvecs[:, j]
    condition = np.linalg.norm(l) * np.linalg.norm(r) / abs(np.vdot(l, r))
    mode = SlowMode(eigenvalue=complex(vals[i]), condition=float(condition),
                    norm1=float(spla.norm(mat, 1)))
    if mode.eigenvalue.real > 0.0:
        raise PrecisionLossError(
            f"slow eigenvalue {mode.eigenvalue:.3e} has Re lambda > 0 "
            f"(error bound {mode.error_bound:.2g}, sector dimension "
            f"{mat.shape[0]})")
    if mode.error_bound >= -mode.eigenvalue.real:
        raise PrecisionLossError(
            f"slow eigenvalue {mode.eigenvalue:.3e} is within its error "
            f"bound {mode.error_bound:.2g} of Re lambda = 0 (sector "
            f"dimension {mat.shape[0]})")
    return mode


def _bordered(mat: sp.spmatrix, t_scaled: np.ndarray, row: int) -> sp.csc_matrix:
    """``mat`` with one trace-redundant row replaced by the trace functional."""
    coo = mat.tocoo()
    keep = coo.row != row
    nz = np.nonzero(t_scaled)[0]
    rows = np.concatenate([coo.row[keep], np.full(len(nz), row)])
    cols = np.concatenate([coo.col[keep], nz])
    vals = np.concatenate([coo.data[keep], t_scaled[nz].astype(complex)])
    return sp.csc_matrix((vals, (rows, cols)), shape=mat.shape)


def _charge0_gap(lu, row: int) -> float:
    """Charge-0 gap |lambda_2|, the smallest nonzero eigenvalue modulus of
    the Liouvillian, from the LU factors ``lu`` of its bordered matrix B.

    A traceless eigenvector v (eigenvalue lambda) satisfies B v = lambda P v,
    where P zeroes entry ``row``, so x -> B^-1 P x has the eigenvalue
    1/lambda; its remaining eigenvalue is 0, since its range is traceless.
    Arnoldi from a fixed start (ncv = 4, tol = 1e-2) takes a handful of
    triangular solves and returns an estimate of |lambda_2|, not its
    value: on 60 random draws at N <= 24 (M = 1 and 2) it was 0.81 to
    1.055 times |lambda_2| of a dense eigendecomposition, 47 of them
    within 1%, and at the N = 100 points of the fig2a sweep it was up to
    2.3 times below an Arnoldi run to tol = 1e-12. What it shows is that
    the gap is far above null_tol: a second null direction makes B
    singular, which shows up as a gap at rounding level.
    """
    dim = lu.shape[0]

    def apply(x):
        x = x.copy()
        x[row] = 0.0
        return lu.solve(x)

    op = spla.LinearOperator((dim, dim), matvec=apply, dtype=complex)
    try:
        mu = spla.eigs(op, k=1, ncv=4, tol=1e-2, which="LM",
                       v0=np.ones(dim, dtype=complex), return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"charge-0 gap probe did not converge ({exc})") from exc
    return float(1.0 / abs(mu[0]))


def steady_state(L: Superoperator, trace: Optional[np.ndarray] = None,
                 tol: float = 1e-10) -> SymmetricState:
    """Unique trace-one null vector of the sector Liouvillian.

    Numerics run on ``L.physical()``, norm-scaled. The bordered matrix B, the
    Liouvillian with the row of the contentless element (a row that trace
    preservation makes redundant) replaced by the trace functional, is
    factored once with sparse LU:

    - an exactly singular B means a second null direction and raises
      :class:`DegenerateSteadyStateError` ("bordered matrix is singular");
    - the solve B c = e_r0 gives L c = 0 and t . c = 1 at once, and must
      pass the residual test ||L c|| <= tol ||L||_1 ||c|| (else
      :class:`SolverError`);
    - the same factors give the charge-0 gap |lambda_2| through the pencil
      (B, P), P the projector that zeroes entry r0 (see ``_charge0_gap``),
      and uniqueness needs it above null_tol = max(tol ||L||_1,
      1e-12 max(||L||_1, 1)); otherwise
      :class:`DegenerateSteadyStateError` reports the gap and null_tol.
      The probe is an estimate, good to a factor of a few, not to 1%,
      so their ratio is an estimated uniqueness margin;
    - the state must keep the bounds every density matrix keeps, 0 <= nb
      <= M, |sz| <= 1 and spsm >= -(1 + sz) / (2 (N - 1)); a state that
      breaks one has lost precision in the solve, and
      :class:`PrecisionLossError` names the observable and the bound;
    - after that gate, one refinement step from the same factors (one
      mat-vec and one solve, 3-5 ms at N = 100) must move the scaled state
      by at most :data:`REFINEMENT_TOL` = 1e-4 relative in max-norm, else
      :class:`PrecisionLossError` names the step's size
      (``_check_refinement``; measured sizes at the constant). The refined
      vector is not returned: the state is the unrefined solve, so every
      result that passes is unchanged by the check.
    """
    sector = L.sector
    if sector.delta_n != 0:
        raise ValueError("steady states live in the delta_n = 0 sector")
    if trace is None:
        trace = trace_functional(sector)
    mat, d = _scaled(L.physical(), sector)
    t_scaled = trace / d
    norm_l = spla.norm(mat, 1)
    null_tol = max(tol * norm_l, 1e-12 * max(norm_l, 1.0))

    r0 = sector.index_of(BasisElement(0, 0, 0, 0, 0))
    try:
        lu = spla.splu(_bordered(mat, t_scaled, r0))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            f"bordered matrix is singular ({exc})") from exc
    rhs = np.zeros(mat.shape[0], dtype=complex)
    rhs[r0] = 1.0
    y = lu.solve(rhs)
    resid = np.linalg.norm(mat @ y)
    bound = tol * norm_l * np.linalg.norm(y)
    if not resid <= bound:
        raise SolverError(f"steady-state residual {resid:.3e} above "
                          f"tolerance {bound:.3e}")
    gap = _charge0_gap(lu, r0)
    if gap <= null_tol:
        raise DegenerateSteadyStateError(
            f"charge-0 gap {gap:.1e} within null_tol {null_tol:.1e}")
    # a genuinely traceless null vector shows up as catastrophic
    # cancellation in the trace sum, not as a small trace per se
    tr = t_scaled @ y
    tr_mass = np.abs(t_scaled) @ np.abs(y)
    if abs(tr) < 1e-10 * tr_mass:
        raise DegenerateSteadyStateError("null vector is traceless")
    y = y / tr
    state = SymmetricState(sector=sector, coeffs=y / d)
    _check_physical_range(state)
    _check_refinement(lu, mat, t_scaled, y, r0, sector)
    return state


#: largest relative size max|dy| / max|y| of one refinement step that
#: steady_state accepts. At kappa_tilde = 0.25 the step is 9e-12 to 4.8e-6
#: at the seed-1 pump-sweep points (N = 100, w_tilde 0.5 to 3.6) and at
#: w_tilde = 1.6 about 2e-2 at N = 140 and 0.4 at N = 200, where the LU
#: state is off by up to 25% and passes every other gate.
REFINEMENT_TOL = 1e-4


def _check_refinement(lu, mat: sp.csr_matrix, t_scaled: np.ndarray,
                      y: np.ndarray, row: int, sector: SectorBasis) -> None:
    """Raise :class:`PrecisionLossError` if one step of iterative
    refinement moves the scaled steady state ``y`` by more than
    :data:`REFINEMENT_TOL` relative.

    The step solves B dy = e_row - B y with the factors ``lu`` of the
    bordered matrix B (``mat`` with row ``row`` replaced by ``t_scaled``).
    Its size estimates the forward error of the solve (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 12; Skeel 1980): the
    residual is small whatever the conditioning, the correction is not.
    The refined vector is not returned: past N ~ 150 it diverges, and
    below it the unrefined state is the one every other check passed.
    """
    r = -(mat @ y)
    r[row] = 1.0 - t_scaled @ y
    size = np.abs(lu.solve(r)).max() / np.abs(y).max()
    if not size <= REFINEMENT_TOL:
        raise PrecisionLossError(
            f"one refinement step moves the steady state by {size:.2g} "
            f"relative, above {REFINEMENT_TOL:g}: the LU solve has lost "
            f"its accuracy (N = {sector.n_atoms}, M = {sector.photon_cutoff})")


#: rounding allowance of the physical-range gate, far above the rounding
#: of a certified solve and far below a lost digit of an observable
_RANGE_SLACK = 1e-9


def _check_physical_range(state: SymmetricState) -> None:
    """Raise :class:`PrecisionLossError` unless 0 <= nb <= M, |sz| <= 1 and
    spsm >= -(1 + sz) / (2 (N - 1)), each within :data:`_RANGE_SLACK`.

    The bounds hold for every density matrix (the last is <S^+ S^-> =
    N (1 + sz) / 2 + N (N - 1) spsm >= 0), so a steady state that breaks
    one has lost its accuracy in the solve.
    """
    N, M = state.sector.n_atoms, state.sector.photon_cutoff
    sz = expect_sigma_z(state)
    bounds = [("nb", expect_photon_number(state), 0.0, float(M)),
              ("sz", sz, -1.0, 1.0)]
    if N >= 2:
        spsm = expect_spin_spin(state)
        bounds.append(("spsm", spsm, -(1.0 + sz) / (2.0 * (N - 1)), np.inf))
    for name, value, lo, hi in bounds:
        if not lo - _RANGE_SLACK <= value <= hi + _RANGE_SLACK:
            bound = (f"{name} >= {lo:.6g}" if hi == np.inf
                     else f"{lo:g} <= {name} <= {hi:g}")
            raise PrecisionLossError(
                f"steady state breaks the physical bound {bound}: "
                f"{name} = {value:.6g} (N = {N}, M = {M})")
