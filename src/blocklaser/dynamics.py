"""Time evolution and steady states of symmetric coefficient vectors.

All solvers conjugate the sector matrix by the Hilbert-Schmidt basis
scaling (see :func:`blocklaser.liouvillian.basis_scaling`) before doing
numerics and convert back afterwards: the raw operator-content basis is
exponentially ill-scaled in N, and without the similarity both sparse LU
and the Krylov propagator silently lose accuracy beyond a few tens of
atoms. Inputs and outputs always use the raw coefficient convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .liouvillian import Superoperator, basis_scaling, trace_functional
from .symbasis import BasisElement, SectorBasis


class SolverError(RuntimeError):
    """Base class for evolution / steady-state failures."""


class DegenerateSteadyStateError(SolverError):
    """The Liouvillian null space is not one-dimensional."""


#: sectors up to this size get a dense eigendecomposition for the steady
#: state, which counts zero modes exactly
_DENSE_STEADY_DIM = 600


@dataclass
class SymmetricState:
    """Coefficient vector over one sector basis."""

    sector: SectorBasis
    coeffs: np.ndarray


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


def _scaled(L) -> tuple:
    """(matrix in the norm-scaled basis, scaling vector or None)."""
    if isinstance(L, Superoperator):
        sec = L.sector
        d = basis_scaling(sec.n_atoms, sec.photon_cutoff, sec.delta_n)
        dinv = sp.diags(1.0 / d)
        return (sp.diags(d) @ L.matrix @ dinv).tocsr(), d
    return sp.csr_matrix(L), None


def propagate_grid(L, c0: np.ndarray, times: Sequence[float],
                   observe: Optional[Callable[[np.ndarray], complex]] = None,
                   chunk: int = 160) -> np.ndarray:
    """Apply exp(L t) c0 on an increasing time grid starting from t = 0.

    ``L`` is a :class:`Superoperator` (propagated in the scaled basis) or
    a bare sparse matrix (used as is). Uniform sub-runs of the grid are
    advanced with the multi-point Krylov propagator in memory-bounded
    chunks; irregular gaps (e.g. a geometric tail) fall back to single
    steps. If ``observe`` is given it is applied to each state (in the
    raw coefficient convention) and only the observations are stored;
    otherwise the trajectory (len(times), dim) is returned.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d grid")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and non-negative")
    mat, d = _scaled(L)
    c = np.asarray(c0, dtype=complex)
    if c.shape != (mat.shape[0],):
        raise ValueError(f"state has shape {c.shape} but the generator acts "
                         f"on dimension {mat.shape[0]}; wrong sector?")
    trace = mat.diagonal().sum()

    out = []

    def emit(vec):
        raw = vec / d if d is not None else vec
        out.append(observe(raw) if observe is not None else raw.copy())

    if d is not None:
        c = c * d
    t_curr = 0.0
    i = 0
    n = len(times)
    while i < n:
        # longest uniform run starting at i (needs >= 3 points to pay off)
        j = i + 1
        if j < n:
            dt = times[j] - times[i]
            while j + 1 < n and abs((times[j + 1] - times[j]) - dt) <= 1e-9 * max(dt, 1e-300):
                j += 1
        run = times[i:j + 1]
        if times[i] > t_curr:
            c = spla.expm_multiply(mat * (times[i] - t_curr), c,
                                   traceA=trace * (times[i] - t_curr))
            t_curr = times[i]
        emit(c)
        if len(run) >= 3:
            dt = (run[-1] - run[0]) / (len(run) - 1)
            k = 1
            while k < len(run):
                m = min(chunk, len(run) - k)
                seg = spla.expm_multiply(mat, c, start=0.0, stop=m * dt,
                                         num=m + 1, endpoint=True,
                                         traceA=trace)
                for r in range(1, m + 1):
                    emit(seg[r])
                c = seg[-1]
                t_curr += m * dt
                k += m
        else:
            for t_next in run[1:]:
                c = spla.expm_multiply(mat * (t_next - t_curr), c,
                                       traceA=trace * (t_next - t_curr))
                t_curr = t_next
                emit(c)
        i = j + 1
    return np.asarray(out)


@dataclass
class SlowMode:
    """Slowest eigenvalue of a sector Liouvillian and its accuracy.

    ``condition`` is ||l|| ||r|| / |l^H r| from the left and right
    eigenvectors and ``norm1`` the 1-norm of the matrix, both in the
    norm-scaled basis where the numerics run; ``eigenvalues`` holds every
    eigenvalue the shift-invert iteration returned.
    """

    eigenvalue: complex
    eigenvalues: np.ndarray
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

    Shift-invert Arnoldi at zero on the norm-scaled matrix; one sparse LU
    serves both the right and the left (adjoint) iteration, and both
    start from a fixed vector, so repeated calls agree bit for bit. The
    charge-0 sector is rejected: its zero eigenvalue is the steady state.
    """
    if L.sector.delta_n == 0:
        raise ValueError("slow modes are sought in shifted sectors; "
                         "charge 0 holds the steady state")
    mat, _ = _scaled(L)
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
    return SlowMode(eigenvalue=complex(vals[i]), eigenvalues=vals,
                    condition=float(condition),
                    norm1=float(spla.norm(mat, 1)))


def _bordered_solve(mat: sp.spmatrix, t_scaled: np.ndarray,
                    row: int) -> Optional[np.ndarray]:
    """Replace one trace-redundant row of ``mat`` with the trace functional
    and solve for the trace-one null vector; None on outright failure."""
    dim = mat.shape[0]
    coo = mat.tocoo()
    keep = coo.row != row
    nz = np.nonzero(t_scaled)[0]
    rows = np.concatenate([coo.row[keep], np.full(len(nz), row)])
    cols = np.concatenate([coo.col[keep], nz])
    vals = np.concatenate([coo.data[keep], t_scaled[nz].astype(complex)])
    bordered = sp.csc_matrix((vals, (rows, cols)), shape=(dim, dim))
    rhs = np.zeros(dim, dtype=complex)
    rhs[row] = 1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # MatrixRankWarning -> nan output
            y = spla.spsolve(bordered, rhs)
    except RuntimeError:
        return None
    if not np.all(np.isfinite(y)):
        return None
    return y


def _low_content_profile(y: np.ndarray, t_scaled: np.ndarray,
                         sector: SectorBasis) -> np.ndarray:
    """Trace-normalized coefficients on the elements that observables read
    (atomic content of at most two slots)."""
    idx = np.flatnonzero(sector.contents[:, :3].sum(axis=1) <= 2)
    return y[idx] / (t_scaled @ y)


def steady_state(L: Superoperator, trace: Optional[np.ndarray] = None,
                 tol: float = 1e-10) -> SymmetricState:
    """Unique trace-one null vector of the sector Liouvillian.

    Solves the bordered system in which the row of the contentless element
    (a row that trace preservation makes redundant) is replaced by the
    trace functional, so that L c = 0 and t . c = 1 hold simultaneously.
    The residual test ||L c|| <= tol ||L||_1 ||c|| is applied in the
    norm-scaled basis, where it is meaningful.

    Uniqueness is certified by repeating the solve with a different
    replaced row: any second null direction makes both systems singular
    and the two solutions incompatible, which raises
    :class:`DegenerateSteadyStateError` with a null-space dimension
    estimate. Falls back to shift-inverted Arnoldi when the direct solves
    fail outright.
    """
    sector = L.sector
    if sector.delta_n != 0:
        raise ValueError("steady states live in the delta_n = 0 sector")
    if trace is None:
        trace = trace_functional(sector)
    mat, d = _scaled(L)
    t_scaled = trace / d
    norm_l = spla.norm(mat, 1)
    dim = mat.shape[0]

    if dim <= _DENSE_STEADY_DIM:
        # exact zero-mode count from the full spectrum
        w, v = np.linalg.eig(mat.toarray())
        null_tol = max(tol * norm_l, 1e-12 * max(norm_l, 1.0))
        null = np.abs(w) <= null_tol
        if np.count_nonzero(null) != 1:
            raise DegenerateSteadyStateError(
                f"null-space dimension {int(np.count_nonzero(null))} "
                f"(eigenvalues within {null_tol:.1e} of zero)")
        y = v[:, int(np.nonzero(null)[0][0])]
    else:
        r0 = sector.index_of(BasisElement(0, 0, 0, 0, 0))
        r1 = sector.index_of(BasisElement(0, 0, 0, 1, 1))
        y = _bordered_solve(mat, t_scaled, r0)
        ok = y is not None and \
            np.linalg.norm(mat @ y) <= tol * norm_l * np.linalg.norm(y)
        if ok:
            # uniqueness probe: a second null direction makes the solution
            # depend on which redundant row was replaced
            y2 = _bordered_solve(mat, t_scaled, r1)
            if y2 is None:
                raise DegenerateSteadyStateError(
                    "second bordered solve failed; "
                    f"estimated null-space dimension {_null_dimension(mat, tol)}")
            p1 = _low_content_profile(y, t_scaled, sector)
            p2 = _low_content_profile(y2, t_scaled, sector)
            scale = np.abs(p1).max() + np.abs(p2).max()
            if np.abs(p1 - p2).max() > 1e-3 * max(scale, 1e-300):
                raise DegenerateSteadyStateError(
                    "steady state not unique at working precision; "
                    f"estimated null-space dimension {_null_dimension(mat, tol)}")
        else:
            y = _steady_by_arnoldi(mat, tol)
            resid = np.linalg.norm(mat @ y)
            if resid > tol * norm_l * np.linalg.norm(y):
                raise SolverError(
                    f"steady-state residual {resid:.3e} above tolerance "
                    f"{tol * norm_l * np.linalg.norm(y):.3e}")
    # a genuinely traceless null vector shows up as catastrophic
    # cancellation in the trace sum, not as a small trace per se
    tr = t_scaled @ y
    tr_mass = np.abs(t_scaled) @ np.abs(y)
    if abs(tr) < 1e-10 * tr_mass:
        raise DegenerateSteadyStateError(
            "null vector is traceless; "
            f"estimated null-space dimension {_null_dimension(mat, tol)}")
    y = y / tr
    return SymmetricState(sector=sector, coeffs=y / d)


def _steady_by_arnoldi(mat: sp.spmatrix, tol: float) -> np.ndarray:
    dim = mat.shape[0]
    if dim < 4:
        w, v = np.linalg.eig(mat.toarray())
        k = int(np.argmin(np.abs(w)))
        return v[:, k]
    scale = spla.norm(mat, 1)
    try:
        w, v = spla.eigs(mat.tocsc(), k=1, sigma=1e-12 * scale, which="LM")
    except Exception as exc:
        raise DegenerateSteadyStateError(
            f"direct solve and shift-invert both failed ({exc}); "
            f"estimated null-space dimension {_null_dimension(mat, tol)}") from exc
    return v[:, 0]


def _null_dimension(mat: sp.spmatrix, tol: float) -> int:
    """Count eigenvalues indistinguishable from zero (diagnostic only)."""
    dim = mat.shape[0]
    scale = spla.norm(mat, 1)
    if dim <= 64:
        w = np.linalg.eigvals(mat.toarray())
    else:
        w, _ = spla.eigs(mat.tocsc(), k=min(6, dim - 2),
                         sigma=1e-12 * scale, which="LM")
    return int(np.sum(np.abs(w) <= max(tol, 1e-10) * scale))
