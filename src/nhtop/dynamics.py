"""Coherence time evolution and its perturbative limits.

The monitored quantity is ``C(t) = |<1| exp(t L) |1>|`` with ``L = -iH``,
twice the modulus of the qubit's off-diagonal density-matrix element for a
maximally coherent initial state.  Three interchangeable evaluation routes
are provided: the spectral expansion (default), and two oracles that never
touch the spectral path, both stepped by one truncated-Taylor propagator
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)): the ``"expm"``
route on ``L`` itself and propagation of the full single-excitation
superoperator.  No route forms a matrix exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from . import spectral
from .netmodel import EffectiveHamiltonian, Superoperator

METHODS = ("spectral", "expm", "full_superoperator")

#: spectral -> expm fallback threshold on ``SpectralData.condition``, the
#: largest eigenvalue condition number ``max_j 1/|r_j^T r_j|`` (unit ``r_j``)
CONDITION_FALLBACK = 1e8

#: first time of the default log-spaced grid (``log_time_grid``)
LOG_GRID_START = 1e-2

# Taylor degree m and theta_m: m terms reach double precision on ||B h||_1 <=
# theta_m (Higham & Al-Mohy, Acta Numer. 19, 159 (2010), Table A.3, for
# m <= 30; Al-Mohy & Higham (2011), Table 3.1, above)
_TAYLOR_M = np.array([*range(1, 31), 35, 40, 45, 50, 55], dtype=float)
_TAYLOR_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08,
    3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9,
])
_UNIT_ROUNDOFF = 2.0**-53
_EPS = np.finfo(float).eps


def _checked_times(times) -> np.ndarray:
    """``times`` as a new float array, checked to be 1-d, finite, ascending
    and non-negative."""
    t = np.array(times, dtype=float)
    if t.ndim != 1:
        raise ValueError("times must be a 1-d array")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if t.size and (np.any(np.diff(t) < 0) or t[0] < 0):
        raise ValueError("times must be ascending and non-negative")
    return t


@dataclass(frozen=True)
class CoherenceTrace:
    """C(t) samples on an ascending time grid, with the method that made them."""

    times: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self):
        # copies: freezing must not reach the caller's own arrays
        t = _checked_times(self.times)
        v = np.array(self.values, dtype=float)
        if t.shape != v.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        non_finite, negative, above_one, off_at_zero = _trace_faults(t, v)
        if non_finite:
            raise NumericError("coherence values must be finite")
        if negative:
            raise NumericError("coherence values must be non-negative")
        if above_one:
            raise NumericError(f"coherence reaches {np.max(v):.6g}, above 1 beyond 1e-12")
        if off_at_zero:
            raise NumericError(f"C(0) = {float(v[0])!r} deviates from 1 beyond 1e-12")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        for name, arr in (("times", t), ("values", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _trace_faults(t: np.ndarray, v: np.ndarray):
    """The checks a ``CoherenceTrace`` makes, for each row of samples ``v``
    (shape ``(..., T)``) on the grid ``t``: ``(non_finite, negative,
    above_one, off_at_zero)``, where ``off_at_zero`` means ``t[0] == 0`` and
    ``|C(0) - 1| > 1e-12``.  ``above_one`` is ``C > 1 + 1e-12`` anywhere,
    with the budget of C(0): ``||exp(tL)|| <= 1`` for every accepted ``H``,
    as ``L + L^dag = -2 D <= 0``, so a larger C is a roundoff rate grown
    over a long time."""
    non_finite = ~np.isfinite(v).all(axis=-1)
    negative = (v < -1e-12).any(axis=-1)
    above_one = (v > 1.0 + 1e-12).any(axis=-1)
    if t.size and t[0] == 0.0:
        off_at_zero = np.abs(v[..., 0] - 1.0) > 1e-12
    else:
        off_at_zero = np.zeros(v.shape[:-1], dtype=bool)
    return non_finite, negative, above_one, off_at_zero


def log_time_grid(t_max: float, n_points: int = 400) -> np.ndarray:
    """Default grid: log-spaced from ``LOG_GRID_START`` to t_max, spanning
    relaxation to protection timescales."""
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite; got {t_max}")
    if t_max <= LOG_GRID_START:
        raise ValueError(f"t_max must exceed {LOG_GRID_START}")
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1; got {n_points}")
    return np.geomspace(LOG_GRID_START, t_max, n_points)


def _qubit_weights(condition, right: np.ndarray, c_norms: np.ndarray):
    """Qubit-site weights ``c_j = r_j[0] conj(l_j[0]) = r_j[0]^2 / c_norms_j`` of
    sorted decompositions (``right``, ``c_norms`` of shapes ``(..., n, n)``,
    ``(..., n)``) and whether the spectral route is reliable for each:
    ``condition`` (shape ``(...)``) is below ``CONDITION_FALLBACK``, which
    NaN and inf are not, the weights sum to 1 within 1e-12 (completeness at
    the qubit site keeps C(0) = 1 within the trace type's own tolerance), and
    the mode sum's rounding bound ``eps * sum_j |c_j|``, which grows near
    exceptional points, stays below 1e-12."""
    c = right[..., 0, :] * (right[..., 0, :] / c_norms)
    reliable = condition < CONDITION_FALLBACK
    reliable &= np.abs(c.sum(axis=-1) - 1.0) <= 1e-12
    reliable &= _EPS * np.abs(c).sum(axis=-1) <= 1e-12
    return c, reliable


def _spectral_values(w: np.ndarray, c: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``|sum_j c_j exp(lambda_j t)|`` for ``w``, ``c`` of shape ``(n,)`` or
    ``(R, n)``: per block of rows, one ``(rows, T, n)`` exponential and one
    stacked matrix-vector product.  A stack goes through in blocks of
    ``spectral._BLOCK // (T n)`` rows (one at least), so the exponential
    holds about ``spectral._BLOCK`` elements; a single generator is one block.
    Each row is computed alone, so the blocking moves no bit."""
    rows = max(1, spectral._BLOCK // max(1, times.size * w.shape[-1]))
    if w.ndim == 1:
        blocks = [Ellipsis]
    else:
        blocks = [slice(i, i + rows) for i in range(0, w.shape[0], rows)]
    out = np.empty(w.shape[:-1] + times.shape)
    for b in blocks:
        out[b] = np.abs(np.exp(times[:, None] * w[b][..., None, :]) @ c[b][..., None])[..., 0]
    return out


def _spectral_batch(L: np.ndarray, times: np.ndarray):
    """Spectral C(t) of a stack of generators ``L`` (shape ``(R, n, n)``):
    ``(values, ok)``, shapes ``(R, T)`` and ``(R,)``.

    One stacked eigensolve (``spectral._eig``) with the c-orthogonal basis, c-norms,
    condition and mode order of ``spectral._modes`` (a degenerate eigenspace
    is c-orthogonalized within its own row), then the reliability test of
    ``_qubit_weights`` and the checks of ``CoherenceTrace``, each with a
    leading batch axis; ``_spectral_values`` evaluates the traces in blocks
    of rows whose exponential stays within ``spectral._BLOCK`` elements.
    Where ``ok``, a row is bit for bit the trace that ``coherence_trace``
    returns for that generator; any other row must be evaluated one
    generator at a time.  Raises ``np.linalg.LinAlgError`` when
    the stacked solve fails.
    """
    w, vr, c_norms, condition = spectral._modes(L)
    with np.errstate(all="ignore"):  # rows that fail a check are discarded
        c, ok = _qubit_weights(condition, vr, c_norms)
        values = _spectral_values(w, c, times)
    non_finite, negative, above_one, off_at_zero = _trace_faults(times, values)
    return values, ok & ~(non_finite | negative | above_one | off_at_zero)


def _propagate(A: np.ndarray, times: np.ndarray, index: int) -> np.ndarray:
    """``|exp(t_i A)[index, index]|`` on an ascending grid: the unit vector
    ``e_index`` is stepped from grid point to grid point.

    Truncated Taylor series after Al-Mohy & Higham (2011), Algorithm 3.2
    without balancing: ``B = A - mu I`` with ``mu = tr(A)/n``; each interval
    ``h`` is cut into ``s`` substeps of at most ``m`` terms, with ``(m, s)``
    minimizing ``m*s`` subject to ``||B h/s||_1 <= theta_m``; a substep's
    series stops once two consecutive terms fall below ``2^-53`` of the
    partial sum.  Only matrix-vector products; ``exp(tA)`` is never formed.
    """
    n = A.shape[0]
    mu = np.trace(A) / n
    B = A - mu * np.eye(n)
    norm = np.linalg.norm(B, 1)
    v = np.zeros(n, dtype=complex)
    v[index] = 1.0
    out = np.empty(times.shape, dtype=float)
    t_prev = 0.0
    for i, t in enumerate(times):
        h = t - t_prev
        if h > 0:
            cost = _TAYLOR_M * np.maximum(1.0, np.ceil(norm * h / _TAYLOR_THETA))
            k = int(np.argmin(cost))
            m = int(_TAYLOR_M[k])
            s = int(cost[k]) // m
            dt = h / s
            eta = np.exp(mu * dt)
            for _ in range(s):
                f = v.copy()
                b = v
                c1 = bound = math.sqrt(np.vdot(v, v).real)
                for j in range(1, m + 1):
                    b = B.dot(b) * (dt / j)
                    f += b
                    c2 = math.sqrt(np.vdot(b, b).real)
                    # bound >= ||f|| by the triangle inequality, so ||f|| itself
                    # is computed only once the terms are small against it
                    bound += c2
                    if (c1 + c2 <= _UNIT_ROUNDOFF * bound
                            and c1 + c2 <= _UNIT_ROUNDOFF * math.sqrt(np.vdot(f, f).real)):
                        break
                    c1 = c2
                f *= eta
                v = f
        out[i] = abs(v[index])
        t_prev = t
    return out


def coherence_trace(H: EffectiveHamiltonian, times, method: str = "auto") -> CoherenceTrace:
    """Evolve the qubit coherence on a time grid.

    Parameters
    ----------
    H : EffectiveHamiltonian
    times : array_like
        Ascending, non-negative, finite times.
    method : {"auto", "spectral", "expm"}
        "auto" uses the spectral expansion and falls back to the "expm" route
        near exceptional points: when the largest eigenvalue condition number
        exceeds ``CONDITION_FALLBACK``, when the spectral weights fail their
        completeness check, or when their cancellation error
        ``eps * sum_j |c_j|`` exceeds 1e-12.  "expm" steps ``exp(t L) e_1``
        from grid point to grid point with a truncated-Taylor propagator
        (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
    """
    t = _checked_times(times)
    if method not in ("auto", "spectral", "expm"):
        raise ValueError("method must be 'auto', 'spectral' or 'expm'")
    if method in ("auto", "spectral"):
        sd = spectral.decompose(H)
        c, reliable = _qubit_weights(sd.condition, sd.right_vectors, sd.c_norms)
        if reliable:
            return CoherenceTrace(t, _spectral_values(sd.eigenvalues, c, t), "spectral")
        if method == "spectral":
            raise NumericError(
                f"spectral route unreliable (condition {sd.condition:.3g}); use method='auto'"
            )
    return CoherenceTrace(t, _propagate(H.generator, t, 0), "expm")


def coherence_trace_superoperator(sop: Superoperator, times) -> CoherenceTrace:
    """C(t) from propagating |0><1| under the full superoperator.

    Reads back the |0><1| component, which equals the reduced-sector matrix
    element exactly; this is the independent cross-check for the reduction.
    The vector is stepped with the same truncated-Taylor propagator as the
    "expm" route of ``coherence_trace`` (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)).
    """
    t = _checked_times(times)
    values = _propagate(sop.matrix, t, sop.index_01(1))
    return CoherenceTrace(t, values, "full_superoperator")


def strong_dissipative_rate(J1: float, Gamma2: float) -> float:
    """Leading decoherence rate 2 J1^2 / Gamma2 when loss dominates hopping.

    Second-order perturbation theory in the qubit coupling: the qubit feeds
    the adjacent site (full loss rate Gamma2, i.e. diagonal -i*Gamma2/2) and
    decays at 2 J1^2 / Gamma2 up to relative corrections (J1/Gamma2)^2.
    """
    if Gamma2 <= 0:
        raise ValueError("Gamma2 must be positive")
    return 2.0 * J1**2 / Gamma2


def weak_dissipative_spectrum(H0, gammas) -> np.ndarray:
    """First-order spectrum for weak loss on an otherwise Hermitian network.

    With ``H0 = sum_k e_k |k><k|`` and site loss rates ``gammas`` (full rates,
    ``gamma_1 = 0`` for the qubit), the generator eigenvalues are, to first
    order, ``lambda_k = -i e_k - (1/2) sum_j gamma_j |<k|j>|^2``.  Returned in
    ascending order of ``e_k``.
    """
    h0 = np.asarray(H0, dtype=float)
    g = np.asarray(gammas, dtype=float).ravel()
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
        raise ValueError("H0 must be a square matrix")
    if np.max(np.abs(h0 - h0.T)) > 1e-12 * max(1.0, np.max(np.abs(h0))):
        raise ValueError("H0 must be symmetric")
    if g.shape != (h0.shape[0],):
        raise ValueError("gammas must match the matrix dimension")
    if np.any(g < 0):
        raise ValueError("loss rates must be non-negative")
    if g[0] != 0:
        raise ValueError("the fiducial qubit (site 1) must be lossless")
    e0, q = np.linalg.eigh(h0)
    rates = 0.5 * (np.abs(q.T) ** 2 @ g)
    return -1j * e0 - rates
