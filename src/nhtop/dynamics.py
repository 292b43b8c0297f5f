"""Coherence time evolution and decay timescales.

The monitored quantity is ``C(t) = |<1| exp(t L) |1>|`` with ``L = -iH``,
twice the modulus of the qubit's off-diagonal density-matrix element for a
maximally coherent initial state.  Three interchangeable evaluation routes
are provided: the spectral expansion (default), and two oracles that never
touch the spectral path, both stepped by one truncated-Taylor propagator
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)): the ``"expm"``
route on ``L`` itself and propagation of the full single-excitation
superoperator.  Only ``expm_oracle`` forms a matrix exponential, by scipy's
Pade scaling-and-squaring, as the reference the stepper is tested against.
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

#: weights smaller than this never contribute to C(t) and are dropped from
#: the min/max timescales (the linearized one keeps the full sum)
WEIGHT_CUTOFF = 1e-14

DEFAULT_EPSILON = 0.05

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
        non_finite, negative, off_at_zero = _trace_faults(t, v)
        if non_finite:
            raise NumericError("coherence values must be finite")
        if negative:
            raise NumericError("coherence values must be non-negative")
        if off_at_zero:
            raise NumericError(f"C(0) = {v[0]!r} deviates from 1 beyond 1e-12")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        for name, arr in (("times", t), ("values", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _trace_faults(t: np.ndarray, v: np.ndarray):
    """The checks a ``CoherenceTrace`` makes, for each row of samples ``v``
    (shape ``(..., T)``) on the grid ``t``: ``(non_finite, negative,
    off_at_zero)``, where ``off_at_zero`` means ``t[0] == 0`` and
    ``|C(0) - 1| > 1e-12``."""
    non_finite = ~np.isfinite(v).all(axis=-1)
    negative = (v < -1e-12).any(axis=-1)
    if t.size and t[0] == 0.0:
        off_at_zero = np.abs(v[..., 0] - 1.0) > 1e-12
    else:
        off_at_zero = np.zeros(v.shape[:-1], dtype=bool)
    return non_finite, negative, off_at_zero


def log_time_grid(t_max: float, n_points: int = 400, t_min: float = 1e-2) -> np.ndarray:
    """Default grid: log-spaced from t_min to t_max, spanning relaxation to
    protection timescales."""
    if t_max <= t_min:
        raise ValueError("t_max must exceed t_min")
    return np.geomspace(t_min, t_max, n_points)


def _qubit_weights(condition, right: np.ndarray, c_norms: np.ndarray):
    """Qubit-site weights ``c_j = r_j[0] conj(l_j[0]) = r_j[0]^2 / c_norms_j`` of
    sorted decompositions (``right``, ``c_norms`` of shapes ``(..., n, n)``,
    ``(..., n)``) and whether the spectral route is reliable for each:
    ``condition`` (shape ``(...)``) is below ``CONDITION_FALLBACK`` and flags
    no exceptional point, the weights sum to 1 within 1e-12 (completeness at
    the qubit site keeps C(0) = 1 within the trace type's own tolerance), and
    the mode sum's rounding bound ``eps * sum_j |c_j|``, which grows near
    exceptional points, stays below 1e-12."""
    c = right[..., 0, :] * (right[..., 0, :] / c_norms)
    reliable = ~spectral._degenerate(condition) & (condition < CONDITION_FALLBACK)
    reliable &= np.abs(c.sum(axis=-1) - 1.0) <= 1e-12
    reliable &= _EPS * np.abs(c).sum(axis=-1) <= 1e-12
    return c, reliable


def _spectral_values(w: np.ndarray, c: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``|sum_j c_j exp(lambda_j t)|`` for ``w``, ``c`` of any shape ``(..., n)``:
    one ``(..., T, n)`` exponential and one stacked matrix-vector product."""
    return np.abs(np.exp(times[:, None] * w[..., None, :]) @ c[..., None])[..., 0]


def _spectral_batch(L: np.ndarray, times: np.ndarray):
    """Spectral C(t) of a stack of generators ``L`` (shape ``(R, n, n)``):
    ``(values, ok)``, shapes ``(R, T)`` and ``(R,)``.

    One stacked ``np.linalg.eig`` with the c-orthogonal basis, c-norms,
    condition and mode order of ``spectral._modes`` (a degenerate eigenspace
    is c-orthogonalized within its own row), then the reliability test of
    ``_qubit_weights`` and the checks of ``CoherenceTrace``, each with a
    leading batch axis.  Where ``ok``, a row is bit for bit the trace that
    ``coherence_trace`` returns for that generator; any other row must be
    evaluated one generator at a time.  Raises ``np.linalg.LinAlgError`` when
    the stacked solve fails.
    """
    w, vr, c_norms, condition = spectral._modes(L)
    with np.errstate(all="ignore"):  # rows that fail a check are discarded
        c, ok = _qubit_weights(condition, vr, c_norms)
        values = _spectral_values(w, c, times)
    non_finite, negative, off_at_zero = _trace_faults(times, values)
    return values, ok & ~(non_finite | negative | off_at_zero)


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


def expm_oracle(H: EffectiveHamiltonian, t: float) -> np.ndarray:
    """exp(t L) by scaling-and-squaring (Pade), independent of the spectral path
    and of the Taylor stepper behind the "expm" and superoperator routes: the
    tests' reference, and the one use of scipy (installed by the ``test`` extra)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    import scipy.linalg

    out = scipy.linalg.expm(H.generator * t)
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix exponential overflowed")
    return out


@dataclass(frozen=True)
class Timescales:
    """Shortest / longest mode lifetimes and the linearized coherence time."""

    tau_min: float
    tau_max: float
    tau_lin: float
    epsilon: float

    def __post_init__(self):
        if self.tau_min > self.tau_max:
            raise ValueError("tau_min must not exceed tau_max")


def timescales(eigenvalues, weights, epsilon: float = DEFAULT_EPSILON,
               weight_cutoff: float = WEIGHT_CUTOFF) -> Timescales:
    """Decay timescales of C(t) = |sum_j c_j exp(lambda_j t)|.

    ``tau_min`` is the fastest and ``tau_max`` the slowest mode lifetime,
    restricted to modes whose weight exceeds ``weight_cutoff`` (zero-weight
    modes never appear in C).  ``tau_lin = epsilon / Re(-sum_j c_j lambda_j)``
    linearizes the initial decay; for the canonical models the weighted sum is
    the qubit's own diagonal entry, which vanishes, so tau_lin is infinite
    there and only becomes informative with on-site disorder.
    A dark mode (zero decay rate) makes tau_max infinite.
    """
    lam = np.asarray(eigenvalues, dtype=complex).ravel()
    c = np.asarray(weights, dtype=complex).ravel()
    if lam.shape != c.shape:
        raise ValueError("eigenvalues and weights must have equal length")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    keep = np.abs(c) >= weight_cutoff
    if not np.any(keep):
        raise ValueError("all weights vanish; no coherence dynamics to time")
    decay = -lam[keep].real
    scale = max(1.0, float(np.max(np.abs(lam))))
    dark_floor = 1e-14 * scale

    fastest = float(np.max(decay))
    slowest = float(np.min(decay))
    tau_min = 1.0 / fastest if fastest > dark_floor else math.inf
    tau_max = 1.0 / slowest if slowest > dark_floor else math.inf

    drift = float(np.real(-np.sum(c * lam)))
    tau_lin = epsilon / drift if drift > dark_floor else math.inf
    return Timescales(tau_min, tau_max, tau_lin, epsilon)


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


def fit_exponential_rate(times, values, floor: float = 1e-300):
    """Least-squares slope of -ln C(t); returns (rate, intercept)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = v > floor
    if np.count_nonzero(mask) < 2:
        raise ValueError("not enough positive samples for a rate fit")
    slope, intercept, _ = spectral._fit_log_linear(t[mask], v[mask])
    return -float(slope), float(intercept)


def write_trace_csv(stream, trace: CoherenceTrace, header_lines=()):
    """CSV per the trace interface: header ``t,coherence``, 17 significant digits."""
    for line in header_lines:
        stream.write(f"# {line}\n")
    stream.write("t,coherence\n")
    for t, v in zip(trace.times, trace.values):
        stream.write(f"{t:.17g},{v:.17g}\n")
