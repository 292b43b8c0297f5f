"""Biorthogonal spectral analysis of the coherence-sector generator.

``decompose`` diagonalizes ``L = -iH`` with paired left/right eigenvectors,
normalized so that the rank-one projectors ``P_j = r_j l_j^dag`` resolve the
identity.  Everything downstream (coherence traces, quasi-dark mode searches,
localization fits) is built on top of this decomposition, which is computed
once per ``EffectiveHamiltonian`` and cached on it.  The steps after the
eigensolve (left vectors, pairing, condition, mode order) accept any leading
shape: ``decompose`` runs them on one matrix, and disorder ensembles on a
stack of realizations.  ``_fit_log_linear`` is the one log-linear fit behind
every localization length, branch slope and decay-rate fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .netmodel import EffectiveHamiltonian

DEGENERACY_CONDITION = 1e10
_PAIRING_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of L = -iH with biorthonormal right/left eigenvectors.

    Columns of ``right_vectors`` are unit right eigenvectors r_j; columns of
    ``left_vectors`` are the matching left eigenvectors l_j, scaled so that
    ``l_j^dag r_j = 1``.  Modes are sorted by decay rate ``-Re(lambda)``
    ascending.  ``condition`` is ``max_j ||l_j||``, the largest eigenvalue
    condition number (not that of the eigenvector matrix); above
    ``DEGENERACY_CONDITION`` it flags a near-defective (exceptional) point and
    sets ``degenerate_warning``.  The arrays are read-only: ``decompose`` hands
    the same instance to every caller of the same ``H``.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition: float
    degenerate_warning: bool = False

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def decay_rates(self) -> np.ndarray:
        return -np.real(self.eigenvalues)


def decompose(H: EffectiveHamiltonian) -> SpectralData:
    """Biorthogonal eigendecomposition of the generator L = -iH.

    Only right eigenvectors are solved for: since ``L == L.T``, the left ones
    are ``conj(r_j) / conj(r_j^T r_j)``, paired so that ``l_j^dag r_j = 1``.
    If that pairing misses ``_PAIRING_TOL`` (a degenerate eigenspace whose
    LAPACK basis is not c-orthogonal, or ``H`` only nearly symmetric) the
    left set is rebuilt from the inverse of the right eigenvector matrix,
    which enforces completeness directly.

    The result is cached on ``H`` (whose matrix is a private read-only copy),
    so later calls for the same instance, with ``DEGENERACY_CONDITION`` and
    ``_PAIRING_TOL`` unchanged, return the same read-only ``SpectralData``
    without another solve.
    """
    thresholds = (DEGENERACY_CONDITION, _PAIRING_TOL)
    cacheable = not H.matrix.flags.writeable
    cached = vars(H).get("_spectral")
    if cacheable and cached is not None and cached[0] == thresholds:
        return cached[1]

    L = -1j * H.matrix
    if not np.all(np.isfinite(L)):
        raise NumericError("generator contains non-finite entries")
    w, vr = np.linalg.eig(L)

    left, condition, paired = _c_product_left(vr)
    condition = float(condition)
    if not paired:
        left = np.linalg.inv(vr).conj().T
        condition = float(_condition(left))
    degenerate = bool(_degenerate(condition))

    w, vr, left = _sorted_modes(w, vr, left)
    sd = SpectralData(
        eigenvalues=w,
        right_vectors=vr,
        left_vectors=left,
        condition=condition,
        degenerate_warning=degenerate,
    )
    for a in (sd.eigenvalues, sd.right_vectors, sd.left_vectors):
        a.setflags(write=False)
    if cacheable:
        object.__setattr__(H, "_spectral", (thresholds, sd))
    return sd


def _c_product_left(vr: np.ndarray):
    """Left vectors of right eigenvector matrices ``vr`` of complex-symmetric
    generators, shape ``(..., n, n)`` with any leading shape.

    Returns ``(left, condition, paired)`` with shapes ``(..., n, n)``,
    ``(...)`` and ``(...)``.  Since ``L == L.T``, ``l_j = conj(r_j) / conj(r_j^T r_j)``.
    A matrix with a self-orthogonal ``r_j`` (``|r_j^T r_j| < 1e-300``: an
    exceptional point) gets ``left = conj(vr)`` and ``condition = inf``.  Any
    other matrix is ``paired`` unless ``max |l_j^dag r_k - delta_jk|`` exceeds
    ``_PAIRING_TOL``; an unpaired matrix's ``left`` and ``condition`` are not
    the inverse's and must be rebuilt or discarded by the caller.
    """
    rtr = np.einsum("...ij,...ij->...j", vr, vr)
    exceptional = np.min(np.abs(rtr), axis=-1) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        left = vr.conj() / rtr.conj()[..., None, :]
        if exceptional.any():
            left[exceptional] = vr[exceptional].conj()
        pairing = np.abs(left.conj().swapaxes(-1, -2) @ vr - np.eye(vr.shape[-1]))
        pairing = pairing.max(axis=(-2, -1))
        condition = np.where(exceptional, math.inf, _condition(left))
    return left, condition, exceptional | ~(pairing > _PAIRING_TOL)


def _condition(left: np.ndarray) -> np.ndarray:
    """``max_j ||l_j||`` for each matrix of shape ``(..., n, n)``: for unit
    ``r_j``, the largest eigenvalue condition number."""
    return np.linalg.norm(left, axis=-2).max(axis=-1)


def _degenerate(condition):
    """Whether ``condition`` flags a near-defective (exceptional) point."""
    return ~np.isfinite(condition) | (condition > DEGENERACY_CONDITION)


def _sorted_modes(w: np.ndarray, vr: np.ndarray, left: np.ndarray):
    """Modes by decay rate ``-Re(lambda)`` ascending (ties by ``Im(lambda)``),
    for ``w`` of shape ``(..., n)`` and vectors of shape ``(..., n, n)``."""
    order = np.lexsort((w.imag, -w.real), axis=-1)
    cols = order[..., None, :]
    return (np.take_along_axis(w, order, axis=-1), np.take_along_axis(vr, cols, axis=-1),
            np.take_along_axis(left, cols, axis=-1))


def _fit_log_linear(x, y):
    """Least-squares line through ``(x, ln y)``: ``(slope, intercept, r_squared)``,
    with ``r_squared`` NaN when ``ln y`` is constant."""
    x = np.asarray(x, dtype=float)
    y = np.log(y)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sstot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / sstot if sstot > 0 else math.nan
    return float(slope), float(intercept), r2


def overlap_weights(sd: SpectralData, site: int = 1) -> np.ndarray:
    """Mode weights c_j = <site|r_j><l_j|site> at a 1-based site.

    These are the coefficients of the coherence expansion
    ``C(t) = |sum_j c_j exp(lambda_j t)|`` and sum to 1 by completeness.
    """
    if not 1 <= site <= sd.n:
        raise IndexError(f"site {site} out of range 1..{sd.n}")
    s = site - 1
    return sd.right_vectors[s, :] * np.conj(sd.left_vectors[s, :])


def site_overlap(sd: SpectralData, mode: int, site: int = 1) -> float:
    """|<site|r_mode>|^2 for the unit-normalized right eigenvector."""
    if not 1 <= site <= sd.n:
        raise IndexError(f"site {site} out of range 1..{sd.n}")
    v = sd.right_vectors[:, mode]
    return float(np.abs(v[site - 1]) ** 2 / np.linalg.norm(v) ** 2)


@dataclass(frozen=True)
class LocalizationProfile:
    site: int
    length: float
    r_squared: float
    delocalized: bool
    stride: int


def localization_profile(mode_vector, support_floor: float = 1e-14) -> LocalizationProfile:
    """Exponential-localization fit of an eigenvector.

    The peak site (1-based) is the localization site.  The decay length comes
    from a least-squares fit of ``ln |psi_n|^2`` against the site index,
    restricted to the sublattice actually carrying weight: edge modes of the
    chain models vanish identically on every second (or third) site, so the
    fit runs over the residue class of the peak site for strides 1..3 and the
    best-conditioned fit wins, with ties going to the smallest stride.  The
    length is per lattice site.  Fits with R^2 < 0.9 (or fewer than two
    support points) are flagged delocalized.
    """
    v = np.asarray(mode_vector, dtype=complex).ravel()
    p = np.abs(v) ** 2
    pmax = float(p.max()) if p.size else 0.0
    if pmax <= 0:
        raise ValueError("zero vector has no localization profile")
    site0 = int(np.argmax(p))
    support = np.flatnonzero(p > support_floor * pmax)

    best = None
    for stride in (1, 2, 3):
        idx = support[(support - site0) % stride == 0]
        if idx.size < 2:
            continue
        slope, _, r2 = _fit_log_linear(idx, p[idx])
        if math.isnan(r2):
            r2 = 0.0
        if best is None or r2 > best[0] + 1e-9:
            best = (r2, slope, stride)

    if best is None:
        return LocalizationProfile(site0 + 1, math.inf, 0.0, True, 1)
    r2, slope, stride = best
    length = math.inf if slope == 0 else 1.0 / abs(slope)
    return LocalizationProfile(site0 + 1, length, r2, r2 < 0.9, stride)


@dataclass(frozen=True)
class EdgeMode:
    """A slowly decaying mode together with its localization analysis."""

    index: int
    eigenvalue: complex
    decay_rate: float
    localization_site: int
    localization_length: float
    overlap_site1: float
    delocalized: bool
    r_squared: float


def default_eps_dark(H: EffectiveHamiltonian) -> float:
    """Default quasi-dark threshold: 1e-3 of the largest on-site decay rate."""
    gmax = float(np.max(-np.real(np.diag(H.generator))))
    return 1e-3 * max(gmax, 1e-30)


def find_quasi_dark_modes(sd: SpectralData, eps_dark: float) -> list[EdgeMode]:
    """All modes with decay rate below ``eps_dark``, slowest first."""
    if eps_dark <= 0:
        raise ValueError("eps_dark must be positive")
    c1 = np.abs(overlap_weights(sd, 1))
    modes = []
    for j in np.flatnonzero(sd.decay_rates < eps_dark):
        prof = localization_profile(sd.right_vectors[:, j])
        modes.append(
            EdgeMode(
                index=int(j),
                eigenvalue=complex(sd.eigenvalues[j]),
                decay_rate=float(sd.decay_rates[j]),
                localization_site=prof.site,
                localization_length=prof.length,
                overlap_site1=float(c1[j]),
                delocalized=prof.delocalized,
                r_squared=prof.r_squared,
            )
        )
    return modes


def is_localized_at_qubit(mode: EdgeMode, cell_size: int = 1, weight_threshold: float = 0.1) -> bool:
    """Peak within the first unit cell and appreciable weight on site 1."""
    return mode.localization_site <= cell_size and mode.overlap_site1 > weight_threshold


def spectrum_rows(sd: SpectralData):
    """Rows for the spectrum CSV: one entry per mode, slowest decay first."""
    c1 = np.abs(overlap_weights(sd, 1))
    rows = []
    for j in range(sd.n):
        prof = localization_profile(sd.right_vectors[:, j])
        lam = sd.eigenvalues[j]
        rows.append(
            (j, lam.real, lam.imag, -lam.real, c1[j], prof.site, prof.length)
        )
    return rows
