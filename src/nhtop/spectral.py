"""Biorthogonal spectral analysis of the coherence-sector generator.

``decompose`` diagonalizes ``L = -iH == L.T`` in a c-orthogonal basis
(``r_j^T r_k = 0``, ``j != k``), so the left eigenvectors are ``l_j =
conj(r_j) / conj(r_j^T r_j)`` and the projectors ``P_j = r_j l_j^dag``
resolve the identity.  Everything downstream (coherence traces, quasi-dark
mode searches, localization fits) builds on this decomposition, computed once
per ``EffectiveHamiltonian`` and cached on it.  ``_modes`` accepts any leading
shape: ``decompose`` runs it on one matrix, disorder ensembles on a stack of
realizations.  Its eigensolve, ``_eig``, reads the structure off the matrix:
a bipartite generator, lossless undetuned sites bonded only to lossy sites
that share one diagonal entry ``z`` (the ssh chain, the two-site impurity),
is solved from one SVD of its real coupling block, whose singular values
give every eigenvalue as a root of a quadratic; the slow roots come out
without cancellation, so lifetimes stay resolved where a dense solve
prints roundoff, and the SVD of an ``N/2``-square block costs a small part
of a dense ``N``-square ``eig``.  Every other generator goes to
``np.linalg.eig``.  ``_fit_log_linear`` is the one log-linear fit behind every
localization length, branch slope and decay-rate fit; it fits any stack of
lines at once, so ``_localization`` fits every eigenvector of a
decomposition in one batched pass, a block of columns at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .netmodel import EffectiveHamiltonian

# largest accepted |(R^T R)_jk / (R^T R)_jj|, j != k: the 1e-12 budget within
# which the qubit weights must sum to 1 for the spectral route
_PAIRING_TOL = 1e-12
# elements per temporary of a stacked pass: a block of the batched localization
# fits or of the stacked trace exponential, a disorder chunk's generators
_BLOCK = 2**14
# a localization fit runs through the sites whose |psi|^2 exceeds this share of the peak
_SUPPORT_FLOOR = 1e-14
# least qubit weight |c_1| of a mode that ``is_localized_at_qubit`` counts
_QUBIT_WEIGHT = 0.1
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of L = -iH with c-orthogonal unit right eigenvectors.

    Columns of ``right_vectors`` are unit r_j with ``r_j^T r_k = 0`` for
    ``j != k``, and ``c_norms`` holds ``r_j^T r_j``; the left eigenvectors
    with ``l_j^dag r_j = 1`` are ``l_j = conj(r_j) / conj(c_norms_j)``.  Modes
    are sorted by decay rate ``-Re(lambda)`` ascending.  ``condition`` is the
    largest eigenvalue condition number ``kappa_j = 1/|c_norms_j|`` (not that
    of the eigenvector matrix); it grows without bound towards an exceptional
    point, where it is non-finite.  The arrays are read-only: ``decompose``
    hands one instance to every caller of one ``H``.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    c_norms: np.ndarray
    condition: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def decay_rates(self) -> np.ndarray:
        """``-Re lambda``, with an exact zero unsigned (``0.0 - x`` is never ``-0.0``)."""
        return 0.0 - np.real(self.eigenvalues)


def decompose(H: EffectiveHamiltonian) -> SpectralData:
    """Biorthogonal eigendecomposition of the generator L = -iH, in a
    c-orthogonal basis of unit right eigenvectors (see ``_modes``).

    The result is cached on ``H`` (whose matrix is a private read-only copy),
    so later calls for the same instance return the same read-only
    ``SpectralData`` without another solve.
    """
    cacheable = not H.matrix.flags.writeable
    cached = vars(H).get("_spectral")
    if cacheable and cached is not None:
        return cached

    L = -1j * H.matrix
    if not np.all(np.isfinite(L)):
        raise NumericError("generator contains non-finite entries")
    w, vr, c_norms, condition = _modes(L)
    sd = SpectralData(eigenvalues=w, right_vectors=vr, c_norms=c_norms,
                      condition=float(condition))
    for a in (sd.eigenvalues, sd.right_vectors, sd.c_norms):
        a.setflags(write=False)
    if cacheable:
        object.__setattr__(H, "_spectral", sd)
    return sd


def _modes(L: np.ndarray):
    """Sorted c-orthogonal eigendecomposition of complex-symmetric generators
    ``L`` of shape ``(..., n, n)``: ``(eigenvalues, right_vectors, c_norms,
    condition)``, shapes ``(..., n)``, ``(..., n, n)``, ``(..., n)``, ``(...)``.

    Only right eigenvectors are solved for.  Columns whose pairing ``l_j^dag
    r_k = (R^T R)_jk / (R^T R)_jj`` misses ``delta_jk`` by more than
    ``_PAIRING_TOL`` (a degenerate eigenspace's LAPACK basis) go through
    ``_c_orthogonalize``.  A self-orthogonal ``r_j`` (an exceptional point)
    leaves a non-finite ``condition``.  Raises ``np.linalg.LinAlgError``.
    """
    w, vr = _eig(L)
    unpaired = vr.swapaxes(-1, -2) @ vr  # R^T R, rebound to the mask: no gram kept
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        unpaired /= np.diagonal(unpaired, axis1=-2, axis2=-1)[..., :, None]
        np.einsum("...ii->...i", unpaired)[...] -= 1
        unpaired = np.abs(unpaired) > _PAIRING_TOL
        unpaired |= unpaired.swapaxes(-1, -2)
        for idx in map(tuple, np.argwhere(unpaired.any(axis=(-2, -1)))):
            _c_orthogonalize(vr[idx], np.flatnonzero(unpaired[idx].any(axis=-1)))
        c_norms = np.einsum("...ij,...ij->...j", vr, vr)
        condition = np.max(1.0 / np.abs(c_norms), axis=-1)
    order = np.lexsort((w.imag, -w.real), axis=-1)
    return (np.take_along_axis(w, order, axis=-1),
            np.take_along_axis(vr, order[..., None, :], axis=-1),
            np.take_along_axis(c_norms, order, axis=-1), condition)


def _eig(L: np.ndarray):
    """Eigenvalues and unit right eigenvectors of a stack ``L`` of shape
    ``(..., n, n)``: ``_bipartite_eig`` where every matrix of the stack has
    its structure and no two of its roots meet, else ``np.linalg.eig``.  A
    stack takes one route as a whole, so each row equals its matrix solved
    alone while all rows would take the same route; in a disorder ensemble
    they do unless a detuning is drawn as exactly 0."""
    split = _bipartite_split(L)
    solved = None if split is None else _bipartite_eig(L.shape, *split)
    return np.linalg.eig(L) if solved is None else solved


def _bipartite_split(L: np.ndarray):
    """``(P, Q, T, z)`` if every matrix of the stack ``L`` is ``-iH`` with,
    in the site order ``(P, Q)``, ``H = [[0, T], [T^T, z I]]``: the lossless
    sites ``P`` have no detuning and no bonds among themselves, the lossy
    sites ``Q`` none either and one diagonal entry ``z != 0``, and the
    coupling ``T`` (shape ``(..., |P|, |Q|)``) is real.  ``z`` (shape
    ``(...)``) may differ between the matrices, ``P`` may not.  Else None.

    The diagonal is read first: a detuned generator, such as every
    realization of a disorder ensemble, is turned away after one comparison.
    """
    if L.size == 0:
        return None
    d = np.diagonal(L, axis1=-2, axis2=-1)
    lossless = d == 0
    first = lossless.reshape(-1, L.shape[-1])[0]
    if not first.any() or first.all() or not (lossless == first).all():
        return None
    P, Q = np.flatnonzero(first), np.flatnonzero(~first)
    dq = d[..., Q]
    if not (dq == dq[..., :1]).all():
        return None
    bonded = L != 0
    if bonded[..., P[:, None], P].any() or np.count_nonzero(bonded[..., Q[:, None], Q]) != dq.size:
        return None
    t = L[..., P[:, None], Q]  # -iT; the Q-P block is its transpose, as L == L.T
    if t.real.any():
        return None
    return P, Q, -t.imag, 1j * dq[..., 0]


def _bipartite_eig(shape, P, Q, T, z):
    """Eigenvalues and unit right eigenvectors of the ``-iH`` that
    ``_bipartite_split`` found, of the stack shape ``shape``, from one SVD of
    its coupling ``T = U S V^T``; None where two eigenvalues meet.

    ``H x = E x`` with ``x = (a u_k, b v_k)`` on ``(P, Q)`` holds when
    ``E^2 - z E - s_k^2 = 0``: each singular triplet gives the root of larger
    modulus, ``E_big``, with ``x ~ (s_k u_k, E_big v_k)``, and the slow one
    without cancellation from Vieta, ``E_small = -s_k^2 / E_big``, with ``x ~
    ((E_small - z) u_k, s_k v_k)``.  Left singular vectors beyond ``|Q|`` are
    dark modes, ``E = 0``; right ones beyond ``|P|`` have ``E = z``.  The
    columns are c-orthogonal up to rounding, as ``u_k``, ``v_k`` are
    orthonormal and ``E_big + E_small = z``.  Where the discriminant ``z^2 +
    4 s_k^2`` vanishes within the rounding of its terms (an exceptional
    point), the roots coalesce and None is returned.
    """
    U, s, Vt = np.linalg.svd(T)
    p, q, k = U.shape[-1], Vt.shape[-1], s.shape[-1]
    z = z[..., None]
    s2 = s * s
    gap = z * z + 4 * s2
    if np.any(np.abs(gap) <= 4 * _EPS * (np.abs(z) ** 2 + 4 * s2)):
        return None
    disc = np.sqrt(gap)
    big = 0.5 * (z + np.where((z.conj() * disc).real >= 0, disc, -disc))
    small = -s2 / big
    nb = np.sqrt(s2 + np.abs(big) ** 2)
    ns = np.sqrt(s2 + np.abs(small - z) ** 2)
    u, v = U[..., :k], Vt[..., :k, :].swapaxes(-1, -2)
    vr = np.zeros(shape, dtype=complex)
    vr[..., P, :k] = (s / nb)[..., None, :] * u
    vr[..., Q, :k] = (big / nb)[..., None, :] * v
    vr[..., P, k:2 * k] = ((small - z) / ns)[..., None, :] * u
    vr[..., Q, k:2 * k] = (s / ns)[..., None, :] * v
    vr[..., P, 2 * k:p + k] = U[..., k:]
    vr[..., Q, p + k:] = Vt[..., k:, :].swapaxes(-1, -2)
    E = np.concatenate([big, small, np.zeros(s.shape[:-1] + (p - k,)),
                        np.broadcast_to(z, s.shape[:-1] + (q - k,))], axis=-1)
    return -1j * E, vr


def _c_orthogonalize(r: np.ndarray, cols) -> None:
    """Make the columns ``cols`` of ``r`` c-orthogonal and unit length, in place.

    Modified Gram-Schmidt under ``x^T y``, pivoting on the largest
    ``|r_k^T r_k|``; where all are below half of some ``|r_a^T r_b|`` (a
    nearly self-orthogonal basis), on ``r_a +- r_b``, whose c-norm is at least
    ``2 |r_a^T r_b|``.  The new columns are then projected out of every other
    column whose pairing with them misses ``_PAIRING_TOL``.
    """
    cols, done = list(cols), list(cols)
    while cols:
        g = r[:, cols].T @ r[:, cols]
        i = int(np.argmax(np.abs(np.diagonal(g))))
        a, b = np.unravel_index(np.argmax(np.abs(g)), g.shape)
        if abs(g[i, i]) < abs(g[a, b]) / 2:
            sign = 1 if (np.conj(g[a, a] + g[b, b]) * g[a, b]).real >= 0 else -1
            r[:, cols[a]] += sign * r[:, cols[b]]
            i = a
        k = cols.pop(i)
        r[:, k] /= np.linalg.norm(r[:, k])
        r[:, cols] -= np.outer(r[:, k], (r[:, k] @ r[:, cols]) / (r[:, k] @ r[:, k]))
    q = r[:, done]
    coef = (q.T @ r) / np.einsum("ij,ij->j", q, q)[:, None]
    coef[:, done] = 0  # the new columns themselves stay, as do columns already paired
    r -= q @ np.where(np.abs(coef) > _PAIRING_TOL, coef, 0)


def _fit_log_linear(x, y, support=None):
    """Least-squares lines through ``(x, ln y)`` along the last axis:
    ``(slope, intercept, r_squared)`` arrays of the leading shape.

    ``support`` is a 0/1 mask of the points each line is fitted through (all
    of them by default); ``y`` is read only there.  Closed form on centered
    sums.  A fit is flat when the spread of ``ln y`` about its mean is within
    rounding of the values themselves: ``sum (ln y - mean)^2 <= n eps (1 +
    max |ln y|)^2``, a sum of squares at the rounding level of that of ``n``
    values of size ``1 + max |ln y|`` (``ln y`` inherits an absolute rounding
    from ``y`` besides its own relative one).  A flat fit, a single point
    among them, has slope 0 and ``r_squared`` NaN.
    """
    x = np.asarray(x, dtype=float)
    if support is None:
        support = np.ones(np.shape(y), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = support.astype(float)
        ly = np.log(np.where(support, y, 1.0))
        n = w.sum(axis=-1)
        xm = (w * x).sum(axis=-1) / n
        ym = (w * ly).sum(axis=-1) / n
        dx = w * (x - xm[..., None])
        dy = w * (ly - ym[..., None])
        sxx = (dx * dx).sum(axis=-1)
        sxy = (dx * dy).sum(axis=-1)
        syy = (dy * dy).sum(axis=-1)
        scale = 1.0 + np.abs(ly).max(axis=-1, initial=0.0)
        flat = syy <= n * np.finfo(float).eps * scale * scale
        slope = np.where(flat, 0.0, sxy / sxx)
        r_squared = np.where(flat, np.nan, sxy * sxy / (sxx * syy))
    return slope, ym - slope * xm, r_squared


def overlap_weights(sd: SpectralData, site: int = 1) -> np.ndarray:
    """Mode weights c_j = <site|r_j><l_j|site> at a 1-based site.

    These are the coefficients of the coherence expansion
    ``C(t) = |sum_j c_j exp(lambda_j t)|`` and sum to 1 by completeness.
    """
    if not 1 <= site <= sd.n:
        raise IndexError(f"site {site} out of range 1..{sd.n}")
    r = sd.right_vectors[site - 1, :]
    return r * (r / sd.c_norms)


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


def localization_profile(mode_vector) -> LocalizationProfile:
    """Exponential-localization fit of an eigenvector.

    The peak site (1-based) is the localization site.  The decay length comes
    from a least-squares fit of ``ln |psi_n|^2`` against the site index,
    restricted to the sublattice actually carrying weight: edge modes of the
    chain models vanish identically on every second (or third) site, so the
    fit runs over the residue class of the peak site for strides 1..3 and the
    best-conditioned fit wins, with ties going to the smallest stride.  The
    length is per lattice site, infinite for a flat fit.  Fits with R^2 < 0.9
    (or fewer than two support points) are flagged delocalized.
    """
    v = np.asarray(mode_vector, dtype=complex).ravel()
    if not np.any(np.abs(v) ** 2):
        raise ValueError("zero vector has no localization profile")
    return LocalizationProfile(*(a[0].item() for a in _localization(v[:, None])))


def _localization(vectors):
    """``localization_profile`` of every (nonzero) column of ``vectors``, shape
    ``(n, k)``: ``(site, length, r_squared, delocalized)`` arrays of shape
    ``(k,)``.

    Columns go through in blocks of ``_BLOCK // n``, so each temporary holds
    about ``_BLOCK`` elements; within a block, one ``_fit_log_linear`` call
    per stride fits every column.
    """
    n, k = vectors.shape
    x = np.arange(n)
    site = np.empty(k, dtype=int)
    length = np.empty(k)
    r_squared = np.empty(k)
    width = max(1, _BLOCK // n)
    for start in range(0, k, width):
        cols = slice(start, start + width)
        p = np.abs(vectors[:, cols].T) ** 2
        peak = np.argmax(p, axis=-1)
        support = p > _SUPPORT_FLOOR * p.max(axis=-1, keepdims=True)
        best_r2 = np.full(p.shape[0], -np.inf)
        best_slope = np.zeros(p.shape[0])
        for stride in (1, 2, 3):
            on = support & ((x - peak[:, None]) % stride == 0)
            slope, _, r2 = _fit_log_linear(x, p, on)
            r2 = np.where(on.sum(axis=-1) < 2, -np.inf, np.nan_to_num(r2, nan=0.0))
            better = r2 > best_r2 + 1e-9
            best_r2 = np.where(better, r2, best_r2)
            best_slope = np.where(better, slope, best_slope)
        site[cols] = peak + 1
        with np.errstate(divide="ignore"):
            length[cols] = 1.0 / np.abs(best_slope)
        r_squared[cols] = np.where(best_r2 == -np.inf, 0.0, best_r2)
    return site, length, r_squared, r_squared < 0.9


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
    if not 0.0 < eps_dark < np.inf:  # NaN fails both comparisons
        raise ValueError(f"eps_dark must be finite and positive; got {eps_dark!r}")
    c1 = np.abs(overlap_weights(sd, 1))
    dark = np.flatnonzero(sd.decay_rates < eps_dark)
    site, length, r2, delocalized = _localization(sd.right_vectors[:, dark])
    return [
        EdgeMode(
            index=int(j),
            eigenvalue=complex(sd.eigenvalues[j]),
            decay_rate=float(sd.decay_rates[j]),
            localization_site=int(site[i]),
            localization_length=float(length[i]),
            overlap_site1=float(c1[j]),
            delocalized=bool(delocalized[i]),
            r_squared=float(r2[i]),
        )
        for i, j in enumerate(dark)
    ]


def is_localized_at_qubit(mode: EdgeMode, cell_size: int = 1) -> bool:
    """Peak within the first unit cell and weight above ``_QUBIT_WEIGHT`` on site 1."""
    return mode.localization_site <= cell_size and mode.overlap_site1 > _QUBIT_WEIGHT


def spectrum_rows(sd: SpectralData):
    """Rows for the spectrum CSV: one entry per mode, slowest decay first.
    A zero prints unsigned: ``x + 0.0`` is never ``-0.0``."""
    lam = sd.eigenvalues
    site, length, _, _ = _localization(sd.right_vectors)
    return list(zip(range(sd.n), (lam.real + 0.0).tolist(), (lam.imag + 0.0).tolist(),
                    sd.decay_rates.tolist(),
                    np.abs(overlap_weights(sd, 1)).tolist(), site.tolist(), length.tolist()))
