"""Bloch matrices, winding numbers, and bulk-edge verification.

For a periodic chain with one leaky site per unit cell, the winding ``W`` of
``det K(k)``, with ``K = [v, h v, ..., h^(n-1) v]`` the Krylov matrix of the
non-lossy block ``h(k)`` and the coupling ``v(k)`` to the lossy site,
classifies the dissipative phases.  In the eigenbasis ``q`` of ``h``,
``det K = det q * prod_j (q_j^dagger v) * V(lambda)`` with ``V`` the positive
Vandermonde of the ascending eigenvalues, so ``det K`` winds as the published
gauge-fixed ``det U(k)`` does, with no diagonalization.  ``W`` then predicts
how many quasi-dark modes of the open chain localize at the qubit end.

A canonical chain's Bloch matrix is read off its two-cell open chain
(``chain_bloch``), so the chain's bonds are stated only in its
``netmodel.*_network`` function; ``closed_form_winding`` dispatches to the
published closed forms.  The numeric winding evaluates the whole k-grid in
one evaluator call, one stacked matrix-vector chain and one ``det``.
The library writes nothing: the CLI formats the report as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GapClosureError, PhaseBoundaryError, ResolutionError, SpecificationError
from . import netmodel
from .spectral import (_EPS, _fit_log_linear, decompose, default_eps_dark,
                       find_quasi_dark_modes, is_localized_at_qubit)

MAX_KPOINTS = 1 << 17
_BOUNDARY_TOL = 1e-12
_CELL_SIZES = {"ssh": 2, "three-site": 3}
# decay-rate branches tracked across N by ``bulk_edge_report``
_N_BRANCHES = 3


@dataclass(frozen=True)
class BlochHamiltonian:
    """k-dependent cell matrix ``H(k)`` with exactly one leaky site, the last.

    ``evaluator`` takes an array ``k`` of any shape and returns the cell
    matrices at every ``k`` at once, of shape ``k.shape + (c, c)`` with
    ``c = cell_size``.  ``H(k)`` must be 2*pi periodic, and only its last
    diagonal entry may carry loss (negative imaginary part).
    """

    cell_size: int
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.cell_size not in (2, 3):
            raise SpecificationError("only 2- and 3-site unit cells are supported")
        h = 1e-6  # the central difference at k = 0 that estimates |dH/dk|
        m0, m2pi, m_minus, m_plus = self(np.array([0.0, 2 * math.pi, -h, h]))
        scale = max(1.0, float(np.max(np.abs(m0))))
        slope = float(np.max(np.abs(m_plus - m_minus))) / (2 * h)
        # rounding 2*pi, and m k in a harmonic e^{imk}, moves the argument by
        # up to about eps 2 pi |m|: allow twice that, times |dH/dk|
        if np.max(np.abs(m0 - m2pi)) > 1e-14 * scale + 4 * math.pi * _EPS * slope:
            raise SpecificationError("Bloch matrix must be 2*pi periodic")
        diag_im = np.imag(np.diag(m0))
        if np.count_nonzero(diag_im < 0) != 1 or np.any(diag_im > 1e-14 * scale):
            raise SpecificationError("exactly one diagonal entry must carry loss")
        if diag_im[-1] >= 0:
            raise SpecificationError(
                f"the lossy site must be the last of the cell (site {self.cell_size - 1}); "
                f"loss is on site {int(np.argmin(diag_im))}")

    def __call__(self, k: float | np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        m = np.asarray(self.evaluator(k), dtype=complex)
        if m.shape != k.shape + (self.cell_size, self.cell_size):
            raise SpecificationError("evaluator returned a wrongly shaped matrix")
        return m


def chain_bloch(model: str, params: dict) -> BlochHamiltonian:
    """Bloch matrix of a canonical chain, read off its two-cell open chain
    (``netmodel.build_model``): with ``h0`` the first cell's block and ``B``
    the block from cell 2 to cell 1, ``H(k) = h0 + B e^{ik} + B^T e^{-ik}``."""
    c = _cell_size(model)
    m = netmodel.build_model(model, 2 * c, params).matrix
    h0, B = m[:c, :c], m[c:, :c]

    def hk(k):
        e = np.exp(1j * k)[..., None, None]
        return h0 + B * e + B.T * np.conj(e)

    return BlochHamiltonian(c, hk)


def bloch_ssh(J1: float, J2: float, Gamma: float) -> BlochHamiltonian:
    """Two-site cell [[0, v_k], [conj(v_k), -i Gamma]] with v_k = J1 + J2 e^{ik}."""
    return chain_bloch("ssh", dict(J1=J1, J2=J2, Gamma=Gamma))


def bloch_three_site(J1, J2, J3, J, eps1, eps2, Gamma) -> BlochHamiltonian:
    """Three-site cell; the 1-3 coupling picks up the k dependence J3 e^{ik} + J."""
    return chain_bloch("three-site", dict(J1=J1, J2=J2, J3=J3, J=J, eps1=eps1, eps2=eps2,
                                          Gamma=Gamma))


@dataclass(frozen=True)
class WindingResult:
    W: int
    method: str
    k_points: int = 0
    max_phase_step: float = 0.0

    def __post_init__(self):
        if self.method not in ("numeric", "closed_form"):
            raise ValueError("method must be 'numeric' or 'closed_form'")


def _krylov_phases(mats: np.ndarray) -> np.ndarray:
    """Unit-modulus ``det K(k)`` samples from the stacked Bloch matrices ``mats``.

    With ``h`` the non-lossy block, ``v`` the coupling to the lossy site and
    ``n`` the number of non-lossy sites, ``K = [v, h v, ..., h^(n-1) v]``.  A
    vanishing ``det K`` is a dark state (the Popov-Belevitch-Hautus test), which
    ``_check_no_dark_state`` has rejected already.
    """
    n = mats.shape[-1] - 1
    hs = mats[:, :n, :n]

    scale = max(1.0, float(np.max(np.abs(mats))))
    if np.max(np.abs(hs - np.conj(np.swapaxes(hs, 1, 2)))) > 1e-12 * scale:
        raise SpecificationError("non-lossy block must be Hermitian for all k")

    # h - c I gives the same det K; taking out the mean diagonal spares the
    # chain the cancellation of a common detuning against a near-degenerate h
    hs = hs - np.trace(hs, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
    krylov = [mats[:, :n, n:]]
    for _ in range(n - 1):
        krylov.append(hs @ krylov[-1])
    d = np.linalg.det(np.concatenate(krylov, axis=-1))
    return d / np.abs(d)


def _check_no_dark_state(mats: np.ndarray):
    decay = -np.imag(np.linalg.eigvals(mats))
    gap = float(np.min(decay))
    if gap <= 1e-10:
        raise GapClosureError(
            f"dark state on the k-grid (smallest decay rate {gap:.3e}); winding undefined"
        )


def winding_number_numeric(bloch: BlochHamiltonian, n_k: int = 256) -> WindingResult:
    """Winding of det K(k) by phase accumulation over the Brillouin zone.

    ``n_k`` in [64, MAX_KPOINTS] is the first grid; it is doubled until every
    unwrapped phase step is below pi/2, and the total must land on an integer
    multiple of 2*pi within 5%.
    """
    if n_k < 64:
        raise ValueError("n_k must be at least 64")
    if n_k > MAX_KPOINTS:
        raise ValueError(f"n_k must be at most {MAX_KPOINTS}; got {n_k}")
    while True:
        mats = bloch(np.linspace(0.0, 2 * math.pi, n_k, endpoint=False))
        _check_no_dark_state(mats)
        u = _krylov_phases(mats)
        steps = np.angle(np.roll(u, -1) * np.conj(u))
        max_step = float(np.max(np.abs(steps)))
        if max_step < math.pi / 2:
            break
        if 2 * n_k > MAX_KPOINTS:
            raise ResolutionError(
                f"phase steps stay above pi/2 at {n_k} k-points; cannot resolve winding"
            )
        n_k *= 2
    total = float(np.sum(steps))
    w = round(total / (2 * math.pi))
    if abs(total / (2 * math.pi) - w) > 0.05:
        raise ResolutionError(
            f"phase integral {total / (2 * math.pi):.4f} is not close to an integer"
        )
    return WindingResult(int(w), "numeric", n_k, max_step)


def winding_ssh_closed_form(J1: float, J2: float) -> WindingResult:
    """W = 1 when the staggered bond dominates (|J2| > |J1|), else 0."""
    if abs(abs(J1) - abs(J2)) <= _BOUNDARY_TOL:
        raise PhaseBoundaryError("|J1| = |J2| is the phase transition; W undefined")
    return WindingResult(1 if abs(J2) > abs(J1) else 0, "closed_form")


def winding_three_site_closed_form(J1, J2, J3, J, eps1=0.0, eps2=0.0) -> WindingResult:
    """Closed-form W in {0, 1, 2} for the three-site cell.

    W counts how many of the two gauge components of the 1-3 coupling wind:
    ``W = [|J3| > |J + J2 tan(theta/2)|] + [|J3| > |J - J2 cot(theta/2)|]``
    with ``theta = arccos((eps1-eps2) / sqrt(4 J1^2 + (eps1-eps2)))``, kept
    exactly as published (the unsquared detuning under the root included);
    only the eps1 == eps2 reduction, where theta = pi/2 and the thresholds
    become |J + J2| and |J - J2|, is validated against the numeric route.
    Outside the formula's domain it raises ``SpecificationError``.
    """
    delta = eps1 - eps2
    if delta == 0.0:
        thresholds = (abs(J + J2), abs(J - J2))
    else:
        root = 4 * J1**2 + delta
        arg = delta / math.sqrt(root) if root > 0 else math.nan
        # NaN, |arg| > 1 and arg == 1 (theta = 0, so tan(theta/2) = 0) all fail
        if not -1.0 <= arg < 1.0:
            raise SpecificationError(
                "the published three-site winding formula needs 4 J1^2 + (eps1-eps2) > 0 and "
                "(eps1-eps2) / sqrt(4 J1^2 + (eps1-eps2)) in [-1, 1); "
                f"got J1={J1!r}, eps1-eps2={delta!r}")
        theta = math.acos(arg)
        thresholds = (
            abs(J + J2 * math.tan(theta / 2)),
            abs(J - J2 / math.tan(theta / 2)),
        )
    w = 0
    for thr in thresholds:
        if abs(abs(J3) - thr) <= _BOUNDARY_TOL:
            raise PhaseBoundaryError(f"|J3| sits on the phase boundary at {thr!r}")
        if abs(J3) > thr:
            w += 1
    return WindingResult(w, "closed_form")


def _cell_size(model: str) -> int:
    if model not in _CELL_SIZES:
        raise SpecificationError(
            f"{model!r} has no winding number; expected 'ssh' or 'three-site'")
    return _CELL_SIZES[model]


def closed_form_winding(model: str, params: dict) -> WindingResult:
    """The published closed-form winding number of a canonical chain."""
    _cell_size(model)
    p = netmodel.model_params(model, params)
    if model == "ssh":
        return winding_ssh_closed_form(p["J1"], p["J2"])
    return winding_three_site_closed_form(p["J1"], p["J2"], p["J3"], p["J"], p["eps1"], p["eps2"])


# ---------------------------------------------------------------------------
# Bulk-edge correspondence report for open chains.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchFit:
    branch: int
    slope: float
    r_squared: float
    n_points: int

    @property
    def exponential(self) -> bool:
        return self.n_points >= 3 and self.r_squared > 0.98 and self.slope < -1e-3


@dataclass(frozen=True)
class BulkEdgeRow:
    N: int
    n_quasi_dark: int
    n_localized_site1: int
    slowest_decay_rate: float


@dataclass(frozen=True)
class BulkEdgeReport:
    rows: tuple
    fits: tuple
    W_closed_form: int


def bulk_edge_report(model: str, params: dict, N_list: Sequence[int],
                     eps_dark: float | None = None) -> BulkEdgeReport:
    """Open-chain quasi-dark census against the closed-form winding number.

    For every N: number of modes below ``eps_dark``, how many of those sit in
    the first unit cell with weight on the qubit, and the smallest decay
    rate.  Branch m tracks the m-th smallest rate across N; a log-linear fit
    of each branch identifies lifetimes growing exponentially with system
    size.  Exact dark modes (rate below 1e-13) are excluded from the fits.
    """
    n_list = sorted(int(n) for n in N_list)
    if repeated := sorted({n for n in n_list if n_list.count(n) > 1}):
        raise ValueError(f"system sizes must be distinct; repeated: {repeated}")
    if len(n_list) < 4:
        raise ValueError("need at least four system sizes for scaling fits")
    cell = _cell_size(model)
    w_closed = closed_form_winding(model, params).W

    rows = []
    branch_rates = {m: {} for m in range(_N_BRANCHES)}
    for n in n_list:
        H = netmodel.build_model(model, n, params)
        sd = decompose(H)
        eps = default_eps_dark(H) if eps_dark is None else eps_dark
        modes = find_quasi_dark_modes(sd, eps)
        nloc = sum(1 for m in modes if is_localized_at_qubit(m, cell))
        rates = sd.decay_rates  # ascending: decompose sorts the modes
        for m in range(min(_N_BRANCHES, rates.size)):
            branch_rates[m][n] = float(rates[m])
        rows.append(BulkEdgeRow(n, len(modes), nloc, float(rates[0])))

    fits = []
    for m in range(_N_BRANCHES):
        pts = [(n, r) for n, r in sorted(branch_rates[m].items()) if r > 1e-13]
        if len(pts) < 3:
            continue
        slope, _, r2 = _fit_log_linear(*zip(*pts))
        if math.isnan(r2):
            r2 = 1.0
        fits.append(BranchFit(m, float(slope), float(r2), len(pts)))

    return BulkEdgeReport(tuple(rows), tuple(fits), w_closed)
