"""Bloch matrices, winding numbers, and bulk-edge verification.

For a periodic chain with one leaky site per unit cell, the winding of
``det U(k)`` classifies the dissipative phases: ``U(k)`` diagonalizes the
Hermitian block of the non-lossy sites and rotates the coupling vector to
the lossy site real and positive.  ``W`` then predicts how many quasi-dark
modes of the open chain localize at the qubit end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GapClosureError, PhaseBoundaryError, ResolutionError, SpecificationError
from . import netmodel
from .spectral import (_fit_log_linear, decompose, default_eps_dark, find_quasi_dark_modes,
                       is_localized_at_qubit)

MAX_KPOINTS = 1 << 17
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class BlochHamiltonian:
    """k-dependent cell matrix, exactly one leaky site (last position)."""

    cell_size: int
    evaluator: Callable[[float], np.ndarray]
    params: dict

    def __post_init__(self):
        if self.cell_size not in (2, 3):
            raise SpecificationError("only 2- and 3-site unit cells are supported")
        m0 = self(0.0)
        m2pi = self(2 * math.pi)
        scale = max(1.0, float(np.max(np.abs(m0))))
        if np.max(np.abs(m0 - m2pi)) > 1e-14 * scale:
            raise SpecificationError("Bloch matrix must be 2*pi periodic")
        diag_im = np.imag(np.diag(m0))
        if np.count_nonzero(diag_im < 0) != 1 or np.any(diag_im > 1e-14 * scale):
            raise SpecificationError("exactly one diagonal entry must carry loss")

    def __call__(self, k: float) -> np.ndarray:
        m = np.asarray(self.evaluator(k), dtype=complex)
        if m.shape != (self.cell_size, self.cell_size):
            raise SpecificationError("evaluator returned a wrongly shaped matrix")
        return m


def bloch_ssh(J1: float, J2: float, Gamma: float) -> BlochHamiltonian:
    """Two-site cell [[0, v_k], [conj(v_k), -i Gamma]] with v_k = J1 + J2 e^{ik}."""

    def hk(k):
        v = J1 + J2 * np.exp(1j * k)
        return np.array([[0.0, v], [np.conj(v), -1j * Gamma]])

    return BlochHamiltonian(2, hk, {"J1": J1, "J2": J2, "Gamma": Gamma})


def bloch_three_site(J1, J2, J3, J, eps1, eps2, Gamma) -> BlochHamiltonian:
    """Three-site cell; the 1-3 coupling picks up the k dependence J3 e^{ik} + J."""

    def hk(k):
        t13 = J3 * np.exp(1j * k) + J
        return np.array(
            [
                [eps1, J1, t13],
                [J1, eps2, J2],
                [np.conj(t13), J2, -1j * Gamma],
            ]
        )

    return BlochHamiltonian(
        3, hk, {"J1": J1, "J2": J2, "J3": J3, "J": J, "eps1": eps1, "eps2": eps2, "Gamma": Gamma}
    )


@dataclass(frozen=True)
class WindingResult:
    W: int
    method: str
    k_points: int = 0
    max_phase_step: float = 0.0

    def __post_init__(self):
        if self.method not in ("numeric", "closed_form"):
            raise ValueError("method must be 'numeric' or 'closed_form'")


def _gauge_phases(bloch: BlochHamiltonian, ks: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Unit-modulus det U(k) samples from the Bloch matrices ``mats`` at ``ks``."""
    n = bloch.cell_size
    hs = mats[:, : n - 1, : n - 1]
    vs = mats[:, : n - 1, n - 1]

    scale = max(1.0, float(np.max(np.abs(mats))))
    if np.max(np.abs(hs - np.conj(np.swapaxes(hs, 1, 2)))) > 1e-12 * scale:
        raise SpecificationError("non-lossy block must be Hermitian for all k")

    # constant Hermitian block (both chain families): one diagonalization
    if np.max(np.abs(hs - hs[0])) < 1e-14 * scale:
        q = _gauge_basis(hs[0], vs[0])
        z = vs @ np.conj(q)  # rows: (n-1) overlaps at each k
        dq = np.linalg.det(q)
        return _phase_product(z, dq / abs(dq), bloch, ks)

    out = np.empty(ks.shape, dtype=complex)
    for i, k in enumerate(ks):
        q = _gauge_basis(hs[i], vs[i])
        z = (np.conj(q).T @ vs[i])[None, :]
        dq = np.linalg.det(q)
        out[i] = _phase_product(z, dq / abs(dq), bloch, np.array([k]))[0]
    return out


def _gauge_basis(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eigenbasis of the Hermitian block; degenerate subspaces are rotated so
    only one column keeps overlap with the lossy-site coupling vector."""
    evals, q = np.linalg.eigh(h)
    q = q.astype(complex)  # rotations below may be complex even for real h
    n = evals.size
    scale = max(1.0, float(np.max(np.abs(evals))))
    i = 0
    while i < n:
        j = i + 1
        while j < n and evals[j] - evals[i] <= 1e-12 * scale:
            j += 1
        if j - i > 1:
            block = q[:, i:j]
            proj = block.conj().T @ v
            if np.linalg.norm(proj) > 1e-14:
                u1 = block @ proj
                u1 /= np.linalg.norm(u1)
                # orthonormal complement of u1 inside the degenerate subspace
                rest = block - np.outer(u1, u1.conj() @ block)
                uu = np.linalg.svd(rest, full_matrices=False)[0]
                q[:, i:j] = np.column_stack([u1, uu[:, : j - i - 1]])
        i = j
    return q


def _phase_product(z: np.ndarray, det_q_phase: complex, bloch, ks) -> np.ndarray:
    """Combine per-component gauge phases into det U(k) on the unit circle."""
    mags = np.abs(z)
    tiny = mags < 1e-12
    if np.any(tiny):
        # measure-zero vanishing of a gauge component: nudge k and retry once
        rows = np.unique(np.nonzero(tiny)[0])
        warnings.warn("gauge vector component vanished at isolated k; perturbing")
        z = z.copy()
        for r in rows:
            krow = ks[r if ks.size > 1 else 0] + 1e-9
            m = bloch(krow)
            n = bloch.cell_size
            q = _gauge_basis(m[: n - 1, : n - 1], m[: n - 1, n - 1])
            z[r] = m[: n - 1, n - 1] @ np.conj(q)
        mags = np.abs(z)
        z = np.where(mags < 1e-12, 1.0, z)
        mags = np.where(mags < 1e-12, 1.0, mags)
    return det_q_phase * np.prod(z / mags, axis=1)


def _check_no_dark_state(mats: np.ndarray):
    decay = -np.imag(np.linalg.eigvals(mats))
    gap = float(np.min(decay))
    if gap <= 1e-10:
        raise GapClosureError(
            f"dark state on the k-grid (smallest decay rate {gap:.3e}); winding undefined"
        )


def winding_number_numeric(bloch: BlochHamiltonian, n_k: int = 256) -> WindingResult:
    """Winding of det U(k) by phase accumulation over the Brillouin zone.

    The grid is doubled until every unwrapped phase step is below pi/2; the
    total must land on an integer multiple of 2*pi within 5%.
    """
    if n_k < 64:
        raise ValueError("n_k must be at least 64")
    while True:
        ks = np.linspace(0.0, 2 * math.pi, n_k, endpoint=False)
        mats = np.stack([bloch(k) for k in ks])
        _check_no_dark_state(mats)
        u = _gauge_phases(bloch, ks, mats)
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


def chain_winding(model: str, params: dict):
    """``(cell_size, bloch, closed_form)`` of a canonical chain: its unit-cell size
    and callables returning its ``BlochHamiltonian`` and closed-form ``WindingResult``."""
    p = params
    if model == "ssh":
        return (2, lambda: bloch_ssh(p["J1"], p["J2"], p["Gamma"]),
                lambda: winding_ssh_closed_form(p["J1"], p["J2"]))
    if model == "three-site":
        bonds = (p["J1"], p["J2"], p["J3"], p["J"], p.get("eps1", 0.0), p.get("eps2", 0.0))
        return (3, lambda: bloch_three_site(*bonds, p["Gamma"]),
                lambda: winding_three_site_closed_form(*bonds))
    raise SpecificationError(f"{model!r} has no winding number; expected 'ssh' or 'three-site'")


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
    decay_rates: tuple


@dataclass(frozen=True)
class BulkEdgeReport:
    model: str
    params: dict
    rows: tuple
    fits: tuple
    W_closed_form: int
    eps_dark: float

    @property
    def n_exponential_branches(self) -> int:
        return sum(1 for f in self.fits if f.exponential)


def bulk_edge_report(model: str, params: dict, N_list: Sequence[int],
                     eps_dark: float | None = None, n_branches: int = 3) -> BulkEdgeReport:
    """Open-chain quasi-dark census against the closed-form winding number.

    For every N: number of modes below ``eps_dark``, how many of those sit in
    the first unit cell with weight on the qubit, and the smallest decay
    rates.  Branch m tracks the m-th smallest rate across N; a log-linear fit
    of each branch identifies lifetimes growing exponentially with system
    size.  Exact dark modes (rate below 1e-13) are excluded from the fits.
    """
    n_list = sorted(int(n) for n in N_list)
    if repeated := sorted({n for n in n_list if n_list.count(n) > 1}):
        raise ValueError(f"system sizes must be distinct; repeated: {repeated}")
    if len(n_list) < 4:
        raise ValueError("need at least four system sizes for scaling fits")
    cell, _, closed_form = chain_winding(model, params)
    w_closed = closed_form().W

    rows = []
    branch_rates = {m: {} for m in range(n_branches)}
    for n in n_list:
        H = netmodel.build_model(model, n, params)
        sd = decompose(H)
        eps = default_eps_dark(H) if eps_dark is None else eps_dark
        modes = find_quasi_dark_modes(sd, eps)
        nloc = sum(1 for m in modes if is_localized_at_qubit(m, cell))
        rates = sd.decay_rates  # ascending: decompose sorts the modes
        for m in range(min(n_branches, rates.size)):
            branch_rates[m][n] = float(rates[m])
        rows.append(
            BulkEdgeRow(
                N=n,
                n_quasi_dark=len(modes),
                n_localized_site1=nloc,
                slowest_decay_rate=float(rates[0]),
                decay_rates=tuple(float(r) for r in rates[:n_branches]),
            )
        )

    fits = []
    for m in range(n_branches):
        pts = [(n, r) for n, r in sorted(branch_rates[m].items()) if r > 1e-13]
        if len(pts) < 3:
            continue
        slope, _, r2 = _fit_log_linear(*zip(*pts))
        if math.isnan(r2):
            r2 = 1.0
        fits.append(BranchFit(m, float(slope), float(r2), len(pts)))

    eps_used = eps_dark if eps_dark is not None else -1.0
    return BulkEdgeReport(model, dict(params), tuple(rows), tuple(fits), w_closed, eps_used)


def write_report_csv(stream, report: BulkEdgeReport, header_lines=()):
    """CSV per the report interface, with branch fits as leading comments."""
    for line in header_lines:
        stream.write(f"# {line}\n")
    for f in report.fits:
        stream.write(
            f"# branch {f.branch + 1}: slope {f.slope:.6g} r2 {f.r_squared:.6g}"
            f" exponential {f.exponential}\n"
        )
    stream.write("N,n_quasi_dark,n_localized_site1,W_closed_form,slowest_decay_rate\n")
    for row in report.rows:
        stream.write(
            f"{row.N},{row.n_quasi_dark},{row.n_localized_site1},"
            f"{report.W_closed_form},{row.slowest_decay_rate:.17g}\n"
        )
