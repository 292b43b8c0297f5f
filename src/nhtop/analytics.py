"""Closed-form predictions for the canonical chain models.

Everything here is an independent oracle for the numerical modules: impurity
mode eigenvalues and lifetimes, quasi-momentum roots of the finite impurity
chain, exact and asymptotic edge-mode expressions for the alternating-bond
chain (odd and even lengths), the dark-sector coherence, and the benchmark
lifetime/overlap table.  All eigenvalues are reported in the generator
convention (decay rate = -Re lambda); the matching ``i * lambda`` values in
the Hamiltonian convention are attached where relevant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import RootFindingError
from . import netmodel
from .spectral import decompose, overlap_weights, site_overlap

_NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
class ImpurityPrediction:
    """Localized-mode data for the single-impurity chain.

    ``lambda_plus`` is the long-lived branch; its validity flag checks
    ``Re(lambda) < 0`` (outside that region the formula does not describe an
    actual localized eigenvalue).  ``zeta`` is the localization length of the
    plus branch in sites, ``tau`` the single-exponential coherence lifetime.
    """

    lambda_plus: complex
    lambda_minus: complex
    validity_plus: bool
    validity_minus: bool
    zeta: float
    tau: float


def impurity_prediction(J: float, kappa: float, Gamma: float) -> ImpurityPrediction:
    """Closed-form localized eigenvalues lambda_pm = -4 kappa^2 / (Gamma pm s)
    with s = sqrt(16 (J^2 - kappa^2) + Gamma^2), localization length
    zeta = 1 / ln|(Gamma + s) / (4J)| of the plus branch (positive whenever the
    bound mode exists) and lifetime tau = Re[(Gamma + s) / (4 kappa^2)].
    """
    if Gamma <= 0:
        raise ValueError("Gamma must be positive")
    if J == 0:
        raise ValueError("J must be nonzero")
    s = cmath.sqrt(16.0 * (J**2 - kappa**2) + Gamma**2)
    if kappa == 0:
        lam_p = 0.0 + 0.0j
        lam_m = 0.0 + 0.0j
        tau = math.inf
    else:
        lam_p = -4.0 * kappa**2 / (Gamma + s)
        # the minus branch diverges at kappa = J (s = Gamma): no bound mode
        lam_m = -4.0 * kappa**2 / (Gamma - s) if Gamma != s else complex(-math.inf)
        tau = ((Gamma + s) / (4.0 * kappa**2)).real
    # amplitude falls like |e^{ik}|^n = (4J/|Gamma + s|)^n, so the length is
    # the reciprocal log of the inverse ratio; negative zeta = no bound mode
    ratio = abs((Gamma + s) / (4.0 * J))
    zeta = math.inf if ratio == 1.0 else 1.0 / math.log(ratio)
    return ImpurityPrediction(
        lambda_plus=complex(lam_p),
        lambda_minus=complex(lam_m),
        validity_plus=lam_p.real < 0,
        validity_minus=bool(np.isfinite(lam_m) and lam_m.real < 0),
        zeta=zeta,
        tau=tau,
    )


def _quasimomentum_equation(k, a, b, N):
    return (2.0 * np.cos(k) + 1j * a) * np.sin(k * N) - b**2 * np.sin(k * (N - 1))


def _quasimomentum_derivative(k, a, b, N):
    return (
        -2.0 * np.sin(k) * np.sin(k * N)
        + (2.0 * np.cos(k) + 1j * a) * N * np.cos(k * N)
        - b**2 * (N - 1) * np.cos(k * (N - 1))
    )


def quasimomentum_residual(k, J: float, kappa: float, Gamma: float, N: int) -> float:
    """Equation residual scaled by the magnitude of its terms.

    The raw secular equation grows like exp(N |Im k|), so a converged complex
    root keeps a raw residual of order eps * exp(N |Im k|); the residual is
    therefore normalized by the largest term magnitude.
    """
    a = Gamma / (2.0 * J)
    b = kappa / J
    t1 = (2.0 * np.cos(k) + 1j * a) * np.sin(k * N)
    t2 = b**2 * np.sin(k * (N - 1))
    scale = max(abs(t1), abs(t2), 1.0)
    return float(abs(t1 - t2) / scale)


def _into_strip(k: complex) -> complex:
    """Map a root into 0 < Re k < pi using 2*pi periodicity and k -> -k."""
    x = k.real % (2.0 * math.pi)
    y = k.imag
    if x > math.pi:
        x, y = 2.0 * math.pi - x, -y
    return complex(x, y)


def impurity_quasimomentum_roots(J: float, kappa: float, Gamma: float, N: int,
                                 tol: float = 1e-12) -> np.ndarray:
    """Complex quasi-momenta of the finite single-impurity chain.

    Solves ``(2 cos k + i a) sin(kN) = beta^2 sin(k(N-1))`` with
    ``a = Gamma/(2J)``, ``beta = kappa/J`` in the strip ``0 < Re k < pi``.
    Bulk roots are Newton-refined from the decoupled-chain momenta
    ``pi m / N``; the localized roots are seeded from the asymptotic quadratic
    ``(1 - beta^2) z^2 + i a z + 1 = 0`` with ``z = e^{ik}``.  Each eigenvalue
    of the chain is ``lambda = 2 i J cos(k) - Gamma / 2``.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    if J == 0:
        raise ValueError("J must be nonzero")
    a = Gamma / (2.0 * J)
    b = kappa / J

    if b == 0.0:
        bulk = np.array([math.pi * m / N for m in range(1, N)], dtype=complex)
        if a == 0.0:
            return bulk
        imp = _into_strip(np.arccos(-0.5j * a))
        return np.append(bulk, imp)

    seeds = [complex(math.pi * m / N, 0.0) for m in range(1, N)]
    if abs(1.0 - b**2) > 1e-14:
        zs = np.roots([1.0 - b**2, 1j * a, 1.0])
    else:
        zs = np.array([-1.0 / (1j * a)]) if a != 0 else np.array([])
    for z in zs:
        if abs(z) < 1e-14:
            continue
        seeds.append(_into_strip(-1j * np.log(z)))

    roots: list[complex] = []
    failures: list[complex] = []

    def refine(seed, strict):
        k = complex(seed)
        converged = False
        for _ in range(_NEWTON_MAX_ITER):
            f = _quasimomentum_equation(k, a, b, N)
            fp = _quasimomentum_derivative(k, a, b, N)
            if fp == 0:
                break
            step = f / fp
            k -= step
            if abs(step) < 1e-15 * max(1.0, abs(k)):
                converged = True
                break
        k = _into_strip(k)
        if not converged or quasimomentum_residual(k, J, kappa, Gamma, N) > tol:
            if strict:
                failures.append(seed)
            return
        if not (1e-12 < k.real < math.pi - 1e-12):
            return
        if all(abs(k - r) > 1e-9 for r in roots):
            roots.append(k)

    for seed in seeds:
        refine(seed, strict=True)
    if len(roots) < N and not failures:
        # strong-coupling regimes can merge Newton basins; reseed off-axis
        # and on the half-integer grid to pick up the stragglers
        for m in range(N):
            for off in (0.3j, -0.3j, 0.0):
                refine(complex(math.pi * (m + 0.5) / N, 0.0) + off, strict=False)
                if len(roots) >= N:
                    break
    if failures:
        raise RootFindingError(
            f"Newton failed for {len(failures)} seed(s) (first: {failures[0]!r}) "
            f"with N={N}, J={J}, kappa={kappa}, Gamma={Gamma}"
        )
    return np.array(sorted(roots, key=lambda r: (r.real, r.imag)))


def quasimomentum_eigenvalues(roots, J: float, Gamma: float) -> np.ndarray:
    """Generator eigenvalues lambda = 2iJ cos(k) - Gamma/2 for given roots."""
    k = np.asarray(roots, dtype=complex)
    return 2j * J * np.cos(k) - Gamma / 2.0


# ---------------------------------------------------------------------------
# Alternating-bond chain, odd length: exact dark state.
# ---------------------------------------------------------------------------

def ssh_odd_dark_state(N: int, J1: float, J2: float):
    """Exact zero mode of the odd alternating-bond chain.

    Supported on odd sites only with amplitude ratio ``-J1/J2`` per unit
    cell; normalization ``A^2 = (1 - x^2) / (x - x^{N+2})`` with
    ``x = |J1/J2|`` (limit ``2/(N+1)`` at x = 1).  Localized at the qubit for
    |J1| < |J2| and at the far end otherwise.  Returns the unit vector and
    A^2, after verifying it is a kernel vector of the chain Hamiltonian.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be odd and >= 3")
    if J2 == 0:
        raise ValueError("J2 must be nonzero")
    r = -J1 / J2
    v = np.zeros(N, dtype=complex)
    v[0::2] = r ** np.arange((N + 1) // 2)
    v /= np.linalg.norm(v)

    x = abs(J1 / J2)
    if abs(x - 1.0) < 1e-15:
        a2 = 2.0 / (N + 1)
    else:
        a2 = (1.0 - x**2) / (x - x ** (N + 2))

    H = netmodel.build_ssh_model(N, J1, J2, 1.0).matrix
    residual = np.linalg.norm(H @ v)
    if residual > 1e-12 * max(1.0, abs(J1), abs(J2)):
        raise RootFindingError(f"dark-state construction failed (residual {residual:.3e})")
    return v, float(a2)


def ssh_odd_asymptotic_coherence(N: int, J1: float, J2: float) -> float:
    """Long-time coherence plateau of the odd chain.

    ``J2^{N-1} (J2^2 - J1^2) / (J2^{N+1} - J1^{N+1})`` for |J1| != |J2| and
    ``2/(N+1)`` at the transition; equals the squared qubit amplitude of the
    dark state for any bond ratio.  Every power is even (N is odd), so the
    bond signs drop out.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be odd and >= 3")
    if abs(J1) == abs(J2):
        return 2.0 / (N + 1)
    return float(J2 ** (N - 1) * (J2**2 - J1**2) / (J2 ** (N + 1) - J1 ** (N + 1)))


# ---------------------------------------------------------------------------
# Alternating-bond chain, even length: quasi-dark edge mode.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SshEvenPrediction:
    """Edge-mode prediction for the even chain (exists for d > 1 + 2/N)."""

    N: int
    d: float
    threshold_ok: bool
    y: float | None = None
    lambda_plus: complex | None = None
    lambda_minus: complex | None = None
    tau_coh: float | None = None
    overlap: float | None = None
    e_y_first_order: float | None = None


def _solve_edge_momentum(N: int, x: float, d: float) -> float:
    """Bisection root of sinh(N y / 2) = x sinh((N/2 + 1) y) on (0, ln d].

    The bracket is monotone for d > 1 + 2/N: the residual rises linearly from
    zero and is analytically negative at y = ln d, where it equals
    -(1/2) d^{-N/2} (1 - d^{-2}) sinh-units.  Once d^{-N} drops below the
    floating-point resolution of the sinh terms the bracket end evaluates to
    rounding noise; the root is then ln d to machine precision and the
    first-order value (error O(N d^{-2N})) is returned directly.
    """
    g = lambda y: math.sinh(N * y / 2.0) - x * math.sinh((N / 2.0 + 1.0) * y)
    lo, hi = 1e-12, math.log(d)
    if d ** -N < 1e-14:
        return math.log(d + d ** -N * (1.0 / d - d))
    glo, ghi = g(lo), g(hi)
    if not (glo > 0 > ghi):
        raise RootFindingError(f"edge-momentum bracket failed for N={N}, d={d}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def ssh_even_prediction(N: int, J1: float, J2: float, Gamma: float) -> SshEvenPrediction:
    """Quasi-dark edge mode of the even chain: momentum, lifetime, qubit weight.

    ``y`` solves the finite-size edge-momentum equation by bisection.  The
    lifetime and eigenvalues use the first order in ``d^{-N}``: the decay rate
    of the protected mode is ``(J1^2 / Gamma) d^{-N} (d^{-1} - d)^2`` and
    ``tau_coh`` its inverse.  ``overlap`` is the qubit weight
    ``|<1|xi_+>|^2`` from the d^{-N} expansion

        (1 - x^2) + x^N (1 - x^2)^2 [(N + 1) - (1 - x^2) J1^2 / (x^2 Gamma^2)]

    which is the form the benchmark table reproduces.
    """
    if N < 4 or N % 2:
        raise ValueError("N must be even and >= 4")
    if J1 == 0 or Gamma <= 0:
        raise ValueError("J1 must be nonzero and Gamma positive")
    d = abs(J2 / J1)
    if d <= 1.0 + 2.0 / N:
        return SshEvenPrediction(N=N, d=d, threshold_ok=False)
    x = 1.0 / d

    y = _solve_edge_momentum(N, x, d)
    rate = (J1**2 / Gamma) * d ** (-N) * (1.0 / d - d) ** 2
    lam_plus = complex(-rate)
    lam_minus = complex(-Gamma + rate)
    tau_coh = 1.0 / rate

    expansion = (1.0 - x**2) + x**N * (1.0 - x**2) ** 2 * (
        (N + 1.0) - (1.0 - x**2) / x**2 * J1**2 / Gamma**2
    )

    return SshEvenPrediction(
        N=N,
        d=d,
        threshold_ok=True,
        y=y,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        tau_coh=tau_coh,
        overlap=float(expansion),
        e_y_first_order=d + d ** (-N) * (1.0 / d - d),
    )


# ---------------------------------------------------------------------------
# Dark-sector coherence and the benchmark table.
# ---------------------------------------------------------------------------

def dark_sector_prediction(sd, eps_dark: float, t):
    """|sum over quasi-dark modes of c_j exp(lambda_j t)| at time(s) t.

    One protected mode gives the plateau |c|; two give the two-frequency
    interference whose period is 2*pi over the dark frequency splitting.
    Returns 0 when no mode decays slower than eps_dark.
    """
    t_arr = np.asarray(t, dtype=float)
    dark = sd.decay_rates < eps_dark
    if not np.any(dark):
        return np.zeros(t_arr.shape) if t_arr.ndim else 0.0
    c = overlap_weights(sd, 1)[dark]
    lam = sd.eigenvalues[dark]
    vals = np.abs(np.exp(np.outer(np.atleast_1d(t_arr), lam)) @ c)
    return vals if t_arr.ndim else float(vals[0])


@dataclass(frozen=True)
class Table1Row:
    N: int
    tau_exact: float
    tau_theory: float
    overlap_exact: float
    overlap_theory: float


def table1(J1: float = 1.0, J2: float = 1.8, Gamma: float = 0.5,
           N_list=(6, 8, 10, 20)) -> list[Table1Row]:
    """Benchmark table: exact vs predicted lifetime and qubit weight, even chains.

    "Exact" comes from ``decompose``, which solves the ssh chain from one
    SVD of its coupling block: the lifetime is the inverse decay rate of the
    slowest mode and the weight is the squared qubit amplitude of its
    unit-normalized eigenvector.  The rate is resolved while it exceeds the
    SVD's rounding of the smallest singular value (to 3e-6 at N=80 for the
    default parameters, not from about N=120 on).  "Theory" uses
    ``ssh_even_prediction``.
    """
    rows = []
    for n in N_list:
        n = int(n)
        if n % 2:
            raise ValueError("benchmark table is defined for even N")
        sd = decompose(netmodel.build_ssh_model(n, J1, J2, Gamma))
        pred = ssh_even_prediction(n, J1, J2, Gamma)
        if not pred.threshold_ok:
            raise ValueError(f"no edge mode predicted at N={n}; table undefined")
        rows.append(
            Table1Row(
                N=n,
                tau_exact=1.0 / float(sd.decay_rates[0]),
                tau_theory=pred.tau_coh,
                overlap_exact=site_overlap(sd, 0, 1),
                overlap_theory=pred.overlap,
            )
        )
    return rows
