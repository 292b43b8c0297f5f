"""Independent references for the benchmark's correctness checks.

Nothing here imports ``nhtop``.  The chain builders follow the README's
conventions; SplitMix64 and the per-realization seeding follow the spec in
the ``nhtop.disorder`` docstring; mode weights come from ``numpy.linalg.eig``
plus one linear solve; the closed forms are the published expressions,
evaluated here directly.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

#: First SplitMix64 outputs for state 0, as published with the generator.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


# ---------------------------------------------------------------------------
# Chain builders.  The general network convention puts -i*Gamma/2 on a lossy
# diagonal (impurity chain); the ssh and three-site families write -i*Gamma
# directly.
# ---------------------------------------------------------------------------

def impurity_matrix(N, J, kappa, Gamma):
    h = np.zeros((N, N), dtype=complex)
    h[0, 1] = h[1, 0] = kappa
    for j in range(1, N):
        h[j, j] = -0.5j * Gamma
        if j + 1 < N:
            h[j, j + 1] = h[j + 1, j] = J
    return h


def ssh_matrix(N, J1, J2, Gamma):
    h = np.zeros((N, N), dtype=complex)
    for s in range(N - 1):  # 0-based bond s joins sites s+1 and s+2
        h[s, s + 1] = h[s + 1, s] = J1 if s % 2 == 0 else J2
    h[np.arange(1, N, 2), np.arange(1, N, 2)] = -1j * Gamma
    return h


def three_site_matrix(N, J1, J2, J3, J, eps1, eps2, Gamma):
    h = np.zeros((N, N), dtype=complex)
    onsite = (eps1, eps2, -1j * Gamma)
    for s in range(N):
        h[s, s] = onsite[s % 3]
    bonds = []
    for cell_start in range(0, N, 3):
        a, b, c, nxt = cell_start, cell_start + 1, cell_start + 2, cell_start + 3
        bonds += [(a, b, J1), (b, c, J2), (a, c, J), (c, nxt, J3)]
    for i, j, amp in bonds:
        if j < N:
            h[i, j] = h[j, i] = amp
    return h


def chain_matrix(model, N, params):
    p = params
    if model == "impurity":
        return impurity_matrix(N, p["J"], p["kappa"], p["Gamma"])
    if model == "ssh":
        return ssh_matrix(N, p["J1"], p["J2"], p["Gamma"])
    if model == "three-site":
        return three_site_matrix(N, p["J1"], p["J2"], p["J3"], p["J"],
                                 p["eps1"], p["eps2"], p["Gamma"])
    raise ValueError(f"no reference builder for {model!r}")


# ---------------------------------------------------------------------------
# SplitMix64 detunings.
# ---------------------------------------------------------------------------

def splitmix64(state, count):
    """``count`` SplitMix64 outputs starting from ``state``."""
    out = []
    for _ in range(count):
        state = (state + GOLDEN) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def detunings(base_seed, r, n, mu):
    """Realization r: state ``base_seed + (r+1)*GOLDEN``; top 53 bits to [-mu, mu)."""
    words = splitmix64((base_seed + (r + 1) * GOLDEN) & MASK64, n)
    u = np.array([w >> 11 for w in words], dtype=float) * 2.0**-53
    return mu * (2.0 * u - 1.0)


def check_splitmix64():
    got = tuple(splitmix64(0, len(SPLITMIX64_SEED0)))
    if got != SPLITMIX64_SEED0:
        raise AssertionError(f"reference SplitMix64 is wrong: {[hex(g) for g in got]}")


# ---------------------------------------------------------------------------
# Spectral reference.
# ---------------------------------------------------------------------------

def modes(h):
    """Eigenvalues of L = -iH and the qubit-site weights c_j.

    ``e_1 = sum_j a_j r_j`` gives ``a = V^{-1} e_1``, and ``c_j = V[0, j] a_j``.
    """
    lam, v = np.linalg.eig(-1j * np.asarray(h))
    e1 = np.zeros(v.shape[0], dtype=complex)
    e1[0] = 1.0
    return lam, v[0, :] * np.linalg.solve(v, e1)


def coherence(lam, c, times):
    return np.abs(np.exp(np.outer(np.asarray(times, dtype=float), lam)) @ c)


def log_grid(t_max, n_points=400, t_min=1e-2):
    return np.geomspace(t_min, t_max, n_points)


def max_eigenvalue_distance(got, want):
    """Largest distance from an eigenvalue in one set to the nearest in the other."""
    d = np.abs(np.asarray(got)[:, None] - np.asarray(want)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------

def ssh_winding(J1, J2):
    return 1 if abs(J2) > abs(J1) else 0


def three_site_winding(J2, J3, J):
    """W at eps1 == eps2: thresholds |J + J2| and |J - J2| on |J3|."""
    return int(abs(J3) > abs(J + J2)) + int(abs(J3) > abs(J - J2))


def ssh_odd_plateau(N, J1, J2):
    if J1 == J2:
        return 2.0 / (N + 1)
    return J2 ** (N - 1) * (J2**2 - J1**2) / (J2 ** (N + 1) - J1 ** (N + 1))


def ssh_even_rate(N, J1, J2, Gamma):
    """First-order decay rate of the even chain's edge mode, (J1^2/Gamma) d^-N (1/d - d)^2."""
    d = abs(J2 / J1)
    return (J1**2 / Gamma) * d ** (-N) * (1.0 / d - d) ** 2
