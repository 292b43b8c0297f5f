"""Shared fixtures: random network generation, the Pade reference and the
acceptance report."""

import numpy as np
import pytest

from nhtop import netmodel, spectral
from nhtop.errors import NumericError

_ACCEPTANCE: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def record_criterion():
    """Collect one pass/fail line per acceptance criterion for the summary."""

    def _record(number: int, name: str, ok: bool, detail: str = ""):
        _ACCEPTANCE.append((number, name, bool(ok), detail))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, name, ok, detail in sorted(_ACCEPTANCE):
        status = "PASS" if ok else "FAIL"
        line = f"criterion {number:2d}  {name:<38s} {status}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


def random_network(rng: np.random.Generator, max_sites: int = 6) -> netmodel.NetworkSpec:
    """A valid random network: site 1 is the qubit, no qubit-qubit edges."""
    n = int(rng.integers(2, max_sites + 1))
    sites = [netmodel.SiteSpec(netmodel.QUBIT, float(rng.uniform(-1, 1)))]
    for _ in range(n - 1):
        if rng.random() < 0.25:
            sites.append(netmodel.SiteSpec(netmodel.QUBIT, float(rng.uniform(-1, 1))))
        else:
            sites.append(
                netmodel.SiteSpec(
                    netmodel.CAVITY, float(rng.uniform(-1, 1)), float(rng.uniform(0, 5))
                )
            )
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if sites[i - 1].kind == netmodel.QUBIT and sites[j - 1].kind == netmodel.QUBIT:
                continue
            if j == i + 1 or rng.random() < 0.3:  # keep chains connected, sprinkle extras
                edges.append((i, j, float(rng.uniform(-2, 2))))
    return netmodel.NetworkSpec(tuple(sites), tuple(edges))


def star_network(couplings, loss: float = 1.0, detuning: float = 0.0) -> netmodel.NetworkSpec:
    """Qubit at the centre of identical lossy leaves, coupled by ``couplings``.

    The qubit couples only to the leaf combination along ``couplings``, so the
    other ``len(couplings) - 1`` combinations share one eigenvalue of L,
    ``-i * detuning - loss / 2``.
    """
    sites = (netmodel.SiteSpec(netmodel.QUBIT, 0.0),)
    sites += (netmodel.SiteSpec(netmodel.CAVITY, detuning, loss),) * len(couplings)
    edges = tuple((1, j + 2, g) for j, g in enumerate(couplings))
    return netmodel.NetworkSpec(sites, edges)


def expm_oracle(H: netmodel.EffectiveHamiltonian, t: float) -> np.ndarray:
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


def fitted_decay_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares rate of ``C(t) ~ exp(-rate t)`` through the samples above
    1e-300, by the library's one log-linear fit."""
    mask = values > 1e-300
    return -float(spectral._fit_log_linear(times[mask], values[mask])[0])
