"""Effective non-Hermitian generators for qubit/cavity networks.

A network of long-lived qubits coupled to leaky cavities, restricted to the
single-excitation coherence sector, evolves under ``L = -i H`` where ``H`` is
a dense complex matrix: real symmetric hoppings and detunings on the
Hermitian side, ``-i * Gamma_j / 2`` loss terms on the diagonal.  This module
builds ``H`` for arbitrary networks and for the three canonical chain
geometries (single impurity, alternating-bond chain, three-site unit cell),
and also constructs the full ``(N+1)^2``-dimensional superoperator that the
reduction is cross-checked against.

Convention used everywhere downstream: reported eigenvalues are those of the
generator ``L = -i H``, so a mode's decay rate is ``-Re(lambda)``.  Energies
and rates are quoted in units of the first hopping amplitude.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import SpecificationError

QUBIT = "qubit"
CAVITY = "cavity"

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class SiteSpec:
    """One network site: a qubit (lossless) or a cavity mode (loss_rate >= 0)."""

    kind: str
    detuning: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in (QUBIT, CAVITY):
            raise SpecificationError(f"unknown site kind {self.kind!r}")
        if not np.isfinite(self.detuning):
            raise SpecificationError("site detuning must be finite")
        if not np.isfinite(self.loss_rate) or self.loss_rate < 0:
            raise SpecificationError("loss_rate must be finite and >= 0")
        if self.kind == QUBIT and self.loss_rate != 0:
            raise SpecificationError("qubit sites are lossless (loss_rate must be 0)")


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative network description.

    ``sites`` are ordered, 1-based in all user-facing indexing; site 1 is the
    monitored (fiducial) qubit.  ``edges`` are ``(i, j, amplitude)`` hopping
    terms between distinct sites.  Qubit-qubit hopping is not representable
    in this model family and is rejected.
    """

    sites: tuple[SiteSpec, ...]
    edges: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "edges", tuple((int(i), int(j), float(a)) for i, j, a in self.edges))
        n = len(self.sites)
        if n < 1:
            raise SpecificationError("network needs at least one site")
        if self.sites[0].kind != QUBIT:
            raise SpecificationError("site 1 must be the fiducial qubit")
        seen = set()
        for i, j, amp in self.edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise SpecificationError(f"edge ({i},{j}) references an invalid site index")
            if i == j:
                raise SpecificationError(f"edge ({i},{j}) connects a site to itself")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise SpecificationError(f"duplicate edge between sites {key}")
            seen.add(key)
            if self.sites[i - 1].kind == QUBIT and self.sites[j - 1].kind == QUBIT:
                raise SpecificationError(f"edge ({i},{j}) couples two qubits")
            if not np.isfinite(amp):
                raise SpecificationError("edge amplitude must be finite")

    @property
    def size(self) -> int:
        return len(self.sites)


def _frozen(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Dense complex N x N matrix H, stored as ``(m + m.T) / 2`` once validated
    (so ``H == H.T`` exactly); the coherence-sector generator is -iH."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpecificationError("matrix must be square")
        scale = float(np.max(np.abs(m)))
        if not np.isfinite(scale):
            raise SpecificationError("matrix entries must be finite")
        tol = _HERM_TOL * max(1.0, scale)
        # on the real views: (m + m^dag)/2 has imaginary part (im - im.T)/2, and
        # (m - m^dag)/2 has entries ((re - re.T) + i (im + im.T))/2
        re, im = m.real, m.imag
        re_asym, im_asym = re - re.T, im - im.T
        if np.max(np.abs(im_asym)) / 2 > tol:
            raise SpecificationError("Hermitian part must be real symmetric")
        anti = np.hypot(re_asym, im + im.T)
        np.fill_diagonal(anti, 0.0)
        if np.max(anti) / 2 > tol:
            raise SpecificationError("anti-Hermitian part must be diagonal")
        if np.max(np.diagonal(im)) > tol:
            raise SpecificationError("on-site loss terms must have non-positive imaginary part")
        if re_asym.any() or im_asym.any():  # else (m + m.T) / 2 is m itself: no copy
            m = _frozen((m + m.T) / 2)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def generator(self) -> np.ndarray:
        """The coherence-sector generator L = -iH."""
        return -1j * self.matrix

    @property
    def hermitian_part(self) -> np.ndarray:
        return np.real((self.matrix + self.matrix.conj().T) / 2)

    @property
    def loss_rates(self) -> np.ndarray:
        """Per-site loss rates in the Gamma/2 diagonal convention (-2 Im diag)."""
        return -2.0 * np.imag(np.diag(self.matrix))


def build_effective_hamiltonian(spec: NetworkSpec) -> EffectiveHamiltonian:
    """Assemble H from a network description.

    Parameters
    ----------
    spec : NetworkSpec
        Validated network description.

    Returns
    -------
    EffectiveHamiltonian
        ``H[i, i] = detuning_i - i * loss_rate_i / 2`` and ``H[i, j]`` equal to
        the edge amplitude, placed symmetrically.  All other entries zero.
    """
    n = spec.size
    h = np.zeros((n, n), dtype=complex)
    for idx, site in enumerate(spec.sites):
        h[idx, idx] = site.detuning - 0.5j * site.loss_rate
    for i, j, amp in spec.edges:
        h[i - 1, j - 1] = amp
        h[j - 1, i - 1] = amp
    return EffectiveHamiltonian(h)


def build_impurity_model(N: int, J: float, kappa: float, Gamma: float) -> EffectiveHamiltonian:
    """Qubit side-coupled to a uniform lossy chain (single-impurity geometry).

    Site 1 is the qubit in its rotating frame (zero diagonal), coupled with
    amplitude ``kappa`` to the first cavity; cavities hop with ``J`` and each
    carries ``-i Gamma / 2``.
    """
    return build_effective_hamiltonian(impurity_network(N, J, kappa, Gamma))


def build_ssh_model(N: int, J1: float, J2: float, Gamma: float) -> EffectiveHamiltonian:
    """Alternating-bond chain with loss on even sites only.

    Bonds alternate J1, J2, J1, ... starting from the qubit; every even site
    carries ``-i Gamma`` on the diagonal.  Note the full ``Gamma`` here (not
    ``Gamma/2``): this model family is defined with the loss entry written
    directly, and that convention is kept verbatim.
    """
    return build_effective_hamiltonian(ssh_network(N, J1, J2, Gamma))


def build_three_site_model(
    N: int,
    J1: float,
    J2: float,
    J3: float,
    J: float,
    eps1: float,
    eps2: float,
    Gamma: float,
) -> EffectiveHamiltonian:
    """Open chain with a three-site unit cell and one leaky site per cell.

    Within cell ``x`` (sites ``3x+1, 3x+2, 3x+3`` 1-based): hopping ``J1``
    between positions 1-2, ``J2`` between 2-3, next-nearest ``J`` between 1-3,
    and ``J3`` from position 3 to position 1 of the next cell.  On-site terms
    are ``eps1``, ``eps2`` and ``-i Gamma`` on the third position.  Partial
    final cells simply drop the bonds that would leave the chain.
    """
    return build_effective_hamiltonian(three_site_network(N, J1, J2, J3, J, eps1, eps2, Gamma))


def apply_detuning_disorder(H: EffectiveHamiltonian, mu_values: Sequence[float]) -> EffectiveHamiltonian:
    """Add real on-site detunings; the anti-Hermitian (loss) part is untouched."""
    mu = np.asarray(mu_values, dtype=float)
    if mu.shape != (H.dim,):
        raise SpecificationError(f"expected {H.dim} detunings, got shape {mu.shape}")
    return EffectiveHamiltonian(H.matrix + np.diag(mu))


# ---------------------------------------------------------------------------
# Full superoperator on the (N+1)^2-dimensional single-excitation sector.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Superoperator:
    """Dense generator on the space spanned by |0><0|, |0><j|, |j><0|, |i><j|.

    Basis order: index 0 is |0><0|; indices 1..N are |0><j| (the coherence
    sector, whose block is exactly -iH); indices N+1..2N are |j><0|; the
    remaining N^2 indices are |i><j| in row-major order.
    """

    matrix: np.ndarray
    n_sites: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        d = (self.n_sites + 1) ** 2
        if self.matrix.shape != (d, d):
            raise SpecificationError("superoperator has wrong dimension")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def index_01(self, j: int) -> int:
        """Index of |0><j|, 1-based j."""
        return j


def superoperator_from_hamiltonian(H: EffectiveHamiltonian) -> Superoperator:
    """Lift an effective H to the full single-excitation superoperator.

    The unitary part conserves excitation number, so the generator is block
    diagonal over (|0><0|, coherences, conjugate coherences, populations),
    except for the loss feed |j><j| -> |0><0|.  The coherence block is taken
    as -iH verbatim; the conjugate block and the population block follow by
    conjugation, which keeps the whole map trace preserving.
    """
    n = H.dim
    h0 = H.hermitian_part
    gammas = H.loss_rates
    d = (n + 1) ** 2
    L = np.zeros((d, d), dtype=complex)

    sl01 = slice(1, n + 1)
    sl10 = slice(n + 1, 2 * n + 1)
    sl11 = slice(2 * n + 1, d)

    # coherence sector: exactly the reduced generator
    L[sl01, sl01] = -1j * H.matrix
    L[sl10, sl10] = np.conj(-1j * H.matrix)

    # populations |i><j|, row-major: coherent part i(h x 1 - 1 x h^T),
    # lossy decay -(Gamma_i + Gamma_j)/2 on the diagonal
    eye = np.eye(n)
    k11 = 1j * (np.kron(h0, eye) - np.kron(eye, h0.T))
    decay = -0.5 * (gammas[:, None] + gammas[None, :]).ravel()
    L[sl11, sl11] = k11 + np.diag(decay)

    # refilling of the vacuum: D(|i><i|) has a Gamma_i |0><0| component
    for i in range(n):
        L[0, 2 * n + 1 + i * n + i] = gammas[i]

    return Superoperator(L, n)


# ---------------------------------------------------------------------------
# The canonical chains.  Each *_network function is the one statement of its
# chain's sites, bonds and loss convention; every builder assembles H from it.
# ---------------------------------------------------------------------------

def impurity_network(N: int, J: float, kappa: float, Gamma: float) -> NetworkSpec:
    # every cavity carries -i*Gamma/2: loss rate Gamma in the general convention
    if N < 2:
        raise SpecificationError("impurity model needs N >= 2 sites")
    sites = [SiteSpec(QUBIT)] + [SiteSpec(CAVITY, 0.0, Gamma) for _ in range(N - 1)]
    edges = [(1, 2, kappa)] + [(j, j + 1, J) for j in range(2, N)]
    return NetworkSpec(tuple(sites), tuple(edges))


def ssh_network(N: int, J1: float, J2: float, Gamma: float) -> NetworkSpec:
    # even sites carry -i*Gamma, i.e. loss rate 2*Gamma in the Gamma/2 convention
    if N < 2:
        raise SpecificationError("chain needs N >= 2 sites")
    sites = [SiteSpec(QUBIT)]
    for s in range(2, N + 1):
        sites.append(SiteSpec(CAVITY, 0.0, 2.0 * Gamma if s % 2 == 0 else 0.0))
    edges = [(i, i + 1, J1 if i % 2 == 1 else J2) for i in range(1, N)]
    return NetworkSpec(tuple(sites), tuple(edges))


def three_site_network(
    N: int, J1: float, J2: float, J3: float, J: float, eps1: float, eps2: float, Gamma: float
) -> NetworkSpec:
    # the third site of each cell carries -i*Gamma, i.e. loss rate 2*Gamma
    if N < 3:
        raise SpecificationError("three-site chain needs N >= 3 sites")
    # bonds leaving each cell position, as (site offset, amplitude)
    bonds = (((1, J1), (2, J)), ((1, J2),), ((1, J3),))
    sites, edges = [], []
    for s in range(1, N + 1):
        p = (s - 1) % 3
        sites.append(SiteSpec(QUBIT if s == 1 else CAVITY, (eps1, eps2, 0.0)[p],
                              2.0 * Gamma if p == 2 else 0.0))
        edges += [(s, s + d, amp) for d, amp in bonds[p] if s + d <= N]
    return NetworkSpec(tuple(sites), tuple(edges))


MODEL_NAMES = ("impurity", "ssh", "three-site", "custom")

#: parameter names of each canonical chain, in the order of its *_network arguments
_PARAM_KEYS = {
    "impurity": ("J", "kappa", "Gamma"),
    "ssh": ("J1", "J2", "Gamma"),
    "three-site": ("J1", "J2", "J3", "J", "eps1", "eps2", "Gamma"),
}
_NETWORKS = {"impurity": impurity_network, "ssh": ssh_network, "three-site": three_site_network}


def model_params(model: str, params: Mapping[str, float]) -> dict[str, float]:
    """A canonical model's parameters as floats; unknown or missing names are rejected."""
    if model not in _PARAM_KEYS:
        raise SpecificationError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    keys = _PARAM_KEYS[model]
    unknown = set(params) - set(keys)
    if unknown:
        raise SpecificationError(f"unknown parameters for {model}: {sorted(unknown)}")
    missing = set(keys) - set(params)
    if missing:
        raise SpecificationError(f"missing parameters for {model}: {sorted(missing)}")
    return {k: float(params[k]) for k in keys}


def build_model(model: str, N: int, params: Mapping[str, float]) -> EffectiveHamiltonian:
    """Dispatch to a canonical builder by model name, validating parameter keys."""
    return build_effective_hamiltonian(network_for_model(model, N, model_params(model, params)))


def network_for_model(model: str, N: int, params: Mapping[str, float]) -> NetworkSpec:
    """NetworkSpec of a canonical model (the form ``build_model`` assembles H from)."""
    if model not in _NETWORKS:
        raise SpecificationError(f"no network form for model {model!r}")
    return _NETWORKS[model](N, *(params[k] for k in _PARAM_KEYS[model]))


def _is_number(value, integer: bool = False) -> bool:
    """A real number (an integer if asked); booleans are not numbers."""
    return not isinstance(value, bool) and isinstance(
        value, numbers.Integral if integer else numbers.Real)


def check_config(data: object) -> Mapping[str, object]:
    """Check the shape of a JSON network config and return it unchanged.

    Schema: ``{"model": "custom"|"impurity"|"ssh"|"three-site", "N": int,
    "params": {name: number}, "custom": {"sites": [{"kind", "detuning",
    "gamma"}], "edges": [{"i", "j", "J"}]}}`` with 1-based site indices.  The
    top-level keys are optional here, but each site needs ``kind`` and each
    edge all three keys; missing or unknown keys anywhere and values of the
    wrong type raise ``SpecificationError``.  Parameter names are checked by
    ``model_params``, and the ranges of site and edge values by ``SiteSpec``
    and ``NetworkSpec``.
    """
    if not isinstance(data, Mapping):
        raise SpecificationError("network config must be a JSON object")
    unknown = set(data) - {"model", "N", "params", "custom"}
    if unknown:
        raise SpecificationError(f"unknown config keys: {sorted(unknown)}")
    if "model" in data and data["model"] not in MODEL_NAMES:
        raise SpecificationError(f"config 'model' must be one of {MODEL_NAMES}")
    if "N" in data and not _is_number(data["N"], integer=True):
        raise SpecificationError(f"config 'N' must be an integer, got {data['N']!r}")
    params = data.get("params", {})
    if not isinstance(params, Mapping) or not all(_is_number(v) for v in params.values()):
        raise SpecificationError("config 'params' must be an object of numbers")
    if data.get("model") != "custom" and "custom" not in data:
        return data
    custom = data.get("custom")
    if not isinstance(custom, Mapping) or set(custom) - {"sites", "edges"}:
        raise SpecificationError("custom config needs 'sites' and optionally 'edges'")
    for what, required, keys in (("site", ("kind",), {"kind", "detuning", "gamma"}),
                                 ("edge", ("i", "j", "J"), {"i", "j", "J"})):
        entries = custom.get(what + "s", [])
        if not isinstance(entries, list) or not all(isinstance(e, Mapping) for e in entries):
            raise SpecificationError(f"custom '{what}s' must be a list of objects")
        for number, entry in enumerate(entries, 1):
            if set(entry) - keys:
                raise SpecificationError(f"unknown {what} keys: {sorted(set(entry) - keys)}")
            for key in required:
                if key not in entry:
                    raise SpecificationError(f"custom {what} {number} lacks {key!r}")
            if not all(_is_number(v, k in ("i", "j")) for k, v in entry.items() if k != "kind"):
                raise SpecificationError(f"custom {what} values must be numbers, "
                                         f"site indices integers: {dict(entry)}")
    return data


def parse_network_json(data: Mapping[str, object]) -> EffectiveHamiltonian:
    """Build H from a JSON network config (schema in ``check_config``).

    ``model`` is required, and so is ``N`` for a canonical model.
    """
    check_config(data)
    model = data.get("model")
    if model is None:
        raise SpecificationError(f"config 'model' must be one of {MODEL_NAMES}")
    if model != "custom":
        if "N" not in data:
            raise SpecificationError(f"model {model!r} requires 'N'")
        return build_model(model, data["N"], data.get("params", {}))
    custom = data["custom"]
    sites = [SiteSpec(e["kind"], float(e.get("detuning", 0.0)), float(e.get("gamma", 0.0)))
             for e in custom.get("sites", [])]
    edges = [(e["i"], e["j"], e["J"]) for e in custom.get("edges", [])]
    return build_effective_hamiltonian(NetworkSpec(tuple(sites), tuple(edges)))
