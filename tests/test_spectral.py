import contextlib
from unittest import mock

import numpy as np
import pytest

from nhtop import dynamics, netmodel, spectral
from nhtop.analytics import impurity_prediction, ssh_odd_asymptotic_coherence
from conftest import random_network, star_network


def test_diagonal_matrix():
    H = netmodel.EffectiveHamiltonian(np.diag([0.5, -0.3 - 1j, 1.0 - 2j]))
    sd = spectral.decompose(H)
    want = np.sort_complex(-1j * np.array([0.5, -0.3 - 1j, 1.0 - 2j]))
    assert np.allclose(np.sort_complex(sd.eigenvalues), want, atol=1e-14)
    for j in range(3):
        v = np.abs(sd.right_vectors[:, j])
        assert np.max(v) == pytest.approx(1.0)
        assert np.count_nonzero(v > 1e-12) == 1


def test_ssh_odd_exact_dark_state():
    sd = spectral.decompose(netmodel.build_ssh_model(3, 1.0, 1.8, 0.5))
    assert np.sum(np.abs(sd.eigenvalues.real) < 1e-12) == 1


def test_impurity_slowest_mode_matches_closed_form():
    sd = spectral.decompose(netmodel.build_impurity_model(400, 1.0, 0.5, 4.0))
    pred = impurity_prediction(1.0, 0.5, 4.0)
    assert abs(sd.eigenvalues[0] - pred.lambda_plus) < 1e-6   # slowest first


def _left_vectors(sd):
    """Left eigenvectors ``l_j = conj(r_j) / conj(r_j^T r_j)``, as columns."""
    return np.conj(sd.right_vectors) / np.conj(sd.c_norms)


@pytest.mark.parametrize("builder,args", [
    (netmodel.build_impurity_model, (12, 1.0, 0.5, 4.0)),
    (netmodel.build_ssh_model, (11, 1.0, 1.8, 0.5)),
    (netmodel.build_ssh_model, (10, 1.0, 0.5, 0.5)),
    (netmodel.build_three_site_model, (9, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)),
])
def test_biorthogonality_and_completeness(builder, args):
    H = builder(*args)
    sd = spectral.decompose(H)
    left = _left_vectors(sd)
    gram = left.conj().T @ sd.right_vectors
    assert np.max(np.abs(gram - np.eye(H.dim))) < 1e-10
    ident = sd.right_vectors @ left.conj().T
    assert np.max(np.abs(ident - np.eye(H.dim))) < 1e-8
    # spectral reconstruction of the generator itself
    rebuilt = (sd.right_vectors * sd.eigenvalues[None, :]) @ left.conj().T
    assert np.max(np.abs(rebuilt - H.generator)) < 1e-8 * np.linalg.norm(H.generator)


def _assert_modes_sorted(sd):
    """Decay rates non-decreasing, equal rates ordered by Im(lambda)."""
    rate, im = sd.decay_rates, sd.eigenvalues.imag
    assert np.all(np.diff(rate) >= 0)
    tied = np.diff(rate) == 0
    assert np.all(np.diff(im)[tied] >= 0)


def test_modes_sorted_by_decay_rate_then_frequency():
    rng = np.random.default_rng(11)
    for _ in range(20):
        _assert_modes_sorted(spectral.decompose(
            netmodel.build_effective_hamiltonian(random_network(rng))))
    # equal loss everywhere: three exactly tied rates
    H = netmodel.EffectiveHamiltonian(np.diag([0.5, -0.3, 0.2]) - 0.5j * np.eye(3))
    sd = spectral.decompose(H)
    _assert_modes_sorted(sd)
    assert np.array_equal(sd.eigenvalues.imag, [-0.5, -0.2, 0.3])


class TestOverlapWeights:
    def test_weights_sum_to_one_at_every_site(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            H = netmodel.build_effective_hamiltonian(random_network(rng))
            sd = spectral.decompose(H)
            if not sd.condition <= 1e10:  # near an exceptional point, or at one
                continue
            for site in range(1, H.dim + 1):
                assert abs(np.sum(spectral.overlap_weights(sd, site)) - 1) < 1e-8

    def test_decoupled_qubit_carries_unit_weight(self):
        sd = spectral.decompose(netmodel.build_impurity_model(5, 1.0, 0.0, 4.0))
        c = spectral.overlap_weights(sd, 1)
        i = np.argmin(sd.decay_rates)
        assert abs(c[i] - 1) < 1e-12
        assert np.max(np.abs(np.delete(c, i))) < 1e-12

    def test_ssh_odd_dark_weight_closed_form(self):
        # (1 - x^2)/(1 - x^4) with x = J1/J2, frozen at 0.7641509433962265
        sd = spectral.decompose(netmodel.build_ssh_model(3, 1.0, 1.8, 0.5))
        c = spectral.overlap_weights(sd, 1)
        dark = np.argmin(sd.decay_rates)
        x = 1 / 1.8
        assert abs(c[dark]) == pytest.approx((1 - x**2) / (1 - x**4), abs=1e-12)
        assert abs(c[dark]) == pytest.approx(0.7641509433962265, abs=1e-12)

    def test_ssh_even_quasi_dark_weight(self):
        sd = spectral.decompose(netmodel.build_ssh_model(20, 1.0, 1.8, 0.5))
        c = spectral.overlap_weights(sd, 1)
        assert abs(c[np.argmin(sd.decay_rates)]) == pytest.approx(0.6914, abs=1e-3)

    def test_out_of_range_site(self):
        sd = spectral.decompose(netmodel.build_ssh_model(3, 1.0, 1.8, 0.5))
        with pytest.raises(IndexError):
            spectral.overlap_weights(sd, 4)

    @pytest.mark.parametrize("site", [0, 4])
    def test_site_overlap_out_of_range_site(self, site):
        sd = spectral.decompose(netmodel.build_ssh_model(3, 1.0, 1.8, 0.5))
        with pytest.raises(IndexError):
            spectral.site_overlap(sd, 0, site)


class TestQuasiDarkModes:
    def test_three_site_pair(self):
        sd = spectral.decompose(
            netmodel.build_three_site_model(5, 1.4, 0.3, 3.0, 0.7, 0.0, 0.0, 1.5)
        )
        modes = spectral.find_quasi_dark_modes(sd, 1e-10)
        assert len(modes) == 2
        assert modes[0].decay_rate <= modes[1].decay_rate

    def test_ssh_even_threshold_sensitivity(self):
        sd = spectral.decompose(netmodel.build_ssh_model(8, 1.0, 1.8, 0.5))
        assert spectral.find_quasi_dark_modes(sd, 0.01) == []
        modes = spectral.find_quasi_dark_modes(sd, 0.05)
        assert len(modes) == 1
        assert modes[0].decay_rate == pytest.approx(1 / 31.8117, rel=1e-3)

    def test_trivial_phase_has_no_quasi_darks(self):
        sd = spectral.decompose(netmodel.build_ssh_model(8, 1.0, 0.5, 0.5))
        assert spectral.find_quasi_dark_modes(sd, 1e-3) == []

    def test_eps_must_be_positive(self):
        sd = spectral.decompose(netmodel.build_ssh_model(4, 1.0, 1.8, 0.5))
        with pytest.raises(ValueError):
            spectral.find_quasi_dark_modes(sd, 0.0)


class TestLocalizationProfile:
    def test_ssh_odd_dark_state_profile(self):
        from nhtop.analytics import ssh_odd_dark_state

        v, _ = ssh_odd_dark_state(9, 1.0, 1.8)
        prof = spectral.localization_profile(v)
        assert prof.site == 1
        assert prof.length == pytest.approx(1 / np.log(1.8), rel=1e-9)
        assert not prof.delocalized

    def test_trivial_phase_localizes_at_far_end(self):
        from nhtop.analytics import ssh_odd_dark_state

        v, _ = ssh_odd_dark_state(9, 1.0, 0.5)
        assert spectral.localization_profile(v).site == 9

    def test_basis_vector_is_flagged(self):
        e5 = np.zeros(9)
        e5[4] = 1.0
        prof = spectral.localization_profile(e5)
        assert prof.site == 5
        assert prof.delocalized

    def test_flat_profile_is_delocalized(self):
        prof = spectral.localization_profile(np.ones(6))
        assert prof.r_squared == 0.0
        assert prof.delocalized

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            spectral.localization_profile(np.zeros(4))

    def test_sublattice_fit_ignores_small_even_components(self):
        # quasi-dark even-chain mode: weight on both sublattices, fit on one
        sd = spectral.decompose(netmodel.build_ssh_model(12, 1.0, 1.8, 0.5))
        prof = spectral.localization_profile(sd.right_vectors[:, np.argmin(sd.decay_rates)])
        assert prof.site == 1
        assert not prof.delocalized
        # far-end hybridization bends the tail, so only the scale is pinned
        assert prof.length == pytest.approx(1 / np.log(1.8), rel=0.15)


def test_localized_at_qubit_counts_match_winding():
    for J3, w in ((0.2, 0), (0.7, 1), (2.0, 2)):
        sd = spectral.decompose(
            netmodel.build_three_site_model(8, 1.0, 0.3, J3, 0.7, 0.0, 0.0, 0.5)
        )
        modes = spectral.find_quasi_dark_modes(sd, 1e-10)
        assert len(modes) == 2
        n_loc = sum(1 for m in modes if spectral.is_localized_at_qubit(m, cell_size=3))
        assert n_loc == w


from hypothesis import assume, example, given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3),            # sublattice stride
    st.integers(4, 12),           # support points
    st.floats(0.3, 3.0),          # decay length in sites
    st.booleans(),                # left- or right-localized
)
def test_localization_fit_recovers_synthetic_profiles(stride, npts, length, left):
    n = stride * npts + 1
    v = np.zeros(n)
    idx = np.arange(0, stride * npts, stride)
    amp = np.exp(-idx / (2 * length))        # |v|^2 falls as exp(-site/length)
    v[idx if left else n - 1 - idx] = amp
    prof = spectral.localization_profile(v)
    assert prof.site == (1 if left else n)
    assert not prof.delocalized
    assert prof.length == pytest.approx(length, rel=1e-6)


def reference_profile(v, support_floor=1e-14):
    """One column's localization fit the way it was computed before the batched
    ``spectral._localization``: one ``np.polyfit`` per stride.  Returns
    ``(site, length, r_squared, flat)``, ``flat`` when no fit or only a flat
    one (under the same rounding rule) decides the length."""
    p = np.abs(v) ** 2
    site0 = int(np.argmax(p))
    support = np.flatnonzero(p > support_floor * p.max())
    eps = np.finfo(float).eps
    best = None
    for stride in (1, 2, 3):
        idx = support[(support - site0) % stride == 0]
        if idx.size < 2:
            continue
        y = np.log(p[idx])
        slope, intercept = np.polyfit(idx, y, 1)
        sstot = np.sum((y - y.mean()) ** 2)
        flat = sstot <= idx.size * eps * (1.0 + np.max(np.abs(y))) ** 2
        if flat:
            r2, slope = 0.0, 0.0
        else:
            r2 = 1.0 - np.sum((y - (slope * idx + intercept)) ** 2) / sstot
        if best is None or r2 > best[0] + 1e-9:
            best = (r2, slope, flat)
    if best is None:
        return site0 + 1, np.inf, 0.0, True
    r2, slope, flat = best
    return site0 + 1, (np.inf if slope == 0 else 1.0 / abs(slope)), r2, flat


def assert_matches_reference(vectors, site, length, r2=None):
    """Sites always equal; the delocalized flag wherever R^2 is not within 1e-9
    of 0.9; length and R^2 to 1e-10 relative wherever the fit is not flat (R^2
    to 1e-13 absolute below 1e-3, where 1 - SSres/SStot loses digits)."""
    for j in range(vectors.shape[1]):
        ref_site, ref_length, ref_r2, flat = reference_profile(vectors[:, j])
        assert site[j] == ref_site, j
        if r2 is None:
            r2_j = ref_r2
        else:
            r2_j = r2[j]
            if abs(ref_r2 - 0.9) > 1e-9:
                assert (r2_j < 0.9) == (ref_r2 < 0.9), j
        if not flat:
            assert length[j] == pytest.approx(ref_length, rel=1e-10), j
            assert r2_j == pytest.approx(ref_r2, rel=1e-10, abs=1e-13), j


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["small", "blocks", "long"]))
@example(seed=1, layout="blocks")
@example(seed=1, layout="long")     # a column longer than a block, vanishing on a sublattice
@example(seed=2, layout="long")     # an equal-magnitude column longer than a block
def test_batched_localization_matches_per_column_fits(seed, layout):
    rng = np.random.default_rng(seed)
    if layout == "small":
        n, k = int(rng.integers(2, 41)), int(rng.integers(1, 13))
    elif layout == "blocks":  # several blocks, the last one partial
        n = int(rng.integers(300, 701))
        width = spectral._BLOCK // n
        k = width * int(rng.integers(1, 4)) + int(rng.integers(1, width))
    else:
        n, k = spectral._BLOCK + int(rng.integers(1, 2000)), 1
    x = np.arange(n)[:, None]
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    v *= np.exp(-x * rng.uniform(-40, 40, k) / n * (rng.random(k) < 0.7))  # some localized
    v /= np.linalg.norm(v, axis=0)
    for j, kind in enumerate((np.arange(k) + seed) % 4):
        if kind == 1:    # vanishing on every 2nd or 3rd site
            stride = int(rng.integers(2, 4))
            v[int(rng.integers(stride))::stride, j] = 0
        elif kind == 2:  # equal magnitude, of unit modulus or not
            v[:, j] = rng.choice([1.0, rng.uniform(0.1, 3.0)]) * np.exp(2j * np.pi * rng.random(n))
    v = v[:, np.any(v, axis=0)]
    site, length, r2, _ = spectral._localization(v)
    assert_matches_reference(v, site, length, r2)


@pytest.mark.parametrize("model, n, params", [
    ("ssh", 400, {"J1": 1.0, "J2": 1.8, "Gamma": 0.5}),
    ("three-site", 402, {"J1": 1.4, "J2": 0.3, "J3": 3.0, "J": 0.7, "eps1": 0.0, "eps2": 0.0,
                         "Gamma": 1.5}),
])
def test_spectrum_rows_match_per_column_fits(model, n, params):
    sd = spectral.decompose(netmodel.build_model(model, n, params))
    rows = spectral.spectrum_rows(sd)
    assert_matches_reference(sd.right_vectors, [r[5] for r in rows], [r[6] for r in rows])


def _dense_only():
    """Switch the bipartite route off: every generator goes to ``np.linalg.eig``."""
    return mock.patch.object(spectral, "_bipartite_split", lambda L: None)


class TestDegenerateEigenspace:
    """A basis of a degenerate eigenspace need not be c-orthogonal, so
    ``decompose`` c-orthogonalizes it before the left vectors
    conj(r_j) / conj(r_j^T r_j) are paired with it.  The star is bipartite,
    so "bipartite" takes the SVD route; the others switch it off and solve
    with ``np.linalg.eig``: "lapack" keeps whatever basis LAPACK returns,
    "mixed" forces a basis that is not c-orthogonal, and "self-orthogonal"
    one whose first two vectors have r^T r = 0."""

    @pytest.fixture(params=["bipartite", "lapack", "mixed", "self-orthogonal"])
    def star(self, request, monkeypatch):
        eig = np.linalg.eig

        def mixed_eig(a):
            w, v = eig(a)
            idx = np.flatnonzero(np.abs(w + 0.5) < 1e-9)
            mix = np.eye(idx.size) + np.diag(np.full(idx.size - 1, 1j), 1)
            v[:, idx] = v[:, idx] @ mix
            v[:, idx] /= np.linalg.norm(v[:, idx], axis=0)
            r = v[:, idx]
            assert np.max(np.abs(r.T @ r - np.diag(np.diag(r.T @ r)))) > 0.1
            return w, v

        def self_orthogonal_eig(a):
            w, v = eig(a)
            idx = np.flatnonzero(np.abs(w + 0.5) < 1e-9)
            # real orthonormal leaf combinations orthogonal to the bright one
            u = np.zeros((5, 3))
            u[1:, :] = np.linalg.qr(np.eye(4, 3) - np.eye(4, 3, -1))[0]
            v[:, idx] = np.column_stack([u[:, 0] + 1j * u[:, 1], u[:, 0] - 1j * u[:, 1],
                                         np.sqrt(2) * u[:, 2]]) / np.sqrt(2)
            r = v[:, idx]
            assert np.max(np.abs(np.diag(r.T @ r)[:2])) < 1e-15
            return w, v

        if request.param != "bipartite":
            monkeypatch.setattr(spectral, "_bipartite_split", lambda L: None)
        if request.param not in ("bipartite", "lapack"):
            forced = {"mixed": mixed_eig, "self-orthogonal": self_orthogonal_eig}
            monkeypatch.setattr(np.linalg, "eig", forced[request.param])
        H = netmodel.build_effective_hamiltonian(star_network([1.0] * 4))
        sd = spectral.decompose(H)
        degenerate = np.abs(sd.eigenvalues + 0.5) < 1e-9
        assert np.count_nonzero(degenerate) == 3
        return H, sd

    def test_basis_is_c_orthogonal_and_unit(self, star):
        _, sd = star
        r = sd.right_vectors
        assert np.max(np.abs(r.T @ r - np.diag(sd.c_norms))) < 1e-12
        assert np.max(np.abs(np.linalg.norm(r, axis=0) - 1)) < 1e-12

    def test_weights_sum_to_one_at_every_site(self, star):
        H, sd = star
        for site in range(1, H.dim + 1):
            assert abs(np.sum(spectral.overlap_weights(sd, site)) - 1) < 1e-12

    def test_modes_sorted_by_decay_rate_then_frequency(self, star):
        _assert_modes_sorted(star[1])

    def test_projectors_rebuild_the_generator(self, star):
        H, sd = star
        rebuilt = (sd.right_vectors * sd.eigenvalues[None, :]) @ _left_vectors(sd).conj().T
        assert np.max(np.abs(rebuilt - H.generator)) < 1e-12 * np.linalg.norm(H.generator)

    def test_auto_trace_matches_expm(self, star):
        H, _ = star
        times = np.linspace(0.0, 20.0, 50)
        auto = dynamics.coherence_trace(H, times)
        assert auto.method == "spectral"
        ref = dynamics.coherence_trace(H, times, method="expm")
        assert np.max(np.abs(auto.values - ref.values)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6),   # qubit-leaf couplings
    st.floats(0.5, 4.0),                                     # leaf loss rate
    st.floats(-1.0, 1.0),                                    # leaf detuning
)
# cases found by longer runs: a nearly self-orthogonal LAPACK basis (first
# two), and a leaf left alone whose pairing the repaired columns would spoil
@example([2.8434903975407284e-252, 1.6934036345764544e-72], 1.0, 0.0)
@example([0.001953125, 1.0, 1.0, 1.0, 1.0], 1.0, 0.0)
@example([0.028618480544965186, 1.9558927333301606, 1.3831463960180335, 1.9558927333301606,
          1e-12], 0.5, 0.028618480544965186)
def test_star_degenerate_leaves_property(couplings, loss, detuning):
    # the qubit and the bright leaf combination meet at an exceptional point
    # when ||g|| = loss / 4; stay clear of it
    assume(abs(np.linalg.norm(couplings) - loss / 4) > 0.05 * loss)
    times = np.linspace(0.0, 20.0, 30)
    for route in (contextlib.nullcontext, _dense_only):  # the star is bipartite: both routes
        H = netmodel.build_effective_hamiltonian(star_network(couplings, loss, detuning))
        with route():
            sd = spectral.decompose(H)
            auto = dynamics.coherence_trace(H, times)
        r = sd.right_vectors
        assert np.max(np.abs(r.T @ r - np.diag(np.diag(r.T @ r)))) < 1e-12
        for site in range(1, H.dim + 1):
            assert abs(np.sum(spectral.overlap_weights(sd, site)) - 1) < 1e-12
        assert auto.method == "spectral"
        ref = dynamics.coherence_trace(H, times, method="expm")
        assert np.max(np.abs(auto.values - ref.values)) < 1e-12


def test_exceptional_point_reports_large_condition():
    # two-site level merging: eigenvectors collapse, condition number blows up
    H = netmodel.build_impurity_model(2, 1.0, 1.0, 4.0)
    sd = spectral.decompose(H)
    assert sd.condition > 1e6


def test_spectrum_rows_shape():
    sd = spectral.decompose(netmodel.build_ssh_model(4, 1.0, 1.8, 0.5))
    rows = spectral.spectrum_rows(sd)
    assert len(rows) == 4
    assert all(len(r) == 7 for r in rows)
    assert rows[0][3] <= rows[-1][3]


class TestDecomposeCache:
    def test_same_hamiltonian_returns_same_object(self):
        H = netmodel.build_ssh_model(5, 1.0, 1.8, 0.5)
        assert spectral.decompose(H) is spectral.decompose(H)

    def test_one_eigensolve_per_hamiltonian(self, monkeypatch):
        # the ssh chain is solved by one SVD of its coupling block; count both solvers
        calls = []
        for name in ("eig", "svd"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, solve=solve, **k: calls.append(1) or solve(*a, **k))
        H = netmodel.build_ssh_model(6, 1.0, 1.8, 0.5)
        sd = spectral.decompose(H)
        spectral.spectrum_rows(sd)
        dynamics.coherence_trace(H, dynamics.log_time_grid(100.0, 50))
        assert len(calls) == 1
        # an equal matrix in a new instance is solved afresh
        twin = netmodel.EffectiveHamiltonian(H.matrix)
        sd2 = spectral.decompose(twin)
        assert len(calls) == 2
        assert sd2 is not sd
        assert np.array_equal(sd2.eigenvalues, sd.eigenvalues)

    def test_cached_arrays_are_read_only(self):
        sd = spectral.decompose(netmodel.build_ssh_model(4, 1.0, 1.8, 0.5))
        for arr in (sd.eigenvalues, sd.right_vectors, sd.c_norms):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_writeable_matrix_is_not_cached(self):
        H = netmodel.build_ssh_model(4, 1.0, 1.8, 0.5)
        H.matrix.setflags(write=True)
        assert spectral.decompose(H) is not spectral.decompose(H)


# ---------------------------------------------------------------------------
# The bipartite route: one SVD of the coupling block against dense eig.
# ---------------------------------------------------------------------------

def _dense(H, times):
    """``decompose`` and ``coherence_trace`` of a fresh copy of ``H`` with the
    bipartite route switched off."""
    with _dense_only():
        twin = netmodel.EffectiveHamiltonian(H.matrix)
        return spectral.decompose(twin), dynamics.coherence_trace(twin, times)


def _singular_values(H, lossless):
    """Singular values of the lossless-to-lossy block of ``H``."""
    m = H.matrix.real
    return np.linalg.svd(m[np.ix_(lossless, ~lossless)], compute_uv=False)


#: relative distances from an exceptional point, z^2 + 4 s^2 = 0 (None: a free draw)
_EP_OFFSETS = [None, None, 0.0, 1e-8, -1e-6, 1e-4, -1e-2]


@st.composite
def bipartite_hamiltonians(draw):
    """ssh chains (even and odd N), the two-site impurity, and custom networks
    with more lossy than lossless sites, some near an exceptional point."""
    kind = draw(st.sampled_from(["ssh", "impurity", "custom"]))
    offset = draw(st.sampled_from(_EP_OFFSETS))
    if kind == "impurity":
        gamma = draw(st.floats(0.2, 8.0))
        kappa = draw(st.floats(0.1, 3.0)) if offset is None else gamma / 4 * (1 + offset)
        return netmodel.build_impurity_model(2, 1.0, kappa, gamma)
    if kind == "ssh":
        n, j1, j2 = draw(st.integers(2, 40)), draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
        gamma = draw(st.floats(0.05, 3.0))
        if offset is not None:  # z = -i Gamma meets the k-th singular value
            s = _singular_values(netmodel.build_ssh_model(n, j1, j2, 1.0), np.arange(n) % 2 == 0)
            gamma = 2 * s[draw(st.integers(0, s.size - 1))] * (1 + offset)
        return netmodel.build_ssh_model(n, j1, j2, gamma)
    p = draw(st.integers(1, 3))
    q = p + draw(st.integers(1, 3))
    lossless = np.array(draw(st.permutations([True] * (p - 1) + [False] * q)))
    lossless = np.concatenate([[True], lossless])  # site 1 is the qubit
    P, Q = np.flatnonzero(lossless) + 1, np.flatnonzero(~lossless) + 1
    edges = [(int(i), int(j), draw(st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.1)))
             for i in P for j in Q if draw(st.booleans())]
    loss, detuning = draw(st.floats(0.2, 4.0)), draw(st.floats(-1.0, 1.0))
    sites = [netmodel.SiteSpec(netmodel.QUBIT if s == 1 else netmodel.CAVITY,
                               0.0 if lossless[s - 1] else detuning,
                               0.0 if lossless[s - 1] else loss)
             for s in range(1, p + q + 1)]
    spec = netmodel.NetworkSpec(tuple(sites), tuple(edges))
    s = _singular_values(netmodel.build_effective_hamiltonian(spec), lossless)
    if offset is not None and np.any(s > 0):  # z = -i loss / 2 meets a singular value
        k = draw(st.integers(0, int(np.count_nonzero(s > 0)) - 1))
        sites = [site if lossless[i] else netmodel.SiteSpec(netmodel.CAVITY, 0.0,
                                                             4 * s[k] * (1 + offset))
                 for i, site in enumerate(sites)]
        spec = netmodel.NetworkSpec(tuple(sites), tuple(edges))
    return netmodel.build_effective_hamiltonian(spec)


def _cluster_sums(w, c, centers, tol=1e-9):
    """Sum of the weights ``c`` of the eigenvalues ``w`` within ``tol`` of each
    center: degenerate modes share their weight in any basis."""
    return (np.abs(centers[:, None] - w[None, :]) < tol) @ c


@settings(max_examples=60, deadline=None)
@given(bipartite_hamiltonians())
@example(netmodel.build_impurity_model(2, 1.0, 1.0, 4.0))       # an exceptional point
@example(netmodel.build_ssh_model(41, 1.0, 1.8, 0.5))            # an exact dark mode
def test_bipartite_route_matches_dense_eig(H):
    """Eigenvalues, qubit weights and traces within 1e-12 of dense ``eig``,
    widened by dense ``eig``'s own error: about ``eps kappa ||L||`` on the
    eigenvalues, ``kappa`` the largest eigenvalue condition number.  Near an
    exceptional point, where two roots ``|z| / kappa`` apart carry weights
    of size ``kappa`` and c-norms of size ``1 / kappa``, dense eigenvectors
    are off by about ``eps ||L|| kappa / |z|``, so the weights by ``eps
    ||L|| kappa^3 / |z|``; a trace inherits both, the eigenvalue error times
    ``t``.  (The bipartite route stays accurate there; at the exceptional
    point itself it hands over to dense ``eig``.)"""
    L = H.generator
    split = spectral._bipartite_split(L)
    assert split is not None
    times = np.concatenate([[0.0], dynamics.log_time_grid(1e3, 40)])
    sd, trace = spectral.decompose(H), dynamics.coherence_trace(H, times)
    dense, dense_trace = _dense(H, times)
    if spectral._bipartite_eig(L.shape, *split) is None:  # roots meet: the dense solve itself
        assert np.array_equal(sd.eigenvalues, dense.eigenvalues)
        assert np.array_equal(sd.right_vectors, dense.right_vectors)
        return
    eps = np.finfo(float).eps
    kappa = max(sd.condition, dense.condition)
    norm = max(1.0, float(np.max(np.abs(L))))
    eig_err = 10 * eps * kappa * norm
    weight_err = 10 * eps * kappa**3 * norm / float(np.min(np.abs(split[3])))
    d = np.abs(sd.eigenvalues[:, None] - dense.eigenvalues[None, :])
    assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= 1e-12 + eig_err
    w = sd.eigenvalues
    c, c_dense = spectral.overlap_weights(sd), spectral.overlap_weights(dense)
    assert np.max(np.abs(_cluster_sums(w, c, w) - _cluster_sums(dense.eigenvalues, c_dense, w))) \
        <= 1e-12 + weight_err
    trace_err = 1e-12 + weight_err + times * eig_err * np.sum(np.abs(c))
    assert np.all(np.abs(trace.values - dense_trace.values) <= trace_err)


@pytest.mark.parametrize("H", [netmodel.build_ssh_model(9, 1.0, 1.8, 0.5),
                               netmodel.build_ssh_model(10, 1.0, 0.6, 0.5),
                               netmodel.build_impurity_model(2, 1.0, 0.5, 4.0)])
def test_stacked_bipartite_solve_equals_decompose(H, monkeypatch):
    # a zero-width disorder chunk: copies of one generator, solved as one stack
    svd = np.linalg.svd
    shapes = []
    monkeypatch.setattr(np.linalg, "svd", lambda a: shapes.append(np.shape(a)) or svd(a))
    w, vr, c_norms, condition = spectral._modes(np.array([H.generator] * 3))
    sd = spectral.decompose(H)
    assert len(shapes) == 2 and len(shapes[0]) == 3  # one stacked SVD, then the single one
    for i in range(3):
        assert np.array_equal(w[i], sd.eigenvalues)
        assert np.array_equal(vr[i], sd.right_vectors)
        assert np.array_equal(c_norms[i], sd.c_norms)
        assert condition[i] == sd.condition


@pytest.mark.parametrize("H", [
    netmodel.build_three_site_model(9, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5),  # lossless bonds
    netmodel.build_impurity_model(5, 1.0, 0.5, 4.0),                       # lossy bonds
    netmodel.apply_detuning_disorder(netmodel.build_ssh_model(5, 1.0, 1.8, 0.5),
                                     [0.0, 0.0, 0.1, 0.0, 0.0]),         # detuned lossless site
    netmodel.EffectiveHamiltonian(np.diag([0.0, -1j, -2j]) + np.eye(3, k=1) + np.eye(3, k=-1)),
])
def test_other_generators_are_not_bipartite(H):
    assert spectral._bipartite_split(H.generator) is None


def test_stack_with_one_split_per_matrix_only():
    # one matrix of the stack detuned on a lossless site: the whole stack is dense
    H = netmodel.build_ssh_model(5, 1.0, 1.8, 0.5)
    detuned = netmodel.apply_detuning_disorder(H, [0.1, 0.0, 0.0, 0.0, 0.0])
    assert spectral._bipartite_split(np.array([H.generator] * 2)) is not None
    assert spectral._bipartite_split(np.array([H.generator, detuned.generator])) is None
