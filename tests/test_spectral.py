import numpy as np
import pytest

from nhtop import dynamics, netmodel, spectral
from nhtop.analytics import impurity_prediction, ssh_odd_asymptotic_coherence
from conftest import random_network


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


@pytest.mark.parametrize("builder,args", [
    (netmodel.build_impurity_model, (12, 1.0, 0.5, 4.0)),
    (netmodel.build_ssh_model, (11, 1.0, 1.8, 0.5)),
    (netmodel.build_ssh_model, (10, 1.0, 0.5, 0.5)),
    (netmodel.build_three_site_model, (9, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)),
])
def test_biorthogonality_and_completeness(builder, args):
    H = builder(*args)
    sd = spectral.decompose(H)
    gram = sd.left_vectors.conj().T @ sd.right_vectors
    assert np.max(np.abs(gram - np.eye(H.dim))) < 1e-10
    ident = sd.right_vectors @ sd.left_vectors.conj().T
    assert np.max(np.abs(ident - np.eye(H.dim))) < 1e-8
    # spectral reconstruction of the generator itself
    rebuilt = (sd.right_vectors * sd.eigenvalues[None, :]) @ sd.left_vectors.conj().T
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
            if sd.degenerate_warning:
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


from hypothesis import given, settings, strategies as st


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


def _star_network(leaves: int) -> netmodel.EffectiveHamiltonian:
    """Qubit at the centre of identical lossy leaves.

    The qubit couples only to the symmetric leaf combination, so the other
    ``leaves - 1`` combinations share one eigenvalue, -Gamma/2.
    """
    sites = (netmodel.SiteSpec(netmodel.QUBIT, 0.0),)
    sites += (netmodel.SiteSpec(netmodel.CAVITY, 0.0, 1.0),) * leaves
    edges = tuple((1, j, 1.0) for j in range(2, leaves + 2))
    return netmodel.build_effective_hamiltonian(netmodel.NetworkSpec(sites, edges))


class TestDegenerateEigenspace:
    """A basis of a degenerate eigenspace need not be c-orthogonal, so the
    left vectors conj(r_j) / conj(r_j^T r_j) miss the pairing check there
    and ``decompose`` rebuilds them from the inverse of the right vectors.
    "mixed" forces such a basis whatever basis LAPACK returns."""

    @pytest.fixture(params=["lapack", "mixed"])
    def star(self, request, monkeypatch):
        if request.param == "mixed":
            eig = np.linalg.eig

            def mixed_eig(a):
                w, v = eig(a)
                idx = np.flatnonzero(np.abs(w + 0.5) < 1e-9)
                mix = np.eye(idx.size) + np.diag(np.full(idx.size - 1, 1j), 1)
                v[:, idx] = v[:, idx] @ mix
                v[:, idx] /= np.linalg.norm(v[:, idx], axis=0)
                return w, v

            monkeypatch.setattr(np.linalg, "eig", mixed_eig)
        H = _star_network(4)
        sd = spectral.decompose(H)
        degenerate = np.abs(sd.eigenvalues + 0.5) < 1e-9
        assert np.count_nonzero(degenerate) == 3
        if request.param == "mixed":
            r = sd.right_vectors[:, degenerate]
            assert np.max(np.abs(r.T @ r - np.diag(np.diag(r.T @ r)))) > 0.1
        return H, sd

    def test_weights_sum_to_one_at_every_site(self, star):
        H, sd = star
        for site in range(1, H.dim + 1):
            assert abs(np.sum(spectral.overlap_weights(sd, site)) - 1) < 1e-12

    def test_modes_sorted_by_decay_rate_then_frequency(self, star):
        _assert_modes_sorted(star[1])

    def test_projectors_rebuild_the_generator(self, star):
        H, sd = star
        rebuilt = (sd.right_vectors * sd.eigenvalues[None, :]) @ sd.left_vectors.conj().T
        assert np.max(np.abs(rebuilt - H.generator)) < 1e-12 * np.linalg.norm(H.generator)

    def test_auto_trace_matches_expm(self, star):
        H, _ = star
        times = np.linspace(0.0, 20.0, 50)
        auto = dynamics.coherence_trace(H, times)
        assert auto.method == "spectral"
        ref = dynamics.coherence_trace(H, times, method="expm")
        assert np.max(np.abs(auto.values - ref.values)) < 1e-12


def test_exceptional_point_reports_large_condition(monkeypatch):
    # two-site level merging: eigenvectors collapse, condition number blows up
    H = netmodel.build_impurity_model(2, 1.0, 1.0, 4.0)
    sd = spectral.decompose(H)
    assert sd.condition > 1e6
    # the warning threshold itself is exercised with a lowered bar
    monkeypatch.setattr(spectral, "DEGENERACY_CONDITION", 1e6)
    assert spectral.decompose(H).degenerate_warning


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
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: calls.append(1) or eig(*a, **k))
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
        for arr in (sd.eigenvalues, sd.right_vectors, sd.left_vectors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_changed_pairing_tolerance_solves_again(self, monkeypatch):
        H = netmodel.build_ssh_model(4, 1.0, 1.8, 0.5)
        sd = spectral.decompose(H)
        monkeypatch.setattr(spectral, "_PAIRING_TOL", -1.0)  # always rebuild from inv(vr)
        sd2 = spectral.decompose(H)
        assert sd2 is not sd
        assert spectral.decompose(H) is sd2

    def test_writeable_matrix_is_not_cached(self):
        H = netmodel.build_ssh_model(4, 1.0, 1.8, 0.5)
        H.matrix.setflags(write=True)
        assert spectral.decompose(H) is not spectral.decompose(H)
