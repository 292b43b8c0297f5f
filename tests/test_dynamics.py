import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhtop import dynamics, netmodel, spectral
from nhtop.cli import main
from nhtop.analytics import dark_sector_prediction, ssh_odd_asymptotic_coherence
from nhtop.errors import NumericError
from conftest import expm_oracle, fitted_decay_rate, random_network, star_network


class TestCoherenceTrace:
    def test_decoupled_qubit_keeps_full_coherence(self):
        H = netmodel.build_impurity_model(5, 1.0, 0.0, 4.0)
        tr = dynamics.coherence_trace(H, np.linspace(0, 80, 30))
        assert np.allclose(tr.values, 1.0, atol=1e-12)

    def test_impurity_single_exponential_rate(self):
        # tau from the closed form: (Gamma + sqrt(16(J^2-k^2)+Gamma^2))/(4 k^2) = 60.0
        H = netmodel.build_impurity_model(4, 1.0, 0.2, 4.0)
        times = np.linspace(0.0, 60.0, 200)
        tr = dynamics.coherence_trace(H, times)
        rate = fitted_decay_rate(times, tr.values)
        assert rate == pytest.approx(1 / 60.0, rel=0.02)

    def test_ssh_odd_plateau(self):
        H = netmodel.build_ssh_model(3, 1.0, 1.8, 0.5)
        tr = dynamics.coherence_trace(H, np.array([100.0]))
        assert tr.values[0] == pytest.approx(ssh_odd_asymptotic_coherence(3, 1.0, 1.8), abs=1e-3)

    def test_explicit_methods_agree(self):
        H = netmodel.build_ssh_model(6, 1.0, 1.8, 0.5)
        t = np.linspace(0, 40, 15)
        a = dynamics.coherence_trace(H, t, method="spectral")
        b = dynamics.coherence_trace(H, t, method="expm")
        assert a.method == "spectral" and b.method == "expm"
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_exceptional_point_trace_is_correct(self):
        # kappa = Gamma/4 merges the two-site eigenvalues; C(t) = (1+t)e^{-t}
        H = netmodel.build_impurity_model(2, 1.0, 1.0, 4.0)
        t = np.linspace(0, 6, 13)
        tr = dynamics.coherence_trace(H, t)
        assert np.allclose(tr.values, (1 + t) * np.exp(-t), atol=1e-7)

    def test_auto_falls_back_to_expm_near_defective(self, monkeypatch):
        monkeypatch.setattr(dynamics, "CONDITION_FALLBACK", 1.0)
        H = netmodel.build_ssh_model(4, 1.0, 1.8, 0.5)
        tr = dynamics.coherence_trace(H, np.linspace(0, 5, 4))
        assert tr.method == "expm"
        with pytest.raises(NumericError):
            dynamics.coherence_trace(H, [0.0, 1.0], method="spectral")

    def test_auto_falls_back_at_exceptional_point(self):
        # condition 3.9e7 stays below CONDITION_FALLBACK, but the weights are
        # +-1.9e7 and cancel to 1: the rounding bound eps*sum|c_j| sends auto
        # to the expm route, which is exact to roundoff here
        H = netmodel.build_impurity_model(2, 1.0, 1.0, 4.0)
        assert spectral.decompose(H).condition < dynamics.CONDITION_FALLBACK
        t = np.linspace(0, 20, 41)
        tr = dynamics.coherence_trace(H, t)
        assert tr.method == "expm"
        assert np.max(np.abs(tr.values - (1 + t) * np.exp(-t))) < 1e-12

    @pytest.mark.parametrize("bad", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
    @pytest.mark.parametrize("method", ["auto", "spectral", "expm"])
    def test_non_finite_times_rejected(self, method, bad):
        H = netmodel.build_ssh_model(4, 1.0, 1.8, 0.5)
        with pytest.raises(ValueError, match="finite"):
            dynamics.coherence_trace(H, bad, method)

    @pytest.mark.parametrize("bad", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
    def test_trace_type_rejects_non_finite_times(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dynamics.CoherenceTrace(np.array(bad), np.array([1.0, 0.5, 0.5]), "expm")

    @pytest.mark.parametrize("method", ["spectral", "expm"])
    def test_caller_time_grid_stays_writeable(self, method):
        grid = np.linspace(0.0, 5.0, 6)
        tr = dynamics.coherence_trace(netmodel.build_ssh_model(4, 1.0, 1.8, 0.5), grid, method)
        assert grid.flags.writeable
        assert not tr.times.flags.writeable
        grid[0] = 1.0
        assert tr.times[0] == 0.0

    def test_validation_rejects_descending_times(self):
        H = netmodel.build_ssh_model(4, 1.0, 1.8, 0.5)
        with pytest.raises(ValueError):
            dynamics.coherence_trace(H, [1.0, 0.5])

    def test_trace_type_rejects_bad_initial_value(self):
        with pytest.raises(NumericError) as exc:
            dynamics.CoherenceTrace([0, 1], [0.9, 0.5], "expm")
        # the message reaches the CLI's stderr: a plain float, not a numpy repr
        assert "C(0) = 0.9 " in str(exc.value) and "np.float64" not in str(exc.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_trace_type_rejects_non_finite_values(self, bad):
        with pytest.raises(NumericError, match="finite"):
            dynamics.CoherenceTrace(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, bad]), "expm")


class TestSpectralBatch:
    """``_spectral_batch`` evaluates a stack of generators at once and flags
    every row the spectral route of ``coherence_trace`` would not take."""

    H = netmodel.apply_detuning_disorder(netmodel.build_ssh_model(4, 1.0, 1.8, 0.5),
                                         [0.1, -0.2, 0.0, 0.3])
    EP = netmodel.build_impurity_model(2, 1.0, 1.0, 4.0)  # exceptional point

    def test_reliable_rows_equal_coherence_trace(self):
        t = np.linspace(0.0, 20.0, 41)
        values, ok = dynamics._spectral_batch(np.array([self.H.generator] * 2), t)
        assert ok.tolist() == [True, True]
        assert np.array_equal(values, [dynamics.coherence_trace(self.H, t).values] * 2)

    def test_exceptional_point_is_flagged(self):
        t = np.linspace(0.0, 20.0, 41)
        _, ok = dynamics._spectral_batch(np.array([self.EP.generator] * 2), t)
        assert not np.any(ok)
        assert dynamics.coherence_trace(self.EP, t).method == "expm"

    def test_row_failing_a_trace_check_is_flagged(self, monkeypatch):
        values_of = dynamics._spectral_values

        def spoiled(w, c, times):
            v = values_of(w, c, times)
            v[0, 1], v[1, 0], v[2, 2] = np.nan, 0.5, -1.0  # non-finite, C(0) != 1, negative
            return v

        monkeypatch.setattr(dynamics, "_spectral_values", spoiled)
        _, ok = dynamics._spectral_batch(np.array([self.H.generator] * 4), np.linspace(0.0, 2.0, 5))
        assert ok.tolist() == [False, False, False, True]

    def test_row_blocks_keep_every_bit_and_the_exponential_within_budget(self, monkeypatch):
        rng = np.random.default_rng(17)
        R, n, t = 150, 7, np.linspace(0.0, 30.0, 50)
        rows = spectral._BLOCK // (t.size * n)
        assert R > 3 * rows  # four blocks, the last one short
        w = -rng.uniform(0.0, 1.0, (R, n)) + 1j * rng.normal(size=(R, n))
        c = rng.normal(size=(R, n)) + 1j * rng.normal(size=(R, n))
        one_shot = np.abs(np.exp(t[:, None] * w[:, None, :]) @ c[..., None])[..., 0]
        exp, sizes = np.exp, []
        monkeypatch.setattr(np, "exp", lambda x: sizes.append(np.size(x)) or exp(x))
        values = dynamics._spectral_values(w, c, t)
        assert sizes == [rows * t.size * n] * 3 + [(R - 3 * rows) * t.size * n]
        assert max(sizes) <= spectral._BLOCK
        for i in range(R):
            assert np.array_equal(values[i], one_shot[i])
        # a single generator is one block, whatever its size
        sizes.clear()
        big = np.linspace(0.0, 30.0, spectral._BLOCK // n + 1)
        assert np.array_equal(dynamics._spectral_values(w[0], c[0], big),
                              np.abs(exp(big[:, None] * w[0][None, :]) @ c[0][:, None])[:, 0])
        assert sizes == [big.size * n]

    def test_star_rows_equal_coherence_trace(self):
        # a degenerate eigenspace is c-orthogonalized inside the batch
        t = np.linspace(0.0, 20.0, 41)
        stars = [netmodel.build_effective_hamiltonian(star_network(g))
                 for g in ([1.0] * 4, [0.3, -0.8, 1.1])]
        for H in stars:
            values, ok = dynamics._spectral_batch(np.array([H.generator] * 2), t)
            assert ok.tolist() == [True, True]
            assert np.array_equal(values, [dynamics.coherence_trace(H, t).values] * 2)


class TestSuperoperatorTrace:
    def test_matches_reduced_dynamics(self):
        spec = netmodel.ssh_network(5, 1.0, 1.8, 0.5)
        H = netmodel.build_effective_hamiltonian(spec)
        sop = netmodel.superoperator_from_hamiltonian(H)
        t = np.linspace(0, 50, 12)
        full = dynamics.coherence_trace_superoperator(sop, t)
        red = dynamics.coherence_trace(H, t)
        assert full.method == "full_superoperator"
        assert np.max(np.abs(full.values - red.values)) < 1e-12

    def test_three_way_method_agreement(self):
        H = netmodel.build_three_site_model(8, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
        sop = netmodel.superoperator_from_hamiltonian(H)
        t = np.linspace(0, 100, 9)
        traces = [
            dynamics.coherence_trace(H, t, method="spectral").values,
            dynamics.coherence_trace(H, t, method="expm").values,
            dynamics.coherence_trace_superoperator(sop, t).values,
        ]
        for a in traces:
            for b in traces:
                assert np.max(np.abs(a - b)) < 1e-10

    @pytest.mark.parametrize("bad", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
    def test_non_finite_times_rejected(self, bad):
        sop = netmodel.superoperator_from_hamiltonian(netmodel.build_ssh_model(3, 1.0, 1.8, 0.5))
        with pytest.raises(ValueError, match="finite"):
            dynamics.coherence_trace_superoperator(sop, bad)


def _pade_values(H, times):
    """The per-point reference: |exp(t L)_11| from scipy's Pade expm."""
    return np.array([abs(expm_oracle(H, t)[0, 0]) for t in times])


class TestTaylorPropagator:
    """The stepped expm and superoperator routes against per-point Pade."""

    @pytest.mark.parametrize("grid", [dynamics.log_time_grid(100.0, 400),
                                      np.linspace(0.0, 100.0, 400)], ids=["log", "uniform"])
    def test_ssh_50(self, grid):
        H = netmodel.build_ssh_model(50, 1.0, 1.8, 0.5)
        got = dynamics.coherence_trace(H, grid, method="expm").values
        # every 40th point, ending at t=100, keeps the reference cheap
        assert np.max(np.abs(got[39::40] - _pade_values(H, grid[39::40]))) < 1e-12

    @pytest.mark.parametrize("grid", [dynamics.log_time_grid(100.0, 100),
                                      np.linspace(0.0, 100.0, 100)], ids=["log", "uniform"])
    def test_ssh_9_superoperator(self, grid):
        spec = netmodel.ssh_network(9, 1.0, 1.8, 0.5)
        H = netmodel.build_effective_hamiltonian(spec)
        sop = netmodel.superoperator_from_hamiltonian(H)
        got = dynamics.coherence_trace_superoperator(sop, grid).values
        want = _pade_values(H, grid)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("gamma", [4.0, 4.0001])
    def test_non_normal_hump_at_exceptional_point(self, gamma):
        H = netmodel.build_impurity_model(2, 1.0, 1.0, gamma)
        t = np.linspace(0.0, 20.0, 200)
        got = dynamics.coherence_trace(H, t, method="expm").values
        assert np.max(np.abs(got - _pade_values(H, t))) < 1e-12

    def test_large_norm(self):
        H = netmodel.build_impurity_model(100, 1.0, 0.5, 40.0)
        t = np.linspace(0.0, 100.0, 11)
        got = dynamics.coherence_trace(H, t, method="expm").values
        assert np.max(np.abs(got - _pade_values(H, t))) < 1e-12

    def test_grid_starting_late_with_repeated_point(self):
        H = netmodel.build_impurity_model(100, 1.0, 0.5, 40.0)
        t = np.array([0.5, 0.5, 1.0, 7.0, 7.0, 30.0])
        got = dynamics.coherence_trace(H, t, method="expm").values
        assert got[0] == got[1] and got[3] == got[4]
        assert np.max(np.abs(got - _pade_values(H, t))) < 1e-12


class TestExpmOracle:
    def test_zero_time_is_identity(self):
        H = netmodel.build_ssh_model(5, 1.0, 1.8, 0.5)
        assert np.allclose(expm_oracle(H, 0.0), np.eye(5), atol=1e-15)

    def test_diagonal_generator(self):
        H = netmodel.EffectiveHamiltonian(np.diag([0.4, -0.2 - 3j]))
        got = expm_oracle(H, 2.0)
        want = np.diag(np.exp(2.0 * (-1j) * np.array([0.4, -0.2 - 3j])))
        assert np.allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("t", [1.0, 10.0])
    def test_agrees_with_spectral_reconstruction(self, t):
        H = netmodel.build_ssh_model(6, 1.0, 1.8, 0.5)
        sd = spectral.decompose(H)
        left = np.conj(sd.right_vectors) / np.conj(sd.c_norms)
        rebuilt = (sd.right_vectors * np.exp(t * sd.eigenvalues)[None, :]) @ left.conj().T
        assert np.max(np.abs(rebuilt - expm_oracle(H, t))) < 1e-10

    def test_negative_time_rejected(self):
        H = netmodel.build_ssh_model(4, 1.0, 1.8, 0.5)
        with pytest.raises(ValueError):
            expm_oracle(H, -1.0)


class TestPerturbativeLimits:
    def test_strong_dissipative_rate_values(self):
        assert dynamics.strong_dissipative_rate(0.2, 4.0) == pytest.approx(0.02)
        assert dynamics.strong_dissipative_rate(0.0, 4.0) == 0.0
        assert dynamics.strong_dissipative_rate(1.0, 50.0) == pytest.approx(0.04)

    def test_strong_dissipative_rate_against_fit(self):
        for J1, Gamma in ((0.2, 4.0), (1.0, 50.0)):
            H = netmodel.build_impurity_model(2, 1.0, J1, Gamma)
            t_end = 3.0 * Gamma / (2 * J1**2)
            times = np.linspace(0, t_end, 120)
            tr = dynamics.coherence_trace(H, times)
            rate = fitted_decay_rate(times, tr.values)
            assert rate == pytest.approx(dynamics.strong_dissipative_rate(J1, Gamma), rel=0.05)

    def test_weak_dissipation_uniform_loss_relation(self):
        H = netmodel.build_ssh_model(7, 1.0, 1.8, 0.01)
        h0, gam = H.hermitian_part, H.loss_rates
        lam = dynamics.weak_dissipative_spectrum(h0, gam)
        # with equal loss gamma on a sublattice: rate = (g/2)(sum of weights there)
        e0, q = np.linalg.eigh(h0)
        want = 0.5 * gam.max() * np.sum(np.abs(q[1::2, :]) ** 2, axis=0)
        assert np.allclose(-lam.real, want, atol=1e-14)

    def test_weak_dissipation_lossless_chain(self):
        h0 = np.diag([0.0] * 4)
        h0[0, 1] = h0[1, 0] = 1.0
        lam = dynamics.weak_dissipative_spectrum(h0, np.zeros(4))
        assert np.allclose(lam.real, 0.0, atol=1e-15)

    def test_weak_dissipation_matches_exact_spectrum(self):
        H = netmodel.build_ssh_model(7, 1.0, 1.8, 0.01)
        lam_pred = dynamics.weak_dissipative_spectrum(H.hermitian_part, H.loss_rates)
        lam_exact = np.linalg.eigvals(H.generator)
        pred = lam_pred[np.argsort(lam_pred.imag)]
        exact = lam_exact[np.argsort(lam_exact.imag)]
        assert np.max(np.abs(pred.real - exact.real)) < 1e-3

    def test_weak_dissipation_argument_errors(self):
        with pytest.raises(ValueError):
            dynamics.weak_dissipative_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]), [0, 1])
        with pytest.raises(ValueError):
            dynamics.weak_dissipative_spectrum(np.zeros((2, 2)), [1.0, 0.0])


class TestRegimeProperties:
    def test_single_mode_envelope_bound(self):
        # nearly decoupled qubit: one weight dominates, C hugs one exponential
        H = netmodel.build_impurity_model(4, 1.0, 0.02, 4.0)
        sd = spectral.decompose(H)
        c = spectral.overlap_weights(sd, 1)
        i = np.argmax(np.abs(c))
        assert np.abs(c[i]) > 1 - 1e-3
        rest = np.sum(np.abs(np.delete(c, i)))
        t = np.linspace(0, 200, 400)
        tr = dynamics.coherence_trace(H, t)
        envelope = np.abs(np.exp(sd.eigenvalues[i] * t))
        assert np.max(np.abs(tr.values - envelope)) <= 2 * rest + 1e-12

    def test_dark_sector_rabi_window(self):
        H = netmodel.build_three_site_model(8, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
        sd = spectral.decompose(H)
        t = np.linspace(10.0, 100.0, 800)   # from 5/Gamma onwards
        pred = dark_sector_prediction(sd, 1e-8, t)
        tr = dynamics.coherence_trace(H, t)
        assert np.max(np.abs(tr.values - pred)) < 0.02

    def test_dark_sector_rabi_window_quasi_dark_pair(self):
        # N mod 3 != 2: the protected pair only lives until tau_coh, so the
        # two-mode interference law is checked on [5/Gamma, tau_coh/10]
        H = netmodel.build_three_site_model(9, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
        sd = spectral.decompose(H)
        rates = np.sort(sd.decay_rates)
        tau_coh = 1.0 / rates[1]
        assert np.sum(sd.decay_rates < 0.05) == 2
        t = np.linspace(5 / 0.5, tau_coh / 10, 300)
        pred = dark_sector_prediction(sd, 0.05, t)
        tr = dynamics.coherence_trace(H, t)
        assert np.max(np.abs(tr.values - pred)) < 0.02


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_coherence_never_exceeds_one(seed):
    rng = np.random.default_rng(seed)
    H = netmodel.build_effective_hamiltonian(random_network(rng))
    tr = dynamics.coherence_trace(H, np.linspace(0, 30, 40))
    assert np.max(tr.values) <= 1 + 1e-9


def test_log_time_grid():
    g = dynamics.log_time_grid(100.0)
    assert g.size == 400 and g[0] == pytest.approx(1e-2) and g[-1] == pytest.approx(100.0)
    with pytest.raises(ValueError):
        dynamics.log_time_grid(1e-3)


def test_write_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["coherence", "--model", "ssh", "--N", "3", "--J1", "1", "--J2", "1.8",
                 "--gamma", "0.5", "--t-max", "1", "--t-points", "2", "--no-log-time",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# method=spectral"
    assert lines[1] == "t,coherence"
    assert lines[2].startswith("0,1")
