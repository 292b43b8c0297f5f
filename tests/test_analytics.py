import math

import numpy as np
import pytest

from nhtop import analytics, dynamics, netmodel, spectral
from nhtop.errors import RootFindingError


class TestImpurityPrediction:
    def test_reference_point(self):
        # frozen from evaluating the formulas at J=1, kappa=0.5, Gamma=4:
        # s = sqrt(28), lambda+ = -1/(4 + s), tau = 4 + s
        p = analytics.impurity_prediction(1.0, 0.5, 4.0)
        assert p.lambda_plus.real == pytest.approx(-0.10762521851076509, abs=1e-15)
        assert p.tau == pytest.approx(9.291502622129181, abs=1e-12)
        assert p.validity_plus and not p.validity_minus
        assert p.lambda_minus.real == pytest.approx(0.7742918851774305, abs=1e-12)

    def test_weak_coupling_tau_is_sixty(self):
        p = analytics.impurity_prediction(1.0, 0.2, 4.0)
        assert p.tau == pytest.approx(60.0, abs=1e-12)   # sqrt(31.36) = 5.6 exactly

    def test_matched_coupling_no_oscillations(self):
        p = analytics.impurity_prediction(1.0, 1.0, 4.0)
        assert p.tau == pytest.approx(2.0, abs=1e-14)
        assert p.lambda_plus.imag == pytest.approx(0.0, abs=1e-14)

    def test_overdamped_crossover_gives_envelope(self):
        # kappa^2 > J^2 + Gamma^2/16: complex branch, both modes decaying
        p = analytics.impurity_prediction(1.0, 1.5, 1.0)
        assert p.validity_plus and p.validity_minus
        assert p.lambda_plus.imag != 0
        assert p.tau == pytest.approx(1.0 / (4 * 1.5**2), abs=1e-14)

    def test_decoupled_limit(self):
        p = analytics.impurity_prediction(1.0, 0.0, 4.0)
        assert math.isinf(p.tau)
        assert not p.validity_plus

    def test_zeta_matches_quasimomentum_root(self):
        p = analytics.impurity_prediction(1.0, 0.5, 4.0)
        roots = analytics.impurity_quasimomentum_roots(1.0, 0.5, 4.0, 24)
        k_loc = max(roots, key=lambda k: k.imag)
        assert p.zeta == pytest.approx(1.0 / k_loc.imag, rel=1e-6)

    def test_h_convention_attachment(self):
        p = analytics.impurity_prediction(1.0, 0.5, 4.0)
        assert p.h_convention["lambda_plus"] == pytest.approx(1j * p.lambda_plus)

    def test_closed_form_tracks_dense_spectrum(self):
        # sweep: the plus mode sits within 10 e^{-N/zeta} of a true eigenvalue
        N = 24
        for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
            for Gamma in (1.0, 2.0, 4.0, 8.0):
                p = analytics.impurity_prediction(1.0, kappa, Gamma)
                if p.zeta <= 0:
                    continue  # no bound mode in this corner
                dense = np.linalg.eigvals(
                    netmodel.build_impurity_model(N, 1.0, kappa, Gamma).generator
                )
                dist = np.min(np.abs(dense - p.lambda_plus))
                assert dist < max(1e-8, 10 * math.exp(-N / p.zeta))


class TestQuasimomentumRoots:
    def test_decoupled_coupling_gives_chain_momenta(self):
        roots = analytics.impurity_quasimomentum_roots(1.0, 0.0, 4.0, 10)
        real_roots = sorted(k.real for k in roots if abs(k.imag) < 1e-12)
        assert np.allclose(real_roots, [np.pi * m / 10 for m in range(1, 10)], atol=1e-12)

    def test_residuals_below_tolerance(self):
        roots = analytics.impurity_quasimomentum_roots(1.0, 0.5, 4.0, 20)
        for k in roots:
            assert analytics.quasimomentum_residual(k, 1.0, 0.5, 4.0, 20) < 1e-12

    def test_full_root_set_reconstructs_dense_spectrum(self):
        N = 20
        roots = analytics.impurity_quasimomentum_roots(1.0, 0.5, 4.0, N)
        assert len(roots) == N
        lam = analytics.quasimomentum_eigenvalues(roots, 1.0, 4.0)
        dense = np.linalg.eigvals(netmodel.build_impurity_model(N, 1.0, 0.5, 4.0).generator)
        for l in lam:
            assert np.min(np.abs(dense - l)) < 1e-10

    def test_localized_branch_consistency(self):
        # the bound root has Im k > 0, i.e. |e^{ik}| < 1, and lands on lambda+
        for kappa, Gamma in ((0.3, 4.0), (0.5, 2.0), (0.7, 6.0)):
            N = 24
            roots = analytics.impurity_quasimomentum_roots(1.0, kappa, Gamma, N)
            k_loc = max(roots, key=lambda k: k.imag)
            assert k_loc.imag > 0
            assert abs(np.exp(1j * k_loc)) < 1
            lam = analytics.quasimomentum_eigenvalues([k_loc], 1.0, Gamma)[0]
            pred = analytics.impurity_prediction(1.0, kappa, Gamma)
            assert abs(lam - pred.lambda_plus) < 10 * math.exp(-N * k_loc.imag)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(RootFindingError):
            analytics.impurity_quasimomentum_roots(1.0, 0.5, 4.0, 12, tol=0.0)

    def test_small_chain_rejected(self):
        with pytest.raises(ValueError):
            analytics.impurity_quasimomentum_roots(1.0, 0.5, 4.0, 2)


class TestOddChainDarkState:
    def test_kernel_vector_is_exact(self):
        for N in (3, 7, 11):
            v, _ = analytics.ssh_odd_dark_state(N, 1.0, 1.8)
            H = netmodel.build_ssh_model(N, 1.0, 1.8, 0.5).matrix
            assert np.linalg.norm(H @ v) < 1e-13
            assert np.max(np.abs(v[1::2])) == 0.0

    def test_normalization_and_qubit_weight_identity(self):
        # A^2 * x equals the plateau formula: two closed forms, one value
        for N, J1, J2 in ((3, 1.0, 1.8), (7, 1.0, 1.8), (9, 0.7, 1.1)):
            v, a2 = analytics.ssh_odd_dark_state(N, J1, J2)
            x = abs(J1 / J2)
            plateau = analytics.ssh_odd_asymptotic_coherence(N, J1, J2)
            assert a2 * x == pytest.approx(plateau, abs=1e-14)
            assert abs(v[0]) ** 2 == pytest.approx(plateau, abs=1e-13)

    def test_mirrored_branch_localizes_at_far_end(self):
        v, _ = analytics.ssh_odd_dark_state(7, 1.0, 0.5)
        assert np.argmax(np.abs(v)) == 6

    def test_equal_bonds_limit(self):
        v, a2 = analytics.ssh_odd_dark_state(5, 1.3, 1.3)
        assert a2 == pytest.approx(2.0 / 6.0, abs=1e-14)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            analytics.ssh_odd_dark_state(4, 1.0, 1.8)


class TestOddChainPlateau:
    def test_reference_values(self):
        assert analytics.ssh_odd_asymptotic_coherence(3, 1.0, 1.8) == pytest.approx(
            0.7641509433962265, abs=1e-15
        )
        # trivial phase: exponentially small, 3/255 exactly at J2 = 1/2
        assert analytics.ssh_odd_asymptotic_coherence(7, 1.0, 0.5) == pytest.approx(
            3.0 / 255.0, abs=1e-15
        )
        assert analytics.ssh_odd_asymptotic_coherence(5, 1.3, 1.3) == pytest.approx(1 / 3)

    def test_trivial_phase_plateau_matches_dynamics(self):
        H = netmodel.build_ssh_model(7, 1.0, 0.5, 0.5)
        tr = dynamics.coherence_trace(H, np.array([100.0]))
        assert tr.values[0] == pytest.approx(3.0 / 255.0, abs=1e-3)

    def test_equal_bond_plateau_matches_dynamics(self):
        H = netmodel.build_ssh_model(5, 1.3, 1.3, 0.5)
        tr = dynamics.coherence_trace(H, np.array([100.0]))
        assert tr.values[0] == pytest.approx(1.0 / 3.0, abs=1e-3)


class TestEvenChainPrediction:
    def test_reference_point_n8(self):
        p = analytics.ssh_even_prediction(8, 1.0, 1.8, 0.5)
        assert p.threshold_ok
        assert p.tau_coh == pytest.approx(35.5794, rel=1e-4)
        assert p.overlap == pytest.approx(0.6915, abs=1e-4)
        assert p.e_y_first_order == pytest.approx(1.7887073602862549, abs=1e-13)
        # bisection root vs first order in d^{-N}: residual is O(N d^{-2N})
        assert math.exp(p.y) == pytest.approx(p.e_y_first_order, abs=3 * 8 * 1.8**-16)
        p20 = analytics.ssh_even_prediction(20, 1.0, 1.8, 0.5)
        assert math.exp(p20.y) == pytest.approx(p20.e_y_first_order, abs=1e-7)

    def test_momentum_equation_residual(self):
        for N in (6, 8, 12, 20):
            p = analytics.ssh_even_prediction(N, 1.0, 1.8, 0.5)
            res = math.sinh(N * p.y / 2) - (1 / 1.8) * math.sinh((N / 2 + 1) * p.y)
            assert abs(res) < 1e-12 * max(1.0, math.sinh((N / 2 + 1) * p.y))

    def test_momentum_approaches_log_d(self):
        for N in (8, 12, 16, 20, 30):
            p = analytics.ssh_even_prediction(N, 1.0, 1.8, 0.5)
            assert abs(math.exp(p.y) - 1.8) < 2 * 1.8 ** (-N + 1)

    def test_below_threshold(self):
        p = analytics.ssh_even_prediction(8, 1.0, 1.2, 0.5)   # d < 1 + 2/8
        assert not p.threshold_ok
        assert p.y is None and p.tau_coh is None and p.overlap is None

    def test_lambda_pair_structure(self):
        p = analytics.ssh_even_prediction(10, 1.0, 1.8, 0.5)
        assert p.lambda_plus.real == pytest.approx(-1.0 / p.tau_coh)
        assert p.lambda_minus.real == pytest.approx(-0.5 + 1.0 / p.tau_coh)
        assert p.h_convention["lambda_plus"] == pytest.approx(1j * p.lambda_plus)


class TestDarkSectorPrediction:
    def test_w1_constant_equals_plateau(self):
        sd = spectral.decompose(netmodel.build_ssh_model(7, 1.0, 1.8, 0.5))
        ts = np.array([0.0, 17.0, 60.0])
        pred = analytics.dark_sector_prediction(sd, 1e-10, ts)
        plateau = analytics.ssh_odd_asymptotic_coherence(7, 1.0, 1.8)
        assert np.allclose(pred, plateau, atol=1e-12)

    def test_rabi_oscillation_between_weight_combinations(self):
        sd = spectral.decompose(netmodel.build_three_site_model(8, 1.0, 0.3, 2.0, 0.7, 0, 0, 0.5))
        c = spectral.overlap_weights(sd, 1)
        dark = sd.decay_rates < 1e-10
        w1, w2 = np.abs(c[dark])
        omegas = sd.eigenvalues[dark].imag
        period = 2 * np.pi / abs(omegas[0] - omegas[1])
        t = np.linspace(0, 3 * period, 4000)
        pred = analytics.dark_sector_prediction(sd, 1e-10, t)
        assert np.max(pred) == pytest.approx(w1 + w2, abs=1e-4)
        assert np.min(pred) == pytest.approx(abs(w1 - w2), abs=1e-4)

    def test_no_dark_modes_returns_zero(self):
        sd = spectral.decompose(netmodel.build_impurity_model(4, 1.0, 0.5, 4.0))
        assert analytics.dark_sector_prediction(sd, 1e-10, 3.0) == 0.0

    def test_time_zero_sums_dark_weights(self):
        sd = spectral.decompose(netmodel.build_three_site_model(8, 1.0, 0.3, 2.0, 0.7, 0, 0, 0.5))
        val = analytics.dark_sector_prediction(sd, 1e-10, 0.0)
        assert 0 < val <= 1


class TestBenchmarkTable:
    def test_against_reference_values(self):
        rows = analytics.table1()
        want = {
            6: (6.9367, 10.9813, 0.5355, 0.6638),
            8: (31.8117, 35.5794, 0.6715, 0.6915),
            10: (111.1859, 115.2774, 0.6888, 0.6941),
            20: (4.1153e4, 4.1159e4, 0.6914, 0.6914),
        }
        for row in rows:
            te, tt, oe, ot = want[row.N]
            assert row.tau_exact == pytest.approx(te, rel=1e-3)
            assert row.tau_theory == pytest.approx(tt, rel=1e-3)
            assert row.overlap_exact == pytest.approx(oe, abs=1e-3)
            assert row.overlap_theory == pytest.approx(ot, abs=1e-3)

    def test_odd_sizes_rejected(self):
        with pytest.raises(ValueError):
            analytics.table1(N_list=(5,))

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "table.csv"
        with open(out, "w") as fh:
            analytics.write_table1_csv(fh, analytics.table1(N_list=(6, 8)))
        lines = out.read_text().splitlines()
        assert lines[0] == "N,tau_exact,tau_theory,overlap_exact,overlap_theory"
        assert len(lines) == 3
