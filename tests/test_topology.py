import numpy as np
import pytest

from nhtop import netmodel, topology
from nhtop.errors import GapClosureError, PhaseBoundaryError, SpecificationError


class TestBlochMatrices:
    def test_ssh_at_k_zero(self):
        b = topology.bloch_ssh(1.0, 1.8, 0.5)
        assert np.allclose(b(0.0), [[0, 2.8], [2.8, -0.5j]], atol=1e-15)

    def test_ssh_dispersion(self):
        J1, J2, G = 1.0, 1.8, 0.5
        b = topology.bloch_ssh(J1, J2, G)
        for k in (0.3, 1.1, 2.9):
            rad = np.sqrt(complex(J1**2 + J2**2 + 2 * J1 * J2 * np.cos(k) - G**2 / 4))
            want = np.sort_complex(np.array([-1j * G / 2 + rad, -1j * G / 2 - rad]))
            got = np.sort_complex(np.linalg.eigvals(b(k)))
            assert np.allclose(got, want, atol=1e-12)

    def test_weak_loss_regime_decays_at_half_gamma(self):
        # Gamma^2/4 < (J1-J2)^2: every Bloch mode decays at Gamma/2
        J1, J2, G = 1.0, 1.8, 0.5
        assert G**2 / 4 < (J1 - J2) ** 2
        b = topology.bloch_ssh(J1, J2, G)
        for k in np.linspace(0, 2 * np.pi, 40):
            decay = -np.imag(np.linalg.eigvals(b(k)))
            assert np.allclose(decay, G / 2, atol=1e-12)

    def test_three_site_entries_and_hermitian_block(self):
        b = topology.bloch_three_site(1.0, 0.3, 2.0, 0.7, 0.1, -0.2, 0.5)
        for k in (0.0, 1.3, 5.0):
            m = b(k)
            assert m[0, 2] == pytest.approx(2.0 * np.exp(1j * k) + 0.7)
            block = m[:2, :2]
            assert np.allclose(block, block.conj().T, atol=1e-15)

    def test_lossless_cell_rejected(self):
        with pytest.raises(SpecificationError):
            topology.bloch_ssh(1.0, 1.8, 0.0)


class TestNumericWinding:
    @pytest.mark.parametrize("J2,w", [(1.8, 1), (0.5, 0)])
    def test_ssh_phases(self, J2, w):
        res = topology.winding_number_numeric(topology.bloch_ssh(1.0, J2, 0.5))
        assert res.W == w
        assert res.method == "numeric"
        assert res.max_phase_step < np.pi / 2

    @pytest.mark.parametrize("J3,w", [(0.2, 0), (0.7, 1), (2.0, 2)])
    def test_three_site_phases(self, J3, w):
        bloch = topology.bloch_three_site(1.0, 0.3, J3, 0.7, 0.0, 0.0, 0.5)
        assert topology.winding_number_numeric(bloch).W == w

    def test_gap_closure_raises(self):
        with pytest.raises(GapClosureError):
            topology.winding_number_numeric(topology.bloch_ssh(1.0, 1.0, 0.5))

    def test_no_k_dependence_means_zero(self):
        bloch = topology.bloch_three_site(1.0, 0.3, 0.0, 0.7, 0.0, 0.0, 0.5)
        assert topology.winding_number_numeric(bloch).W == 0

    def test_grid_refinement_stability(self):
        bloch = topology.bloch_three_site(1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
        a = topology.winding_number_numeric(bloch, 64)
        b = topology.winding_number_numeric(bloch, 128)
        c = topology.winding_number_numeric(bloch, 512)
        assert a.W == b.W == c.W == 2

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            topology.winding_number_numeric(topology.bloch_ssh(1.0, 1.8, 0.5), 32)

    def test_gauge_phase_randomization_invariance(self):
        # multiplying the eigenbasis columns by arbitrary phases before the
        # gauge fix must not move det U(k)
        rng = np.random.default_rng(11)
        h = np.array([[0.0, 1.0], [1.0, 0.3]])
        v = np.array([0.7 + 0.2j, -0.4 + 0.9j])
        evals, q = np.linalg.eigh(h)
        z = v @ np.conj(q)
        u_ref = np.linalg.det(q) * np.prod(z / np.abs(z))
        for _ in range(25):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            q2 = q * phases[None, :]
            z2 = v @ np.conj(q2)
            u2 = np.linalg.det(q2) * np.prod(z2 / np.abs(z2))
            assert abs(u2 - u_ref) < 1e-12

    def test_basis_conjugation_invariance(self):
        # a k-independent diagonal-phase change of basis is a pure gauge
        rng = np.random.default_rng(5)
        base = topology.bloch_three_site(1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
        alpha = rng.uniform(0, 2 * np.pi, 2)
        D = np.diag(np.exp(1j * np.concatenate([alpha, [0.0]])))

        gauged = topology.BlochHamiltonian(3, lambda k: D @ base(k) @ D.conj().T, {})
        assert topology.winding_number_numeric(gauged).W == 2

    @pytest.mark.parametrize("m,w", [(1, 3), (-1, 1), (-2, 0)])
    def test_k_dependent_block_relabeling_shifts_winding(self, m, w):
        # relabeling site 1 by one cell per winding m makes the non-lossy
        # block genuinely k-dependent and shifts W by exactly m; this drives
        # the per-k diagonalization path with a known answer
        base = topology.bloch_three_site(1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)

        def gauged_eval(k):
            D = np.diag([np.exp(1j * m * k), 1.0, 1.0])
            return D @ base(k) @ D.conj().T

        gauged = topology.BlochHamiltonian(3, gauged_eval, {})
        assert topology.winding_number_numeric(gauged).W == w


def test_degenerate_gauge_rotation_stays_unitary():
    # direct check of the degenerate-subspace rotation: only one rotated
    # column may keep overlap with the coupling vector, and the basis must
    # remain unitary even for complex couplings over a real block
    from nhtop.topology import _gauge_basis

    h = np.diag([1.0, 1.0, 2.0])
    v = np.array([0.3, -0.5j, 0.7])
    q = _gauge_basis(h, v)
    assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-13)
    assert np.allclose(q.conj().T @ h @ q, h, atol=1e-13)
    overlaps = np.abs(q.conj().T @ v)
    assert overlaps[1] < 1e-13          # rotated out of the coupling
    assert overlaps[0] == pytest.approx(np.hypot(0.3, 0.5), abs=1e-13)


class TestClosedForms:
    def test_ssh_values(self):
        assert topology.winding_ssh_closed_form(1.0, 1.8).W == 1
        assert topology.winding_ssh_closed_form(1.0, 0.5).W == 0

    def test_ssh_boundary(self):
        with pytest.raises(PhaseBoundaryError):
            topology.winding_ssh_closed_form(1.0, 1.0)

    @pytest.mark.parametrize("J3,w", [(0.2, 0), (0.7, 1), (2.0, 2)])
    def test_three_site_reduced_form(self, J3, w):
        # Theta(|J3| > |J + J2|) + Theta(|J3| > |J - J2|) at eps1 = eps2
        assert topology.winding_three_site_closed_form(1.0, 0.3, J3, 0.7).W == w

    def test_three_site_boundary(self):
        with pytest.raises(PhaseBoundaryError):
            topology.winding_three_site_closed_form(1.0, 0.3, 1.0, 0.7)

    @pytest.mark.parametrize("J1,eps1", [(0.0, 1.0), (0.5, 2.0), (0.0, -1.0)])
    def test_three_site_outside_formula_domain(self, J1, eps1):
        # tan(theta/2) = 0, |arg| > 1 and 4 J1^2 + (eps1 - eps2) <= 0
        with pytest.raises(SpecificationError, match="published three-site winding formula"):
            topology.winding_three_site_closed_form(J1, 0.3, 2.0, 0.7, eps1, 0.0)

    def test_nonzero_detuning_split_keeps_equal_case(self):
        # equal detunings reduce to the symmetric thresholds for any value
        a = topology.winding_three_site_closed_form(1.0, 0.3, 2.0, 0.7, 0.4, 0.4)
        assert a.W == 2


def test_closed_form_agrees_with_numeric_on_random_points():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        J1 = rng.uniform(0.2, 2.0)
        J2 = rng.uniform(0.05, 2.0)
        G = rng.uniform(0.2, 2.0)
        if checked % 2 == 0:
            if abs(abs(J1) - abs(J2)) < 1e-3:
                continue
            wc = topology.winding_ssh_closed_form(J1, J2).W
            wn = topology.winding_number_numeric(topology.bloch_ssh(J1, J2, G)).W
        else:
            J3 = rng.uniform(0.05, 2.5)
            J = rng.uniform(0.0, 1.5)
            if min(abs(abs(J3) - abs(J + J2)), abs(abs(J3) - abs(J - J2))) < 1e-3:
                continue
            wc = topology.winding_three_site_closed_form(J1, J2, J3, J).W
            wn = topology.winding_number_numeric(
                topology.bloch_three_site(J1, J2, J3, J, 0.0, 0.0, G)
            ).W
        assert wn == wc
        checked += 1


def test_ssh_transition_only_at_equal_bonds():
    # sweep J2 across the transition on an offset grid; W flips exactly once
    values = []
    for J2 in np.arange(0.205, 1.8, 0.01):
        values.append(topology.winding_ssh_closed_form(1.0, float(J2)).W)
    flips = np.flatnonzero(np.diff(values))
    assert len(flips) == 1
    assert values[flips[0]] == 0 and values[flips[0] + 1] == 1
    j2_at_flip = 0.205 + 0.01 * (flips[0] + 1)
    assert abs(j2_at_flip - 1.0) < 0.011


class TestBulkEdgeReport:
    def test_ssh_even_scaling_slope(self):
        rep = topology.bulk_edge_report("ssh", {"J1": 1.0, "J2": 1.8, "Gamma": 0.5},
                                        [8, 12, 16, 20])
        assert rep.W_closed_form == 1
        slowest = rep.fits[0]
        assert slowest.exponential
        assert slowest.slope == pytest.approx(-np.log(1.8), rel=0.05)

    def test_three_site_w2_branches(self):
        params = {"J1": 1.4, "J2": 0.3, "J3": 3.0, "J": 0.7,
                  "eps1": 0.0, "eps2": 0.0, "Gamma": 1.5}
        rep = topology.bulk_edge_report("three-site", params, [6, 9, 12, 15, 18])
        assert rep.W_closed_form == 2
        assert rep.n_exponential_branches == 2

    def test_ssh_below_even_threshold_has_no_edge_modes(self):
        # d = 1.2 < 1 + 2/8: no protected mode at N=8
        rep = topology.bulk_edge_report("ssh", {"J1": 1.0, "J2": 1.2, "Gamma": 0.5},
                                        [8, 10, 12, 14], eps_dark=1e-3)
        assert rep.rows[0].n_quasi_dark == 0

    def test_localized_count_matches_w_at_fig_parameters(self):
        params = {"J1": 1.4, "J2": 0.3, "J3": 3.0, "J": 0.7,
                  "eps1": 0.0, "eps2": 0.0, "Gamma": 1.5}
        rep = topology.bulk_edge_report("three-site", params, [9, 12, 15, 18])
        for row in rep.rows[2:]:      # once both branches are under threshold
            assert row.n_localized_site1 == rep.W_closed_form

    def test_flat_branch_fits_with_unit_r_squared(self, monkeypatch):
        # every N decomposes to the same spectrum, so each branch is flat in N
        sd = topology.decompose(netmodel.build_ssh_model(8, 1.0, 1.8, 0.5))
        monkeypatch.setattr(topology, "decompose", lambda H: sd)
        rep = topology.bulk_edge_report("ssh", {"J1": 1.0, "J2": 1.8, "Gamma": 0.5},
                                        [8, 10, 12, 14])
        assert len(rep.fits) == 3
        assert all(f.r_squared == 1.0 and not f.exponential for f in rep.fits)

    def test_report_csv(self, tmp_path):
        rep = topology.bulk_edge_report("ssh", {"J1": 1.0, "J2": 1.8, "Gamma": 0.5},
                                        [8, 12, 16, 20])
        out = tmp_path / "report.csv"
        with open(out, "w") as fh:
            topology.write_report_csv(fh, rep)
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "N,n_quasi_dark,n_localized_site1,W_closed_form,slowest_decay_rate"
        assert len([l for l in lines if not l.startswith("#")]) == 5
