import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nhtop import netmodel, topology
from nhtop.cli import main
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

    def test_cells_derived_from_the_chains_equal_the_published_cells(self):
        # the published Bloch matrices, written out, against the ones read off
        # each chain's two-cell open chain
        rng = np.random.default_rng(5)
        for k in np.concatenate([[0.0, np.pi, 2 * np.pi], rng.uniform(0, 2 * np.pi, 20)]):
            J1, J2, G = rng.uniform(-2, 2, 3) + [0, 0, 2.5]
            v = J1 + J2 * np.exp(1j * k)
            np.testing.assert_array_equal(topology.bloch_ssh(J1, J2, G)(k),
                                          [[0.0, v], [np.conj(v), -1j * G]])
            J1, J2, J3, J, e1, e2 = rng.uniform(-2, 2, 6)
            t13 = J3 * np.exp(1j * k) + J
            want = [[e1, J1, t13], [J1, e2, J2], [np.conj(t13), J2, -1j * G]]
            np.testing.assert_array_equal(topology.bloch_three_site(J1, J2, J3, J, e1, e2, G)(k),
                                          want)
        # an array of k evaluates to the same matrices, stacked, in one call
        ks = np.concatenate([[0.0, np.pi], rng.uniform(0, 2 * np.pi, 17)])
        for bloch in (topology.bloch_ssh(1.0, 1.8, 0.5),
                      topology.bloch_three_site(1.0, 0.3, 2.0, 0.7, 0.1, -0.2, 0.5)):
            np.testing.assert_array_equal(bloch(ks), np.stack([bloch(k) for k in ks]))
            assert bloch(ks.reshape(1, 19)).shape == (1, 19) + (bloch.cell_size,) * 2

    def test_lossless_cell_rejected(self):
        with pytest.raises(SpecificationError):
            topology.bloch_ssh(1.0, 1.8, 0.0)


class TestCustomEvaluator:
    # the checks a hand-written evaluator can trip, which no chain reaches
    @staticmethod
    def _ssh_cell(k, shift=0.0):
        # the ssh cell [[0, v], [conj v, -0.5 i]] with v = 1 + 1.8 e^{i (1 + shift) k}
        v = 1.0 + 1.8 * np.exp(1j * k * (1 + shift))
        m = np.zeros(k.shape + (2, 2), dtype=complex)
        m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = v, np.conj(v), -0.5j
        return m

    def test_well_formed_evaluator_is_accepted(self):
        assert topology.winding_number_numeric(
            topology.BlochHamiltonian(2, self._ssh_cell)).W == 1

    def test_not_periodic(self):
        with pytest.raises(SpecificationError, match="2\\*pi periodic"):
            topology.BlochHamiltonian(2, lambda k: self._ssh_cell(k, shift=0.5))

    def test_wrongly_shaped(self):
        # a per-k evaluator returns one matrix for the whole grid
        with pytest.raises(SpecificationError, match="wrongly shaped"):
            topology.BlochHamiltonian(2, lambda k: np.array([[0.0, 1.0], [1.0, -0.5j]]))

    def test_non_hermitian_lossless_block(self):
        def cell(k):
            m = np.zeros(k.shape + (3, 3), dtype=complex)
            # symmetric, not Hermitian, and too weak to outgrow the loss
            m[..., 0, 1] = m[..., 1, 0] = 1.0 + 0.05j
            m[..., 0, 2] = 0.7 + 2.0 * np.exp(1j * k)
            m[..., 2, 0] = np.conj(m[..., 0, 2])
            m[..., 1, 2] = m[..., 2, 1] = 0.3
            m[..., 2, 2] = -0.5j
            return m

        bloch = topology.BlochHamiltonian(3, cell)
        with pytest.raises(SpecificationError, match="non-lossy block must be Hermitian"):
            topology.winding_number_numeric(bloch)

    @pytest.mark.parametrize("cell_size,site", [(2, 0), (3, 0), (3, 1)])
    def test_lossy_site_not_last(self, cell_size, site):
        base = (topology.bloch_ssh(1.0, 1.8, 0.5) if cell_size == 2
                else topology.bloch_three_site(1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5))
        order = list(range(cell_size - 1))
        order.insert(site, cell_size - 1)        # the lossy site moves to ``site``
        with pytest.raises(SpecificationError,
                           match=f"last of the cell \\(site {cell_size - 1}\\); "
                                 f"loss is on site {site}"):
            topology.BlochHamiltonian(cell_size, lambda k: base(k)[..., order, :][..., order])


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

    @staticmethod
    def _gauge_phases(mats):
        # the published gauge-fixed det U(k): eigh of the non-lossy block h,
        # z_j = q_j^dagger v, det U = det q / |det q| * prod_j z_j / |z_j|
        n = mats.shape[-1] - 1
        q = np.linalg.eigh(mats[:, :n, :n])[1]
        z = np.einsum("kij,ki->kj", np.conj(q), mats[:, :n, n])
        dq = np.linalg.det(q)
        return dq / np.abs(dq) * np.prod(z / np.abs(z), axis=1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_krylov_phases_equal_the_gauge_phases(self, data):
        bond = st.floats(-2.0, 2.0)
        gamma = st.floats(0.1, 3.0)
        if data.draw(st.booleans(), label="ssh"):
            bloch = topology.bloch_ssh(data.draw(bond), data.draw(bond), data.draw(gamma))
        else:
            bloch = topology.bloch_three_site(*(data.draw(bond) for _ in range(4)),
                                              data.draw(st.floats(-1.5, 1.5)),
                                              data.draw(st.floats(-1.5, 1.5)), data.draw(gamma))
            m = data.draw(st.integers(-3, 3), label="relabeling")
            if m:
                bloch = self._relabeled(bloch, m)
        mats = bloch(np.linspace(0.0, 2 * np.pi, 64, endpoint=False))
        try:
            topology._check_no_dark_state(mats)
        except GapClosureError:
            assume(False)
        krylov = topology._krylov_phases(mats)
        assert np.max(np.abs(krylov - self._gauge_phases(mats))) < 1e-12

    def test_krylov_phases_near_a_degenerate_block(self):
        # a common detuning of 1.1 over a block split by 3e-5: without the
        # mean-diagonal shift det K cancels to a 3e-11 phase error
        bloch = topology.bloch_three_site(-1.45e-5, 0.288, 0.299, 0.473, 1.135, 1.135, 2.86)
        mats = bloch(np.linspace(0.0, 2 * np.pi, 64, endpoint=False))
        topology._check_no_dark_state(mats)
        krylov = topology._krylov_phases(mats)
        assert np.max(np.abs(krylov - self._gauge_phases(mats))) < 1e-12

    def test_basis_conjugation_invariance(self):
        # a k-independent diagonal-phase change of basis is a pure gauge
        rng = np.random.default_rng(5)
        base = topology.bloch_three_site(1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
        alpha = rng.uniform(0, 2 * np.pi, 2)
        D = np.diag(np.exp(1j * np.concatenate([alpha, [0.0]])))

        # ``base(k)`` has shape k.shape + (3, 3); ``@`` broadcasts D over the grid
        gauged = topology.BlochHamiltonian(3, lambda k: D @ base(k) @ D.conj().T)
        assert topology.winding_number_numeric(gauged).W == 2

    @staticmethod
    def _relabeled(base, m):
        # D H(k) D^dagger with D = diag(e^{imk}, 1, 1), over an array of k
        def gauged_eval(k):
            d = np.ones(k.shape + (3,), dtype=complex)
            d[..., 0] = np.exp(1j * m * k)
            return d[..., :, None] * base(k) * np.conj(d[..., None, :])

        return topology.BlochHamiltonian(3, gauged_eval)

    @pytest.mark.parametrize("m,w", [(1, 3), (-1, 1), (-2, 0)])
    def test_k_dependent_block_relabeling_shifts_winding(self, m, w):
        # relabeling site 1 by one cell per winding m makes the non-lossy
        # block genuinely k-dependent and shifts W by exactly m; this drives
        # the stacked Krylov chain with a k-dependent block and a known answer
        base = topology.bloch_three_site(1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
        assert topology.winding_number_numeric(self._relabeled(base, m)).W == w

    def test_one_evaluator_call_per_grid_level(self):
        # W = 22 needs steps of 2 pi 22 / 64 > pi/2, so the grid doubles once
        base = topology.bloch_three_site(1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
        gauged = self._relabeled(base, 20)
        shapes = []
        counted = topology.BlochHamiltonian(
            3, lambda k: shapes.append(k.shape) or gauged.evaluator(k))
        assert shapes == [(2,)]                        # the periodicity and loss checks
        res = topology.winding_number_numeric(counted, 64)
        assert (res.W, res.k_points) == (22, 128)
        assert shapes == [(2,), (64,), (128,)]

    @pytest.mark.parametrize("params", [
        # J1 = 0, eps1 = eps2: a degenerate non-lossy block at every k
        (0.0, 0.3, 2.0, 0.7, 0.2, 0.2, 0.5),
        # J2 = 0, J3 = J: the coupling to the lossy site vanishes at k = pi
        (1.0, 0.0, 0.3, 0.3, 0.0, 0.0, 0.5),
    ], ids=["degenerate-block", "vanishing-component"])
    def test_undefined_gauge_is_a_dark_state(self, params):
        # where det U(k) is undefined, H(k) has a real eigenvalue
        with pytest.raises(GapClosureError, match="dark state on the k-grid"):
            topology.winding_number_numeric(topology.bloch_three_site(*params))

    def test_too_large_grid_rejected(self, capsys):
        # only 2^17 + 1 is tried: without the bound, a large --n-k would build
        # a grid of that many cell matrices
        assert main(["winding", "--model", "ssh", "--n-k", str(topology.MAX_KPOINTS + 1)]) == 2
        assert capsys.readouterr().err == (
            f"nhtop: configuration error: n_k must be at most {topology.MAX_KPOINTS}; "
            f"got {topology.MAX_KPOINTS + 1}\n")


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
        assert sum(f.exponential for f in rep.fits) == 2

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

    def test_repeated_sizes_rejected(self):
        with pytest.raises(ValueError, match=r"repeated: \[6\]"):
            topology.bulk_edge_report("ssh", {"J1": 1.0, "J2": 1.8, "Gamma": 0.5},
                                      [6, 6, 6, 9])

    def test_unsupported_model_rejected(self):
        with pytest.raises(SpecificationError, match="'impurity' has no winding number"):
            topology.bulk_edge_report("impurity", {"J": 1.0, "kappa": 0.5, "Gamma": 4.0},
                                      [4, 6, 8, 10])

    def test_flat_branch_fits_with_unit_r_squared(self, monkeypatch):
        # every N decomposes to the same spectrum, so each branch is flat in N
        sd = topology.decompose(netmodel.build_ssh_model(8, 1.0, 1.8, 0.5))
        monkeypatch.setattr(topology, "decompose", lambda H: sd)
        rep = topology.bulk_edge_report("ssh", {"J1": 1.0, "J2": 1.8, "Gamma": 0.5},
                                        [8, 10, 12, 14])
        assert len(rep.fits) == 3
        assert all(f.r_squared == 1.0 and not f.exponential for f in rep.fits)

    def test_report_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["scaling", "--model", "ssh", "--J1", "1", "--J2", "1.8", "--gamma", "0.5",
                     "--Ns", "8,12,16,20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "N,n_quasi_dark,n_localized_site1,W_closed_form,slowest_decay_rate"
        assert len([l for l in lines if not l.startswith("#")]) == 5
