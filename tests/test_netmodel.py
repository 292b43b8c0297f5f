import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhtop import netmodel
from nhtop.errors import SpecificationError
from conftest import random_network


class TestSiteAndNetworkSpecs:
    def test_qubit_with_loss_rejected(self):
        with pytest.raises(SpecificationError):
            netmodel.SiteSpec(netmodel.QUBIT, loss_rate=0.1)

    def test_negative_loss_rejected(self):
        with pytest.raises(SpecificationError):
            netmodel.SiteSpec(netmodel.CAVITY, loss_rate=-1.0)

    def test_nonfinite_detuning_rejected(self):
        with pytest.raises(SpecificationError):
            netmodel.SiteSpec(netmodel.CAVITY, detuning=np.inf)

    def test_site_one_must_be_qubit(self):
        with pytest.raises(SpecificationError):
            netmodel.NetworkSpec((netmodel.SiteSpec(netmodel.CAVITY, 0, 1),))

    def test_edge_index_validation(self):
        sites = (netmodel.SiteSpec(netmodel.QUBIT), netmodel.SiteSpec(netmodel.CAVITY, 0, 1))
        with pytest.raises(SpecificationError):
            netmodel.NetworkSpec(sites, ((1, 3, 1.0),))
        with pytest.raises(SpecificationError):
            netmodel.NetworkSpec(sites, ((2, 2, 1.0),))

    def test_duplicate_edges_rejected(self):
        sites = (netmodel.SiteSpec(netmodel.QUBIT), netmodel.SiteSpec(netmodel.CAVITY, 0, 1))
        with pytest.raises(SpecificationError):
            netmodel.NetworkSpec(sites, ((1, 2, 1.0), (2, 1, 0.5)))

    def test_qubit_qubit_edge_rejected(self):
        sites = (netmodel.SiteSpec(netmodel.QUBIT), netmodel.SiteSpec(netmodel.QUBIT))
        with pytest.raises(SpecificationError):
            netmodel.NetworkSpec(sites, ((1, 2, 1.0),))


class TestBuildEffectiveHamiltonian:
    def test_two_site(self):
        spec = netmodel.NetworkSpec(
            (netmodel.SiteSpec(netmodel.QUBIT), netmodel.SiteSpec(netmodel.CAVITY, 0.0, 4.0)),
            ((1, 2, 0.7),),
        )
        H = netmodel.build_effective_hamiltonian(spec)
        assert np.allclose(H.matrix, [[0, 0.7], [0.7, -2j]], atol=1e-15)

    def test_stored_matrix_is_exactly_symmetric(self):
        # an asymmetry within the validation tolerance is averaged away
        m = np.array([[0.0, 1.0], [1.0 + 1e-14, -0.5j]])
        H = netmodel.EffectiveHamiltonian(m)
        assert np.array_equal(H.matrix, H.matrix.T)
        assert np.array_equal(H.matrix, (m + m.T) / 2)
        assert not H.matrix.flags.writeable
        sym = netmodel.build_ssh_model(5, 1.0, 1.8, 0.5).matrix
        assert np.array_equal(netmodel.EffectiveHamiltonian(sym).matrix, sym)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_hopping_rejected(self, bad):
        with pytest.raises(SpecificationError, match="finite"):
            netmodel.EffectiveHamiltonian(np.array([[0, bad], [bad, -1j]]))

    @pytest.mark.parametrize("bad", [np.nan, complex(0, -np.inf)])
    def test_non_finite_on_site_term_rejected(self, bad):
        with pytest.raises(SpecificationError, match="finite"):
            netmodel.EffectiveHamiltonian(np.array([[0, 1], [1, bad]]))

    def test_no_edges_is_diagonal(self):
        spec = netmodel.NetworkSpec(
            (netmodel.SiteSpec(netmodel.QUBIT, 0.3), netmodel.SiteSpec(netmodel.CAVITY, -0.8, 2.0)),
        )
        H = netmodel.build_effective_hamiltonian(spec)
        assert np.allclose(H.matrix, np.diag([0.3, -0.8 - 1j]), atol=1e-15)

    def test_three_site_chain_matches_direct_eigensolve(self):
        spec = netmodel.NetworkSpec(
            (
                netmodel.SiteSpec(netmodel.QUBIT),
                netmodel.SiteSpec(netmodel.CAVITY, 0.0, 4.0),
                netmodel.SiteSpec(netmodel.CAVITY, 0.0, 4.0),
            ),
            ((1, 2, 1.0), (2, 3, 1.0)),
        )
        H = netmodel.build_effective_hamiltonian(spec)
        assert np.allclose(np.diag(H.matrix), [0, -2j, -2j], atol=1e-15)
        assert H.matrix[0, 1] == 1.0 and H.matrix[1, 2] == 1.0
        # independent oracle: dense eigensolve of the explicit matrix
        ref = np.array([[0, 1, 0], [1, -2j, 1], [0, 1, -2j]])
        got = np.sort_complex(np.linalg.eigvals(-1j * H.matrix))
        want = np.sort_complex(np.linalg.eigvals(-1j * ref))
        assert np.allclose(got, want, atol=1e-14)


class TestCanonicalBuilders:
    def test_impurity_smallest(self):
        H = netmodel.build_impurity_model(2, J=0.0, kappa=1.0, Gamma=4.0)
        assert np.allclose(H.matrix, [[0, 1], [1, -2j]], atol=1e-15)

    def test_impurity_size_error(self):
        with pytest.raises(SpecificationError):
            netmodel.build_impurity_model(1, 1.0, 0.5, 4.0)

    @pytest.mark.parametrize("network, args", [
        (netmodel.impurity_network, (1, 1.0, 0.5, 4.0)),
        (netmodel.ssh_network, (1, 1.0, 1.8, 0.5)),
        (netmodel.three_site_network, (2, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)),
    ])
    def test_network_size_error(self, network, args):
        with pytest.raises(SpecificationError):
            network(*args)

    def test_impurity_localized_eigenvalue(self):
        # frozen from the closed form -4 k^2/(Gamma + sqrt(16(J^2-k^2)+Gamma^2))
        lam_formula = -0.10762521851076509
        H = netmodel.build_impurity_model(400, 1.0, 0.5, 4.0)
        lam = np.linalg.eigvals(H.generator)
        slow = lam[np.argmax(lam.real)]
        assert abs(slow - lam_formula) < 1e-6
        H4 = netmodel.build_impurity_model(4, 1.0, 0.5, 4.0)
        slow4 = max(np.linalg.eigvals(H4.generator), key=lambda z: z.real)
        assert abs(slow4 - lam_formula) < 5e-3

    def test_impurity_decoupled_qubit(self):
        H = netmodel.build_impurity_model(5, 1.0, 0.0, 4.0)
        w, v = np.linalg.eig(H.generator)
        i = np.argmin(np.abs(w))
        assert abs(w[i]) < 1e-14
        vec = v[:, i] / v[np.argmax(np.abs(v[:, i])), i]
        assert np.allclose(vec, np.eye(5)[0], atol=1e-12)

    def test_ssh_two_site(self):
        H = netmodel.build_ssh_model(2, 1.3, 9.9, 0.5)
        assert np.allclose(H.matrix, [[0, 1.3], [1.3, -0.5j]], atol=1e-15)

    def test_ssh_odd_has_one_dark_state(self):
        H = netmodel.build_ssh_model(3, 1.0, 1.8, 0.5)
        w = np.linalg.eigvals(H.generator)
        assert np.sum(w.real > -1e-12) == 1

    def test_three_site_single_cell(self):
        H = netmodel.build_three_site_model(3, J1=1.0, J2=0.3, J3=2.0, J=0.7,
                                            eps1=0.1, eps2=-0.2, Gamma=0.5)
        want = np.array([[0.1, 1.0, 0.7], [1.0, -0.2, 0.3], [0.7, 0.3, -0.5j]])
        assert np.allclose(H.matrix, want, atol=1e-15)

    @pytest.mark.parametrize("params", [
        dict(J1=1.0, J2=0.3, J3=2.0, J=0.7, eps1=0.0, eps2=0.0, Gamma=0.5),
        dict(J1=1.4, J2=0.3, J3=3.0, J=0.7, eps1=0.0, eps2=0.0, Gamma=1.5),
        dict(J1=0.8, J2=1.1, J3=0.4, J=0.2, eps1=0.3, eps2=-0.1, Gamma=2.0),
    ])
    def test_three_site_two_exact_darks_when_n_mod_three_is_two(self, params):
        H = netmodel.build_three_site_model(5, **params)
        w = np.linalg.eigvals(H.generator)
        assert np.sum(-w.real < 1e-10) == 2

    def test_three_site_w2_quasi_darks_at_qubit(self):
        H = netmodel.build_three_site_model(8, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
        w, v = np.linalg.eig(H.generator)
        dark = np.flatnonzero(-w.real < 1e-10)
        assert dark.size == 2
        for i in dark:
            assert np.argmax(np.abs(v[:, i])) == 0  # peaked on the qubit


class TestDetuningDisorder:
    def test_zero_disorder_is_identity(self):
        H = netmodel.build_ssh_model(5, 1.0, 1.8, 0.5)
        H2 = netmodel.apply_detuning_disorder(H, np.zeros(5))
        assert np.array_equal(H2.matrix, H.matrix)

    def test_constant_shift_moves_eigenvalues_rigidly(self):
        H = netmodel.build_ssh_model(6, 1.0, 1.8, 0.5)
        c = 0.37
        H2 = netmodel.apply_detuning_disorder(H, np.full(6, c))
        w1 = np.sort_complex(np.linalg.eigvals(H.generator))
        w2 = np.sort_complex(np.linalg.eigvals(H2.generator))
        assert np.allclose(np.sort(w1.real), np.sort(w2.real), atol=1e-12)
        assert np.allclose(np.sort(w2.imag), np.sort((w1 - 1j * c).imag), atol=1e-12)

    def test_length_mismatch(self):
        H = netmodel.build_ssh_model(5, 1.0, 1.8, 0.5)
        with pytest.raises(SpecificationError):
            netmodel.apply_detuning_disorder(H, np.zeros(4))


class TestFullSuperoperator:
    def setup_method(self):
        self.spec = netmodel.impurity_network(4, 1.0, 0.5, 4.0)
        self.sop = netmodel.build_full_superoperator(self.spec)
        self.H = netmodel.build_effective_hamiltonian(self.spec)

    def test_vacuum_column_is_zero(self):
        assert np.all(self.sop.matrix[:, 0] == 0)

    def test_dissipator_on_coherences(self):
        # D(|0><j|) acts as -Gamma_j/2 on itself: the V01 diagonal carries it
        n = self.spec.size
        gam = np.array([0.0, 4.0, 4.0, 4.0])
        for j in range(1, n + 1):
            col = self.sop.matrix[:, self.sop.index_01(j)].copy()
            assert col[self.sop.index_01(j)].real == pytest.approx(-gam[j - 1] / 2)

    def test_v01_block_equals_reduced_generator(self):
        n = self.spec.size
        block = self.sop.matrix[1:n + 1, 1:n + 1]
        assert np.max(np.abs(block - self.H.generator)) < 1e-14

    def test_trace_functional_annihilated(self):
        n = self.spec.size
        tr = np.zeros(self.sop.dim)
        tr[self.sop.index_00()] = 1.0
        for j in range(1, n + 1):
            tr[self.sop.index_11(j, j)] = 1.0
        assert np.max(np.abs(tr @ self.sop.matrix)) < 1e-14

    def test_spectrum_inclusion(self):
        w_red = np.linalg.eigvals(self.H.generator)
        w_full = np.linalg.eigvals(self.sop.matrix)
        for lam in w_red:
            assert np.min(np.abs(w_full - lam)) < 1e-10


def _block_mask(n):
    """Allowed nonzero blocks: V01, V10, V11 diagonal blocks plus V11 -> V00."""
    d = (n + 1) ** 2
    mask = np.zeros((d, d), dtype=bool)
    mask[1:n + 1, 1:n + 1] = True
    mask[n + 1:2 * n + 1, n + 1:2 * n + 1] = True
    mask[2 * n + 1:, 2 * n + 1:] = True
    mask[0, 2 * n + 1:] = True
    return mask


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_block_structure_is_exact(seed):
    rng = np.random.default_rng(seed)
    spec = random_network(rng)
    sop = netmodel.build_full_superoperator(spec)
    outside = sop.matrix[~_block_mask(spec.size)]
    assert np.all(outside == 0)
    # trace preservation: the trace functional annihilates the generator
    tr = np.zeros(sop.dim)
    tr[sop.index_00()] = 1.0
    for j in range(1, spec.size + 1):
        tr[sop.index_11(j, j)] = 1.0
    assert np.max(np.abs(tr @ sop.matrix)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_generator_spectrum_never_grows(seed):
    rng = np.random.default_rng(seed)
    spec = random_network(rng)
    H = netmodel.build_effective_hamiltonian(spec)
    w = np.linalg.eigvals(H.generator)
    scale = max(1.0, float(np.max(np.abs(H.matrix))))
    assert np.max(w.real) <= 1e-10 * scale


class TestModelDispatchAndJson:
    def test_dispatch_rejects_unknown_keys(self):
        with pytest.raises(SpecificationError):
            netmodel.build_model("ssh", 4, {"J1": 1, "J2": 1.8, "Gamma": 0.5, "bogus": 1})
        with pytest.raises(SpecificationError):
            netmodel.build_model("ssh", 4, {"J1": 1})

    def test_network_equivalents_match_builders(self):
        pairs = [
            ("impurity", 5, {"J": 1.0, "kappa": 0.5, "Gamma": 4.0}),
            ("ssh", 6, {"J1": 1.0, "J2": 1.8, "Gamma": 0.5}),
            ("three-site", 8, {"J1": 1.0, "J2": 0.3, "J3": 2.0, "J": 0.7,
                               "eps1": 0.1, "eps2": -0.2, "Gamma": 0.5}),
        ]
        for model, n, params in pairs:
            direct = netmodel.build_model(model, n, params)
            via_net = netmodel.build_effective_hamiltonian(
                netmodel.network_for_model(model, n, params)
            )
            assert np.max(np.abs(direct.matrix - via_net.matrix)) < 1e-15

    def test_parse_network_json_custom(self):
        data = {
            "model": "custom",
            "custom": {
                "sites": [
                    {"kind": "qubit"},
                    {"kind": "cavity", "detuning": 0.0, "gamma": 4.0},
                ],
                "edges": [{"i": 1, "j": 2, "J": 0.7}],
            },
        }
        H = netmodel.parse_network_json(data)
        assert np.allclose(H.matrix, [[0, 0.7], [0.7, -2j]], atol=1e-15)

    @pytest.mark.parametrize("custom, message", [
        ({"sites": [{"gamma": 1.0}]}, "custom site 1 lacks 'kind'"),
        ({"sites": [{"kind": "qubit"}, {"gamma": 1.0}]}, "custom site 2 lacks 'kind'"),
        ({"sites": [{"kind": "qubit"}, {"kind": "cavity"}], "edges": [{"j": 2, "J": 1.0}]},
         "custom edge 1 lacks 'i'"),
        ({"sites": [{"kind": "qubit"}, {"kind": "cavity"}], "edges": [{"i": 1, "J": 1.0}]},
         "custom edge 1 lacks 'j'"),
        ({"sites": [{"kind": "qubit"}, {"kind": "cavity"}], "edges": [{"i": 1, "j": 2}]},
         "custom edge 1 lacks 'J'"),
    ])
    def test_parse_network_json_names_missing_keys(self, custom, message):
        with pytest.raises(SpecificationError, match=message):
            netmodel.parse_network_json({"model": "custom", "custom": custom})

    def test_parse_network_json_rejects_unknown_keys(self):
        with pytest.raises(SpecificationError):
            netmodel.parse_network_json({"model": "ssh", "N": 4, "params": {}, "oops": 1})
        with pytest.raises(SpecificationError):
            netmodel.parse_network_json({"model": "nope", "N": 4})
