import numpy as np
import pytest

from nhtop import disorder, dynamics, netmodel, spectral

SSH_PARAMS = {"J1": 1.0, "J2": 1.8, "Gamma": 0.5}


def _cfg(mu, n_real=50, seed=99, times=(0.0, 50.0), **kw):
    return disorder.DisorderConfig(
        model="ssh", N=7, params=SSH_PARAMS, mu=mu,
        n_realizations=n_real, base_seed=seed, times=np.array(times), **kw
    )


class TestPrng:
    def test_draws_are_deterministic(self):
        a = disorder.draw_detunings(123, 7, 5, 0.4)
        b = disorder.draw_detunings(123, 7, 5, 0.4)
        assert np.array_equal(a, b)

    def test_draws_depend_on_realization(self):
        a = disorder.draw_detunings(123, 0, 5, 0.4)
        b = disorder.draw_detunings(123, 1, 5, 0.4)
        assert not np.array_equal(a, b)

    def test_range_and_rough_uniformity(self):
        vals = np.concatenate([disorder.draw_detunings(5, r, 11, 0.8) for r in range(400)])
        assert np.all(vals >= -0.8) and np.all(vals < 0.8)
        assert abs(np.mean(vals)) < 0.02
        assert np.var(vals) == pytest.approx(0.8**2 / 3, rel=0.05)


class TestEnsemble:
    def test_zero_width_equals_clean_bit_exactly(self):
        res = disorder.run_ensemble(_cfg(0.0))
        assert np.array_equal(res.mean_trace.values, res.clean_trace.values)
        assert np.all(res.stderr_trace == 0.0)
        direct = dynamics.coherence_trace(
            netmodel.build_model("ssh", 7, SSH_PARAMS), np.array([0.0, 50.0])
        )
        assert np.array_equal(res.mean_trace.values, direct.values)

    def test_reproducibility(self):
        r1 = disorder.run_ensemble(_cfg(0.4))
        r2 = disorder.run_ensemble(_cfg(0.4))
        assert np.array_equal(r1.mean_trace.values, r2.mean_trace.values)
        assert np.array_equal(r1.stderr_trace, r2.stderr_trace)

    def test_masked_sites_receive_no_noise(self):
        res = disorder.run_ensemble(_cfg(0.8, site_mask=(False,) * 7))
        assert np.array_equal(res.mean_trace.values, res.clean_trace.values)

    def test_qubit_only_mask_differs_from_all_site(self):
        r_all = disorder.run_ensemble(_cfg(0.8))
        mask = (True,) + (False,) * 6
        r_qubit = disorder.run_ensemble(_cfg(0.8, site_mask=mask))
        assert not np.array_equal(r_all.mean_trace.values, r_qubit.mean_trace.values)

    def test_stored_realizations(self):
        res = disorder.run_ensemble(_cfg(0.4, n_real=8, store_realizations=True))
        assert res.realizations.shape == (8, 2)

    def test_monotone_degradation_with_noise(self):
        means, errs = [], []
        for mu in (0.0, 0.4, 0.8):
            res = disorder.run_ensemble(_cfg(mu, n_real=300))
            means.append(res.mean_trace.values[-1])
            errs.append(res.stderr_trace[-1])
        assert means[0] - means[1] > 2 * (errs[0] + errs[1])
        assert means[1] - means[2] > 2 * (errs[1] + errs[2])

    def test_constant_detuning_leaves_decay_rates_unchanged(self):
        H = netmodel.build_model("ssh", 7, SSH_PARAMS)
        shifted = netmodel.apply_detuning_disorder(H, np.full(7, 0.37))
        r0 = np.sort(spectral.decompose(H).decay_rates)
        r1 = np.sort(spectral.decompose(shifted).decay_rates)
        assert np.allclose(r0, r1, atol=1e-12)

    def test_non_finite_trace_counts_as_failed(self, monkeypatch):
        real = disorder.coherence_trace
        calls = []

        def spoiled(H, times):
            calls.append(1)
            tr = real(H, times)
            if len(calls) == 3:  # call 1 is the clean trace, so this is realization 1
                return dynamics.CoherenceTrace(tr.times, [tr.values[0], np.nan], tr.method)
            return tr

        monkeypatch.setattr(disorder, "coherence_trace", spoiled)
        res = disorder.run_ensemble(_cfg(0.4, n_real=5))
        assert (res.n_ok, res.n_failed) == (4, 1)
        assert np.all(np.isfinite(res.mean_trace.values))

    def test_failed_realization_is_masked_by_its_whole_row(self, monkeypatch):
        real = disorder._realization_values

        def spoiled(H0, cfg, r):
            values = np.array(real(H0, cfg, r))
            if r == 1:
                values[-1] = np.nan  # column 0 stays finite
            return values

        monkeypatch.setattr(disorder, "_realization_values", spoiled)
        res = disorder.run_ensemble(_cfg(0.4, n_real=5, store_realizations=True))
        assert (res.n_ok, res.n_failed) == (4, 1)
        assert res.realizations.shape == (4, 2)
        assert np.all(np.isfinite(res.mean_trace.values))
        assert np.all(np.isfinite(res.stderr_trace))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _cfg(-0.1)
        with pytest.raises(ValueError):
            _cfg(0.1, n_real=0)
        with pytest.raises(ValueError):
            _cfg(0.1, site_mask=(True,) * 3)


def test_config_leaves_caller_time_grid_writeable():
    grid = np.array([0.0, 50.0])
    cfg = disorder.DisorderConfig(model="ssh", N=7, params=SSH_PARAMS, mu=0.1,
                                  n_realizations=5, base_seed=99, times=grid)
    assert grid.flags.writeable
    assert not cfg.times.flags.writeable


def test_csv_output(tmp_path):
    cfg = _cfg(0.4, n_real=5)
    res = disorder.run_ensemble(cfg)
    out = tmp_path / "ens.csv"
    with open(out, "w") as fh:
        disorder.write_ensemble_csv(fh, cfg, res)
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "t,mean_coherence,stderr,n_ok"
    assert len(data) == 3
    assert data[1].endswith(",5")
    assert any(l.startswith("# mu=") for l in lines)
