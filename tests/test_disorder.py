import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nhtop import disorder, dynamics, netmodel, spectral
from nhtop.cli import main

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


def _per_realization_draw(base_seed, r, n, mu):
    """The draw as one realization's SplitMix64 stream, word by word."""
    stream = disorder.splitmix64_stream(disorder.realization_seed(base_seed, r))
    u = np.array([next(stream) >> 11 for _ in range(n)], dtype=float) * 2.0**-53
    return mu * (2.0 * u - 1.0)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -5, 2**64 + 1])
def test_vectorized_draw_is_the_splitmix64_stream(seed):
    n, step = 7, disorder._chunk_rows(7, 200)
    first, count = step - 3, 7  # rows that cross a chunk boundary
    rows = disorder._draw_rows(seed, first, count, n, 0.5)
    for i, r in enumerate(range(first, first + count)):
        stream = disorder.splitmix64_stream(disorder.realization_seed(seed, r))
        words = np.array([next(stream) >> 11 for _ in range(n)], dtype=np.uint64)
        # with mu = 1/2 a detuning is u - 1/2 exactly, so u's 53 bits come back
        assert np.array_equal(((rows[i] + 0.5) * 2.0**53).astype(np.uint64), words)
        assert np.array_equal(rows[i], _per_realization_draw(seed, r, n, 0.5))
        assert np.array_equal(disorder.draw_detunings(seed, r, n, 0.37),
                              _per_realization_draw(seed, r, n, 0.37))


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
        # realization 1 fails a stacked check, so it is evaluated alone, and
        # that per-realization trace is non-finite too
        stacked = dynamics._spectral_batch

        def unreliable_row_1(L, times):
            values, ok = stacked(L, times)
            ok[1] = False  # the first chunk holds realizations 0..4
            return values, ok

        real = disorder.coherence_trace
        calls = []

        def spoiled(H, times):
            calls.append(1)
            tr = real(H, times)
            if len(calls) == 2:  # call 1 is the clean trace, so this is realization 1
                return dynamics.CoherenceTrace(tr.times, [tr.values[0], np.nan], tr.method)
            return tr

        monkeypatch.setattr(dynamics, "_spectral_batch", unreliable_row_1)
        monkeypatch.setattr(disorder, "coherence_trace", spoiled)
        res = disorder.run_ensemble(_cfg(0.4, n_real=5))
        assert len(calls) == 2
        assert (res.n_ok, res.n_failed) == (4, 1)
        assert np.all(np.isfinite(res.mean_trace.values))

    def test_failed_realization_is_masked_by_its_whole_row(self, monkeypatch):
        stacked = dynamics._spectral_batch

        def spoiled(L, times):
            values, ok = stacked(L, times)
            values[1, -1] = np.nan  # realization 1; column 0 stays finite
            return values, ok

        monkeypatch.setattr(dynamics, "_spectral_batch", spoiled)
        res = disorder.run_ensemble(_cfg(0.4, n_real=5, store_realizations=True))
        assert (res.n_ok, res.n_failed) == (4, 1)
        assert res.realizations.shape == (4, 2)
        assert np.all(np.isfinite(res.mean_trace.values))
        assert np.all(np.isfinite(res.stderr_trace))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _cfg(-0.1)
        for mu in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                _cfg(mu)
        with pytest.raises(ValueError):
            _cfg(0.1, n_real=0)
        with pytest.raises(ValueError):
            _cfg(0.1, site_mask=(True,) * 3)

    @pytest.mark.parametrize("field", ["N", "n_realizations", "base_seed"])
    @pytest.mark.parametrize("value", [7.0, 1.5, True, np.float64(7.0), "7", None],
                             ids=["float", "fraction", "bool", "numpy-float", "str", "None"])
    def test_non_integral_size_or_count_is_rejected(self, field, value):
        fields = dict(model="ssh", N=7, params=SSH_PARAMS, mu=0.1, n_realizations=7,
                      base_seed=99, times=np.array([0.0, 1.0]))
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            disorder.DisorderConfig(**fields)

    def test_numpy_integers_are_accepted(self):
        cfg = disorder.DisorderConfig(model="ssh", N=np.int64(7), params=SSH_PARAMS, mu=0.1,
                                      n_realizations=np.int32(5), base_seed=99,
                                      times=np.array([0.0, 1.0]))
        assert disorder.run_ensemble(cfg).n_ok == 5


@pytest.mark.parametrize("n, n_times", [(2, 21), (3, 400), (7, 200), (30, 40), (30, 200),
                                        (128, 200), (129, 5), (7, 2**14 + 1), (400, 400)])
def test_chunk_rows_keep_both_stacks_within_the_budget(n, n_times):
    rows = disorder._chunk_rows(n, n_times)
    assert rows >= 1
    if rows > 1:
        assert rows * n * n <= spectral._BLOCK and rows * n_times <= spectral._BLOCK
        # one more row would break the budget
        assert (rows + 1) * max(n * n, n_times) > spectral._BLOCK


def test_config_leaves_caller_time_grid_writeable():
    grid = np.array([0.0, 50.0])
    cfg = disorder.DisorderConfig(model="ssh", N=7, params=SSH_PARAMS, mu=0.1,
                                  n_realizations=5, base_seed=99, times=grid)
    assert grid.flags.writeable
    assert not cfg.times.flags.writeable


def test_csv_output(tmp_path):
    out = tmp_path / "ens.csv"
    assert main(["disorder", "--model", "ssh", "--N", "7", "--J1", "1", "--J2", "1.8",
                 "--gamma", "0.5", "--mu", "0.4", "--n-realizations", "5", "--seed", "99",
                 "--t-max", "50", "--t-points", "2", "--no-log-time", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "t,mean_coherence,stderr,n_ok"
    assert len(data) == 3
    assert data[1].endswith(",5")
    assert any(l.startswith("# mu=") for l in lines)


THREE_SITE_PARAMS = {"J1": 1.0, "J2": 0.3, "J3": 2.0, "J": 0.7, "eps1": 0.0, "eps2": 0.0,
                     "Gamma": 0.5}
EP_PARAMS = {"J": 1.0, "kappa": 1.0, "Gamma": 4.0}  # impurity N=2: an exceptional point


def _assert_rows_match_per_realization(cfg):
    res = disorder.run_ensemble(cfg)
    assert res.n_failed == 0
    H0 = netmodel.build_model(cfg.model, cfg.N, cfg.params)
    rows = np.array([disorder._realization_values(H0, cfg, r) for r in range(cfg.n_realizations)])
    assert np.array_equal(res.realizations, rows)
    return res


class TestStackedPath:
    """Each realization's row from the stacked spectral batch equals, bit for
    bit, the per-realization ``coherence_trace`` it replaces."""

    def test_ssh(self):
        _assert_rows_match_per_realization(
            _cfg(0.4, n_real=40, times=dynamics.log_time_grid(100.0, 60), store_realizations=True))

    def test_three_site_over_several_chunks(self):
        times = dynamics.log_time_grid(100.0, 40)
        cfg = disorder.DisorderConfig("three-site", 30, THREE_SITE_PARAMS, 0.35, 30, 11, times,
                                      store_realizations=True)
        assert cfg.n_realizations > disorder._chunk_rows(30, times.size)
        _assert_rows_match_per_realization(cfg)

    def test_site_mask(self):
        mask = (True, False, True, True, False, False, True)
        _assert_rows_match_per_realization(
            _cfg(0.8, n_real=30, seed=-5, times=np.linspace(0.0, 30.0, 31), site_mask=mask,
                 store_realizations=True))

    @pytest.mark.parametrize("N, mu, mask", [
        (7, 0.0, None),                # copies of one bipartite generator
        (3, 0.5, (False, True, False)),  # one lossy site: its z differs from row to row
    ])
    def test_bipartite_rows_take_one_stacked_svd(self, N, mu, mask, monkeypatch):
        svd = np.linalg.svd
        shapes = []
        monkeypatch.setattr(np.linalg, "svd", lambda a: shapes.append(np.shape(a)) or svd(a))
        cfg = disorder.DisorderConfig("ssh", N, SSH_PARAMS, mu, 20, 3,
                                      dynamics.log_time_grid(100.0, 30), site_mask=mask,
                                      store_realizations=True)
        res = disorder.run_ensemble(cfg)
        assert shapes == [shapes[0], (20,) + shapes[0]]  # the clean trace, then one stack
        shapes.clear()
        _assert_rows_match_per_realization(cfg)
        if mu == 0.0:
            assert np.array_equal(res.mean_trace.values, res.clean_trace.values)

    @pytest.mark.parametrize("mu", [0.0, 1e-6])
    def test_exceptional_point_falls_back_on_every_row(self, mu, monkeypatch):
        real = disorder.coherence_trace
        methods = []

        def recorded(H, times):
            tr = real(H, times)
            methods.append(tr.method)
            return tr

        monkeypatch.setattr(disorder, "coherence_trace", recorded)
        cfg = disorder.DisorderConfig("impurity", 2, EP_PARAMS, mu, 12, 5,
                                      np.linspace(0.0, 10.0, 21), store_realizations=True)
        res = _assert_rows_match_per_realization(cfg)
        # the clean trace, each realization once from the ensemble and once as
        # the reference: every one of them on the expm route
        assert methods == ["expm"] * (1 + 2 * cfg.n_realizations)
        if mu == 0.0:
            assert np.array_equal(res.mean_trace.values, res.clean_trace.values)

    def test_one_stacked_eigensolve_per_chunk(self, monkeypatch):
        eig = np.linalg.eig
        shapes = []
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or eig(a))
        times = dynamics.log_time_grid(100.0, 50)
        cfg = disorder.DisorderConfig("three-site", 30, THREE_SITE_PARAMS, 0.35, 25, 11, times)
        res = disorder.run_ensemble(cfg)
        assert res.n_ok == 25
        step = disorder._chunk_rows(30, times.size)
        chunks = [min(step, 25 - first) for first in range(0, 25, step)]
        assert len(chunks) > 1
        # one solve for the clean trace, then one per chunk and none per
        # realization; the chunks' workers finish in any order
        assert Counter(shapes) == Counter([(30, 30)] + [(c, 30, 30) for c in chunks])


def _ensemble_under(workers, cfg, monkeypatch):
    monkeypatch.setattr(disorder, "_workers", lambda: workers)
    return disorder.run_ensemble(cfg)


class TestWorkers:
    """The chunks are shared out among worker threads; every output is
    bit-identical for any worker count."""

    @pytest.mark.parametrize("cfg, step", [
        # explicit chunk sizes, each leaving a short last chunk
        (_cfg(0.8, n_real=30, times=dynamics.log_time_grid(100.0, 200),
              site_mask=(True, False, True, True, False, False, True), store_realizations=True),
         8),
        (disorder.DisorderConfig("three-site", 30, THREE_SITE_PARAMS, 0.35, 30, 11,
                                 dynamics.log_time_grid(100.0, 40), store_realizations=True),
         7),
        # every row falls back to the expm route inside its worker; four rows
        # a chunk keep the slow route's rows few
        (disorder.DisorderConfig("impurity", 2, EP_PARAMS, 1e-6, 12, 5,
                                 np.linspace(0.0, 10.0, 21), store_realizations=True),
         4),
    ], ids=["site-mask", "three-site", "exceptional-point"])
    def test_every_worker_count_gives_the_same_bits(self, cfg, step, monkeypatch):
        if step is not None:
            monkeypatch.setattr(disorder, "_chunk_rows", lambda n, n_times: step)
        n_chunks = -(-cfg.n_realizations // disorder._chunk_rows(cfg.N, cfg.times.size))
        assert n_chunks >= 3
        serial = _ensemble_under(1, cfg, monkeypatch)
        assert serial.n_failed == 0
        for workers in (2, 3, n_chunks + 5):
            res = _ensemble_under(workers, cfg, monkeypatch)
            assert np.array_equal(res.realizations, serial.realizations)
            assert np.array_equal(res.mean_trace.values, serial.mean_trace.values)
            assert np.array_equal(res.stderr_trace, serial.stderr_trace)
            assert (res.n_ok, res.n_failed) == (serial.n_ok, serial.n_failed)

    @pytest.mark.parametrize("blas_threads", [1, 2, 64])
    def test_blas_threads_share_the_cpus(self, blas_threads, monkeypatch):
        monkeypatch.setattr(disorder, "_blas_threads", lambda: blas_threads)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert disorder._workers() == max(1, cpus // blas_threads)

    @pytest.mark.parametrize("setting", ["1", "2"])
    def test_blas_thread_count_is_read_from_the_library(self, setting):
        # OpenBLAS reads the variable when it loads, so each setting needs its own process
        env = dict(os.environ, OPENBLAS_NUM_THREADS=setting,
                   PYTHONPATH=str(Path(disorder.__file__).resolve().parents[1]))
        code = "from nhtop import disorder; print(disorder._blas_threads())"
        got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout.strip()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert got == (setting if "openblas" in blas else "1")

    def test_threads_start_only_for_more_than_one_chunk(self, monkeypatch):
        chunk = disorder._chunk_values
        running = []

        def counted(H0, cfg, first, count):
            running.append(threading.active_count())
            return chunk(H0, cfg, first, count)

        monkeypatch.setattr(disorder, "_chunk_values", counted)
        before = threading.active_count()
        _ensemble_under(4, _cfg(0.4, n_real=5), monkeypatch)  # one chunk
        assert running == [before]
        running.clear()
        monkeypatch.setattr(disorder, "_chunk_rows", lambda n, n_times: 10)
        cfg = _cfg(0.4, n_real=40, times=dynamics.log_time_grid(100.0, 400))
        assert disorder._chunk_rows(7, 400) < 40 // 2
        _ensemble_under(2, cfg, monkeypatch)
        assert max(running) == before + 1  # one thread besides the caller
        assert threading.active_count() == before

    def test_every_chunk_is_handed_out_exactly_once(self, monkeypatch):
        # more workers than CPUs, one-row chunks that yield the interpreter
        # lock, and a short switch interval: a chunk taken twice or lost would
        # show in ``firsts`` or in the table
        firsts, takers = [], set()

        def row_index(H0, cfg, first, count):  # C(0) = 1, then the row's index
            firsts.append(first)
            takers.add(threading.get_ident())
            time.sleep(0)
            return np.array([[1.0, first / 1024]] * count)

        monkeypatch.setattr(disorder, "_chunk_values", row_index)
        monkeypatch.setattr(disorder, "_chunk_rows", lambda n, n_times: 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = _ensemble_under(8, _cfg(0.4, n_real=300, store_realizations=True), monkeypatch)
        finally:
            sys.setswitchinterval(interval)
        assert len(takers) > 1
        assert sorted(firsts) == list(range(300))
        assert np.array_equal(res.realizations[:, 1], np.arange(300) / 1024)

    def test_an_error_in_one_worker_reaches_the_caller(self, monkeypatch):
        chunk = disorder._chunk_values
        step = disorder._chunk_rows(7, 400)
        started = []

        def broken(H0, cfg, first, count):
            started.append(first)
            if first == step:  # the second chunk
                raise RuntimeError("chunk failed")
            return chunk(H0, cfg, first, count)

        monkeypatch.setattr(disorder, "_chunk_values", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            _ensemble_under(2, _cfg(0.4, n_real=12 * step,
                                    times=dynamics.log_time_grid(100.0, 400)), monkeypatch)
        assert threading.active_count() == before
        assert step in started and len(started) < 12  # the other worker stopped early
