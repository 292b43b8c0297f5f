"""Ensemble averaging of coherence under random on-site detuning.

Each realization draws i.i.d. detunings uniform on [-mu, mu] and re-evolves
the coherence; the ensemble mean and its standard error quantify how much
noise the protected mode tolerates.  Randomness comes from a self-contained
SplitMix64 stream so that a configuration reproduces bit-identical results
on any platform:

* per-realization state seed:  ``(base_seed + (r + 1) * GOLDEN) mod 2^64``
* stream step: SplitMix64 (state += GOLDEN; xor-shift-multiply finalizer)
* uniform variate: top 53 bits of the output, scaled to [0, 1), then mapped
  affinely to [-mu, mu)

Realizations are solved a chunk at a time: the chunk's detunings are drawn
with one vectorized SplitMix64, the detuned generators are built in one
complex ``(R_c, N, N)`` array and ``dynamics._spectral_batch`` evaluates them
with one stacked eigensolve and a stacked ``exp``; a realization with a
degenerate eigenspace is c-orthogonalized within its own row, as
``decompose`` does for one generator.  A realization that fails any of the spectral route's checks
(condition, weight completeness and cancellation, or the trace's own
finiteness, sign and C(0) checks) is evaluated alone by ``coherence_trace``,
which takes the ``expm`` fallback exactly as for a single generator; every
row equals that per-realization trace bit for bit.  A chunk holds as many
realizations as keep its stacked generators ``(R_c, N, N)`` and its table
rows ``(R_c, T)`` within ``spectral._BLOCK`` (``2^14``) elements, 256 KiB
of complex values: 81 ssh N=7 or 18 three-site N=30 realizations at T=200.
The stacked exponential, ``(R_c, T, N)``, is the largest temporary, and
``dynamics._spectral_values`` evaluates it in blocks of ``2^14 // (T N)``
rows, so that it too stays within the same budget.

The chunks are shared out among one worker per CPU available to the process
(``_workers``; the calling thread is one of them, and with one worker no
thread is started).  Each worker takes the next chunk from a common queue and
writes its rows into their own slice of the realization table; the stacked
``eig`` and ``exp`` release the interpreter lock, so the workers overlap.  A
worker that raises stops the others at their next chunk, and the first error
is re-raised to the caller once every worker has finished.  Concurrent
callers of a threaded OpenBLAS contend, so the CPUs are divided by the BLAS
threads of each call: at OpenBLAS's default of one thread per CPU one worker
runs, and at ``OPENBLAS_NUM_THREADS=1`` every CPU gets a worker.

Aggregation starts once every row is in, is indexed by realization number and
is accumulated relative to the clean (mu = 0) trace, so the mean, the stderr
and every stored row are bit-identical for any worker count and evaluation
order, and a zero-width ensemble equals the clean trace exactly.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NumericError
from . import dynamics, netmodel, spectral
from .dynamics import CoherenceTrace, coherence_trace

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64_stream(state: int):
    """Infinite SplitMix64 sequence of 64-bit words from a starting state."""
    state &= _MASK
    while True:
        state = (state + GOLDEN) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        yield z


def realization_seed(base_seed: int, r: int) -> int:
    return (base_seed + (r + 1) * GOLDEN) & _MASK


def _draw_rows(base_seed: int, first: int, count: int, n: int, mu: float) -> np.ndarray:
    """Detunings of realizations ``first .. first + count - 1``, one row each:
    ``splitmix64_stream`` evaluated in numpy ``uint64`` wrapping arithmetic.

    Word k (from 1) of realization ``first + i`` is the finalizer applied to
    ``realization_seed(base_seed, first) + (i + k) * GOLDEN``.
    """
    offsets = np.arange(count, dtype=np.uint64)[:, None] + np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(realization_seed(base_seed, first)) + offsets * np.uint64(GOLDEN)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    u = (z >> 11).astype(float) * 2.0**-53
    return mu * (2.0 * u - 1.0)


def draw_detunings(base_seed: int, r: int, n: int, mu: float) -> np.ndarray:
    """Detunings for realization r: n uniform variates on [-mu, mu)."""
    return _draw_rows(base_seed, r, 1, n, mu)[0]


@dataclass(frozen=True)
class DisorderConfig:
    """Deterministic description of one disorder-averaging run."""

    model: str
    N: int
    params: Mapping[str, float]
    mu: float
    n_realizations: int
    base_seed: int
    times: np.ndarray
    site_mask: tuple | None = None
    store_realizations: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and >= 0")
        for name in ("N", "n_realizations", "base_seed"):
            if not netmodel._is_number(getattr(self, name), integer=True):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        t = np.array(self.times, dtype=float)  # a copy: the caller's grid stays writeable
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "params", dict(self.params))
        if self.site_mask is not None:
            mask = tuple(bool(b) for b in self.site_mask)
            if len(mask) != self.N:
                raise ValueError("site_mask length must equal N")
            object.__setattr__(self, "site_mask", mask)


@dataclass(frozen=True)
class EnsembleResult:
    mean_trace: CoherenceTrace
    stderr_trace: np.ndarray
    clean_trace: CoherenceTrace
    n_ok: int
    n_failed: int
    realizations: np.ndarray | None = None


def _realization_values(H0, cfg: DisorderConfig, r: int) -> np.ndarray:
    mu_i = draw_detunings(cfg.base_seed, r, cfg.N, cfg.mu)
    if cfg.site_mask is not None:
        mu_i = np.where(cfg.site_mask, mu_i, 0.0)
    H = netmodel.apply_detuning_disorder(H0, mu_i)
    return np.asarray(coherence_trace(H, cfg.times).values)


def _chunk_rows(n: int, n_times: int) -> int:
    """Realizations per chunk: the stacked generators ``(R_c, n, n)`` and the
    chunk's table rows ``(R_c, n_times)`` stay within ``spectral._BLOCK``
    elements (one row at least); ``dynamics._spectral_values`` bounds its own
    ``(rows, n_times, n)`` exponential."""
    return max(1, spectral._BLOCK // max(n * n, n_times))


def _chunk_values(H0, cfg: DisorderConfig, first: int, count: int) -> np.ndarray:
    """C(t) rows of realizations ``first .. first + count - 1``; a failed
    realization's row is NaN."""
    mu = _draw_rows(cfg.base_seed, first, count, cfg.N, cfg.mu)
    if cfg.site_mask is not None:
        mu = np.where(cfg.site_mask, mu, 0.0)
    L = np.repeat(H0.matrix[None], count, axis=0)
    sites = np.arange(cfg.N)
    L[:, sites, sites] += mu  # the diagonal sums of apply_detuning_disorder
    L *= -1j  # the generator, as EffectiveHamiltonian.generator forms it
    try:
        values, ok = dynamics._spectral_batch(L, cfg.times)
    except np.linalg.LinAlgError:
        values, ok = np.empty((count, cfg.times.size)), np.zeros(count, dtype=bool)
    for i in np.flatnonzero(~ok):
        try:
            values[i] = _realization_values(H0, cfg, first + int(i))
        except (NumericError, np.linalg.LinAlgError):
            values[i] = np.nan
    return values


def _blas_threads() -> int:
    """Threads of each call into the OpenBLAS behind ``np.linalg``; 1 where
    numpy's BLAS cannot be asked (another BLAS, or OpenBLAS under another
    symbol name)."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return 1
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        get = getattr(lib, symbol, None)
        if get is not None:
            get.restype = ctypes.c_int
            return max(1, get())
    return 1


def _workers() -> int:
    """One ensemble worker per CPU this process may run on, divided by the
    BLAS threads each worker's solves would start.  Concurrent callers of a
    threaded OpenBLAS contend: on 2 CPUs at OpenBLAS's default of 2 threads,
    two workers made a three-site N=30 ensemble 21% slower than one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, cpus // _blas_threads())


def _fill_table(H0, cfg: DisorderConfig, table: np.ndarray, step: int) -> None:
    """Write the rows of every chunk of ``step`` realizations into ``table``.

    ``min(_workers(), chunks)`` workers take chunk starts from one iterator
    under a lock; the calling thread is one of them.  The first error raised
    by any worker stops the others at their next chunk and is re-raised here
    after every worker has been joined.
    """
    n = table.shape[0]
    starts = range(0, n, step)
    pending = iter(starts)
    lock = threading.Lock()
    stop = threading.Event()
    errors = []

    def work():
        try:
            while not stop.is_set():
                with lock:
                    first = next(pending, None)
                if first is None:
                    return
                count = min(step, n - first)
                table[first:first + count] = _chunk_values(H0, cfg, first, count)
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=work) for _ in range(min(_workers(), len(starts)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_ensemble(cfg: DisorderConfig) -> EnsembleResult:
    """Average the coherence over detuning realizations.

    Each realization is written into its own slot of the table, so the
    aggregate does not depend on evaluation order or on the worker count.
    Realizations whose evolution fails numerically are skipped and counted in
    ``n_failed``.
    """
    H0 = netmodel.build_model(cfg.model, cfg.N, cfg.params)
    clean = coherence_trace(H0, cfg.times)
    base = np.asarray(clean.values)

    n = cfg.n_realizations
    table = np.empty((n, base.size))
    _fill_table(H0, cfg, table, _chunk_rows(cfg.N, base.size))

    ok = np.all(np.isfinite(table), axis=1)
    n_ok = int(np.count_nonzero(ok))
    if n_ok == 0:
        raise NumericError("every disorder realization failed")

    # mean as clean + mean of deltas: order-independent (index-ordered sum)
    # and bit-exact equal to the clean trace when mu = 0
    rows = table if n_ok == n else table[ok, :]
    deltas = rows - base[None, :]
    mean = base + np.add.reduce(deltas, axis=0) / n_ok
    if n_ok > 1:
        squares = np.square(np.subtract(rows, mean[None, :], out=deltas), out=deltas)
        var = np.add.reduce(squares, axis=0) / (n_ok - 1)
        stderr = np.sqrt(var / n_ok)
    else:
        stderr = np.zeros_like(mean)

    mean_trace = CoherenceTrace(cfg.times, np.clip(mean, 0.0, None), clean.method)
    return EnsembleResult(
        mean_trace=mean_trace,
        stderr_trace=stderr,
        clean_trace=clean,
        n_ok=n_ok,
        n_failed=n - n_ok,
        realizations=rows if cfg.store_realizations else None,
    )
