"""nhtop benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree (it imports ``src/nhtop``).  The run is a
closed loop with one caller: it attempts whole rounds of the workload's
operations until ``--seconds`` of operation time have passed, checks every
result against independent references, and prints human-readable lines
followed by one JSON object as the last line of stdout.

``--trace 0`` reports the end-to-end metrics (set-up time, throughput, peak
memory).  ``--trace 1`` alternates untraced and traced rounds of the same
operations and reports the per-layer metrics per round together with the
tracing overhead; its spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
IMPORT_PROBES = 3

#: BLAS runs one thread.  With OpenBLAS's default of one thread per CPU, the
#: 50- to 400-site problems here spend most of their time in thread hand-off:
#: on 2 CPUs a 40-point expm trace at N=50 took 0.25-0.5 s against 0.02 s on
#: one thread, and varied by +-40% between identical calls.
BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: the issue-level name of each workload's throughput
WORK_NAMES = {"cli-figures": "calls_per_s", "chain-census": "models_per_s",
              "disorder-ensemble": "realizations_per_s", "oracle-routes": "oracle_points_per_s"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


class HostSpeed:
    """How much slower than its reference time a fixed LAPACK problem runs now.

    The shared host's speed swings by up to a half over a few seconds (a fixed
    eigenvalue loop took 28 ms or 44 ms per pass in alternating phases), and
    the swing moves whole runs.  Timing this kernel around every timed
    operation and dividing the operation's time by the ratio reports times at
    the reference speed; across separate runs this halved the spread of the
    throughput figures.  Process start-up does not follow the kernel (scaling
    the set-up probes by it widened their spread), so ``setup_s`` is unscaled.
    """

    #: eigenvalues of the matrix below, on one BLAS thread, in a quiet phase
    REFERENCE_S = 0.025

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._eigvals = np.linalg.eigvals
        self._matrix = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))

    def factor(self) -> float:
        t0 = time.perf_counter()
        self._eigvals(self._matrix)
        return (time.perf_counter() - t0) / self.REFERENCE_S


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nhtop_threads_was, thread_env_was):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": importlib.metadata.version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "thread_env_before": thread_env_was,
        "NHTOP_THREADS": "unset" if nhtop_threads_was is None
                         else f"unset (was {nhtop_threads_was!r})",
    }


def timed_process(argv, root, env):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return dt, proc.stderr


def run_rounds(wl, in_process, speed, seconds=None, rounds=None, between=None):
    """Whole rounds until ``seconds`` of operation time, or exactly ``rounds``.

    Records ``(op, seconds, host speed factor, failure reason or None)``; an
    operation's factor is the mean of the kernel timed just before it and
    just after it.  ``between(busy)`` is called after every round.
    """
    records, busy, n = [], 0.0, 0
    while (n < rounds) if rounds is not None else (busy < seconds):
        ops = wl.round(in_process)
        factors = []
        for op in ops:
            factors.append(speed.factor() if speed else 1.0)
            t0 = time.perf_counter()
            try:
                out, reason = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, reason = None, f"{op.label} raised {exc!r}"
            dt = time.perf_counter() - t0
            if reason is None:
                try:
                    reason = op.check(out)
                except Exception as exc:
                    reason = f"check of {op.label} raised {exc!r}"
            busy += dt
            records.append([op, dt, None, reason])
        factors.append(speed.factor() if speed else 1.0)
        for k, rec in enumerate(records[-len(ops):]):
            rec[2] = 0.5 * (factors[k] + factors[k + 1])
        n += 1
        if between is not None:
            between(busy)
    return records, busy, n


def round_time(records, rounds, scaled):
    """Work in one round, and the sum over its operations of each one's median time.

    Every round repeats the same operations, so the median of each across
    rounds keeps one disturbed call from moving the figure.
    """
    times = {}
    for op, dt, factor, _ in records:
        times.setdefault(op.label, []).append(dt / factor if scaled else dt)
    work = sum(op.work for op, _, _, _ in records) // rounds
    return work, sum(statistics.median(v) for v in times.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nhtop", "__init__.py")):
        fail(f"no src/nhtop under {root}; run from the root of the nhtop source tree")
    if not os.path.isfile(os.path.join(HERE, "table1_reference.json")):
        fail("perfbench/table1_reference.json is missing")
    sys.path.insert(0, src)
    nhtop_threads_was = os.environ.pop("NHTOP_THREADS", None)
    thread_env_was = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update(BLAS_THREAD_VARS)  # before numpy loads, here and in every child

    import reference
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    reference.check_splitmix64()

    child_env = dict(os.environ, PYTHONPATH=src)
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, root, workdir)
        env_was = (nhtop_threads_was, thread_env_was)
        if args.trace:
            result = traced(args, root, child_env, wl, spans, env_was)
        else:
            result = end_to_end(args, root, child_env, wl, env_was)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def start(wl, root, env_was, in_process, speed):
    """Import nhtop, record the environment, build inputs and references."""
    import nhtop

    if not os.path.abspath(nhtop.__file__).startswith(os.path.join(root, "src") + os.sep):
        fail(f"imported nhtop from {nhtop.__file__}, not from this tree")
    env = environment(*env_was)
    print("env " + json.dumps(env, sort_keys=True))
    wl.inputs()
    wl.prepare()
    if in_process:
        # the traced run compares sums of times, so first calls must not land in one side
        run_rounds(wl, in_process, speed, rounds=1)
    return env


def summary(records, metrics):
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    failed = [(op, reason) for op, _, _, reason in records if reason is not None]
    for op, reason in failed[:10]:
        print(f"  failed{' (known fault)' if op.known_fault else ''}: {reason}")
    return {
        "correct": all(op.known_fault for op, _ in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def end_to_end(args, root, child_env, wl, env_was):
    speed = HostSpeed()
    probe = [sys.executable, os.path.join(HERE, "probe.py"), wl.name, str(args.seed), wl.workdir]
    setup = [timed_process(probe, root, child_env)[0]]

    def more_setup(busy):
        # spread the probes over the run, so that they see its slow and fast phases
        if len(setup) < SETUP_PROBES and busy >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(timed_process(probe, root, child_env)[0])

    start(wl, root, env_was, False, speed)
    records, busy, rounds = run_rounds(wl, False, speed, seconds=args.seconds,
                                       between=more_setup)
    while len(setup) < SETUP_PROBES:
        setup.append(timed_process(probe, root, child_env)[0])
    rss_kb = (wl.max_rss_kb if wl.name == "cli-figures"
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    work, scaled_round = round_time(records, rounds, scaled=True)
    _, raw_round = round_time(records, rounds, scaled=False)
    print(f"workload {wl.name}: {rounds} rounds, {len(records)} operations ({wl.op_unit}) "
          f"in {busy:.3f} s; a round does {work} {wl.work_unit} in {raw_round:.4f} s "
          f"as timed, {scaled_round:.4f} s at reference host speed")
    print(f"  {WORK_NAMES[wl.name]} = {work / raw_round:.6g} 1/s as timed")
    if wl.name == "cli-figures":
        call_s = statistics.median(dt for _, dt, _, _ in records)
        print(f"  cli_call_s = {call_s:.6g} s as timed (median of {len(records)} calls)")
    print(f"  host speed factor median {statistics.median(f for _, _, f, _ in records):.3f}; "
          f"setup_s samples {', '.join(f'{s:.4f}' for s in setup)}")
    return summary(records, {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (work / scaled_round, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    })


def traced(args, root, child_env, wl, spans, env_was):
    """Untraced and traced rounds, alternating, for ``--seconds`` of operation time."""
    import nhtop

    imports = [spans.parse_importtime(timed_process(
        [sys.executable, "-X", "importtime", "-c", "import nhtop"], root, child_env)[1])
        for _ in range(IMPORT_PROBES)]
    env = start(wl, root, env_was, True, None)
    rec = spans.SpanRecorder()
    records, plain_busy, traced_busy, rounds = [], 0.0, 0.0, 0
    while plain_busy + traced_busy < args.seconds:
        plain, busy, _ = run_rounds(wl, True, None, rounds=1)
        records += plain
        plain_busy += busy
        rec.install(nhtop)
        try:
            spanned, busy, _ = run_rounds(wl, True, None, rounds=1)
        finally:
            rec.uninstall()
        records += spanned
        traced_busy += busy
        rounds += 1

    totals = spans.layer_totals(rec)
    metrics = {key: (statistics.median(i[key] for i in imports), "s")
               for key in spans.IMPORT_METRICS}
    for key in spans.PER_LAYER:
        if key in totals:
            metrics[key] = (totals[key] / rounds, "s" if key.endswith("_s") else "count")
    metrics["trace.overhead_pct"] = (100.0 * (traced_busy - plain_busy) / plain_busy, "%")
    metrics["trace.self_cover_pct"] = (100.0 * spans.self_cover(totals) / traced_busy, "%")
    print(f"workload {wl.name}: {rounds} rounds untraced in {plain_busy:.3f} s and "
          f"{rounds} traced in {traced_busy:.3f} s, {len(rec.spans)} spans")

    path = os.path.join(HERE, "out", f"trace-{wl.name}.jsonl")
    rec.write(path, {"workload": wl.name, "seed": args.seed, "rounds": rounds, "env": env})
    print(f"  spans written to {os.path.relpath(path, root)}")
    return summary(records, metrics)


if __name__ == "__main__":
    main()
