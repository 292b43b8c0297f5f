"""Span recorder for the traced run, and the per-layer metrics built on it.

``SpanRecorder.install`` replaces every public function of the ``nhtop``
modules, at its name in every ``nhtop`` module namespace that holds it, with
a wrapper that records one span per call: name, parent span, start, end and
an optional tag taken from the arguments and result.  Spans stay in memory
until ``write``.  ``scipy.linalg.expm`` is wrapped as a counter only, so the
matrix exponentials it performs remain part of their caller's self time.

Nothing here changes a result: wrappers return what the wrapped function
returns and re-raise what it raises.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

import numpy as np

MODULES = ("netmodel", "spectral", "dynamics", "topology", "analytics", "disorder", "cli")


def _grid_kind(times) -> str:
    t = np.asarray(times, dtype=float)
    if t.size > 2:
        d = np.diff(t)
        if np.allclose(d, d[0], rtol=1e-9, atol=0.0):
            return "linear"
    return "log"


def _coherence_trace_tag(args, kwargs, result):
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    times = kwargs.get("times", args[1] if len(args) > 1 else ())
    return f"{method}>{result.method}:{_grid_kind(times)}"


def _superop_tag(args, kwargs, result):
    return _grid_kind(kwargs.get("times", args[1] if len(args) > 1 else ()))


TAGGERS = {
    "nhtop.dynamics.coherence_trace": _coherence_trace_tag,
    "nhtop.dynamics.coherence_trace_superoperator": _superop_tag,
    "nhtop.topology.winding_number_numeric": lambda a, k, r: r.k_points,
    "nhtop.disorder.run_ensemble": lambda a, k, r: r.n_failed,
}


class SpanRecorder:
    """In-memory spans: ``(parent, name, start, end, tag)``; parent -1 is the root."""

    def __init__(self):
        self.spans = []
        self.expm_evals = 0
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name):
        spans, stack, tagger = self.spans, self._stack, TAGGERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result, tag = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if tagger is not None and result is not None:
                    tag = tagger(args, kwargs, result)
                spans[sid] = (parent, name, t0, t1, tag)

        return wrapper

    def install(self, nhtop_pkg):
        """Wrap every public nhtop function in every nhtop namespace."""
        import scipy.linalg

        modules = [nhtop_pkg] + [importlib.import_module(f"nhtop.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("nhtop.")):
                    continue
                name = f"{value.__module__}.{value.__name__}"
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, name)
                self._restore.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

        expm = scipy.linalg.expm

        @functools.wraps(expm)
        def counted_expm(*args, **kwargs):
            self.expm_evals += 1
            return expm(*args, **kwargs)

        self._restore.append((scipy.linalg, "expm", expm))
        scipy.linalg.expm = counted_expm

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        dur = np.array([s[3] - s[2] for s in self.spans])
        child = np.zeros_like(dur)
        for parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return dur - child

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (parent, name, t0, t1, tag) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, t0, t1, tag]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics.  Each "self" metric sums the self time of the listed
# functions, so no interval is counted twice; the cli metrics are inclusive.
# ---------------------------------------------------------------------------

_N = "nhtop."
SELF_METRICS = {
    "netmodel.build_s": ["netmodel.build_model", "netmodel.build_impurity_model",
                         "netmodel.build_ssh_model", "netmodel.build_three_site_model",
                         "netmodel.build_effective_hamiltonian", "netmodel.parse_network_json",
                         "netmodel.network_for_model", "netmodel.impurity_network",
                         "netmodel.ssh_network", "netmodel.three_site_network"],
    "netmodel.disorder_apply_s": ["netmodel.apply_detuning_disorder"],
    "netmodel.superop_build_s": ["netmodel.superoperator_from_hamiltonian",
                                 "netmodel.build_full_superoperator"],
    "spectral.decompose_s": ["spectral.decompose"],
    "spectral.weights_s": ["spectral.overlap_weights", "spectral.cluster_weights",
                           "spectral.site_overlap"],
    "spectral.localization_s": ["spectral.localization_profile", "spectral.find_quasi_dark_modes",
                                "spectral.spectrum_rows", "spectral.is_localized_at_qubit",
                                "spectral.default_eps_dark"],
    "topology.winding_s": ["topology.winding_number_numeric", "topology.winding_ssh_closed_form",
                           "topology.winding_three_site_closed_form", "topology.bloch_ssh",
                           "topology.bloch_three_site"],
    "topology.census_s": ["topology.bulk_edge_report"],
    "analytics.table1_s": ["analytics.table1"],
    "analytics.prediction_s": ["analytics.ssh_even_prediction", "analytics.impurity_prediction",
                               "analytics.ssh_odd_asymptotic_coherence", "analytics.ssh_odd_dark_state",
                               "analytics.dark_sector_prediction",
                               "analytics.impurity_quasimomentum_roots",
                               "analytics.quasimomentum_eigenvalues",
                               "analytics.quasimomentum_residual"],
    "disorder.draw_s": ["disorder.draw_detunings", "disorder.realization_seed",
                        "disorder.splitmix64_stream"],
    "disorder.ensemble_self_s": ["disorder.run_ensemble"],
}

CLI_COMMANDS = ("model", "spectrum", "coherence", "winding", "table1", "scaling", "disorder")

#: coherence-trace self time by (route, grid); oracle routes have no traced children
TRACE_METRICS = ("dynamics.spectral_trace_s", "dynamics.expm_trace_log_s",
                 "dynamics.expm_trace_linear_s", "dynamics.superop_trace_log_s",
                 "dynamics.superop_trace_linear_s")

COUNT_METRICS = ("netmodel.build_calls", "spectral.decompose_calls", "dynamics.expm_evals",
                 "dynamics.expm_fallbacks", "topology.winding_kpoints", "disorder.n_failed")

IMPORT_METRICS = ("nhtop.import_s", "nhtop.import_scipy_linalg_s")

OVERHEAD_METRICS = ("trace.overhead_pct", "trace.self_cover_pct")

PER_LAYER = (IMPORT_METRICS + tuple(f"cli.{c}_s" for c in CLI_COMMANDS) + tuple(SELF_METRICS)
             + TRACE_METRICS + COUNT_METRICS + OVERHEAD_METRICS)

_BUILDERS = {_N + n for n in ("netmodel.build_impurity_model", "netmodel.build_ssh_model",
                              "netmodel.build_three_site_model",
                              "netmodel.build_effective_hamiltonian")}


def layer_totals(rec: SpanRecorder) -> dict:
    """Totals over all recorded spans for every span-based per-layer metric."""
    out = {m: 0.0 for m in SELF_METRICS}
    out.update({m: 0.0 for m in TRACE_METRICS})
    out.update({f"cli.{c}_s": 0.0 for c in CLI_COMMANDS})
    out.update({m: 0 for m in COUNT_METRICS})
    owner = {_N + f: m for m, fs in SELF_METRICS.items() for f in fs}
    self_t = rec.self_times()
    for sid, (parent, name, t0, t1, tag) in enumerate(rec.spans):
        metric = owner.get(name)
        if metric is not None:
            out[metric] += self_t[sid]
        if name in _BUILDERS:
            out["netmodel.build_calls"] += 1
        if name == "nhtop.spectral.decompose":
            out["spectral.decompose_calls"] += 1
        elif name == "nhtop.dynamics.coherence_trace" and tag is not None:
            route, grid = tag.split(">")[1].split(":")
            key = "spectral_trace_s" if route == "spectral" else f"expm_trace_{grid}_s"
            out[f"dynamics.{key}"] += self_t[sid]
            if tag.startswith("auto>expm"):
                out["dynamics.expm_fallbacks"] += 1
        elif name == "nhtop.dynamics.coherence_trace_superoperator" and tag is not None:
            out[f"dynamics.superop_trace_{tag}_s"] += self_t[sid]
        elif name == "nhtop.topology.winding_number_numeric" and tag is not None:
            out["topology.winding_kpoints"] += tag
        elif name == "nhtop.disorder.run_ensemble" and tag is not None:
            out["disorder.n_failed"] += tag
        elif name.startswith("nhtop.cli.cmd_"):
            out[f"cli.{name[len('nhtop.cli.cmd_'):]}_s"] += t1 - t0
    out["dynamics.expm_evals"] = rec.expm_evals
    return out


def self_cover(totals: dict) -> float:
    """Seconds covered by the self-time metrics (each interval counted once)."""
    return sum(totals[m] for m in SELF_METRICS) + sum(totals[m] for m in TRACE_METRICS)


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of ``nhtop`` and ``scipy.linalg`` from -X importtime."""
    cum = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cum[parts[2].strip()] = int(parts[1]) * 1e-6
        except ValueError:
            continue  # the column header line
    return {"nhtop.import_s": cum.get("nhtop", 0.0),
            "nhtop.import_scipy_linalg_s": cum.get("scipy.linalg", 0.0)}
