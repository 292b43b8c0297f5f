"""Command-line front end.

Subcommands map one-to-one onto the library: ``model`` dumps an effective
Hamiltonian, ``spectrum`` its mode table, ``coherence`` a C(t) trace,
``winding`` the topological invariant, ``table1`` the benchmark
lifetime/overlap table, ``scaling`` the bulk-edge census over system sizes,
and ``disorder`` a noise-averaged trace.  The library returns data and
writes nothing; every table is formatted here by ``_write_csv``, the one
statement of the CSV layout (``# `` comment lines, a header, values at 17
significant digits), so identical invocations produce byte-identical files.
Exit codes: 0 success, 1 stdout closed early (as by
``| head``, without a message), 2 configuration error (including a request
too large for memory), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import Mapping

import numpy as np

from . import analytics, disorder, dynamics, netmodel, spectral, topology
from .errors import NumericError, PhaseBoundaryError, SpecificationError

MODEL_DEFAULTS = {
    "impurity": {"N": 4, "J": 1.0, "kappa": 0.5, "Gamma": 4.0},
    "ssh": {"N": 7, "J1": 1.0, "J2": 1.8, "Gamma": 0.5},
    "three-site": {"N": 8, "J1": 1.0, "J2": 0.3, "J3": 2.0, "J": 0.7,
                   "eps1": 0.0, "eps2": 0.0, "Gamma": 0.5},
}

_FLAG_TO_PARAM = {
    "J": "J", "kappa": "kappa", "J1": "J1", "J2": "J2", "J3": "J3",
    "Jnn": "J", "eps1": "eps1", "eps2": "eps2", "gamma": "Gamma",
}
# the flags that set parameter ``J`` name different bonds, so each has one model
_FLAG_MODEL = {"J": "impurity", "Jnn": "three-site"}


def _add_model_flags(p: argparse.ArgumentParser, models=("impurity", "ssh", "three-site")):
    p.add_argument("--model", choices=models, default=None, help="canonical model family")
    p.add_argument("--config", default=None, help="JSON network/model description")
    p.add_argument("--N", type=int, default=None, help="number of sites")
    p.add_argument("--J", type=float, default=None, help="cavity-cavity hopping (impurity)")
    p.add_argument("--kappa", type=float, default=None, help="qubit-cavity coupling (impurity)")
    p.add_argument("--J1", type=float, default=None)
    p.add_argument("--J2", type=float, default=None)
    p.add_argument("--J3", type=float, default=None, help="inter-cell bond (three-site)")
    p.add_argument("--Jnn", type=float, default=None, help="intra-cell 1-3 bond (three-site)")
    p.add_argument("--eps1", type=float, default=None)
    p.add_argument("--eps2", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None, help="loss rate")


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", default="-", help="output file ('-' for stdout)")
    p.add_argument("--gnuplot-header", action="store_true",
                   help="prepend plot-ready comment lines")


def _read_config(args) -> Mapping:
    """The checked ``--config`` document (empty without one); the file is read once."""
    if args.config is None:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        return netmodel.check_config(json.load(fh))


def _resolve_model(args, config: Mapping) -> tuple[str, int, dict]:
    """Merge per-model defaults, then the config document, then explicit flags."""
    if config.get("model") == "custom":
        raise SpecificationError(
            "custom networks are only supported by 'model', 'spectrum' and 'coherence'")
    model = args.model or config.get("model", "ssh")
    defaults = MODEL_DEFAULTS[model]
    n = args.N if args.N is not None else config.get("N", defaults["N"])
    params = {k: v for k, v in defaults.items() if k != "N"}
    params.update(config.get("params", {}))
    for flag, pname in _FLAG_TO_PARAM.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if _FLAG_MODEL.get(flag, model) != model:
            raise SpecificationError(
                f"--{flag} is a parameter of the {_FLAG_MODEL[flag]} model, not of {model}")
        params[pname] = value  # a parameter of another model is named by model_params
    return model, n, netmodel.model_params(model, params)


def _build_from_args(args) -> netmodel.EffectiveHamiltonian:
    config = _read_config(args)
    if config.get("model") == "custom":
        given = [f"--{flag}" for flag in ("model", "N", *_FLAG_TO_PARAM)
                 if getattr(args, flag) is not None]
        if given:
            raise SpecificationError(f"{', '.join(given)} do not apply to a custom network")
        return netmodel.parse_network_json(config)
    return netmodel.build_model(*_resolve_model(args, config))


@contextlib.contextmanager
def _output(args):
    """The ``--out`` stream: stdout for ``-``, else the named file, closed on exit."""
    if args.out == "-":
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8") as stream:
            yield stream


def _time_grid(args) -> np.ndarray:
    if args.log_time:
        return dynamics.log_time_grid(args.t_max, args.t_points)
    return np.linspace(0.0, args.t_max, args.t_points)


def _gnuplot_lines(args, ycols: str):
    if not getattr(args, "gnuplot_header", False):
        return ()
    return (f"gnuplot: set datafile separator ','; plot '{args.out}' using {ycols} with lines",)


def _write_csv(stream, columns, rows, comments=()) -> None:
    """The one CSV layout: each comment as a ``# `` line, the header, then each
    row with every value formatted ``.17g`` (integers print plain, ``inf`` as
    ``inf``), so identical runs write identical bytes."""
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(f"{v:.17g}" for v in row) + "\n")


def cmd_model(args) -> None:
    m = _build_from_args(args).matrix
    rows = ((i + 1, j + 1, m[i, j].real, m[i, j].imag) for i, j in np.ndindex(m.shape))
    with _output(args) as stream:
        _write_csv(stream, ("i", "j", "re", "im"), rows, _gnuplot_lines(args, "1:3"))


def cmd_spectrum(args) -> None:
    sd = spectral.decompose(_build_from_args(args))
    columns = ("index", "re_lambda", "im_lambda", "decay_rate", "overlap_site1",
               "localization_site", "localization_length")
    with _output(args) as stream:
        _write_csv(stream, columns, spectral.spectrum_rows(sd), _gnuplot_lines(args, "2:3"))


def cmd_coherence(args) -> None:
    H = _build_from_args(args)
    times = _time_grid(args)
    if args.method == "full":
        sop = netmodel.superoperator_from_hamiltonian(H)
        trace = dynamics.coherence_trace_superoperator(sop, times)
    else:
        trace = dynamics.coherence_trace(H, times, method=args.method)
    comments = _gnuplot_lines(args, "1:2") + (f"method={trace.method}",)
    with _output(args) as stream:
        _write_csv(stream, ("t", "coherence"), zip(trace.times, trace.values), comments)


def cmd_winding(args) -> None:
    model, _, params = _resolve_model(args, _read_config(args))
    bloch = topology.chain_bloch(model, params)  # validated whichever method runs
    results = []
    if args.method in ("numeric", "both"):
        results.append(topology.winding_number_numeric(bloch, args.n_k))
    if args.method in ("closed-form", "both"):
        results.append(topology.closed_form_winding(model, params))
    for res in results:
        print(f"W={res.W} method={res.method}")
    if len(results) == 2 and results[0].W != results[1].W:
        raise NumericError("numeric and closed-form winding numbers disagree")


def cmd_table1(args) -> None:
    n_list = [int(s) for s in args.N_list.split(",") if s]
    rows = analytics.table1(args.J1_v, args.J2_v, args.gamma_v, n_list)
    columns = [f.name for f in dataclasses.fields(analytics.Table1Row)]
    with _output(args) as stream:
        _write_csv(stream, columns, map(dataclasses.astuple, rows), _gnuplot_lines(args, "1:2"))


def cmd_scaling(args) -> None:
    model, _, params = _resolve_model(args, _read_config(args))
    n_list = [int(s) for s in args.Ns.split(",") if s]
    report = topology.bulk_edge_report(model, params, n_list, eps_dark=args.eps_dark)
    comments = _gnuplot_lines(args, "1:5") + tuple(
        f"branch {f.branch + 1}: slope {f.slope:.6g} r2 {f.r_squared:.6g}"
        f" exponential {f.exponential}" for f in report.fits)
    rows = ((r.N, r.n_quasi_dark, r.n_localized_site1, report.W_closed_form,
             r.slowest_decay_rate) for r in report.rows)
    columns = ("N", "n_quasi_dark", "n_localized_site1", "W_closed_form", "slowest_decay_rate")
    with _output(args) as stream:
        _write_csv(stream, columns, rows, comments)


def cmd_disorder(args) -> None:
    model, n, params = _resolve_model(args, _read_config(args))
    mask = None
    if args.site_mask is not None:
        if set(args.site_mask) - {"0", "1"}:
            raise SpecificationError(f"--site-mask must be a string of 0/1, got {args.site_mask!r}")
        mask = tuple(ch == "1" for ch in args.site_mask)
    cfg = disorder.DisorderConfig(
        model=model, N=n, params=params, mu=args.mu,
        n_realizations=args.n_realizations, base_seed=args.seed,
        times=_time_grid(args), site_mask=mask,
    )
    result = disorder.run_ensemble(cfg)
    # the configuration echo, so that the file alone reproduces the run
    comments = [f"model={cfg.model} N={cfg.N}"]
    comments += [f"param {key}={cfg.params[key]:.17g}" for key in sorted(cfg.params)]
    comments.append(f"mu={cfg.mu:.17g} n_realizations={cfg.n_realizations} "
                    f"base_seed={cfg.base_seed}")
    if mask is not None:
        comments.append(f"site_mask={args.site_mask}")
    comments.append(f"n_ok={result.n_ok} n_failed={result.n_failed}")
    comments += _gnuplot_lines(args, "1:2")
    trace = result.mean_trace
    rows = ((t, m, s, result.n_ok)
            for t, m, s in zip(trace.times, trace.values, result.stderr_trace))
    with _output(args) as stream:
        _write_csv(stream, ("t", "mean_coherence", "stderr", "n_ok"), rows, comments)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhtop",
        description="Qubit coherence in lossy cavity networks: spectra, traces, "
                    "winding numbers, size scaling, disorder averages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="dump the effective Hamiltonian as CSV")
    _add_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("spectrum", help="mode table: eigenvalues, weights, localization")
    _add_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("coherence", help="coherence trace C(t)")
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--t-points", type=int, default=400)
    p.add_argument("--log-time", action=argparse.BooleanOptionalAction, default=True,
                   help="log-spaced grid from 1e-2 to t-max (default)")
    p.add_argument("--method", choices=("auto", "spectral", "expm", "full"), default="auto")
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("winding", help="topological winding number")
    _add_model_flags(p, models=("ssh", "three-site"))
    p.add_argument("--method", choices=("numeric", "closed-form", "both"), default="numeric")
    p.add_argument("--n-k", type=int, default=256, help="initial k-grid size")
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("table1", help="benchmark lifetime/overlap table for even chains")
    _add_output_flags(p)
    p.add_argument("--N-list", default="6,8,10,20")
    p.add_argument("--J1", dest="J1_v", type=float, default=1.0)
    p.add_argument("--J2", dest="J2_v", type=float, default=1.8)
    p.add_argument("--gamma", dest="gamma_v", type=float, default=0.5)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("scaling", help="quasi-dark census and decay-rate scaling over N")
    _add_model_flags(p, models=("ssh", "three-site"))
    _add_output_flags(p)
    p.add_argument("--Ns", default="6,9,12,15,18", help="comma-separated system sizes")
    p.add_argument("--eps-dark", type=float, default=None)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("disorder", help="noise-averaged coherence trace")
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--mu", type=float, default=0.4, help="detuning half-width")
    p.add_argument("--n-realizations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20230715)
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--t-points", type=int, default=200)
    p.add_argument("--log-time", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--site-mask", default=None,
                   help="string of 0/1 selecting which sites receive noise")
    p.set_defaults(func=cmd_disorder)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early, as by ``| head``: no error of the configuration.
        # Point stdout at devnull so that the flush at exit does not raise again
        # (the note on SIGPIPE in the documentation of Python's ``signal``).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SpecificationError, PhaseBoundaryError, ValueError, KeyError,
            OSError, json.JSONDecodeError, MemoryError) as exc:
        # MemoryError: a request larger than this machine, such as a table of
        # 10^9 realizations; numpy's message names the size it could not allocate
        print(f"nhtop: configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"nhtop: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
