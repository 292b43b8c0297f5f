"""Command-line front end.

Subcommands map one-to-one onto the library: ``model`` dumps an effective
Hamiltonian, ``spectrum`` its mode table, ``coherence`` a C(t) trace,
``winding`` the topological invariant, ``table1`` the benchmark
lifetime/overlap table, ``scaling`` the bulk-edge census over system sizes,
and ``disorder`` a noise-averaged trace.  All numeric output is CSV with
deterministic 17-digit formatting, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
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
        if value is not None and pname in defaults:
            params[pname] = value
    return model, n, netmodel.model_params(model, params)


def _build_from_args(args) -> netmodel.EffectiveHamiltonian:
    config = _read_config(args)
    if config.get("model") == "custom":
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


def cmd_model(args) -> None:
    H = _build_from_args(args)
    with _output(args) as stream:
        for line in _gnuplot_lines(args, "1:3"):
            stream.write(f"# {line}\n")
        stream.write("i,j,re,im\n")
        m = H.matrix
        for i in range(H.dim):
            for j in range(H.dim):
                stream.write(f"{i + 1},{j + 1},{m[i, j].real:.17g},{m[i, j].imag:.17g}\n")


def cmd_spectrum(args) -> None:
    H = _build_from_args(args)
    sd = spectral.decompose(H)
    with _output(args) as stream:
        for line in _gnuplot_lines(args, "2:3"):
            stream.write(f"# {line}\n")
        stream.write(
            "index,re_lambda,im_lambda,decay_rate,overlap_site1,"
            "localization_site,localization_length\n"
        )
        for idx, re_l, im_l, rate, c1, site, length in spectral.spectrum_rows(sd):
            stream.write(
                f"{idx},{re_l:.17g},{im_l:.17g},{rate:.17g},"
                f"{c1:.17g},{site},{length:.17g}\n"
            )


def cmd_coherence(args) -> None:
    H = _build_from_args(args)
    times = _time_grid(args)
    if args.method == "full":
        sop = netmodel.superoperator_from_hamiltonian(H)
        trace = dynamics.coherence_trace_superoperator(sop, times)
    else:
        trace = dynamics.coherence_trace(H, times, method=args.method)
    with _output(args) as stream:
        header = _gnuplot_lines(args, "1:2") + (f"method={trace.method}",)
        dynamics.write_trace_csv(stream, trace, header)


def cmd_winding(args) -> None:
    model, _, params = _resolve_model(args, _read_config(args))
    if model == "ssh":
        bloch = topology.bloch_ssh(params["J1"], params["J2"], params["Gamma"])
        closed = lambda: topology.winding_ssh_closed_form(params["J1"], params["J2"])
    elif model == "three-site":
        bloch = topology.bloch_three_site(
            params["J1"], params["J2"], params["J3"], params["J"],
            params["eps1"], params["eps2"], params["Gamma"],
        )
        closed = lambda: topology.winding_three_site_closed_form(
            params["J1"], params["J2"], params["J3"], params["J"],
            params["eps1"], params["eps2"],
        )
    else:
        raise SpecificationError("winding is defined for 'ssh' and 'three-site' models")
    results = []
    if args.method in ("numeric", "both"):
        results.append(topology.winding_number_numeric(bloch, args.n_k))
    if args.method in ("closed-form", "both"):
        results.append(closed())
    for res in results:
        print(f"W={res.W} method={res.method}")
    if len(results) == 2 and results[0].W != results[1].W:
        raise NumericError("numeric and closed-form winding numbers disagree")


def cmd_table1(args) -> None:
    n_list = [int(s) for s in args.N_list.split(",") if s]
    rows = analytics.table1(args.J1_v, args.J2_v, args.gamma_v, n_list)
    with _output(args) as stream:
        analytics.write_table1_csv(stream, rows, _gnuplot_lines(args, "1:2"))


def cmd_scaling(args) -> None:
    model, _, params = _resolve_model(args, _read_config(args))
    n_list = [int(s) for s in args.Ns.split(",") if s]
    report = topology.bulk_edge_report(model, params, n_list, eps_dark=args.eps_dark)
    with _output(args) as stream:
        topology.write_report_csv(stream, report, _gnuplot_lines(args, "1:5"))


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
    with _output(args) as stream:
        disorder.write_ensemble_csv(stream, cfg, result, _gnuplot_lines(args, "1:2"))


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
    except (SpecificationError, PhaseBoundaryError, ValueError, KeyError,
            OSError, json.JSONDecodeError) as exc:
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
