import ast
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhtop
from nhtop.cli import _write_csv, build_parser, main


def _read_csv(path):
    lines = path.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    header = data[0].split(",")
    rows = [l.split(",") for l in data[1:]]
    return header, rows


def test_help_on_every_subcommand(capsys):
    for cmd in ("model", "spectrum", "coherence", "winding", "table1", "scaling", "disorder"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()


def test_spectrum_ssh_has_one_dark_row(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--model", "ssh", "--N", "3", "--J1", "1", "--J2", "1.8",
                 "--gamma", "0.5", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    decays = [float(r[header.index("decay_rate")]) for r in rows]
    assert sum(1 for d in decays if d < 1e-12) == 1


def test_spectrum_prints_no_roundoff_length(tmp_path):
    # two bulk modes of this chain carry equal weight on every second site;
    # fitted through rounding, that sublattice gave lengths near 3e15
    out = tmp_path / "spec.csv"
    argv = ["--model", "ssh", "--N", "51", "--J1", "1", "--J2", "2.2", "--gamma", "0.9"]
    assert main(["spectrum", *argv, "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    lengths = np.array([float(r[header.index("localization_length")]) for r in rows])
    sites = [int(r[header.index("localization_site")]) for r in rows]
    assert np.all(lengths < 1e6)
    sd = nhtop.spectral.decompose(nhtop.netmodel.build_ssh_model(51, 1.0, 2.2, 0.9))
    assert sites == list(np.argmax(np.abs(sd.right_vectors) ** 2, axis=0) + 1)


def test_spectrum_three_site_has_two_dark_rows(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--model", "three-site", "--N", "5", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    decays = [float(r[header.index("decay_rate")]) for r in rows]
    assert sum(1 for d in decays if d < 1e-10) == 2


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": ')
    assert main(["spectrum", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "ssh", "N": 4, "params": {}, "wat": 1}))
    assert main(["spectrum", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_custom_network_config(tmp_path):
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps({
        "model": "custom",
        "custom": {
            "sites": [{"kind": "qubit"}, {"kind": "cavity", "detuning": 0.0, "gamma": 4.0}],
            "edges": [{"i": 1, "j": 2, "J": 1.0}],
        },
    }))
    out = tmp_path / "h.csv"
    assert main(["model", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["i", "j", "re", "im"]
    assert len(rows) == 4
    entry = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in rows}
    assert entry[("2", "2")] == (0.0, -2.0)


def test_winding_output_format(capsys):
    assert main(["winding", "--model", "three-site", "--J3", "2"]) == 0
    assert capsys.readouterr().out.strip() == "W=2 method=numeric"
    assert main(["winding", "--model", "ssh", "--J2", "1.8", "--method", "both"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["W=1 method=numeric", "W=1 method=closed_form"]


def test_winding_boundary_exits_two(capsys):
    assert main(["winding", "--model", "ssh", "--J2", "1.0", "--method", "closed-form"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["winding", "--model", "three-site", "--J1", "0", "--eps1", "1", "--method", "closed-form"],
    ["scaling", "--model", "three-site", "--J1", "0.5", "--eps1", "2"],
])
def test_three_site_closed_form_outside_its_domain_exits_two(capsys, argv):
    # J1=0, eps1=1: tan(theta/2) = 0; J1=0.5, eps1=2: the arccos argument exceeds 1
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: the published three-site winding formula needs" in err


def test_winding_gap_closure_exits_three(capsys):
    assert main(["winding", "--model", "ssh", "--J2", "1.0", "--method", "numeric"]) == 3
    capsys.readouterr()


def test_table1_matches_reference(tmp_path):
    out = tmp_path / "t1.csv"
    assert main(["table1", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["N", "tau_exact", "tau_theory", "overlap_exact", "overlap_theory"]
    assert [r[0] for r in rows] == ["6", "8", "10", "20"]
    assert float(rows[1][1]) == pytest.approx(31.8117, rel=1e-3)


def test_coherence_trace_and_determinism(tmp_path):
    args = ["coherence", "--model", "impurity", "--N", "4", "--kappa", "0.2",
            "--gamma", "4", "--t-max", "20", "--t-points", "40"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = _read_csv(out1)
    assert header == ["t", "coherence"]
    assert len(rows) == 40


def test_coherence_full_method(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coherence", "--model", "ssh", "--N", "4", "--method", "full",
                 "--t-max", "10", "--t-points", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any("method=full_superoperator" in l for l in lines if l.startswith("#"))


def test_coherence_expm_method(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coherence", "--model", "ssh", "--N", "4", "--method", "expm",
                 "--t-max", "10", "--t-points", "8", "--out", str(out)]) == 0
    assert "# method=expm" in out.read_text().splitlines()
    _, rows = _read_csv(out)
    assert len(rows) == 8


def test_linear_time_grid_starts_at_zero(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coherence", "--model", "ssh", "--N", "3", "--no-log-time",
                 "--t-max", "10", "--t-points", "5", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_scaling_command(tmp_path):
    out = tmp_path / "scaling.csv"
    assert main(["scaling", "--model", "ssh", "--J2", "1.8", "--Ns", "8,12,16,20",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["N", "n_quasi_dark", "n_localized_site1", "W_closed_form",
                      "slowest_decay_rate"]
    assert len(rows) == 4
    assert all(r[3] == "1" for r in rows)


def test_scaling_prints_no_negative_zero(capsys):
    # N = 9 and 15 have exactly dark modes, whose rate -Re(+0.0) was -0.0
    assert main(["scaling", "--model", "ssh"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert [r[4] for r in rows[1:] if r[0] in ("9", "15")] == ["0", "0"]
    assert not any(field == "-0" for row in rows for field in row)


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_scaling_rejects_non_finite_eps_dark(capsys, eps):
    assert main(["scaling", "--model", "ssh", "--eps-dark", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"eps_dark must be finite and positive; got {eps}" in captured.err


def test_scaling_repeated_sizes_exit_two(capsys):
    assert main(["scaling", "--model", "ssh", "--Ns", "6,6,6,9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "system sizes must be distinct; repeated: [6]" in captured.err


def test_disorder_command(tmp_path):
    out = tmp_path / "dis.csv"
    assert main(["disorder", "--model", "ssh", "--N", "3", "--mu", "0.4",
                 "--n-realizations", "20", "--t-max", "50", "--t-points", "5",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["t", "mean_coherence", "stderr", "n_ok"]
    assert all(r[3] == "20" for r in rows)


@pytest.mark.parametrize("mu", ["nan", "inf"])
def test_disorder_rejects_non_finite_mu(tmp_path, capsys, mu):
    out = tmp_path / "dis.csv"
    assert main(["disorder", "--model", "ssh", "--N", "3", "--mu", mu,
                 "--n-realizations", "4", "--t-points", "3", "--out", str(out)]) == 2
    assert "mu must be finite" in capsys.readouterr().err


def test_site_mask_rejects_characters_other_than_0_and_1(tmp_path, capsys):
    args = ["disorder", "--model", "ssh", "--N", "3", "--n-realizations", "4",
            "--t-points", "3", "--out", str(tmp_path / "dis.csv")]
    assert main(args + ["--site-mask", "101"]) == 0
    assert main(args + ["--site-mask", "1x1"]) == 2
    assert "site-mask" in capsys.readouterr().err


def _out_of_memory(*args, **kwargs):
    # what numpy raises for a table larger than the machine; no test allocates one
    raise MemoryError("Unable to allocate 1.46 TiB for an array with shape (1000000000, 200)")


def test_request_too_large_for_memory_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(nhtop.dynamics, "log_time_grid", _out_of_memory)
    assert main(["coherence", "--model", "ssh", "--N", "3", "--t-points", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nhtop: configuration error: Unable to allocate 1.46 TiB"
                            " for an array with shape (1000000000, 200)\n")


def test_memory_error_in_an_ensemble_worker_exits_two(tmp_path, monkeypatch, capsys):
    chunk = nhtop.disorder._chunk_values

    def second_chunk_out_of_memory(H0, cfg, first, count):
        if first > 0:
            _out_of_memory()
        return chunk(H0, cfg, first, count)

    monkeypatch.setattr(nhtop.disorder, "_workers", lambda: 2)
    monkeypatch.setattr(nhtop.disorder, "_chunk_values", second_chunk_out_of_memory)
    monkeypatch.setattr(nhtop.disorder, "_chunk_rows", lambda n, n_times: 10)
    out = tmp_path / "dis.csv"
    assert nhtop.disorder._chunk_rows(3, 400) < 40
    assert main(["disorder", "--model", "ssh", "--N", "3", "--n-realizations", "40",
                 "--t-points", "400", "--out", str(out)]) == 2
    assert "nhtop: configuration error: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()  # the run fails before the output is opened


_CUSTOM_SITES = [{"kind": "qubit"}, {"kind": "cavity", "gamma": 4.0}]


@pytest.mark.parametrize("command", ["spectrum", "disorder"])
@pytest.mark.parametrize("config", [
    {"model": "ssh", "N": 4, "params": [1, 2]},
    {"model": "ssh", "N": 4, "params": {"J1": None}},
    {"model": "ssh", "N": 4, "params": {"J1": "1.0"}},
    {"model": "ssh", "N": None},
    {"model": "ssh", "N": 4.5},
    {"model": None},
    {"model": "ssh", "params": {"kappa": 0.5}},
    {"model": "custom", "custom": {"sites": [["kind"]]}},
    {"model": "custom", "custom": {"sites": {"kind": "qubit"}}},
    {"model": "custom", "custom": {"sites": [{"kind": "qubit"},
                                             {"kind": "cavity", "gamma": None}]}},
    {"model": "custom", "custom": {"sites": _CUSTOM_SITES, "edges": [{"i": 1, "j": 2}]}},
    {"model": "custom", "custom": {"sites": _CUSTOM_SITES,
                                   "edges": [{"i": 1, "j": 2, "J": None}]}},
    {"model": "custom", "custom": {"sites": _CUSTOM_SITES,
                                   "edges": [{"i": 1, "j": 2.9, "J": 0.5}]}},
])
def test_malformed_config_values_exit_two(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("custom, message", [
    ({"sites": [{"gamma": 1.0}]}, "custom site 1 lacks 'kind'"),
    ({"sites": _CUSTOM_SITES, "edges": [{"i": 1, "J": 0.5}]}, "custom edge 1 lacks 'j'"),
    ({"sites": _CUSTOM_SITES, "edges": [{"i": 1, "j": 2}]}, "custom edge 1 lacks 'J'"),
])
def test_missing_custom_key_is_named(tmp_path, capsys, custom, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "custom", "custom": custom}))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "disorder"])
def test_parameter_flag_of_another_model_exits_two(tmp_path, capsys, command):
    argv = [command, "--model", "ssh", "--N", "4", "--kappa", "0.3"]
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
    assert "configuration error: unknown parameters for ssh: ['kappa']" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--model", "three-site", "--J", "5"],
     "--J is a parameter of the impurity model, not of three-site"),
    (["--model", "impurity", "--Jnn", "0.2"],
     "--Jnn is a parameter of the three-site model, not of impurity"),
    (["--model", "three-site", "--J", "5", "--Jnn", "0.2"],
     "--J is a parameter of the impurity model, not of three-site"),
], ids=["J-three-site", "Jnn-impurity", "both"])
def test_bond_flag_of_another_model_exits_two(tmp_path, capsys, flags, message):
    # --J (impurity hopping) and --Jnn (three-site 1-3 bond) both set parameter J
    assert main(["model", *flags, "--out", str(tmp_path / "o.csv")]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("model, flag, bond", [
    ("impurity", "--J", (2, 3)), ("three-site", "--Jnn", (1, 3))])
def test_bond_flag_sets_its_own_model(tmp_path, model, flag, bond):
    out = tmp_path / "m.csv"
    assert main(["model", "--model", model, "--N", "3", flag, "0.25", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert [r[2] for r in rows if (int(r[0]), int(r[1])) == bond] == ["0.25"]


@pytest.mark.parametrize("flags, named", [
    (["--model", "ssh"], "--model"),
    (["--N", "9"], "--N"),
    (["--J2", "5"], "--J2"),
    (["--model", "ssh", "--N", "9", "--J2", "5"], "--model, --N, --J2"),
])
def test_model_flags_next_to_a_custom_config_exit_two(tmp_path, capsys, flags, named):
    cfg = Path(__file__).parent / "golden" / "custom_network.json"
    argv = ["spectrum", "--config", str(cfg), *flags, "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {named} do not apply to a custom network" in err


def test_gnuplot_header_flag(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["coherence", "--model", "ssh", "--N", "3", "--t-points", "4",
                 "--t-max", "5", "--gnuplot-header", "--out", str(out)]) == 0
    assert out.read_text().startswith("# gnuplot:")


def test_config_overridden_by_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "ssh", "N": 3,
                               "params": {"J1": 1.0, "J2": 0.5, "Gamma": 0.5}}))
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--config", str(cfg), "--J2", "1.8", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    weights = [float(r[header.index("overlap_site1")]) for r in rows]
    assert max(weights) == pytest.approx(0.7641509433962265, abs=1e-9)


def test_closed_stdout_exits_one_without_a_message():
    # 90,000 lines overflow any pipe buffer, so the write after the reader
    # has gone fails whatever the timing
    src = str(Path(nhtop.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "nhtop.cli", "model", "--N", "300"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"i,j,re,im\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_roundoff_growth_above_one_exits_three(capsys):
    # the three-site chain's slowest rates are roundoff of either sign; one
    # above 0 grows to 3e57 by t = 1e17
    assert main(["coherence", "--model", "three-site", "--N", "401", "--t-max", "1e17",
                 "--out", os.devnull]) == 3
    assert "numerical failure: coherence reaches" in capsys.readouterr().err


def test_odd_ssh_plateau_holds_at_long_times(tmp_path):
    # the dark mode's rate is exactly 0, so C stays on its plateau
    out = tmp_path / "c.csv"
    assert main(["coherence", "--model", "ssh", "--N", "101", "--t-max", "1e17",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    values = np.array([float(r[1]) for r in rows])
    assert np.max(values) <= 1.0
    plateau = nhtop.analytics.ssh_odd_asymptotic_coherence(101, 1.0, 1.8)
    assert abs(values[-1] - plateau) < 1e-12


def test_spectrum_prints_no_negative_zero(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--model", "ssh", "--N", "101", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert rows[0][1:4] == ["0", "0", "0"]  # the exact dark mode
    assert not any(field == "-0" for row in rows for field in row)


def test_write_csv_layout():
    buf = io.StringIO()
    _write_csv(buf, ("n", "x", "y"), [(1, 0.1, math.inf), (np.int64(20), -2.5, 1 / 3)],
               ("first", "second"))
    assert buf.getvalue() == ("# first\n# second\nn,x,y\n"
                              "1,0.10000000000000001,inf\n"
                              "20,-2.5,0.33333333333333331\n")


def test_package_imports_only_stdlib_and_numpy():
    # pyproject's one dependency is numpy: every import, lazy or not, names
    # the standard library, numpy or nhtop itself (relative imports)
    package = Path(nhtop.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "nhtop"}
    imported, offenders = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                imported.add(top)
                if top not in allowed:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
    assert "numpy" in imported


def test_only_the_cli_writes():
    # every other module returns data; formatting and output stay in cli.py
    package = Path(nhtop.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "print") or (
                    isinstance(f, ast.Attribute) and f.attr == "write"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _fresh_python(*argv):
    """``python *argv`` in a new interpreter on this source tree."""
    src = str(Path(nhtop.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)


def test_import_nhtop_loads_no_submodule_and_no_numpy():
    loaded = _fresh_python("-c", "import sys, nhtop; print(*sorted(sys.modules))").stdout.split()
    assert "nhtop" in loaded
    assert [m for m in loaded if m.startswith("nhtop.")] == []
    assert "numpy" not in loaded


_LOADS = """
import contextlib, io, sys
from nhtop.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(*sorted(m[6:] for m in sys.modules if m.startswith("nhtop.") and m != "nhtop.cli"))
"""


@pytest.mark.parametrize("argv, modules", [
    (["model", "--model", "three-site", "--N", "8"], ""),
    (["spectrum", "--model", "ssh", "--N", "3"], "spectral"),
    (["coherence", "--model", "impurity", "--N", "4", "--t-max", "60"], "dynamics spectral"),
    (["winding", "--model", "three-site", "--J3", "2"], "spectral topology"),
    (["table1", "--N-list", "6,8"], "analytics spectral"),
    (["scaling", "--model", "ssh"], "spectral topology"),
    (["disorder", "--model", "ssh", "--N", "7", "--n-realizations", "10"],
     "disorder dynamics spectral"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_each_command_loads_only_its_modules(argv, modules):
    # the README commands, at sizes that do not change what they import
    proc = _fresh_python("-c", _LOADS, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(["errors", "netmodel", *modules.split()])


def test_exported_names_are_their_submodules_objects(monkeypatch):
    assert len(nhtop._EXPORTS) == 57
    for name, module in nhtop._EXPORTS.items():
        assert getattr(nhtop, name) is getattr(importlib.import_module(f"nhtop.{module}"), name)
    # resolved at every access, so a patch on the submodule shows through
    monkeypatch.setattr(nhtop.spectral, "decompose", _out_of_memory)
    assert nhtop.decompose is _out_of_memory


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nhtop.no_such_name
    with pytest.raises(ImportError):
        from nhtop import no_such_name  # noqa: F401


def test_dir_and_star_import_cover_the_exports():
    submodules = {"errors", "netmodel", "spectral", "dynamics", "topology", "analytics",
                  "disorder"}
    assert set(nhtop.__all__) == set(nhtop._EXPORTS) | submodules
    assert set(nhtop.__all__) <= set(dir(nhtop))
    namespace = {}
    exec("from nhtop import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nhtop.__all__)
    assert namespace["decompose"] is nhtop.spectral.decompose
    assert namespace["topology"] is nhtop.topology


@pytest.mark.parametrize("argv, message", [
    (["coherence", "--t-points", "0"], "--t-points must be at least 1; got 0"),
    (["coherence", "--no-log-time", "--t-points", "0"], "--t-points must be at least 1; got 0"),
    (["disorder", "--n-realizations", "4", "--t-points", "0"],
     "--t-points must be at least 1; got 0"),
    (["table1", "--N-list", ","], "--N-list names no system size; got ','"),
], ids=["coherence-log", "coherence-linear", "disorder", "table1"])
def test_empty_table_exits_two(capsys, argv, message):
    # each printed a header over no rows and exited 0
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nhtop: configuration error: {message}\n"


@pytest.mark.parametrize("grid", [[], ["--no-log-time"]], ids=["log", "linear"])
def test_non_finite_t_max_is_one_configuration_line(grid):
    # geomspace and linspace warned "invalid value encountered in multiply" first
    proc = _fresh_python("-m", "nhtop.cli", "coherence", "--t-max", "inf", *grid)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "nhtop: configuration error: --t-max must be finite; got inf\n"
