import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhtop
from nhtop.cli import build_parser, main


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


@pytest.mark.parametrize("code, loaded", [
    ("import nhtop", False),
    ("import nhtop.cli; nhtop.cli.main(['model', '--out', os.devnull])", False),
    ("import nhtop.cli; nhtop.cli.main(['spectrum', '--out', os.devnull])", False),
    ("import nhtop.cli; nhtop.cli.main(['disorder', '--out', os.devnull])", False),
    ("import nhtop.cli; nhtop.cli.main(['coherence', '--method', 'expm', '--out', os.devnull])",
     False),
    ("import nhtop.cli; nhtop.cli.main(['coherence', '--method', 'full', '--N', '4', "
     "'--out', os.devnull])", False),
    ("import nhtop; nhtop.expm_oracle(nhtop.build_ssh_model(3, 1.0, 1.8, 0.5), 1.0)", True),
])
def test_scipy_linalg_loads_on_first_use(code, loaded):
    src = str(Path(nhtop.__file__).resolve().parents[1])
    probe = f"import os, sys; {code}; print('scipy.linalg' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(loaded)]


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
