"""Byte-for-byte guard on the CLI output of the README examples.

Each case runs ``nhtop.cli.main`` in process and compares what it writes
with a file under ``tests/golden/``: the seven README command-line examples
(``table1`` through its ``--out`` file, as the README calls it) and
``spectrum --config`` on the README's custom network.  A change that alters
any printed byte fails here, as does one that moves the ``--gnuplot-header``
line; if the change is intended, regenerate the files
from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and explain the difference where the change is recorded.
"""

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from nhtop.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = {
    "model_three_site.csv": ["model", "--model", "three-site", "--N", "8"],
    "spectrum_ssh.csv": ["spectrum", "--model", "ssh", "--N", "3", "--J1", "1", "--J2", "1.8",
                         "--gamma", "0.5"],
    "coherence_impurity.csv": ["coherence", "--model", "impurity", "--N", "4", "--kappa", "0.5",
                               "--gamma", "4", "--t-max", "60"],
    "winding_three_site.txt": ["winding", "--model", "three-site", "--J3", "2"],
    "table1.csv": ["table1", "--out", "table.csv"],
    "scaling_three_site.csv": ["scaling", "--model", "three-site", "--J1", "1.4", "--J2", "0.3",
                               "--J3", "3", "--Jnn", "0.7", "--gamma", "1.5",
                               "--Ns", "6,9,12,15,18"],
    "disorder_ssh.csv": ["disorder", "--model", "ssh", "--N", "7", "--mu", "0.4",
                         "--n-realizations", "1000"],
    "spectrum_custom.csv": ["spectrum", "--config", str(GOLDEN / "custom_network.json")],
}


def run_case(argv, workdir: pathlib.Path) -> bytes:
    """Exit status must be 0; returns the bytes written to ``--out`` or stdout."""
    argv = list(argv)
    out_file = None
    if "--out" in argv:
        k = argv.index("--out") + 1
        out_file = workdir / argv[k]
        argv[k] = str(out_file)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"nhtop {' '.join(argv)} exited {code}")
    return out_file.read_bytes() if out_file is not None else buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == (GOLDEN / name).read_bytes()


#: the columns each CSV command's ``--gnuplot-header`` line plots
GNUPLOT_COLUMNS = {"model": "1:3", "spectrum": "2:3", "coherence": "1:2", "table1": "1:2",
                   "scaling": "1:5", "disorder": "1:2"}


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][0] in GNUPLOT_COLUMNS))
def test_gnuplot_header_inserts_one_line_into_golden(name, tmp_path):
    argv = CASES[name]
    out = str(tmp_path / argv[argv.index("--out") + 1]) if "--out" in argv else "-"
    gnuplot = (f"# gnuplot: set datafile separator ','; plot '{out}' "
               f"using {GNUPLOT_COLUMNS[argv[0]]} with lines\n")
    lines = (GOLDEN / name).read_bytes().decode("utf-8").splitlines(keepends=True)
    # first, except in a disorder file, where the configuration echo leads
    at = 0
    if argv[0] == "disorder":
        at = 1 + next(i for i, line in enumerate(lines) if line.startswith("# n_ok="))
    lines.insert(at, gnuplot)
    assert run_case(argv + ["--gnuplot-header"], tmp_path) == "".join(lines).encode("utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            (GOLDEN / name).write_bytes(run_case(argv, pathlib.Path(tmp)))
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
