"""The benchmark's four workloads.

A workload turns ``--seed`` into inputs, computes the independent references
it checks against (``prepare``, outside every timed interval) and hands out
rounds of operations.  Every round repeats the same operations on the same
inputs, so each run attempts whole rounds and the share of failed
operations does not depend on how many rounds fit in the run.

An ``Op`` is one timed call into nhtop plus the check of what it returned.
``work`` is how many units of the workload's throughput metric it does.
``known_fault`` marks an operation that fails on every run because of a
named program fault; it is counted as failed without making the run
incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys

import numpy as np

import reference as ref

DISORDER_BASE_SEED = 20230715

#: the CLI's default ("standard figure") parameter sets, used by the README
#: examples that leave parameters out
SSH_DEFAULT = {"J1": 1.0, "J2": 1.8, "Gamma": 0.5}
THREE_SITE_DEFAULT = {"J1": 1.0, "J2": 0.3, "J3": 2.0, "J": 0.7,
                      "eps1": 0.0, "eps2": 0.0, "Gamma": 0.5}

TABLE1_PARAMS = {"J1": 1.0, "J2": 1.8, "Gamma": 0.5}
#: tau_exact must match the 50-digit reference to this relative tolerance
TABLE1_TAU_RTOL = 1e-3
#: table1 rows that fail on every run: dense-eigensolver decay rates below
#: double-precision resolution are printed as values
TABLE1_UNRESOLVED = (60, 80)

C_MAX = 1.0 + 1e-12


class Op:
    __slots__ = ("label", "run", "check", "work", "known_fault")

    def __init__(self, label, run, check, work=0, known_fault=False):
        self.label, self.run, self.check = label, run, check
        self.work, self.known_fault = work, known_fault


def _bounded(values):
    v = np.asarray(values, dtype=float)
    if v.size and (np.min(v) < 0.0 or np.max(v) > C_MAX):
        return f"C(t) outside [0, 1+1e-12]: min {np.min(v):.3g} max {np.max(v):.17g}"
    return None


def _close(name, got, want, atol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return None if err <= atol else f"{name} off by {err:.3g} (tolerance {atol:g})"


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _ensemble_reference(model, N, params, mu, R, base_seed, times):
    """Clean trace, mean and standard error of R realizations, from the references."""
    h0 = ref.chain_matrix(model, N, params)
    lam, c = ref.modes(h0)
    clean = ref.coherence(lam, c, times)
    table = np.empty((R, times.size))
    for r in range(R):
        lam, c = ref.modes(h0 + np.diag(ref.detunings(base_seed, r, N, mu)))
        table[r] = ref.coherence(lam, c, times)
    return clean, table.mean(axis=0), table.std(axis=0, ddof=1) / math.sqrt(R)


def _mp_table1(root):
    import json
    with open(os.path.join(root, "perfbench", "table1_reference.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["params"] != TABLE1_PARAMS:
        raise ValueError("table1_reference.json was made for other parameters")
    return {row["N"]: float(row["tau"]) for row in doc["rows"]}


def _check_table1_row(N, tau_exact, tau_theory, overlap_exact, mp_tau):
    """One table1 row against the mpmath lifetime and the closed-form rate."""
    h = ref.ssh_matrix(N, **TABLE1_PARAMS)
    lam, v = np.linalg.eig(-1j * h)
    slow = int(np.argmin(-lam.real))
    overlap = abs(v[0, slow]) ** 2 / np.linalg.norm(v[:, slow]) ** 2
    theory = 1.0 / ref.ssh_even_rate(N, **TABLE1_PARAMS)
    reasons = [
        None if abs(tau_theory - theory) <= 1e-12 * theory
        else f"N={N} tau_theory {tau_theory:.17g} != closed form {theory:.17g}",
        _close(f"N={N} overlap_exact", overlap_exact, overlap, 1e-8),
    ]
    if math.isfinite(tau_exact):  # a row may decline to print an unresolved value
        if abs(tau_exact - mp_tau) > TABLE1_TAU_RTOL * mp_tau:
            reasons.append(f"N={N} tau_exact {tau_exact:.6g} against 50-digit reference "
                           f"{mp_tau:.6g}")
    return _first(*reasons)


class Workload:
    name = ""
    work_unit = ""   # what work_per_s counts
    op_unit = ""     # what one operation is

    def __init__(self, seed, root, workdir):
        self.seed, self.root, self.workdir = seed, root, workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def inputs(self):
        """Build the workload's inputs with nhtop (timed as part of set-up)."""

    def prepare(self):
        """Compute the independent references (not timed)."""

    def round(self, in_process=False):
        """One round of operations.

        ``in_process`` asks the CLI workload to call ``nhtop.cli.main`` in this
        process, so that the traced run can see its layers; the in-process
        workloads ignore it.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cli-figures
# ---------------------------------------------------------------------------

class CliFigures(Workload):
    name = "cli-figures"
    work_unit = "CLI calls"
    op_unit = "one `python -m nhtop.cli` process"

    def inputs(self):
        self.base_seed = DISORDER_BASE_SEED + self.seed
        self.table_path = os.path.join(self.workdir, "table.csv")
        self.commands = [
            ("model", ["model", "--model", "three-site", "--N", "8"]),
            ("spectrum", ["spectrum", "--model", "ssh", "--N", "3", "--J1", "1", "--J2", "1.8",
                          "--gamma", "0.5"]),
            ("coherence", ["coherence", "--model", "impurity", "--N", "4", "--kappa", "0.5",
                           "--gamma", "4", "--t-max", "60"]),
            ("winding", ["winding", "--model", "three-site", "--J3", "2"]),
            ("table1", ["table1", "--out", self.table_path]),
            ("scaling", ["scaling", "--model", "three-site", "--J1", "1.4", "--J2", "0.3",
                         "--J3", "3", "--Jnn", "0.7", "--gamma", "1.5", "--Ns", "6,9,12,15,18"]),
            ("disorder", ["disorder", "--model", "ssh", "--N", "7", "--mu", "0.4",
                          "--n-realizations", "1000", "--seed", str(self.base_seed)]),
        ]
        self.rng.shuffle(self.commands)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.max_rss_kb = 0

    def prepare(self):
        self.mp_tau = _mp_table1(self.root)
        self.first_output = {}

    # -- running ------------------------------------------------------------

    def _call(self, argv):
        if os.path.exists(self.table_path):
            os.remove(self.table_path)
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "nhtop.cli", *argv], cwd=self.root,
                                    env=self.env, stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        table = None
        if os.path.exists(self.table_path):
            with open(self.table_path, "rb") as fh:
                table = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return proc.returncode, out, table, stderr

    def _call_in_process(self, argv):
        import nhtop.cli
        if os.path.exists(self.table_path):
            os.remove(self.table_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = nhtop.cli.main(argv)
        table = None
        if os.path.exists(self.table_path):
            with open(self.table_path, "rb") as fh:
                table = fh.read()
        return rc, out.getvalue().encode(), table, err.getvalue().encode()

    def round(self, in_process=False):
        call = self._call_in_process if in_process else self._call
        return [Op(cmd, lambda argv=argv: call(argv), lambda res, cmd=cmd: self._check(cmd, res),
                   work=1) for cmd, argv in self.commands]

    # -- checks -------------------------------------------------------------

    def _check(self, cmd, res):
        rc, out, table, stderr = res
        if rc != 0:
            return f"{cmd} exited {rc}: {stderr.decode(errors='replace').strip()[:200]}"
        seen = self.first_output.get(cmd)
        if seen is not None:
            return None if seen == (out, table) else f"{cmd} output differs between passes"
        try:
            reason = getattr(self, f"_check_{cmd}")(out.decode(), table)
        except (ValueError, IndexError, KeyError) as exc:
            reason = f"{cmd} output unreadable: {exc!r}"
        if reason is None:
            self.first_output[cmd] = (out, table)
        return reason

    @staticmethod
    def _csv(text, header):
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        if not lines or lines[0] != header:
            raise ValueError(f"expected header {header!r}")
        return [ln.split(",") for ln in lines[1:]]

    def _check_model(self, text, _):
        rows = self._csv(text, "i,j,re,im")
        h = np.zeros((8, 8), dtype=complex)
        for i, j, re, im in rows:
            h[int(i) - 1, int(j) - 1] = complex(float(re), float(im))
        want = ref.three_site_matrix(8, **THREE_SITE_DEFAULT)
        return None if len(rows) == 64 and np.array_equal(h, want) else "model matrix differs"

    def _check_spectrum(self, text, _):
        rows = self._csv(text, "index,re_lambda,im_lambda,decay_rate,overlap_site1,"
                               "localization_site,localization_length")
        lam = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        rate = np.array([float(r[3]) for r in rows])
        c1 = np.array([float(r[4]) for r in rows])
        ref_lam, ref_c = ref.modes(ref.ssh_matrix(3, **SSH_DEFAULT))
        nearest = np.argmin(np.abs(lam[:, None] - ref_lam[None, :]), axis=1)
        return _first(
            None if len(rows) == 3 else "spectrum needs 3 rows",
            _close("eigenvalues", lam, ref_lam[nearest], 1e-12),
            None if np.array_equal(rate, -lam.real) else "decay_rate != -re_lambda",
            None if np.all(np.diff(rate) >= 0) else "rows not sorted by decay rate",
            _close("overlap_site1", c1, np.abs(ref_c[nearest]), 1e-12),
        )

    def _check_coherence(self, text, _):
        if "# method=" not in text:
            return "coherence output lacks its method line"
        rows = self._csv(text, "t,coherence")
        t = np.array([float(r[0]) for r in rows])
        v = np.array([float(r[1]) for r in rows])
        grid = ref.log_grid(60.0)
        lam, c = ref.modes(ref.impurity_matrix(4, 1.0, 0.5, 4.0))
        return _first(
            None if t.shape == grid.shape else "coherence grid has the wrong length",
            _close("coherence times", t, grid, 1e-12 * 60.0),
            _bounded(v),
            _close("coherence", v, ref.coherence(lam, c, grid), 1e-10),
        )

    def _check_winding(self, text, _):
        p = THREE_SITE_DEFAULT
        want = f"W={ref.three_site_winding(p['J2'], 2.0, p['J'])} method=numeric\n"
        return None if text == want else f"winding printed {text!r}, expected {want!r}"

    def _check_table1(self, text, table):
        if text or table is None:
            return "table1 --out must write the file and nothing to stdout"
        rows = self._csv(table.decode(), "N,tau_exact,tau_theory,overlap_exact,overlap_theory")
        if [int(r[0]) for r in rows] != [6, 8, 10, 20]:
            return "table1 rows are not N=6,8,10,20"
        return _first(*(_check_table1_row(int(r[0]), float(r[1]), float(r[2]), float(r[3]),
                                           self.mp_tau[int(r[0])]) for r in rows))

    def _check_scaling(self, text, _):
        rows = self._csv(text, "N,n_quasi_dark,n_localized_site1,W_closed_form,slowest_decay_rate")
        p = {"J1": 1.4, "J2": 0.3, "J3": 3.0, "J": 0.7, "eps1": 0.0, "eps2": 0.0, "Gamma": 1.5}
        W = ref.three_site_winding(p["J2"], p["J3"], p["J"])
        reasons = []
        for r in rows:
            N = int(r[0])
            lam = np.linalg.eigvals(-1j * ref.three_site_matrix(N, **p))
            reasons.append(_close(f"N={N} slowest_decay_rate", float(r[4]),
                                  np.min(-lam.real), 1e-10))
            if int(r[3]) != W:
                reasons.append(f"N={N} W_closed_form {r[3]} != {W}")
        if [int(r[0]) for r in rows] != [6, 9, 12, 15, 18]:
            reasons.append("scaling rows are not N=6..18")
        elif any(int(r[2]) != W for r in rows[-2:]):
            reasons.append(f"n_localized_site1 at N=15,18 is not W={W}")
        return _first(*reasons)

    def _check_disorder(self, text, _):
        rows = self._csv(text, "t,mean_coherence,stderr,n_ok")
        t = np.array([float(r[0]) for r in rows])
        grid = ref.log_grid(100.0, 200)
        if "# n_ok=1000 n_failed=0" not in text:
            return "disorder did not report n_ok=1000 n_failed=0"
        if t.shape != grid.shape:
            return "disorder grid has the wrong length"
        _, mean, stderr = _ensemble_reference("ssh", 7, SSH_DEFAULT, 0.4, 1000, self.base_seed, grid)
        m = np.array([float(r[1]) for r in rows])
        return _first(
            _close("disorder times", t, grid, 1e-12 * 100.0),
            _bounded(m),
            _close("mean_coherence", m, mean, 1e-10),
            _close("stderr", [float(r[2]) for r in rows], stderr, 1e-10),
            None if all(r[3] == "1000" for r in rows) else "n_ok column is not 1000",
        )


# ---------------------------------------------------------------------------
# chain-census
# ---------------------------------------------------------------------------

class ChainCensus(Workload):
    name = "chain-census"
    work_unit = "chain models"
    op_unit = "one model analysis, census, winding or table1 row"

    SSH_SIZES = (51, 100, 201, 400)
    THREE_SITE_SIZES = (51, 102, 201, 402)
    SSH_CENSUS = (12, 18, 24, 30, 36)
    THREE_SITE_CENSUS = (12, 18, 24, 30, 36)
    TABLE1_SIZES = (20, 40, 60, 80)

    def inputs(self):
        import nhtop.dynamics
        rng = self.rng
        self.ssh = {"J1": 1.0, "J2": rng.uniform(1.6, 2.4), "Gamma": rng.uniform(0.3, 1.0)}
        self.three = {"J1": rng.uniform(1.2, 1.6), "J2": rng.uniform(0.2, 0.4),
                      "J3": rng.uniform(2.6, 3.4), "J": rng.uniform(0.6, 0.8),
                      "eps1": 0.0, "eps2": 0.0, "Gamma": rng.uniform(1.2, 1.8)}
        self.models = ([("ssh", n, self.ssh) for n in self.SSH_SIZES]
                       + [("three-site", n, self.three) for n in self.THREE_SITE_SIZES])
        self.grid = nhtop.dynamics.log_time_grid(100.0)
        self.W = {"ssh": ref.ssh_winding(self.ssh["J1"], self.ssh["J2"]),
                  "three-site": ref.three_site_winding(self.three["J2"], self.three["J3"],
                                                       self.three["J"])}

    def prepare(self):
        self.ref_models = {}
        for model, N, p in self.models:
            h = ref.chain_matrix(model, N, p)
            lam, c = ref.modes(h)
            self.ref_models[(model, N)] = (h, lam, ref.coherence(lam, c, self.grid))
        self.ref_slowest = {}
        for model, p, sizes in (("ssh", self.ssh, self.SSH_CENSUS),
                                ("three-site", self.three, self.THREE_SITE_CENSUS)):
            for N in sizes:
                lam = np.linalg.eigvals(-1j * ref.chain_matrix(model, N, p))
                self.ref_slowest[(model, N)] = float(np.min(-lam.real))
        self.mp_tau = _mp_table1(self.root)

    def round(self, in_process=False):
        import nhtop
        ops = []
        for model, N, p in self.models:
            def analyse(model=model, N=N, p=p):
                H = nhtop.netmodel.build_model(model, N, p)
                sd = nhtop.spectral.decompose(H)
                rows = nhtop.spectral.spectrum_rows(sd)
                return H, rows, nhtop.dynamics.coherence_trace(H, self.grid)
            ops.append(Op(f"{model} N={N}", analyse,
                          lambda res, model=model, N=N: self._check_model(model, N, res), work=1))
        for model, p, sizes in (("ssh", self.ssh, self.SSH_CENSUS),
                                ("three-site", self.three, self.THREE_SITE_CENSUS)):
            ops.append(Op(f"{model} census",
                          lambda model=model, p=p, sizes=sizes:
                              nhtop.topology.bulk_edge_report(model, p, sizes),
                          lambda res, model=model: self._check_census(model, res)))
        ops.append(Op("ssh winding",
                      lambda: nhtop.topology.winding_number_numeric(
                          nhtop.topology.bloch_ssh(self.ssh["J1"], self.ssh["J2"],
                                                   self.ssh["Gamma"])),
                      lambda res: self._check_winding("ssh", res)))
        ops.append(Op("three-site winding",
                      lambda: nhtop.topology.winding_number_numeric(
                          nhtop.topology.bloch_three_site(
                              *(self.three[k] for k in ("J1", "J2", "J3", "J", "eps1", "eps2",
                                                        "Gamma")))),
                      lambda res: self._check_winding("three-site", res)))
        for N in self.TABLE1_SIZES:
            ops.append(Op(f"table1 N={N}",
                          lambda N=N: nhtop.analytics.table1(N_list=(N,), **TABLE1_PARAMS),
                          lambda res, N=N: self._check_table1(N, res),
                          known_fault=N in TABLE1_UNRESOLVED))
        return ops

    def _check_model(self, model, N, res):
        H, rows, trace = res
        h, ref_lam, ref_trace = self.ref_models[(model, N)]
        if not np.array_equal(H.matrix, h):
            return f"{model} N={N}: H differs from the reference builder"
        lam = np.array([complex(r[1], r[2]) for r in rows])
        reasons = [
            None if len(rows) == N else f"{model} N={N}: {len(rows)} spectrum rows",
            None if ref.max_eigenvalue_distance(lam, ref_lam) <= 1e-9
            else f"{model} N={N}: eigenvalues differ from numpy.linalg.eig",
            None if np.array_equal([r[3] for r in rows], -lam.real) else "decay_rate != -re",
            _bounded(trace.values),
            _close(f"{model} N={N} coherence", trace.values, ref_trace, 1e-8),
        ]
        if model == "ssh" and N % 2:
            plateau = ref.ssh_odd_plateau(N, self.ssh["J1"], self.ssh["J2"])
            reasons.append(_close(f"ssh N={N} dark-mode weight", rows[0][4], plateau, 1e-10))
            if rows[0][5] != 1:
                reasons.append(f"ssh N={N}: dark mode peaks at site {rows[0][5]}, not 1")
        return _first(*reasons)

    def _check_census(self, model, report):
        W = self.W[model]
        reasons = [None if report.W_closed_form == W
                   else f"{model} census W_closed_form {report.W_closed_form} != {W}"]
        for row in report.rows:
            reasons.append(_close(f"{model} census N={row.N} slowest rate",
                                  row.slowest_decay_rate, self.ref_slowest[(model, row.N)], 1e-10))
        if any(row.n_localized_site1 != W for row in report.rows[-2:]):
            reasons.append(f"{model} census: n_localized_site1 at the two largest N is not W={W}")
        return _first(*reasons)

    def _check_winding(self, model, res):
        return None if res.W == self.W[model] else f"{model} winding {res.W} != {self.W[model]}"

    def _check_table1(self, N, rows):
        if len(rows) != 1 or rows[0].N != N:
            return f"table1 N={N} returned {len(rows)} rows"
        r = rows[0]
        return _check_table1_row(N, r.tau_exact, r.tau_theory, r.overlap_exact, self.mp_tau[N])


# ---------------------------------------------------------------------------
# disorder-ensemble
# ---------------------------------------------------------------------------

class DisorderEnsemble(Workload):
    name = "disorder-ensemble"
    work_unit = "disorder realizations"
    op_unit = "one run_ensemble call"

    def inputs(self):
        import nhtop
        times = nhtop.dynamics.log_time_grid(100.0, 200)
        base = DISORDER_BASE_SEED + self.seed
        cfg = nhtop.disorder.DisorderConfig
        self.configs = [
            ("ssh N=7 mu=0.4", cfg("ssh", 7, SSH_DEFAULT, 0.4, 1000, base, times)),
            ("three-site N=30", cfg("three-site", 30, THREE_SITE_DEFAULT,
                                    self.rng.uniform(0.2, 0.5), 300, base, times)),
            ("ssh N=7 mu=0", cfg("ssh", 7, SSH_DEFAULT, 0.0, 100, base, times)),
        ]

    def prepare(self):
        self.refs = {label: _ensemble_reference(c.model, c.N, c.params, c.mu, c.n_realizations,
                                                c.base_seed, np.asarray(c.times))
                     for label, c in self.configs}

    def round(self, in_process=False):
        import nhtop
        return [Op(label, lambda c=c: nhtop.disorder.run_ensemble(c),
                   lambda res, label=label, c=c: self._check(label, c, res), work=c.n_realizations)
                for label, c in self.configs]

    def _check(self, label, cfg, res):
        clean, mean, stderr = self.refs[label]
        reasons = [
            None if res.n_failed == 0 and res.n_ok == cfg.n_realizations
            else f"{label}: n_ok={res.n_ok} n_failed={res.n_failed}",
            _bounded(res.mean_trace.values),
            _close(f"{label} clean trace", res.clean_trace.values, clean, 1e-10),
            _close(f"{label} mean", res.mean_trace.values, mean, 1e-10),
            _close(f"{label} stderr", res.stderr_trace, stderr, 1e-10),
        ]
        if cfg.mu == 0.0 and not (np.array_equal(res.mean_trace.values, res.clean_trace.values)
                                  and not np.any(res.stderr_trace)):
            reasons.append(f"{label}: the mu=0 ensemble is not exactly the clean trace")
        return _first(*reasons)


# ---------------------------------------------------------------------------
# oracle-routes
# ---------------------------------------------------------------------------

class OracleRoutes(Workload):
    name = "oracle-routes"
    work_unit = "oracle time points"
    op_unit = "one expm or superoperator trace"

    EXPM_N = 50
    EXPM_POINTS = 400
    SUPEROP_N = 9
    SUPEROP_POINTS = 100
    T_MAX = 100.0

    def inputs(self):
        import nhtop
        rng = self.rng
        self.p_expm = {"J1": 1.0, "J2": rng.uniform(1.5, 2.2), "Gamma": rng.uniform(0.3, 0.8)}
        self.p_sop = {"J1": 1.0, "J2": rng.uniform(1.5, 2.2), "Gamma": rng.uniform(0.3, 0.8)}
        self.grids = {}
        for route, n in (("expm", self.EXPM_POINTS), ("superop", self.SUPEROP_POINTS)):
            self.grids[(route, "log")] = nhtop.dynamics.log_time_grid(self.T_MAX, n)
            self.grids[(route, "uniform")] = np.linspace(0.0, self.T_MAX, n)

    def prepare(self):
        import nhtop
        self.refs = {}
        for route, N, p in (("expm", self.EXPM_N, self.p_expm),
                            ("superop", self.SUPEROP_N, self.p_sop)):
            H = nhtop.netmodel.build_model("ssh", N, p)
            lam, c = ref.modes(ref.ssh_matrix(N, **p))
            for kind in ("log", "uniform"):
                grid = self.grids[(route, kind)]
                spectral = nhtop.dynamics.coherence_trace(H, grid, method="spectral").values
                self.refs[(route, kind)] = (ref.coherence(lam, c, grid), spectral)

    def round(self, in_process=False):
        import nhtop
        ops = []
        for kind in ("log", "uniform"):
            def expm_trace(grid=self.grids[("expm", kind)]):
                H = nhtop.netmodel.build_model("ssh", self.EXPM_N, self.p_expm)
                return nhtop.dynamics.coherence_trace(H, grid, method="expm")

            def superop_trace(grid=self.grids[("superop", kind)]):
                H = nhtop.netmodel.build_model("ssh", self.SUPEROP_N, self.p_sop)
                sop = nhtop.netmodel.superoperator_from_hamiltonian(H)
                return nhtop.dynamics.coherence_trace_superoperator(sop, grid)

            ops.append(Op(f"expm {kind}", expm_trace,
                          lambda res, kind=kind: self._check("expm", kind, "expm", res),
                          work=self.EXPM_POINTS))
            ops.append(Op(f"superoperator {kind}", superop_trace,
                          lambda res, kind=kind: self._check("superop", kind,
                                                             "full_superoperator", res),
                          work=self.SUPEROP_POINTS))
        return ops

    def _check(self, route, kind, method, trace):
        want, spectral = self.refs[(route, kind)]
        return _first(
            None if trace.method == method else f"{route} {kind} ran as {trace.method}",
            _bounded(trace.values),
            _close(f"{route} {kind} vs reference", trace.values, want, 1e-9),
            _close(f"{route} {kind} vs spectral route", trace.values, spectral, 1e-9),
        )


WORKLOADS = {w.name: w for w in (CliFigures, ChainCensus, DisorderEnsemble, OracleRoutes)}
