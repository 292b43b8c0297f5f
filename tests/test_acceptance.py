"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test records a summary line (printed after the run) and then asserts.
Criterion 4's size-independence clause is asserted at its stated 1e-3
sup-norm tolerance even though the physical finite-size splitting between
the N=4 and N=400 chains already produces a ~2.2e-3 trace difference; see
the test docstring.
"""

import math
import time

import numpy as np
import pytest

from nhtop import analytics, disorder, dynamics, netmodel, spectral, topology
from conftest import fitted_decay_rate, random_network


def test_criterion_1_benchmark_table(record_criterion):
    t0 = time.perf_counter()
    rows = {r.N: r for r in analytics.table1(1.0, 1.8, 0.5, (6, 8, 10, 20))}
    elapsed = time.perf_counter() - t0
    want = {
        6: (6.9367, 10.9813, 0.5355, 0.6638),
        8: (31.8117, 35.5794, 0.6715, 0.6915),
        10: (111.1859, 115.2774, 0.6888, 0.6941),
        20: (4.1153e4, 4.1159e4, 0.6914, 0.6914),
    }
    worst_tau, worst_overlap = 0.0, 0.0
    for n, (te, tt, oe, ot) in want.items():
        row = rows[n]
        worst_tau = max(worst_tau, abs(row.tau_exact - te) / te,
                        abs(row.tau_theory - tt) / tt)
        worst_overlap = max(worst_overlap, abs(row.overlap_exact - oe),
                            abs(row.overlap_theory - ot))
    ok = worst_tau < 1e-3 and worst_overlap < 1e-3 and elapsed < 1.0
    record_criterion(1, "benchmark lifetime/overlap table",
                     ok, f"tau rel {worst_tau:.2e}, overlap abs {worst_overlap:.2e}, {elapsed:.2f}s")
    assert worst_tau < 1e-3
    assert worst_overlap < 1e-3
    assert elapsed < 1.0


def test_criterion_2_winding_numbers(record_criterion):
    t0 = time.perf_counter()
    results = []
    for J2, w in ((1.8, 1), (0.5, 0)):
        num = topology.winding_number_numeric(topology.bloch_ssh(1.0, J2, 0.5)).W
        closed = topology.winding_ssh_closed_form(1.0, J2).W
        results.append(num == w and closed == w)
    for J3, w in ((0.2, 0), (0.7, 1), (2.0, 2)):
        bloch = topology.bloch_three_site(1.0, 0.3, J3, 0.7, 0.0, 0.0, 0.5)
        num = topology.winding_number_numeric(bloch).W
        closed = topology.winding_three_site_closed_form(1.0, 0.3, J3, 0.7).W
        results.append(num == w and closed == w)
    elapsed = time.perf_counter() - t0
    ok = all(results) and elapsed < 1.0
    record_criterion(2, "winding numbers, numeric = closed form",
                     ok, f"{sum(results)}/5 points, {elapsed:.2f}s")
    assert all(results)
    assert elapsed < 1.0


def test_criterion_3_odd_chain_plateau(record_criterion):
    worst = 0.0
    for n in (3, 5, 7):
        H = netmodel.build_ssh_model(n, 1.0, 1.8, 0.5)
        c100 = dynamics.coherence_trace(H, np.array([100.0])).values[0]
        worst = max(worst, abs(c100 - analytics.ssh_odd_asymptotic_coherence(n, 1.0, 1.8)))
    record_criterion(3, "odd-chain coherence plateau", worst < 1e-3, f"max dev {worst:.2e}")
    assert worst < 1e-3


def test_criterion_4_impurity_closed_form(record_criterion):
    """Fitted decay rates against 1/tau, and N=4 vs N=400 trace agreement.

    The second clause is asserted at the stated 1e-3 sup-norm.  The slow-mode
    eigenvalue of the four-site chain differs from its asymptotic value by
    ~8.5e-4 (a finite-size effect of order exp(-2 N Im k), fixed by the model,
    not by the implementation), which puts the true sup-norm difference at
    ~2.2e-3 for both couplings; the clause therefore fails and is reported
    honestly rather than loosened.
    """
    rate_ok = True
    details = []
    for kappa, tau in ((0.2, 60.0), (0.5, 9.291502622129181)):
        H4 = netmodel.build_impurity_model(4, 1.0, kappa, 4.0)
        times = np.linspace(0.0, 3.0 * tau, 300)
        fitted = fitted_decay_rate(times, dynamics.coherence_trace(H4, times).values)
        rel = abs(fitted - 1.0 / tau) * tau
        rate_ok = rate_ok and rel < 0.02
        details.append(f"kappa={kappa}: rate off {rel:.1%}")

    sup = 0.0
    gaps = []
    for kappa, tau in ((0.2, 60.0), (0.5, 9.291502622129181)):
        times = np.linspace(0.0, 3.0 * tau, 400)
        c4 = dynamics.coherence_trace(netmodel.build_impurity_model(4, 1.0, kappa, 4.0), times)
        c400 = dynamics.coherence_trace(netmodel.build_impurity_model(400, 1.0, kappa, 4.0), times)
        sup = max(sup, float(np.max(np.abs(c4.values - c400.values))))
        # the slow mode is the localized quasi-momentum's; its N=4 vs N=400 shift
        k4, k400 = (max(analytics.impurity_quasimomentum_roots(1.0, kappa, 4.0, n),
                        key=lambda k: k.imag) for n in (4, 400))
        lam4, lam400 = analytics.quasimomentum_eigenvalues([k4, k400], 1.0, 4.0)
        gaps.append(f"kappa={kappa}: {abs(lam4 - lam400):.1e}")
    size_ok = sup < 1e-3
    record_criterion(4, "impurity decay law and size independence",
                     rate_ok and size_ok,
                     "; ".join(details) + f"; sup|C4-C400| {sup:.2e} vs 1e-3"
                     + "; slow-mode eigenvalue gap N=4 vs N=400 " + ", ".join(gaps))
    assert rate_ok
    assert size_ok, (
        f"sup-norm N=4 vs N=400 is {sup:.3e}: the finite-size eigenvalue "
        "splitting of the four-site chain exceeds the 1e-3 budget"
    )


def test_criterion_5_reduction_oracle(record_criterion):
    rng = np.random.default_rng(20240201)
    times = np.linspace(0.0, 50.0, 50)
    worst = 0.0
    for _ in range(20):
        spec = random_network(rng, max_sites=6)
        H = netmodel.build_effective_hamiltonian(spec)
        sop = netmodel.superoperator_from_hamiltonian(H)
        full = dynamics.coherence_trace_superoperator(sop, times)
        # expm on the reduced generator isolates the reduction itself from
        # the spectral-route tolerance, which criterion 6 covers separately
        reduced = dynamics.coherence_trace(H, times, method="expm")
        worst = max(worst, float(np.max(np.abs(full.values - reduced.values))))
    record_criterion(5, "full-superoperator reduction oracle", worst < 1e-12,
                     f"20 networks, max dev {worst:.2e}")
    assert worst < 1e-12


def test_criterion_6_method_equivalence(record_criterion):
    times = np.linspace(0.0, 100.0, 40)
    models = [
        netmodel.build_impurity_model(30, 1.0, 0.5, 4.0),
        netmodel.build_ssh_model(30, 1.0, 1.8, 0.5),
        netmodel.build_three_site_model(30, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5),
    ]
    worst = 0.0
    for H in models:
        a = dynamics.coherence_trace(H, times, method="spectral")
        b = dynamics.coherence_trace(H, times, method="expm")
        worst = max(worst, float(np.max(np.abs(a.values - b.values))))
    record_criterion(6, "spectral vs matrix-exponential traces", worst < 1e-10,
                     f"N=30, 3 models, max dev {worst:.2e}")
    assert worst < 1e-10


def test_criterion_7_quasimomentum_roots(record_criterion):
    N, J, kappa, Gamma = 20, 1.0, 0.5, 4.0
    roots = analytics.impurity_quasimomentum_roots(J, kappa, Gamma, N)
    res = max(analytics.quasimomentum_residual(k, J, kappa, Gamma, N) for k in roots)
    k_loc = max(roots, key=lambda k: k.imag)
    lam = analytics.quasimomentum_eigenvalues([k_loc], J, Gamma)[0]
    dense = np.linalg.eigvals(netmodel.build_impurity_model(N, J, kappa, Gamma).generator)
    dist = float(np.min(np.abs(dense - lam)))
    bound = 10.0 * math.exp(-N * abs(k_loc.imag))
    ok = res < 1e-12 and dist < bound
    record_criterion(7, "impurity quasi-momentum roots", ok,
                     f"residual {res:.1e}, eigenvalue dev {dist:.1e} < {bound:.1e}")
    assert res < 1e-12
    assert dist < bound


def test_criterion_8_scaling_laws(record_criterion):
    ssh = topology.bulk_edge_report("ssh", {"J1": 1.0, "J2": 1.8, "Gamma": 0.5},
                                    [8, 12, 16, 20])
    slope = ssh.fits[0].slope
    slope_ok = abs(slope + math.log(1.8)) < 0.05 * math.log(1.8)

    params = {"J1": 1.4, "J2": 0.3, "J3": 3.0, "J": 0.7,
              "eps1": 0.0, "eps2": 0.0, "Gamma": 1.5}
    three = topology.bulk_edge_report("three-site", params, [6, 9, 12, 15, 18])
    n_exp = sum(f.exponential for f in three.fits)
    branches_ok = n_exp == three.W_closed_form == 2

    darks_ok = True
    for n in (8, 11, 14):
        sd = spectral.decompose(netmodel.build_three_site_model(n, **{
            "J1": 1.4, "J2": 0.3, "J3": 3.0, "J": 0.7,
            "eps1": 0.0, "eps2": 0.0, "Gamma": 1.5}))
        darks_ok = darks_ok and int(np.sum(sd.decay_rates < 1e-10)) == 2

    ok = slope_ok and branches_ok and darks_ok
    record_criterion(8, "edge-mode lifetime scaling", ok,
                     f"slope {slope:.4f} vs {-math.log(1.8):.4f}; "
                     f"{n_exp} exp branches; dark pairs {darks_ok}")
    assert slope_ok
    assert branches_ok
    assert darks_ok


def test_criterion_9_rabi_prediction(record_criterion):
    H = netmodel.build_three_site_model(8, 1.0, 0.3, 2.0, 0.7, 0.0, 0.0, 0.5)
    sd = spectral.decompose(H)
    dark = sd.decay_rates < 1e-10
    omegas = sd.eigenvalues[dark].imag
    period_pred = 2.0 * math.pi / abs(omegas[0] - omegas[1])

    times = np.arange(10.0, 100.0, 0.005)
    trace = dynamics.coherence_trace(H, times).values
    pred = analytics.dark_sector_prediction(sd, 1e-10, times)
    dev = float(np.max(np.abs(trace - pred)))

    interior = (trace[1:-1] > trace[:-2]) & (trace[1:-1] > trace[2:])
    peaks = times[1:-1][interior]
    period_measured = float(np.mean(np.diff(peaks)))
    period_rel = abs(period_measured - period_pred) / period_pred

    ok = dev < 0.02 and period_rel < 0.01
    record_criterion(9, "dark-sector interference prediction", ok,
                     f"max dev {dev:.3f}, period off {period_rel:.2%}")
    assert dev < 0.02
    assert period_rel < 0.01


def test_criterion_10_disorder_ensemble(record_criterion):
    t0 = time.perf_counter()
    params = {"J1": 1.0, "J2": 1.8, "Gamma": 0.5}
    times = np.array([0.0, 50.0])

    clean_cfg = disorder.DisorderConfig("ssh", 7, params, 0.0, 1000, 7, times)
    clean = disorder.run_ensemble(clean_cfg)
    exact_ok = np.array_equal(clean.mean_trace.values, clean.clean_trace.values)

    means, errs = [], []
    for mu in (0.0, 0.4, 0.8):
        cfg = disorder.DisorderConfig("ssh", 7, params, mu, 1000, 7, times)
        res = disorder.run_ensemble(cfg)
        means.append(res.mean_trace.values[-1])
        errs.append(res.stderr_trace[-1])
    gaps = [
        (means[0] - means[1]) / (2 * math.hypot(errs[0], errs[1]) + 1e-300),
        (means[1] - means[2]) / (2 * math.hypot(errs[1], errs[2]) + 1e-300),
    ]
    monotone_ok = all(g > 1 for g in gaps)
    elapsed = time.perf_counter() - t0
    ok = exact_ok and monotone_ok and elapsed < 30.0
    record_criterion(10, "disorder ensembles", ok,
                     f"clean bit-exact {exact_ok}; separations {gaps[0]:.0f}x, "
                     f"{gaps[1]:.0f}x; {elapsed:.1f}s")
    assert exact_ok
    assert monotone_ok
    assert elapsed < 30.0


def test_criterion_11_perturbative_limits(record_criterion):
    H = netmodel.build_impurity_model(2, 1.0, 1.0, 50.0)
    times = np.linspace(0.0, 75.0, 200)
    fitted = fitted_decay_rate(times, dynamics.coherence_trace(H, times).values)
    pred = dynamics.strong_dissipative_rate(1.0, 50.0)
    strong_rel = abs(fitted - pred) / pred

    Hw = netmodel.build_ssh_model(7, 1.0, 1.8, 0.01)
    lam_pred = dynamics.weak_dissipative_spectrum(Hw.hermitian_part, Hw.loss_rates)
    lam_exact = np.linalg.eigvals(Hw.generator)
    p = lam_pred[np.argsort(lam_pred.imag)]
    e = lam_exact[np.argsort(lam_exact.imag)]
    weak_dev = float(np.max(np.abs(p.real - e.real)))

    ok = strong_rel < 0.05 and weak_dev < 1e-3
    record_criterion(11, "strong/weak dissipation limits", ok,
                     f"strong off {strong_rel:.2%}, weak dev {weak_dev:.1e}")
    assert strong_rel < 0.05
    assert weak_dev < 1e-3
