"""Regenerate table1_reference.json: high-precision slowest-mode lifetimes.

For the alternating-bond chain at J1=1, J2=1.8, Gamma=0.5 this diagonalizes
L = -iH with mpmath at 50 significant digits and stores tau = 1 / min(-Re
lambda) for each even N.  Run from the repository root:

    python3 perfbench/make_table1_reference.py

It takes about a minute on one core (N=80 alone about 30 s).
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402

PARAMS = {"J1": 1.0, "J2": 1.8, "Gamma": 0.5}
SIZES = (6, 8, 10, 20, 40, 60, 80)
DPS = 50
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "table1_reference.json")


def slowest_lifetime(N):
    h = reference.ssh_matrix(N, **PARAMS)
    L = mpmath.matrix(N, N)
    for i in range(N):
        for j in range(N):
            z = h[i, j]
            if z != 0:
                # -i * (a + ib) = b - ia, built from exact binary floats
                L[i, j] = mpmath.mpc(mpmath.mpf(z.imag), -mpmath.mpf(z.real))
    lam = mpmath.eig(L, left=False, right=False)
    rate = min(-mpmath.re(x) for x in lam)
    return mpmath.nstr(1 / rate, 30), mpmath.nstr(rate, 30)


def main():
    mpmath.mp.dps = DPS
    rows = []
    for n in SIZES:
        t0 = time.perf_counter()
        tau, rate = slowest_lifetime(n)
        print(f"N={n} tau={tau} ({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
        rows.append({"N": n, "tau": tau, "decay_rate": rate})
    doc = {
        "model": "ssh",
        "params": PARAMS,
        "mp_dps": DPS,
        "mpmath": mpmath.__version__,
        "command": "python3 perfbench/make_table1_reference.py",
        "rows": rows,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
