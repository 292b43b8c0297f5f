"""Set-up probe: a fresh interpreter imports nhtop and builds a workload's inputs.

    python3 perfbench/probe.py <workload> <seed> <workdir>

run.py times this process from start to exit; that wall time is ``setup_s``.
"""

import os
import sys

root = os.getcwd()
sys.path.insert(0, os.path.join(root, "src"))

import nhtop  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), root, sys.argv[3]).inputs()
