"""Set-up probe: a fresh interpreter imports liftmix (with numpy and scipy)
and makes one pass's inputs, writing any input files, then exits.

Usage (from the repository root): python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
`run.py` times whole runs of this script to report `setup_s`.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import liftmix  # noqa: E402,F401
import liftmix.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[workload]().inputs(seed, workdir)
