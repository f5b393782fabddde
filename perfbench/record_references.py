"""Record the reference outputs the correctness gate compares against.

Run from the repository root on a commit whose outputs are known good:

    python3 perfbench/record_references.py

It runs one pass of each workload at the reference seed and writes what each
workload's `reference` keeps to `perfbench/references.json`: every verify
suite's report, verdict and check count, every mixer-ladder analyze report,
and every conductance value (with phi_chain's argmin cut).  The verdicts and
check counts are also the expectations at every other seed.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import REFERENCE_SEED, REFERENCES, WORKLOADS  # noqa: E402


def main() -> None:
    refs = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        with tempfile.TemporaryDirectory(dir=os.path.dirname(REFERENCES)) as workdir:
            ops = workload.run(workload.inputs(REFERENCE_SEED, workdir))
            refs[name] = workload.reference(ops)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
