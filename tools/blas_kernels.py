"""Compare `liftmix verify` output across OpenBLAS kernels.

Usage: python3 tools/blas_kernels.py [OUT]

Runs `liftmix verify --suite S --seed K` for every suite at seeds 0-2 under
the library's default kernel and under the Haswell, Sandybridge and Nehalem
kernels.  Each run is a child process, and OPENBLAS_CORETYPE is set in that
child's environment only.  The JSON goes to OUT/<kernel>/<suite>-seed<K>.json
(OUT defaults to a new temporary directory).  Each file of a named kernel is
compared with the default kernel's file:

- bytes_equal: the two files hold the same bytes;
- floats_within_rtol: perfbench's `mismatch` finds no difference, so every
  float agrees within its FLOAT_RTOL (the seed-0 gate's rule), and
  first_mismatch names the first one that does not;
- checks_changed and checks_beyond_rtol: how many check rows differ at
  all, and how many hold a float beyond FLOAT_RTOL;
- verdicts_equal: the exit code, the suite's pass and every check's pass
  are the same.

Prints a JSON summary, one object per compared file, and exits 1 when some
verdict differs.  It takes minutes and its result depends on the CPU, so it
is not part of the tests or the benchmark gate, which never pin a kernel.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from liftmix.cli import SUITE_NAMES  # noqa: E402
from perfbench.workloads import mismatch  # noqa: E402

DEFAULT = "default"
KERNELS = (DEFAULT, "Haswell", "Sandybridge", "Nehalem")
SEEDS = (0, 1, 2)


def run_verify(kernel: str, suite: str, seed: int, out: Path) -> int:
    """One `liftmix verify` in a child process under kernel; its exit code."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != DEFAULT:
        env["OPENBLAS_CORETYPE"] = kernel
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "liftmix.cli", "verify", "--suite", suite,
           "--seed", str(seed), "--out", str(out)]
    return subprocess.run(cmd, env=env, stderr=subprocess.DEVNULL, check=False).returncode


def compare(ref_bytes: bytes, ref_code: int, got_bytes: bytes, got_code: int) -> dict:
    ref, got = json.loads(ref_bytes), json.loads(got_bytes)
    first = mismatch(ref, got)
    return {
        "bytes_equal": ref_bytes == got_bytes,
        "floats_within_rtol": first is None,
        "first_mismatch": first,
        "checks_changed": sum(r != g for r, g in zip(ref["checks"], got["checks"])),
        "checks_beyond_rtol": sum(
            mismatch(r, g) is not None for r, g in zip(ref["checks"], got["checks"])
        ),
        "verdicts_equal": ref_code == got_code and ref["pass"] == got["pass"]
        and [c["pass"] for c in ref["checks"]] == [c["pass"] for c in got["checks"]],
    }


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else Path(tempfile.mkdtemp(prefix="blas-kernels-"))
    codes = {}
    for kernel in KERNELS:
        (out / kernel).mkdir(parents=True, exist_ok=True)
        for suite in SUITE_NAMES:
            for seed in SEEDS:
                path = out / kernel / f"{suite}-seed{seed}.json"
                codes[kernel, suite, seed] = run_verify(kernel, suite, seed, path)
    rows = []
    for kernel in KERNELS[1:]:
        for suite in SUITE_NAMES:
            for seed in SEEDS:
                name = f"{suite}-seed{seed}.json"
                row = {"kernel": kernel, "suite": suite, "seed": seed}
                ref, got = out / DEFAULT / name, out / kernel / name
                row.update(compare(ref.read_bytes(), codes[DEFAULT, suite, seed],
                                   got.read_bytes(), codes[kernel, suite, seed]))
                rows.append(row)
    json.dump({"out": str(out), "files": rows}, sys.stdout, indent=1)
    print()
    return 0 if all(r["verdicts_equal"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
