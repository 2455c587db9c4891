"""Check that two traced benchmark runs at one seed give identical
fingerprints: the per-solve counts that must not move unless a change says
why (K, D, segments, report queries, segment amplification degree,
build_expG calls, extracted amplitudes, oracle gate applications).

    python3 perfbench/fingerprint_check.py [--seed 7] [--workload ff-n16 ...]

Prints one line per workload and exits 1 if any fingerprint differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import FINGERPRINT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def fingerprint(workload: str, seed: int) -> dict:
    # the traced phase solves a fixed number of inputs, so --seconds only
    # shortens the untraced remainder
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=600).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: benchmark run reported incorrect output")
    return {k: result["metrics"][k]["value"] for k in FINGERPRINT}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    same = True
    for workload in args.workload:
        first = fingerprint(workload, args.seed)
        second = fingerprint(workload, args.seed)
        diff = {k: (first[k], second[k]) for k in FINGERPRINT
                if first[k] != second[k]}
        same = same and not diff
        print(f"{workload}: {'identical' if not diff else f'DIFFERS {diff}'} "
              f"{json.dumps(first)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
