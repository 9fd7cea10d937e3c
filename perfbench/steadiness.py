"""Check that the benchmark is steady: run one workload over several seeds
and report each end-to-end metric's quartile spread against its bound.

    python3 perfbench/steadiness.py --workload vsim-random --seeds 1-10

A metric is steady when its spread (distance between the first and third
quartile as a share of the median) stays below a third of its bound.
``setup_s`` is exempt from the spread rule but reported anyway.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from catalog import END_TO_END, benchmark_json  # noqa: E402
from metrics_math import median, quartile_spread  # noqa: E402


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=benchmark_json()["run_seconds"])
    args = parser.parse_args()
    values: dict = {name: [] for name, _, _, _ in END_TO_END}
    hosts: dict = {name: [] for name in values}
    for seed in seed_range(args.seeds):
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if completed.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {completed.returncode}, correct={result['correct']}")
            return 1
        row = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            host = re.search(rf"^  {re.escape(name)} .*\[host ([-0-9.e+]+)\]", completed.stdout, re.M)
            hosts[name].append(float(host.group(1)))
            row.append(f"{name}={values[name][-1]:.5g} [{hosts[name][-1]:.5g}]")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    steady = True
    for name, unit, _, bound in END_TO_END:
        spread = quartile_spread(values[name])
        verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "UNSTEADY")
        if name != "setup_s" and spread > bound:
            steady = False
        print(f"{name:14s} median {median(values[name]):.6g} spread {spread:.4f} "
              f"bound {bound} ({verdict}); host-time spread {quartile_spread(hosts[name]):.4f}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
