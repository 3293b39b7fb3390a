"""Print every metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--smoke]

Runs ``run.py`` once per workload with tracing off (end-to-end metrics)
and once with tracing on (per-layer metrics), each in its own process,
and prints one line per metric.  Run from the repository root.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    print(f"{'workload':<15} {'trace':<5} {'metric':<44} {'value':>14} unit")
    for workload in NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return out.returncode
            result = json.loads(out.stdout.splitlines()[-1])
            status = "ok" if result["correct"] else f"FAILED {result['failed']}/{result['attempted']}"
            print(f"{workload:<15} {trace:<5} {'outputs':<44} {status:>14}")
            for name, m in result["metrics"].items():
                print(f"{workload:<15} {trace:<5} {name:<44} {m['value']:>14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
