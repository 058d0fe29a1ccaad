"""Print every metric of every workload, with names and units.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs ``run.py`` once per workload of BENCHMARK.json, each in its own
process (so that peak RSS is per workload), and relays its summary: the
end-to-end metrics, or with ``--trace`` the per-layer metrics and the
tracing overhead.  Exits non-zero if any workload fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    status = 0
    for workload in spec["workloads"]:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout)
        if proc.stderr:
            print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            print(f"{workload['name']}: exit code {proc.returncode}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
