"""Print every metric of every workload by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs ``perfbench/run.py`` once untraced and once traced per workload listed
in BENCHMARK.json, and prints one line per metric: workload, metric name,
value and unit.  Exits 1 when a run fails a correctness check, crashes, or
leaves out a metric that BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        print(f"{workload} trace={trace}: exit code {done.returncode}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[-2])["env"]
    print(f"# {workload} trace={trace} seed={env['seed']} holdout_seed={env['holdout_seed']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"channels={env['channels']} solves={env['solves']}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_once(workload, args.seed, args.seconds, trace)
            if result is None:
                ok = False
                continue
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    print(f"{workload:8} {metric['name']:40} MISSING")
                    ok = False
                    continue
                print(f"{workload:8} {metric['name']:40} {got['value']:>14.6g} {got['unit']}")
            print(f"{workload:8} {'correct':40} {str(result['correct']):>14} "
                  f"({result['failed']} of {result['attempted']} operations failed)")
            ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
