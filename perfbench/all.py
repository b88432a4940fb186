"""Run every workload once, each in its own process, and print a table.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Prints one row per workload and metric with
its unit, then the combined results as one JSON object on the last line.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    results, rc = {}, 0
    for wl in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed",
             str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{wl}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            rc = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        results[wl] = result
        print(f"{wl}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(results))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
