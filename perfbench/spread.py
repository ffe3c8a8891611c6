"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads completion-fp511 cli-desk --seeds 1-10

For every workload and end-to-end metric it prints the median of the runs,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  With
``--baseline COMMIT`` the medians and quartiles are stored in
``perfbench/record.json`` as the reference for that commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed (exit {done.returncode}): {done.stderr}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - start
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--baseline", metavar="COMMIT", default=None,
                        help="store the results in record.json as this commit's baseline")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds) for seed in seeds]
        elapsed = [r["elapsed_s"] for r in runs]
        print(f"{workload} ({len(runs)} runs, seeds {args.seeds}, {seconds} s; "
              f"run time {min(elapsed):.1f}..{max(elapsed):.1f} s, "
              f"tasks {min(r['attempted'] for r in runs)}..{max(r['attempted'] for r in runs)})")
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            summary[workload][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"  {name:16s} median {stats['median']:10.4f} {stats['unit']:4s} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                  f"spread {stats['spread']:.3f} (bound {bounds[name]}){flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in values))
        sys.stdout.flush()
    if args.baseline:
        record = json.loads(RECORD.read_text())
        record["baseline"] = {
            "commit": args.baseline,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seeds": args.seeds,
            "run_seconds": seconds,
            "workloads": {**record.get("baseline", {}).get("workloads", {}), **summary},
        }
        RECORD.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
