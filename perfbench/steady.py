"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload W --seeds 1-10 --seconds S [--trace 0|1]

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles(values, n=4)) as a share of their median,
the same measure the end-to-end bounds in BENCHMARK.json are checked
against.  Each run's full result line is appended to --out if given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.out:
            with args.out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({time.perf_counter() - t0:.0f} s)", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} median {med:12.6g} {units[name]:6s} IQR/median {share:7.4f} "
              f"min {min(vals):.6g} max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
