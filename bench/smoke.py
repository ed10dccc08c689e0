"""Smoke test of the benchmark itself, at the tiny size of every workload.

Usage, from the root of a checkout:  python3 bench/smoke.py

For every workload in BENCHMARK.json: an untraced and a traced pass on seed 1
must report every named metric with its declared unit and pass their output
checks, and an untraced pass on seed 2 must also finish with zero failed
H-runs. Exits 0 when all of that holds, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for w in spec["workloads"]:
        name = w["name"]
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            result = run(name, seed, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} seed={seed} trace={trace}"
            if got != expected[trace]:
                errors.append(f"{tag}: metrics/units {got} != {expected[trace]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{tag}: correct={result['correct']} "
                              f"failed={result['failed']} of {result['attempted']}")
            print(f"{tag}: {len(got)} metrics, {result['failed']} of "
                  f"{result['attempted']} H-runs failed")
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
