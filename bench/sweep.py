"""Run the benchmark over several seeds and summarise the spread.

Usage, from the root of a checkout:

    python3 bench/sweep.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs `bench/run.py --trace 0` once per workload and seed, with the
`run_seconds` of BENCHMARK.json, then one `--trace 1` run per workload on the
first seed. Prints, per workload and end-to-end metric, the median, the
quartiles and the quartile spread as a share of the median next to the
metric's bound. With --out, writes all of it as a JSON perf-history entry.
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

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        a, b = spec.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in spec.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def line_value(lines: list[str], prefix: str) -> str:
    return next((ln[len(prefix):].strip() for ln in lines if ln.startswith(prefix)), "")


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seeds = parse_seeds(args.seeds)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    history = {"date": time.strftime("%Y-%m-%d"), "machine": {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform()},
        "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        results, digests, failed, attempted, correct = [], {}, 0, 0, True
        for seed in seeds:
            res, lines = run(name, seed, spec["run_seconds"], 0)
            results.append(res)
            failed += res["failed"]
            attempted += res["attempted"]
            correct &= res["correct"]
            digests[seed] = line_value(lines, "outputs:").split("sha256 = ")[-1]
            history.setdefault("env", line_value(lines, "env:"))
            per_invocation = [ln.split(": ", 1)[1] for ln in lines
                              if ln.startswith("per invocation:")]
            print(f"{name} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                  + f" [{digests[seed][:12]}] " + "; ".join(per_invocation), flush=True)
        traced, _ = run(name, seeds[0], spec["run_seconds"], 1)
        entry = {"correct": correct, "failed": failed, "attempted": attempted,
                 "output_sha256": digests, "end_to_end": {}, "per_layer_seed": seeds[0],
                 "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        for metric in bounds:
            s = spread([r["metrics"][metric]["value"] for r in results])
            entry["end_to_end"][metric] = s
            steady = s["iqr_share"] < bounds[metric] / 3
            ok &= steady
            print(f"  {name} {metric}: median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={s['iqr_share']:.4f} "
                  f"bound={bounds[metric]} {'ok' if steady else 'WIDE'}")
        ok &= correct and failed == 0
        history["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(history, f, indent=1)
            f.write("\n")
    print("sweep: " + ("steady" if ok else "NOT steady or failures"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
