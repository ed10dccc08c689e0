"""The localsgd benchmark: seeded `localsgd run` workloads, timed end to end.

Usage, from the root of a checkout:

    python3 bench/run.py --workload het-dense-sgd --seed 1 --seconds 40 --trace 0

The workload's inputs (an INI config, plus a LIBSVM file and manifest for the
sparse workload) are generated from --seed into a scratch directory under
`.bench_work/`. Then `localsgd run` is invoked on them in a fresh process,
one invocation at a time (a closed loop with one client), with BLAS pinned
to one thread, until --seconds is spent, and at least twice. Every
invocation's outputs are checked: exit code, V_mean exactly 0 at every
synced row, the bound verdicts, and identical output digests across the
invocations of one seed.

Times are CPU seconds of the invocation's process (and of any process it
waits for), not wall seconds. On a small shared VM, hypervisor steal adds
up to a second of wall time to a 9 s invocation, and CPU time leaves that
out; what remains is the host's varying speed, about 5-10% between runs a
few minutes apart. Wall seconds are printed alongside.

--trace 0 reports the end-to-end metrics (medians over the invocations).
setup_s is the median over every set-up measured: each invocation's own,
plus the repeats its worker makes after the run when the set-up is short
(see worker.py), so a 25 ms set-up is timed a hundred times, not twice.
--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics of the traced ones (medians). trace_overhead_s is
computed: the number of wrapped calls times the measured cost of one.
The last line of stdout is one JSON object: correct (every check passed and
no H-run failed), attempted and failed H-runs, and the metrics with their
units.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import self_times  # noqa: E402

MIN_INVOCATIONS = 2
HARD_LIMIT_S = 170.0  # the whole benchmark must end within 180 s
BLAS_THREADS = "1"
# CPU seconds per untraced invocation for repeating the set-up; a set-up
# longer than this is measured once per invocation.
SETUP_BUDGET_S = 1.0

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "node_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span self times (CPU seconds, summed over calls).
SPAN_METRICS = {
    "dataio.load_s": "dataio.load",
    "dataio.generate_s": "dataio.generate",
    "objective.build_problem_s": "objective.build_problem",
    "objective.solve_reference_s": "objective.solve_reference",
    "objective.measure_variances_s": "objective.measure_variances",
    "objective.loss_many_s": "objective.loss_many",
    "objective.margins_s": "objective.margins",
    "objective.rows_T_dot_s": "objective.rows_T_dot",
    "numkit.draw_indices_s": "numkit.draw_indices",
    "simulator.self_s": "simulator.run",
    "simulator.to_csv_s": "simulator.to_csv",
    "theory.check_bound_s": "theory.check_bound",
}
# Whole-layer self times. With simulator.self_s and simulator.to_csv_s they
# partition the traced CPU time by construction: a span's self time is its
# time minus its children's, and cli.main is the root span.
LAYERS = ("cli", "dataio", "numkit", "objective", "theory")
# Exact counts; they must repeat exactly for one seed.
COUNT_METRICS = {
    "objective.solve_reference_iters": "count",
    "objective.loss_many_calls": "count",
    "objective.loss_points": "count",
    "objective.margins_calls": "count",
    "objective.rows_T_dot_calls": "count",
    "numkit.index_bytes": "bytes",
    "simulator.node_steps": "count",
    "simulator.recorded_rows": "count",
    "simulator.csv_bytes": "bytes",
    "theory.bounds_checked": "count",
    "simulator.record_work_ratio": "ratio",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "simulator.run_s": "s",
    **COUNT_METRICS,
    "traced_cpu_s": "s",
    "trace_overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes of the workload, for the smoke test")
    return ap.parse_args(argv)


def source_revision(root: str) -> str:
    """The git commit of the checkout, or "unknown" outside a git repository.
    --git-dir keeps git from searching the directories above the checkout."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"),
                               "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def digest_of(paths: list[str]) -> str:
    """One sha256 over the names and contents of several files."""
    listing = {os.path.basename(p): sha256_file(p) for p in paths}
    return hashlib.sha256(json.dumps(listing, sort_keys=True).encode()).hexdigest()


def check_outputs(out_dir: str, H_list: list[int], rc: int) -> dict:
    """Failure accounting for one invocation, plus a digest of its outputs.

    An H-run fails if it diverged, if a bound verdict was violated, if its
    trace is missing, or if V_mean is nonzero at a synced row. A nonzero exit
    code is a problem of its own (`run` exits with 1 on a violated bound).
    """
    problems = []
    failed = set()
    status = {}
    summary = os.path.join(out_dir, "summary.csv")
    if os.path.exists(summary):
        with open(summary, newline="") as f:
            status = {int(row["H"]): row["bounds"] for row in csv.DictReader(f)}
    if sorted(status) != sorted(H_list):
        problems.append(f"summary.csv lists H={sorted(status)}, expected {sorted(H_list)}")
    for H in H_list:
        if status.get(H) in ("diverged", "violated"):
            failed.add(H)
        path = os.path.join(out_dir, f"run_H{H}.csv")
        if not os.path.exists(path):
            failed.add(H)
            continue
        with open(path, newline="") as f:
            rows = csv.DictReader(line for line in f if not line.startswith("#"))
            if any(row["synced"] == "1" and float(row["V_mean"]) != 0.0 for row in rows):
                problems.append(f"H={H}: V_mean is nonzero at a synced row")
                failed.add(H)
    for path in glob.glob(os.path.join(out_dir, "*.verdict.txt")):
        with open(path) as f:
            if "holds = True\n" not in f.read():
                failed.add(int(path.rsplit("_H", 1)[1].split(".")[0]))
    if rc != 0:
        problems.append(f"localsgd run exited with {rc}")

    outputs = sorted(glob.glob(os.path.join(out_dir, "*.csv"))
                     + glob.glob(os.path.join(out_dir, "*.verdict.txt")))
    return {
        "attempted": len(H_list),
        "failed": len(failed),
        "problems": problems,
        "digest": digest_of(outputs),
        "files": len(outputs),
        "csv_bytes": sum(os.path.getsize(p) for p in outputs
                         if os.path.basename(p).startswith("run_H")),
    }


def invoke(workdir: str, src: str, trace: bool, setup_budget: float,
           timeout: float) -> dict:
    """One `localsgd run` in a fresh worker process; returns its record."""
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    result = os.path.join(workdir, "result.json")
    if os.path.exists(result):
        os.remove(result)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", src,
           "--config", "config.ini", "--result", result,
           "--setup-budget", str(setup_budget)] + (["--trace"] if trace else [])
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=timeout)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0 or not os.path.exists(result):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(result) as f:
        record = json.load(f)
    if record["rc"] != 0:
        sys.stderr.write(proc.stderr[-4000:])
    record["process_s"] = elapsed
    record["traced"] = trace
    return record


def run_invocations(args, root: str, src: str) -> list[dict]:
    """Generate the inputs, then invoke until the time is spent."""
    started = time.perf_counter()
    files = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    ini = configparser.ConfigParser()
    ini.read_string(files["config.ini"].decode())
    H_list = [int(h) for h in ini["run"]["H"].split(",")]
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    records = []
    try:
        for name, data in files.items():
            with open(os.path.join(workdir, name), "wb") as f:
                f.write(data)
        while True:
            elapsed = time.perf_counter() - started
            if len(records) >= MIN_INVOCATIONS:
                typical = statistics.median(r["process_s"] for r in records)
                if elapsed + typical > args.seconds:
                    break
            traced = bool(args.trace) and len(records) % 2 == 1
            budget = 0.0 if args.trace else SETUP_BUDGET_S
            rec = invoke(workdir, src, traced, budget, timeout=HARD_LIMIT_S - elapsed)
            rec.update(check_outputs(os.path.join(workdir, "out"), H_list, rec["rc"]))
            records.append(rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another benchmark process still uses it
    return records


def end_to_end(plain: list[dict]) -> dict[str, float]:
    return {
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "setup_s": statistics.median(
            t for r in plain for t in [r["setup_s"], *r["setup_repeats_s"]]),
        "node_steps_per_s": statistics.median(
            r["counts"]["simulator.node_steps"] / (r["cpu_s"] - r["setup_s"])
            for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    spans, counts = record["spans"], record["counts"]
    st = self_times(spans)
    m = {name: st.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in st.items() if k.startswith(layer + "."))
    runs = [end - start for name, start, end, _ in spans if name == "simulator.run"]
    m["simulator.run_s"] = sum(runs) / len(runs)
    m.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    m["objective.loss_many_calls"] = sum(s[0] == "objective.loss_many" for s in spans)
    m["simulator.csv_bytes"] = record["csv_bytes"]
    m["simulator.record_work_ratio"] = counts.get("record_madds", 0) / counts["grad_madds"]
    m["traced_cpu_s"] = spans[0][2] - spans[0][1]
    # Computed: wrapped calls times the measured cost of one wrapped call.
    m["trace_overhead_s"] = counts["trace.wrapped_calls"] * record["span_cost_s"]
    return m


def per_layer(traced: list[dict], problems: list[str]) -> dict:
    """Medians of the per-layer times; counts must agree exactly."""
    layers = [layer_metrics(r) for r in traced]
    out = {}
    for name, unit in PER_LAYER.items():
        values = [m[name] for m in layers]
        if unit != "s" and len(set(values)) != 1:
            problems.append(f"count {name} differs between invocations: {values}")
        out[name] = statistics.median(values) if unit == "s" else values[0]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "localsgd", "cli.py")):
        print(f"no localsgd sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    records = run_invocations(args, root, src)
    problems = [p for r in records for p in r["problems"]]
    if len({r["digest"] for r in records}) != 1:
        problems.append("outputs differ between invocations of the same seed")
    exact = ("simulator.runs", "simulator.node_steps", "simulator.recorded_rows")
    if len({tuple(r["counts"].get(k) for k in exact) for r in records}) != 1:
        problems.append("run, node-step or row counts differ between invocations")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if failed:
        problems.append(f"{failed} of {attempted} H-runs failed")
    plain = [r for r in records if not r["traced"]]
    e2e = end_to_end(plain)
    if args.trace:
        units = PER_LAYER
        metrics = per_layer([r for r in records if r["traced"]], problems)
    else:
        units, metrics = END_TO_END, e2e

    first = records[0]
    sources = sorted(glob.glob(os.path.join(src, "localsgd", "*.py")))
    print(f"workload = {args.workload}  seed = {args.seed}  "
          f"invocations = {len(records)} ({len(records) - len(plain)} traced)")
    print(f"env: nproc = {os.cpu_count()}  blas_threads = {BLAS_THREADS}  "
          f"numpy = {first['numpy']}  scipy = {first['scipy']}  "
          f"python = {sys.version.split()[0]}  git = {source_revision(root)}  "
          f"src_sha256 = {digest_of(sources)}")
    print(f"outputs: {first['files']} CSV/verdict files, sha256 = {first['digest']}")
    print(f"failed_runs_ratio = {failed / attempted:g} ({failed} of {attempted} H-runs)")
    print(f"wall_s = {statistics.median(r['wall_s'] for r in plain):.6g} s "
          "(untraced median, not gated)")
    for key in ("cpu_s", "setup_s", "wall_s"):
        print(f"per invocation: {key} = " + " ".join(f"{r[key]:.4f}" for r in plain))
    print("set-up repeats per invocation: "
          + " ".join(str(len(r["setup_repeats_s"])) for r in plain))
    for name, value in {**e2e, **metrics}.items():
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {text} {units.get(name) or END_TO_END[name]}")
    if args.trace:
        measured = (statistics.median(r["cpu_s"] for r in records if r["traced"])
                    - e2e["cpu_s"])
        print(f"traced minus untraced cpu_s = {measured:.4g} s (measured; run-to-run "
              f"noise dominates it, so trace_overhead_s is computed instead)")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
