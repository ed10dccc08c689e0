"""Write the pinned outputs: the outputs that a change to the numerics is
compared on.

Usage:  python3 tests/pinned_outputs.py OUT_DIR [--root CHECKOUT]

Runs the package of CHECKOUT (default: the checkout holding this script)
in-process on
- the 12 pinned `run` configs: synthetic n=90, d=7, data seed 3,
  `sort_by_label`, lambda 1/n, M=3, tol 1e-10, batch 3, noise_sigma 0.5,
  gamma 0.002, uniform schedule, H=1,4, T=40, over {identical,
  heterogeneous} x {stochastic, full, injected-noise} x {seeds 0:3, seed 5},
  into OUT_DIR/pinned/<name>/;
- 2 more `run` configs like those, heterogeneous full and injected-noise
  over seeds 0:3 but on M=4 nodes, whose blocks (23, 23, 22, 22) have two
  sizes, into OUT_DIR/pinned/heterogeneous-<mode>-M4/;
- 4 `run` configs on CSR-stored data, the tiny a9a-shaped LIBSVM file and
  manifest that CHECKOUT's `bench/workloads.py` writes for the a9a
  workload at seed 1 (n=2000, 123 columns, 14 nonzeros per row): lambda
  1/n, M=4, tol 1e-9, gamma 0.05/L, batch 3, noise_sigma 0.5, H=1,4, T=40,
  seeds 0:3, heterogeneous x {full, injected-noise, stochastic} and
  identical injected-noise, into OUT_DIR/csr/<regime>-<mode>/. They cover
  the CSR node blocks, the CSR gather and the CSR identical-regime product;
- a `run` sweep in which H=1 diverges and H=4 and H=16 complete, into
  OUT_DIR/diverging-sweep/: heterogeneous full gradients at lambda gamma =
  2.05, just past the lambda gamma = 2 stability limit, with T between the
  divergence steps of H=1 and H=4. No gamma spec can make only some H
  diverge: the planner rules, the only specs that depend on H, stay within
  gamma <= 1/(4L) <= 1/(4 lambda); so it is the trajectory, not the
  stepsize, that differs by H;
- `run --config configs/synthetic-heterogeneous.ini` into OUT_DIR/synthetic-het/;
- `variances --config configs/variances.ini` into OUT_DIR/variances/;
- `solve-ref --config configs/synthetic-heterogeneous.ini` into
  OUT_DIR/solve-ref/reference.txt;
- `run` on each of the three benchmark workloads at seed 1 and full size,
  its inputs written by CHECKOUT's `bench/workloads.py`, into
  OUT_DIR/bench/<workload>/, unless --skip-bench is given;
- through the library, which `run` does not reach: the local SGD run at
  H=1 and the minibatch SGD run on the pinned n=90, d=7, M=3 data, for
  {identical, heterogeneous} x {stochastic, full, injected-noise}, over
  seeds 0:3 with the captured trajectories, into
  OUT_DIR/minibatch/<regime>-<mode>-<engine>.csv (the trace) and .xhat.txt
  (each seed's xhat at each recorded step, as `repr` text).

A byte-identity check is `diff -r A B` and a rebaseline report is
`python3 tests/compare_outputs.py A B`, where A was written at the parent
(`--root` pointing at its checkout) and B at the change.

`--manifest FILE` writes, once the outputs are written, the sha256 of
every file under OUT_DIR and the numpy, scipy and OpenBLAS versions and
OpenBLAS core they were computed with. The committed manifest,
tests/pinned_digests.txt, is that of the outputs without the benchmark
workloads:

    python3 tests/pinned_outputs.py OUT --skip-bench --manifest tests/pinned_digests.txt

and test_pinned_digests.py regenerates and compares it.

The script runs BLAS on one thread (OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS are set to 1 before numpy is imported), as the benchmark
does: the a9a workload's outputs differ in their last bits at 2 threads.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import os
import sys
import tempfile
from dataclasses import fields

REGIMES = ("identical", "heterogeneous")
MODES = ("stochastic", "full", "injected-noise")
SEEDS = {"replicated": "0:3", "single": "5"}
BENCH_SEED = 1

_PINNED = """\
[data]
source = synthetic
n = 90
d = 7
seed = 3
sort_by_label = true

[problem]
lambda = 1/n
M = {M}
regime = {regime}

[solver]
tol = 1e-10

[run]
gradient_mode = {mode}
batch = 3
noise_sigma = 0.5
gamma = 0.002
schedule = uniform
H = 1,4
T = 40
seeds = {seeds}
"""


_DIVERGING = """\
[data]
source = synthetic
n = 90
d = 7
seed = 3
sort_by_label = true

[problem]
lambda = 1/n
M = 3
regime = heterogeneous

[run]
gradient_mode = full
gamma = 184.5
schedule = uniform
H = 1,4,16
T = 4577
seeds = 0:2
"""


_CSR = """\
[data]
source = a9a
manifest = {data_dir}/manifest.txt
dir = {data_dir}

[problem]
lambda = 1/n
M = 4
regime = {regime}

[solver]
tol = 1e-9

[run]
gradient_mode = {mode}
batch = 3
noise_sigma = 0.5
gamma = 0.05/L
schedule = uniform
H = 1,4
T = 40
seeds = 0:3
"""

CSR_RUNS = (("heterogeneous", "full"), ("heterogeneous", "injected-noise"),
            ("heterogeneous", "stochastic"), ("identical", "injected-noise"))


def write_csr_configs(config_dir: str, workloads) -> dict[str, str]:
    """Write the tiny a9a-shaped LIBSVM file and manifest of the bench's a9a
    workload, and the CSR `run` configs on them; name -> INI path."""
    for file_name, data in workloads.generate("a9a-sparse-sgd", BENCH_SEED, tiny=True).items():
        if file_name != "config.ini":
            with open(os.path.join(config_dir, file_name), "wb") as f:
                f.write(data)
    paths = {}
    for regime, mode in CSR_RUNS:
        name = f"{regime}-{mode}"
        paths[name] = os.path.join(config_dir, f"csr-{name}.ini")
        with open(paths[name], "w") as f:
            f.write(_CSR.format(data_dir=config_dir, regime=regime, mode=mode))
    return paths


def write_configs(config_dir: str) -> dict[str, str]:
    """Write the 14 pinned `run` configs; name -> INI path. They name no
    output directory: the caller passes --out-dir."""
    specs = {f"{regime}-{mode}-{tag}": dict(regime=regime, mode=mode, seeds=seeds, M=3)
             for regime in REGIMES for mode in MODES for tag, seeds in SEEDS.items()}
    for mode in ("full", "injected-noise"):  # unequal node blocks
        specs[f"heterogeneous-{mode}-M4"] = dict(regime="heterogeneous", mode=mode,
                                                 seeds=SEEDS["replicated"], M=4)
    paths = {}
    for name, spec in specs.items():
        path = os.path.join(config_dir, f"{name}.ini")
        with open(path, "w") as f:
            f.write(_PINNED.format(**spec))
        paths[name] = path
    return paths


def invocations(out_dir: str, root: str, config_dir: str, workloads) -> list[list[str]]:
    """The CLI argument lists that write every pinned output but the bench
    workloads'."""
    shipped = os.path.join(root, "configs")
    het = os.path.join(shipped, "synthetic-heterogeneous.ini")
    argvs = [["run", "--config", path, "--out-dir", os.path.join(out_dir, "pinned", name)]
             for name, path in write_configs(config_dir).items()]
    argvs += [["run", "--config", path, "--out-dir", os.path.join(out_dir, "csr", name)]
              for name, path in write_csr_configs(config_dir, workloads).items()]
    diverging = os.path.join(config_dir, "diverging-sweep.ini")
    with open(diverging, "w") as f:
        f.write(_DIVERGING)
    argvs.append(["run", "--config", diverging,
                  "--out-dir", os.path.join(out_dir, "diverging-sweep")])
    argvs.append(["run", "--config", het, "--out-dir", os.path.join(out_dir, "synthetic-het")])
    argvs.append(["variances", "--config", os.path.join(shipped, "variances.ini"),
                  "--out-dir", os.path.join(out_dir, "variances")])
    argvs.append(["solve-ref", "--config", het,
                  "--out", os.path.join(out_dir, "solve-ref", "reference.txt")])
    return argvs


def write_minibatch(out_dir: str) -> None:
    """The library section: local SGD at H=1 and minibatch SGD, each traced
    and with its captured xhat, on the pinned data of every regime x mode."""
    from localsgd import dataio, objective, simulator

    ds = dataio.generate_synthetic(90, 7, seed=3, sort_by_label=True)
    # A checkout whose RunConfig still holds the seed gets one; no run reads it.
    seed = {"seed": 0} if "seed" in {f.name for f in fields(simulator.RunConfig)} else {}
    os.makedirs(out_dir, exist_ok=True)
    for regime in REGIMES:
        p = objective.build_problem(ds, dataio.partition(ds, 3, dataio.Regime(regime)),
                                    lam=1.0 / ds.n)
        ref = objective.solve_reference(p, 1e-10)
        for mode in MODES:
            cfg = simulator.RunConfig(M=3, schedule=simulator.SyncSchedule.uniform(1, 40),
                                      gamma=0.002, gradient_mode=simulator.GradientMode(mode),
                                      batch=3, noise_sigma=0.5, **seed)
            for engine, minibatch in (("local", False), ("minibatch", True)):
                trace = simulator.Sweep(p, [cfg], ref, [0, 1, 2], minibatch=minibatch,
                                        capture_xhat=True).result(cfg)
                base = os.path.join(out_dir, f"{regime}-{mode}-{engine}")
                with open(base + ".csv", "w") as f:
                    trace.to_csv(f)
                with open(base + ".xhat.txt", "w") as f:
                    f.write(repr(trace.xhat.tolist()) + "\n")


def environment() -> dict[str, str]:
    """The numpy, scipy and OpenBLAS versions and the OpenBLAS core this
    process computes with; "unknown" where numpy does not say."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    core = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so*"))
    if libs:  # the OpenBLAS that numpy wheels bundle names the core it picked
        get_corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None)
        if get_corename is not None:
            get_corename.argtypes, get_corename.restype = [], ctypes.c_char_p
            core = get_corename().decode()
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "openblas_core": core}


def digests(out_dir: str) -> dict[str, str]:
    """Path under out_dir (with / separators) -> sha256 of the file."""
    found = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, out_dir).replace(os.sep, "/")] = (
                    hashlib.sha256(f.read()).hexdigest())
    return dict(sorted(found.items()))


def write_manifest(path: str, env: dict[str, str], files: dict[str, str]) -> None:
    with open(path, "w") as f:
        f.write("# The pinned outputs' sha256, written by tests/pinned_outputs.py "
                "--manifest:\n# `key = value` of the environment, then `sha256  path`.\n")
        f.writelines(f"{k} = {v}\n" for k, v in env.items())
        f.writelines(f"{digest}  {name}\n" for name, digest in files.items())


def read_manifest(path: str) -> tuple[dict[str, str], dict[str, str]]:
    """(environment, files) of a manifest that write_manifest wrote."""
    env, files = {}, {}
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if " = " in line:
                key, value = line.split(" = ", 1)
                env[key] = value
            else:
                digest, name = line.split("  ", 1)
                files[name] = digest
    return env, files


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="checkout whose src/ and configs/ are run")
    ap.add_argument("--skip-bench", action="store_true",
                    help="leave out the three full-size benchmark workloads")
    ap.add_argument("--manifest", help="write the outputs' digests to this file")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    # Read when numpy loads its BLAS, so set before the package is imported.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, os.path.join(root, "src"))
    from localsgd import cli

    sys.path.insert(0, os.path.join(root, "bench"))
    import workloads

    out_dir = os.path.abspath(args.out_dir)
    with tempfile.TemporaryDirectory() as config_dir:
        for argv_ in invocations(out_dir, root, config_dir, workloads):
            rc = cli.main(argv_)
            if rc != 0:
                print(f"exit {rc}: localsgd {' '.join(argv_)}", file=sys.stderr)
                return rc
    write_minibatch(os.path.join(out_dir, "minibatch"))
    cwd = os.getcwd()
    for name in () if args.skip_bench else workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as work_dir:
            for file_name, data in workloads.generate(name, BENCH_SEED).items():
                with open(os.path.join(work_dir, file_name), "wb") as f:
                    f.write(data)
            argv_ = ["run", "--config", "config.ini",
                     "--out-dir", os.path.join(out_dir, "bench", name)]
            os.chdir(work_dir)  # the a9a config names its data relative to it
            try:
                rc = cli.main(argv_)
            finally:
                os.chdir(cwd)
            if rc != 0:
                print(f"exit {rc}: localsgd {' '.join(argv_)} (bench workload {name})",
                      file=sys.stderr)
                return rc
    if args.manifest:
        write_manifest(args.manifest, environment(), digests(out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
