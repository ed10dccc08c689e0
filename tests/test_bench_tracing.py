"""The package names that the benchmark's tracing reads stay in place.

`bench/tracing.py` wraps package functions and methods by name and reads
attributes of their arguments and results, so renaming one breaks the
benchmark. This applies its run probe and its layer spans to a fresh
import of the package and runs one tiny `localsgd run`.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import workloads  # noqa: E402

_CONFIG = """\
[data]
source = synthetic
n = 60
d = 5
seed = 3
sort_by_label = true

[problem]
M = 2
regime = heterogeneous

[run]
gradient_mode = stochastic
gamma = wc-heterogeneous
H = 1,2
T = 20
seeds = 0:2

[output]
dir = out
"""

_SCRIPT = """\
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import localsgd, localsgd.cli
from tracing import Tracer, install_layer_spans, install_run_probe
tracer = Tracer()
install_run_probe(tracer, localsgd.cli, localsgd.simulator)
install_layer_spans(tracer, localsgd)
rc = localsgd.cli.main(["run", "--config", "run.ini"])
print(json.dumps({{"rc": rc, "package": localsgd.__file__,
                  "counts": dict(tracer.counts),
                  "spans": sorted({{span[0] for span in tracer.spans}})}}))
"""


def _traced_run(tmp_path, config: str) -> dict:
    """The probe's and spans' record of one `localsgd run` of `config`, run
    in tmp_path."""
    (tmp_path / "run.ini").write_text(config)
    script = _SCRIPT.format(src=os.path.join(ROOT, "src"),
                            bench=os.path.join(ROOT, "bench"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert record["rc"] == 0
    assert record["package"].startswith(os.path.join(ROOT, "src") + os.sep)
    return record


def test_bench_tracing_wraps_a_run(tmp_path):
    record = _traced_run(tmp_path, _CONFIG)
    counts = record["counts"]
    assert counts["simulator.runs"] == 2  # one per H
    assert counts["simulator.node_steps"] == 2 * (2 * 2 * 20)  # H-runs x seeds x M x T
    assert counts["objective.solve_reference_iters"] > 0
    assert counts["objective.loss_points"] > 0
    assert {name.split(".")[0] for name in record["spans"]} == {
        "dataio", "objective", "numkit", "simulator", "theory"}
    assert {"dataio.generate", "objective.build_problem", "objective.solve_reference",
            "objective.measure_variances", "objective.loss_many", "numkit.draw_indices",
            "simulator.run", "simulator.to_csv",
            "theory.check_bound"} <= set(record["spans"])


def test_bench_tracing_counts_a_one_seed_run(tmp_path):
    counts = _traced_run(tmp_path, _CONFIG.replace("seeds = 0:2", "seeds = 5"))["counts"]
    assert counts["simulator.runs"] == 2  # one per H
    assert counts["simulator.node_steps"] == 2 * (1 * 2 * 20)


def test_bench_tracing_counts_a_csr_run(tmp_path):
    # The tiny a9a-shaped workload: 2000 rows, 14 of 123 columns stored, so
    # the rows stay CSR and the probe counts work from the dataset's nnz.
    files = workloads.generate("a9a-sparse-sgd", 1, tiny=True)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    counts = _traced_run(tmp_path, files["config.ini"].decode())["counts"]
    assert counts["simulator.runs"] == 2  # one per H
    assert counts["simulator.node_steps"] == 2 * (3 * 4 * 64)  # H-runs x seeds x M x T
    assert counts["grad_madds"] > 0
