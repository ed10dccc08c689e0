"""One `localsgd run` invocation in a fresh process, timed from outside.

Usage: python3 worker.py --src <checkout>/src --config config.ini
                         --result result.json [--trace] [--setup-budget S]

Runs `localsgd.cli.main(["run", "--config", ...])` in the current directory
and writes a JSON record: exit code, CPU and wall seconds, set-up CPU
seconds, node-steps, peak RSS, library versions and, with --trace, every
span and count plus the measured cost of one traced call. The BLAS thread
count is fixed by the environment the caller sets.

With --setup-budget, the set-up of the same `run` (everything before the
first call into the simulator) is then repeated in the same process, into
a separate output directory, while the repeats fit in S CPU seconds; their
times are recorded too, so that a short set-up is measured many times.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

MAX_SETUP_REPEATS = 50
CALIBRATION_CALLS = 20000


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class SetupDone(Exception):
    """Raised at the first call into the simulator to end a set-up repeat."""


def _stop(*args, **kwargs):
    raise SetupDone


def setup_repeats(cli, config: str, first_s: float, budget_s: float) -> list[float]:
    """CPU seconds of repeated set-ups of `run`, while they fit in budget_s."""
    cli.run_replicated = cli.run_local_sgd = _stop
    times: list[float] = []
    spent = 0.0
    while len(times) < MAX_SETUP_REPEATS and spent + max(times or [first_s]) <= budget_s:
        start = time.process_time()
        try:
            cli.main(["run", "--config", config, "--out-dir", "out_setup"])
        except SetupDone:
            pass
        else:
            raise RuntimeError("a set-up repeat reached no simulator call")
        times.append(time.process_time() - start)
        spent += times[-1]
    return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-budget", type=float, default=0.0)
    args = ap.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import numpy
    import scipy

    import localsgd
    import localsgd.cli
    from tracing import Tracer, install_layer_spans, install_run_probe, span_cost_s

    if not os.path.abspath(localsgd.__file__).startswith(src + os.sep):
        print(f"imported localsgd from {localsgd.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer()
    install_run_probe(tracer, localsgd.cli, localsgd.simulator)
    if args.trace:
        install_layer_spans(tracer, localsgd)

    wall0, children0 = time.perf_counter(), children_cpu_s()
    root = tracer.open_span("cli.main")
    rc = localsgd.cli.main(["run", "--config", args.config])
    tracer.close_span(root)
    wall_s = time.perf_counter() - wall0

    _, start, end, _ = tracer.spans[root]
    runs = [s for s in tracer.spans if s[0] == "simulator.run"]
    setup_s = (runs[0][1] if runs else end) - start
    record = {
        "rc": rc,
        # CPU seconds of this process and of any process it waited for.
        "cpu_s": end - start + children_cpu_s() - children0,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": dict(tracer.counts),
        "spans": tracer.spans if args.trace else [],
        "span_cost_s": span_cost_s(CALIBRATION_CALLS) if args.trace else None,
        "setup_repeats_s": (setup_repeats(localsgd.cli, args.config, setup_s,
                                          args.setup_budget)
                            if runs and args.setup_budget > 0 else []),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(args.result, "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
