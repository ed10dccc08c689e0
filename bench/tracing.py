"""Span recording around localsgd's module boundaries, from outside the package.

A span is wrapped around a call by rebinding the attribute its caller looks
up (a module global or a class attribute), so nothing inside `src/` changes.
Spans are kept in memory as [name, start, end, parent] and written out by the
worker when the invocation ends. A span's name is `<layer>.<what>`; the layer
is the localsgd module whose code runs inside it. Start and end are read
from the process CPU clock, like every time the benchmark reports.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def open_span(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.process_time(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close_span(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, *, on_result=None,
             only_under: str | None = None) -> None:
        """Rebind owner.attr to a spanning wrapper.

        `on_result(args, result)` records counts after the call returns.
        With `only_under`, the call is spanned only when the innermost open
        span has that name; elsewhere it passes straight through.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["trace.wrapped_calls"] += 1
            if only_under is not None and (
                    not self._open or self.spans[self._open[-1]][0] != only_under):
                return fn(*args, **kwargs)
            idx = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)


def span_cost_s(calls: int) -> float:
    """CPU seconds one spanned call adds over a plain call (median of 5).

    Measured on a no-op method, so it is the wrapper's own cost: two clock
    reads, the span list and the call count.
    """
    class Target:
        def noop(self):
            return None

    def per_call() -> float:
        obj = Target()
        start = time.process_time()
        for _ in range(calls):
            obj.noop()
        plain = time.process_time() - start
        tracer = Tracer()
        tracer.wrap(Target, "noop", "calibrate")
        start = time.process_time()
        for _ in range(calls):
            obj.noop()
        traced = time.process_time() - start
        Target.noop = Target.noop.__wrapped__
        return (traced - plain) / calls

    return statistics.median(per_call() for _ in range(5))


def _effective_nnz(p) -> int:
    """Multiply-adds of one product of the data matrix with one vector."""
    if p.dense_rows is not None:
        return int(p.dense_rows.size)
    return int(p.dataset.features.nnz)


def install_run_probe(tracer: Tracer, cli, simulator) -> None:
    """Span each H-run and count its node-steps; enough for the untraced
    end-to-end metrics (the first run span marks the end of set-up)."""
    def note_run(args, result):
        p, cfg = args[0], args[1]
        seeds = args[3] if len(args) > 3 else [cfg.seed]
        distinct = 1 if cfg.gradient_mode == simulator.GradientMode.FULL else len(set(seeds))
        steps = distinct * cfg.M * cfg.T
        c = tracer.counts
        c["simulator.runs"] += 1
        c["simulator.node_steps"] += steps
        c["simulator.recorded_rows"] += int(result.t.size)
        if cfg.gradient_mode == simulator.GradientMode.STOCHASTIC:
            row_nnz = _effective_nnz(p) / p.dataset.n
            c["grad_madds"] += 2.0 * steps * cfg.batch * row_nnz
            c["numkit.index_bytes"] = max(c["numkit.index_bytes"],
                                          steps * cfg.batch * 8)

    tracer.wrap(cli, "run_replicated", "simulator.run", on_result=note_run)
    tracer.wrap(cli, "run_local_sgd", "simulator.run", on_result=note_run)


def install_layer_spans(tracer: Tracer, localsgd) -> None:
    """Span every cross-module call of `localsgd run` named in the benchmark."""
    cli, dataio, numkit = localsgd.cli, localsgd.dataio, localsgd.numkit
    objective, simulator, theory = localsgd.objective, localsgd.simulator, localsgd.theory
    c = tracer.counts
    problem = {}

    def note_problem(args, p):
        problem["nnz"] = _effective_nnz(p)

    def note_reference(args, ref):
        c["objective.solve_reference_iters"] += ref.iterations

    def note_loss_many(args, vals):
        points = int(vals.size)
        c["objective.loss_points"] += points
        c["record_madds"] += points * problem["nnz"]

    def note_product(counter):
        def note(args, out):
            # margins: (k, d) points -> (n, k); rows_T_dot: (n, k) -> (d, k).
            c[counter] += 1
            c["grad_madds"] += out.shape[1] * problem["nnz"]
        return note

    def note_check(args, verdict):
        c["theory.bounds_checked"] += 1

    tracer.wrap(dataio, "load_dataset", "dataio.load")
    tracer.wrap(dataio, "generate_synthetic", "dataio.generate")
    tracer.wrap(cli, "build_problem", "objective.build_problem", on_result=note_problem)
    tracer.wrap(cli, "solve_reference", "objective.solve_reference",
                on_result=note_reference)
    tracer.wrap(cli, "measure_variances", "objective.measure_variances")
    tracer.wrap(simulator, "loss_many", "objective.loss_many", on_result=note_loss_many)
    tracer.wrap(objective.Problem, "margins", "objective.margins",
                on_result=note_product("objective.margins_calls"),
                only_under="simulator.run")
    tracer.wrap(objective.Problem, "rows_T_dot", "objective.rows_T_dot",
                on_result=note_product("objective.rows_T_dot_calls"),
                only_under="simulator.run")
    tracer.wrap(simulator, "draw_indices", "numkit.draw_indices")
    tracer.wrap(numkit.RngStream, "generator", "numkit.generator")
    tracer.wrap(simulator.AggregateTrace, "to_csv", "simulator.to_csv")
    tracer.wrap(theory, "check_bound", "theory.check_bound", on_result=note_check)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out
