"""Local SGD engine: per-node iterates, synchronization schedule, averaging,
and trace recording including the iterate deviation V_t.

One run is strictly sequential over t. Runs are vectorized over the seed
axis, and a sweep's configs (several H over the same seeds and T) step in
lockstep: every (seed, node) pair owns its own counter-based stream, so a
run inside a batch or a sweep draws exactly what it would draw alone, and
local SGD with H=1 consumes the same per-node draws as minibatch SGD.
"""
from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .dataio import Regime
from .numkit import RngStream, draw_indices
from .objective import (Problem, ReferenceSolution, _exact_grads, _logistic_slope,
                        _slope_numerator, loss_many)

# Stream-id namespace: index draws use the node id, Gaussian noise draws use
# the node id with the top bit set, so the two never collide.
_NOISE_STREAM_FLAG = 1 << 63
# Bytes of pre-drawn randomness per refill of the gradient engine.
_REFILL_BYTES = 2 << 20
_DIVERGENCE_LIMIT = 1e100
# Size of the dense head and of the log-spaced tail of the grid of steps
# whose suboptimality is recorded (_subopt_steps).
_SUBOPT_DENSE = 64


class GradientMode(enum.Enum):
    STOCHASTIC = "stochastic"
    FULL = "full"
    # Exact gradient plus Gaussian noise of known total variance; makes the
    # uniform-variance assumption hold exactly with sigma^2 = noise_sigma^2.
    INJECTED_NOISE = "injected-noise"


class DivergenceError(RuntimeError):
    def __init__(self, t: int, seed: int, node: int):
        super().__init__(f"iterate diverged at step {t} (seed {seed}, node {node})")
        self.t = t
        self.seed = seed
        self.node = node


def _max_gap(steps: tuple[int, ...]) -> int:
    """Largest gap between consecutive timestamps, the one from 0 included."""
    return max([1] + [b - a for a, b in zip((0,) + steps, steps)])


@dataclass(frozen=True)
class SyncSchedule:
    """Strictly increasing synchronization timestamps with max gap H.

    The gap from 0 to the first timestamp counts; the final timestamp is
    the run length T.
    """

    sync_steps: tuple[int, ...]
    H: int

    def __post_init__(self):
        steps = tuple(int(s) for s in self.sync_steps)
        object.__setattr__(self, "sync_steps", steps)
        if not steps:
            raise ValueError("schedule needs at least one synchronization step")
        if steps[0] < 1:
            raise ValueError("first synchronization step must be >= 1")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("synchronization steps must be strictly increasing")
        if self.H < 1:
            raise ValueError("H must be >= 1")
        if self.max_gap() > self.H:
            raise ValueError(f"schedule gap {self.max_gap()} exceeds declared H={self.H}")

    def max_gap(self) -> int:
        return _max_gap(self.sync_steps)

    @property
    def final(self) -> int:
        return self.sync_steps[-1]

    @classmethod
    def uniform(cls, H: int, T: int) -> "SyncSchedule":
        """Every H steps, plus T itself when H does not divide T."""
        if H < 1 or T < 1:
            raise ValueError("H and T must be >= 1")
        steps = list(range(H, T + 1, H))
        if not steps or steps[-1] != T:
            steps.append(T)
        return cls(sync_steps=tuple(steps), H=H)

    @classmethod
    def one_shot(cls, T: int) -> "SyncSchedule":
        return cls(sync_steps=(T,), H=T)

    @classmethod
    def from_steps(cls, steps: Sequence[int]) -> "SyncSchedule":
        steps = tuple(int(s) for s in steps)
        return cls(sync_steps=steps, H=_max_gap(steps))

    def describe(self) -> str:
        if self.sync_steps == tuple(range(self.H, self.final + 1, self.H)):
            return f"uniform(H={self.H})"
        if len(self.sync_steps) == 1:
            return f"one-shot(T={self.final})"
        return "explicit(" + ",".join(str(s) for s in self.sync_steps) + f";H={self.H})"


@dataclass(frozen=True)
class RunConfig:
    """One run's settings. The regime is the Problem's (its partition's),
    and the run length T is where the schedule ends."""

    M: int
    schedule: SyncSchedule
    gamma: float
    gradient_mode: GradientMode
    seed: int
    batch: int = 1
    noise_sigma: float | None = None
    record_every: int | None = None

    @property
    def T(self) -> int:
        return self.schedule.final

    def validate(self, p: Problem) -> None:
        if self.M != p.M:
            raise ValueError(f"config M={self.M} but partition has {p.M} nodes")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma!r}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.gradient_mode == GradientMode.INJECTED_NOISE:
            if self.noise_sigma is None or self.noise_sigma <= 0:
                raise ValueError("injected-noise mode needs noise_sigma > 0")

    def stride(self) -> int:
        if self.record_every is not None:
            return self.record_every
        return max(1, math.ceil(self.T / 1000))


def r0_sq(ref: ReferenceSolution) -> float:
    """||x0 - x*||^2 for the start x0 = 0 of every run."""
    return float(np.sum(ref.x_star**2))


# The per-step reductions below call the ufunc reductions that numpy's
# wrappers (mean, sum, all, max) call, without the wrappers' Python layer:
# np.add.reduce(X, axis) / M is X.mean(axis) bit for bit. They take a
# (S, M, d) stack or a sweep's (K, S, M, d) one, and reduce only trailing
# axes, so each config's values do not depend on the stack around it.

def _mean_nodes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node average per seed of a (..., S, M, d) stack, exact for a seed
    whose nodes coincide, and whether the nodes of every seed coincide, one
    flag per leading index."""
    xhat = np.add.reduce(X, axis=-2)
    xhat /= X.shape[-2]
    eq = np.logical_and.reduce(X == X[..., :1, :], axis=(-2, -1))
    np.copyto(xhat, X[..., 0, :], where=eq[..., None])
    return xhat, np.logical_and.reduce(eq, axis=-1)


def _synchronize(X: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """The communication step of one config: every node of a seed takes the
    seed's average xhat, shape (S, d); X (S, M, d) is overwritten and
    returned."""
    X[...] = xhat[:, None, :]
    return X


def _vt_batch(X: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """V_t per seed: the mean squared distance of its nodes from xhat."""
    D = X - xhat[..., None, :]
    D *= D
    V = np.add.reduce(np.add.reduce(D, axis=-1), axis=-1)
    V /= X.shape[-2]
    return V


# ---------------------------------------------------------------------------
# Gradient evaluation, vectorized over (config, seed, node)
# ---------------------------------------------------------------------------

class _GradientEngine:
    """Per-step gradients for all (seed, node) pairs of a sweep's configs,
    which share cfg's T, M, gradient mode, batch and noise_sigma.

    All randomness takes one path: a mode's `draw(s, m, out)` writes the
    next steps of the (seed s, node m) stream into out, its contiguous block
    of a preallocated stream-major (S, M, k, ...) buffer of about
    _REFILL_BYTES, which `_draws` refills; step t reads its (S, M, ...)
    slice, shared by every config. The streams are counter-based, so no
    value depends on where a refill starts. Steps are taken in order.
    """

    def __init__(self, p: Problem, cfg: RunConfig, seeds: Sequence[int]):
        self.p = p
        self.cfg = cfg
        self.seeds = list(seeds)
        self.S = len(self.seeds)
        self.M = cfg.M
        self.d = p.dim
        mode = cfg.gradient_mode
        self._draw = None  # exact gradients draw nothing

        if mode == GradientMode.STOCHASTIC:
            # The draws a single run makes, shared with the minibatch engine:
            # `batch` indices per step into node m's block.
            streams = [[RngStream(seed=seed, stream_id=m) for m in range(self.M)]
                       for seed in self.seeds]

            def draw(s: int, m: int, out: np.ndarray) -> None:
                start, stop = p.node_range(m)
                out[...] = start + draw_indices(streams[s][m], stop - start, out.shape)

            self._draw, per_step, dtype = draw, cfg.batch, np.int64
        else:
            self._num = _slope_numerator(p, self.S)

        if mode == GradientMode.INJECTED_NOISE:
            gens = [[RngStream(seed=seed, stream_id=m | _NOISE_STREAM_FLAG).generator()
                     for m in range(self.M)] for seed in self.seeds]
            # Total injected variance per draw is noise_sigma^2, split over coords.
            # `draw` holds no reference to self: the engine is freed without GC.
            scale = cfg.noise_sigma / math.sqrt(self.d)

            def draw(s: int, m: int, out: np.ndarray) -> None:
                gens[s][m].standard_normal(out=out)
                out *= scale

            self._draw, per_step, dtype = draw, self.d, np.float64

        if self._draw is not None:
            step_bytes = self.S * self.M * per_step * np.dtype(dtype).itemsize
            steps = min(cfg.T, max(1, _REFILL_BYTES // step_bytes))
            self._buf = np.empty((self.S, self.M, steps, per_step), dtype=dtype)
            self._first, self._filled = 0, 0  # the steps held: first, first + 1, ...

    def _draws(self, t: int) -> np.ndarray:
        """The (S, M, ...) draws of step t, refilling the buffer from t on."""
        if t >= self._first + self._filled:
            self._first, self._filled = t, min(self._buf.shape[2], self.cfg.T - t)
            for s in range(self.S):
                for m in range(self.M):
                    self._draw(s, m, self._buf[s, m, :self._filled])
        return self._buf[:, :, t - self._first]

    def _full_grads(self, Xn: np.ndarray, same: bool, out: np.ndarray) -> None:
        """One config's exact gradients at its (S, M, d) stack Xn, into out:
        each config is its own product, at the width a run alone uses."""
        p = self.p
        if same and p.part.regime == Regime.IDENTICAL:
            # Nodes coincide and share f: one gradient per seed suffices.
            out[...] = _exact_grads(p, Xn[:, 0, :], self._num)[:, None, :]
        else:
            # Columns ordered (s, m), as the numerator's are.
            _exact_grads(p, Xn.reshape(self.S * self.M, self.d), self._num,
                         out=out.reshape(self.S * self.M, self.d))

    def _stochastic_grads(self, X: np.ndarray, t: int) -> np.ndarray:
        p, cfg = self.p, self.cfg
        idx = self._draws(t)  # (S, M, batch)
        rows = p.gather(idx)  # (S, M, batch, d) signed rows, from either storage
        tv = np.einsum("smbd,ksmd->ksmb", rows, X)
        c = _logistic_slope(-1.0 / cfg.batch, tv, out=tv)
        return np.einsum("ksmb,smbd->ksmd", c, rows) + p.lam * X

    def gradients(self, X: np.ndarray, t: int, same: Sequence[bool]) -> np.ndarray:
        """Gradients at the (K, S, M, d) stack X of step t, one (S, M, d)
        block per config; same[k] says that the nodes of every seed of
        config k coincide, as _mean_nodes measures."""
        mode = self.cfg.gradient_mode
        if mode == GradientMode.STOCHASTIC:
            return self._stochastic_grads(X, t)
        G = np.empty_like(X)
        for k in range(X.shape[0]):
            self._full_grads(X[k], same[k], G[k])
        if mode == GradientMode.INJECTED_NOISE:
            G += self._draws(t)
        return G


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def _write_csv(stream: TextIO, metadata: dict, t: np.ndarray, synced: np.ndarray,
               columns: dict[str, np.ndarray]) -> None:
    """Metadata header, then one row per recorded step. `round` counts
    completed synchronizations up to t, so curves can be read against either
    the step axis or the communication-round axis."""
    for k in sorted(metadata):
        stream.write(f"# {k} = {metadata[k]}\n")
    stream.write(",".join(["t", "round", "synced", *columns]) + "\n")
    rows = zip(np.asarray(t, dtype=np.int64).tolist(), np.cumsum(synced).tolist(),
               np.asarray(synced, dtype=np.int64).tolist(),
               *(np.asarray(c, dtype=np.float64).tolist() for c in columns.values()))
    for step, rnd, sync, *values in rows:
        stream.write(f"{step},{rnd},{sync}," + ",".join(map(repr, values)) + "\n")


# The per-step metrics of a Trace, each aggregated over seeds.
_METRICS = ("V", "dist_sq", "subopt", "grad_norm_sq")


@dataclass
class Trace:
    """Recorded metrics of a single run plus its summary."""

    t: np.ndarray
    synced: np.ndarray
    V: np.ndarray
    dist_sq: np.ndarray
    subopt: np.ndarray  # nan off the _subopt_steps grid
    grad_norm_sq: np.ndarray  # nan at T, where no gradient is taken
    bar_subopt_tail: float  # f(mean of xhat_t, t = 1..T) - f*
    bar_subopt_head: float  # f(mean of xhat_t, t = 0..T-1) - f*
    metadata: dict
    xhat: np.ndarray | None = None  # optional (rows, d) trajectory capture

    @property
    def comm_rounds(self) -> int:
        return int(self.synced.sum())  # every synchronization is a recorded row

    def to_csv(self, stream: TextIO) -> None:
        md = dict(self.metadata,
                  bar_subopt_tail=repr(float(self.bar_subopt_tail)),
                  bar_subopt_head=repr(float(self.bar_subopt_head)),
                  comm_rounds=self.comm_rounds)
        _write_csv(stream, md, self.t, self.synced,
                   {"V_t": self.V, "dist_sq": self.dist_sq, "subopt": self.subopt,
                    "grad_norm_sq": self.grad_norm_sq})


@dataclass
class AggregateTrace:
    """Per-step mean and standard error over a list of seeded runs."""

    t: np.ndarray
    synced: np.ndarray
    mean: dict[str, np.ndarray]  # keyed by _METRICS
    se: dict[str, np.ndarray]
    bar_subopt_tail: tuple[float, float]  # (mean, se)
    bar_subopt_head: tuple[float, float]
    seeds: tuple[int, ...]
    metadata: dict

    @property
    def comm_rounds(self) -> int:
        return int(self.synced.sum())  # every synchronization is a recorded row

    def to_csv(self, stream: TextIO) -> None:
        md = dict(self.metadata,
                  seeds=",".join(str(s) for s in self.seeds),
                  n_seeds=len(self.seeds),
                  comm_rounds=self.comm_rounds,
                  bar_subopt_tail_mean=repr(self.bar_subopt_tail[0]),
                  bar_subopt_tail_se=repr(self.bar_subopt_tail[1]),
                  bar_subopt_head_mean=repr(self.bar_subopt_head[0]),
                  bar_subopt_head_se=repr(self.bar_subopt_head[1]))
        columns = {f"{name}_{stat}": values[name] for name in _METRICS
                   for stat, values in (("mean", self.mean), ("se", self.se))}
        _write_csv(stream, md, self.t, self.synced, columns)


def _mean_and_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean/SE over the last axis; identical observations, a single one
    among them, give the exact value and an SE of 0 instead of
    floating-point dust."""
    n = values.shape[-1]
    mean = values.mean(axis=-1)
    se = values.std(axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    spread = values.max(axis=-1) - values.min(axis=-1)
    exact = spread == 0.0
    mean = np.where(exact, values[..., 0], mean)
    se = np.where(exact, 0.0, se)
    return mean, se


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def _base_metadata(p: Problem, cfg: RunConfig, ref: ReferenceSolution,
                   engine: str) -> dict:
    return {
        "engine": engine,
        "dataset": p.dataset.name,
        "n": p.dataset.n,
        "dim": p.dataset.dim,
        "M": cfg.M,
        "T": cfg.T,
        "H": cfg.schedule.H,
        "schedule": cfg.schedule.describe(),
        "gamma": repr(float(cfg.gamma)),
        "batch": cfg.batch,
        "regime": p.part.regime.value,
        "gradient_mode": cfg.gradient_mode.value,
        "noise_sigma": "" if cfg.noise_sigma is None else repr(float(cfg.noise_sigma)),
        "record_every": cfg.stride(),
        "lambda": repr(float(p.lam)),
        "mu": repr(float(p.mu)),
        "L": repr(float(p.L)),
        "L_component": repr(float(p.L_component)),
        "f_star": repr(float(ref.f_star)),
        "ref_grad_norm": repr(float(ref.grad_norm)),
        "x0": "zeros",
        "r0_sq": repr(r0_sq(ref)),
        "intercept": "none",
    }


def _divergence(X: np.ndarray, t: int, seeds: Sequence[int]) -> DivergenceError:
    """The error naming the first (seed, node) of one config's (S, M, d)
    stack X whose iterate is not finite or exceeds _DIVERGENCE_LIMIT."""
    bad = ~np.isfinite(X) | (np.abs(X) > _DIVERGENCE_LIMIT)
    s, m = np.argwhere(np.any(bad, axis=2))[0]
    return DivergenceError(t, seeds[int(s)], int(m))


def _subopt_steps(grid: Sequence[int], T: int) -> frozenset[int]:
    """The recorded steps whose suboptimality is evaluated: all up to
    D = _SUBOPT_DENSE, then the first at or after each step
    ceil(D (T/D)^(k/D)), k = 1..D, the last of which is T."""
    D = _SUBOPT_DENSE
    steps = {t for t in grid if t <= D}
    for k in range(1, D + 1):
        step = min(T, math.ceil(D * (T / D) ** (k / D)))
        steps.add(grid[bisect.bisect_left(grid, step)])
    return frozenset(steps)


# Recorded rows per aggregation block of a _Lane.
_RECORD_BLOCK = 64


class _Lane:
    """One config of a sweep: its synchronization steps, recording grid and
    recorder, and after the run its per-row mean and SE over the requested
    seeds, or its DivergenceError.

    `pick` maps the requested seeds (sorted, repeats kept) to the simulated
    ones: a slice when each was simulated once, else a list of rows. The
    per-row metrics are aggregated as they are recorded, one block of
    _RECORD_BLOCK rows at a time, so the recorder's memory does not grow
    with T. A block is seed-major, (S, rows), and aggregated as the
    column-major (rows, S) transpose; numpy reduces such an array one row at
    a time in seed order whatever its row count, from 2 rows on, so every
    block, the last one included, holds at least 2 rows. subopt and the
    iterate averages are kept per seed, and the trajectory when captured.
    """

    _PER_ROW = ("V", "dist_sq", "grad_norm_sq")  # the block's rows, in this order

    def __init__(self, cfg: RunConfig, S: int, pick, d: int, metadata: dict,
                 capture_xhat: bool):
        self.cfg, self.pick, self.metadata = cfg, pick, metadata
        sync_steps = cfg.schedule.sync_steps
        # Every stride-th step and every synchronization step (T among them).
        grid = sorted(set(sync_steps).union(range(0, cfg.T + 1, cfg.stride())))
        # subopt grid step -> its column in subopt
        self.subopt_column = {t: j for j, t in enumerate(sorted(_subopt_steps(grid, cfg.T)))}
        self.t = np.asarray(grid, dtype=np.int64)
        self.synced = np.isin(self.t, sync_steps)
        self.mean = {name: np.empty(len(grid)) for name in self._PER_ROW}
        self.se = {name: np.empty(len(grid)) for name in self._PER_ROW}
        self.block = np.empty((len(self._PER_ROW), S, _RECORD_BLOCK))
        self.first = 0  # the row in block column 0
        self.subopt = np.empty((S, len(self.subopt_column)))
        self.xhat = np.zeros((S, len(grid), d)) if capture_xhat else None
        self.bar_subopt_tail = self.bar_subopt_head = None  # (S,) each, at the end
        self.error: DivergenceError | None = None
        # Cursors, as steps are taken in order: the next row to record and
        # its step, and the next synchronization.
        self.row, self.due = 0, 0
        self._syncs = iter(sync_steps)
        self.next_sync = next(self._syncs)

    def advance(self) -> tuple[int, int | None]:
        """The row of the step now recorded (the one `due`) and its column
        in subopt, None off that grid; moves on to the next row."""
        r, j = self.row, self.subopt_column.get(self.due)
        self.row += 1
        self.due = int(self.t[self.row]) if self.row < self.t.size else -1
        return r, j

    def synchronize_next(self) -> None:
        """Move on to the synchronization after `next_sync`."""
        self.next_sync = next(self._syncs, -1)

    def column(self, r: int) -> int:
        """The block column of row r; when the block is full, every row but
        the last is aggregated first and the last moves to column 0."""
        c = r - self.first
        if c == _RECORD_BLOCK:
            self._aggregate(c - 1)
            self.block[:, :, 0] = self.block[:, :, c - 1]
            self.first, c = r - 1, 1
        return c

    def _aggregate(self, rows: int) -> None:
        for i, name in enumerate(self._PER_ROW):
            m, e = self.stats(self.block[i, :, :rows])
            self.mean[name][self.first:self.first + rows] = m
            self.se[name][self.first:self.first + rows] = e

    def stats(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and SE over the requested seeds of seed-major values."""
        # Seeds on the last axis of a column-major (rows, seeds) array: numpy
        # sums a strided axis in another order than a contiguous one.
        return _mean_and_se(values[self.pick].T)

    def finish(self, bar_tail: np.ndarray, bar_head: np.ndarray) -> None:
        """Aggregate the last block (no gradient is taken at T) and store
        the iterate-average suboptimalities, one per simulated seed."""
        rows = self.t.size - self.first
        self.block[2, :, rows - 1] = np.nan
        self._aggregate(rows)
        self.bar_subopt_tail, self.bar_subopt_head = bar_tail, bar_head

    def subopt_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and SE of subopt at every row, nan off its grid."""
        rows = np.searchsorted(self.t, list(self.subopt_column))
        out = np.full((2, self.t.size), np.nan)
        out[:, rows] = self.stats(self.subopt)
        return out[0], out[1]


def _simulate(p: Problem, ref: ReferenceSolution, lanes: list[_Lane],
              seeds: Sequence[int], *, minibatch: bool) -> None:
    """Run every lane's config over the seeds, in lockstep, into its lane.

    The configs share T, M, gradient mode, batch and noise_sigma, so one
    engine draws each (seed, node) stream once for all of them. The state
    is one (K, S, M, d) stack over the K lanes still running; elementwise
    steps and trailing-axis reductions take the whole stack, and every BLAS
    product (exact gradients, the recorder's loss) is taken per lane at the
    width a run alone uses. A lane that diverges gets its DivergenceError
    and leaves the stack; the others go on.
    """
    cfg = lanes[0].cfg
    S, M, d, T = len(seeds), cfg.M, p.dim, cfg.T
    grad_engine = _GradientEngine(p, cfg, seeds)
    live = list(lanes)
    gamma = np.array([lane.cfg.gamma for lane in live])[:, None, None, None]
    X = np.zeros((len(live), S, M, d))
    xhat, same = _mean_nodes(X)
    bar_head_sum = np.zeros((len(live), S, d))  # accumulates xhat_t over t = 0..T-1
    bar_tail_sum = np.zeros((len(live), S, d))  # accumulates xhat_t over t = 1..T

    for t in range(T + 1):
        recs = [(k, lane, *lane.advance()) for k, lane in enumerate(live) if lane.due == t]
        if recs:
            V = _vt_batch(X, xhat)
            diff = xhat - ref.x_star
            diff *= diff
            dist = np.add.reduce(diff, axis=-1)
            for k, lane, r, j in recs:
                c = lane.column(r)
                lane.block[0, :, c] = V[k]
                lane.block[1, :, c] = dist[k]
                if lane.xhat is not None:
                    lane.xhat[:, r] = xhat[k]
                if j is not None:
                    lane.subopt[:, j] = loss_many(p, xhat[k]) - ref.f_star
        if t == T:
            break
        G = grad_engine.gradients(X, t, same)
        if recs or minibatch:
            g_mean = np.add.reduce(G, axis=-2)
            g_mean /= M
        if recs:
            gsq = np.add.reduce(g_mean * g_mean, axis=-1)
            for k, lane, r, _ in recs:
                lane.block[2, :, r - lane.first] = gsq[k]
        bar_head_sum += xhat
        if minibatch:
            xhat = xhat - gamma[..., 0] * g_mean
        else:
            X -= np.multiply(G, gamma, out=G)
            xhat, same = _mean_nodes(X)
        for k, lane in enumerate(live):
            if minibatch or lane.next_sync == t + 1:
                X[k] = _synchronize(X[k], xhat[k])
                same[k] = True  # every node now holds xhat
                lane.synchronize_next()
        bar_tail_sum += xhat
        # A nan peak fails the comparison too.
        if not np.maximum.reduce(np.abs(X), axis=None) <= _DIVERGENCE_LIMIT:
            ok = np.maximum.reduce(np.abs(X), axis=(1, 2, 3)) <= _DIVERGENCE_LIMIT
            for k in np.flatnonzero(~ok):
                live[k].error = _divergence(X[k], t + 1, seeds)
            live = [lane for lane, keep in zip(live, ok) if keep]
            if not live:
                return
            X, xhat, same, gamma, bar_head_sum, bar_tail_sum = (
                a[ok] for a in (X, xhat, same, gamma, bar_head_sum, bar_tail_sum))

    for k, lane in enumerate(live):
        lane.finish(loss_many(p, bar_tail_sum[k] / T) - ref.f_star,
                    loss_many(p, bar_head_sum[k] / T) - ref.f_star)


# The fields every config of a sweep shares: they fix the steps, the draws
# and the recording stride.
_SHARED = ("T", "M", "gradient_mode", "batch", "noise_sigma", "record_every")


class Sweep:
    """Runs of several RunConfigs over the same seeds, simulated together in
    lockstep when the first result is requested.

    The configs share T, M, gradient mode, batch, noise_sigma and
    record_every (each is checked, and every config validated, here);
    their schedules and stepsizes differ. They share the (seed, node)
    streams, drawn once for the sweep, and each config's results are bitwise
    those of its run alone, whichever configs share the sweep. Hand a sweep
    to run_local_sgd or run_replicated, with the same p, ref and seeds, to
    get one config's result from it.
    """

    def __init__(self, p: Problem, cfgs: Sequence[RunConfig], ref: ReferenceSolution,
                 seeds: Sequence[int], *, minibatch: bool = False,
                 capture_xhat: bool = False):
        self.cfgs = list(dict.fromkeys(cfgs))
        if not self.cfgs:
            raise ValueError("a sweep needs at least one config")
        for cfg in self.cfgs:
            cfg.validate(p)
        for name in _SHARED:
            values = [getattr(cfg, name) for cfg in self.cfgs]
            if any(v != values[0] for v in values):
                raise ValueError(f"the configs of a sweep must share {name}, got {values}")
        self.seeds = sorted(int(s) for s in seeds)  # aggregated in sorted order
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        self.p, self.ref = p, ref
        self.minibatch, self.capture_xhat = minibatch, capture_xhat
        self._lanes: list[_Lane] | None = None

    def lane(self, cfg: RunConfig, seeds: Sequence[int]) -> _Lane:
        """The finished lane of cfg run over `seeds`, simulating the whole
        sweep on the first request; raises cfg's DivergenceError."""
        if cfg not in self.cfgs:
            raise ValueError("the config is not one of the sweep's")
        if sorted(int(s) for s in seeds) != self.seeds:
            raise ValueError(f"the sweep runs seeds {self.seeds}, not {list(seeds)}")
        if self._lanes is None:
            # Each distinct seed is simulated once. A run is a pure function
            # of its seed, and exact-gradient runs do not touch the streams
            # at all, so under FULL one run stands for every seed.
            sim = sorted(set(self.seeds))
            if cfg.gradient_mode == GradientMode.FULL:
                sim = sim[:1]
            position = {s: i for i, s in enumerate(sim)}
            rows = [position.get(s, 0) for s in self.seeds]
            pick = slice(None) if rows == list(range(len(sim))) else rows
            engine = "minibatch" if self.minibatch else "local"
            lanes = [_Lane(c, len(sim), pick, self.p.dim,
                           _base_metadata(self.p, c, self.ref, engine), self.capture_xhat)
                     for c in self.cfgs]
            _simulate(self.p, self.ref, lanes, sim, minibatch=self.minibatch)
            self._lanes = lanes
        lane = self._lanes[self.cfgs.index(cfg)]
        if lane.error is not None:
            raise lane.error
        return lane


def _single(sweep: Sweep, cfg: RunConfig) -> Trace:
    """The Trace of cfg's one-seed run in the sweep: its one observation per
    row is its own mean."""
    lane = sweep.lane(cfg, [cfg.seed])
    subopt, _ = lane.subopt_stats()
    return Trace(t=lane.t, synced=lane.synced, V=lane.mean["V"],
                 dist_sq=lane.mean["dist_sq"], subopt=subopt,
                 grad_norm_sq=lane.mean["grad_norm_sq"],
                 bar_subopt_tail=float(lane.bar_subopt_tail[0]),
                 bar_subopt_head=float(lane.bar_subopt_head[0]),
                 metadata=dict(lane.metadata, seed=cfg.seed),
                 xhat=None if lane.xhat is None else lane.xhat[0])


def run_local_sgd(p: Problem, cfg: RunConfig, ref: ReferenceSolution, *,
                  capture_xhat: bool = False, sweep: Sweep | None = None) -> Trace:
    """One Local SGD run: every node steps on its own stream; at each
    scheduled timestamp all nodes are replaced by their average. With a
    sweep holding cfg over the one seed cfg.seed, its result is taken from
    the sweep."""
    if sweep is None:
        sweep = Sweep(p, [cfg], ref, [cfg.seed], capture_xhat=capture_xhat)
    elif capture_xhat != sweep.capture_xhat:
        raise ValueError("capture_xhat is the sweep's setting")
    return _single(sweep, cfg)


def run_minibatch_sgd(p: Problem, cfg: RunConfig, ref: ReferenceSolution, *,
                      capture_xhat: bool = False) -> Trace:
    """Minibatch SGD baseline: a single iterate stepped by the average of the
    M per-node stochastic gradients, drawn from the same per-node streams."""
    return _single(Sweep(p, [cfg], ref, [cfg.seed], minibatch=True,
                         capture_xhat=capture_xhat), cfg)


def run_replicated(p: Problem, cfg: RunConfig, ref: ReferenceSolution,
                   seeds: Sequence[int], *, sweep: Sweep | None = None) -> AggregateTrace:
    """Mean and standard error of the trace metrics over independent seeds;
    with a sweep holding cfg over these seeds, taken from the sweep.

    Seeds are aggregated in sorted order so the result does not depend on how
    the list was arranged.
    """
    if len(seeds) < 2:
        raise ValueError("run_replicated needs at least 2 seeds")
    if sweep is None:
        sweep = Sweep(p, [cfg], ref, seeds)
    lane = sweep.lane(cfg, seeds)
    mean, se = dict(lane.mean), dict(lane.se)
    mean["subopt"], se["subopt"] = lane.subopt_stats()
    tail, head = lane.stats(lane.bar_subopt_tail), lane.stats(lane.bar_subopt_head)
    return AggregateTrace(
        t=lane.t, synced=lane.synced, mean=mean, se=se,
        bar_subopt_tail=(float(tail[0]), float(tail[1])),
        bar_subopt_head=(float(head[0]), float(head[1])),
        seeds=tuple(sweep.seeds),
        metadata=dict(lane.metadata),
    )
