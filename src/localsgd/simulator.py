"""Local SGD engine: per-node iterates, synchronization schedule, averaging,
and trace recording including the iterate deviation V_t.

One run is strictly sequential over t. Runs are vectorized over the seed
axis, and a sweep's configs (several H over the same seeds and T) step in
lockstep: every (seed, node) pair owns its own counter-based stream, so a
run inside a batch or a sweep draws exactly what it would draw alone, and
local SGD with H=1 consumes the same per-node draws as minibatch SGD.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .dataio import Regime, write_csv
from .numkit import RngStream, draw_indices
from .objective import Problem, ReferenceSolution, _logistic_slope, loss_many

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


# Steps per chunk of the gap check: no temporary of the check grows with
# the number of sync steps.
_GAP_CHUNK = 1 << 14


def _steps_array(steps: Sequence[int] | np.ndarray) -> np.ndarray:
    """steps as a read-only int64 array: a read-only int64 array is held as
    it is, anything else copied into one."""
    if isinstance(steps, np.ndarray) and steps.dtype == np.int64 and not steps.flags.writeable:
        return steps
    try:
        steps = np.array(steps, dtype=np.int64)
    except OverflowError:
        raise ValueError("synchronization steps must be below 2^63") from None
    steps.flags.writeable = False
    return steps


def _max_gap(steps: np.ndarray) -> int:
    """Largest gap between consecutive timestamps, the one from 0 included,
    after checking that the timestamps are a schedule's: at least one, the
    first >= 1, strictly increasing."""
    if not steps.size:
        raise ValueError("schedule needs at least one synchronization step")
    if steps[0] < 1:
        raise ValueError("first synchronization step must be >= 1")
    hi, prev = 1, 0
    for start in range(0, steps.size, _GAP_CHUNK):
        chunk = steps[start:start + _GAP_CHUNK]
        # After a first step >= 1 a step below 1 is a decrease, and with
        # every step >= 1 no gap overflows int64.
        if chunk.min() < 1 or (gaps := np.diff(chunk, prepend=prev)).min() < 1:
            raise ValueError("synchronization steps must be strictly increasing")
        hi, prev = max(hi, int(gaps.max())), chunk[-1]
    return hi


@dataclass(frozen=True, eq=False)
class SyncSchedule:
    """Strictly increasing synchronization timestamps with max gap H, held
    as one read-only int64 array.

    The gap from 0 to the first timestamp counts; the final timestamp is
    the run length T. Schedules are equal when their H and steps are.
    """

    sync_steps: np.ndarray
    H: int

    def __post_init__(self):
        object.__setattr__(self, "sync_steps", _steps_array(self.sync_steps))
        gap = _max_gap(self.sync_steps)
        if self.H < 1:
            raise ValueError("H must be >= 1")
        if gap > self.H:
            raise ValueError(f"schedule gap {gap} exceeds declared H={self.H}")

    def __eq__(self, other):
        if not isinstance(other, SyncSchedule):
            return NotImplemented
        return self.H == other.H and np.array_equal(self.sync_steps, other.sync_steps)

    def __hash__(self):
        # Equal schedules share H, step count and final step; hashing these
        # copies no step.
        return hash((self.H, self.sync_steps.size, self.final))

    @property
    def final(self) -> int:
        return int(self.sync_steps[-1])

    @classmethod
    def uniform(cls, H: int, T: int) -> "SyncSchedule":
        """Every H steps, plus T itself when H does not divide T. Raises
        MemoryError, or OverflowError past int64, when numpy cannot hold
        the steps."""
        if H < 1 or T < 1:
            raise ValueError("H and T must be >= 1")
        try:
            # One per sync, counted in integers: np.arange(H, T + H, H)
            # counts in floats, one short for some T near 10^17.
            steps = np.arange(1, -(-T // H) + 1, dtype=np.int64)
        except ValueError:  # numpy's refusal of the size
            raise MemoryError(f"{-(-T // H)} sync steps") from None
        # H, 2H, ...; the last is at or past T, where it may wrap past
        # int64, and becomes T.
        steps *= min(H, T)
        steps[-1] = T
        steps.flags.writeable = False
        return cls(sync_steps=steps, H=H)

    @classmethod
    def one_shot(cls, T: int) -> "SyncSchedule":
        return cls(sync_steps=(T,), H=T)

    @classmethod
    def from_steps(cls, steps: Sequence[int]) -> "SyncSchedule":
        steps = _steps_array(steps)
        return cls(sync_steps=steps, H=_max_gap(steps))

    def describe(self) -> str:
        # A single synchronization reads one-shot whatever H was declared:
        # uniform(T, T) and uniform(H > T, T) are one-shot schedules too.
        steps = self.sync_steps
        if steps.size == 1:
            return f"one-shot(T={self.final})"
        # No gap exceeds H: the step before the last is H * (sync count - 1)
        # exactly when every gap but the last is H, which is uniform(H, T).
        if int(steps[-2]) == self.H * (steps.size - 1):
            return f"uniform(H={self.H})"
        return "explicit(" + ",".join(map(str, steps.tolist())) + f";H={self.H})"


@dataclass(frozen=True)
class RunConfig:
    """One run's settings. The regime is the Problem's (its partition's),
    and the run length T is where the schedule ends."""

    M: int
    schedule: SyncSchedule
    gamma: float
    gradient_mode: GradientMode
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
        sigma = self.noise_sigma
        if self.gradient_mode == GradientMode.INJECTED_NOISE and sigma is None:
            raise ValueError("injected-noise mode needs noise_sigma > 0")
        if sigma is not None and not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"noise_sigma must be finite and positive, got {sigma!r}")

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
# sweep's node-major (K, M, S, d) stack, config k owning the contiguous
# block X[k], and reduce only within a (config, seed), so each one's values
# do not depend on the stack around it.

def _node_sum(X: np.ndarray) -> np.ndarray:
    """The sum over the nodes of a (K, M, S, d) stack, shape (K, S, d), in
    the order of additions of a seed-major (K*S, M, d) stack's: numpy adds
    the nodes in order while a contiguous axis lies below them (d > 1), but
    pairwise where the node axis is the contiguous one, as it is there at
    d = 1. So at d = 1 the nodes are summed as contiguous rows for every S,
    not only for a lone seed."""
    if X.shape[-1] > 1:
        return np.add.reduce(X, axis=1)
    return np.add.reduce(X[..., 0].transpose(0, 2, 1).copy(), axis=-1)[..., None]


def _mean_nodes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node average of each (config, seed) of a (K, M, S, d) stack, shape
    (K, S, d), exact where the nodes coincide, and whether they do, shape
    (K, S)."""
    xhat = _node_sum(X)
    xhat /= X.shape[1]
    # Nodes that differ in coordinate 0 differ: every coordinate is
    # compared only where some seed's nodes agree in it.
    first = X[..., 0]
    eq = np.logical_and.reduce(first[:, 1:] == first[:, :1], axis=1)
    if np.logical_or.reduce(eq, axis=None):
        eq &= np.logical_and.reduce(np.logical_and.reduce(X[:, 1:] == X[:, :1], axis=1),
                                    axis=-1)
        np.copyto(xhat, X[:, 0], where=eq[..., None])
    return xhat, eq


def _synchronize(X: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """The communication step of one config: every node of a seed takes the
    seed's average xhat, shape (S, d); X (M, S, d) is overwritten and
    returned."""
    X[...] = xhat
    return X


def _vt_batch(X: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """V_t per (config, seed), shape (K, S): the mean squared distance of its
    nodes from xhat. Each node's squares are summed over d, then each
    (config, seed)'s M sums as one contiguous row: numpy adds a contiguous
    row pairwise, a strided axis in order, so the row keeps the sum's
    association whatever the layout of X."""
    D = X - xhat[:, None]
    D *= D
    per_node = np.add.reduce(D, axis=-1).transpose(0, 2, 1).copy()  # (K, S, M)
    V = np.add.reduce(per_node, axis=-1)
    V /= X.shape[1]
    return V


# ---------------------------------------------------------------------------
# Gradient evaluation, vectorized over (config, seed, node)
# ---------------------------------------------------------------------------

class _GradientEngine:
    """Per-step gradients for all (node, seed) pairs of a sweep's configs,
    which share cfg's T, M, gradient mode, batch and noise_sigma. The
    iterates are a node-major (K, M, S, d) stack, config k owning X[k].

    All randomness takes one path: a mode's `draw(s, m, out)` writes the
    next steps of the (seed s, node m) stream into out, its contiguous block
    of a preallocated node-major (M, S, k, ...) buffer of about
    _REFILL_BYTES, which `_draws` refills; step t reads its (M, S, ...)
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
            # The draws a single run makes, shared with minibatch SGD:
            # `batch` indices per step into node m's block.
            streams = [[RngStream(seed=seed, stream_id=m) for m in range(self.M)]
                       for seed in self.seeds]

            def draw(s: int, m: int, out: np.ndarray) -> None:
                start, stop = p.node_range(m)
                out[...] = start + draw_indices(streams[s][m], stop - start, out.shape)

            self._draw, per_step, dtype = draw, cfg.batch, np.int64
        else:
            # Nodes that coincide and share f need one gradient per seed.
            self._shortcut = p.part.regime == Regime.IDENTICAL

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
            self._buf = np.empty((self.M, self.S, steps, per_step), dtype=dtype)
            self._first, self._filled = 0, 0  # the steps held: first, first + 1, ...

    def _draws(self, t: int) -> np.ndarray:
        """The (M, S, ...) draws of step t, refilling the buffer from t on."""
        if t >= self._first + self._filled:
            self._first, self._filled = t, min(self._buf.shape[2], self.cfg.T - t)
            for m in range(self.M):
                for s in range(self.S):
                    self._draw(s, m, self._buf[m, s, :self._filled])
        return self._buf[:, :, t - self._first]

    def _stochastic_grads(self, X: np.ndarray, t: int) -> np.ndarray:
        """Minibatch gradients at step t, taken for as many seeds at a time
        as keep the gathered rows within about _REFILL_BYTES: the step's
        memory does not grow with S."""
        idx = self._draws(t)  # (M, S, batch)
        seeds = max(1, _REFILL_BYTES // (idx[:, 0].size * self.d * 8))
        if seeds >= self.S:
            return self._minibatch_grads(idx, X)
        G = np.empty_like(X)
        for s in range(0, self.S, seeds):
            G[:, :, s:s + seeds] = self._minibatch_grads(idx[:, s:s + seeds],
                                                          X[:, :, s:s + seeds])
        return G

    def _minibatch_grads(self, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The (K, M, s, d) gradients at X of the rows at idx, shape (M, s,
        batch), which every config shares."""
        p = self.p
        rows = p.gather(idx)  # (M, s, batch, d) signed rows, from either storage
        tv = np.einsum("msbd,kmsd->kmsb", rows, X)
        c = _logistic_slope(-1.0 / self.cfg.batch, tv, out=tv)
        return np.einsum("kmsb,msbd->kmsd", c, rows) + p.lam * X

    def gradients(self, X: np.ndarray, t: int, eq: np.ndarray) -> np.ndarray:
        """Gradients at the (K, M, S, d) stack X of step t; eq[k, s] says that
        the nodes of config k's seed s coincide, as _mean_nodes measures."""
        mode = self.cfg.gradient_mode
        if mode == GradientMode.STOCHASTIC:
            return self._stochastic_grads(X, t)
        p = self.p
        G = np.empty_like(X)
        # Each config is its own product, at the width a run alone uses.
        if self._shortcut:
            same = np.logical_and.reduce(eq, axis=1)  # per config
        for k in range(len(X)):
            if self._shortcut and same[k]:  # one gradient per seed, at node 0
                G[k] = p.node_grads(X[k, :1])
            else:
                p.node_grads(X[k], out=G[k])
        if mode == GradientMode.INJECTED_NOISE:
            G += self._draws(t)
        return G


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

# The per-step metrics of a run, each aggregated over its seeds; the rows
# of _simulate's recording block, in this order.
_METRICS = ("V", "dist_sq", "subopt", "grad_norm_sq")


@dataclass
class AggregateTrace:
    """The result of a run over one seed or many: the per-step mean and
    standard error of each metric over the seeds, in sorted order. One seed
    is the case S = 1: the means are the run's own values, the SEs 0 (nan
    where the value is), and the CSV keeps a single run's layout, one value
    per metric and no SEs. subopt is nan off the _subopt_steps grid,
    grad_norm_sq at T."""

    t: np.ndarray
    synced: np.ndarray
    mean: dict[str, np.ndarray]  # keyed by _METRICS
    se: dict[str, np.ndarray]
    bar_subopt_tail: tuple[float, float]  # (mean, se) of f(mean of xhat_t, t = 1..T) - f*
    bar_subopt_head: tuple[float, float]  # (mean, se) of f(mean of xhat_t, t = 0..T-1) - f*
    seeds: tuple[int, ...]
    metadata: dict
    xhat: np.ndarray | None = None  # captured (seeds, rows, d); xhat[i] is seeds[i]'s

    @property
    def comm_rounds(self) -> int:
        return int(self.synced.sum())  # every synchronization is a recorded row

    def to_csv(self, stream: TextIO) -> None:
        """Sorted metadata, then a row per recorded step, by `dataio.write_csv`
        (floats as their shortest round-trip repr). `round` counts completed
        synchronizations up to t, so curves read on either axis."""
        bars = {"bar_subopt_tail": self.bar_subopt_tail, "bar_subopt_head": self.bar_subopt_head}
        if len(self.seeds) == 1:
            md = dict(self.metadata, seed=self.seeds[0],
                      **{key: mean for key, (mean, _) in bars.items()})
            columns = {"V_t" if name == "V" else name: self.mean[name] for name in _METRICS}
        else:
            md = dict(self.metadata, seeds=",".join(str(s) for s in self.seeds),
                      n_seeds=len(self.seeds),
                      **{f"{key}_{stat}": value for key, bar in bars.items()
                         for stat, value in zip(("mean", "se"), bar)})
            columns = {f"{name}_{stat}": values[name] for name in _METRICS
                       for stat, values in (("mean", self.mean), ("se", self.se))}
        md["comm_rounds"] = self.comm_rounds
        rows = zip(self.t.tolist(), np.cumsum(self.synced).tolist(),
                   self.synced.astype(np.int64).tolist(), *(c.tolist() for c in columns.values()))
        write_csv(stream, sorted(md.items()), ["t", "round", "synced", *columns], rows)


def _mean_and_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean/SE over the last axis; identical finite observations, a single
    one among them, give the exact value and an SE of 0 instead of
    floating-point dust. A nan value has a nan SE."""
    n = values.shape[-1]
    mean = values.mean(axis=-1)
    se = values.std(axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.full_like(mean, np.nan)
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
        "gamma": float(cfg.gamma),
        "batch": cfg.batch,
        "regime": p.part.regime.value,
        "gradient_mode": cfg.gradient_mode.value,
        "noise_sigma": "" if cfg.noise_sigma is None else float(cfg.noise_sigma),
        "record_every": cfg.stride(),
        "lambda": float(p.lam),
        "mu": float(p.mu),
        "L": float(p.L),
        "L_component": float(p.L_component),
        "f_star": float(ref.f_star),
        "ref_grad_norm": float(ref.grad_norm),
        "x0": "zeros",
        "r0_sq": r0_sq(ref),
        "intercept": "none",
    }


def _divergence(X: np.ndarray, t: int, seeds: Sequence[int]) -> DivergenceError:
    """The error naming the first (seed, node), in seed-then-node order, of
    one config's (M, S, d) stack X whose iterate is not finite or exceeds
    _DIVERGENCE_LIMIT."""
    bad = ~np.isfinite(X) | (np.abs(X) > _DIVERGENCE_LIMIT)
    s, m = np.argwhere(np.any(bad, axis=2).T)[0]
    return DivergenceError(t, seeds[int(s)], int(m))


def _subopt_steps(t: np.ndarray, T: int) -> np.ndarray:
    """The recorded steps, of the sorted array t that ends at T, whose
    suboptimality is evaluated, sorted: all up to D = _SUBOPT_DENSE, then
    the first at or after each step ceil(D (T/D)^(k/D)), k = 1..D, the last
    of which is T."""
    D = _SUBOPT_DENSE
    targets = [min(T, math.ceil(D * (T / D) ** (k / D))) for k in range(1, D + 1)]
    return np.union1d(t[t <= D], t[np.searchsorted(t, targets)])


# Recorded rows per aggregation block of a sweep.
_RECORD_BLOCK = 64


class _Lane:
    """One config of a sweep, filled in by _simulate: the mean and SE over
    the sweep's seeds of each of _METRICS at each of its own rows and of
    the two iterate-average suboptimalities, the trajectory when captured,
    or its DivergenceError.

    `rows`, `synced_at` and `subopt_at` are masks over the sweep's grid:
    the config's own recording grid (every stride-th step and every
    synchronization step, T among them), its synchronization steps and its
    _subopt_steps.
    """

    def __init__(self, cfg: RunConfig, grid: np.ndarray):
        self.cfg = cfg
        self.synced_at = np.isin(grid, cfg.schedule.sync_steps)
        self.rows = self.synced_at | (grid % cfg.stride() == 0)
        self.t = grid[self.rows]
        self.synced = self.synced_at[self.rows]
        self.subopt_at = np.isin(grid, _subopt_steps(self.t, cfg.T))
        self.mean, self.se = np.empty((2, len(_METRICS), self.t.size))
        self.xhat = None
        self.bar_subopt_tail = self.bar_subopt_head = None  # (mean, SE) each, at the end
        self.error: DivergenceError | None = None


def _seed_stats(values: np.ndarray, pick: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and SE over a sweep's seeds, each seed's row of values at pick."""
    # Seeds on the last axis of a column-major (rows, seeds) array: numpy
    # sums a strided axis in another order than a contiguous one.
    return _mean_and_se(values[pick].T)


def _recording_lanes(lanes: list[_Lane]) -> tuple[list[int], list[int]]:
    """For each row of the sweep's grid, the range [lo, hi) of `lanes`
    outside which no lane records it; lo = hi where none does."""
    rows = np.array([lane.rows for lane in lanes])  # (K, grid)
    some = np.logical_or.reduce(rows, axis=0)
    lo = np.where(some, np.argmax(rows, axis=0), 0)
    hi = np.where(some, len(lanes) - np.argmax(rows[::-1], axis=0), 0)
    return lo.tolist(), hi.tolist()


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported, not warned of
def _simulate(p: Problem, ref: ReferenceSolution, lanes: list[_Lane], grid: np.ndarray,
              seeds: Sequence[int], pick: np.ndarray, *, minibatch: bool,
              capture_xhat: bool) -> None:
    """Run every lane's config over the seeds, in lockstep, into its lane.

    The configs share T, M, gradient mode, batch and noise_sigma, so one
    engine draws each (seed, node) stream once for all of them. The state
    is one node-major (K, M, S, d) stack, lane k owning the contiguous
    block X[k] for the whole run; elementwise steps and node reductions take
    the whole stack, and every BLAS product (exact gradients, the
    recorder's loss) is taken per lane at the width a run alone uses. Under
    `minibatch` every node steps with the nodes' mean gradient: a lane's
    nodes start equal and take the same step, so they stay equal,
    _mean_nodes returns node 0's value exactly, V_t is 0 and a sync changes
    nothing, which is minibatch SGD bit for bit. A lane that diverges gets
    its DivergenceError and is parked: its iterates and stepsize are set to
    0, and it is never synchronized, aggregated or evaluated again; the
    others go on.

    One cursor walks `grid`, the union of the lanes' recording grids, and
    records the row's _METRICS into a column of a (4, K, S, _RECORD_BLOCK)
    block. The column starts as nan; V_t, dist_sq and grad_norm_sq are
    computed for the range [lo, hi) of lanes outside which no lane records
    the row, and subopt for the lanes whose _subopt_steps hold it. When the
    block is full, and at the end, each lane aggregates all its columns over
    the sweep's seeds, which pick maps to the simulated ones, and keeps its
    own rows, so the recorder's memory does not grow with T. A lane's block
    is seed-major, (S, rows), and aggregated as the column-major (rows, S)
    transpose; numpy reduces such an array one row at a time in seed order
    whatever its row count, from 2 rows on.
    """
    cfg = lanes[0].cfg
    K, S, M, d, T = len(lanes), len(seeds), cfg.M, p.dim, cfg.T
    grad_engine = _GradientEngine(p, cfg, seeds)
    live = list(enumerate(lanes))  # (k, lane) of the lanes not parked
    gamma = np.array([lane.cfg.gamma for lane in lanes])[:, None, None, None]
    X = np.zeros((K, M, S, d))
    xhat, eq = _mean_nodes(X)
    # xhat_t summed over t = 0..T-1. xhat_0 is +0.0, so adding it changes no
    # bit of the sum over t = 1..T-1, and that sum plus xhat_T is the sum over
    # t = 1..T, with the same additions in the same order.
    bar_sum = np.zeros((K, S, d))
    block = np.full((len(_METRICS), K, S, _RECORD_BLOCK), np.nan)
    xhat_rows = np.zeros((K, S, grid.size, d)) if capture_xhat else None
    # The rows at which some lane takes subopt, or synchronizes.
    subopt_at = np.logical_or.reduce([lane.subopt_at for lane in lanes])
    synced_at = np.logical_or.reduce([lane.synced_at for lane in lanes])
    los, his = _recording_lanes(lanes)
    # The cursor: the row to record next and its step (-1 past the end), and
    # the row in block column 0.
    r, t_r, first = 0, 0, 0

    def aggregate() -> None:
        """Each lane's mean and SE at its own rows among the block's."""
        for k, lane in live:
            own = np.flatnonzero(lane.rows[first:first + _RECORD_BLOCK])
            at = np.searchsorted(lane.t, grid[first])  # the lane's rows before `first`
            out = slice(at, at + own.size)
            for j, values in enumerate(block[:, k]):
                mean, se = _seed_stats(values, pick)
                lane.mean[j, out], lane.se[j, out] = mean[own], se[own]

    for t in range(T + 1):
        recorded = t == t_r
        if recorded:
            c = r - first
            if c == _RECORD_BLOCK:
                aggregate()
                first, c = r, 0
            lo, hi = los[r], his[r]
            col = block[..., c]  # (4, K, S): the row's _METRICS
            col[...] = np.nan
            col[0, lo:hi] = _vt_batch(X[lo:hi], xhat[lo:hi])
            diff = xhat[lo:hi] - ref.x_star
            diff *= diff
            col[1, lo:hi] = np.add.reduce(diff, axis=-1)
            if xhat_rows is not None:
                xhat_rows[:, :, r] = xhat
            if subopt_at[r]:
                for k, lane in live:
                    if lane.subopt_at[r]:
                        col[2, k] = loss_many(p, xhat[k]) - ref.f_star
            r += 1
            t_r = int(grid[r]) if r < grid.size else -1
        if t == T:
            break
        G = grad_engine.gradients(X, t, eq)
        if recorded:
            g = _node_sum(G[lo:hi]) / M
            col[3, lo:hi] = np.add.reduce(g * g, axis=-1)
        if minibatch:
            G[...] = (_node_sum(G) / M)[:, None]
        bar_sum += xhat
        X -= np.multiply(G, gamma, out=G)
        xhat, eq = _mean_nodes(X)
        if t_r == t + 1 and synced_at[r]:
            for k, lane in live:
                if lane.synced_at[r]:
                    X[k] = _synchronize(X[k], xhat[k])
                    eq[k] = True  # every node now holds xhat
        # A nan peak fails the comparison too.
        if not np.maximum.reduce(np.abs(X), axis=None) <= _DIVERGENCE_LIMIT:
            bad = ~(np.maximum.reduce(np.abs(X), axis=(1, 2, 3)) <= _DIVERGENCE_LIMIT)
            for k in np.flatnonzero(bad):
                if lanes[k].error is None:  # a parked lane keeps its first error
                    lanes[k].error = _divergence(X[k], t + 1, seeds)
            live = [(k, lane) for k, lane in live if lane.error is None]
            if not live:
                return
            X[bad], xhat[bad], gamma[bad], eq[bad] = 0.0, 0.0, 0.0, True

    aggregate()
    for k, lane in live:
        lane.bar_subopt_tail, lane.bar_subopt_head = (
            tuple(map(float, _seed_stats(loss_many(p, s / T) - ref.f_star, pick)))
            for s in (bar_sum[k] + xhat[k], bar_sum[k]))
        if xhat_rows is not None:
            lane.xhat = xhat_rows[k][:, lane.rows]


# The fields every config of a sweep shares besides M, which validate fixes
# to the problem's: they fix the steps, the draws and the recording stride.
_SHARED = ("T", "gradient_mode", "batch", "noise_sigma", "record_every")


class Sweep:
    """Runs of several RunConfigs over the same seeds, simulated together in
    lockstep when the first result is requested.

    The configs share the problem's M (every config is validated here), T,
    gradient mode, batch, noise_sigma and record_every (each checked here);
    their schedules and stepsizes differ. They share the (seed, node)
    streams, drawn once for the sweep, and one recording grid, the sorted
    union of theirs: every stride-th step and each config's synchronization
    steps. Each config's results are bitwise those of its run alone,
    whichever configs share the sweep. `result(cfg)` gives one config's
    AggregateTrace over the sweep's seeds; with capture_xhat, its xhat holds
    the node-average trajectory of each seed.
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

    def result(self, cfg: RunConfig) -> AggregateTrace:
        """cfg's result over the sweep's seeds, simulating the whole sweep
        on the first request; raises cfg's DivergenceError."""
        if cfg not in self.cfgs:
            raise ValueError("the config is not one of the sweep's")
        if self._lanes is None:
            # Each distinct seed, a Python int exact to 2^64 - 1, is simulated
            # once: a run is a pure function of its seed. Exact-gradient runs
            # do not touch the streams, so under FULL one run stands for all.
            sim = sorted(set(self.seeds))
            if cfg.gradient_mode == GradientMode.FULL:
                sim = sim[:1]
            position = {s: i for i, s in enumerate(sim)}
            self._pick = np.array([position.get(s, 0) for s in self.seeds])
            grid = np.union1d(np.arange(0, cfg.T + 1, cfg.stride()),
                              np.concatenate([c.schedule.sync_steps for c in self.cfgs]))
            lanes = [_Lane(c, grid) for c in self.cfgs]
            _simulate(self.p, self.ref, lanes, grid, sim, self._pick,
                      minibatch=self.minibatch, capture_xhat=self.capture_xhat)
            self._lanes = lanes
        lane = self._lanes[self.cfgs.index(cfg)]
        if lane.error is not None:
            raise lane.error
        mean, se = dict(zip(_METRICS, lane.mean)), dict(zip(_METRICS, lane.se))
        engine = "minibatch" if self.minibatch else "local"
        return AggregateTrace(
            t=lane.t, synced=lane.synced, mean=mean, se=se,
            bar_subopt_tail=lane.bar_subopt_tail, bar_subopt_head=lane.bar_subopt_head,
            seeds=tuple(self.seeds), metadata=_base_metadata(self.p, cfg, self.ref, engine),
            xhat=None if lane.xhat is None else lane.xhat[self._pick],
        )


def run_local_sgd(p: Problem, cfg: RunConfig, ref: ReferenceSolution, *, seed: int,
                  capture_xhat: bool = False) -> AggregateTrace:
    """One Local SGD run of cfg over `seed`, a one-config sweep. Nothing in
    the package calls it; it stays while the benchmark's probe
    (bench/tracing.py, bench/worker.py) wraps and replaces it on `cli` by
    name."""
    return Sweep(p, [cfg], ref, [seed], capture_xhat=capture_xhat).result(cfg)


def run_replicated(p: Problem, cfg: RunConfig, ref: ReferenceSolution,
                   seeds: Sequence[int], *, sweep: Sweep) -> AggregateTrace:
    """`localsgd run`'s request for one H: cfg's result from the sweep that
    holds every H over `seeds`. The benchmark's probe (bench/tracing.py)
    wraps `cli.run_replicated` to count runs, reading the positional
    (p, cfg, ref, seeds)."""
    return sweep.result(cfg)
