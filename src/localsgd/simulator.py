"""Local SGD engine: per-node iterates, synchronization schedule, averaging,
and trace recording including the iterate deviation V_t.

One run is strictly sequential over t. Replicated runs are vectorized over
the seed axis: every (seed, node) pair owns its own counter-based stream, so
a run inside a batch draws exactly what it would draw alone, and local SGD
with H=1 consumes the same per-node draws as minibatch SGD.
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
_REFILL_BYTES = 8 << 20
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
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
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
# np.add.reduce(X, axis) / M is X.mean(axis) bit for bit.

def _mean_nodes(X: np.ndarray) -> tuple[np.ndarray, bool]:
    """Node average per seed of a (S, M, d) stack, exact for a seed whose
    nodes coincide, and whether the nodes of every seed coincide."""
    xhat = np.add.reduce(X, axis=1)
    xhat /= X.shape[1]
    eq = np.logical_and.reduce(X == X[:, :1, :], axis=(1, 2))
    np.copyto(xhat, X[:, 0, :], where=eq[:, None])
    return xhat, bool(np.logical_and.reduce(eq))


def _synchronize(X: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """The communication step: every node of a seed takes the seed's
    average xhat, shape (S, d); X is overwritten and returned."""
    X[...] = xhat[:, None, :]
    return X


def _vt_batch(X: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """V_t per seed: the mean squared distance of its nodes from xhat."""
    D = X - xhat[:, None, :]
    D *= D
    V = np.add.reduce(np.add.reduce(D, axis=2), axis=1)
    V /= X.shape[1]
    return V


# ---------------------------------------------------------------------------
# Gradient evaluation, vectorized over (seed, node)
# ---------------------------------------------------------------------------

class _GradientEngine:
    """Per-step gradients for all (seed, node) pairs of one run batch.

    All randomness takes one path: a mode's `draw(s, m, k)` gives the next
    k steps of the (seed s, node m) stream, `_draws` refills a preallocated
    step-major (k, S, M, ...) buffer of about _REFILL_BYTES from them, and
    step t reads its one contiguous block. The streams are counter-based,
    so no value depends on where a refill starts. Steps are taken in order.
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

            def draw(s: int, m: int, k: int) -> np.ndarray:
                start, stop = p.node_range(m)
                return start + draw_indices(streams[s][m], stop - start, (k, cfg.batch))

            self._draw, per_step, dtype = draw, cfg.batch, np.int64
        else:
            self._num = _slope_numerator(p, self.S)

        if mode == GradientMode.INJECTED_NOISE:
            gens = [[RngStream(seed=seed, stream_id=m | _NOISE_STREAM_FLAG).generator()
                     for m in range(self.M)] for seed in self.seeds]
            # Total injected variance per draw is noise_sigma^2, split over coords.
            # `draw` holds no reference to self: the engine is freed without GC.
            d, scale = self.d, cfg.noise_sigma / math.sqrt(self.d)

            def draw(s: int, m: int, k: int) -> np.ndarray:
                draws = gens[s][m].standard_normal((k, d))
                draws *= scale
                return draws

            self._draw, per_step, dtype = draw, self.d, np.float64

        if self._draw is not None:
            step_bytes = self.S * self.M * per_step * np.dtype(dtype).itemsize
            steps = min(cfg.T, max(1, _REFILL_BYTES // step_bytes))
            self._buf = np.empty((steps, self.S, self.M, per_step), dtype=dtype)
            self._filled, self._first = self._buf[:0], 0

    def _draws(self, t: int) -> np.ndarray:
        """The (S, M, ...) draws of step t, refilling the buffer from t on."""
        if t >= self._first + self._filled.shape[0]:
            k = min(self._buf.shape[0], self.cfg.T - t)
            self._filled, self._first = self._buf[:k], t
            for s in range(self.S):
                for m in range(self.M):
                    self._filled[:, s, m] = self._draw(s, m, k)
        return self._filled[t - self._first]

    def _full_grads(self, Xn: np.ndarray, same: bool) -> np.ndarray:
        p = self.p
        if same and p.part.regime == Regime.IDENTICAL:
            # Nodes coincide and share f: one gradient per seed suffices.
            G = _exact_grads(p, Xn[:, 0, :], self._num)
            return np.repeat(G[:, None, :], self.M, axis=1)
        # Columns ordered (s, m), as the numerator's are.
        G = _exact_grads(p, Xn.reshape(self.S * self.M, self.d), self._num)
        return G.reshape(self.S, self.M, self.d)

    def _stochastic_grads(self, Xn: np.ndarray, t: int) -> np.ndarray:
        p, cfg = self.p, self.cfg
        idx = self._draws(t)  # (S, M, batch)
        rows = p.gather(idx)  # (S, M, batch, d) signed rows, from either storage
        tv = np.einsum("smbd,smd->smb", rows, Xn)
        c = _logistic_slope(-1.0 / cfg.batch, tv, out=tv)
        return np.einsum("smb,smbd->smd", c, rows) + p.lam * Xn

    def gradients(self, Xn: np.ndarray, t: int, same: bool) -> np.ndarray:
        """Gradients at the (S, M, d) stack Xn of step t; `same` says that
        the nodes of every seed coincide, as _mean_nodes measures."""
        mode = self.cfg.gradient_mode
        if mode == GradientMode.STOCHASTIC:
            return self._stochastic_grads(Xn, t)
        G = self._full_grads(Xn, same)
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
    """Mean/SE over the last axis; identical observations give the exact
    value and an SE of 0 instead of floating-point dust."""
    mean = values.mean(axis=-1)
    se = values.std(axis=-1, ddof=1) / math.sqrt(values.shape[-1])
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


def _check_divergence(X: np.ndarray, t: int, seeds: Sequence[int]) -> None:
    # A nan peak fails the comparison too.
    if np.maximum.reduce(np.abs(X), axis=None) <= _DIVERGENCE_LIMIT:
        return
    bad = ~np.isfinite(X) | (np.abs(X) > _DIVERGENCE_LIMIT)
    s, m = np.argwhere(np.any(bad, axis=2))[0]
    raise DivergenceError(t, seeds[int(s)], int(m))


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


def _simulate(p: Problem, cfg: RunConfig, ref: ReferenceSolution,
              seeds: Sequence[int], *, minibatch: bool,
              capture_xhat: bool = False) -> list[Trace]:
    """Run cfg once per seed, vectorized over the seeds; one Trace each."""
    cfg.validate(p)
    S, M, d, T = len(seeds), cfg.M, p.dim, cfg.T

    grad_engine = _GradientEngine(p, cfg, seeds)
    sync_set = frozenset(cfg.schedule.sync_steps)
    # Every stride-th step and every synchronization step (T among them).
    grid = sorted(sync_set.union(range(0, T + 1, cfg.stride())))
    row_of = {t: i for i, t in enumerate(grid)}
    subopt_at = _subopt_steps(grid, T)
    R = len(grid)

    X = np.zeros((S, M, d))
    xhat, same = _mean_nodes(X)
    bar_head_sum = np.zeros((S, d))  # accumulates xhat_t over t = 0..T-1
    bar_tail_sum = np.zeros((S, d))  # accumulates xhat_t over t = 1..T

    V, dist = np.zeros((2, R, S))
    subopt, gradsq = np.full((2, R, S), np.nan)
    xhat_rows = np.zeros((R, S, d)) if capture_xhat else None

    for t in range(T + 1):
        r = row_of.get(t)
        if r is not None:
            V[r] = _vt_batch(X, xhat)
            diff = xhat - ref.x_star
            diff *= diff
            dist[r] = np.add.reduce(diff, axis=1)
            if xhat_rows is not None:
                xhat_rows[r] = xhat
            if t in subopt_at:
                subopt[r] = loss_many(p, xhat) - ref.f_star
        if t == T:
            break
        G = grad_engine.gradients(X, t, same)
        if r is not None or minibatch:
            g_mean = np.add.reduce(G, axis=1)
            g_mean /= M
        if r is not None:
            gradsq[r] = np.add.reduce(g_mean * g_mean, axis=1)
        bar_head_sum += xhat
        if minibatch:
            xhat = xhat - cfg.gamma * g_mean
        else:
            X -= np.multiply(G, cfg.gamma, out=G)
            xhat, same = _mean_nodes(X)
        if minibatch or (t + 1) in sync_set:
            X = _synchronize(X, xhat)
            same = True  # every node now holds xhat
        bar_tail_sum += xhat
        _check_divergence(X, t + 1, seeds)

    bar_tail = loss_many(p, bar_tail_sum / T) - ref.f_star
    bar_head = loss_many(p, bar_head_sum / T) - ref.f_star
    metadata = _base_metadata(p, cfg, ref, "minibatch" if minibatch else "local")
    t_rec = np.asarray(grid, dtype=np.int64)
    synced = np.asarray([t in sync_set for t in grid], dtype=bool)
    return [Trace(t=t_rec, synced=synced, V=V[:, i], dist_sq=dist[:, i],
                  subopt=subopt[:, i], grad_norm_sq=gradsq[:, i],
                  bar_subopt_tail=float(bar_tail[i]), bar_subopt_head=float(bar_head[i]),
                  metadata=dict(metadata, seed=seed),
                  xhat=None if xhat_rows is None else xhat_rows[:, i])
            for i, seed in enumerate(seeds)]


def run_local_sgd(p: Problem, cfg: RunConfig, ref: ReferenceSolution, *,
                  capture_xhat: bool = False) -> Trace:
    """One Local SGD run: every node steps on its own stream; at each
    scheduled timestamp all nodes are replaced by their average."""
    return _simulate(p, cfg, ref, [cfg.seed], minibatch=False,
                     capture_xhat=capture_xhat)[0]


def run_minibatch_sgd(p: Problem, cfg: RunConfig, ref: ReferenceSolution, *,
                      capture_xhat: bool = False) -> Trace:
    """Minibatch SGD baseline: a single iterate stepped by the average of the
    M per-node stochastic gradients, drawn from the same per-node streams."""
    return _simulate(p, cfg, ref, [cfg.seed], minibatch=True,
                     capture_xhat=capture_xhat)[0]


def run_replicated(p: Problem, cfg: RunConfig, ref: ReferenceSolution,
                   seeds: Sequence[int]) -> AggregateTrace:
    """Mean and standard error of the trace metrics over independent seeds.

    Seeds are aggregated in sorted order so the result does not depend on how
    the list was arranged.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise ValueError("run_replicated needs at least 2 seeds")
    seeds_sorted = sorted(seeds)
    # A run is a pure function of its seed, and exact-gradient runs do not
    # touch the streams at all: simulate each distinct trajectory once and
    # fan the traces back out, so duplicates agree bitwise.
    full = cfg.gradient_mode == GradientMode.FULL
    sim_seeds = seeds_sorted[:1] if full else sorted(set(seeds_sorted))
    sims = dict(zip(sim_seeds, _simulate(p, cfg, ref, sim_seeds, minibatch=False)))
    runs = [sims[sim_seeds[0] if full else s] for s in seeds_sorted]

    def stats(name: str) -> tuple[np.ndarray, np.ndarray]:
        # Seeds on the last axis of a column-major (rows, seeds) array: numpy
        # sums a strided axis in another order than a contiguous one.
        return _mean_and_se(np.stack([getattr(tr, name) for tr in runs]).T)

    per_metric = {name: stats(name) for name in _METRICS}
    tail, head = stats("bar_subopt_tail"), stats("bar_subopt_head")
    return AggregateTrace(
        t=runs[0].t, synced=runs[0].synced,
        mean={k: m for k, (m, _) in per_metric.items()},
        se={k: e for k, (_, e) in per_metric.items()},
        bar_subopt_tail=(float(tail[0]), float(tail[1])),
        bar_subopt_head=(float(head[0]), float(head[1])),
        seeds=tuple(seeds_sorted),
        metadata={k: v for k, v in runs[0].metadata.items() if k != "seed"},
    )
