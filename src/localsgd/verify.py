"""The acceptance suite: every criterion as a callable check.

Each criterion returns a CriterionResult; the CLI `verify` subcommand and the
acceptance tests both run these. `level="fast"` shrinks the Monte-Carlo seed
counts for quick iteration; `level="full"` runs the stated settings.
"""
from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dataio, objective, simulator, theory
from .dataio import Regime, generate_synthetic, partition
from .numkit import RngStream, draw_indices
from .objective import build_problem, measure_variances, solve_reference
from .simulator import (
    GradientMode,
    RunConfig,
    Sweep,
    SyncSchedule,
    r0_sq,
    run_local_sgd,
    run_minibatch_sgd,
    run_replicated,
)

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass
class CriterionResult:
    name: str
    status: str
    details: str
    seconds: float  # CPU seconds of this process (time.process_time)

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def line(self) -> str:
        return f"[{self.status}] {self.name} ({self.seconds:.1f}s): {self.details}"


def _seeds(level: str) -> list[int]:
    return list(range(200 if level == "full" else 50))


# Every criterion, in the order of definition: _criterion adds each.
CRITERIA: list[Callable[[str], CriterionResult]] = []


def _criterion(name: str):
    """Make fn(level) -> (ok or status, details) a criterion whose result is
    named `name` and timed in CPU seconds of this process; add it to CRITERIA."""
    def decorate(fn):
        @functools.wraps(fn)
        def timed(level: str = "full") -> CriterionResult:
            t0 = time.process_time()
            outcome, details = fn(level)
            status = outcome if isinstance(outcome, str) else (PASS if outcome else FAIL)
            return CriterionResult(name, status, details, time.process_time() - t0)
        CRITERIA.append(timed)
        return timed
    return decorate


def _check(theorem_id: str, p, cfg: RunConfig, ref, vr, agg) -> tuple:
    """The (curve, verdict) of guarantee `theorem_id` on agg, the aggregate
    of runs of cfg, as `run` would give it; PreconditionError with the
    reason `run` would print when it is not checked."""
    checked, skipped = theory.check_run(p, cfg, ref, vr, agg)
    if theorem_id in skipped:
        raise theory.PreconditionError(skipped[theorem_id])
    return checked[theorem_id]


def _largest_term(curve: theory.BoundCurve) -> str:
    """The largest term of curve's RHS at T and its share of the RHS there,
    as in 'initial 99.98%': the term the bound at T rests on."""
    terms = curve.terms_at(curve.inputs.T)
    name = max(terms, key=terms.get)
    return f"{name} {terms[name] / curve.rhs_at(curve.inputs.T):.2%}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness against central differences
# ---------------------------------------------------------------------------

@_criterion("gradient-correctness")
def criterion_gradient_correctness(level: str) -> tuple:
    """The package's own gradients against central differences of
    objective.loss: the engine's single-sample stochastic gradient on dense
    and on CSR storage, and node_gradients."""
    ds = generate_synthetic(60, 8, seed=101)
    p = build_problem(ds, partition(ds, 3, Regime.IDENTICAL), lam=0.05)
    gen = np.random.Generator(np.random.Philox(key=101))
    steps = 1e-6 * np.eye(p.dim)

    def rel_error(grad, q, x) -> float:
        fd = np.array([objective.loss(q, x + e) - objective.loss(q, x - e)
                       for e in steps]) / 2e-6
        return float(np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad)))

    # Node 0 takes one single-sample gradient per step, each at a fresh
    # point; the loss of the one sample it drew is a one-row problem. Its
    # draws are read from its stream here, independently of the engine.
    T = 100
    cfg = RunConfig(M=3, schedule=SyncSchedule.one_shot(T), gamma=0.0,
                    gradient_mode=GradientMode.STOCHASTIC)
    drawn = draw_indices(RngStream(seed=101, stream_id=0), p.dataset.n, (T, 1))
    worst = 0.0
    for q in (p, objective.csr_twin(p)):
        engine = simulator._GradientEngine(q, cfg, [101])
        for t in range(T):
            X = np.tile(gen.standard_normal(p.dim), (1, 3, 1, 1))  # (config, node, seed, d)
            G = engine.gradients(X, t, np.ones((1, 1), dtype=bool))
            i = int(drawn[t, 0])
            row = dataio.Dataset(ds.features[i:i + 1], ds.labels[i:i + 1])
            q_i = build_problem(row, partition(row, 1, Regime.IDENTICAL), lam=p.lam)
            worst = max(worst, rel_error(G[0, 0, 0], q_i, X[0, 0, 0]))
    for _ in range(T):
        x = gen.standard_normal(p.dim)
        worst = max(worst, rel_error(objective.node_gradients(p, x)[0], p, x))
    return worst <= 1e-6, (f"max relative error {worst:.2e} over {T} (x, sample) pairs "
                           f"per storage and {T} full gradients")


# ---------------------------------------------------------------------------
# 2. Local SGD with H=1 equals minibatch SGD
# ---------------------------------------------------------------------------

@_criterion("engine-equivalence-H1")
def criterion_engine_equivalence(level: str) -> tuple:
    ds = generate_synthetic(1000, 20, seed=102)
    p = build_problem(ds, partition(ds, 4, Regime.IDENTICAL))
    ref = solve_reference(p, 1e-10)
    cfg = RunConfig(M=4, schedule=SyncSchedule.uniform(1, 500), gamma=1.0 / (4 * p.L),
                    gradient_mode=GradientMode.STOCHASTIC, record_every=1)
    tr_loc = run_local_sgd(p, cfg, ref, seed=11, capture_xhat=True)
    tr_mb = run_minibatch_sgd(p, cfg, ref, seed=11, capture_xhat=True)
    denom = np.maximum(np.linalg.norm(tr_mb.xhat[0], axis=1), 1e-300)
    rel = np.linalg.norm(tr_loc.xhat[0] - tr_mb.xhat[0], axis=1) / denom
    worst = float(rel.max())
    return worst <= 1e-12, f"max per-step iterate relative difference {worst:.2e}"


# ---------------------------------------------------------------------------
# 3. V_t is exactly zero at synchronization timestamps (schedule fuzz)
# ---------------------------------------------------------------------------

@_criterion("sync-point-invariant")
def criterion_sync_invariant(level: str) -> tuple:
    ds = generate_synthetic(80, 6, seed=103)
    gen = np.random.Generator(np.random.Philox(key=103))
    setups = {}  # one problem + reference per node count
    for M in (2, 3, 4, 5):
        p = build_problem(ds, partition(ds, M, Regime.HETEROGENEOUS), lam=0.02)
        setups[M] = (p, solve_reference(p, 1e-8))
    bad = 0
    for trial in range(100):
        M = int(gen.integers(2, 6))
        T = int(gen.integers(10, 50))
        n_sync = int(gen.integers(1, max(2, T // 3)))
        steps = np.sort(gen.choice(np.arange(1, T), size=min(n_sync, T - 1),
                                   replace=False))
        steps = sorted(set(steps.tolist()) | {T})
        p, ref = setups[M]
        cfg = RunConfig(M=M, schedule=SyncSchedule.from_steps(steps),
                        gamma=1.0 / (4 * p.L), gradient_mode=GradientMode.STOCHASTIC,
                        record_every=1)
        tr = run_local_sgd(p, cfg, ref, seed=int(gen.integers(2**31)))
        if not np.all(tr.mean["V"][tr.synced] == 0.0):
            bad += 1
    return bad == 0, f"{100 - bad}/100 random schedules had V_t == 0 exactly at syncs"


# ---------------------------------------------------------------------------
# 4. Iterate-deviation bound (identical data, exact injected variance)
# ---------------------------------------------------------------------------

@_criterion("vt-deviation-bound")
def criterion_vt_lemma(level: str) -> tuple:
    ds = generate_synthetic(100, 10, seed=104)
    p = build_problem(ds, partition(ds, 4, Regime.IDENTICAL), lam=0.05)
    ref = solve_reference(p, 1e-11)
    gamma = 1.0 / (2 * p.L)
    seeds = _seeds(level)
    lines = []
    ok = True
    cfgs = [RunConfig(M=4, schedule=SyncSchedule.uniform(H, 96), gamma=gamma,
                      gradient_mode=GradientMode.INJECTED_NOISE, noise_sigma=1.0,
                      record_every=1) for H in (2, 8, 32)]
    sweep = Sweep(p, cfgs, ref, seeds)
    for cfg in cfgs:
        H = cfg.schedule.H
        agg = sweep.result(cfg)
        v = theory.check_vt_bound(agg, gamma, H, 1.0, L=p.L)
        ok = ok and v.holds
        lines.append(f"H={H}:{'ok' if v.holds else 'VIOLATED'}")
    return ok, f"mean V_t <= (H-1) gamma^2 sigma^2 + 3SE ({', '.join(lines)})"


# ---------------------------------------------------------------------------
# 5. Strongly convex identical-data distance bound (uniform variance)
# ---------------------------------------------------------------------------

@_criterion("sc-identical-distance-bound")
def criterion_sc_identical_ubv(level: str) -> tuple:
    ds = generate_synthetic(120, 20, seed=105)
    p = build_problem(ds, partition(ds, 4, Regime.IDENTICAL), lam=0.1)
    ref = solve_reference(p, 1e-11)
    gamma = 1.0 / (4 * p.L)
    seeds = _seeds(level)
    T = 5000
    cfgs = [RunConfig(M=4, schedule=SyncSchedule.uniform(H, T), gamma=gamma,
                      gradient_mode=GradientMode.INJECTED_NOISE, noise_sigma=1.0)
            for H in (1, 4, 16)]
    sweep = Sweep(p, cfgs, ref, seeds)
    ok, slacks = True, []
    for cfg in cfgs:
        # The max ratio is at t=0, where it is r0^2/RHS(0) for any run;
        # the ratio at T is the one the run's dynamics set.
        agg = sweep.result(cfg)
        curve, v = _check("SC_IID_UBV", p, cfg, ref, None, agg)
        at_T = agg.mean["dist_sq"][-1] / curve.rhs_at(T)
        slacks.append(f"H={cfg.schedule.H}:{v.slack_ratio:.3f} ({at_T:.3f} at T) "
                      f"{_largest_term(curve)}")
        ok = ok and v.holds
    return ok, (f"mean dist_sq within RHS + 3SE at every recorded step "
                f"(emp/bound {', '.join(slacks)})")


# ---------------------------------------------------------------------------
# 6. Finite-sum identical-data bounds (planner-supplied stepsizes)
# ---------------------------------------------------------------------------

@_criterion("finite-sum-identical-bounds")
def criterion_finite_sum_identical(level: str) -> tuple:
    ds = generate_synthetic(400, 25, seed=106)
    p = build_problem(ds, partition(ds, 4, Regime.IDENTICAL))  # lam = 1/n
    ref = solve_reference(p, 1e-12)
    vr = measure_variances(p, ref, batch=1)
    seeds = _seeds(level)

    H5, T5 = 4, 400
    cfg5 = RunConfig(M=4, schedule=SyncSchedule.uniform(H5, T5),
                     gamma=theory.planned_gamma("sc-identical-fs", p, T=T5, H=H5),
                     gradient_mode=GradientMode.STOCHASTIC, record_every=1)
    curve5, v5 = _check("SC_IID_FS", p, cfg5, ref, vr, run_replicated(p, cfg5, ref, seeds))

    H6, T6 = 5, 400
    cfg6 = RunConfig(M=4, schedule=SyncSchedule.uniform(H6, T6),
                     gamma=theory.planned_gamma("wc-identical-fs", p, T=T6, H=H6),
                     gradient_mode=GradientMode.STOCHASTIC)
    curve6, v6 = _check("WC_IID_FS", p, cfg6, ref, vr, run_replicated(p, cfg6, ref, seeds))

    ok = v5.holds and v6.holds
    return ok, (f"sync-point distance bound {'ok' if v5.holds else 'VIOLATED'} "
                f"(emp/bound {v5.slack_ratio:.3f} {_largest_term(curve5)}); "
                f"averaged-iterate bound {'ok' if v6.holds else 'VIOLATED'} "
                f"({v6.slack_ratio:.3g} {_largest_term(curve6)})")


# ---------------------------------------------------------------------------
# 7. Heterogeneous bound and the one-shot interpolation case
# ---------------------------------------------------------------------------

@_criterion("heterogeneous-bound")
def criterion_heterogeneous_bound(level: str) -> tuple:
    ds = generate_synthetic(240, 15, seed=107, sort_by_label=True, label_noise=0.05)
    p = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS))
    ref = solve_reference(p, 1e-12)
    vr = measure_variances(p, ref, batch=1)
    seeds = _seeds(level)

    T = 256
    H = theory.plan_H("wc-heterogeneous", T, 4)
    cfg = RunConfig(M=4, schedule=SyncSchedule.uniform(H, T),
                    gamma=theory.planned_gamma("wc-heterogeneous", p, T=T, H=H),
                    gradient_mode=GradientMode.STOCHASTIC)
    curve, v = _check("WC_HET_FS", p, cfg, ref, vr, run_replicated(p, cfg, ref, seeds))

    # Interpolation case: one dataset replicated across all nodes, so every
    # node's full gradient vanishes at x* and sigma_dif = 0; one-shot
    # averaging must still converge below WC_HET_FS's initial term 4 r0^2/(gamma T).
    block = generate_synthetic(60, 15, seed=1070)
    tiled = dataio.Dataset(np.tile(block.features, (4, 1)), np.tile(block.labels, 4),
                           name="tiled")
    p2 = build_problem(tiled, partition(tiled, 4, Regime.HETEROGENEOUS))
    ref2 = solve_reference(p2, 1e-12)
    T2 = 512
    gamma2 = 1.0 / (8 * p2.L_component * (T2 - 1))
    cfg2 = RunConfig(M=4, schedule=SyncSchedule.one_shot(T2), gamma=gamma2,
                     gradient_mode=GradientMode.FULL)
    tr2 = run_local_sgd(p2, cfg2, ref2, seed=0)
    one_shot = theory.BoundCurve(theory.THEOREMS["WC_HET_FS"], theory.BoundInputs(
        L=p2.L_component, gamma=gamma2, T=T2, H=T2, M=4, r0_sq=r0_sq(ref2),
        sigma_dif_sq=0.0))
    limit = one_shot.terms_at(T2)["initial"] * 1.01
    one_shot_ok = (tr2.bar_subopt_head[0] <= limit
                   and tr2.mean["subopt"][-1] < tr2.mean["subopt"][0])

    ok = v.holds and one_shot_ok
    return ok, (f"averaged-iterate bound {'ok' if v.holds else 'VIOLATED'} "
                f"(emp/bound {v.slack_ratio:.3g} {_largest_term(curve)}); one-shot "
                f"interpolation subopt {tr2.bar_subopt_head[0]:.3e} <= {limit:.3e}: "
                f"{'ok' if one_shot_ok else 'VIOLATED'}")


# ---------------------------------------------------------------------------
# 8. Variance identities at the optimum
# ---------------------------------------------------------------------------

@_criterion("variance-identities")
def criterion_variance_identities(level: str) -> tuple:
    ds = generate_synthetic(300, 12, seed=108, sort_by_label=True)
    p1 = build_problem(ds, partition(ds, 1, Regime.HETEROGENEOUS))
    ref = solve_reference(p1, 1e-12)
    vr1 = measure_variances(p1, ref, batch=1)
    diff_m1 = abs(vr1.sigma_dif_sq - vr1.sigma_opt_sq)

    pM = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS))
    refM = solve_reference(pM, 1e-12)
    vrM = measure_variances(pM, refM, batch=1, exhaustive=True)
    # Each f_m from its own one-node problem on the node's rows, not from the
    # per-node path measure_variances takes.
    node_grads = []
    for start, stop in pM.part.node_ranges:
        rows = dataio.Dataset(ds.features[start:stop], ds.labels[start:stop])
        q = build_problem(rows, partition(rows, 1, Regime.IDENTICAL), lam=pM.lam)
        node_grads.append(objective.full_grad_global(q, refM.x_star))
    oracle = np.mean([float(np.sum(g ** 2)) for g in node_grads])
    diff_fb = abs(vrM.sigma_dif_sq - oracle)

    ok = diff_m1 <= 1e-12 and diff_fb <= 1e-10
    return ok, (f"|sigma_dif - sigma_opt| at M=1: {diff_m1:.2e} (<=1e-12); "
                f"full-batch heterogeneous vs (1/M) sum ||grad f_m(x*)||^2: "
                f"{diff_fb:.2e} (<=1e-10)")


# ---------------------------------------------------------------------------
# 9. Planner arithmetic
# ---------------------------------------------------------------------------

@_criterion("planner-arithmetic")
def criterion_planners(level: str) -> tuple:
    checks = [theory.plan_H("wc-heterogeneous", 256, 4) == 2,
              theory.plan_H("wc-identical", 10**6, 10) == 32,
              # T below kappa*M: the floor argument is below 1
              theory.plan_H("sc-identical", 30, 4, kappa=10.0) == 1,
              theory.plan_H("sc-identical", 39, 4, kappa=10.0) == 1]

    gen = np.random.Generator(np.random.Philox(key=109))
    grid_ok = True
    for _ in range(100):
        L = float(10.0 ** gen.uniform(-2, 2))
        mu = L / float(10.0 ** gen.uniform(0.3, 4))
        M = int(gen.integers(2, 33))
        T = int(gen.integers(16, 10**5))
        H_max = max(1, int(np.sqrt(T / M)))
        H = int(gen.integers(1, H_max + 1))
        tp = float(H + gen.uniform(0, 5))
        g1 = theory.plan_gamma("sc-identical-ubv", L=L, mu=mu, t_param=tp).gamma
        grid_ok &= g1 <= 1.0 / (4 * L) * (1 + 1e-12)
        if T >= M:
            g2 = theory.plan_gamma("wc-identical-ubv", L=L, M=M, T=T).gamma
            grid_ok &= g2 <= 1.0 / (4 * L) * (1 + 1e-12)
        g5 = theory.plan_gamma("sc-identical-fs", L=L, mu=mu, M=M, H=H, t_param=tp).gamma
        grid_ok &= g5 <= min(1.0 / (4 * L * (1 + 2 / M)),
                             1.0 / (mu + 8 * L * (H - 1))) * (1 + 1e-12)
        g6 = theory.plan_gamma("wc-identical-fs", L=L, M=M, T=T, H=H).gamma
        grid_ok &= g6 <= 1.0 / (10 * L * H) * (1 + 1e-12)
        g7 = theory.plan_gamma("wc-heterogeneous", L=L, M=M, T=T, H=H).gamma
        lim7 = 1.0 / (4 * L) if H == 1 else min(1.0 / (4 * L), 1.0 / (8 * L * (H - 1)))
        grid_ok &= g7 <= lim7 * (1 + 1e-12)
    checks.append(grid_ok)
    ok = all(checks)
    return ok, (f"fixed identities {'ok' if all(checks[:4]) else 'VIOLATED'}; "
                f"100-point stepsize grid admissible: {grid_ok}")


# ---------------------------------------------------------------------------
# 10. Protocol reproduction on real data (skipped when absent)
# ---------------------------------------------------------------------------

def _plateau_reached(window: np.ndarray) -> bool:
    """Has a sequence stopped falling? Not while more than 3/4 of the pairs
    (a from its first half, b from its second) have b < a; a flat sequence
    with noise gives about half."""
    half = len(window) // 2
    return bool(np.mean(window[half:][None, :] < window[:half, None]) <= 0.75)


@_criterion("real-data-protocol")
def criterion_real_data_protocol(level: str) -> tuple:
    data_dir, manifest = dataio.manifest_path()
    if not os.path.exists(manifest):
        return SKIP, ("a9a not present (no manifest); fetch it per data/README.md to "
                      "enable this check")
    entries = dataio.read_manifest(manifest)
    if "a9a" not in entries:
        return SKIP, "manifest has no a9a entry"
    entry = entries["a9a"]
    ds = dataio.load_dataset(entry, data_dir)
    if ds.n != 32561 or ds.dim != 123:
        return FAIL, f"a9a shape {ds.n}x{ds.dim} differs from the published 32561x123"
    p = build_problem(ds, partition(ds, 20, Regime.IDENTICAL))  # lam = 1/n
    ref = solve_reference(p, 1e-9)

    rounds = 120
    ok = True
    notes = []
    plateaus = {}
    falling = []
    for gname, gamma in (("1/L", 1.0 / p.L), ("0.05/L", 0.05 / p.L)):
        worst_ratio = 0.0
        for H in (1, 4, 16, 64):
            T = H * rounds
            cfg = RunConfig(M=20, schedule=SyncSchedule.uniform(H, T), gamma=gamma,
                            gradient_mode=GradientMode.STOCHASTIC, record_every=T + 1)
            tr = run_local_sgd(p, cfg, ref, seed=3)
            per_round = tr.mean["dist_sq"][tr.synced]
            tail = per_round[50:]
            if not _plateau_reached(tail):
                falling.append(f"{gname} H={H}")
            # Plateau: no sustained growth after round 50 beyond noise.
            ratio = float(np.max(tail) / np.median(tail))
            worst_ratio = max(worst_ratio, ratio)
            plateaus.setdefault(gname, []).append(float(np.median(tail)))
        ok = ok and worst_ratio < 3.0
        notes.append(f"{gname}: max tail/median {worst_ratio:.2f}")
    ok = ok and not falling
    if falling:
        notes.append(f"no plateau (distance still falling over rounds 51-{rounds}): "
                     f"{', '.join(falling)}")
    lvl_big = np.median(plateaus["1/L"])
    lvl_small = np.median(plateaus["0.05/L"])
    ok = ok and lvl_big > lvl_small
    notes.append(f"plateau(1/L)={lvl_big:.3e} > plateau(0.05/L)={lvl_small:.3e}: "
                 f"{lvl_big > lvl_small}")
    return ok, "; ".join(notes)


# ---------------------------------------------------------------------------
# 11. Heterogeneous local GD: fewer rounds to moderate accuracy for larger H
# ---------------------------------------------------------------------------

@_criterion("communication-tradeoff")
def criterion_communication_tradeoff(level: str) -> tuple:
    ds = generate_synthetic(400, 30, seed=51, sort_by_label=True, label_noise=0.02)
    p = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS))
    ref = solve_reference(p, 1e-12)
    gamma = 1.0 / p.L_component
    rounds = 2500
    per_round = {}
    for H in (1, 2, 4, 8, 16):
        T = H * rounds
        cfg = RunConfig(M=4, schedule=SyncSchedule.uniform(H, T), gamma=gamma,
                        gradient_mode=GradientMode.FULL, record_every=T + 1)
        tr = run_local_sgd(p, cfg, ref, seed=0, capture_xhat=True)
        per_round[H] = objective.loss_many(p, tr.xhat[0, tr.synced]) - ref.f_star
    target = 10.0 * per_round[16][-1]
    hits = {}
    for H, sub in per_round.items():
        idx = np.flatnonzero(sub <= target)
        hits[H] = int(idx[0]) + 1 if idx.size else None
    seq = [hits[H] for H in (1, 2, 4, 8, 16)]
    reached = all(r is not None for r in seq)
    mono = reached and all(a >= b for a, b in zip(seq, seq[1:]))
    return reached and mono, (f"rounds to 10x the H=16 level over H=(1,2,4,8,16): {seq} "
                              f"(nonincreasing: {mono})")


def run_all(level: str = "full") -> list[CriterionResult]:
    return [fn(level) for fn in CRITERIA]
