import io
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from localsgd import cli, simulator
from localsgd.dataio import Dataset, Regime, generate_synthetic, partition
from localsgd.numkit import RngStream
from localsgd.objective import (build_problem, csr_twin, full_grad_global, loss, loss_many,
                                solve_reference)
from localsgd.simulator import (
    DivergenceError,
    GradientMode,
    RunConfig,
    SyncSchedule,
    _mean_nodes,
    _vt_batch,
)
from one_config import run_alone
from signed_data import unsigned_rows


@pytest.fixture(scope="module")
def setup():
    ds = generate_synthetic(200, 8, seed=42)
    p = build_problem(ds, partition(ds, 4, Regime.IDENTICAL), lam=0.02)
    ref = solve_reference(p, 1e-11)
    return p, ref


@pytest.fixture(scope="module")
def setup_het():
    ds = generate_synthetic(200, 8, seed=43, sort_by_label=True)
    p = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS), lam=0.02)
    ref = solve_reference(p, 1e-11)
    return p, ref


def skip_averaging(monkeypatch):
    """Mutate the engine: the communication step leaves every node as it is."""
    monkeypatch.setattr(simulator, "_synchronize", lambda X, xhat: X)


def make_cfg(p, T=64, H=8, gamma=None, mode=GradientMode.STOCHASTIC, M=4, **kw):
    gamma = gamma if gamma is not None else 1.0 / (4 * p.L)
    return RunConfig(M=M, schedule=SyncSchedule.uniform(H, T), gamma=gamma,
                     gradient_mode=mode, **kw)


class TestSyncSchedule:
    def test_uniform_divisible(self):
        s = SyncSchedule.uniform(4, 12)
        assert tuple(s.sync_steps) == (4, 8, 12)

    def test_uniform_with_remainder_appends_final(self):
        s = SyncSchedule.uniform(5, 12)
        assert tuple(s.sync_steps) == (5, 10, 12)
        assert simulator._max_gap(s.sync_steps) == 5

    def test_one_shot(self):
        s = SyncSchedule.one_shot(100)
        assert tuple(s.sync_steps) == (100,) and s.H == 100

    def test_gap_exceeding_H_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            SyncSchedule(sync_steps=(10,), H=5)

    def test_first_gap_counts(self):
        with pytest.raises(ValueError, match="gap"):
            SyncSchedule(sync_steps=(9, 10), H=8)

    def test_nonincreasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            SyncSchedule(sync_steps=(4, 4, 8), H=8)

    def test_from_steps_infers_H(self):
        s = SyncSchedule.from_steps([3, 5, 11])
        assert s.H == 6  # the 5 -> 11 gap

    @pytest.mark.parametrize("schedule", [
        SyncSchedule.one_shot(20), SyncSchedule.uniform(20, 20), SyncSchedule.uniform(40, 20),
    ])
    def test_single_sync_describes_as_one_shot(self, schedule):
        # uniform(20, 20) is one_shot(20); uniform(40, 20) syncs only at T too.
        assert tuple(schedule.sync_steps) == (20,)
        assert schedule.describe() == "one-shot(T=20)"

    @pytest.mark.parametrize("schedule, text", [
        (SyncSchedule.uniform(4, 12), "uniform(H=4)"),
        (SyncSchedule.uniform(1, 2), "uniform(H=1)"),
        (SyncSchedule.uniform(5, 12), "uniform(H=5)"),
        (SyncSchedule.from_steps([3, 5, 11]), "explicit(3,5,11;H=6)"),
    ])
    def test_describe_other_schedules(self, schedule, text):
        assert schedule.describe() == text

    # Each schedule's steps, H, final, largest gap and describe(), and a
    # schedule built another way that equals it, all as before the steps
    # became an int64 array.
    @pytest.mark.parametrize("schedule, steps, H, final, gap, text, twin", [
        (SyncSchedule.uniform(4, 12), (4, 8, 12), 4, 12, 4, "uniform(H=4)",
         SyncSchedule.from_steps([4, 8, 12])),
        (SyncSchedule.uniform(5, 12), (5, 10, 12), 5, 12, 5, "uniform(H=5)",
         SyncSchedule.from_steps([5, 10, 12])),
        (SyncSchedule.uniform(40, 20), (20,), 40, 20, 20, "one-shot(T=20)",
         SyncSchedule((20,), H=40)),
        (SyncSchedule.uniform(20, 20), (20,), 20, 20, 20, "one-shot(T=20)",
         SyncSchedule.one_shot(20)),
        (SyncSchedule.one_shot(100), (100,), 100, 100, 100, "one-shot(T=100)",
         SyncSchedule.uniform(100, 100)),
        (SyncSchedule.from_steps([3, 5, 11]), (3, 5, 11), 6, 11, 6, "explicit(3,5,11;H=6)",
         SyncSchedule(np.array([3, 5, 11]), H=6)),
        (SyncSchedule((3, 6, 9, 12, 20), H=12), (3, 6, 9, 12, 20), 12, 20, 8,
         "explicit(3,6,9,12,20;H=12)", SyncSchedule([3, 6, 9, 12, 20], H=12)),
    ])
    def test_values_and_identity(self, schedule, steps, H, final, gap, text, twin):
        assert tuple(schedule.sync_steps) == steps and schedule.H == H
        assert schedule.final == final and type(schedule.final) is int
        max_gap = simulator._max_gap(schedule.sync_steps)
        assert max_gap == gap and type(max_gap) is int
        assert schedule.describe() == text
        assert schedule.sync_steps.dtype == np.int64 and not schedule.sync_steps.flags.writeable
        assert schedule == twin and hash(schedule) == hash(twin) and len({schedule, twin}) == 1
        # The same steps under another declared H, or other steps under the
        # same H, make another schedule.
        assert schedule != SyncSchedule(steps, H=H + 1)
        assert schedule != SyncSchedule(steps[:-1] + (final + 1,), H=H + 1)
        assert schedule != steps

    def test_uniform_counts_its_steps_in_integers(self):
        # np.arange(H, T + H, H) counts (T + H - H) / H in floats: 1 + 1e-17
        # rounds to a single step.
        s = SyncSchedule.uniform(10**17, 10**17 + 1)
        assert s.sync_steps.tolist() == [10**17, 10**17 + 1]
        assert simulator._max_gap(s.sync_steps) == 10**17

    @pytest.mark.parametrize("steps, H, match", [
        ((), 4, "at least one"),
        ((0, 4), 4, "first"),
        ((4, 3, 8), 8, "increasing"),
        ((5, -(2**63) + 3), 2**62, "increasing"),  # its gap overflows int64
        ((4, 8), 0, "H must be"),
        ((4, 8), 3, "gap 4 exceeds declared H=3"),
        ((4, 2**63), 2**63, "below 2\\^63"),
    ])
    def test_malformed_schedule_refused(self, steps, H, match):
        with pytest.raises(ValueError, match=match):
            SyncSchedule(steps, H=H)

    def test_hashing_copies_no_step(self):
        # Hashing the steps' bytes would copy 8 MB.
        import tracemalloc
        s = SyncSchedule.uniform(1, 10**6)
        tracemalloc.start()
        try:
            hash(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak / 1e6:.1f} MB"

    def test_describing_uniform_with_a_remainder_lists_no_step(self):
        # 3 does not divide T: the last gap is 2, and the name is still uniform.
        import tracemalloc
        s = SyncSchedule.uniform(3, 10**6 + 1)
        tracemalloc.start()
        try:
            text = s.describe()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == "uniform(H=3)"
        assert peak < 64 << 10, f"{peak / 1e3:.1f} kB"

    def test_gaps_are_checked_across_chunks(self, monkeypatch):
        monkeypatch.setattr(simulator, "_GAP_CHUNK", 3)
        steps = [1, 2, 3, 4, 5, 6, 9]
        assert SyncSchedule.from_steps(steps).H == 3
        # A repeat, and a decrease, at the start of the second chunk.
        for bad in ([1, 2, 3, 3, 5, 6], [1, 2, 3, 2, 5, 6]):
            with pytest.raises(ValueError, match="increasing"):
                SyncSchedule.from_steps(bad)
        with pytest.raises(ValueError, match="gap 3 exceeds"):
            SyncSchedule(steps, H=2)


def engine_vt(X) -> float:
    """V_t of one (M, d) stack of node iterates, as the engine computes it
    on its (config, node, seed, d) stack."""
    X = np.asarray(X, dtype=np.float64)[None, :, None]
    return float(_vt_batch(X, _mean_nodes(X)[0])[0, 0])


class TestComputeVt:
    def test_all_equal_is_exactly_zero(self):
        x = np.ones((3, 5)) * 0.3333333333333333
        assert engine_vt(x) == 0.0

    def test_hand_value(self):
        # nodes at 0 and 2: mean 1, V = (1 + 1)/2 = 1
        assert engine_vt(np.array([[0.0], [2.0]])) == 1.0

    def test_translation_invariance(self):
        gen = RngStream(seed=1).generator()
        X = gen.standard_normal((4, 6))
        c = gen.standard_normal(6) * 100
        assert engine_vt(X + c) == pytest.approx(engine_vt(X), rel=1e-9)

    def test_nonnegative(self):
        gen = RngStream(seed=2).generator()
        for _ in range(50):
            assert engine_vt(gen.standard_normal((5, 3))) >= 0.0


class TestLocalSgdBasics:
    def test_noise_free_identical_full_equals_gd(self, setup):
        # Identical data + exact gradients: all nodes stay equal, V_t = 0
        # everywhere, and the trajectory is plain GD on f.
        p, ref = setup
        cfg = make_cfg(p, T=32, H=8, mode=GradientMode.FULL, record_every=1)
        tr = run_alone(p, cfg, ref, 0, capture_xhat=True)
        assert np.all(tr.mean["V"] == 0.0)
        x = np.zeros(p.dim)
        for i, t in enumerate(tr.t):
            assert np.allclose(tr.xhat[0, i], x, rtol=1e-12, atol=1e-300)
            steps = (tr.t[i + 1] - t) if i + 1 < tr.t.size else 0
            for _ in range(int(steps)):
                x = x - cfg.gamma * full_grad_global(p, x)

    def test_h1_equals_minibatch(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=80, H=1, record_every=1)
        a = run_alone(p, cfg, ref, 0, capture_xhat=True)
        b = run_alone(p, cfg, ref, 0, minibatch=True, capture_xhat=True)
        rel = (np.linalg.norm(a.xhat[0] - b.xhat[0], axis=1)
               / np.maximum(np.linalg.norm(b.xhat[0], axis=1), 1e-300))
        assert np.max(rel) <= 1e-12

    def test_single_node_is_serial_sgd(self, setup):
        ds = generate_synthetic(200, 8, seed=42)
        p1 = build_problem(ds, partition(ds, 1, Regime.IDENTICAL), lam=0.02)
        ref1 = solve_reference(p1, 1e-11)
        cfg_a = make_cfg(p1, T=50, H=5, M=1, record_every=1)
        cfg_b = make_cfg(p1, T=50, H=50, M=1, record_every=1)
        a = run_alone(p1, cfg_a, ref1, 0, capture_xhat=True)
        b = run_alone(p1, cfg_b, ref1, 0, capture_xhat=True)
        assert np.array_equal(a.xhat, b.xhat)

    def test_gamma_zero_freezes_minibatch(self, setup):
        p, ref = setup
        cfg = RunConfig(M=4, schedule=SyncSchedule.uniform(1, 20), gamma=0.0,
                        gradient_mode=GradientMode.STOCHASTIC, record_every=1)
        tr = run_alone(p, cfg, ref, 0, minibatch=True, capture_xhat=True)
        assert np.all(tr.xhat == 0.0)

    def test_minibatch_full_is_exact_gd(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=16, H=1, mode=GradientMode.FULL, record_every=1)
        tr = run_alone(p, cfg, ref, 0, minibatch=True, capture_xhat=True)
        x = np.zeros(p.dim)
        for i in range(tr.t.size):
            assert np.allclose(tr.xhat[0, i], x, rtol=1e-12, atol=1e-300)
            x = x - cfg.gamma * full_grad_global(p, x)

    def test_config_validation(self, setup):
        p, ref = setup
        with pytest.raises(ValueError, match="partition"):
            run_alone(p, make_cfg(p, M=3), ref, 0)
        with pytest.raises(ValueError, match="noise_sigma"):
            run_alone(p, make_cfg(p, mode=GradientMode.INJECTED_NOISE), ref, 0)
        for sigma in (float("nan"), float("inf")):
            for mode in (GradientMode.INJECTED_NOISE, GradientMode.STOCHASTIC):
                with pytest.raises(ValueError, match=f"noise_sigma must be finite and "
                                                     f"positive, got {sigma!r}"):
                    run_alone(p, make_cfg(p, mode=mode, noise_sigma=sigma), ref, 0)


class TestInvariants:
    def test_vt_zero_at_syncs_and_start(self, setup_het):
        p, ref = setup_het
        cfg = make_cfg(p, T=60, H=7, record_every=1)
        tr = run_alone(p, cfg, ref, 0)
        V = tr.mean["V"]
        assert V[0] == 0.0
        assert np.all(V[tr.synced] == 0.0)
        between = ~tr.synced & (tr.t > 0)
        assert np.all(V[between] > 0.0)

    def test_recorded_rows_on_the_subopt_grid(self, setup_het):
        # 151 rows: subopt at t <= 64 and at 64 log-spaced steps up to T.
        p, ref = setup_het
        cfg = make_cfg(p, T=150, H=4, record_every=1)
        tr = run_alone(p, cfg, ref, 0, capture_xhat=True)
        assert tr.t.tolist() == list(range(151))
        grid = set(simulator._subopt_steps(np.arange(151), 150).tolist())
        assert set(range(65)) | {150} <= grid and len(grid) == 129
        floor = 4 * np.finfo(float).eps * ref.f_star
        xhat, dist_sq, subopt = tr.xhat[0], tr.mean["dist_sq"], tr.mean["subopt"]
        for r in range(151):
            diff = xhat[r] - ref.x_star
            assert dist_sq[r] == np.sum(diff * diff)
            if r in grid:
                assert subopt[r] == pytest.approx(loss(p, xhat[r]) - ref.f_star,
                                                  rel=1e-12, abs=floor)
            else:
                assert np.isnan(subopt[r])
        assert np.all(tr.mean["V"][tr.synced] == 0.0) and tr.synced.sum() == 38

    @pytest.mark.parametrize("T, stride, H", [(150, 1, 4), (5000, 5, 16), (5000, 5, 7),
                                              (40, 1, 50), (64, 1, 3), (65, 2, 64)])
    def test_subopt_steps_pick_the_first_recorded_step_at_each_target(self, T, stride, H):
        # The bisect walk over the row list that the searchsorted pick replaced.
        import bisect

        rows = np.union1d(np.arange(0, T + 1, stride), SyncSchedule.uniform(H, T).sync_steps)
        grid, D = rows.tolist(), simulator._SUBOPT_DENSE
        want = {t for t in grid if t <= D}
        for k in range(1, D + 1):
            want.add(grid[bisect.bisect_left(grid, min(T, math.ceil(D * (T / D) ** (k / D))))])
        got = simulator._subopt_steps(rows, T)
        assert got.tolist() == sorted(want)

    def test_recorder_loss_is_one_s_column_product_per_grid_row(self, setup_het,
                                                                monkeypatch):
        # Working memory of the recorder does not grow with T: every loss
        # evaluation takes at most S points, and there are at most
        # 2 * _SUBOPT_DENSE + 1 grid rows plus the two iterate averages.
        p, ref = setup_het
        widths = []

        def counting_loss_many(p, X):
            widths.append(np.atleast_2d(X).shape[0])
            return loss_many(p, X)

        monkeypatch.setattr(simulator, "loss_many", counting_loss_many)
        cfg = make_cfg(p, T=2000, H=4, record_every=1)
        agg = run_alone(p, cfg, ref, [0, 1, 2])
        assert agg.t.size == 2001 and max(widths) <= 3 and len(widths) <= 129 + 2
        assert np.sum(~np.isnan(agg.mean["subopt"])) == len(widths) - 2

    def test_average_iterate_identity(self, setup_het):
        # xhat_{t+1} == xhat_t - gamma * mean_m g_t^m whether or not the step
        # synchronized; reconstructed from captured trajectories.
        p, ref = setup_het
        gamma = 1.0 / (4 * p.L)
        cfg = make_cfg(p, T=40, H=5, gamma=gamma, record_every=1)
        tr = run_alone(p, cfg, ref, 0, capture_xhat=True)
        # replay the per-node dynamics with the same streams
        from localsgd.numkit import draw_indices
        from scipy.special import expit
        X = np.zeros((4, p.dim))
        rows_all = unsigned_rows(p.dataset)
        idx = {m: p.node_range(m)[0] + draw_indices(
            RngStream(seed=0, stream_id=m),
            p.node_range(m)[1] - p.node_range(m)[0], (cfg.T, 1))
            for m in range(4)}
        for t in range(cfg.T):
            G = np.zeros_like(X)
            for m in range(4):
                i = int(idx[m][t, 0])
                a, y = rows_all[i], p.dataset.labels[i]
                tv = float(a @ X[m])
                G[m] = -y * expit(-y * tv) * a + p.lam * X[m]
            xhat_next_pred = X.mean(axis=0) - gamma * G.mean(axis=0)
            X = X - gamma * G
            if (t + 1) in cfg.schedule.sync_steps:
                X = np.tile(X.mean(axis=0), (4, 1))
            denom = max(float(np.linalg.norm(xhat_next_pred)), 1e-300)
            rel = np.linalg.norm(tr.xhat[0, t + 1] - xhat_next_pred) / denom
            assert rel <= 1e-12

    def test_schedule_equivalence_bitwise(self, setup):
        # Same sync steps, different declared H: identical trace rows.
        p, ref = setup
        steps = (3, 6, 9, 12, 20)
        s1 = SyncSchedule.from_steps(steps)          # H inferred = 8
        s2 = SyncSchedule(steps, H=12)               # looser declared bound
        out = []
        for s in (s1, s2):
            cfg = RunConfig(M=4, schedule=s, gamma=1.0 / (4 * p.L),
                            gradient_mode=GradientMode.STOCHASTIC, record_every=1)
            out.append(run_alone(p, cfg, ref, 5))
        a, b = out
        for field in ("V", "dist_sq", "subopt", "grad_norm_sq"):
            assert np.array_equal(a.mean[field], b.mean[field], equal_nan=True)

    def test_comm_rounds_uniform(self, setup):
        p, ref = setup
        for T, H in ((100, 10), (100, 7), (64, 64), (5, 1)):
            cfg = make_cfg(p, T=T, H=H)
            tr = run_alone(p, cfg, ref, 0)
            assert tr.comm_rounds == int(np.ceil(T / H))

    def test_disable_averaging_breaks_sync_invariant(self, setup, monkeypatch):
        # Mutation: without averaging the sync rows must show V_t > 0,
        # proving the invariant check has teeth.
        p, ref = setup
        cfg = make_cfg(p, T=24, H=4, record_every=1)
        skip_averaging(monkeypatch)
        tr = run_alone(p, cfg, ref, 0)
        assert np.any(tr.mean["V"][tr.synced] > 0.0)

    def test_disable_averaging_breaks_h1_equivalence(self, setup, monkeypatch):
        p, ref = setup
        cfg = make_cfg(p, T=40, H=1, record_every=1)
        mb = run_alone(p, cfg, ref, 0, minibatch=True, capture_xhat=True)
        skip_averaging(monkeypatch)
        tampered = run_alone(p, cfg, ref, 0, capture_xhat=True)
        rel = (np.linalg.norm(tampered.xhat[0] - mb.xhat[0], axis=1)
               / np.maximum(np.linalg.norm(mb.xhat[0], axis=1), 1e-300))
        assert np.max(rel) > 1e-12

    def test_disable_averaging_fails_sync_criterion(self, monkeypatch):
        from localsgd import verify
        skip_averaging(monkeypatch)
        assert verify.criterion_sync_invariant("fast").status == verify.FAIL

    def test_sync_to_one_node_fails_sync_criterion(self, monkeypatch):
        # Mutation: every node takes node 0's iterate, so the nodes agree but
        # not at their average; V_t measured at the sync rows must show it.
        from localsgd import verify
        monkeypatch.setattr(simulator, "_synchronize",
                            lambda X, xhat: np.repeat(X[:1], X.shape[0], axis=0))
        assert verify.criterion_sync_invariant("fast").status == verify.FAIL

    def test_divergence_reported(self, setup):
        ds = generate_synthetic(50, 4, seed=44)
        p = build_problem(ds, partition(ds, 2, Regime.IDENTICAL), lam=1.0)
        ref = solve_reference(p, 1e-9)
        cfg = RunConfig(M=2, schedule=SyncSchedule.uniform(10, 500), gamma=1e4,
                        gradient_mode=GradientMode.FULL)
        with pytest.raises(DivergenceError, match="diverged at step"):
            run_alone(p, cfg, ref, 0)

    def test_divergence_names_the_first_seed_then_node(self):
        # One config's node-major (M, S, d) stack in which seed 0's node 2
        # and seed 1's node 0 blow up in the same step: seed order comes
        # first, where a node-major scan would name seed 1's node 0.
        X = np.zeros((3, 2, 4))
        X[2, 0, 3] = np.nan
        X[0, 1, 1] = np.inf
        X[1, 1, 0] = 2e100
        e = simulator._divergence(X, 17, [7, 9])
        assert (e.t, e.seed, e.node) == (17, 7, 2)
        X[2, 0, 3] = 0.0
        e = simulator._divergence(X, 17, [7, 9])
        assert (e.seed, e.node) == (9, 0)


def one_step_after_syncs(agg, H):
    """The rows one step after x0 and after each synchronization."""
    return np.flatnonzero(agg.t % H == 1)


class TestExactDeviation:
    """V_t one step after a synchronization, where every node left the same
    point xhat: x_m = xhat - gamma g_m, so V = gamma^2 (1/M) sum_m
    ||g_m - mean_m g_m||^2, two-sided checks of the per-(seed, node) noise
    routing and of the heterogeneous node-block kernel."""

    @staticmethod
    def within_4se(sigma_run, sigma_checked=1.0, H=8):
        # vt-deviation's problem: identical data, exact gradients plus
        # noise of total variance sigma^2 per node, so E V = gamma^2
        # sigma^2 (M - 1)/M at each row one step after a sync.
        ds = generate_synthetic(100, 10, seed=104)
        p = build_problem(ds, partition(ds, 4, Regime.IDENTICAL), lam=0.05)
        ref = solve_reference(p, 1e-11)
        gamma = 1.0 / (2 * p.L)
        cfg = RunConfig(M=4, schedule=SyncSchedule.uniform(H, 96), gamma=gamma,
                        gradient_mode=GradientMode.INJECTED_NOISE,
                        noise_sigma=sigma_run, record_every=1)
        agg = run_alone(p, cfg, ref, range(40))
        rows = one_step_after_syncs(agg, H)
        assert rows.size == 12
        want = gamma**2 * sigma_checked**2 * 3 / 4
        z = (agg.mean["V"][rows] - want) / agg.se["V"][rows]
        return bool(np.all(np.abs(z) <= 4.0))

    def test_injected_noise_deviation_is_its_expectation(self):
        assert self.within_4se(1.0)

    def test_doubled_noise_fails_the_check(self):
        assert not self.within_4se(2.0, sigma_checked=1.0)

    @pytest.mark.parametrize("n, storage", [(400, "dense"), (400, "csr"), (90, "dense")],
                             ids=["dense", "csr", "unequal-blocks"])
    def test_full_gradient_deviation_is_the_node_gradient_spread(self, n, storage):
        # Heterogeneous data: node m's gradient is that of a one-node problem
        # on its own rows, independently of the engine's node-block kernel.
        # n = 90 over M = 4 gives blocks of 23, 23, 22 and 22 rows.
        ds = generate_synthetic(n, 30, seed=109, sort_by_label=True)
        p = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS))
        nodes = []
        for start, stop in p.part.node_ranges:
            rows = Dataset(ds.features[start:stop], ds.labels[start:stop])
            nodes.append(build_problem(rows, partition(rows, 1, Regime.IDENTICAL), lam=p.lam))
        q = csr_twin(p) if storage == "csr" else p
        ref = solve_reference(p, 1e-10)
        H, gamma = 4, 1.0 / p.L
        cfg = RunConfig(M=4, schedule=SyncSchedule.uniform(H, 32), gamma=gamma,
                        gradient_mode=GradientMode.FULL, record_every=1)
        agg = run_alone(q, cfg, ref, 0, capture_xhat=True)
        rows = one_step_after_syncs(agg, H)
        assert rows.size == 8
        for r in rows:
            xhat = agg.xhat[0, r - 1]  # every node's point at the sync
            g = np.array([full_grad_global(node, xhat) for node in nodes])
            want = gamma**2 * np.mean(np.sum((g - g.mean(axis=0))**2, axis=1))
            assert want > 0 and abs(agg.mean["V"][r] - want) <= 1e-12 * want


class TestReplicated:
    def test_repeated_seed_zero_se(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=30, H=5)
        agg = run_alone(p, cfg, ref, [7, 7, 7])
        for name in ("V", "dist_sq", "subopt"):
            assert np.all(agg.se[name] == 0.0)

    def test_full_gradient_zero_variance(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=30, H=5, mode=GradientMode.FULL)
        agg = run_alone(p, cfg, ref, [1, 2, 3, 4])
        for name in ("V", "dist_sq", "subopt"):
            assert np.all(agg.se[name] == 0.0)

    def test_seed_order_irrelevant(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=30, H=5)
        a = run_alone(p, cfg, ref, [3, 1, 2])
        b = run_alone(p, cfg, ref, [1, 2, 3])
        for name in ("V", "dist_sq", "subopt"):
            assert np.array_equal(a.mean[name], b.mean[name])

    def test_matches_individual_runs(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=30, H=5, record_every=1)
        agg = run_alone(p, cfg, ref, [0, 1])
        traces = [run_alone(p, cfg, ref, s) for s in (0, 1)]
        stacked = np.stack([tr.mean["dist_sq"] for tr in traces], axis=1)
        assert np.allclose(agg.mean["dist_sq"], stacked.mean(axis=1), rtol=1e-12)

    def test_one_seed_is_the_single_run(self, setup):
        # One seed is the S = 1 aggregate: the run's own values, SEs of 0,
        # and the single-run CSV layout, which cli.run_local_sgd, the name
        # the benchmark's probe wraps, gives too.
        p, ref = setup
        cfg = make_cfg(p, T=30, H=5, record_every=1)
        agg = run_alone(p, cfg, ref, [4])
        assert csv_of(agg) == csv_of(cli.run_local_sgd(p, cfg, ref, seed=4))
        assert agg.seeds == (4,)
        for name in ("V", "dist_sq", "subopt", "grad_norm_sq"):
            assert np.all((agg.se[name] == 0.0) | np.isnan(agg.mean[name]))
        assert agg.bar_subopt_tail[1] == agg.bar_subopt_head[1] == 0.0

    @pytest.mark.parametrize("seeds", [[4], [4, 9]], ids=["1seed", "2seeds"])
    def test_se_is_nan_exactly_where_the_mean_is(self, setup, seeds):
        # subopt off its grid (the steps past 64 between the log-spaced ones)
        # and grad_norm_sq at T are never measured: no SE, one seed or more.
        p, ref = setup
        cfg = make_cfg(p, T=300, H=5, record_every=1)
        agg = run_alone(p, cfg, ref, seeds)
        assert np.isnan(agg.mean["grad_norm_sq"][-1]) and np.isnan(agg.mean["subopt"]).any()
        for name in simulator._METRICS:
            assert np.array_equal(np.isnan(agg.se[name]), np.isnan(agg.mean[name])), name

    def test_noise_replication_matches_single(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=20, H=4, mode=GradientMode.INJECTED_NOISE,
                       noise_sigma=0.5, record_every=1)
        agg = run_alone(p, cfg, ref, [0, 9])
        tr9 = run_alone(p, cfg, ref, 9)
        stacked_max = np.maximum(agg.mean["dist_sq"], tr9.mean["dist_sq"])
        # seed 9's trace participates in the aggregate: mean of {s0, s9}
        # lies between min and max of the pair at every step
        assert np.all(agg.mean["dist_sq"] <= stacked_max + 1e-30)


class TestTraceCsv:
    def test_round_and_columns(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=20, H=4, record_every=1)
        tr = run_alone(p, cfg, ref, 0)
        buf = io.StringIO()
        tr.to_csv(buf)
        text = buf.getvalue()
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "t,round,synced,V_t,dist_sq,subopt,grad_norm_sq"
        assert "# gamma" in text and "# L =" in text and "# r0_sq" in text
        last = text.splitlines()[-1].split(",")
        assert last[0] == "20" and last[1] == "5"  # T and total rounds

    def test_byte_identical_reruns(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=25, H=5)
        bufs = []
        for _ in range(2):
            tr = run_alone(p, cfg, ref, 0)
            buf = io.StringIO()
            tr.to_csv(buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_aggregate_csv(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=20, H=4)
        agg = run_alone(p, cfg, ref, [0, 1, 2])
        buf = io.StringIO()
        agg.to_csv(buf)
        text = buf.getvalue()
        assert "# n_seeds = 3" in text and "# seed =" not in text
        assert "subopt_mean,subopt_se" in text


def csv_of(trace) -> str:
    buf = io.StringIO()
    trace.to_csv(buf)
    return buf.getvalue()


class TestRefill:
    """The engine draws its randomness in refills of about _REFILL_BYTES."""

    @pytest.mark.parametrize("mode, kw", [
        (GradientMode.STOCHASTIC, {"batch": 3}),
        (GradientMode.INJECTED_NOISE, {"noise_sigma": 0.5}),
    ])
    def test_refill_size_does_not_change_outputs(self, setup_het, monkeypatch,
                                                 mode, kw):
        p, ref = setup_het
        cfg = make_cfg(p, T=23, H=5, mode=mode, record_every=1, **kw)
        seeds = [0, 3, 8]
        whole = csv_of(run_alone(p, cfg, ref, seeds))
        single = csv_of(run_alone(p, cfg, ref, 3))
        # 5 steps per refill: four full refills and a partial one of 3 steps.
        item = 3 * 8 if mode == GradientMode.STOCHASTIC else p.dim * 8
        monkeypatch.setattr(simulator, "_REFILL_BYTES", 5 * len(seeds) * 4 * item)
        assert csv_of(run_alone(p, cfg, ref, seeds)) == whole
        monkeypatch.setattr(simulator, "_REFILL_BYTES", 1)
        assert csv_of(run_alone(p, cfg, ref, 3)) == single

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("seeds_per_block", [1, 2])
    def test_seed_blocks_do_not_change_stochastic_gradients(self, setup_het, monkeypatch,
                                                            storage, seeds_per_block):
        # Two configs of five seeds, their rows gathered for one or two seeds
        # at a time instead of all five.
        p, _ = setup_het
        p = csr_twin(p) if storage == "csr" else p
        cfg = make_cfg(p, T=6, batch=3)
        seeds = [0, 3, 8, 2, 5]
        X = np.random.default_rng(7).standard_normal((2, 4, len(seeds), p.dim))
        eq = np.zeros((2, len(seeds)), dtype=bool)
        whole = simulator._GradientEngine(p, cfg, seeds)
        want = [whole.gradients(X, t, eq) for t in range(cfg.T)]
        monkeypatch.setattr(simulator, "_REFILL_BYTES", seeds_per_block * 4 * 3 * p.dim * 8)
        blocks = simulator._GradientEngine(p, cfg, seeds)
        for t in range(cfg.T):
            assert blocks.gradients(X, t, eq).tobytes() == want[t].tobytes()

    def test_stochastic_step_memory_does_not_grow_with_seeds(self):
        # One seed's rows are 4 * 2000 * 30 * 8 bytes = 1.9 MB, within one
        # refill; all 50 seeds' rows at once would take 96 MB.
        import tracemalloc
        ds = generate_synthetic(2000, 30, seed=46)
        p = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS), lam=0.01)
        S = 50
        cfg = make_cfg(p, T=1, H=1, batch=2000)
        engine = simulator._GradientEngine(p, cfg, range(S))
        X = np.zeros((1, 4, S, p.dim))
        engine._draws(0)  # the refill buffer is the engine's, not the step's
        tracemalloc.start()
        try:
            engine.gradients(X, 0, np.zeros((1, S), dtype=bool))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * simulator._REFILL_BYTES, f"{peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("mode, kw", [
        (GradientMode.STOCHASTIC, {}),
        (GradientMode.INJECTED_NOISE, {"noise_sigma": 0.5}),
    ])
    def test_engine_is_freed_without_collection(self, setup, mode, kw):
        # A reference cycle would keep the buffer alive until the garbage
        # collector runs, so two runs' buffers could be resident at once.
        import gc
        import weakref
        p, _ = setup
        engine = simulator._GradientEngine(p, make_cfg(p, mode=mode, **kw), [0, 1])
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_engine_memory_does_not_grow_with_T(self):
        import tracemalloc
        ds = generate_synthetic(100, 5, seed=45)
        p = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS), lam=0.1)
        T = 100_000
        cfg = RunConfig(M=4, schedule=SyncSchedule.one_shot(T), gamma=0.1,
                        gradient_mode=GradientMode.STOCHASTIC)
        seeds = list(range(50))
        X = np.zeros((1, 4, 50, p.dim))
        tracemalloc.start()
        try:
            engine = simulator._GradientEngine(p, cfg, seeds)
            engine.gradients(X, 0, np.ones((1, len(seeds)), dtype=bool))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The whole run's indices would take 50 * 4 * T * 8 bytes = 160 MB.
        assert peak <= simulator._REFILL_BYTES + (2 << 20)


@pytest.fixture(scope="module", params=list(Regime), ids=lambda r: r.value)
def setup_uneven(request):
    # n = 61 over M = 3: unequal node blocks of 21, 20 and 20 rows.
    ds = generate_synthetic(61, 5, seed=47, sort_by_label=True)
    p = build_problem(ds, partition(ds, 3, request.param), lam=0.05)
    return p, solve_reference(p, 1e-11)


def sweep_cfgs(p, mode, T=150, Hs=(1, 4, 16), record_every=1):
    # Gammas differ per config, as a planner's would. Recording every 7th
    # step gives each H its own recording and subopt grid.
    return [RunConfig(M=3, schedule=SyncSchedule.uniform(H, T),
                      gamma=1.0 / ((3 + k) * p.L), gradient_mode=mode, batch=2, noise_sigma=0.4, record_every=record_every)
            for k, H in enumerate(Hs)]


class TestSweep:
    """Every H of a sweep steps in lockstep, sharing the draws; each one's
    results must be those of its run alone, bit for bit."""

    @pytest.mark.parametrize("mode", list(GradientMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("seeds", [[5], [3, 0, 8]], ids=["1seed", "3seeds"])
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_each_config_equals_its_run_alone(self, setup_uneven, mode, seeds,
                                              record_every):
        p, ref = setup_uneven
        cfgs = sweep_cfgs(p, mode, record_every=record_every)
        sweep = simulator.Sweep(p, cfgs, ref, seeds)
        for cfg in cfgs:
            assert csv_of(sweep.result(cfg)) == csv_of(run_alone(p, cfg, ref, seeds))

    @pytest.mark.parametrize("mode", list(GradientMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("seeds", [[0, 1, 2], [2, 0, 1, 2], [5]],
                             ids=["distinct", "repeat", "1seed"])
    def test_record_block_size_does_not_change_outputs(self, setup_uneven, monkeypatch,
                                                       mode, seeds):
        # 151 rows: the smallest block that keeps the seeds reduced in order
        # (2 rows), blocks that split the rows unevenly, the default, and one
        # block holding every row, as a seed-major whole-run recorder would.
        # The arrays are compared too: a one-seed CSV shows no SE.
        p, ref = setup_uneven
        [cfg] = sweep_cfgs(p, mode, Hs=(4,))
        results = []
        for rows in (2, 3, 4, 64, 152):
            monkeypatch.setattr(simulator, "_RECORD_BLOCK", rows)
            results.append(run_alone(p, cfg, ref, seeds))
        want = results[0]
        for got in results[1:]:
            assert csv_of(got) == csv_of(want)
            for name in simulator._METRICS:
                assert np.array_equal(got.mean[name], want.mean[name], equal_nan=True)
                assert np.array_equal(got.se[name], want.se[name], equal_nan=True)

    @pytest.mark.parametrize("rows", [3, 4])
    def test_small_record_blocks_keep_each_config_equal_to_its_run_alone(
            self, setup_uneven, monkeypatch, rows):
        # Recording every 7th step, the configs' grids differ, so a block of
        # the sweep's grid holds none, some or all of a config's rows.
        p, ref = setup_uneven
        cfgs = sweep_cfgs(p, GradientMode.STOCHASTIC, record_every=7)
        seeds = [0, 1, 2]
        alone = [csv_of(run_alone(p, cfg, ref, seeds)) for cfg in cfgs]
        monkeypatch.setattr(simulator, "_RECORD_BLOCK", rows)
        sweep = simulator.Sweep(p, cfgs, ref, seeds)
        assert [csv_of(sweep.result(cfg)) for cfg in cfgs] == alone

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_diverging_config_fails_alone_and_the_others_complete(self, setup,
                                                                   record_every):
        p, ref = setup
        cfgs = [make_cfg(p, T=60, H=4, record_every=record_every),
                make_cfg(p, T=60, H=1, gamma=1e6, record_every=record_every),
                make_cfg(p, T=60, H=16, record_every=record_every)]
        seeds = [0, 1, 2]
        sweep = simulator.Sweep(p, cfgs, ref, seeds)
        with pytest.raises(DivergenceError) as alone:
            run_alone(p, cfgs[1], ref, seeds)
        with pytest.raises(DivergenceError) as together:
            sweep.result(cfgs[1])
        assert ((together.value.t, together.value.seed, together.value.node)
                == (alone.value.t, alone.value.seed, alone.value.node))
        for cfg in (cfgs[0], cfgs[2]):
            assert csv_of(sweep.result(cfg)) == csv_of(run_alone(p, cfg, ref, seeds))

    def test_a_parked_lane_keeps_its_first_error_and_takes_no_loss(self, setup,
                                                                  monkeypatch):
        # Lane 1's gradients are made infinite at every step: it diverges at
        # step 1 and is parked, and then 0 * inf turns its block nan on every
        # later step. It must keep its first error, never evaluate the loss
        # again, and leave the other lanes' results as they are alone.
        p, ref = setup
        cfgs = [make_cfg(p, T=60, H=H, record_every=1) for H in (4, 1, 16)]
        seeds = [0, 1, 2]
        losses = []
        real_loss = simulator.loss_many

        def counting_loss(*args):
            losses.append(1)
            return real_loss(*args)

        monkeypatch.setattr(simulator, "loss_many", counting_loss)
        alone = {k: csv_of(run_alone(p, cfgs[k], ref, seeds)) for k in (0, 2)}
        calls_alone = len(losses)
        real_grads = simulator._GradientEngine.gradients

        def infinite_lane_1(engine, X, t, eq):
            G = real_grads(engine, X, t, eq)
            G[1] = np.inf
            return G

        monkeypatch.setattr(simulator._GradientEngine, "gradients", infinite_lane_1)
        sweep = simulator.Sweep(p, cfgs, ref, seeds)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as err:
            sweep.result(cfgs[1])
        assert (err.value.t, err.value.seed, err.value.node) == (1, 0, 0)
        assert len(losses) - calls_alone == calls_alone + 1  # lane 1 at step 0 only
        for k in (0, 2):
            assert csv_of(sweep.result(cfgs[k])) == alone[k]

    @pytest.mark.parametrize("mode", [GradientMode.STOCHASTIC, GradientMode.FULL],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("seeds", [[2, 0, 1], [1, 0, 1]], ids=["distinct", "repeat"])
    def test_captured_xhat_holds_each_seeds_trajectory(self, setup_uneven, mode, seeds):
        # FULL simulates one seed for all of them, and a repeated seed once.
        # Injected noise is left out: its exact-gradient product rounds the
        # iterates differently at another batch width, in the last bit.
        p, ref = setup_uneven
        cfgs = sweep_cfgs(p, mode, T=40)
        sweep = simulator.Sweep(p, cfgs, ref, seeds, capture_xhat=True)
        for cfg in cfgs:
            agg = sweep.result(cfg)
            assert agg.xhat.shape == (len(seeds), agg.t.size, p.dim)
            assert agg.seeds == tuple(sorted(seeds))
            for seed, xhat in zip(agg.seeds, agg.xhat):
                alone = run_alone(p, cfg, ref, seed, capture_xhat=True)
                assert np.array_equal(xhat, alone.xhat[0])

    @pytest.mark.parametrize("mode", list(GradientMode), ids=lambda m: m.value)
    def test_averaged_iterates_are_the_means_of_the_trajectory(self, setup_uneven, mode):
        # f at the mean of the captured rows 1..T (tail) and 0..T-1 (head),
        # for each H of a sweep over one seed, whose mean is the seed's value.
        p, ref = setup_uneven
        cfgs = sweep_cfgs(p, mode, T=40)
        sweep = simulator.Sweep(p, cfgs, ref, [5], capture_xhat=True)
        for cfg in cfgs:
            agg = sweep.result(cfg)
            assert agg.t.tolist() == list(range(41))
            xhat = agg.xhat[0]
            tail, head = loss_many(p, np.stack([xhat[1:].mean(axis=0),
                                                xhat[:-1].mean(axis=0)])) - ref.f_star
            assert agg.bar_subopt_tail[0] == pytest.approx(tail, rel=1e-12)
            assert agg.bar_subopt_head[0] == pytest.approx(head, rel=1e-12)

    def test_recording_range_spans_exactly_the_lanes_that_record(self):
        # Per grid row, the lanes [lo, hi) whose metrics are computed: rows
        # 1 and 4 are recorded by no lane, so nothing is computed there.
        rows = [[1, 0, 0, 1, 0], [0, 0, 1, 1, 0], [1, 0, 0, 0, 0]]
        lanes = [SimpleNamespace(rows=np.array(r, dtype=bool)) for r in rows]
        assert simulator._recording_lanes(lanes) == ([0, 0, 1, 0, 0], [3, 0, 2, 2, 0])

    def test_one_coordinate_seed_alone_equals_seed_in_a_batch(self):
        # At d = 1 the nodes of a lone seed are numpy's contiguous axis, and
        # M = 9 of them are summed pairwise, not in order; the seed's node
        # means must not change when other seeds share its batch.
        ds = generate_synthetic(200, 1, seed=3)
        p = build_problem(ds, partition(ds, 9, Regime.IDENTICAL), lam=0.05)
        ref = solve_reference(p, 1e-10)
        cfg = RunConfig(M=9, schedule=SyncSchedule.uniform(4, 40), gamma=0.5,
                        gradient_mode=GradientMode.STOCHASTIC, record_every=1)
        alone = run_alone(p, cfg, ref, 1, capture_xhat=True)
        sweep = simulator.Sweep(p, [cfg], ref, [0, 1, 2], capture_xhat=True)
        inside = sweep.result(cfg)
        assert np.array_equal(alone.xhat[0], inside.xhat[1])

    def test_configs_must_share_the_steps_and_draws(self, setup):
        p, ref = setup
        base = make_cfg(p, T=40, H=4)
        for field, value in (("schedule", SyncSchedule.uniform(4, 48)),
                             ("M", 2), ("gradient_mode", GradientMode.FULL),
                             ("batch", 2), ("record_every", 3)):
            other = RunConfig(**{**vars(base), field: value})
            with pytest.raises(ValueError, match="T" if field == "schedule" else field):
                simulator.Sweep(p, [base, other], ref, [0])

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_gamma_is_refused_before_step_0(self, setup,
                                                                   monkeypatch, gamma):
        p, ref = setup
        monkeypatch.setattr(simulator, "_simulate", None)  # step 0 is never reached
        bad = make_cfg(p, T=40, H=4, gamma=gamma)
        with pytest.raises(ValueError, match=f"gamma must be finite and nonnegative, "
                                             f"got {gamma!r}"):
            simulator.Sweep(p, [make_cfg(p, T=40, H=1), bad], ref, [0])
        with pytest.raises(ValueError, match="gamma"):
            run_alone(p, bad, ref, 0)

    def test_a_sweep_serves_only_its_configs(self, setup):
        p, ref = setup
        cfg = make_cfg(p, T=20, H=4)
        sweep = simulator.Sweep(p, [cfg], ref, [0, 1])
        with pytest.raises(ValueError, match="not one of"):
            sweep.result(make_cfg(p, T=20, H=2))

    def test_recorder_memory_does_not_grow_with_T(self):
        # Three configs of 40 seeds over T = 2000 steps, every step
        # recorded: whole-run seed-major recorders would take
        # 3 * 3 * 40 * 2001 * 8 bytes = 5.8 MB. Beyond the per-row means and
        # SEs, the aggregation blocks and the draws must fit in a fixed
        # budget.
        import tracemalloc
        ds = generate_synthetic(100, 5, seed=45)
        p = build_problem(ds, partition(ds, 4, Regime.IDENTICAL), lam=0.1)
        ref = solve_reference(p, 1e-10)
        T, S = 2000, 40
        cfgs = [RunConfig(M=4, schedule=SyncSchedule.uniform(H, T), gamma=0.1,
                          gradient_mode=GradientMode.INJECTED_NOISE, noise_sigma=1.0,
                          record_every=1) for H in (1, 4, 16)]
        sweep = simulator.Sweep(p, cfgs, ref, range(S))
        tracemalloc.start()
        try:
            sweep.result(cfgs[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_row = 3 * 2 * 8 * (T + 1)  # the mean and SE of three metrics
        assert peak <= simulator._REFILL_BYTES + 3 * per_row + (1 << 20)

    def test_seeds_near_2_64_map_to_their_own_runs(self, setup_uneven):
        # The sweep's seed map is built from the Python ints: numpy would
        # hold seeds past 2^63 as uint64 or float, and float merges them.
        p, ref = setup_uneven
        [cfg] = sweep_cfgs(p, GradientMode.STOCHASTIC, T=40, Hs=(4,))
        top = [2**64 - 1, 2**64 - 2, 2**64 - 1]
        agg = simulator.Sweep(p, [cfg], ref, top, capture_xhat=True).result(cfg)
        assert agg.seeds == (2**64 - 2, 2**64 - 1, 2**64 - 1)
        for seed, xhat in zip(agg.seeds, agg.xhat):
            alone = run_alone(p, cfg, ref, seed, capture_xhat=True)
            assert np.array_equal(xhat, alone.xhat[0])
        assert not np.array_equal(agg.xhat[0], agg.xhat[1])


# Refusals of the library: each row is a call on the `setup` problem and
# reference, and the message of the ValueError it must raise.
_REFUSALS = [
    pytest.param(lambda p, ref: SyncSchedule.uniform(0, 8), "H and T must be >= 1",
                 id="uniform-H-0"),
    pytest.param(lambda p, ref: SyncSchedule.uniform(4, 0), "H and T must be >= 1",
                 id="uniform-T-0"),
    pytest.param(lambda p, ref: make_cfg(p, batch=0).validate(p), "batch must be >= 1",
                 id="batch-0"),
    pytest.param(lambda p, ref: make_cfg(p, record_every=0).validate(p),
                 "record_every must be >= 1", id="record-every-0"),
    pytest.param(lambda p, ref: simulator.Sweep(p, [], ref, [0]),
                 "a sweep needs at least one config", id="sweep-without-config"),
    pytest.param(lambda p, ref: simulator.Sweep(p, [make_cfg(p)], ref, []),
                 "a sweep needs at least one seed", id="sweep-without-seed"),
]


@pytest.mark.parametrize("call, message", _REFUSALS)
def test_refusal_names_its_cause(setup, call, message):
    p, ref = setup
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(p, ref)
