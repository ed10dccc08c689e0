import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from localsgd.dataio import Dataset, Regime, generate_synthetic, parse_libsvm, partition
from localsgd import objective
from localsgd.numkit import RngStream, draw_indices
from localsgd.objective import (
    ConvergenceError,
    build_problem,
    estimate_L,
    full_grad_global,
    loss,
    loss_many,
    measure_variances,
    node_gradients,
    solve_reference,
)
from localsgd.simulator import (
    GradientMode,
    RunConfig,
    SyncSchedule,
    _GradientEngine,
    run_local_sgd,
)


def small_problem(n=60, d=6, M=3, lam=0.1, regime=Regime.IDENTICAL, seed=1, **kw):
    ds = generate_synthetic(n, d, seed=seed, **kw)
    return build_problem(ds, partition(ds, M, regime), lam=lam)


def dataset_from_rows(rows, labels, name="manual"):
    mat = sp.csr_matrix(np.asarray(rows, dtype=np.float64))
    return Dataset(features=mat, labels=np.asarray(labels, dtype=np.float64),
                   name=name)


def loss_many_oracle(p, X):
    """The loss formula as whole-matrix expressions, one temporary per step:
    log(1 + exp(-t)) = log1p(exp(-|t|)) + max(-t, 0) with t = y a.x, the
    signed margins."""
    X2 = np.atleast_2d(X)
    t = p.margins(X2)
    per_sample = np.log1p(np.exp(-np.abs(t)))
    np.add(per_sample, np.maximum(-t, 0.0), out=per_sample)
    return p.weights @ per_sample + 0.5 * p.lam * np.einsum("kd,kd->k", X2, X2)


def node_grad_oracle(p, m, x):
    """The exact gradient of f_m from node m's own CSR rows, with scipy's
    expit: the formula, independent of the package's kernel and storage."""
    start, stop = p.node_range(m)
    A = p.dataset.features[start:stop]
    y = p.dataset.labels[start:stop]
    return A.T @ (-y * expit(-y * (A @ x))) / (stop - start) + p.lam * x


def sparse_problem(n, d=40, density=0.1, seed=8):
    gen = RngStream(seed=seed).generator()
    mat = sp.random(n, d, density=density, format="csr", random_state=gen,
                    data_rvs=gen.standard_normal)
    ds = Dataset(features=mat, labels=np.where(gen.random(n) < 0.5, -1.0, 1.0),
                 name="sparse")
    return build_problem(ds, partition(ds, 3, Regime.HETEROGENEOUS), lam=0.01)


# Point scales giving margins of 0, about +-1e-3, and about +-800, where
# exp(-|t|) underflows to 0.
_SCALES = np.array([0.0, 1e-3, -1e-3, 1.0, 800.0, -800.0])


class TestLoss:
    def test_zero_point_is_log_two(self):
        p = small_problem()
        assert loss(p, np.zeros(p.dim)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_single_sample_scalar(self):
        ds = dataset_from_rows([[1.0]], [1.0])
        p = build_problem(ds, partition(ds, 1, Regime.IDENTICAL), lam=0.0)
        expected = math.log1p(math.exp(-10.0))  # 4.5399e-05, direct evaluation
        assert loss(p, np.array([10.0])) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4.5399e-5, rel=1e-4)

    def test_regimes_agree_when_blocks_divide(self):
        ds = generate_synthetic(60, 6, seed=2)
        x = RngStream(seed=3).generator().standard_normal(6)
        p_id = build_problem(ds, partition(ds, 4, Regime.IDENTICAL), lam=0.05)
        p_het = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS), lam=0.05)
        assert loss(p_id, x) == pytest.approx(loss(p_het, x), rel=1e-12)

    def test_extreme_margins_do_not_overflow(self):
        ds = dataset_from_rows([[1.0]], [1.0])
        p = build_problem(ds, partition(ds, 1, Regime.IDENTICAL), lam=0.0)
        assert loss(p, np.array([-2000.0])) == pytest.approx(2000.0, rel=1e-12)
        assert loss(p, np.array([2000.0])) == 0.0

    def test_loss_many_matches_loss(self):
        p = small_problem()
        X = RngStream(seed=4).generator().standard_normal((5, p.dim))
        many = loss_many(p, X)
        each = [loss(p, X[i]) for i in range(5)]
        assert np.allclose(many, each, rtol=1e-15)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("k, n", [
        (1, 997), (2, 997), (65, 997),
        (objective._LOSS_CHUNK - 1, 13), (objective._LOSS_CHUNK + 1, 13),
    ])
    @pytest.mark.parametrize("chunk", [objective._LOSS_CHUNK, 64, 1000])
    def test_loss_many_is_bitwise_the_formula(self, monkeypatch, storage, k, n, chunk):
        # n is prime, so unless chunks are single rows the last one is short.
        monkeypatch.setattr(objective, "_LOSS_CHUNK", chunk)
        p = small_problem(n=n, d=6, M=1) if storage == "dense" else sparse_problem(n)
        assert (p.dense_rows is not None) == (storage == "dense")  # the product path
        gen = RngStream(seed=9).generator()
        X = gen.standard_normal((k, p.dim)) / math.sqrt(p.dim)
        X *= np.resize(_SCALES, k)[:, None]
        assert np.array_equal(loss_many(p, X), loss_many_oracle(p, X))

    def test_loss_many_works_in_one_margin_matrix(self):
        n, k = 2000, 3200
        p = small_problem(n=n, d=5, M=1)
        X = RngStream(seed=10).generator().standard_normal((k, p.dim))
        tracemalloc.start()
        try:
            loss_many(p, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * k * 8


class TestLogisticSlope:
    """objective._logistic_slope, num / (1 + exp(t)), against the oracle
    -y expit(-y t) at the signed margin y t with num = -y."""

    def test_agrees_with_expit(self):
        gen = RngStream(seed=41).generator()
        y = np.where(gen.random(10**5) < 0.5, -1.0, 1.0)
        t = y * gen.uniform(-800.0, 800.0, 10**5)  # z = y t spans [-800, 800]
        got = objective._logistic_slope(-y, y * t)
        want = -y * expit(-y * t)
        normal = np.abs(want) >= 1e-300
        assert normal.sum() > 0.9 * t.size
        assert np.all(np.abs(got - want)[normal] <= 1e-15 * np.abs(want[normal]))
        # Beyond z = 690 both are below 1e-300; exp overflows past z = 709.8
        # and gives the exact limit 0, where expit still returns subnormals.
        assert np.all(np.abs(got[~normal]) < 1e-300)
        assert np.all(got[want == 0.0] == 0.0)

    def test_writes_in_place_into_out(self):
        gen = RngStream(seed=42).generator()
        y = np.where(gen.random((50, 1)) < 0.5, -1.0, 1.0)
        t = gen.standard_normal((50, 8)) * 30
        num = -y / 50
        expected = objective._logistic_slope(num, t)
        buf = t.copy()
        assert objective._logistic_slope(num, buf, out=buf) is buf
        assert np.array_equal(buf, expected)

    def test_no_warning_at_extreme_margins(self):
        z = np.linspace(-1e4, 1e4, 4001)
        p = small_problem(n=30, d=4)
        x = RngStream(seed=43).generator().standard_normal(p.dim) * 1e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in (1.0, -1.0):
                c = objective._logistic_slope(-y, y * z)
                assert np.all(np.isfinite(c))
            assert np.all(np.isfinite(node_gradients(p, x)))
            assert np.all(np.isfinite(node_gradients(p, -x)))

    def test_cli_does_not_import_scipy_special(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = ("import sys, localsgd.cli, localsgd.verify; "
                "print('scipy.special' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestGradients:
    def test_symmetric_pair_has_zero_gradient(self):
        ds = dataset_from_rows([[1.0, 2.0], [1.0, 2.0]], [1.0, -1.0])
        p = build_problem(ds, partition(ds, 1, Regime.IDENTICAL), lam=0.0)
        g = full_grad_global(p, np.zeros(2))
        assert np.array_equal(g, np.zeros(2))

    def test_central_difference_oracle(self):
        p = small_problem(lam=0.07)
        gen = RngStream(seed=5).generator()
        eps = 1e-6
        for _ in range(20):
            x = gen.standard_normal(p.dim)
            u = gen.standard_normal(p.dim)
            u /= np.linalg.norm(u)
            analytic = float(full_grad_global(p, x) @ u)
            fd = (loss(p, x + eps * u) - loss(p, x - eps * u)) / (2 * eps)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_global_equals_node_mean(self):
        # f = (1/M) sum_m f_m weighs each node's mean equally, also over the
        # unequal blocks of n = 61 on M = 3 nodes.
        p = small_problem(M=3, regime=Regime.HETEROGENEOUS, n=61)
        x = RngStream(seed=6).generator().standard_normal(p.dim)
        mean = np.mean([node_grad_oracle(p, m, x) for m in range(3)], axis=0)
        for q in storages(p):
            assert np.allclose(full_grad_global(q, x), mean, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_node_gradients_match_oracle(self, regime):
        p = small_problem(n=61, d=5, M=3, regime=regime, sort_by_label=True)
        x = RngStream(seed=45).generator().standard_normal(p.dim)
        for q in storages(p):
            G = node_gradients(q, x)
            assert G.shape == (3, p.dim)
            for m in range(3):
                assert np.allclose(G[m], node_grad_oracle(q, m, x), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("fn", [loss_many, loss, node_gradients, full_grad_global])
    @pytest.mark.parametrize("width", [5, 7])
    def test_wrong_width_point_raises_value_error(self, storage, fn, width):
        p = small_problem(d=6) if storage == "dense" else sparse_problem(50, d=6)
        assert (p.dense_rows is not None) == (storage == "dense")  # the product path
        x = np.ones(width)
        with pytest.raises(ValueError):
            fn(p, x[None, :] if fn is loss_many else x)

    def test_smoothness_constant_is_valid(self):
        # ||grad f(x) - grad f(y)|| <= L ||x - y|| on 1000 random pairs
        p = small_problem(n=80, d=5, lam=0.02)
        gen = RngStream(seed=7).generator()
        for _ in range(1000):
            x = gen.standard_normal(p.dim) * 3
            y = gen.standard_normal(p.dim) * 3
            lhs = np.linalg.norm(full_grad_global(p, x) - full_grad_global(p, y))
            assert lhs <= p.L * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_strong_convexity_inequality(self):
        # f(y) >= f(x) + <grad f(x), y-x> + (mu/2)||y-x||^2 on 1000 pairs
        p = small_problem(n=80, d=5, lam=0.05)
        gen = RngStream(seed=8).generator()
        for _ in range(1000):
            x = gen.standard_normal(p.dim) * 2
            y = gen.standard_normal(p.dim) * 2
            rhs = (loss(p, x) + full_grad_global(p, x) @ (y - x)
                   + 0.5 * p.mu * np.sum((y - x) ** 2))
            assert loss(p, y) >= rhs - 1e-12


def storages(p):
    """p and its CSR twin, the same problem with every product through CSR."""
    return p, objective.csr_twin(p)


def engine_grads(engine, X, t, eq):
    """The engine's gradients at step t of one config's seed-major (S, M, d)
    iterates X, taken on its node-major (config, node, seed, d) stack and
    returned seed-major; eq[s] says that seed s's nodes coincide."""
    G = engine.gradients(X.transpose(1, 0, 2)[None].copy(), t, np.asarray(eq)[None])
    return G[0].transpose(1, 0, 2)


class TestNodeBlockKernel:
    """Problem.node_grads on heterogeneous nodes: node m's exact gradient
    over its own rows only."""

    @staticmethod
    def per_node(p, X):
        """The definition: one 2-D product pair over each node's signed rows,
        at its points X[m] of the node-major (M, k, d) stack X."""
        G = np.empty_like(X)
        for m in range(p.M):
            start, stop = p.node_range(m)
            B, X_m = p.dense_rows[start:stop], X[m]
            C = (-1.0 / (stop - start)) / (1.0 + np.exp(B @ X_m.T))
            G[m] = (B.T @ C).T + p.lam * X_m
        return G

    @pytest.mark.parametrize("n, runs", [(60, 1), (61, 2)])  # blocks 20^3; 21, 20, 20
    @pytest.mark.parametrize("width", [1, 5])
    def test_batched_products_equal_the_per_node_products_bitwise(self, n, runs, width):
        p = small_problem(n=n, d=5, M=3, regime=Regime.HETEROGENEOUS, sort_by_label=True)
        assert p.dense_rows is not None and len(p.part.block_runs) == runs
        X = RngStream(seed=47).generator().standard_normal((p.M, width, p.dim))
        G = p.node_grads(X)
        assert np.array_equal(G, self.per_node(p, X))
        out = np.full_like(X, np.nan)
        assert p.node_grads(X, out=out) is out and np.array_equal(out, G)
        assert np.allclose(objective.csr_twin(p).node_grads(X), G,
                           rtol=1e-12, atol=0)

    def test_exact_step_memory_does_not_grow_with_M(self):
        # At M = 20 an (n, S M) slope matrix alone would take 16 MB; a node
        # block kernel holds about one (n, S) margin matrix, 0.8 MB.
        n, d, M, S = 2000, 30, 20, 50
        p = small_problem(n=n, d=d, M=M, regime=Regime.HETEROGENEOUS, lam=1.0 / n)
        cfg = RunConfig(M=M, schedule=SyncSchedule.one_shot(1), gamma=0.0,
                        gradient_mode=GradientMode.FULL)
        engine = _GradientEngine(p, cfg, range(S))
        X = RngStream(seed=48).generator().standard_normal((1, M, S, d))
        eq = np.zeros((1, S), dtype=bool)
        tracemalloc.start()
        try:
            G = engine.gradients(X, 0, eq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(G[0], self.per_node(p, X[0]))
        assert peak < 4 * n * S * 8


def test_csr_gather_scatters_the_rows_toarray_gives():
    # Repeated and unordered indices and an empty row, gathered from CSR
    # rows about 30% stored, as the stochastic step gathers them.
    gen = RngStream(seed=49).generator()
    rows = gen.standard_normal((30, 8)) * (gen.random((30, 8)) < 0.3)
    rows[4] = 0.0
    ds = dataset_from_rows(rows, np.where(gen.random(30) < 0.5, -1.0, 1.0))
    p = build_problem(ds, partition(ds, 3, Regime.IDENTICAL), lam=0.1)
    assert p.dense_rows is None
    for idx in (np.array([[4, 4, 7], [29, 0, 4]]), gen.integers(0, 30, (5, 3, 2))):
        want = p.rows[idx.ravel()].toarray().reshape(*idx.shape, p.dim)
        assert p.gather(idx).tobytes() == want.tobytes()


def test_dataset_storages_build_the_same_problem_bitwise():
    # The shipped heterogeneous data as its dense array and as CSR. The CSR
    # dataset is fully stored, so it is densified too; every constant, the
    # signed rows and the reference optimum must agree bit for bit.
    ds = generate_synthetic(2000, 30, seed=51, sort_by_label=True, label_noise=0.02)
    as_csr = Dataset(features=sp.csr_matrix(ds.features), labels=ds.labels, name=ds.name)
    assert ds.is_dense and not as_csr.is_dense
    assert ds.features.flags.c_contiguous and ds.features.dtype == np.float64
    assert np.array_equal(ds.row_norms_sq(), as_csr.row_norms_sq())
    dense, csr = (build_problem(d, partition(d, 4, Regime.HETEROGENEOUS))
                  for d in (ds, as_csr))
    assert dense.dense_rows is not None and csr.dense_rows is not None
    assert np.array_equal(dense.row_norms_sq, csr.row_norms_sq)
    assert dense.L == csr.L and dense.L_component == csr.L_component
    assert np.array_equal(dense.rows, csr.rows)
    assert np.array_equal(solve_reference(dense, 1e-11).x_star,
                          solve_reference(csr, 1e-11).x_star)


@pytest.mark.parametrize("regime", list(Regime))
def test_signed_rows_give_the_unsigned_formulas_bitwise(regime):
    # Labels fold into the stored rows, b_i = y_i a_i. Negation is exact and
    # rounding sign-symmetric, so every kernel must equal its formula written
    # on the unsigned rows a_i with margins y (A @ X.T) and the numerator
    # -y / n_m, bit for bit: identical nodes as one product over all n rows,
    # heterogeneous node m as one product over its own rows. n = 61 over
    # M = 3 gives unequal blocks.
    p = small_problem(n=61, d=5, M=3, regime=regime, sort_by_label=True)
    y, lam, M, n = p.dataset.labels, p.lam, p.M, p.dataset.n
    assert set(y.tolist()) == {-1.0, 1.0}
    gen = RngStream(seed=46).generator()
    X = gen.standard_normal((M, p.dim))  # one point per node
    Xs = gen.standard_normal((2, M, p.dim))  # (seed, node) iterates
    cfg = RunConfig(M=M, schedule=SyncSchedule.one_shot(1), gamma=0.0,
                    gradient_mode=GradientMode.STOCHASTIC, batch=3)
    for q in storages(p):
        A = q.dataset.features

        def grads(rows, X):
            start, stop = rows
            A_m, y_m = A[start:stop], y[start:stop, None]
            U = y_m * (A_m @ X.T)
            return (A_m.T @ ((-y_m / (stop - start)) / (1.0 + np.exp(U)))).T + lam * X

        def losses(X):
            t = y[:, None] * (A @ X.T)
            per_sample = np.log1p(np.exp(-np.abs(t))) - np.minimum(t, 0.0)
            return q.weights @ per_sample + 0.5 * lam * np.einsum("kd,kd->k", X, X)

        if regime == Regime.IDENTICAL:
            want, want_at_x0 = grads((0, n), X), grads((0, n), X[:1])
        else:
            want = np.concatenate([grads(q.node_range(m), X[m:m + 1]) for m in range(M)])
            want_at_x0 = np.concatenate([grads(q.node_range(m), X[:1]) for m in range(M)])
        assert np.array_equal(q.node_grads(X[:, None])[:, 0], want)
        assert np.array_equal(node_gradients(q, X[0]),
                              np.broadcast_to(want_at_x0, (M, p.dim)))
        assert np.array_equal(loss_many(q, X), losses(X))

        engine = _GradientEngine(q, cfg, [0, 1])
        G = engine_grads(engine, Xs, 0, np.zeros(len(Xs), dtype=bool))
        idx = engine._draws(0).transpose(1, 0, 2)  # (seed, node, batch)
        rows = (A[idx] if q.dense_rows is not None
                else A[idx.ravel()].toarray().reshape(*idx.shape, p.dim))
        y_sel = y[idx]
        tv = np.einsum("smbd,smd->smb", rows, Xs)
        c = (y_sel / -cfg.batch) / (1.0 + np.exp(y_sel * tv))
        assert np.array_equal(G, np.einsum("smb,smbd->smd", c, rows) + lam * Xs)


def node_grads(p, x, seeds=(0,), T=1, batch=1, mode=GradientMode.STOCHASTIC):
    """The engine's gradients of every (seed, node) at the common point x,
    one (S, M, d) array per step t < T."""
    cfg = RunConfig(M=p.M, schedule=SyncSchedule.one_shot(T), gamma=0.0,
                    gradient_mode=mode, batch=batch)
    engine = _GradientEngine(p, cfg, seeds)
    X = np.tile(x, (len(seeds), p.M, 1))
    return [engine_grads(engine, X, t, np.ones(len(seeds), dtype=bool)) for t in range(T)]


class TestStochasticGrad:
    """The engine's per-node gradients, on dense rows and on CSR storage."""

    def test_full_mode_equals_full_grad(self):
        p = small_problem(M=3, regime=Regime.HETEROGENEOUS)
        x = RngStream(seed=9).generator().standard_normal(p.dim)
        for q in storages(p):
            [G] = node_grads(q, x, seeds=(0, 1), mode=GradientMode.FULL)
            for m in range(3):
                assert np.allclose(G[:, m], node_grad_oracle(q, m, x), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("mode", [GradientMode.FULL, GradientMode.INJECTED_NOISE])
    @pytest.mark.parametrize("common", [False, True])
    def test_exact_modes_equal_full_grad_per_node(self, regime, mode, common):
        # n = 61 over M = 3 gives unequal heterogeneous blocks; distinct node
        # iterates take the general path, a common point the identical
        # shortcut.
        p = small_problem(n=61, d=5, M=3, regime=regime, sort_by_label=True)
        seeds = (0, 1, 2, 3)
        gen = RngStream(seed=44).generator()
        X = gen.standard_normal((len(seeds), p.M, p.dim))
        if common:
            X[:] = X[0, 0]
        cfg = RunConfig(M=p.M, schedule=SyncSchedule.one_shot(1), gamma=0.0,
                        gradient_mode=mode, noise_sigma=0.3)
        for q in storages(p):
            engine = _GradientEngine(q, cfg, seeds)
            G = engine_grads(engine, X, 0, np.full(len(seeds), common))
            noise = (engine._draws(0).transpose(1, 0, 2) if mode == GradientMode.INJECTED_NOISE
                     else np.zeros_like(X))
            for s in range(len(seeds)):
                for m in range(p.M):
                    want = node_grad_oracle(q, m, X[s, m]) + noise[s, m]
                    assert np.allclose(G[s, m], want, rtol=1e-12, atol=0)

    def test_single_sample_node_is_deterministic(self):
        ds = generate_synthetic(3, 4, seed=10)
        p = build_problem(ds, partition(ds, 3, Regime.HETEROGENEOUS), lam=0.1)
        x = np.ones(4)
        for q in storages(p):
            [G] = node_grads(q, x, seeds=tuple(range(5)))
            for g in G[1:, 2]:
                assert np.array_equal(g, G[0, 2])
            assert np.allclose(G[0, 2], node_grad_oracle(q, 2, x), rtol=1e-14, atol=0)

    def test_unbiasedness_monte_carlo(self):
        # Mean over draws within 3 standard errors of the full gradient.
        p = small_problem(n=50, d=4, M=2, lam=0.05, regime=Regime.HETEROGENEOUS)
        x = RngStream(seed=11).generator().standard_normal(p.dim) * 0.5
        for q in storages(p):
            steps = node_grads(q, x, seeds=tuple(range(12, 112)), T=200)
            draws = np.concatenate([G[:, 0] for G in steps])  # 20000 draws
            se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
            diff = np.abs(draws.mean(axis=0) - node_grad_oracle(q, 0, x))
            assert np.all(diff <= 3 * se + 1e-12)

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("batch", [1, 7])
    def test_storages_give_bitwise_equal_gradients(self, regime, batch):
        p = small_problem(n=90, d=7, M=3, regime=regime)
        x = RngStream(seed=20).generator().standard_normal(p.dim)
        dense, csr = (node_grads(q, x, seeds=(0, 1, 2), T=3, batch=batch)
                      for q in storages(p))
        assert all(np.array_equal(a, b) for a, b in zip(dense, csr))

    def test_storages_give_bitwise_equal_iterates(self):
        p = small_problem(n=90, d=7, M=3, regime=Regime.HETEROGENEOUS)
        ref = solve_reference(p, 1e-10)
        cfg = RunConfig(M=3, schedule=SyncSchedule.uniform(4, 40), gamma=0.5,
                        gradient_mode=GradientMode.STOCHASTIC, batch=3, record_every=1)
        dense, csr = (run_local_sgd(q, cfg, ref, seed=5, capture_xhat=True).xhat
                      for q in storages(p))
        assert np.array_equal(dense, csr)

    def test_seed_alone_equals_seed_in_a_batch_on_csr(self):
        p = storages(small_problem(n=90, d=7, M=3, regime=Regime.HETEROGENEOUS))[1]
        x = RngStream(seed=21).generator().standard_normal(p.dim)
        for batch in (1, 3):
            alone = node_grads(p, x, seeds=(4,), T=3, batch=batch)
            inside = node_grads(p, x, seeds=(0, 4, 9, 11), T=3, batch=batch)
            assert all(np.array_equal(a[0], b[1]) for a, b in zip(alone, inside))

    def test_batch_reduces_to_mean_of_components(self):
        p = small_problem(n=20, d=4, M=1, lam=0.03)
        x = np.ones(4) * 0.2
        # reproduce the draw with the same stream and average manually
        idx = draw_indices(RngStream(seed=13, stream_id=0), 20, (1, 7))[0]
        rows = p.dataset.features[idx]
        ys = p.dataset.labels[idx]
        manual = np.zeros(4)
        for a, y in zip(rows, ys):
            t = float(a @ x)
            manual += -y * expit(-y * t) * a
        manual = manual / 7 + p.lam * x
        for q in storages(p):
            [G] = node_grads(q, x, seeds=(13,), batch=7)
            assert np.allclose(G[0, 0], manual, rtol=1e-12)


def one_node(ds):
    return partition(ds, 1, Regime.IDENTICAL)


class TestEstimateL:
    def test_single_row_exact(self):
        ds = dataset_from_rows([[2.0, 0.0]], [1.0])
        assert estimate_L(ds, one_node(ds), 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_lambda_shifts_additively(self):
        ds = generate_synthetic(40, 6, seed=14)
        base = estimate_L(ds, one_node(ds), 0.0)
        assert estimate_L(ds, one_node(ds), 0.37) == pytest.approx(base + 0.37, rel=1e-12)

    def test_duplication_invariance(self):
        ds = generate_synthetic(30, 5, seed=15)
        doubled = Dataset(np.vstack([ds.features, ds.features]),
                          np.concatenate([ds.labels, ds.labels]))
        assert estimate_L(doubled, one_node(doubled), 0.01) == pytest.approx(
            estimate_L(ds, one_node(ds), 0.01), rel=1e-8)

    def test_against_dense_eigensolver(self):
        ds = generate_synthetic(50, 7, seed=16)
        A = ds.features
        oracle = float(np.linalg.eigvalsh(A.T @ A / (4 * ds.n)).max())
        assert estimate_L(ds, one_node(ds), 0.0) == pytest.approx(oracle, rel=1e-8)

    def test_exact_on_shipped_heterogeneous_data(self):
        # Oracle: the largest singular value of the dense A, squared.
        ds = generate_synthetic(2000, 30, seed=51, sort_by_label=True,
                                label_noise=0.02)
        sigma_max = np.linalg.svd(ds.features, compute_uv=False)[0]
        assert estimate_L(ds, one_node(ds), 0.0) == pytest.approx(
            sigma_max**2 / (4 * ds.n), rel=1e-12)

    def test_weighs_samples_as_f_does(self):
        # Unequal heterogeneous blocks (4 and 3 rows) weigh samples by
        # 1/(M n_m), not 1/n; L must still dominate the Hessian of f, whose
        # logistic part is at most sum_i w_i a_i a_i^T / 4.
        ds = generate_synthetic(7, 5, seed=31, sort_by_label=True)
        p = build_problem(ds, partition(ds, 2, Regime.HETEROGENEOUS), lam=0.0)
        assert [b - a for a, b in p.part.node_ranges] == [4, 3]
        w = np.repeat([1 / (2 * 4), 1 / (2 * 3)], [4, 3])
        A = ds.features
        oracle = float(np.linalg.eigvalsh(A.T @ (w[:, None] * A) / 4)[-1])
        assert p.L >= oracle * (1 - 1e-12)

    def test_csr_gram_blocks_equal_scipy_blocks(self):
        # The Gram's CSR blocks are scattered from indptr, indices and data;
        # they must sum to the bits of scipy's sliced toarray() blocks of the
        # unsigned rows, over empty rows and a last block shorter than the
        # others. The signed rows the Newton solve passes must give the same
        # bits on each storage: CSR, dense, and a mostly-dense CSR dataset,
        # which build_problem densifies.
        sparse = sparse_problem(601, d=40, density=0.05)
        assert np.any(np.diff(sparse.dataset.features.indptr) == 0)
        mostly_dense = sparse_problem(601, d=40, density=0.7)
        ds = replace(mostly_dense.dataset, features=mostly_dense.dataset.features.toarray())
        dense = build_problem(ds, mostly_dense.part, lam=mostly_dense.lam)
        rows = objective._GRAM_ROWS
        for p, stored in ((sparse, "csr"), (mostly_dense, "dense"), (dense, "dense")):
            A, w = sp.csr_matrix(p.dataset.features), p.weights
            assert A.shape[0] % rows and (p.dense_rows is None) == (stored == "csr")
            want = np.zeros((40, 40))
            for start in range(0, A.shape[0], rows):
                B = A[start:start + rows].toarray()
                want += B.T @ (w[start:start + rows, None] * B)
            assert np.array_equal(objective._weighted_gram(p.dataset.features, w), want)
            assert np.array_equal(objective._weighted_gram(p.rows, w), want)

    def test_component_constant_dominates(self):
        p = small_problem(n=50, d=5)
        assert p.L_component >= p.L


class TestSolveReference:
    def test_pure_quadratic(self):
        # All-zero feature rows make f(x) = log 2 + (lam/2)||x||^2: the
        # reference solver must land on the quadratic's minimizer 0.
        ds = dataset_from_rows(np.zeros((4, 3)), [1.0, -1.0, 1.0, -1.0])
        p = build_problem(ds, partition(ds, 2, Regime.IDENTICAL), lam=1.0)
        ref = solve_reference(p, 1e-12, x0=np.array([3.0, -2.0, 1.0]))
        assert np.linalg.norm(ref.x_star) <= 1e-12
        assert ref.f_star == pytest.approx(math.log(2.0), rel=1e-12)

    def test_postcondition_and_tolerance(self):
        p = small_problem()
        ref = solve_reference(p, 1e-10)
        assert ref.grad_norm <= 1e-10

    def test_pl_inequality_on_refinement(self):
        # f(x) - f* <= ||grad f(x)||^2 / (2 mu): tightening tol by 10x moves
        # f* by at most tol^2 / (2 mu).
        p = small_problem(lam=0.05)
        tol = 1e-6
        a = solve_reference(p, tol)
        b = solve_reference(p, tol / 10)
        assert abs(a.f_star - b.f_star) <= tol**2 / (2 * p.mu)

    def test_agrees_with_gradient_descent(self):
        # Oracle: plain gradient descent at stepsize 1/L to the same tol.
        p = small_problem(lam=0.02)
        x = np.zeros(p.dim)
        g = full_grad_global(p, x)
        while np.linalg.norm(g) > 1e-11:
            x = x - g / p.L
            g = full_grad_global(p, x)
        ref = solve_reference(p, 1e-11)
        assert np.allclose(ref.x_star, x, atol=1e-8)

    def test_few_newton_steps_on_shipped_problem(self):
        # The problem of configs/synthetic-heterogeneous.ini.
        ds = generate_synthetic(2000, 30, seed=51, sort_by_label=True,
                                label_noise=0.02)
        p = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS))
        ref = solve_reference(p, 1e-11)
        assert ref.iterations <= 10 and ref.grad_norm <= 1e-11

    def test_lambda_zero_with_singular_hessian(self):
        # A duplicated column makes A^T D A singular; without lam the
        # Newton system has no unique solution, and the step must still
        # be defined.
        ds = generate_synthetic(80, 4, seed=21, label_noise=0.3)
        A = ds.features
        dup = dataset_from_rows(np.hstack([A, A[:, :1]]), ds.labels)
        p = build_problem(dup, partition(dup, 2, Regime.IDENTICAL), lam=0.0)
        assert np.linalg.matrix_rank(A.T @ A) == 4
        ref = solve_reference(p, 1e-10)
        assert ref.grad_norm <= 1e-10
        assert ref.x_star[0] == pytest.approx(ref.x_star[4], rel=1e-9)

    def test_tol_below_rounding_floor_stalls(self):
        p = small_problem()
        with pytest.raises(ConvergenceError, match="stalled"):
            solve_reference(p, 1e-30)

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(objective, "_MAX_NEWTON_STEPS", 10)
        p = small_problem(lam=1e-6, n=100)
        with pytest.raises(ConvergenceError, match="cap"):
            solve_reference(p, 1e-14)


class TestMeasureVariances:
    def test_one_data_pass_per_point(self, monkeypatch):
        # The probe points are x*, 0 and x*/2; each node's statistics are
        # slices of one pass over the data at each point.
        ds = generate_synthetic(200, 5, seed=18, sort_by_label=True)
        p = build_problem(ds, partition(ds, 20, Regime.HETEROGENEOUS), lam=0.05)
        ref = solve_reference(p, 1e-10)
        calls = []
        inner = objective._per_sample_grad_sq
        monkeypatch.setattr(objective, "_per_sample_grad_sq",
                            lambda p, x: calls.append(x) or inner(p, x))
        vr = measure_variances(p, ref, batch=2)
        assert len(calls) <= 3
        assert len(vr.per_node_sigma_sq) == 20

    def test_m1_identity_exact(self):
        ds = generate_synthetic(40, 5, seed=17, sort_by_label=True)
        p = build_problem(ds, partition(ds, 1, Regime.HETEROGENEOUS), lam=0.05)
        ref = solve_reference(p, 1e-12)
        vr = measure_variances(p, ref, batch=3)
        assert vr.sigma_dif_sq == vr.sigma_opt_sq

    def test_exhaustive_heterogeneous_equals_node_grad_norms(self):
        p = small_problem(M=4, n=80, regime=Regime.HETEROGENEOUS,
                          sort_by_label=True)
        ref = solve_reference(p, 1e-12)
        vr = measure_variances(p, ref, batch=1, exhaustive=True)
        oracle = np.mean([np.sum(node_grad_oracle(p, m, ref.x_star) ** 2)
                          for m in range(4)])
        assert vr.sigma_dif_sq == pytest.approx(oracle, abs=1e-15)

    def test_interpolation_gives_zero(self):
        # Zero feature rows: every per-sample gradient vanishes at x* = 0.
        ds = dataset_from_rows(np.zeros((8, 3)), [1.0, -1.0] * 4)
        p = build_problem(ds, partition(ds, 2, Regime.HETEROGENEOUS), lam=0.0)
        ref = solve_reference(p, 1e-12)
        vr = measure_variances(p, ref, batch=1)
        assert vr.sigma_dif_sq == 0.0
        assert vr.sigma_opt_sq == 0.0

    def test_batch_scaling(self):
        p = small_problem()
        ref = solve_reference(p, 1e-12)
        v1 = measure_variances(p, ref, batch=1)
        v4 = measure_variances(p, ref, batch=4)
        assert v4.sigma_opt_sq == pytest.approx(v1.sigma_opt_sq / 4, rel=1e-9)
        assert v4.sigma_opt_sq < v1.sigma_opt_sq

    def test_sigma_ordering_identical_vs_heterogeneous(self):
        ds = generate_synthetic(120, 6, seed=18, sort_by_label=True)
        p_het = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS), lam=0.02)
        ref = solve_reference(p_het, 1e-12)
        for batch, exhaustive in ((1, False), (8, False), (1, True)):
            vr = measure_variances(p_het, ref, batch=batch, exhaustive=exhaustive)
            assert vr.sigma_dif_sq >= vr.sigma_opt_sq * (1 - 1e-12)

    def test_dif_lower_bound(self):
        p = small_problem(M=4, n=80, regime=Regime.HETEROGENEOUS,
                          sort_by_label=True)
        ref = solve_reference(p, 1e-12)
        vr = measure_variances(p, ref, batch=2)
        lb = np.mean([np.sum(node_grad_oracle(p, m, ref.x_star) ** 2) for m in range(4)])
        assert vr.sigma_dif_sq >= lb * (1 - 1e-12)

    def test_expected_grad_sq_brute_force_pairs(self):
        # At x* the batch-2 sigma quantities are the second moment of a
        # two-sample gradient, enumerated over all ordered sample pairs: of
        # the whole dataset for sigma_opt, of each node's block for sigma_m.
        ds = generate_synthetic(6, 3, seed=19)
        p = build_problem(ds, partition(ds, 2, Regime.HETEROGENEOUS), lam=0.04)
        ref = solve_reference(p, 1e-12)
        x = ref.x_star
        comps = [-y * expit(-y * float(a @ x)) * a + p.lam * x
                 for a, y in zip(ds.features, ds.labels)]

        def pair_moment(start, stop):
            block = range(start, stop)
            return np.mean([np.sum(((comps[i] + comps[j]) / 2) ** 2)
                            for i in block for j in block])

        vr = measure_variances(p, ref, batch=2)
        assert vr.sigma_opt_sq == pytest.approx(pair_moment(0, 6), rel=1e-12)
        for m in range(2):
            assert vr.per_node_sigma_sq[m] == pytest.approx(
                pair_moment(*p.node_range(m)), rel=1e-12)

    def test_serialization(self):
        import io
        p = small_problem()
        ref = solve_reference(p, 1e-10)
        vr = measure_variances(p, ref, batch=1)
        text = vr.to_kv_text()
        assert "sigma_opt_sq" in text and "estimate" in text
        buf = io.StringIO()
        vr.to_csv(buf)
        assert buf.getvalue().count("\n") == 1 + p.M


class TestLibsvmIntegration:
    def test_parse_then_solve(self):
        text = "".join(
            f"{'+1' if i % 2 else '-1'} 1:{0.1 * i!r} 3:{1.0 + i!r}\n"
            for i in range(1, 21)
        )
        ds = parse_libsvm(text, name="toy")
        p = build_problem(ds, partition(ds, 2, Regime.HETEROGENEOUS))
        ref = solve_reference(p, 1e-9)
        assert ref.grad_norm <= 1e-9
