"""The l2-regularized logistic regression problem and its measured constants.

Covers losses, exact per-node gradients, the smoothness and strong-convexity
constants, the deterministic reference optimum, and the variance quantities
evaluated exactly at that optimum.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .dataio import Dataset, Partition, Regime

if TYPE_CHECKING:
    import scipy.sparse as sp


class ConvergenceError(RuntimeError):
    """The reference solve stopped short of its tolerance: it hit its step
    cap, or no step reduced the gradient any further."""


@dataclass(frozen=True)
class Problem:
    """f(x) = (1/M) sum_m f_m(x), each f_m an average of logistic losses plus
    (lam/2)||x||^2 over its node's samples.

    L is the global smoothness constant lambda_max(A^T diag(w) A)/4 + lam,
    w the per-sample weights of f; the logistic part contributes at least
    zero curvature so mu equals lam exactly. L_component is the almost-sure
    smoothness bound over single-sample draws, max_i ||a_i||^2 / 4 + lam;
    the finite-sum bounds hold for that constant, not for the (smaller)
    global L.

    The rows are label-signed, b_i = y_i a_i, as the dataset holds them, so
    every product with them (margins, rows_T_dot, gather) works on
    B = diag(y) A and no gradient or loss takes a pass over the labels.
    Negation is exact and rounding is sign-symmetric, so each product is
    the unsigned one times y_i bit for bit.

    B is held once: `rows` is the dataset's own matrix, except that a CSR
    dataset that is mostly dense anyway is densified into a C-contiguous
    (n, d) array.
    """

    dataset: Dataset
    part: Partition
    lam: float
    L: float
    L_component: float
    row_norms_sq: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # per-sample weight in f; sums to 1
    # B, dense or CSR: dataset.features unless densified.
    rows: np.ndarray | sp.csr_matrix = field(repr=False)

    @property
    def dense_rows(self) -> np.ndarray | None:
        """`rows` when dense, else None. The benchmark's probe
        (bench/tracing.py) reads it to count the work of a product."""
        return self.rows if isinstance(self.rows, np.ndarray) else None

    def margins(self, X: np.ndarray) -> np.ndarray:
        """B @ X.T for a stack of points, entry (i, j) = y_i a_i.x_j, shape
        (k, d) -> (n, k)."""
        return self.rows @ X.T

    def rows_T_dot(self, C: np.ndarray) -> np.ndarray:
        """B.T @ C = sum_i y_i a_i C[i], shape (n, k) -> (d, k)."""
        return self.rows.T @ C

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """The signed rows at an index array as one dense block, shape
        (*idx.shape, d)."""
        if self.dense_rows is not None:
            return self.rows[idx]
        rows = _csr_dense(self.rows, idx.ravel(), np.empty(idx.size * self.dim))
        return rows.reshape(*idx.shape, self.dim)

    def node_grads(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The exact gradient of f_m at every point X[m, j], node-major,
        shape (M, k, d) -> (M, k, d), written into `out` (C-contiguous) when
        given.

        Identical nodes share f: one product over all n rows takes every
        point as a column, in node order. Heterogeneous node m averages its
        own n_m rows only, at its points X[m], with the slope numerator
        -1/n_m, so the work and temporaries are those of its block. Dense
        rows take one batched product per run of adjacent equal-size
        blocks, on a (g, n_g, d) view of `rows`; numpy multiplies each block
        as its own 2-D product, so every node gets the bits of B_m @ X_m.T
        and B_m.T @ C_m. CSR rows take each node's rows as a CSR matrix over
        views of `rows`, with no copy."""
        if out is None:
            out = np.empty_like(X)
        if self.part.regime == Regime.IDENTICAL:
            _exact_grads(self, X.reshape(-1, self.dim), -1.0 / self.dataset.n,
                         out=out.reshape(-1, self.dim))  # a view: out is C-contiguous
        elif self.dense_rows is not None:
            for m, start, g, size in self.part.block_runs:
                B = self.rows[start:start + g * size].reshape(g, size, self.dim)
                U = B @ X[m:m + g].transpose(0, 2, 1)  # (g, size, k) margins
                C = _logistic_slope(-1.0 / size, U, out=U)
                np.add((B.transpose(0, 2, 1) @ C).transpose(0, 2, 1),
                       self.lam * X[m:m + g], out=out[m:m + g])
        else:
            import scipy.sparse as sp

            A = self.rows
            for m, (start, stop) in enumerate(self.part.node_ranges):
                lo, hi = A.indptr[start], A.indptr[stop]  # node m's rows, as views
                B = sp.csr_matrix((A.data[lo:hi], A.indices[lo:hi], A.indptr[start:stop + 1] - lo),
                                  shape=(stop - start, self.dim), copy=False)
                C = _logistic_slope(-1.0 / (stop - start), B @ X[m].T)
                np.add((B.T @ C).T, self.lam * X[m], out=out[m])
        return out

    @property
    def mu(self) -> float:
        return self.lam

    @property
    def M(self) -> int:
        return self.part.M

    @property
    def dim(self) -> int:
        return self.dataset.dim

    def node_range(self, node: int) -> tuple[int, int]:
        return self.part.node_ranges[node]


def sample_weights(dataset: Dataset, part: Partition) -> np.ndarray:
    """Weight of each sample inside f = (1/M) sum_m f_m.

    Identical regime: every node averages the full dataset, so each sample
    weighs 1/n. Heterogeneous: sample i in node m weighs 1/(M * n_m), which
    differs from 1/n only when block sizes are unequal.
    """
    n = dataset.n
    if part.regime == Regime.IDENTICAL:
        return np.full(n, 1.0 / n)
    w = np.zeros(n)
    M = part.M
    for start, stop in part.node_ranges:
        w[start:stop] = 1.0 / (M * (stop - start))
    return w


# Rows per block of a Gram matrix: the dense blocks stay small, where one
# sparse product over all rows would leave multi-MB temporaries behind.
_GRAM_ROWS = 256


def _csr_dense(A: sp.csr_matrix, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The CSR rows A[rows] as a dense (len(rows), d) block, scattered into
    the flat buffer `out` straight from indptr, indices and data. The
    entries of a row are distinct, so this is the block scipy's
    A[rows].toarray() gives, bit for bit."""
    d = A.shape[1]
    block = out[:rows.size * d]
    block[:] = 0.0
    lo = A.indptr[rows]
    counts = A.indptr[rows + 1] - lo
    # Each stored entry read: its position in data, and its place in block.
    src = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    src += np.arange(src.size)
    flat = np.repeat(np.arange(0, rows.size * d, d), counts)
    flat += A.indices[src]
    block[flat] = A.data[src]
    return block.reshape(rows.size, d)


def _weighted_gram(A: np.ndarray | sp.csr_matrix, w: np.ndarray) -> np.ndarray:
    """A^T diag(w) A for a dense or CSR (n, d) matrix A, as a dense (d, d)
    array summed over dense blocks of its rows (`_csr_dense` for CSR).
    Signed rows y_i a_i give the unsigned result bit for bit: negation is
    exact, so each term is (y b)(y w b) = b (w b) for y = +-1."""
    n, d = A.shape
    G = np.zeros((d, d))
    scratch = None if isinstance(A, np.ndarray) else np.empty(_GRAM_ROWS * d)
    for start in range(0, n, _GRAM_ROWS):
        stop = min(start + _GRAM_ROWS, n)
        B = A[start:stop] if scratch is None else _csr_dense(A, np.arange(start, stop), scratch)
        G += B.T @ (w[start:stop, None] * B)
    return G


def estimate_L(dataset: Dataset, part: Partition, lam: float) -> float:
    """L = lambda_max(A^T diag(w) A)/4 + lam, the largest eigenvalue of the
    d x d Gram matrix, w = sample_weights(dataset, part).

    f weighs sample i by w_i, and the logistic curvature of a sample is at
    most 1/4, so A^T diag(w) A / 4 dominates the Hessian of f at every
    point and the result is a global smoothness constant for f. The Gram
    of the signed rows the dataset holds is that of A bit for bit.
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    gram = _weighted_gram(dataset.features, sample_weights(dataset, part) / 4.0)
    return float(np.linalg.eigvalsh(gram)[-1]) + lam


def build_problem(dataset: Dataset, part: Partition, lam: float | None = None) -> Problem:
    """Assemble a Problem; lam defaults to 1/n as in the experimental setup.

    `rows` is the dataset's signed matrix itself (a dense one made
    C-contiguous if it is not). A CSR dataset is densified only when at
    least half its entries are stored, where dense products cost no more."""
    if lam is None:
        lam = 1.0 / dataset.n
    if lam < 0:
        raise ValueError("lam must be >= 0")
    rn = dataset.row_norms_sq()
    B = dataset.features
    if dataset.is_dense:
        rows = np.ascontiguousarray(B)
    elif B.nnz >= 0.5 * B.shape[0] * B.shape[1]:
        rows = B.toarray()
    else:
        rows = B
    return Problem(
        dataset=dataset,
        part=part,
        lam=lam,
        L=estimate_L(dataset, part, lam),
        L_component=float(rn.max()) / 4.0 + lam,
        row_norms_sq=rn,
        weights=sample_weights(dataset, part),
        rows=rows,
    )


def csr_twin(p: Problem) -> Problem:
    """p with its dataset and rows held as CSR and every product taken
    through CSR: the sparse code path on the same problem, for checking it
    against the dense one."""
    import scipy.sparse as sp

    B = sp.csr_matrix(p.dataset.features)
    return replace(p, dataset=replace(p.dataset, features=B), rows=B)


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------

def _logistic_slope(num, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """num / (1 + exp(t)), elementwise, written into `out` when given.

    At a signed margin t = y a.x and with num = -1 this is
    d/dt log(1 + exp(-t)) = -sigmoid(-t), the coefficient of the signed row
    y a in every gradient; a gradient's sample weights fold into num, so the
    divide yields the weighted coefficient. Where exp(t) overflows to inf
    the quotient is the exact limit 0, so the overflow is silenced rather
    than clamped.
    """
    with np.errstate(over="ignore"):
        z = np.exp(t, out=out)
    z += 1.0
    return np.divide(num, z, out=z)


# Elements per pass of the pointwise loss chain: a chunk and its scratch stay
# in cache, where whole-matrix temporaries would each stream through memory.
_LOSS_CHUNK = 1 << 15


def loss_many(p: Problem, X: np.ndarray) -> np.ndarray:
    """f evaluated at each row of X, shape (k, d) -> (k,).

    The per-sample loss log(1 + exp(-t)) at the signed margin t = y a.x is
    evaluated in place in the one (n, k) margin matrix as
    log1p(exp(-|t|)) - min(t, 0), which never overflows. The pointwise
    passes run on contiguous row chunks; the two matrix products are never
    split, so every value is independent of the chunk size.
    """
    X2 = np.atleast_2d(X)
    U = p.margins(X2)  # (n, k) signed margins y_i a_i . x
    rows = max(1, _LOSS_CHUNK // U.shape[1])
    scratch = np.empty((min(rows, U.shape[0]), U.shape[1]))
    for start in range(0, U.shape[0], rows):
        t = U[start:start + rows]
        e = scratch[:t.shape[0]]
        np.abs(t, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.log1p(e, out=e)
        np.minimum(t, 0.0, out=t)
        np.subtract(e, t, out=t)
    return p.weights @ U + 0.5 * p.lam * np.einsum("kd,kd->k", X2, X2)


def loss(p: Problem, x: np.ndarray) -> float:
    """f(x), with the logistic term evaluated on the overflow-free branch."""
    return float(loss_many(p, x[None, :])[0])


def _exact_grads(p: Problem, X: np.ndarray, num,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The exact gradient over all n rows, shape (k, d) -> (k, d), written
    into `out` when given: row j is sum_i c_ij y_i a_i + lam x_j, c_ij the
    logistic slope at the signed margin y_i a_i.x_j with numerator num, a
    scalar or an (n, 1) column of per-sample weights, computed in the
    margins."""
    U = p.margins(X)  # (n, k)
    C = _logistic_slope(num, U, out=U)
    return np.add(p.rows_T_dot(C).T, p.lam * X, out=out)


def node_gradients(p: Problem, x: np.ndarray) -> np.ndarray:
    """The exact gradient of every f_m at x, shape (d,) -> (M, d). Identical
    nodes share f, so one gradient stands for all of them."""
    k = 1 if p.part.regime == Regime.IDENTICAL else p.M
    return np.broadcast_to(p.node_grads(np.tile(x, (k, 1, 1)))[:, 0], (p.M, p.dim))


def full_grad_global(p: Problem, x: np.ndarray) -> np.ndarray:
    """Gradient of f: one kernel call with f's sample weights folded in."""
    return _exact_grads(p, x[None, :], (-p.weights)[:, None])[0]


# ---------------------------------------------------------------------------
# Reference optimum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    tolerance: float
    iterations: int

    def __post_init__(self):
        if self.grad_norm > self.tolerance:
            raise ValueError("reference solution does not meet its tolerance")

    def to_kv_text(self) -> str:
        lines = [
            f"f_star = {self.f_star!r}",
            f"grad_norm = {self.grad_norm!r}",
            f"tolerance = {self.tolerance!r}",
            f"iterations = {self.iterations}",
            "method = newton",
            "x_star = " + ",".join(repr(float(v)) for v in self.x_star),
        ]
        return "\n".join(lines) + "\n"


# Step halvings before the line search gives up: below 2^-50 of a Newton
# step, x moves only in its last bits.
_MAX_HALVINGS = 50
_MAX_NEWTON_STEPS = 500


def solve_reference(p: Problem, tol: float, *,
                    x0: np.ndarray | None = None) -> ReferenceSolution:
    """Damped Newton's method until ||grad f|| <= tol.

    Each step solves (A^T D A + lam I) s = -grad f by least squares, D the
    logistic curvature weights, so it stays defined where lam = 0 leaves
    the Hessian singular. The step is halved until it reduces ||grad f||
    by a sufficient fraction; a step that cannot be made to reduce it means
    tol is below the rounding floor of the gradient.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.zeros(p.dim) if x0 is None else np.array(x0, dtype=np.float64)
    g = full_grad_global(p, x)
    gn = float(np.linalg.norm(g))
    steps = 0
    while gn > tol:
        if steps == _MAX_NEWTON_STEPS:
            raise ConvergenceError(
                f"reference solve hit the {_MAX_NEWTON_STEPS}-step cap at ||grad|| = "
                f"{gn:.3e} (target {tol:.3e})")
        # sigmoid(-a.x), with a.x = y (y a.x) exactly; s(1 - s) is even
        # in a.x only up to rounding, so the unsigned margin is recovered.
        s = _logistic_slope(1.0, p.dataset.labels * p.margins(x[None, :])[:, 0])
        hessian = _weighted_gram(p.rows, p.weights * s * (1.0 - s)) + p.lam * np.eye(p.dim)
        step = np.linalg.lstsq(hessian, -g, rcond=None)[0]
        for halving in range(_MAX_HALVINGS):
            t = 0.5 ** halving
            x_new = x + t * step
            g_new = full_grad_global(p, x_new)
            gn_new = float(np.linalg.norm(g_new))
            if gn_new < (1.0 - 1e-4 * t) * gn:
                break
        else:
            raise ConvergenceError(
                f"reference solve stalled at ||grad|| = {gn:.3e} after {steps} Newton "
                f"steps: no step reduces it, so {tol:.3e} is below its rounding floor")
        x, g, gn = x_new, g_new, gn_new
        steps += 1
    return ReferenceSolution(x, loss(p, x), gn, tol, steps)


# ---------------------------------------------------------------------------
# Variance quantities at the optimum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceReport:
    """Exact sigma quantities at x*, plus a probe-set estimate for the
    uniform variance bound.

    sigma_sq is only an estimate (the true supremum over all iterates is not
    computable); everything else is enumerated exactly over the dataset.
    """

    sigma_sq: float
    sigma_opt_sq: float
    sigma_dif_sq: float
    per_node_sigma_sq: tuple[float, ...]
    batch_size: int
    exhaustive: bool
    regime: Regime

    def __post_init__(self):
        vals = (self.sigma_sq, self.sigma_opt_sq, self.sigma_dif_sq,
                *self.per_node_sigma_sq)
        if any(v < 0 for v in vals):
            raise ValueError("variance quantities must be nonnegative")

    def to_kv_text(self) -> str:
        lines = [
            f"sigma_sq = {self.sigma_sq!r}",
            "sigma_sq_is_estimate = True",
            f"sigma_opt_sq = {self.sigma_opt_sq!r}",
            f"sigma_dif_sq = {self.sigma_dif_sq!r}",
            f"batch_size = {self.batch_size}",
            f"exhaustive = {self.exhaustive}",
            f"regime = {self.regime.value}",
        ]
        return "\n".join(lines) + "\n"

    def to_csv(self, stream: TextIO) -> None:
        stream.write("node,sigma_m_sq\n")
        for m, v in enumerate(self.per_node_sigma_sq):
            stream.write(f"{m},{v!r}\n")


def _per_sample_grad_sq(p: Problem, x: np.ndarray) -> np.ndarray:
    """||c_i b_i + lam x||^2 for every sample, b_i = y_i a_i its signed row,
    without materializing the gradients: expands to
    c^2 ||b||^2 + 2 lam c (b.x) + lam^2 ||x||^2, with ||b|| = ||a||."""
    t = p.margins(x[None, :])[:, 0]
    c = _logistic_slope(-1.0, t)
    return c * c * p.row_norms_sq + 2.0 * p.lam * c * t + p.lam**2 * float(x @ x)


def measure_variances(p: Problem, ref: ReferenceSolution, batch: int = 1, *,
                      exhaustive: bool = False) -> VarianceReport:
    """Enumerate the sigma quantities at x* exactly.

    sigma_opt_sq uses h = f with uniform draws over the full dataset (it does
    not depend on M); sigma_dif_sq uses h = f_m over each node's own range.
    The variance part divides by `batch`, the mean part does not, and
    `exhaustive` (full sweep instead of sampling) removes the variance part
    entirely. sigma_sq is the max of E||g - grad h||^2 over the probe
    iterates 0, x*/2 and x*, reported as an estimate for the uniform bound.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    x_star = ref.x_star

    def node_stats(x: np.ndarray) -> tuple[np.ndarray, list[tuple[float, float]]]:
        """The per-sample ||grad||^2 at x, from one pass over the data, and
        (E_z ||grad f_m(x,z)||^2, ||grad f_m(x)||^2) per node m for uniform
        draws over the node's range."""
        q = _per_sample_grad_sq(p, x)
        return q, [(float(np.mean(q[start:stop])), float(g @ g))
                   for (start, stop), g in zip(p.part.node_ranges, node_gradients(p, x))]

    def sigma_from_stats(mean_q: float, g_sq: float) -> float:
        return g_sq if exhaustive else g_sq + (mean_q - g_sq) / batch

    q_star, star_stats = node_stats(x_star)
    g = full_grad_global(p, x_star)
    sigma_opt = sigma_from_stats(float(np.mean(q_star)), float(g @ g))
    per_node = tuple(sigma_from_stats(*st) for st in star_stats)
    sigma_dif = float(np.mean(per_node))

    probes = (node_stats(np.zeros(p.dim))[1], star_stats, node_stats(0.5 * x_star)[1])
    sigma_sq = max([0.0] + [0.0 if exhaustive else max(mq - gs, 0.0) / batch
                            for stats in probes for mq, gs in stats])

    return VarianceReport(
        sigma_sq=sigma_sq,
        sigma_opt_sq=max(sigma_opt, 0.0),
        sigma_dif_sq=max(sigma_dif, 0.0),
        per_node_sigma_sq=per_node,
        batch_size=batch,
        exhaustive=exhaustive,
        regime=p.part.regime,
    )
