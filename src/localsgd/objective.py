"""The l2-regularized logistic regression problem and its measured constants.

Covers losses, exact per-node gradients, the smoothness and strong-convexity
constants, the deterministic reference optimum, and the variance quantities
evaluated exactly at that optimum.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .dataio import Dataset, Partition, Regime, kv_text, write_csv

if TYPE_CHECKING:
    import scipy.sparse as sp


class ConvergenceError(RuntimeError):
    """The reference solve stopped short of its tolerance: it hit its step
    cap, or no step reduced the gradient any further."""


@dataclass(frozen=True)
class Problem:
    """f(x) = (1/M) sum_m f_m(x), each f_m an average of logistic losses plus
    (lam/2)||x||^2 over its node's samples.

    Made from the dataset, partition and lam alone, which derive every
    constant once (`replace(p, lam=...)` derives them again). L is the
    global smoothness constant lambda_max(A^T diag(w) A)/4 + lam, w the
    per-sample weights of f; the logistic part contributes at least zero
    curvature so mu equals lam exactly. L_component is the almost-sure
    smoothness bound over single-sample draws, max_i ||a_i||^2 / 4 + lam;
    the finite-sum bounds hold for that constant, not for the (smaller)
    global L.

    The rows are label-signed, b_i = y_i a_i, as the dataset holds them, so
    every product with them (margins, rows_T_dot, gather) works on
    B = diag(y) A and no gradient or loss takes a pass over the labels.
    Negation is exact and rounding is sign-symmetric, so each product is
    the unsigned one times y_i bit for bit. B is held once, by the dataset:
    `rows` is its matrix, and the products take the storage it has.
    """

    dataset: Dataset
    part: Partition
    lam: float
    L: float = field(init=False)
    L_component: float = field(init=False)
    row_norms_sq: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)  # per-sample weight in f; sums to 1
    gram: np.ndarray = field(init=False, repr=False)  # B^T diag(w/4) B: L's, and Newton's at 0
    blocks: tuple = field(init=False, repr=False)  # (nodes, rows) per node block: _node_blocks

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        w = sample_weights(self.dataset, self.part)
        rn = self.dataset.row_norms_sq()
        # f weighs sample i by w_i and the logistic curvature of a sample is
        # at most 1/4, so B^T diag(w) B / 4, which is A^T diag(w) A / 4 bit
        # for bit, dominates the Hessian of f at every point.
        gram = _weighted_gram(self.rows, w / 4.0)
        for name, value in (("weights", w), ("row_norms_sq", rn), ("gram", gram),
                            ("L", float(np.linalg.eigvalsh(gram)[-1]) + self.lam),
                            ("L_component", float(rn.max()) / 4.0 + self.lam),
                            ("blocks", _node_blocks(self.rows, self.part))):
            object.__setattr__(self, name, value)

    @property
    def rows(self) -> np.ndarray | sp.csr_matrix:
        """B, dense or CSR: the dataset's own matrix."""
        return self.dataset.features

    @property
    def dense_rows(self) -> np.ndarray | None:
        """`rows` when dense, else None. The benchmark's probe
        (bench/tracing.py) reads it to count the work of a product."""
        return self.rows if self.dataset.is_dense else None

    def margins(self, X: np.ndarray, rows=None) -> np.ndarray:
        """B @ X.T for a stack of points, entry (i, j) = y_i a_i.x_j, shape
        (k, d) -> (n, k); over a block `rows` in B's place (`_exact_grads`),
        a (g, n_g, d) stack takes (g, k, d) -> (g, n_g, k)."""
        return (self.rows if rows is None else rows) @ X.swapaxes(-1, -2)

    def rows_T_dot(self, C: np.ndarray, rows=None) -> np.ndarray:
        """B.T @ C = sum_i y_i a_i C[i], shape (n, k) -> (d, k); over a
        block `rows`, as in `margins`, (g, n_g, k) -> (g, d, k) for a stack."""
        B = self.rows if rows is None else rows
        return (B.T if B.ndim == 2 else B.transpose(0, 2, 1)) @ C  # CSR has .T only

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
        given; `_exact_grads` computes.

        Identical nodes share f: one product over all n rows takes every
        point as a column, in node order. Heterogeneous node m averages its
        own n_m rows at its points X[m], with the numerator -1/n_m, so the
        work and temporaries are those of its block: each of `blocks` takes
        its nodes' points and rows, dense or CSR alike."""
        if out is None:
            out = np.empty_like(X)
        if self.part.regime == Regime.IDENTICAL:
            _exact_grads(self, X.reshape(-1, self.dim), -1.0 / self.dataset.n,
                         out=out.reshape(-1, self.dim))  # a view: out is C-contiguous
        for nodes, rows in self.blocks:
            _exact_grads(self, X[nodes], -1.0 / rows.shape[-2], out=out[nodes], rows=rows)
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


def _node_blocks(B: np.ndarray | sp.csr_matrix, part: Partition) -> tuple:
    """Each heterogeneous node's signed rows as (nodes, rows) pairs, built
    once; identical nodes share all n rows and get none. Dense rows make a
    (g, n_g, d) view of B per run of g adjacent blocks of one size, nodes
    the slice of its g nodes; numpy multiplies it as g 2-D products, so
    node m gets the bits of B_m @ X_m.T and B_m.T @ C_m. CSR rows make one
    CSR matrix per node m, nodes = m, over its rows' data and indices and
    its own indptr shifted to 0. scipy keeps such data as a view of B only
    while it spans half of B, so CSR blocks hold up to one more copy of it."""
    if part.regime == Regime.IDENTICAL:
        return ()
    d = B.shape[1]
    if not isinstance(B, np.ndarray):
        ptr = B.indptr
        return tuple((m, type(B)((B.data[ptr[a]:ptr[b]], B.indices[ptr[a]:ptr[b]],
                                  ptr[a:b + 1] - ptr[a]), shape=(b - a, d), copy=False))
                     for m, (a, b) in enumerate(part.node_ranges))
    runs: list[list[int]] = []  # [first node, first row, g, n_g]
    for m, (a, b) in enumerate(part.node_ranges):
        if runs and runs[-1][3] == b - a and runs[-1][1] + runs[-1][2] * (b - a) == a:
            runs[-1][2] += 1
        else:
            runs.append([m, a, 1, b - a])
    return tuple((slice(m, m + g), B[a:a + g * size].reshape(g, size, d))
                 for m, a, g, size in runs)


def sample_weights(dataset: Dataset, part: Partition) -> np.ndarray:
    """Weight of each sample inside f = (1/M) sum_m f_m.

    Identical regime: every node averages the full dataset, so each sample
    weighs 1/n. Heterogeneous: sample i in node m weighs 1/(M * n_m), which
    differs from 1/n only when block sizes are unequal.
    """
    if part.regime == Regime.IDENTICAL:
        return np.full(dataset.n, 1.0 / dataset.n)
    w = np.zeros(dataset.n)
    for start, stop in part.node_ranges:
        w[start:stop] = 1.0 / (part.M * (stop - start))
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


def build_problem(dataset: Dataset, part: Partition, lam: float | None = None) -> Problem:
    """The Problem of the dataset over the partition; lam defaults to 1/n,
    as in the experimental setup."""
    return Problem(dataset, part, 1.0 / dataset.n if lam is None else lam)


def csr_twin(p: Problem) -> Problem:
    """p with its dataset held as CSR, so every product is taken through
    CSR: the sparse code path on the same problem, for checking it against
    the dense one."""
    import scipy.sparse as sp

    return replace(p, dataset=replace(p.dataset, features=sp.csr_matrix(p.dataset.features)))


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


def _exact_grads(p: Problem, X: np.ndarray, num, out: np.ndarray | None = None,
                 rows=None) -> np.ndarray:
    """The exact gradient over a block of signed rows, shape (k, d) -> (k, d),
    written into `out` when given: row j is sum_i c_ij y_i a_i + lam x_j,
    c_ij the logistic slope at the signed margin y_i a_i.x_j with numerator
    num, a scalar or an (n, 1) column of per-sample weights. `rows` is None
    for all n rows, or the rows of one of `Problem.blocks`: a node's CSR
    matrix, or a (g, n_g, d) stack of blocks with X then (g, k, d). The
    products are margins and rows_T_dot."""
    U = p.margins(X, rows)  # (n, k), or (g, n_g, k) for a stack
    C = _logistic_slope(num, U, out=U)
    return np.add(p.rows_T_dot(C, rows).swapaxes(-1, -2), p.lam * X, out=out)


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
        """`key = value` lines by `dataio.kv_text`, floats as their shortest repr."""
        return kv_text([
            ("f_star", self.f_star), ("grad_norm", self.grad_norm),
            ("tolerance", self.tolerance), ("iterations", self.iterations),
            ("method", "newton"), ("x_star", ",".join(map(str, self.x_star.tolist()))),
        ])


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
        hessian = _curvature_gram(p, x) + p.lam * np.eye(p.dim)
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


def _curvature_gram(p: Problem, x: np.ndarray) -> np.ndarray:
    """A^T diag(w s(1 - s)) A, the logistic part of f's Hessian at x, with
    s = sigmoid(-a.x) at a.x = y (y a.x): s(1 - s) is even only up to rounding.
    At x = 0 every margin is +-0 and w s(1 - s) is w/4 bit for bit: p.gram."""
    if not x.any():
        return p.gram
    s = _logistic_slope(1.0, p.dataset.labels * p.margins(x[None, :])[:, 0])
    return _weighted_gram(p.rows, p.weights * s * (1.0 - s))


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
        """`key = value` lines by `dataio.kv_text`, floats as their shortest repr."""
        return kv_text([
            ("sigma_sq", self.sigma_sq), ("sigma_sq_is_estimate", True),
            ("sigma_opt_sq", self.sigma_opt_sq), ("sigma_dif_sq", self.sigma_dif_sq),
            ("batch_size", self.batch_size), ("exhaustive", self.exhaustive),
            ("regime", self.regime.value),
        ])

    def to_csv(self, stream: TextIO) -> None:
        """A `node,sigma_m_sq` row per node by `dataio.write_csv`, as in `to_kv_text`."""
        write_csv(stream, (), ("node", "sigma_m_sq"), enumerate(self.per_node_sigma_sq))


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
