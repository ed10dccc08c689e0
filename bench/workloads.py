"""Seeded workload inputs for the localsgd benchmark.

Every input is a pure function of (workload, seed, size): the same triple
gives byte-identical INI, LIBSVM and manifest files. The program under test
sees only these files; nothing here imports localsgd.
"""
from __future__ import annotations

import hashlib

import numpy as np

# a9a-shaped one-hot layout: 14 categorical groups over 123 binary features,
# so every row has exactly 14 nonzeros, like the real a9a file.
A9A_GROUPS = (5, 7, 5, 16, 16, 7, 14, 6, 5, 2, 2, 2, 5, 31)
A9A_POSITIVE_SHARE = 0.24


def derived_int(name: str, seed: int, purpose: str, modulus: int = 1 << 31) -> int:
    """A stable integer derived from the workload seed, one per purpose."""
    digest = hashlib.sha256(f"{name}:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % modulus


def _ini(sections: dict[str, dict[str, object]]) -> bytes:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
        lines.append("")
    return "\n".join(lines).encode()


def _seed_range(name: str, seed: int, count: int) -> str:
    base = derived_int(name, seed, "run-seeds", 1_000_000)
    return f"{base}:{base + count}"


def _het_dense_sgd(seed: int, tiny: bool) -> dict[str, bytes]:
    """configs/synthetic-heterogeneous.ini with seeded SGD runs.

    The dataset is the shipped one (data seed 51) for every workload seed:
    the reference solve's iteration count depends on the data and moved
    set-up time by up to 2x between data seeds, which swamped the timing.
    """
    name = "het-dense-sgd"
    n, T, S = (200, 256, 4) if tiny else (2000, 1024, 50)
    ini = _ini({
        "data": {"source": "synthetic", "n": n, "d": 30, "seed": 51,
                 "sort_by_label": "true", "label_noise": 0.02},
        "problem": {"lambda": "1/n", "M": 4, "regime": "heterogeneous"},
        "solver": {"tol": 1e-11, "accelerated": "true"},
        "run": {"gradient_mode": "stochastic", "batch": 1,
                "gamma": "wc-heterogeneous", "schedule": "uniform",
                "H": "1,2,4,8", "T": T, "seeds": _seed_range(name, seed, S)},
        "output": {"dir": "out"},
    })
    return {"config.ini": ini}


def _a9a_rows(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 14) sorted 1-based feature indices and (n,) labels in {-1, +1}.

    The population (category frequencies and planted weights) is the same
    for every seed; the seed draws the rows and the label noise. So every
    seed is an equally hard sample, and the reference solve costs about the
    same number of iterations on each.
    """
    population = np.random.Generator(np.random.Philox(
        key=derived_int("a9a-sparse-sgd", 0, "population", 1 << 63)))
    # Skewed category frequencies, as in the census attributes of a9a.
    probs = [population.dirichlet(np.full(size, 0.7)) for size in A9A_GROUPS]
    weights = population.standard_normal(sum(A9A_GROUPS))
    gen = np.random.Generator(np.random.Philox(
        key=derived_int("a9a-sparse-sgd", seed, "data", 1 << 63)))
    cols = np.empty((n, len(A9A_GROUPS)), dtype=np.int64)
    offset = 0
    for g, size in enumerate(A9A_GROUPS):
        cols[:, g] = offset + gen.choice(size, size=n, p=probs[g])
        offset += size
    score = weights[cols].sum(axis=1) + gen.logistic(size=n)
    cut = np.quantile(score, 1.0 - A9A_POSITIVE_SHARE)
    labels = np.where(score > cut, 1, -1)
    return cols + 1, labels


def _a9a_sparse_sgd(seed: int, tiny: bool) -> dict[str, bytes]:
    """An a9a-shaped LIBSVM file, its manifest, and the a9a 0.05/L protocol."""
    name = "a9a-sparse-sgd"
    n, M, T, S = (2000, 4, 64, 3) if tiny else (32561, 20, 1000, 5)
    cols, labels = _a9a_rows(seed, n)
    lines = [("+1 " if y > 0 else "-1 ") + " ".join(f"{c}:1" for c in row)
             for y, row in zip(labels.tolist(), cols.tolist())]
    libsvm = ("\n".join(lines) + "\n").encode()
    digest = hashlib.sha256(libsvm).hexdigest()
    manifest = f"a9a a9a {digest} {n} {sum(A9A_GROUPS)}\n".encode()
    ini = _ini({
        "data": {"source": "a9a", "manifest": "manifest.txt", "dir": "."},
        "problem": {"lambda": "1/n", "M": M, "regime": "identical"},
        "solver": {"tol": 1e-9, "accelerated": "true"},
        "run": {"gradient_mode": "stochastic", "batch": 1, "gamma": "0.05/L",
                "schedule": "uniform", "H": "1,16", "T": T,
                "seeds": _seed_range(name, seed, S)},
        "output": {"dir": "out"},
    })
    return {"config.ini": ini, "a9a": libsvm, "manifest.txt": manifest}


def _iid_noise_exact(seed: int, tiny: bool) -> dict[str, bytes]:
    """Shape of the sc_identical_ubv acceptance criterion, with seeded runs.

    The dataset is the criterion's own (data seed 105) for every workload
    seed, as in het-dense-sgd: with a data seed drawn per workload seed,
    set-up time varied by up to 40% between workload seeds.
    """
    name = "iid-noise-exact"
    T, S = (200, 4) if tiny else (5000, 50)
    ini = _ini({
        "data": {"source": "synthetic", "n": 120, "d": 20, "seed": 105},
        "problem": {"lambda": 0.1, "M": 4, "regime": "identical"},
        "solver": {"tol": 1e-11, "accelerated": "false"},
        "run": {"gradient_mode": "injected-noise", "noise_sigma": 1.0,
                "batch": 1, "gamma": "0.25/L", "schedule": "uniform",
                "H": "1,4,16", "T": T, "seeds": _seed_range(name, seed, S)},
        "output": {"dir": "out"},
    })
    return {"config.ini": ini}


WORKLOADS = {
    "het-dense-sgd": _het_dense_sgd,
    "a9a-sparse-sgd": _a9a_sparse_sgd,
    "iid-noise-exact": _iid_noise_exact,
}


def generate(name: str, seed: int, tiny: bool = False) -> dict[str, bytes]:
    """File name -> bytes for one workload instance."""
    return WORKLOADS[name](seed, tiny)
