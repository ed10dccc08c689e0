"""Mutations of the program that an acceptance criterion must catch.

Each mutation is monkeypatched into the package, and the cheapest criterion
that catches it must FAIL at `--level fast` (README lists every criterion
that catches each one). The no-averaging mutations, through the
`simulator._synchronize` seam, are in test_simulator.py. The mutations of
the theorem table zero one term of one row; README lists the terms that no
criterion catches, with the measured ratio that says why.
"""
from dataclasses import replace

import numpy as np
import pytest

from localsgd import objective, simulator, theory, verify
from localsgd.dataio import Regime
from localsgd.simulator import GradientMode


def scaled_node_grads(real):
    """Every exact node gradient times 1.5."""
    def node_grads(p, X, out=None):
        G = real(p, X, out)
        G *= 1.5
        return G
    return node_grads


def doubled_noise(real):
    """The injected noise times 2, four times its declared variance."""
    def draws(engine, t):
        D = real(engine, t)
        return 2 * D if engine.cfg.gradient_mode == GradientMode.INJECTED_NOISE else D
    return draws


def heterogeneity_ignored(real):
    """Every heterogeneous node takes the gradient of f in place of f_m's."""
    def node_grads(p, X, out=None):
        if p.part.regime != Regime.HETEROGENEOUS:
            return real(p, X, out)
        if out is None:
            out = np.empty_like(X)
        objective._exact_grads(p, X.reshape(-1, p.dim), (-p.weights)[:, None],
                               out=out.reshape(-1, p.dim))
        return out
    return node_grads


@pytest.mark.parametrize("owner, attr, mutate, criterion", [
    (objective.Problem, "node_grads", scaled_node_grads,
     verify.criterion_variance_identities),
    (simulator._GradientEngine, "_draws", doubled_noise, verify.criterion_vt_lemma),
    (objective.Problem, "node_grads", heterogeneity_ignored,
     verify.criterion_variance_identities),
], ids=["node-grads-x1.5", "noise-x2", "heterogeneity-ignored"])
def test_the_criterion_catches_the_mutation(monkeypatch, owner, attr, mutate, criterion):
    assert criterion("fast").status == verify.PASS
    monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    assert criterion("fast").status == verify.FAIL


@pytest.mark.parametrize("row, term, criterion", [
    ("SC_IID_UBV", "initial", verify.criterion_sc_identical_ubv),
    ("SC_IID_UBV", "noise", verify.criterion_sc_identical_ubv),
    ("SC_IID_FS", "initial", verify.criterion_finite_sum_identical),
    ("WC_IID_FS", "initial", verify.criterion_finite_sum_identical),
    ("WC_HET_FS", "initial", verify.criterion_heterogeneous_bound),
], ids=lambda v: getattr(v, "__name__", v))
def test_the_criterion_catches_the_zeroed_term(monkeypatch, row, term, criterion):
    # test_acceptance checks that every criterion PASSes unmutated.
    table = tuple(
        replace(thm, terms=tuple((name, (lambda b, t: 0.0) if name == term else f)
                                 for name, f in thm.terms)) if thm.id == row else thm
        for thm in theory._TABLE)
    monkeypatch.setattr(theory, "_TABLE", table)
    monkeypatch.setattr(theory, "THEOREMS", {thm.id: thm for thm in table})
    result = criterion("fast")
    assert result.status == verify.FAIL and f" {row} VIOLATED " in result.details
