"""Deterministic Local SGD simulator and convergence-bound verification
toolkit for convex finite-sum problems."""

from .dataio import (
    Dataset,
    ManifestEntry,
    Partition,
    Regime,
    generate_synthetic,
    load_dataset,
    parse_libsvm,
    parse_manifest,
    partition,
)
from .numkit import RngStream
from .objective import (
    Problem,
    ReferenceSolution,
    VarianceReport,
    build_problem,
    estimate_L,
    full_grad,
    full_grad_global,
    loss,
    measure_variances,
    solve_reference,
)
from .simulator import (
    AggregateTrace,
    DivergenceError,
    GradientMode,
    RunConfig,
    SyncSchedule,
    Trace,
    run_local_sgd,
    run_minibatch_sgd,
    run_replicated,
)
from .theory import (
    BoundCurve,
    BoundInputs,
    PreconditionError,
    Verdict,
    bound,
    check_bound,
    check_vt_bound,
    plan_H,
    plan_gamma,
)

__version__ = "0.1.0"
