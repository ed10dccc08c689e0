"""Closed-form right-hand sides of the convergence guarantees, the
stepsize/interval planners derived from them, and bound-vs-empirical
verdicts.

Every guarantee is one row of THEOREMS, keyed by its identifier:
  SC_IID_UBV  strongly convex, identical data, uniform variance bound
  WC_IID_UBV  convex, identical data, uniform variance bound
  SC_IID_FS   strongly convex, identical data, finite-sum sampling
  WC_IID_FS   convex, identical data, finite-sum sampling
  WC_HET_FS   convex, heterogeneous data, finite-sum sampling
`bound`, `bound_inputs`, `plan_gamma`, `applicable_bounds` and the
checkers read the row and know nothing else about the statement.

The finite-sum guarantees require the almost-sure component smoothness
constant (Problem.L_component), not the smaller global estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from .dataio import Regime
from .simulator import AggregateTrace, GradientMode, r0_sq

# Pure floating-point slack for stepsize admissibility checks: planners are
# allowed to return exactly the limiting value.
_FP_SLACK = 1.0 + 1e-12


class PreconditionError(ValueError):
    """A hypothesis of the selected statement does not hold for these inputs."""


class UnknownRuleError(ValueError):
    """No guarantee or planner rule has the requested name."""


@dataclass(frozen=True)
class BoundInputs:
    L: float
    gamma: float
    T: int
    H: int
    M: int
    r0_sq: float
    mu: float | None = None
    sigma_sq: float | None = None
    sigma_opt_sq: float | None = None
    sigma_dif_sq: float | None = None

    def require(self, *names: str) -> None:
        for name in names:
            v = getattr(self, name)
            if v is None or not np.isfinite(v):
                raise PreconditionError(f"bound needs a finite value for {name}")
        for name in ("L", "r0_sq"):
            v = getattr(self, name)
            if v is None or not np.isfinite(v) or v < 0:
                raise PreconditionError(f"{name} must be finite and nonnegative")
        # The worst-case bounds divide by gamma, and at gamma = 0 the
        # iterates never move: no guarantee says anything about that run.
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise PreconditionError("gamma must be finite and positive")
        if self.T < 1 or self.H < 1 or self.M < 1:
            raise PreconditionError("T, H and M must be >= 1")


class StepsizeLimit(NamedTuple):
    """A stepsize hypothesis and the largest admissible gamma for an object
    with attributes L, mu, M and H (BoundInputs, or a planner's arguments)."""

    text: str
    of: Callable[[Any], float]


class Need(NamedTuple):
    """Any other hypothesis; `fails` tests the same kind of object."""

    text: str
    fails: Callable[[Any], bool]


_QUARTER_L = StepsizeLimit("gamma <= 1/(4L)", lambda a: 1.0 / (4.0 * a.L))
_HET_LIMIT = StepsizeLimit(  # at H = 1 the second constraint is vacuous
    "gamma <= min{1/(4L), 1/(8L(H-1))}",
    lambda a: min(_QUARTER_L.of(a),
                  1.0 / (8.0 * a.L * (a.H - 1)) if a.H > 1 else math.inf))

_MU_POSITIVE = Need("mu > 0", lambda a: a.mu is None or a.mu <= 0)
_T_PARAM_POSITIVE = Need("t_param > 0", lambda a: a.t_param is None or a.t_param <= 0)
_TWO_NODES = Need("M >= 2", lambda a: a.M < 2)
_H_AT_MOST_SQRT_T_M = Need(
    "H <= sqrt(T/M)",
    lambda a: a.M is None or a.T is None or a.H is None or a.H > math.sqrt(a.T / a.M))


def _plan_sc(a, scale: float, steps: float) -> tuple[float, int]:
    """gamma = 1/(mu scale), scale being the statement's function of kappa
    and t_param; the step count steps * scale * log(scale) is rounded up."""
    count = steps * scale * math.log(scale)
    if not math.isfinite(count):
        raise PreconditionError(f"the suggested T is not finite: {count!r} "
                                f"(L={a.L!r}, mu={a.mu!r})")
    return 1.0 / (a.mu * scale), math.ceil(count)


def _plan_wc(c: float):
    """gamma = sqrt(M) / (c L sqrt(T))."""
    return lambda a: (math.sqrt(a.M) / (c * a.L * math.sqrt(a.T)), None)


@dataclass(frozen=True)
class Theorem:
    """One guarantee and everything derived from it.

    'dist_sq' statements bound the distance to x* at every step t; 'subopt'
    statements bound f(bar x_T) - f* at the final step T only, for the
    iterate average `convention` names: 'tail' is (1/T) sum_{t=1..T} xhat_t
    and 'head' is (1/T) sum_{t=0..T-1} xhat_t. `sync_only` marks statements
    made only at synchronization timestamps.
    """

    id: str
    rule: str  # its plan_gamma rule, also accepted as a stepsize spec
    metric: str  # 'dist_sq' or 'subopt'
    sync_only: bool
    convention: str | None
    regime: Regime  # runs it is checked on: this regime and one of `modes`
    modes: tuple[GradientMode, ...]
    needs_mu: bool  # strongly convex: mu > 0 is a hypothesis
    component_L: bool  # stated for Problem.L_component rather than Problem.L
    sigma: str  # the BoundInputs variance field the RHS reads
    limit: StepsizeLimit
    rhs: Callable[[BoundInputs, int], float]
    plan: Callable[[Any], tuple[float, int | None]]  # (gamma, suggested T)
    bound_needs: tuple[Need, ...] = ()  # besides mu > 0 and the limit
    plan_needs: tuple[Need, ...] = ()
    notes: str = ""

    def smoothness(self, p) -> float:
        """The smoothness constant of Problem p this statement is stated for."""
        return p.L_component if self.component_L else p.L


_TABLE = (
    Theorem(
        id="SC_IID_UBV", rule="sc-identical-ubv", metric="dist_sq",
        sync_only=False, convention=None, regime=Regime.IDENTICAL,
        modes=(GradientMode.INJECTED_NOISE,), needs_mu=True, component_L=False,
        sigma="sigma_sq", limit=_QUARTER_L,
        # contraction, a gamma sigma^2/(mu M) floor, and the drift term
        rhs=lambda b, t: ((1.0 - b.gamma * b.mu) ** t * b.r0_sq
                          + b.gamma * b.sigma_sq / (b.mu * b.M)
                          + 2.0 * b.L * b.gamma**2 * (b.H - 1) * b.sigma_sq / b.mu),
        plan=lambda a: _plan_sc(a, 4.0 * (a.L / a.mu) + a.t_param, 2.0),
        plan_needs=(_T_PARAM_POSITIVE,)),
    Theorem(
        id="WC_IID_UBV", rule="wc-identical-ubv", metric="subopt",
        sync_only=False, convention="tail", regime=Regime.IDENTICAL,
        modes=(GradientMode.INJECTED_NOISE,), needs_mu=False, component_L=False,
        sigma="sigma_sq", limit=_QUARTER_L,
        rhs=lambda b, t: (2.0 * b.r0_sq / (b.gamma * b.T)
                          + 2.0 * b.gamma * b.sigma_sq / b.M
                          + 4.0 * b.gamma**2 * b.L * b.sigma_sq * (b.H - 1)),
        plan=_plan_wc(4.0),
        plan_needs=(Need("T >= M",
                         lambda a: a.M is None or a.T is None or a.T < a.M),)),
    Theorem(
        id="SC_IID_FS", rule="sc-identical-fs", metric="dist_sq",
        sync_only=True, convention=None, regime=Regime.IDENTICAL,
        modes=(GradientMode.STOCHASTIC,), needs_mu=True, component_L=True,
        sigma="sigma_opt_sq",
        limit=StepsizeLimit("gamma <= min{1/(4L(1+2/M)), 1/(mu+8L(H-1))}",
                            lambda a: min(1.0 / (4.0 * a.L * (1.0 + 2.0 / a.M)),
                                          1.0 / (a.mu + 8.0 * a.L * (a.H - 1)))),
        rhs=lambda b, t: ((1.0 - b.gamma * b.mu) ** t * b.r0_sq
                          + 2.0 * b.gamma * b.sigma_opt_sq / (b.mu * b.M)
                          + 4.0 * b.sigma_opt_sq * b.gamma**2 * (b.H - 1) * b.L / b.mu),
        plan=lambda a: _plan_sc(a, 18.0 * (a.L / a.mu) * a.t_param, 18.0),
        plan_needs=(_T_PARAM_POSITIVE,
                    Need("H <= t_param",
                         lambda a: a.H is None or a.M is None or a.H > a.t_param))),
    Theorem(
        id="WC_IID_FS", rule="wc-identical-fs", metric="subopt",
        sync_only=True, convention="tail", regime=Regime.IDENTICAL,
        modes=(GradientMode.STOCHASTIC,), needs_mu=False, component_L=True,
        sigma="sigma_opt_sq",
        limit=StepsizeLimit("gamma <= 1/(10LH)", lambda a: 1.0 / (10.0 * a.L * a.H)),
        rhs=lambda b, t: (10.0 * b.r0_sq / (b.gamma * b.T)
                          + 20.0 * b.gamma * b.sigma_opt_sq / b.M
                          + 40.0 * b.gamma**2 * b.L * b.sigma_opt_sq * (b.H - 1)),
        plan=_plan_wc(10.0),
        bound_needs=(_TWO_NODES,), plan_needs=(_H_AT_MOST_SQRT_T_M,)),
    Theorem(
        id="WC_HET_FS", rule="wc-heterogeneous", metric="subopt",
        sync_only=True, convention="head", regime=Regime.HETEROGENEOUS,
        # Finite-sum noise only: injected Gaussian noise is not what
        # sigma_dif_sq measures.
        modes=(GradientMode.STOCHASTIC, GradientMode.FULL), needs_mu=False,
        component_L=True, sigma="sigma_dif_sq", limit=_HET_LIMIT,
        rhs=lambda b, t: (4.0 * b.r0_sq / (b.gamma * b.T)
                          + 20.0 * b.gamma * b.sigma_dif_sq / b.M
                          + 16.0 * b.gamma**2 * b.L * (b.H - 1) ** 2 * b.sigma_dif_sq),
        plan=_plan_wc(8.0),
        bound_needs=(_TWO_NODES,), plan_needs=(_H_AT_MOST_SQRT_T_M,),
        notes="stepsize condition read as " + _HET_LIMIT.text.removeprefix("gamma <= ")),
)

THEOREMS = {thm.id: thm for thm in _TABLE}
_BY_RULE = {thm.rule: thm for thm in _TABLE}
GAMMA_RULES = tuple(_BY_RULE)


def _lookup(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise UnknownRuleError(
            f"unknown {what} {name!r}; expected one of {tuple(table)}") from None


def _assert_needs(who: str, thm: Theorem, needs: tuple[Need, ...], args) -> None:
    for need in ((_MU_POSITIVE,) if thm.needs_mu else ()) + needs:
        if need.fails(args):
            raise PreconditionError(f"{who} needs {need.text}")


def _check_gamma(gamma: float, limit: float, what: str) -> None:
    if gamma > limit * _FP_SLACK:
        raise PreconditionError(
            f"stepsize {gamma!r} violates {what} (limit {limit!r})")


@dataclass(frozen=True)
class BoundCurve:
    """Evaluable RHS of one guarantee for fixed inputs: a function of t for
    'dist_sq' statements, a single value at T for 'subopt' ones."""

    theorem: Theorem
    inputs: BoundInputs

    theorem_id = property(lambda self: self.theorem.id)
    metric = property(lambda self: self.theorem.metric)
    sync_only = property(lambda self: self.theorem.sync_only)
    convention = property(lambda self: self.theorem.convention)
    notes = property(lambda self: self.theorem.notes)

    def rhs_at(self, t: int) -> float:
        b = self.inputs
        if t < 0 or t > b.T:
            raise ValueError(f"t={t} outside [0, {b.T}]")
        if self.metric != "dist_sq" and t != b.T:
            raise ValueError(f"{self.theorem_id} bounds only the final average at T={b.T}")
        return self.theorem.rhs(b, t)

    def final(self) -> float:
        return self.rhs_at(self.inputs.T)


def bound(theorem_id: str, b: BoundInputs) -> BoundCurve:
    """The guarantee `theorem_id` for inputs b; raises PreconditionError
    when one of its hypotheses, the stepsize limit included, fails, or when
    its RHS is not finite where it is compared (an overflowing RHS holds
    vacuously and says nothing about the run)."""
    thm = _lookup(THEOREMS, theorem_id, "theorem")
    b.require(*(("mu",) if thm.needs_mu else ()), thm.sigma)
    _assert_needs(thm.id, thm, thm.bound_needs, b)
    _check_gamma(b.gamma, thm.limit.of(b), thm.limit.text)
    curve = BoundCurve(thm, b)
    # A distance RHS moves with t only through (1 - gamma mu)^t r0^2, which
    # the stepsize limit keeps within [0, r0^2]: finite at 0 and T, it is
    # finite at every step.
    for t in (0, b.T) if thm.metric == "dist_sq" else (b.T,):
        rhs = curve.rhs_at(t)
        if not math.isfinite(rhs):
            raise PreconditionError(f"the right-hand side is not finite at t={t}: {rhs!r}")
    return curve


def bound_inputs(theorem_id: str, p, run_cfg, ref, var_report) -> BoundInputs:
    """The inputs of guarantee `theorem_id` for a run of Problem p under
    RunConfig run_cfg, with smoothness constant and variance the ones its
    row names.

    Injected noise of scale noise_sigma makes the uniform variance bound
    hold exactly with sigma^2 = noise_sigma^2; the finite-sum variances come
    from the VarianceReport var_report, which uniform-variance statements
    do not read.
    """
    thm = _lookup(THEOREMS, theorem_id, "theorem")
    sigma = ((run_cfg.noise_sigma or 0.0) ** 2 if thm.sigma == "sigma_sq"
             else getattr(var_report, thm.sigma))
    return BoundInputs(L=thm.smoothness(p), gamma=run_cfg.gamma, T=run_cfg.T,
                       H=run_cfg.schedule.H, M=run_cfg.M, r0_sq=r0_sq(ref), mu=p.mu,
                       **{thm.sigma: sigma})


def applicable_bounds(p, run_cfg, ref, var_report
                      ) -> tuple[list[BoundCurve], list[tuple[str, str]]]:
    """The guarantees checked on a run of Problem p under RunConfig run_cfg:
    the curves of those whose hypotheses the run satisfies, and the
    (theorem id, failed hypothesis) of those made for its regime and
    gradient mode whose other hypotheses fail.
    """
    curves, skipped = [], []
    for thm in theorems_for(p.part.regime, run_cfg.gradient_mode):
        try:
            curves.append(bound(thm.id, bound_inputs(thm.id, p, run_cfg, ref, var_report)))
        except PreconditionError as e:
            skipped.append((thm.id, str(e)))
    return curves, skipped


def theorems_for(regime: Regime, mode: GradientMode) -> list[Theorem]:
    """The rows of the table made for runs in this regime and gradient mode."""
    return [thm for thm in _TABLE if thm.regime == regime and mode in thm.modes]


# ---------------------------------------------------------------------------
# Planners
# ---------------------------------------------------------------------------

PLAN_H_RULES = ("sc-identical", "wc-identical", "wc-heterogeneous")


def plan_H(rule: str, T: int, M: int, kappa: float | None = None) -> int:
    """Largest synchronization interval that keeps the matching rate.

    sc-identical: 1 + floor(T / (kappa M)); wc-identical:
    1 + floor(sqrt(T) M^{-3/2}); wc-heterogeneous: 1 + floor(T^{1/4} M^{-3/4}).
    """
    if T is None or M is None or T < 1 or M < 1:
        raise PreconditionError("T and M must be >= 1")
    if rule == "sc-identical":
        if kappa is None or kappa <= 0:
            raise PreconditionError("sc-identical rule needs kappa > 0")
        ratio, text = T / (kappa * M), "T/(kappa M)"
    elif rule == "wc-identical":
        ratio, text = math.sqrt(T) / M**1.5, "sqrt(T) M^{-3/2}"
    elif rule == "wc-heterogeneous":
        ratio, text = T**0.25 / M**0.75, "T^{1/4} M^{-3/4}"
    else:
        raise UnknownRuleError(
            f"unknown plan_H rule {rule!r}; expected one of {PLAN_H_RULES}")
    if not math.isfinite(ratio):
        raise PreconditionError(f"{rule} plans H = 1 + floor({text}), and {text} "
                                f"is not finite: {ratio!r}")
    H = 1 + math.floor(ratio)
    if H > T:
        raise PreconditionError(f"{rule} plans H={H}, longer than the run T={T}")
    return H


class PlannedGamma(NamedTuple):
    gamma: float
    rule: str
    precondition: str  # the theorem hypothesis this stepsize satisfies
    suggested_T: int | None = None


def plan_gamma(rule: str, L: float, mu: float | None = None,
               M: int | None = None, T: int | None = None,
               H: int | None = None, t_param: float | None = None) -> PlannedGamma:
    """Rate-matching stepsize of the guarantee whose rule is `rule`, with
    its hypotheses asserted; the planners are the `plan` entries of the
    table. Pass the almost-sure component L for the finite-sum rules. The
    strongly convex rules also suggest a step count.
    """
    if L is None or L <= 0:
        raise PreconditionError("L must be positive")
    thm = _lookup(_BY_RULE, rule, "plan_gamma rule")
    a = SimpleNamespace(L=L, mu=mu, M=M, T=T, H=H, t_param=t_param)
    _assert_needs(rule, thm, thm.plan_needs, a)
    gamma, suggested_T = thm.plan(a)
    if not math.isfinite(gamma):
        raise PreconditionError(f"{rule} plans a stepsize that is not finite: "
                                f"{gamma!r} (L={L!r})")
    _check_gamma(gamma, thm.limit.of(a), thm.limit.text)
    return PlannedGamma(gamma, rule, thm.limit.text, suggested_T)


def planned_gamma(rule: str, p, M: int, T: int, H: int) -> float:
    """plan_gamma for a run on Problem p with t_param = H, using the
    smoothness constant the rule's statement is stated for."""
    L = _lookup(_BY_RULE, rule, "plan_gamma rule").smoothness(p)
    return plan_gamma(rule, L=L, mu=p.mu, M=M, T=T, H=H, t_param=float(H)).gamma


# ---------------------------------------------------------------------------
# Bound-vs-empirical verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    holds: bool
    margin: float  # min over compared points of (bound - empirical mean)
    slack_ratio: float  # max over compared points of empirical / bound
    compared: int
    details: str

    def to_kv_text(self) -> str:
        return (f"holds = {self.holds}\nmargin = {self.margin!r}\n"
                f"slack_ratio = {self.slack_ratio!r}\ncompared = {self.compared}\n"
                f"details = {self.details}\n")


def _verdict(emp: np.ndarray, se: np.ndarray, rhs: np.ndarray,
             details: str) -> Verdict:
    ok = emp <= rhs + 3.0 * se
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, emp / rhs, np.inf)
    return Verdict(
        holds=bool(np.all(ok)),
        margin=float(np.min(rhs - emp)),
        slack_ratio=float(np.max(ratios)),
        compared=int(emp.size),
        details=details,
    )


def compared_steps(curve: BoundCurve, agg: AggregateTrace) -> np.ndarray:
    """Mask of the recorded rows where the guarantee speaks: every row (or
    every synchronization row) for distance bounds, the final row T for
    suboptimality bounds."""
    T = curve.inputs.T
    if int(agg.t[-1]) != T:
        raise ValueError(f"trace ends at {int(agg.t[-1])}, bound is for T={T}")
    if curve.metric == "subopt":
        if curve.sync_only and not bool(agg.synced[-1]):
            raise ValueError("T is not a synchronization timestamp")
        return np.arange(agg.t.size) == agg.t.size - 1
    mask = agg.synced if curve.sync_only else np.ones(agg.t.size, dtype=bool)
    if not np.any(mask):
        raise ValueError("no comparable steps recorded")
    return mask


def check_bound(curve: BoundCurve, agg: AggregateTrace) -> Verdict:
    """Is the empirical mean below the RHS (plus 3 standard errors) wherever
    the guarantee speaks?

    Distance bounds are compared at every compared step; suboptimality
    bounds are compared once at T using the iterate-average convention the
    statement defines.
    """
    mask = compared_steps(curve, agg)
    if curve.metric == "dist_sq":
        ts = agg.t[mask]
        rhs = np.asarray([curve.rhs_at(int(t)) for t in ts])
        return _verdict(agg.mean["dist_sq"][mask], agg.se["dist_sq"][mask], rhs,
                        f"{curve.theorem_id}: dist_sq at {ts.size} steps")
    emp, se = {"tail": agg.bar_subopt_tail, "head": agg.bar_subopt_head}[curve.convention]
    return _verdict(np.asarray([emp]), np.asarray([se]), np.asarray([curve.final()]),
                    f"{curve.theorem_id}: f(bar x_T) - f* at T={curve.inputs.T} "
                    f"({curve.convention} average)")


def check_vt_bound(agg: AggregateTrace, gamma: float, H: int,
                   sigma_sq: float, L: float) -> Verdict:
    """Iterate-deviation bound for identical data: mean V_t <= (H-1) gamma^2
    sigma^2 + 3 SE at every recorded step; requires gamma <= 1/(2L)."""
    _check_gamma(gamma, 1.0 / (2.0 * L), "gamma <= 1/(2L)")
    rhs = np.full(agg.t.size, (H - 1) * gamma**2 * sigma_sq)
    return _verdict(agg.mean["V"], agg.se["V"], rhs,
                    f"V_t <= (H-1) gamma^2 sigma^2 at {agg.t.size} steps")

