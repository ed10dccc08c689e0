"""Closed-form right-hand sides of the convergence guarantees, the
stepsize/interval planners derived from them, and bound-vs-empirical
verdicts.

Every guarantee is one row of THEOREMS, keyed by its identifier:
  SC_IID_UBV  strongly convex, identical data, uniform variance bound
  WC_IID_UBV  convex, identical data, uniform variance bound
  SC_IID_FS   strongly convex, identical data, finite-sum sampling
  WC_IID_FS   convex, identical data, finite-sum sampling
  WC_HET_FS   convex, heterogeneous data, finite-sum sampling
`bound`, `plan_gamma` and the checkers read the row and know nothing else
about the statement. `check_run` is the one path from a run to its
verdicts: it instantiates every row made for the run's regime and gradient
mode, and checks those whose hypotheses hold.

The finite-sum guarantees require the almost-sure component smoothness
constant (Problem.L_component), not the smaller global estimate.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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
    # ("initial", f), ("noise", f) and ("drift", f): the initial distance, the
    # noise floor and the drift that grows with H, each f(b, t) one summand
    terms: tuple[tuple[str, Callable[[BoundInputs, int], float]], ...]
    plan: Callable[[Any], tuple[float, int | None]]  # (gamma, suggested T)
    bound_needs: tuple[Need, ...] = ()  # besides mu > 0 and the limit
    plan_needs: tuple[Need, ...] = ()
    notes: str = ""

    def smoothness(self, p) -> float:
        """The smoothness constant of Problem p this statement is stated for."""
        return p.L_component if self.component_L else p.L

    def rhs(self, b: BoundInputs, t: int) -> float:
        """The terms added left to right from 0.0. Not builtin sum: from
        Python 3.12 it adds floats with compensation, which moves bits."""
        total = 0.0
        for _, term in self.terms:
            total += term(b, t)
        return total


_TABLE = (
    Theorem(
        id="SC_IID_UBV", rule="sc-identical-ubv", metric="dist_sq",
        sync_only=False, convention=None, regime=Regime.IDENTICAL,
        modes=(GradientMode.INJECTED_NOISE,), needs_mu=True, component_L=False,
        sigma="sigma_sq", limit=_QUARTER_L,
        terms=(("initial", lambda b, t: (1.0 - b.gamma * b.mu) ** t * b.r0_sq),
               ("noise", lambda b, t: b.gamma * b.sigma_sq / (b.mu * b.M)),
               ("drift", lambda b, t: 2.0 * b.L * b.gamma**2 * (b.H - 1) * b.sigma_sq / b.mu)),
        plan=lambda a: _plan_sc(a, 4.0 * (a.L / a.mu) + a.t_param, 2.0),
        plan_needs=(_T_PARAM_POSITIVE,)),
    Theorem(
        id="WC_IID_UBV", rule="wc-identical-ubv", metric="subopt",
        sync_only=False, convention="tail", regime=Regime.IDENTICAL,
        modes=(GradientMode.INJECTED_NOISE,), needs_mu=False, component_L=False,
        sigma="sigma_sq", limit=_QUARTER_L,
        terms=(("initial", lambda b, t: 2.0 * b.r0_sq / (b.gamma * b.T)),
               ("noise", lambda b, t: 2.0 * b.gamma * b.sigma_sq / b.M),
               ("drift", lambda b, t: 4.0 * b.gamma**2 * b.L * b.sigma_sq * (b.H - 1))),
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
        terms=(("initial", lambda b, t: (1.0 - b.gamma * b.mu) ** t * b.r0_sq),
               ("noise", lambda b, t: 2.0 * b.gamma * b.sigma_opt_sq / (b.mu * b.M)),
               ("drift",
                lambda b, t: 4.0 * b.sigma_opt_sq * b.gamma**2 * (b.H - 1) * b.L / b.mu)),
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
        terms=(("initial", lambda b, t: 10.0 * b.r0_sq / (b.gamma * b.T)),
               ("noise", lambda b, t: 20.0 * b.gamma * b.sigma_opt_sq / b.M),
               ("drift", lambda b, t: 40.0 * b.gamma**2 * b.L * b.sigma_opt_sq * (b.H - 1))),
        plan=_plan_wc(10.0),
        bound_needs=(_TWO_NODES,), plan_needs=(_H_AT_MOST_SQRT_T_M,)),
    Theorem(
        id="WC_HET_FS", rule="wc-heterogeneous", metric="subopt",
        sync_only=True, convention="head", regime=Regime.HETEROGENEOUS,
        # Finite-sum noise only: injected Gaussian noise is not what
        # sigma_dif_sq measures.
        modes=(GradientMode.STOCHASTIC, GradientMode.FULL), needs_mu=False,
        component_L=True, sigma="sigma_dif_sq", limit=_HET_LIMIT,
        terms=(("initial", lambda b, t: 4.0 * b.r0_sq / (b.gamma * b.T)),
               ("noise", lambda b, t: 20.0 * b.gamma * b.sigma_dif_sq / b.M),
               ("drift", lambda b, t: 16.0 * b.gamma**2 * b.L * (b.H - 1) ** 2 * b.sigma_dif_sq)),
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
    """Evaluable RHS, whole or by term, of one guarantee for fixed inputs: a
    function of t for 'dist_sq' statements, a value at T for 'subopt' ones."""

    theorem: Theorem
    inputs: BoundInputs

    def _speaks_at(self, t: int) -> int:
        b, thm = self.inputs, self.theorem
        if t < 0 or t > b.T:
            raise ValueError(f"t={t} outside [0, {b.T}]")
        if thm.metric != "dist_sq" and t != b.T:
            raise ValueError(f"{thm.id} bounds only the final average at T={b.T}")
        return t

    def rhs_at(self, t: int) -> float:
        return self.theorem.rhs(self.inputs, self._speaks_at(t))

    def terms_at(self, t: int) -> dict[str, float]:
        t = self._speaks_at(t)
        return {name: term(self.inputs, t) for name, term in self.theorem.terms}


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
    # Only a distance RHS's initial term (1 - gamma mu)^t r0^2 moves with t,
    # within [0, r0^2] by the stepsize limit: finite at 0 and T, it is finite.
    for t in (0, b.T) if thm.metric == "dist_sq" else (b.T,):
        rhs = curve.rhs_at(t)
        if not math.isfinite(rhs):
            raise PreconditionError(f"the right-hand side is not finite at t={t}: {rhs!r}")
    return curve


def theorems_for(regime: Regime, mode: GradientMode) -> list[Theorem]:
    """The rows of the table made for runs in this regime and gradient mode."""
    return [thm for thm in _TABLE if thm.regime == regime and mode in thm.modes]


# ---------------------------------------------------------------------------
# Planners
# ---------------------------------------------------------------------------

_PLAN_H = {  # rule: the ratio whose floor is H - 1, as text and as f(T, M, kappa)
    "sc-identical": ("T/(kappa M)", lambda T, M, kappa: T / (kappa * M)),
    "wc-identical": ("sqrt(T) M^{-3/2}", lambda T, M, kappa: math.sqrt(T) / M**1.5),
    "wc-heterogeneous": ("T^{1/4} M^{-3/4}", lambda T, M, kappa: T**0.25 / M**0.75),
}


def _within_float_range(rule: str, **inputs) -> None:
    """Refuse an integer input past float range: the planners compute in floats."""
    for name, v in inputs.items():
        if v is not None and v > sys.float_info.max:
            raise PreconditionError(f"{rule} needs {name} within float range")


def plan_H(rule: str, T: int, M: int, kappa: float | None = None) -> int:
    """Largest synchronization interval that keeps the matching rate: one
    plus the floor of the rule's ratio in _PLAN_H."""
    if T is None or M is None or T < 1 or M < 1:
        raise PreconditionError("T and M must be >= 1")
    text, ratio_of = _lookup(_PLAN_H, rule, "plan_H rule")
    if rule == "sc-identical" and (kappa is None or kappa <= 0):
        raise PreconditionError("sc-identical rule needs kappa > 0")
    _within_float_range(rule, T=T, M=M)
    try:
        ratio = ratio_of(T, M, kappa)
    except OverflowError:  # M^{3/2}, with M within float range
        raise PreconditionError(f"{rule} needs M^(3/2) within float range") from None
    if not math.isfinite(ratio):
        raise PreconditionError(f"{rule} plans H = 1 + floor({text}), and {text} "
                                f"is not finite: {ratio!r}")
    H = 1 + math.floor(ratio)
    if H > T:
        raise PreconditionError(f"{rule} plans H={H}, longer than the run T={T}")
    return H


class PlannedGamma(NamedTuple):
    gamma: float
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
    _within_float_range(rule, M=M, T=T, H=H)
    a = SimpleNamespace(L=L, mu=mu, M=M, T=T, H=H, t_param=t_param)
    _assert_needs(rule, thm, thm.plan_needs, a)
    gamma, suggested_T = thm.plan(a)
    if not math.isfinite(gamma):
        raise PreconditionError(f"{rule} plans a stepsize that is not finite: "
                                f"{gamma!r} (L={L!r})")
    _check_gamma(gamma, thm.limit.of(a), thm.limit.text)
    return PlannedGamma(gamma, thm.limit.text, suggested_T)


def planned_gamma(rule: str, p, T: int, H: int) -> float:
    """plan_gamma for a run on Problem p, on its p.M nodes, with t_param =
    H, using the smoothness constant the rule's statement is stated for."""
    L = _lookup(_BY_RULE, rule, "plan_gamma rule").smoothness(p)
    return plan_gamma(rule, L=L, mu=p.mu, M=p.M, T=T, H=H, t_param=float(H)).gamma


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
    # The steps compared and the RHS at each, which the bound CSV lists.
    steps: np.ndarray | None = field(default=None, repr=False, compare=False)
    rhs: np.ndarray | None = field(default=None, repr=False, compare=False)


def _verdict(emp: np.ndarray, se: np.ndarray, rhs: np.ndarray,
             details: str, steps: np.ndarray | None = None) -> Verdict:
    ok = emp <= rhs + 3.0 * se
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, emp / rhs, np.inf)
    return Verdict(
        holds=bool(np.all(ok)),
        margin=float(np.min(rhs - emp)),
        slack_ratio=float(np.max(ratios)),
        compared=int(emp.size),
        details=details,
        steps=steps,
        rhs=rhs,
    )


def check_bound(curve: BoundCurve, agg: AggregateTrace) -> Verdict:
    """Is the empirical mean below the RHS (plus 3 standard errors) wherever
    the guarantee speaks?

    Distance bounds are compared at every recorded row (every
    synchronization row for sync-only statements); suboptimality bounds
    are compared once at T using the iterate-average convention the
    statement defines.
    """
    T, thm = curve.inputs.T, curve.theorem
    if int(agg.t[-1]) != T:
        raise ValueError(f"trace ends at {int(agg.t[-1])}, bound is for T={T}")
    if thm.metric == "subopt":
        if thm.sync_only and not bool(agg.synced[-1]):
            raise ValueError("T is not a synchronization timestamp")
        emp, se = {"tail": agg.bar_subopt_tail, "head": agg.bar_subopt_head}[thm.convention]
        return _verdict(np.asarray([emp]), np.asarray([se]), np.asarray([curve.rhs_at(T)]),
                        f"{thm.id}: f(bar x_T) - f* at T={T} ({thm.convention} average)",
                        agg.t[-1:])
    mask = agg.synced if thm.sync_only else np.ones(agg.t.size, dtype=bool)
    if not np.any(mask):
        raise ValueError("no comparable steps recorded")
    ts = agg.t[mask]
    rhs = np.asarray([curve.rhs_at(t) for t in ts.tolist()])
    return _verdict(agg.mean["dist_sq"][mask], agg.se["dist_sq"][mask], rhs,
                    f"{thm.id}: dist_sq at {ts.size} steps", ts)


def check_run(p, run_cfg, ref, var_report, agg
              ) -> tuple[dict[str, tuple[BoundCurve, Verdict]], dict[str, str]]:
    """The guarantees of a run of Problem p under RunConfig run_cfg, whose
    seed aggregate is agg, as (checked, skipped). Each row `theorems_for`
    gives is instantiated with the smoothness constant and variance it
    names; `checked` maps the id of each row whose hypotheses hold to its
    (curve, verdict), and `skipped` maps every other id to the hypothesis
    that failed. Both are in table order.

    Injected noise of scale noise_sigma makes the uniform variance bound
    hold exactly with sigma^2 = noise_sigma^2; the finite-sum variances come
    from the VarianceReport var_report, which uniform-variance statements
    do not read.
    """
    checked, skipped = {}, {}
    for thm in theorems_for(p.part.regime, run_cfg.gradient_mode):
        sigma = ((run_cfg.noise_sigma or 0.0) ** 2 if thm.sigma == "sigma_sq"
                 else getattr(var_report, thm.sigma))
        inputs = BoundInputs(L=thm.smoothness(p), gamma=run_cfg.gamma, T=run_cfg.T,
                             H=run_cfg.schedule.H, M=run_cfg.M, r0_sq=r0_sq(ref),
                             mu=p.mu, **{thm.sigma: sigma})
        try:
            curve = bound(thm.id, inputs)
        except PreconditionError as e:
            skipped[thm.id] = str(e)
            continue
        # Through the module global, so that a wrapper of check_bound sees
        # every verdict.
        checked[thm.id] = (curve, check_bound(curve, agg))
    return checked, skipped


def check_vt_bound(agg: AggregateTrace, gamma: float, H: int,
                   sigma_sq: float, L: float) -> Verdict:
    """Iterate-deviation bound for identical data: mean V_t <= (H-1) gamma^2
    sigma^2 + 3 SE at every recorded step; requires gamma <= 1/(2L)."""
    _check_gamma(gamma, 1.0 / (2.0 * L), "gamma <= 1/(2L)")
    rhs = np.full(agg.t.size, (H - 1) * gamma**2 * sigma_sq)
    return _verdict(agg.mean["V"], agg.se["V"], rhs,
                    f"V_t <= (H-1) gamma^2 sigma^2 at {agg.t.size} steps")

