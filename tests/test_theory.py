import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from localsgd import theory, verify
from localsgd.dataio import Regime, generate_synthetic, partition
from localsgd.objective import build_problem, measure_variances, solve_reference
from localsgd.simulator import (AggregateTrace, GradientMode, RunConfig, Sweep, SyncSchedule,
                                r0_sq)
from one_config import run_alone
from signed_data import unsigned_rows
from localsgd.theory import (
    BoundInputs,
    THEOREMS,
    PreconditionError,
    bound,
    check_bound,
    check_run,
    check_vt_bound,
    plan_H,
    plan_gamma,
    planned_gamma,
    theorems_for,
    _verdict,
)


def inputs(**kw):
    base = dict(L=1.0, mu=0.1, gamma=0.25, T=100, H=4, M=2, r0_sq=1.0,
                sigma_sq=1.0, sigma_opt_sq=1.0, sigma_dif_sq=1.0)
    base.update(kw)
    return BoundInputs(**base)


def final(curve):
    """The RHS at the run's last step T."""
    return curve.rhs_at(curve.inputs.T)


@pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
@pytest.mark.parametrize("gamma", [0.0, math.inf])
def test_stepsize_must_be_finite_and_positive(theorem_id, gamma):
    with pytest.raises(PreconditionError, match="gamma must be finite and positive"):
        bound(theorem_id, inputs(gamma=gamma))


@pytest.mark.parametrize("theorem_id, kw", [
    ("WC_IID_UBV", {"gamma": 1e-320}),  # r0^2 / (gamma T) overflows
    ("WC_IID_FS", {"gamma": 1e-320}),
    ("WC_HET_FS", {"gamma": 1e-320}),
    ("SC_IID_UBV", {"sigma_sq": 1e308, "mu": 1e-10}),  # the floor overflows
    ("SC_IID_FS", {"sigma_opt_sq": 1e308, "mu": 1e-10, "H": 1}),
])
def test_a_non_finite_rhs_is_a_failed_precondition(theorem_id, kw):
    # An infinite bound holds vacuously: it is not checked at all.
    with pytest.raises(PreconditionError, match="right-hand side is not finite"):
        bound(theorem_id, inputs(**{"gamma": 0.01, **kw}))


class TestScIdenticalUbv:
    def test_worked_instance(self):
        # Independent transcription: kappa=10 via L=1, mu=0.1; gamma=1/(4L).
        b = inputs()
        expected = 0.975**100 * 1.0 + 0.25 * 1.0 / (0.1 * 2) \
            + 2 * 1.0 * 0.25**2 * (4 - 1) * 1.0 / 0.1
        assert bound("SC_IID_UBV", b).rhs_at(100) == pytest.approx(
            expected, rel=1e-12)

    def test_noise_free_h1_is_pure_contraction(self):
        b = inputs(H=1, sigma_sq=0.0)
        curve = bound("SC_IID_UBV", b)
        for t in (0, 1, 17, 100):
            assert curve.rhs_at(t) == pytest.approx(0.975**t, rel=1e-12)

    def test_floor_terms(self):
        # As t grows the contraction dies and only the floor remains.
        b = inputs(T=10_000_000)
        curve = bound("SC_IID_UBV", b)
        floor = 0.25 / (0.1 * 2) + 2 * 0.25**2 * 3 / 0.1
        assert curve.rhs_at(10_000_000) == pytest.approx(floor, rel=1e-9)

    def test_requires_mu_positive(self):
        with pytest.raises(PreconditionError, match="mu"):
            bound("SC_IID_UBV", inputs(mu=0.0))

    def test_rejects_large_gamma(self):
        with pytest.raises(PreconditionError, match="1/\\(4L\\)"):
            bound("SC_IID_UBV", inputs(gamma=0.3))

    def test_planner_gamma_accepted_at_limit(self):
        bound("SC_IID_UBV", inputs(gamma=1.0 / 4.0))


class TestWcIdenticalUbv:
    def test_worked_instance(self):
        b = inputs(mu=None)
        expected = 2 * 1.0 / (0.25 * 100) + 2 * 0.25 * 1.0 / 2 \
            + 4 * 0.25**2 * 1.0 * 1.0 * 3
        assert final(bound("WC_IID_UBV", b)) == pytest.approx(expected, rel=1e-12)

    def test_h1_sigma0(self):
        b = inputs(H=1, sigma_sq=0.0)
        assert final(bound("WC_IID_UBV", b)) == pytest.approx(
            2 / (0.25 * 100), rel=1e-12)

    def test_doubling_T_halves_only_first_term(self):
        b1 = inputs(sigma_sq=0.0)
        b2 = inputs(sigma_sq=0.0, T=200)
        assert final(bound("WC_IID_UBV", b2)) == pytest.approx(
            final(bound("WC_IID_UBV", b1)) / 2, rel=1e-12)

    def test_uses_tail_average(self):
        assert bound("WC_IID_UBV", inputs()).theorem.convention == "tail"


class TestScIdenticalFs:
    def test_worked_instance(self):
        gamma = 1.0 / (0.1 + 8 * 1.0 * 3)  # the H-dependent stepsize limit
        b = inputs(gamma=gamma, sigma_opt_sq=0.5)
        t = 8
        expected = (1 - gamma * 0.1) ** t * 1.0 \
            + 2 * gamma * 0.5 / (0.1 * 2) + 4 * 0.5 * gamma**2 * 3 * 1.0 / 0.1
        assert bound("SC_IID_FS", b).rhs_at(t) == pytest.approx(expected, rel=1e-12)

    def test_sync_only_flag(self):
        gamma = 1.0 / (0.1 + 8 * 3)
        assert bound("SC_IID_FS", inputs(gamma=gamma)).theorem.sync_only

    def test_interpolation_pure_contraction(self):
        gamma = 1.0 / (0.1 + 8 * 3)
        b = inputs(gamma=gamma, sigma_opt_sq=0.0)
        curve = bound("SC_IID_FS", b)
        assert curve.rhs_at(40) == pytest.approx((1 - gamma * 0.1) ** 40, rel=1e-12)

    def test_stepsize_pair_of_limits(self):
        # for H=1 the binding limit is 1/(4L(1+2/M))
        b = inputs(H=1, gamma=1.0 / (4 * (1 + 2 / 2)) + 1e-3)
        with pytest.raises(PreconditionError):
            bound("SC_IID_FS", b)


class TestWcIdenticalFs:
    def test_worked_instance(self):
        gamma = 1.0 / (10 * 1.0 * 4)
        b = inputs(gamma=gamma, sigma_opt_sq=2.0)
        expected = 10 * 1.0 / (gamma * 100) + 20 * gamma * 2.0 / 2 \
            + 40 * gamma**2 * 1.0 * 2.0 * 3
        assert final(bound("WC_IID_FS", b)) == pytest.approx(expected, rel=1e-12)

    def test_needs_two_nodes(self):
        with pytest.raises(PreconditionError, match="M >= 2"):
            bound("WC_IID_FS", inputs(M=1, gamma=0.01))

    def test_sigma0(self):
        gamma = 1.0 / 40
        b = inputs(gamma=gamma, sigma_opt_sq=0.0)
        assert final(bound("WC_IID_FS", b)) == pytest.approx(
            10 / (gamma * 100), rel=1e-12)


class TestWcHeterogeneous:
    def test_worked_instance(self):
        gamma = 1.0 / (8 * 1.0 * 3)
        b = inputs(gamma=gamma, sigma_dif_sq=0.7)
        expected = 4 * 1.0 / (gamma * 100) + 20 * gamma * 0.7 / 2 \
            + 16 * gamma**2 * 1.0 * 9 * 0.7
        assert final(bound("WC_HET_FS", b)) == pytest.approx(expected, rel=1e-12)

    def test_interpolation_any_H_converges(self):
        # sigma_dif = 0 keeps only 4 r0^2/(gamma T) for any admissible H.
        for H, T in ((1, 64), (64, 64)):
            gamma = 1.0 / 4.0 if H == 1 else 1.0 / (8 * (H - 1))
            b = inputs(H=H, T=T, gamma=gamma, sigma_dif_sq=0.0)
            assert final(bound("WC_HET_FS", b)) == pytest.approx(
                4 / (gamma * T), rel=1e-12)

    def test_h1_drops_quadratic_term(self):
        b = inputs(H=1, gamma=0.25, sigma_dif_sq=0.7)
        expected = 4 / (0.25 * 100) + 20 * 0.25 * 0.7 / 2
        assert final(bound("WC_HET_FS", b)) == pytest.approx(expected, rel=1e-12)

    def test_h1_accepts_quarter_L(self):
        bound("WC_HET_FS", inputs(H=1, gamma=0.25))

    def test_uses_head_average(self):
        b = inputs(H=1, gamma=0.25)
        assert bound("WC_HET_FS", b).theorem.convention == "head"

    def test_stepsize_reading(self):
        with pytest.raises(PreconditionError):
            bound("WC_HET_FS", inputs(H=4, gamma=1.0 / (8 * 2)))


class TestMonotonicity:
    def test_rhs_monotone_in_H_sigma_r0(self):
        gamma = 1e-3
        for tid, sig in (("SC_IID_UBV", "sigma_sq"),
                         ("WC_IID_UBV", "sigma_sq"),
                         ("SC_IID_FS", "sigma_opt_sq"),
                         ("WC_IID_FS", "sigma_opt_sq"),
                         ("WC_HET_FS", "sigma_dif_sq")):
            prev = None
            for H in (1, 2, 4, 8):
                b = inputs(gamma=gamma, H=H, M=4)
                val = final(bound(tid, b))
                if prev is not None:
                    assert val >= prev
                prev = val
            lo = final(bound(tid, inputs(gamma=gamma, M=4, **{sig: 0.5})))
            hi = final(bound(tid, inputs(gamma=gamma, M=4, **{sig: 2.0})))
            assert hi >= lo
            lo = final(bound(tid, inputs(gamma=gamma, M=4, r0_sq=0.5)))
            hi = final(bound(tid, inputs(gamma=gamma, M=4, r0_sq=2.0)))
            assert hi >= lo

    def test_wc_first_term_decreases_in_T(self):
        gamma = 1e-3
        for tid in ("WC_IID_UBV", "WC_IID_FS", "WC_HET_FS"):
            vals = [final(bound(tid, inputs(gamma=gamma, M=4, sigma_sq=0.0, sigma_opt_sq=0.0,
                              sigma_dif_sq=0.0, T=T)))
                    for T in (100, 1000, 10000)]
            assert vals[0] > vals[1] > vals[2]


class TestTerms:
    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_the_rhs_is_its_three_terms_added_in_order(self, theorem_id):
        """Bit for bit, as the one-lambda RHS of each row gave it."""
        thm = THEOREMS[theorem_id]
        assert tuple(name for name, _ in thm.terms) == ("initial", "noise", "drift")
        gen = np.random.Generator(np.random.Philox(key=33))
        for _ in range(300):
            L = float(10.0 ** gen.uniform(-2, 2))
            T = int(gen.integers(1, 10**6))
            sigma = float(10.0 ** gen.uniform(-6, 4)) if gen.random() < 0.9 else 0.0
            b = inputs(L=L, mu=L / float(10.0 ** gen.uniform(0, 4)),
                       gamma=float(10.0 ** gen.uniform(-6, 0)) / (4 * L), T=T,
                       H=int(gen.integers(1, T + 1)), M=int(gen.integers(1, 65)),
                       r0_sq=float(10.0 ** gen.uniform(-6, 4)),
                       sigma_sq=sigma, sigma_opt_sq=sigma, sigma_dif_sq=sigma)
            for t in (0, 1, T // 3, T):
                initial, noise, drift = (term(b, t) for _, term in thm.terms)
                assert thm.rhs(b, t).hex() == (initial + noise + drift).hex()

    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_terms_at_refuses_the_steps_rhs_at_refuses(self, theorem_id):
        curve = bound(theorem_id, inputs(gamma=0.01))
        for t in (-1, 0, 1, 50, 99, 100, 101):
            try:
                rhs = curve.rhs_at(t)
            except ValueError as e:
                with pytest.raises(ValueError) as refused:
                    curve.terms_at(t)
                assert str(refused.value) == str(e)
                continue
            terms = curve.terms_at(t)
            assert list(terms) == ["initial", "noise", "drift"]
            assert rhs == terms["initial"] + terms["noise"] + terms["drift"]

    @staticmethod
    def largest(curve):
        name, share = verify._largest_term(curve).split()
        return name, float(share.removesuffix("%"))

    def test_heterogeneous_bound_rests_on_the_initial_term(self):
        """heterogeneous-bound's run: n=240, M=4, T=256, planned H=2."""
        ds = generate_synthetic(240, 15, seed=107, sort_by_label=True, label_noise=0.05)
        p = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS))
        ref = solve_reference(p, 1e-12)
        vr = measure_variances(p, ref, batch=1)
        H = plan_H("wc-heterogeneous", 256, 4)
        gamma = planned_gamma("wc-heterogeneous", p, T=256, H=H)
        curve = bound("WC_HET_FS", BoundInputs(
            L=p.L_component, gamma=gamma, T=256, H=H, M=4, r0_sq=r0_sq(ref),
            sigma_dif_sq=vr.sigma_dif_sq))
        name, share = self.largest(curve)
        assert name == "initial" and share >= 99.9

    def test_the_drift_takes_over_the_distance_bound_as_H_grows(self):
        """sc-identical-distance-bound's problem at T=5000."""
        ds = generate_synthetic(120, 20, seed=105)
        p = build_problem(ds, partition(ds, 4, Regime.IDENTICAL), lam=0.1)
        ref = solve_reference(p, 1e-11)
        for H, expected in ((1, "noise"), (4, "drift"), (16, "drift")):
            curve = bound("SC_IID_UBV", BoundInputs(
                L=p.L, gamma=1.0 / (4 * p.L), T=5000, H=H, M=4, r0_sq=r0_sq(ref),
                mu=p.mu, sigma_sq=1.0))
            assert self.largest(curve)[0] == expected

    def test_the_distance_criterion_prints_the_ratio_at_T(self, monkeypatch):
        """sc-identical-distance-bound checks both uniform-variance rows of
        each H, SC_IID_UBV and WC_IID_UBV. The distance row's max emp/bound
        ratio is at t=0, so its ratio at T is printed beside it: mean
        dist_sq at T over the RHS at T, below the max at H=4."""
        real, runs = theory.check_run, []

        def spy(p, cfg, ref, vr, agg):
            checked, skipped = real(p, cfg, ref, vr, agg)
            runs.append((checked, skipped, agg))
            return checked, skipped

        monkeypatch.setattr(theory, "check_run", spy)
        result = verify.criterion_sc_identical_ubv("fast")
        assert result.status == verify.PASS
        assert re.findall(r"H=(\d+) (\w+) ok", result.details) == [
            (H, theorem_id) for H in ("1", "4", "16") for theorem_id in ("SC_IID_UBV", "WC_IID_UBV")]
        printed = re.findall(r"SC_IID_UBV ok ([\d.]+) \(([\d.]+) at T\)", result.details)
        assert len(printed) == len(runs) == 3
        for (largest, at_T), (checked, skipped, agg) in zip(printed, runs):
            curve, v = checked["SC_IID_UBV"]
            T = curve.inputs.T
            assert not skipped and int(agg.t[-1]) == T
            assert largest == f"{v.slack_ratio:.3g}"
            assert at_T == f"{agg.mean['dist_sq'][-1] / curve.rhs_at(T):.3g}"
            curve, v = checked["WC_IID_UBV"]
            assert f"H={curve.inputs.H} WC_IID_UBV ok {v.slack_ratio:.3g} " in result.details
        largest, at_T = printed[1]
        assert float(at_T) < float(largest)


class TestPlanners:
    def test_plan_H_heterogeneous_example(self):
        assert plan_H("wc-heterogeneous", 256, 4) == 2

    def test_plan_H_sc_below_threshold(self):
        assert plan_H("sc-identical", 30, 4, kappa=10.0) == 1

    def test_plan_H_wc_identical_example(self):
        assert plan_H("wc-identical", 10**6, 10) == 32

    def test_plan_H_monotone(self):
        for rule, extra in (("sc-identical", {"kappa": 5.0}),
                            ("wc-identical", {}), ("wc-heterogeneous", {})):
            for M in (1, 2, 4, 8):
                vals = [plan_H(rule, T, M, **extra) for T in (10, 100, 10**4, 10**6)]
                assert vals == sorted(vals)
            for T in (100, 10**5):
                vals = [plan_H(rule, T, M, **extra) for M in (1, 2, 4, 16)]
                assert vals == sorted(vals, reverse=True)

    def test_plan_H_always_at_least_one(self):
        assert plan_H("wc-heterogeneous", 1, 100) == 1

    @pytest.mark.parametrize("theorem_id, h_rule, ratio", [
        ("WC_HET_FS", "wc-heterogeneous", 0.1),
        ("WC_IID_UBV", "wc-identical", 0.5),
        ("WC_IID_FS", "wc-identical", 0.2),
    ])
    def test_the_planned_H_and_gamma_fix_the_drift_to_noise_ratio(self, theorem_id,
                                                                  h_rule, ratio):
        # The paper's optimal number of local steps read off the table: with
        # H - 1 at the H rule's ratio (unfloored) and gamma at the row's
        # planner, drift/noise does not move with T or M. It moves if
        # _PLAN_H and the row's terms or planner drift apart.
        thm = THEOREMS[theorem_id]
        terms = dict(thm.terms)
        _, ratio_of = theory._PLAN_H[h_rule]
        L = 3.7
        for T in (10**3, 10**5, 10**7, 10**9):
            for M in (2, 8, 64):
                H = 1.0 + ratio_of(T, M, None)
                gamma, _ = thm.plan(SimpleNamespace(L=L, mu=None, M=M, T=T, H=H,
                                                    t_param=None))
                b = BoundInputs(L=L, gamma=gamma, T=T, H=H, M=M, r0_sq=1.0,
                                **{thm.sigma: 1.0})
                assert terms["drift"](b, T) / terms["noise"](b, T) == pytest.approx(
                    ratio, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rule, T, M, kappa", [
        ("wc-heterogeneous", 1, 1, None),
        ("sc-identical", 10, 1, 1.0),
        ("sc-identical", 10, 2, 0.25),
        ("wc-identical", 1, 1, None),
    ])
    def test_plan_H_longer_than_the_run_refused(self, rule, T, M, kappa):
        with pytest.raises(PreconditionError, match=f"longer than the run T={T}$"):
            plan_H(rule, T, M, kappa=kappa)

    def test_plan_gamma_refuses_an_infinite_stepsize(self):
        with pytest.raises(PreconditionError, match="not finite: inf"):
            plan_gamma("wc-identical-fs", L=1e-320, M=4, T=400, H=10)

    def test_plan_gamma_wc_ubv_equals_quarter_L_at_M_eq_T(self):
        pg = plan_gamma("wc-identical-ubv", L=2.0, M=64, T=64)
        assert pg.gamma == pytest.approx(1.0 / (4 * 2.0), rel=1e-12)

    def test_plan_gamma_wc_fs_worked(self):
        pg = plan_gamma("wc-identical-fs", L=1.0, M=4, T=400, H=10)
        assert pg.gamma == pytest.approx(0.01, rel=1e-12)
        assert pg.gamma <= 1.0 / (10 * 1.0 * 10) * (1 + 1e-12)

    def test_plan_gamma_sc_ubv_requires_positive_t(self):
        with pytest.raises(PreconditionError):
            plan_gamma("sc-identical-ubv", L=1.0, mu=0.1, t_param=0.0)

    def test_plan_gamma_wc_ubv_requires_T_ge_M(self):
        with pytest.raises(PreconditionError):
            plan_gamma("wc-identical-ubv", L=1.0, M=100, T=50)

    def test_plan_gamma_sc_fs_rejects_H_above_t(self):
        with pytest.raises(PreconditionError):
            plan_gamma("sc-identical-fs", L=1.0, mu=0.1, M=4, H=8, t_param=4.0)

    def test_suggested_T(self):
        pg = plan_gamma("sc-identical-ubv", L=1.0, mu=0.1, t_param=2.0)
        a = 4 * 10.0 + 2.0
        assert pg.suggested_T == math.ceil(2 * a * math.log(a))

    def test_unknown_rules(self):
        with pytest.raises(ValueError, match="unknown"):
            plan_H("nope", 10, 2)
        with pytest.raises(ValueError, match="unknown"):
            plan_gamma("nope", L=1.0)


def fake_agg(t, synced, dist_mean, dist_se, subopt_bar=(0.0, 0.0),
             V=None, gradsq=None, head=None):
    t = np.asarray(t)
    z = np.zeros_like(np.asarray(dist_mean, dtype=float))
    mean = {
        "dist_sq": np.asarray(dist_mean, dtype=float),
        "V": z if V is None else np.asarray(V, dtype=float),
        "subopt": z,
        "grad_norm_sq": z if gradsq is None else np.asarray(gradsq, dtype=float),
    }
    se = {k: np.zeros_like(v) if dist_se is None else
          (np.asarray(dist_se, dtype=float) if k == "dist_sq" else np.zeros_like(v))
          for k, v in mean.items()}
    return AggregateTrace(
        t=t, synced=np.asarray(synced, dtype=bool), mean=mean, se=se,
        bar_subopt_tail=subopt_bar,
        bar_subopt_head=subopt_bar if head is None else head,
        seeds=tuple(range(10)), metadata={})


def check_grad_norm_bound(agg: AggregateTrace, L: float, M: int,
                          sigma_dif_sq: float):
    """Heterogeneous averaged-gradient bound: mean ||g_t||^2 <= 2 L^2 V_t
    + 8 L (f(xhat_t) - f*) + 4 sigma_dif^2 / M, compared at recorded steps
    with gradients; L is the almost-sure component constant.

    The RHS is itself estimated from the trace, so its standard errors are
    added to the slack alongside the LHS one.
    """
    has_grad = ~np.isnan(agg.mean["grad_norm_sq"])
    if not np.any(has_grad):
        raise ValueError("trace has no recorded gradient norms")
    emp = agg.mean["grad_norm_sq"][has_grad]
    rhs = (2.0 * L**2 * agg.mean["V"][has_grad]
           + 8.0 * L * agg.mean["subopt"][has_grad]
           + 4.0 * sigma_dif_sq / M)
    se = (agg.se["grad_norm_sq"][has_grad]
          + 2.0 * L**2 * agg.se["V"][has_grad]
          + 8.0 * L * agg.se["subopt"][has_grad])
    return _verdict(emp, se, rhs,
                    f"||g_t||^2 bound at {int(has_grad.sum())} steps")


class TestCheckBound:
    def test_distance_bound_holds_with_se_slack(self):
        b = inputs(T=4, H=1, sigma_sq=0.0)
        curve = bound("SC_IID_UBV", b)
        rhs = [curve.rhs_at(t) for t in range(5)]
        # empirical mean sits above the RHS by less than 3 SE: still holds
        agg = fake_agg(range(5), [False] + [True] * 4,
                       [r + 0.02 for r in rhs], [0.01] * 5)
        v = check_bound(curve, agg)
        assert v.holds and v.compared == 5

    def test_distance_bound_fails_beyond_se(self):
        b = inputs(T=4, H=1, sigma_sq=0.0)
        curve = bound("SC_IID_UBV", b)
        rhs = [curve.rhs_at(t) for t in range(5)]
        agg = fake_agg(range(5), [False] + [True] * 4,
                       [r + 0.05 for r in rhs], [0.01] * 5)
        v = check_bound(curve, agg)
        assert not v.holds and v.margin < 0

    def test_sync_only_compares_sync_steps(self):
        gamma = 1.0 / (0.1 + 8 * 1.0)
        b = inputs(T=4, H=2, gamma=gamma)
        curve = bound("SC_IID_FS", b)
        # huge dist at a non-sync step must not be compared
        agg = fake_agg([0, 1, 2, 3, 4], [False, False, True, False, True],
                       [0.5, 100.0, 0.5, 100.0, 0.5], [0.0] * 5)
        v = check_bound(curve, agg)
        assert v.holds and v.compared == 2

    def test_subopt_bound_at_T_with_convention(self):
        gamma = 0.25
        b = inputs(H=1, gamma=gamma, sigma_dif_sq=0.0, T=100)
        curve = bound("WC_HET_FS", b)
        limit = 4 / (gamma * 100)
        agg = fake_agg([0, 100], [False, True], [0.0, 0.0], [0.0, 0.0],
                       subopt_bar=(limit * 2, 0.0), head=(limit * 0.5, 0.0))
        v = check_bound(curve, agg)  # uses the head average
        assert v.holds

    def test_requires_matching_T(self):
        b = inputs(T=50, H=1, sigma_sq=0.0)
        curve = bound("SC_IID_UBV", b)
        agg = fake_agg([0, 100], [False, True], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="T="):
            check_bound(curve, agg)

    def test_checker_refuses_precondition_violation(self):
        # gamma = 1/L with large H: construction refuses, no verdict exists.
        with pytest.raises(PreconditionError):
            bound("SC_IID_UBV", inputs(gamma=1.0, H=64))

    def test_wc_requires_sync_at_T(self):
        gamma = 1.0 / 40
        b = inputs(gamma=gamma, sigma_opt_sq=1.0, T=100, H=4)
        curve = bound("WC_IID_FS", b)
        agg = fake_agg([0, 100], [False, False], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="synchronization"):
            check_bound(curve, agg)


class TestDiagnosticChecks:
    def test_lemma_vt_flat_bound(self):
        agg = fake_agg([0, 1, 2], [False, False, True], [0.0] * 3, [0.0] * 3,
                       V=[0.0, 0.5, 0.0])
        v = check_vt_bound(agg, gamma=1.0, H=2, sigma_sq=1.0, L=0.5)
        assert v.holds  # bound is (H-1) gamma^2 sigma^2 = 1

    def test_lemma_vt_violation(self):
        agg = fake_agg([0, 1], [False, True], [0.0] * 2, [0.0] * 2,
                       V=[0.0, 2.0])
        v = check_vt_bound(agg, gamma=1.0, H=2, sigma_sq=1.0, L=0.5)
        assert not v.holds

    def test_lemma_vt_checks_stepsize(self):
        agg = fake_agg([0], [False], [0.0], [0.0])
        with pytest.raises(PreconditionError):
            check_vt_bound(agg, gamma=1.0, H=2, sigma_sq=1.0, L=1.0)

    def test_grad_norm_bound(self):
        agg = fake_agg([0, 1], [False, True], [0.0, 0.0], [0.0, 0.0],
                       V=[0.0, 0.1], gradsq=[1.0, np.nan])
        # RHS at t=0: 2 L^2 * 0 + 8 L * 0 + 4 sigma_dif^2 / M
        v = check_grad_norm_bound(agg, L=1.0, M=2, sigma_dif_sq=1.0)
        assert v.holds and v.compared == 1


class TestRuntimeDiagnosticsIntegration:
    """The appendix gradient-norm diagnostics checked against real runs."""

    def test_heterogeneous_grad_norm_bound_on_run(self):
        from localsgd.dataio import Regime, generate_synthetic, partition
        from localsgd.objective import build_problem, measure_variances, solve_reference
        from localsgd.simulator import GradientMode, RunConfig, SyncSchedule
        ds = generate_synthetic(160, 8, seed=77, sort_by_label=True)
        p = build_problem(ds, partition(ds, 4, Regime.HETEROGENEOUS), lam=0.02)
        ref = solve_reference(p, 1e-11)
        vr = measure_variances(p, ref, batch=1)
        cfg = RunConfig(M=4, schedule=SyncSchedule.uniform(6, 48),
                        gamma=1.0 / (8 * p.L_component),
                        gradient_mode=GradientMode.STOCHASTIC, record_every=1)
        agg = run_alone(p, cfg, ref, list(range(64)))
        v = check_grad_norm_bound(agg, L=p.L_component, M=4,
                                  sigma_dif_sq=vr.sigma_dif_sq)
        assert v.holds, v.details

    def test_individual_grad_second_moment_bound(self):
        # E||g_t^m||^2 <= 4 L D_f(x, x*) + 2 sigma_m^2 for identical data,
        # with the exact second moment enumerated instead of sampled.
        from scipy.special import expit
        from localsgd.dataio import Regime, generate_synthetic, partition
        from localsgd.numkit import RngStream
        from localsgd.objective import (build_problem, loss, measure_variances,
                                        solve_reference)
        ds = generate_synthetic(120, 6, seed=78)
        p = build_problem(ds, partition(ds, 3, Regime.IDENTICAL), lam=0.03)
        ref = solve_reference(p, 1e-11)
        vr = measure_variances(p, ref, batch=1)
        A, y = unsigned_rows(ds), ds.labels
        gen = RngStream(seed=79).generator()
        for _ in range(50):
            x = ref.x_star + gen.standard_normal(p.dim) * gen.uniform(0, 3)
            # every node draws one sample uniformly from the whole dataset
            grads = (-y * expit(-y * (A @ x)))[:, None] * A + p.lam * x
            lhs = float(np.mean(np.sum(grads**2, axis=1)))
            d_f = loss(p, x) - ref.f_star
            rhs = 4 * p.L_component * d_f + 2 * vr.per_node_sigma_sq[0]
            assert lhs <= rhs * (1 + 1e-9)

    def test_vt_lemma_on_run(self):
        from localsgd.dataio import Regime, generate_synthetic, partition
        from localsgd.objective import build_problem, solve_reference
        from localsgd.simulator import GradientMode, RunConfig, SyncSchedule
        ds = generate_synthetic(100, 6, seed=80)
        p = build_problem(ds, partition(ds, 4, Regime.IDENTICAL), lam=0.05)
        ref = solve_reference(p, 1e-10)
        gamma = 1.0 / (2 * p.L)
        cfg = RunConfig(M=4, schedule=SyncSchedule.uniform(8, 40), gamma=gamma,
                        gradient_mode=GradientMode.INJECTED_NOISE,
                        noise_sigma=0.7, record_every=1)
        agg = run_alone(p, cfg, ref, list(range(64)))
        v = check_vt_bound(agg, gamma, 8, 0.7**2, L=p.L)
        assert v.holds, v.details


class TestCheckRun:
    """check_run is the one path from a run to its verdicts, `run`'s and
    the acceptance criteria's."""

    @pytest.fixture(scope="class", params=list(Regime), ids=lambda r: r.value)
    def setup(self, request):
        ds = generate_synthetic(80, 5, seed=81, sort_by_label=True)
        p = build_problem(ds, partition(ds, 4, request.param), lam=0.05)
        ref = solve_reference(p, 1e-11)
        return p, ref, measure_variances(p, ref, batch=1)

    @staticmethod
    def run(p, ref, mode, gamma):
        cfg = RunConfig(M=4, schedule=SyncSchedule.uniform(4, 40), gamma=gamma,
                        gradient_mode=mode, noise_sigma=0.5)
        return cfg, run_alone(p, cfg, ref, [0, 1])

    # At 1/(4 L_component) only the uniform-variance rows admit the
    # stepsize; at 1/(40 L_component) every row does.
    @pytest.mark.parametrize("scale", [4, 40])
    @pytest.mark.parametrize("mode", list(GradientMode), ids=lambda m: m.value)
    def test_every_row_made_for_the_run_is_checked_or_skipped(self, setup, mode, scale):
        p, ref, vr = setup
        cfg, agg = self.run(p, ref, mode, 1.0 / (scale * p.L_component))
        checked, skipped = check_run(p, cfg, ref, vr, agg)
        ids = [thm.id for thm in theorems_for(p.part.regime, mode)]
        assert sorted([*checked, *skipped], key=ids.index) == ids
        assert list(checked) == [i for i in ids if i in checked]
        assert list(skipped) == [i for i in ids if i in skipped]
        for theorem_id, (curve, v) in checked.items():
            assert curve.theorem is THEOREMS[theorem_id]
            assert v == check_bound(curve, agg)
        for theorem_id, why in skipped.items():
            assert scale == 4 and THEOREMS[theorem_id].sigma != "sigma_sq"
            assert why.startswith("stepsize")

    def test_verify_gets_the_verdict_or_the_skip_reason(self, setup):
        # At 1/L_component gamma is above every finite-sum limit, so every
        # row is skipped, and the criterion fails naming each reason; at
        # 1/(40 L_component) every row is checked, and the criterion holds
        # iff every verdict does.
        p, ref, vr = setup
        for scale in (1, 40):
            cfg, agg = self.run(p, ref, GradientMode.STOCHASTIC, 1.0 / (scale * p.L_component))
            checked, skipped = check_run(p, cfg, ref, vr, agg)
            ok, details = verify._check_sweep(Sweep(p, [cfg], ref, [0, 1]), vr)
            assert len(re.findall(r"H=4 [A-Z_]+ ", details)) == len(checked) + len(skipped) > 0
            for theorem_id, why in skipped.items():
                assert f"H=4 {theorem_id} not checked: {why}" in details
            for theorem_id, (curve, v) in checked.items():
                verdict = "ok" if v.holds else "VIOLATED"
                assert f"H=4 {theorem_id} {verdict} {v.slack_ratio:.3g}" in details
            assert bool(skipped) == (scale == 1)
            assert ok == (not skipped and all(v.holds for _, v in checked.values()))



def _sync_only_distance_curve():
    return bound("SC_IID_FS", inputs(T=4, H=2, gamma=1.0 / (0.1 + 8 * 1.0)))


# Refusals of the library: each row is a call, the error it must raise and
# its message.
_REFUSALS = [
    pytest.param(lambda: inputs(sigma_sq=float("nan")).require("sigma_sq"), PreconditionError,
                 "bound needs a finite value for sigma_sq", id="non-finite-input"),
    pytest.param(lambda: inputs(mu=None).require("mu"), PreconditionError,
                 "bound needs a finite value for mu", id="missing-input"),
    pytest.param(lambda: inputs(L=-1.0).require(), PreconditionError,
                 "L must be finite and nonnegative", id="negative-L"),
    pytest.param(lambda: inputs(r0_sq=-1.0).require(), PreconditionError,
                 "r0_sq must be finite and nonnegative", id="negative-r0"),
    *(pytest.param(lambda name=name: inputs(**{name: 0}).require(), PreconditionError,
                   "T, H and M must be >= 1", id=f"{name}-0") for name in ("T", "H", "M")),
    pytest.param(lambda: plan_gamma("wc-heterogeneous", L=0.0, M=2, T=100, H=4),
                 PreconditionError, "L must be positive", id="plan-L-0"),
    pytest.param(lambda: check_bound(_sync_only_distance_curve(),
                                     fake_agg(range(5), [False] * 5, [0.5] * 5, [0.0] * 5)),
                 ValueError, "no comparable steps recorded", id="no-step-to-compare"),
]


@pytest.mark.parametrize("call, error, message", _REFUSALS)
def test_refusal_names_its_cause(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as e:
        call()
    assert type(e.value) is error
