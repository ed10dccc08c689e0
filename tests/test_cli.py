import errno
import gzip
import io
import json
import math
import os
import string
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from localsgd import cli, objective, theory, verify
from localsgd.dataio import generate_synthetic, sha256_of

from libsvm_text import to_libsvm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(argv):
    return cli.main(argv)


class TestPlan:
    def test_plan_h(self, capsys):
        assert run_cli(["plan", "--what", "h", "--rule", "wc-heterogeneous",
                        "--T", "256", "--M", "4"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_plan_gamma(self, capsys):
        assert run_cli(["plan", "--what", "gamma", "--rule", "wc-identical-fs",
                        "--L", "1.0", "--M", "4", "--T", "400", "--H", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0.01") and "1/(10LH)" in out

    def test_plan_gamma_bad_hypothesis_exits_2(self, capsys):
        assert run_cli(["plan", "--what", "gamma", "--rule", "wc-identical-ubv",
                        "--L", "1.0", "--M", "100", "--T", "10"]) == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as e:
            run_cli(["plan", "--what", "nonsense", "--rule", "x"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["gamma", "wc-identical-ubv", "--L", "1", "--M", "0", "--T", "0"], "--M"),
        (["gamma", "wc-identical-ubv", "--L", "1", "--M", "4", "--T", "0"], "--T"),
        (["gamma", "wc-heterogeneous", "--L", "1", "--M", "-4", "--T", "100", "--H", "1"],
         "--M"),
        (["gamma", "wc-heterogeneous", "--L", "1", "--M", "4", "--T", "100", "--H", "0"],
         "--H"),
        (["h", "sc-identical", "--T", "10", "--M", "2", "--kappa", "nan"], "--kappa"),
        (["gamma", "wc-identical-fs", "--L", "nan", "--M", "4", "--T", "400"], "--L"),
        (["gamma", "wc-identical-fs", "--L", "inf", "--M", "4", "--T", "400"], "--L"),
        (["gamma", "sc-identical-ubv", "--L", "1", "--mu", "0", "--M", "4", "--T", "400"],
         "--mu"),
        (["gamma", "sc-identical-ubv", "--L", "1", "--mu", "0.1", "--M", "4", "--T", "400",
          "--t-param", "-1"], "--t-param"),
    ])
    def test_flag_outside_its_domain_is_a_usage_error(self, capsys, argv, flag):
        what, rule, *rest = argv
        with pytest.raises(SystemExit) as e:
            run_cli(["plan", "--what", what, "--rule", rule, *rest])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--what", "gamma", "--rule", "nope", "--L", "1.0"],
        ["--what", "h", "--rule", "sc-identical", "--T", "100", "--M", "4"],
        ["--what", "h", "--rule", "wc-identical", "--M", "4"],
        ["--what", "h", "--rule", "wc-heterogeneous", "--T", "1", "--M", "1"],
        ["--what", "gamma", "--rule", "wc-identical-fs", "--L", "1e-320", "--M", "4",
         "--T", "400", "--H", "10"],
    ])
    def test_bad_request_exits_2_with_one_line(self, capsys, argv):
        assert run_cli(["plan", *argv]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, why", [
        (["--what", "h", "--rule", "sc-identical", "--T", "10", "--M", "2",
          "--kappa", "1e-320"], "T/(kappa M) is not finite: inf"),
        (["--what", "gamma", "--rule", "sc-identical-fs", "--L", "1e300", "--mu", "1e-300",
          "--M", "2", "--H", "1", "--t-param", "1"], "the suggested T is not finite: inf"),
    ])
    def test_plan_that_overflows_exits_2_naming_the_quantity(self, capsys, argv, why):
        assert run_cli(["plan", *argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and why in err[0]

    @pytest.mark.parametrize("argv, named", [
        (["h", "wc-identical", "--T", str(10**400), "--M", "4"], "needs T within"),
        (["h", "wc-heterogeneous", "--T", str(10**400), "--M", "4"], "needs T within"),
        (["h", "sc-identical", "--kappa", "2", "--T", str(10**400), "--M", "4"],
         "needs T within"),
        # M fits a float, M^{3/2} does not
        (["h", "wc-identical", "--T", "4", "--M", str(10**206)], "needs M^(3/2) within"),
        (["gamma", "wc-identical-ubv", "--L", "1", "--M", "4", "--T", str(10**400)],
         "needs T within"),
        (["gamma", "wc-heterogeneous", "--L", "1", "--M", "4", "--T", str(10**400),
          "--H", "2"], "needs T within"),
        (["gamma", "sc-identical-fs", "--L", "1", "--mu", "0.5", "--M", str(10**400),
          "--H", "1", "--t-param", "2"], "needs M within"),
    ], ids=["h-wc-identical-T", "h-wc-heterogeneous-T", "h-sc-identical-T",
            "h-wc-identical-M", "gamma-wc-identical-ubv-T", "gamma-wc-heterogeneous-T",
            "gamma-sc-identical-fs-M"])
    def test_integer_past_float_range_exits_2_naming_it(self, capsys, argv, named):
        what, rule, *rest = argv
        assert run_cli(["plan", "--what", what, "--rule", rule, *rest]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0]

    def test_python_m_localsgd_runs_the_cli(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-m", "localsgd", "plan", "--what", "h",
                               "--rule", "wc-heterogeneous", "--T", "256", "--M", "4"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "2"


class TestVariancesCmd:
    def test_sweep_csv(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = run_cli([
            "variances", "--source", "synthetic", "--out-dir", out,
        ])
        assert code == 0
        path = os.path.join(out, "variances.csv")
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "dataset,M,batch,sigma_opt_sq,sigma_dif_sq"
        rows = [l.split(",") for l in lines[1:]]
        # M=1 rows: sigma_opt == sigma_dif
        for r in rows:
            if r[1] == "1":
                assert float(r[3]) == pytest.approx(float(r[4]), abs=1e-12)
        # increasing batch decreases both (pick M=4 rows)
        by_batch = {r[2]: (float(r[3]), float(r[4])) for r in rows if r[1] == "4"}
        assert by_batch["4"][0] < by_batch["1"][0]
        assert by_batch["16"][1] < by_batch["4"][1]
        # exhaustive sigma_opt collapses to ~0, sigma_dif stays positive
        assert by_batch["full"][0] <= 1e-15


    def test_bad_node_count_exits_2_before_any_solve(self, tmp_path, capsys,
                                                     monkeypatch):
        solves = []

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return objective.solve_reference(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_reference", counting_solve)
        cfg = tmp_path / "variances.ini"
        cfg.write_text((CONFIGS / "variances.ini").read_text().replace(
            "M = 1,2,4,8,20", "M = 1,2,5000"))
        out = tmp_path / "out"
        assert run_cli(["variances", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "[variances] M" in err[0]
        assert solves == [] and not out.exists()

    @pytest.mark.parametrize("flags, ini_lambda", [(["--lam", "1e200"], "1/n"),
                                                    ([], "1e200")])
    def test_lambda_whose_square_overflows_exits_2_before_any_solve(
            self, tmp_path, capsys, monkeypatch, flags, ini_lambda):
        monkeypatch.setattr(cli, "solve_reference", None)  # never reached
        cfg = tmp_path / "variances.ini"
        cfg.write_text((CONFIGS / "variances.ini").read_text().replace(
            "lambda = 1/n", f"lambda = {ini_lambda}"))
        out = tmp_path / "out"
        assert run_cli(["variances", "--config", str(cfg), "--out-dir", str(out), *flags]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: [problem] lambda (--lam): 1e+200 has a square "
                       "that is not finite"]
        assert not out.exists()

    def test_largest_lambda_whose_square_is_finite_runs(self, tmp_path):
        lam = repr(math.sqrt(sys.float_info.max) * (1 - 2**-52))
        assert float(lam) ** 2 < math.inf
        assert run_cli(["variances", "--config", str(CONFIGS / "variances.ini"),
                        "--lam", lam, "--out-dir", str(tmp_path / "out")]) == 0

    def test_flags_it_does_not_read_are_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "out"
        for flag in (["--regime", "identical"], ["--M", "3"], ["--H", "999"],
                     ["--T", "5"], ["--gamma", "7"], ["--seeds", "1:2"],
                     ["--gradient-mode", "full"]):
            with pytest.raises(SystemExit) as e:
                run_cli(["variances", "--config", str(CONFIGS / "variances.ini"),
                         "--out-dir", str(out), *flag])
            assert e.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()


class TestRunCmd:
    def _config(self, tmp_path, extra_run=""):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"""
[data]
source = synthetic
n = 200
d = 8
seed = 3
sort_by_label = true

[problem]
M = 4
regime = heterogeneous

[run]
gradient_mode = stochastic
gamma = wc-heterogeneous
T = 64
H = 1,2
seeds = 0:4
{extra_run}

[output]
dir = {tmp_path / 'out'}
""")
        return str(cfg)

    def test_run_emits_files_and_summary(self, tmp_path, capsys):
        code = run_cli(["run", "--config", self._config(tmp_path)])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "run_H1.csv").exists()
        assert (out / "run_H2.csv").exists()
        assert "sigma_opt_sq" in (out / "variances.txt").read_text()
        assert (out / "variances_per_node.csv").read_text().startswith("node,")
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "H,comm_rounds,final_subopt,final_dist_sq,bounds"
        assert len(summary) == 3
        # heterogeneous + stochastic: the averaged-iterate bound applies
        assert (out / "bound_WC_HET_FS_H2.verdict.txt").exists()
        verdict = (out / "bound_WC_HET_FS_H2.verdict.txt").read_text()
        assert "holds = True" in verdict

    def test_unchecked_guarantee_is_named(self, tmp_path, capsys):
        # gamma = 0.01 meets the H=1 stepsize limit, not the one for H=16
        code = run_cli(["run", "--config", self._config(tmp_path),
                        "--gamma", "0.01", "--H", "1,16"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "not checked" in l]
        assert len(lines) == 1
        assert lines[0].startswith("H=16: WC_HET_FS not checked: stepsize 0.01 "
                                   "violates gamma <= min{1/(4L), 1/(8L(H-1))}")
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[1].endswith(",holds") and summary[2].endswith(",")
        assert not list((tmp_path / "out").glob("bound_*_H16.*"))

    def test_a_violated_bound_exits_1_and_is_reported_everywhere(self, tmp_path, capsys,
                                                                 monkeypatch):
        # check_run calls check_bound through the module, so every verdict
        # of the run reads violated.
        from localsgd import theory
        real = theory.check_bound
        monkeypatch.setattr(theory, "check_bound",
                            lambda curve, agg: replace(real(curve, agg), holds=False))
        out = tmp_path / "out"
        assert run_cli(["run", "--T", "200", "--H", "1,5", "--seeds", "0:3",
                        "--gamma", "wc-identical-fs", "--out-dir", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [l.split(":")[0] for l in lines] == ["H=1", "H=5"]
        assert all(l.endswith(" bounds=VIOLATED") for l in lines)
        summary = (out / "summary.csv").read_text().splitlines()
        assert [row.rsplit(",", 1)[1] for row in summary] == ["bounds", "violated", "violated"]
        for thm in ("SC_IID_FS", "WC_IID_FS"):
            for H in (1, 5):
                verdict = (out / f"bound_{thm}_H{H}.verdict.txt").read_text()
                assert verdict.startswith("holds = False\n")

    def test_reference_solve_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(objective, "_MAX_NEWTON_STEPS", 3)
        assert run_cli(["run", "--config", self._config(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "[solver] tol (--tol)" in err[0]

    def test_tol_below_rounding_floor_exits_2(self, tmp_path, capsys):
        assert run_cli(["run", "--config", self._config(tmp_path), "--tol", "1e-30"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "[solver] tol (--tol)" in err[0] and "stalled" in err[0]
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("value, code", [("false", 0), ("maybe", 2)])
    def test_obsolete_accelerated_key(self, tmp_path, capsys, value, code):
        cfg = self._config(tmp_path, f"[solver]\naccelerated = {value}")
        assert run_cli(["run", "--config", cfg, "--H", "1"]) == code
        captured = capsys.readouterr()
        notice = ("[solver] accelerated is obsolete and has no effect: "
                  "the reference solve is Newton's method")
        if code == 0:
            assert captured.out.splitlines().count(notice) == 1
        else:
            err = captured.err.strip().splitlines()
            assert len(err) == 1 and "[solver] accelerated" in err[0]

    def test_reproducible_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        run_cli(["run", "--config", cfg])
        first = (tmp_path / "out" / "run_H2.csv").read_bytes()
        run_cli(["run", "--config", cfg])
        assert (tmp_path / "out" / "run_H2.csv").read_bytes() == first

    def test_flag_overrides_config(self, tmp_path):
        code = run_cli(["run", "--config", self._config(tmp_path),
                        "--H", "4", "--out-dir", str(tmp_path / "o2")])
        assert code == 0
        assert (tmp_path / "o2" / "run_H4.csv").exists()
        assert not (tmp_path / "o2" / "run_H1.csv").exists()

    def test_single_seed_writes_plain_trace(self, tmp_path):
        code = run_cli(["run", "--config", self._config(tmp_path),
                        "--seeds", "5", "--out-dir", str(tmp_path / "o3")])
        assert code == 0
        text = (tmp_path / "o3" / "run_H1.csv").read_text()
        assert "# seed = 5" in text

    def test_single_seed_says_no_guarantee_is_checked(self, tmp_path, capsys):
        code = run_cli(["run", "--config", self._config(tmp_path),
                        "--gamma", "0.01", "--H", "1,4", "--seeds", "5"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out.count("guarantees not checked: a verdict needs at least 2 seeds") == 1
        assert [l for l in out if l.startswith("H=")] and not any(
            l.endswith(" ") for l in out)
        assert not list((tmp_path / "out").glob("bound_*"))

    @pytest.mark.parametrize("flags, keys", [
        (["--seeds", "3:1"], {}),
        ([], {"seeds": ""}),
        (["--gamma", "foo"], {}),
        ([], {"lambda": "abc"}),
        (["--record-every", "0"], {}),
        (["--tol", "0"], {}),
        (["--tol=-1"], {}),
        (["--lam=-1"], {}),
        (["--seeds=-3:-1"], {}),
        (["--noise-sigma", "nan"], {}),
        (["--seeds=1:2:3"], {}),
        (["--schedule", "weekly"], {}),
    ])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, flags, keys):
        keys = {"lambda": "1/n", "seeds": "0:2", **keys}
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[data]\nn = 50\nd = 3\n[problem]\nlambda = {keys['lambda']}\n"
                       f"[run]\nT = 8\nH = 1\nseeds = {keys['seeds']}\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        assert run_cli(["run", "--config", str(cfg), *flags]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flags, theorems", [
        (["--gamma", "0"], ["WC_HET_FS"]),
        (["--gamma", "0/L", "--gradient-mode", "injected-noise", "--noise-sigma", "0.5",
          "--regime", "identical"], ["SC_IID_UBV", "WC_IID_UBV"]),
        (["--gamma", "0", "--gradient-mode", "full"], ["WC_HET_FS"]),
    ])
    def test_zero_stepsize_runs_with_the_guarantees_not_checked(self, tmp_path, capsys,
                                                                 flags, theorems):
        assert run_cli(["run", "--config", self._config(tmp_path), *flags]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [l for l in out if "not checked" in l] == [
            f"H={H}: {tid} not checked: gamma must be finite and positive"
            for H in (1, 2) for tid in theorems]
        assert (tmp_path / "out" / "summary.csv").exists()
        assert not list((tmp_path / "out").glob("bound_*"))

    def test_malformed_seed_range_shows_the_form(self, tmp_path, capsys):
        assert run_cli(["run", "--config", self._config(tmp_path), "--seeds=1:2:3"]) == 2
        assert "expected 'a:b'" in capsys.readouterr().err

    def test_flag_prefix_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run_cli(["run", "--config", self._config(tmp_path), "--n", "200"])
        assert e.value.code == 2

    @pytest.mark.parametrize("flags, key", [
        (["--schedule", "explicit:5,10"], "[run] schedule (--schedule)"),
        (["--schedule", "explicit:10,5"], "[run] schedule (--schedule)"),
        (["--H", "4,4"], "[run] H (--H): H=4 and H=4 give the same schedule uniform(H=4)"),
        (["--schedule", "one-shot", "--H", "1,4"],
         "[run] H (--H): H=1 and H=4 give the same schedule one-shot(T=20)"),
        (["--seeds", "3,3"], "[run] seeds (--seeds): seed 3 repeats"),
        (["--seeds", "0,5,2,5,2"], "[run] seeds (--seeds): seed 5 repeats"),
        (["--gradient-mode", "injected-noise"], "[run] noise_sigma (--noise-sigma)"),
        (["--regime", "heterogeneous", "--M", "60"], "[problem] M (--M)"),
        (["--gamma", "-0.1"], "--gamma"),
        (["--gamma", "sc-identical-ubv", "--lam", "0"], "[run] gamma (--gamma)"),
        (["--gamma", "1e308/L"], "[run] gamma (--gamma): 1e308/L gives a stepsize "
                                 "that is not finite: inf (L="),
        (["--gamma", "sc-identical-ubv", "--lam", "1e-320"],
         "[run] gamma (--gamma): the suggested T is not finite: inf"),
        (["--lam", "1e200"], "[problem] lambda (--lam): 1e+200 has a square that is "
                             "not finite"),
        (["--T", "3", "--seeds", "0:2", "--gradient-mode", "injected-noise",
          "--noise-sigma", "1e300", "--gamma", "1e-320"],
         "[run] noise_sigma (--noise-sigma): 1e+300 has a square that is not finite"),
    ])
    def test_bad_run_config_names_its_key(self, tmp_path, capsys, flags, key):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[data]\nn = 50\nd = 3\n[run]\nT = 20\nH = 1\nseeds = 0:2\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        assert run_cli(["run", "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0]
        assert not (tmp_path / "out").exists()  # refused before any output

    def test_repeated_seed_is_refused_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # One distinct run counted twice would give traces of n_seeds = 2 and
        # verdicts with an SE of 0.
        monkeypatch.setattr(cli, "resolve_problem", None)  # never reached
        out = tmp_path / "out"
        assert run_cli(["run", "--seeds", "3,3", "--T", "200", "--H", "1,5",
                        "--gamma", "wc-identical-fs", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: [run] seeds (--seeds): seed 3 repeats"]
        assert not out.exists()

    @pytest.mark.parametrize("key, value, line", [
        ("T", "99999999999999999999",
         "config error: [run] T (--T): too many sync steps at H=1 to list"),
        ("seeds", "0:100000000000",
         "config error: [run] seeds: too many seeds in '0:100000000000' to list"),
    ])
    def test_too_long_to_list_exits_2_naming_its_key(self, tmp_path, key, value, line):
        # T's uniform sync steps outnumber what a list can index, and 10^11
        # seeds ask for an 800 GB tuple: both fail at once. The child's
        # address space is capped, so the tuple fails wherever the kernel
        # would promise the memory.
        import resource

        run = {"T": "20", "H": "1", "seeds": "0:2", key: value}
        cfg = tmp_path / "big.ini"
        cfg.write_text("[data]\nn = 50\nd = 3\n[run]\n"
                       + "".join(f"{k} = {v}\n" for k, v in run.items())
                       + f"[output]\ndir = {tmp_path / 'out'}\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        cap = 4 << 30
        done = subprocess.run(
            [sys.executable, "-m", "localsgd", "run", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert (done.returncode, done.stderr.splitlines()) == (2, [line])
        assert not (tmp_path / "out").exists()

    def test_uniform_schedule_holds_8_bytes_per_sync_step(self):
        # A million sync steps: one int64 array, and the gap check's
        # temporaries do not grow with it.
        import tracemalloc

        tracemalloc.start()
        try:
            schedule = cli.resolve_schedule("uniform", 1, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert schedule.sync_steps.size == 10**6 and schedule.final == 10**6
        assert peak < 8.5e6

    def test_unreachable_tol_leaves_no_output_dir(self, tmp_path, capsys):
        out = tmp_path / "D"
        assert run_cli(["run", "--config", str(CONFIGS / "synthetic-heterogeneous.ini"),
                        "--tol", "1e-30", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "[solver] tol (--tol)" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("text, name", [
        ("[run]\ngrdient_mode = full\n", "[run] grdient_mode: unknown key"),
        ("[sovler]\ntol = 1e-8\n", "[sovler]: unknown section"),
        ("[DEFAULT]\nT = 8\n", "[DEFAULT]: unknown section"),
    ])
    def test_unknown_ini_name_exits_2(self, tmp_path, capsys, text, name):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[data]\nn = 50\nd = 3\n{text}"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        assert run_cli(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and name in err[0]
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self):
        assert run_cli(["run", "--config", "/nonexistent.ini"]) == 2

    def test_missing_dataset_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[data]\nsource = a9a\nmanifest = /nonexistent/manifest\n")
        assert run_cli(["run", "--config", str(cfg)]) == 3

    def test_feature_beyond_manifest_dim_exits_3(self, tmp_path, capsys):
        (tmp_path / "wide.txt").write_text("+1 1:1.0 4:2.0\n-1 2:1.0\n")
        sha = sha256_of(str(tmp_path / "wide.txt"))
        (tmp_path / "manifest.txt").write_text(f"wide wide.txt {sha} 2 3\n")
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[data]\nsource = wide\ndir = {tmp_path}\n")
        assert run_cli(["solve-ref", "--config", str(cfg),
                        "--out", str(tmp_path / "ref.txt")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "below max feature index" in err[0]

    @pytest.mark.parametrize("case, code", [
        ("config-not-utf8", 2), ("manifest-not-utf8", 3), ("libsvm-not-utf8", 3),
        ("gz-not-gzip", 3), ("gz-truncated", 3), ("manifest-is-a-directory", 3)])
    def test_unreadable_input_file_exits_with_one_line(self, tmp_path, capsys, case, code):
        buf = io.StringIO()
        to_libsvm(generate_synthetic(40, 3, seed=9), buf)
        rows = buf.getvalue().encode()
        not_utf8 = b"# \xff\n"
        data = {"libsvm-not-utf8": not_utf8 + rows, "gz-not-gzip": rows,
                "gz-truncated": gzip.compress(rows)[:-8]}.get(case, rows)
        name = "tiny.txt.gz" if case.startswith("gz") else "tiny.txt"
        (tmp_path / name).write_bytes(data)
        manifest = tmp_path / "manifest.txt"
        entry = f"tiny {name} {sha256_of(str(tmp_path / name))} 40 3\n".encode()
        manifest.write_bytes((not_utf8 if case == "manifest-not-utf8" else b"") + entry)
        if case == "manifest-is-a-directory":
            manifest = tmp_path
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes((not_utf8 if case == "config-not-utf8" else b"")
                        + f"[data]\nsource = tiny\ndir = {tmp_path}\n"
                          f"manifest = {manifest}\n".encode())
        culprit = {"config-not-utf8": cfg, "manifest-not-utf8": manifest,
                   "manifest-is-a-directory": manifest}.get(case, tmp_path / name)
        assert run_cli(["solve-ref", "--config", str(cfg),
                        "--out", str(tmp_path / "ref.txt")]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(culprit) in err[0]
        assert not (tmp_path / "ref.txt").exists()


# The CLI fuzz: a value outside one key's domain, in an otherwise valid tiny
# config, must end in exit 2 (config) or 3 (data) with one stderr line.
_FUZZ_BASE = {("data", "n"): "40", ("data", "d"): "3", ("problem", "M"): "2",
              ("run", "T"): "8", ("run", "H"): "1,4", ("run", "seeds"): "0:2",
              ("variances", "M"): "1,2"}
# Kinds of bad value, and the keys for which a kind is in the domain.
_FUZZ_KINDS = ("empty", "non-numeric", "zero", "negative", "nan")
_FUZZ_VALID = {"data_seed": {"zero"}, "sort_by_label": {"zero"},
               "label_noise": {"zero"}, "lam": {"zero"},
               "noise_sigma": {"empty"}, "gamma_spec": {"zero"}, "seeds": {"zero"},
               "record_every": {"empty"}}
# Words some keys accept; a non-numeric draw that spells one is not bad.
_FUZZ_WORDS = {"true", "false", "yes", "no", "on", "off", "full", "stochastic",
               "identical", "heterogeneous"}
_FUZZ_FIELDS = [f for f in fields(cli.ExperimentConfig) if f.metadata["parse"] is not str]


@st.composite
def _bad_setting(draw):
    f = draw(st.sampled_from(_FUZZ_FIELDS))
    kind = draw(st.sampled_from(
        [k for k in _FUZZ_KINDS if k not in _FUZZ_VALID.get(f.name, ())]))
    if kind == "empty":
        value = ""
    elif kind == "non-numeric":
        value = draw(st.text(string.ascii_letters, min_size=1, max_size=6).filter(
            lambda v: v.lower() not in _FUZZ_WORDS))
    elif kind == "zero":
        value = draw(st.sampled_from(["0", "0.0", "-0"]))
    elif kind == "negative":
        value = draw(st.one_of(st.integers(max_value=-1).map(str),
                               st.floats(max_value=-1e-9, allow_infinity=False).map(repr)))
    else:
        value = draw(st.sampled_from(["nan", "NaN", "-nan"]))
    return f, value, draw(st.booleans()) and f.metadata["flag"] is not None


@settings(max_examples=150, deadline=None)
@given(_bad_setting())
def test_cli_fuzz_bad_value_exits_with_one_line(setting):
    f, value, as_flag = setting
    section, key = f.metadata["section"], f.metadata["key"]
    keys = dict(_FUZZ_BASE)
    if not as_flag:
        keys[(section, key)] = value
    flags = [f"{f.metadata['flag']}={value}"] if as_flag else []
    with tempfile.TemporaryDirectory() as tmp:
        keys[("output", "dir")] = os.path.join(tmp, "out")
        sections: dict = {}
        for (sec, k), v in keys.items():
            sections.setdefault(sec, []).append(f"{k} = {v}")
        path = os.path.join(tmp, "fuzz.ini")
        with open(path, "w") as fh:
            fh.write("".join(f"[{sec}]\n" + "\n".join(lines) + "\n"
                             for sec, lines in sections.items()))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(["run", "--config", path, *flags])
    lines = err.getvalue().strip().splitlines()
    assert code in (2, 3), (key, value, code)
    assert len(lines) == 1 and "Traceback" not in err.getvalue(), lines


# Which guarantees `run` checks, and with which smoothness constant and
# variance: the uniform-variance statements use the global L and the injected
# noise_sigma^2, the finite-sum ones the almost-sure L_component and a
# variance measured at x* (sigma_opt^2 for identical data, sigma_dif^2 else).
_BOUND_KEYS = {"SC_IID_UBV": ("L", "sigma_sq"), "WC_IID_UBV": ("L", "sigma_sq"),
               "SC_IID_FS": ("L_component", "sigma_opt_sq"),
               "WC_IID_FS": ("L_component", "sigma_opt_sq"),
               "WC_HET_FS": ("L_component", "sigma_dif_sq")}
_SIGMAS = ("sigma_sq", "sigma_opt_sq", "sigma_dif_sq")

_SELECTION_CASES = [
    # (regime, gradient mode, lambda, gamma spec, theorems checked)
    ("identical", "stochastic", "0.05", "0.001", {"SC_IID_FS", "WC_IID_FS"}),
    ("identical", "stochastic", "0", "0.001", {"WC_IID_FS"}),
    ("identical", "full", "0.05", "0.001", set()),
    ("identical", "full", "0", "0.001", set()),
    ("identical", "injected-noise", "0.05", "0.001", {"SC_IID_UBV", "WC_IID_UBV"}),
    ("identical", "injected-noise", "0", "0.001", {"WC_IID_UBV"}),
    ("heterogeneous", "stochastic", "0.05", "0.001", {"WC_HET_FS"}),
    ("heterogeneous", "stochastic", "0", "0.001", {"WC_HET_FS"}),
    ("heterogeneous", "full", "0.05", "0.001", {"WC_HET_FS"}),
    ("heterogeneous", "full", "0", "0.001", {"WC_HET_FS"}),
    # WC_HET_FS is a finite-sum statement; injected Gaussian noise is not
    ("heterogeneous", "injected-noise", "0.05", "0.001", set()),
    ("heterogeneous", "injected-noise", "0", "0.001", set()),
    # every planner rule, in the setting of the statement it comes from
    ("identical", "injected-noise", "0.05", "sc-identical-ubv",
     {"SC_IID_UBV", "WC_IID_UBV"}),
    ("identical", "injected-noise", "0.05", "wc-identical-ubv",
     {"SC_IID_UBV", "WC_IID_UBV"}),
    ("identical", "stochastic", "0.05", "sc-identical-fs", {"SC_IID_FS", "WC_IID_FS"}),
    ("identical", "stochastic", "0.05", "wc-identical-fs", {"SC_IID_FS", "WC_IID_FS"}),
    ("heterogeneous", "stochastic", "0.05", "wc-heterogeneous", {"WC_HET_FS"}),
]


class TestRunSweep:
    """`run` simulates every H of its sweep together, on the first request;
    each H is still requested, and reported, as its own run."""

    _DIVERGING = """
[data]
source = synthetic
n = 90
d = 7
seed = 3
sort_by_label = true

[problem]
M = 3
regime = heterogeneous

[run]
gradient_mode = full
gamma = 184.5
T = 4577
H = {H}
seeds = 0:2
"""

    def test_a_diverging_H_is_skipped_as_when_run_alone(self, tmp_path, capsys):
        # lambda gamma = 2.05: the iterates grow by about 1.05 per step and
        # cross the divergence limit at step 4576 for H=1, at 4578 for H=4
        # and later for H=16.
        outs = {}
        for Hs in ("1,4,16", "1", "4", "16"):
            cfg = tmp_path / f"div{Hs}.ini"
            cfg.write_text(self._DIVERGING.format(H=Hs))
            out = tmp_path / f"out{Hs}"
            assert run_cli(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
            outs[Hs] = (out, capsys.readouterr().out.splitlines())
        out, stdout = outs["1,4,16"]
        assert stdout[0] == "H=1: iterate diverged at step 4576 (seed 0, node 0) (run skipped)"
        assert stdout == outs["1"][1] + outs["4"][1] + outs["16"][1]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1] == "1,,,,diverged"
        for i, H in enumerate(("1", "4", "16")):
            assert summary[1 + i] == (outs[H][0] / "summary.csv").read_text().splitlines()[1]
        assert not (out / "run_H1.csv").exists()
        for H in ("4", "16"):
            assert ((out / f"run_H{H}.csv").read_bytes()
                    == (outs[H][0] / f"run_H{H}.csv").read_bytes())

    @pytest.mark.parametrize("mode, owner, attr", [
        ("stochastic", "simulator", "draw_indices"),
        ("injected-noise", "RngStream", "generator"),
    ])
    def test_one_engine_draws_each_stream_once(self, tmp_path, monkeypatch, mode,
                                               owner, attr):
        from localsgd import simulator
        from localsgd.numkit import RngStream
        target = {"simulator": simulator, "RngStream": RngStream}[owner]
        real, hits = getattr(target, attr), []

        def counting(stream, *args):
            hits.append(tuple(int(k) for k in stream.bitgen.state["state"]["key"]))
            return real(stream, *args)

        monkeypatch.setattr(target, attr, counting)
        cfg = TestRunCmd()._config(tmp_path)
        assert run_cli(["run", "--config", cfg, "--H", "1,2,4", "--gradient-mode", mode,
                        "--noise-sigma", "0.5", "--seeds", "0:3"]) == 0
        # T = 64 steps fit one refill: each (seed, node) stream once, not
        # once per H. The data generator's stream has no noise flag.
        flag = simulator._NOISE_STREAM_FLAG if mode == "injected-noise" else 0
        assert sorted(k for k in hits if k[1] & flag == flag) == [
            (seed, m | flag) for seed in range(3) for m in range(4)]

    @pytest.mark.parametrize("seeds, expected", [("0:3", [0, 1, 2]), ("5", [5])],
                             ids=["0:3", "5"])
    def test_each_H_is_requested_in_order_and_the_first_request_simulates(
            self, tmp_path, monkeypatch, seeds, expected):
        # The benchmark counts node-steps per request from its positional
        # (p, run_cfg, ref, seeds) and ends set-up at the first one; one
        # seed is requested the same way.
        from localsgd import simulator
        real_simulate, real_request = simulator._simulate, cli.run_replicated
        simulated, requests = [], []

        def simulate(*args, **kwargs):
            simulated.append(len(requests))
            return real_simulate(*args, **kwargs)

        def request(*args, **kwargs):
            requests.append((args, len(simulated)))
            return real_request(*args, **kwargs)

        monkeypatch.setattr(simulator, "_simulate", simulate)
        monkeypatch.setattr(cli, "run_replicated", request)
        cfg = TestRunCmd()._config(tmp_path)
        assert run_cli(["run", "--config", cfg, "--H", "4,1,2", "--seeds", seeds]) == 0
        assert [args[1].schedule.H for args, _ in requests] == [4, 1, 2]
        assert all(len(args) == 4
                   and isinstance(args[0], objective.Problem)
                   and isinstance(args[2], objective.ReferenceSolution)
                   and list(args[3]) == expected
                   for args, _ in requests)
        # Nothing simulated before the first request, once within it.
        assert [done for _, done in requests] == [0, 1, 1] and simulated == [1]

    def test_a_stopped_first_request_simulates_nothing(self, tmp_path, monkeypatch):
        from localsgd import simulator

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(simulator, "_simulate", None)
        monkeypatch.setattr(cli, "run_replicated", stop)
        with pytest.raises(Stop):
            run_cli(["run", "--config", TestRunCmd()._config(tmp_path)])

    @pytest.mark.parametrize("seeds", ["0:3", "5"])
    def test_run_never_calls_run_local_sgd(self, tmp_path, monkeypatch, seeds):
        # The benchmark's probe wraps cli.run_local_sgd as well, and would
        # read the seed of a call to it from RunConfig, which has none.
        def called(*args, **kwargs):
            raise AssertionError("cli.run_local_sgd was called")

        monkeypatch.setattr(cli, "run_local_sgd", called)
        assert run_cli(["run", "--config", TestRunCmd()._config(tmp_path),
                        "--seeds", seeds]) == 0

    def test_a_non_finite_rhs_is_not_checked(self, tmp_path, capsys):
        # gamma = 3e-320: the worst-case RHS c r0^2 / (gamma T) overflows.
        out = tmp_path / "out"
        assert run_cli(["run", "--gamma", "1e-320/L", "--T", "50", "--H", "1,4",
                        "--seeds", "0:3", "--out-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if "not checked" in l] == [
            f"H={H}: WC_IID_FS not checked: the right-hand side is not finite at "
            f"t=50: inf" for H in (1, 4)]
        assert not list(out.glob("bound_WC_IID_FS_*"))
        for H in (1, 4):
            assert "holds = True" in (out / f"bound_SC_IID_FS_H{H}.verdict.txt").read_text()


def _kv(lines, prefix=""):
    out = {}
    for line in lines:
        if line.startswith(prefix) and " = " in line:
            k, v = line[len(prefix):].split(" = ", 1)
            out[k] = v
    return out


class TestBoundSelection:
    """Pins which bounds `run` writes and the L and sigma each one records."""

    @pytest.mark.parametrize("regime, mode, lam, gamma, expected", _SELECTION_CASES)
    def test_verdict_files_and_L(self, tmp_path, regime, mode, lam, gamma, expected):
        out = tmp_path / "out"
        cfg = tmp_path / "sel.ini"
        cfg.write_text(f"""
[data]
source = synthetic
n = 60
d = 3
seed = 4
label_noise = 0.3

[problem]
lambda = {lam}
M = 2
regime = {regime}

[solver]
tol = 1e-8

[run]
gradient_mode = {mode}
noise_sigma = 0.5
gamma = {gamma}
H = 1,4
T = 32
seeds = 0:2

[output]
dir = {out}
""")
        assert run_cli(["run", "--config", str(cfg)]) == 0
        written = {p.name for p in out.glob("bound_*_H*.verdict.txt")}
        assert written == {f"bound_{tid}_H{H}.verdict.txt"
                           for tid in expected for H in (1, 4)}
        for H in (1, 4):
            meta = _kv((out / f"run_H{H}.csv").read_text().splitlines(), "# ")
            meta["sigma_sq"] = repr(float(meta["noise_sigma"]) ** 2)
            for tid in expected:
                verdict = (out / f"bound_{tid}_H{H}.verdict.txt").read_text()
                inputs = _kv(verdict.splitlines(), "input.")
                L_key, sigma = _BOUND_KEYS[tid]
                assert inputs["L"] == meta[L_key]
                assert {k: inputs[k] for k in _SIGMAS} == {
                    k: meta[k] if k == sigma else "None" for k in _SIGMAS}


class TestSolveRefCmd:
    def test_writes_reference(self, tmp_path, capsys):
        out = str(tmp_path / "ref.txt")
        code = run_cli(["solve-ref", "--source", "synthetic", "--tol", "1e-8",
                        "--out", out])
        assert code == 0
        text = open(out).read()
        assert "f_star" in text and "x_star" in text and "L_component" in text

    def test_flags_it_does_not_read_are_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "ref.txt"
        for flag in (["--H", "4"], ["--T", "5"], ["--gamma", "7"], ["--seeds", "1:2"],
                     ["--gradient-mode", "full"], ["--batch", "2"]):
            with pytest.raises(SystemExit) as e:
                run_cli(["solve-ref", "--source", "synthetic", "--out", str(out), *flag])
            assert e.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, bad, key", [
    (["solve-ref", "--source", "synthetic", "--out", "D"], "D", "--out"),
    (["solve-ref", "--source", "synthetic", "--out", "F/x.txt"], "F", "--out"),
    (["run", "--config", str(CONFIGS / "synthetic-heterogeneous.ini"), "--out-dir", "F"],
     "F", "[output] dir (--out-dir)"),
    (["variances", "--config", str(CONFIGS / "variances.ini"), "--out-dir", "F"],
     "F", "[output] dir (--out-dir)"),
    (["verify", "--out", "D"], "D", "--out"),
    (["solve-ref", "--source", "synthetic", "--out", ""], "", "--out"),
    (["solve-ref", "--source", "synthetic", "--out-dir", ""], "",
     "[output] dir (--out-dir)"),
    (["run", "--config", str(CONFIGS / "synthetic-heterogeneous.ini"), "--out-dir", ""],
     "", "[output] dir (--out-dir)"),
    (["variances", "--config", str(CONFIGS / "variances.ini"), "--out-dir", ""],
     "", "[output] dir (--out-dir)"),
    (["verify", "--out", ""], "", "--out"),
    # A directory where one of the files of the output directory O goes.
    *((["run", "--config", str(CONFIGS / "synthetic-heterogeneous.ini"), "--out-dir", "O"],
       f"O/{name}", "[output] dir (--out-dir)")
      for name in ("variances.txt", "summary.csv", "run_H1.csv",
                   "bound_WC_HET_FS_H8.verdict.txt")),
    (["variances", "--config", str(CONFIGS / "variances.ini"), "--out-dir", "O"],
     "O/variances.csv", "[output] dir (--out-dir)"),
], ids=["solve-ref-dir", "solve-ref-under-file", "run", "variances", "verify",
        "solve-ref-empty", "solve-ref-empty-dir", "run-empty", "variances-empty",
        "verify-empty", "run-variances-file", "run-summary", "run-trace", "run-verdict",
        "variances-file"])
def test_unusable_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                      argv, bad, key):
    monkeypatch.chdir(tmp_path)  # an empty path must not fall back to the cwd
    work = []
    monkeypatch.setattr(cli, "solve_reference", lambda *a, **k: work.append("solve"))
    monkeypatch.setattr(verify, "CRITERIA", [lambda level: work.append("criterion")])
    (tmp_path / "D").mkdir()
    (tmp_path / "F").write_text("a file\n")
    if bad.startswith("O/"):
        (tmp_path / bad).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    argv = [str(tmp_path / a) if a in ("D", "F", "F/x.txt", "O") else a for a in argv]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"{key}: {tmp_path / bad if bad else 'empty path'}" in err[0]
    assert work == [] and sorted(tmp_path.rglob("*")) == before


_TINY = """\
[data]
source = synthetic
n = 60
d = 5
seed = 3

[problem]
M = 3

[run]
gradient_mode = stochastic
H = 1,4
T = 20
seeds = 0:2

[variances]
M = 1,3
batch = 1,full
"""


def _output_argvs(config):
    """(argv, key) of every output path flag, the path given last, under
    "P": the output directory of run, variances and solve-ref, and the file
    of solve-ref --out and verify --out."""
    return [(["run", "--config", config, "--out-dir", "P"], "[output] dir (--out-dir)"),
            (["variances", "--config", config, "--out-dir", "P"], "[output] dir (--out-dir)"),
            (["solve-ref", "--config", config, "--out-dir", "P"], "[output] dir (--out-dir)"),
            (["solve-ref", "--config", config, "--out", "P/reference.txt"], "--out"),
            (["verify", "--out", "P/results.json"], "--out")]


_OUTPUT_IDS = ["run", "variances", "solve-ref-dir", "solve-ref-out", "verify"]


@pytest.mark.parametrize("case", range(len(_OUTPUT_IDS)), ids=_OUTPUT_IDS)
@pytest.mark.parametrize("cause", ["name-too-long", "name-too-long-below-a-missing-dir",
                                   "lookup-denied"])
def test_path_that_cannot_be_looked_up_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                               case, cause):
    monkeypatch.chdir(tmp_path)
    work = []
    monkeypatch.setattr(cli, "solve_reference", lambda *a, **k: work.append("solve"))
    monkeypatch.setattr(verify, "CRITERIA", [lambda level: work.append("criterion")])
    config = tmp_path / "tiny.ini"
    config.write_text(_TINY)
    if cause == "name-too-long":  # one component above the 255 bytes a name may take
        bad, why = tmp_path / ("a" * 300), "File name too long"
    elif cause == "name-too-long-below-a-missing-dir":  # the lookup stops at NEW
        bad, why = tmp_path / "NEW" / ("a" * 300), "File name too long"
    else:  # a directory it may not search; the process runs as root, so a fake stat
        bad, why = tmp_path / "locked" / "out", "Permission denied"
        stat = os.stat

        def denied(path, *a, **k):
            if str(path).startswith(str(bad)):
                raise PermissionError(errno.EACCES, why, str(path))
            return stat(path, *a, **k)

        monkeypatch.setattr(os, "stat", denied)
    argv, key = _output_argvs(str(config))[case]
    given = str(bad) + argv[-1][1:]  # the lookup of the path given fails first
    before = sorted(tmp_path.rglob("*"))
    assert run_cli([*argv[:-1], given]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith(f"{key}: {given}: {why}")
    assert work == [] and sorted(tmp_path.rglob("*")) == before


def test_file_name_too_long_below_a_missing_dir_is_refused(tmp_path):
    path = tmp_path / "NEW" / ("b" * 300 + ".txt")
    with pytest.raises(cli.ConfigError, match=f"^--out: {path}: File name too long$"):
        cli._check_output(str(path), is_dir=False)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", range(len(_OUTPUT_IDS)), ids=_OUTPUT_IDS)
@pytest.mark.parametrize("error", [PermissionError(errno.EACCES, "Permission denied"),
                                   FileNotFoundError(errno.ENOENT, "No such file or directory")],
                         ids=["denied", "not-found"])
def test_output_dir_that_cannot_be_made_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                              case, error):
    # The checks pass and the work is done; making the directory then
    # fails, as a race with another process or a directory that refuses
    # writes would make it fail.
    monkeypatch.setattr(verify, "CRITERIA", [
        lambda level: verify.CriterionResult("stub", verify.PASS, "", 0.0)])

    def refuse(path, *a, **k):
        raise type(error)(error.errno, error.strerror, path)

    monkeypatch.setattr(os, "makedirs", refuse)
    config = tmp_path / "tiny.ini"
    config.write_text(_TINY)
    argv, key = _output_argvs(str(config))[case]
    out = tmp_path / "out"
    assert run_cli([*argv[:-1], str(out) + argv[-1][1:]]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith(f"{key}: {out}: {error.strerror}")
    assert not out.exists()


def test_diverging_run_reports_it_without_a_numpy_warning(tmp_path, capsys):
    # The first step overflows; the divergence check names it, and numpy
    # must not warn of it as well.
    config = tmp_path / "tiny.ini"
    config.write_text(_TINY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", "--config", str(config), "--gamma", "1e308",
                        "--out-dir", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"H={H}: iterate diverged at step 1 (seed 0, node 0) (run skipped)" for H in (1, 4)]


class TestShippedConfigs:
    def test_heterogeneous_run_holds(self, tmp_path):
        # T = 256 is the least T for which the planner admits H = 8 at M = 4.
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(CONFIGS / "synthetic-heterogeneous.ini"),
                        "--T", "256", "--seeds", "0:2", "--out-dir", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(summary) == 4 and all(r.endswith(",holds") for r in summary)
        verdicts = list(out.glob("bound_*.verdict.txt"))
        assert verdicts and all("holds = True" in v.read_text() for v in verdicts)

    def test_variances_sweep(self, tmp_path):
        assert run_cli(["variances", "--config", str(CONFIGS / "variances.ini"),
                        "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "variances.csv").exists()

    def test_a9a_config_loads(self):
        cfg = cli.load_config(str(CONFIGS / "a9a-identical.ini"))
        assert cfg.source == "a9a" and cfg.M == 20 and cfg.H_list == (1, 4, 16, 64)


class TestManifestIntegration:
    def test_run_on_manifest_dataset(self, tmp_path):
        ds = generate_synthetic(60, 5, seed=9)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        with open(data_dir / "tiny.txt", "w") as f:
            to_libsvm(ds, f)
        sha = sha256_of(str(data_dir / "tiny.txt"))
        (data_dir / "manifest.txt").write_text(f"tiny tiny.txt {sha} 60 5\n")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"""
[data]
source = tiny
dir = {data_dir}

[problem]
M = 2
regime = identical

[run]
gamma = 0.05
T = 32
H = 4
seeds = 0:3

[output]
dir = {tmp_path / 'out'}
""")
        assert run_cli(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "run_H4.csv").exists()

    @pytest.mark.parametrize("manifest, message", [
        ("tiny tiny.txt beef 40 3\n", "dataset 'b9b' not in manifest {}"),
        ("b9b b9b.txt beef ten 3\n", "manifest line 1: n and dim must be integers"),
        ("b9b b9b-old.txt beef 40 3\nb9b b9b.txt beef 40 3\n",
         "manifest line 2: dataset 'b9b' is listed again (first on line 1)"),
    ], ids=["not-listed", "n-not-integer", "listed-twice"])
    @pytest.mark.parametrize("command", ["run", "variances", "solve-ref"])
    def test_manifest_refusal_exits_3_with_one_line(self, tmp_path, capsys, manifest,
                                                    message, command):
        path = tmp_path / "manifest.txt"
        path.write_text(manifest)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[data]\nsource = b9b\ndir = {tmp_path}\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        assert run_cli([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"data error: {message.format(path)}"]

    def test_data_dir_env_var(self, tmp_path, monkeypatch):
        ds = generate_synthetic(40, 4, seed=10)
        data_dir = tmp_path / "elsewhere"
        data_dir.mkdir()
        with open(data_dir / "envy.txt", "w") as f:
            to_libsvm(ds, f)
        sha = sha256_of(str(data_dir / "envy.txt"))
        (data_dir / "manifest.txt").write_text(f"envy envy.txt {sha} 40 4\n")
        monkeypatch.setenv("LOCALSGD_DATA_DIR", str(data_dir))
        code = run_cli(["solve-ref", "--source", "envy", "--tol", "1e-6",
                        "--out", str(tmp_path / "ref.txt")])
        assert code == 0


class TestVerifyRegistry:
    def test_eleven_criteria_registered(self):
        from localsgd import verify
        assert len(verify.CRITERIA) == 11

    def test_criteria_register_in_definition_order(self):
        names = [fn.__name__ for fn in verify.CRITERIA]
        defined = [name for name in vars(verify) if name.startswith("criterion_")]
        assert names == defined and len(set(names)) == len(names)

    @pytest.mark.parametrize("with_failure", [True, False], ids=["fail", "no-fail"])
    def test_verify_out_writes_the_results_and_exits_by_them(self, tmp_path, capsys,
                                                             monkeypatch, with_failure):
        results = [("a", verify.PASS, "fine", 0.1234), ("b", verify.FAIL, "broke", 1.0),
                   ("c", verify.SKIP, "absent", 0.0)]
        if not with_failure:
            del results[1]
        monkeypatch.setattr(verify, "CRITERIA", [
            lambda level, r=r: verify.CriterionResult(*r) for r in results])
        out = tmp_path / "sub" / "verify.json"
        code = run_cli(["verify", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        expected = {"a": "[PASS] a (0.1s): fine", "b": "[FAIL] b (1.0s): broke",
                    "c": "[SKIP] c (0.0s): absent"}
        assert lines[:-2] == [expected[name] for name, *_ in results]
        assert lines[-2] == f"wrote {out}"
        assert lines[-1] == f"1 passed, {int(with_failure)} failed, 1 skipped"
        assert code == (1 if with_failure else 0)
        rounded = {0.1234: 0.123, 1.0: 1.0, 0.0: 0.0}
        assert json.loads(out.read_text()) == [
            {"name": name, "status": status, "details": details, "seconds": rounded[sec]}
            for name, status, details, sec in results]

    def test_a_guarantee_not_checked_fails_its_criterion_and_verify_goes_on(
            self, capsys, monkeypatch):
        # A row that check_run cannot check is a FAIL naming the row and the
        # reason, not a config error that ends verify before its first line.
        real = theory.bound

        def refuse_het(theorem_id, b):
            if theorem_id == "WC_HET_FS":
                raise theory.PreconditionError("stub: hypothesis fails")
            return real(theorem_id, b)

        monkeypatch.setattr(theory, "bound", refuse_het)
        monkeypatch.setattr(verify, "CRITERIA", [verify.criterion_heterogeneous_bound,
                                                 verify.criterion_planners])
        code = run_cli(["verify", "--level", "fast"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL] heterogeneous-bound")
        assert "H=2 WC_HET_FS not checked: stub: hypothesis fails" in lines[0]
        assert lines[1].startswith("[PASS] planner-arithmetic")
        assert lines[2:] == ["1 passed, 1 failed, 0 skipped"] and code == 1

    def test_result_line_format(self):
        from localsgd.verify import CriterionResult
        r = CriterionResult("x", "PASS", "fine", 1.234)
        assert r.line().startswith("[PASS] x (1.2s)")


class TestImportFootprint:
    """scipy.sparse is loaded only where CSR data is built or read: a
    synthetic run and the planner never pay for it, a LIBSVM load does."""

    _SRC = str(Path(__file__).resolve().parent.parent / "src")

    def _sparse_loaded(self, argv, tmp_path) -> bool:
        code = ("import sys; from localsgd import cli; "
                "code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
                "print(code, 'scipy.sparse' in sys.modules)")
        env = dict(os.environ,
                   PYTHONPATH=self._SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("LOCALSGD_DATA_DIR", None)
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                             check=True, capture_output=True, text=True).stdout
        status, loaded = out.strip().splitlines()[-1].split()
        assert status == "0"
        return loaded == "True"

    def test_import_plan_and_synthetic_run_leave_it_out(self, tmp_path):
        cfg = TestRunCmd()._config(tmp_path)
        for argv in ([], ["plan", "--what", "h", "--rule", "wc-heterogeneous",
                          "--T", "256", "--M", "4"],
                     ["run", "--config", cfg, "--seeds", "0:2"]):
            assert not self._sparse_loaded(argv, tmp_path), argv
        assert (tmp_path / "out" / "run_H2.csv").exists()

    def test_libsvm_load_brings_it_in(self, tmp_path):
        data_dir = tmp_path / "data"  # the default data dir, under the cwd
        data_dir.mkdir()
        with open(data_dir / "toy.txt", "w") as f:
            to_libsvm(generate_synthetic(40, 4, seed=10), f)
        sha = sha256_of(str(data_dir / "toy.txt"))
        (data_dir / "manifest.txt").write_text(f"toy toy.txt {sha} 40 4\n")
        assert self._sparse_loaded(["solve-ref", "--source", "toy", "--tol", "1e-6",
                                    "--out", str(tmp_path / "ref.txt")], tmp_path)
        assert (tmp_path / "ref.txt").exists()


class TestBlasThreads:
    """Both entry points run BLAS on one thread, so a run's bytes do not
    depend on the thread count of the environment. On this injected-noise
    config a run at 2 BLAS threads writes other last bits in both traces
    and the summary than at 1 thread."""

    _SRC = str(Path(__file__).resolve().parent.parent / "src")
    _CONFIG = """\
[data]
source = synthetic
n = 2000
d = 30
seed = 7

[problem]
lambda = 1/n
M = 4
regime = identical

[solver]
tol = 1e-10

[run]
gradient_mode = injected-noise
noise_sigma = 0.5
gamma = 0.25/L
schedule = uniform
H = 1,4
T = 200
seeds = 0:50
"""
    # `python -m localsgd`, and what the `localsgd` console script runs.
    _ENTRIES = {"python -m": ["-m", "localsgd"],
                "script": ["-c", "import sys; from localsgd.__main__ import main; "
                                 "sys.exit(main(sys.argv[1:]))"]}

    def _run(self, tmp_path, entry, threads) -> dict[str, bytes]:
        out = tmp_path / f"{entry}-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=self._SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, *self._ENTRIES[entry], "run", "--config",
                        str(tmp_path / "noise.ini"), "--out-dir", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        (tmp_path / "noise.ini").write_text(self._CONFIG)
        want = self._run(tmp_path, "python -m", 1)
        assert {"run_H1.csv", "run_H4.csv", "summary.csv"} <= set(want)
        for entry in self._ENTRIES:
            got = self._run(tmp_path, entry, 2)
            assert got.keys() == want.keys()
            assert [n for n in want if got[n] != want[n]] == [], entry

    def test_the_console_script_is_that_entry(self):
        import tomllib

        with open(Path(self._SRC).parent / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"localsgd": "localsgd.__main__:main"}
