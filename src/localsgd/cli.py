"""Experiment runner: config parsing, orchestration, CSV emission, and the
one-command acceptance suite.

Subcommands: `variances`, `run`, `verify`, `plan`, `solve-ref`. Flags
override the config file. Exit codes: 0 success, 1 criterion/verdict
failure, 2 usage or config error, 3 data error.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

from . import dataio, theory, verify
from .dataio import Regime
from .objective import (
    ConvergenceError,
    Problem,
    ReferenceSolution,
    build_problem,
    measure_variances,
    solve_reference,
)
from .simulator import (
    DivergenceError,
    GradientMode,
    RunConfig,
    Sweep,
    SyncSchedule,
    # Not called here: bench/tracing.py wraps, and bench/worker.py replaces,
    # cli.run_local_sgd by name.
    run_local_sgd,  # noqa: F401
    run_replicated,
)

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _checked(parse, ok, domain: str):
    """`parse`, refusing a value outside `domain` (ok(value) is False)."""
    def parse_checked(s: str):
        v = parse(s)
        if not ok(v):
            raise ValueError(f"expected {domain}, got {s!r}")
        return v
    parse_checked.__name__ = domain.removeprefix("a ")  # argparse's name for the type
    return parse_checked


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                           "a positive finite number")
_nonnegative_float = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                              "a nonnegative finite number")
_probability = _checked(float, lambda v: 0 <= v <= 1, "a probability in [0, 1]")
_seed = _checked(int, lambda v: 0 <= v < 2**64, "a stream seed in [0, 2^64)")


def _batch_spec(s: str) -> str:
    """'full' (an exhaustive sweep) or a positive batch size, kept as text."""
    if s != "full":
        _positive_int(s)
    return s


def _optional(parse):
    """An empty value leaves the setting unset (None)."""
    return lambda s: parse(s) if s.strip() else None


def _list_of(parse):
    def parse_list(s: str) -> tuple:
        vals = tuple(parse(tok.strip()) for tok in s.split(",") if tok.strip())
        if not vals:
            raise ValueError("expected a comma-separated list, got an empty one")
        return vals
    return parse_list


def _parse_seeds(spec: str) -> tuple[int, ...]:
    """'a:b' (the range a..b-1) or a comma list."""
    spec = spec.strip()
    if ":" in spec:
        ends = spec.split(":")
        if len(ends) != 2:
            raise ValueError(f"expected 'a:b' (the seeds a..b-1) or a comma list, "
                             f"got {spec!r}")
        seeds = tuple(range(_seed(ends[0]), _seed(ends[1])))
    else:
        seeds = tuple(_seed(tok) for tok in spec.split(",") if tok.strip())
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def _parse_lambda(s: str) -> float | None:
    """'1/n' (None, the default of build_problem) or a nonnegative float."""
    return None if s.strip() == "1/n" else _nonnegative_float(s)


def _parse_gamma(spec: str) -> str:
    """A float, a multiple 'c/L' of 1/L, or a planner rule; resolve_gamma
    turns it into a stepsize once the problem is known."""
    spec = spec.strip()
    if spec not in theory.GAMMA_RULES:
        try:
            _nonnegative_float(spec[:-2] if spec.endswith("/L") else spec)
        except ValueError:
            raise ValueError(f"expected a nonnegative float, 'c/L' or a planner "
                             f"rule {theory.GAMMA_RULES}, got {spec!r}") from None
    return spec


def _key(section: str, key: str, parse, default, flag: str | None = None,
         help: str | None = None):
    """A config field: its INI [section] key, the parser of its text, and
    the flag that overrides it, if any."""
    meta = {"section": section, "key": key, "parse": parse, "flag": flag, "help": help}
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    """Resolved experiment description (config file plus flag overrides).

    Every field is one INI key; its metadata (see _key) is the only place
    that names the key, its parser and its flag.
    """

    source: str = _key("data", "source", str, "synthetic", "--source",
                       "dataset: 'synthetic' or a manifest name")
    manifest: str = _key("data", "manifest", str, "")
    data_dir: str = _key("data", "dir", str, "")
    n: int = _key("data", "n", _positive_int, 1000)
    d: int = _key("data", "d", _positive_int, 20)
    data_seed: int = _key("data", "seed", _seed, 7)
    sort_by_label: bool = _key("data", "sort_by_label", _parse_bool, False)
    label_noise: float = _key("data", "label_noise", _probability, 0.0)
    lam: float | None = _key("problem", "lambda", _parse_lambda, None, "--lam",
                             "l2 coefficient ('1/n' or a float)")
    M: int = _key("problem", "M", _positive_int, 4, "--M")
    regime: Regime = _key("problem", "regime", lambda s: Regime(s.lower()),
                          Regime.IDENTICAL, "--regime", "identical or heterogeneous")
    tol: float = _key("solver", "tol", _positive_float, 1e-10, "--tol")
    gradient_mode: GradientMode = _key(
        "run", "gradient_mode", GradientMode, GradientMode.STOCHASTIC,
        "--gradient-mode", ", ".join(m.value for m in GradientMode))
    batch: int = _key("run", "batch", _positive_int, 1, "--batch")
    noise_sigma: float | None = _key("run", "noise_sigma", _optional(_positive_float),
                                     None, "--noise-sigma")
    gamma_spec: str = _key("run", "gamma", _parse_gamma, "1/L", "--gamma",
                           "stepsize: float, 'c/L', or planner rule")
    schedule_spec: str = _key("run", "schedule", str, "uniform", "--schedule",
                              "'uniform', 'one-shot', or 'explicit:...'")
    H_list: tuple[int, ...] = _key("run", "H", _list_of(_positive_int), (1, 4, 16),
                                   "--H", "comma list of synchronization intervals")
    T: int = _key("run", "T", _positive_int, 2000, "--T")
    seeds: tuple[int, ...] = _key("run", "seeds", _parse_seeds, tuple(range(10)),
                                  "--seeds", "'a:b' range or comma list")
    record_every: int | None = _key("run", "record_every", _optional(_positive_int),
                                    None, "--record-every")
    var_M_list: tuple[int, ...] = _key("variances", "M", _list_of(_positive_int),
                                       (1, 2, 4, 8, 20))
    var_batch_list: tuple[str, ...] = _key("variances", "batch", _list_of(_batch_spec),
                                           ("1", "4", "16", "full"))
    out_dir: str = _key("output", "dir", str, "out", "--out-dir")


def _invalid(name: str, why: str) -> ConfigError:
    """A ConfigError naming the INI key, and the flag, of field `name`."""
    meta = ExperimentConfig.__dataclass_fields__[name].metadata
    flag = f" ({meta['flag']})" if meta["flag"] else ""
    return ConfigError(f"[{meta['section']}] {meta['key']}{flag}: {why}")


def _parse(parse, raw: str, where: str):
    """parse(raw); a value it refuses is a ConfigError naming `where`."""
    try:
        return parse(raw)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def load_config(path: str | None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        found = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(dataio.unreadable(path, e)) from None
    if not found:
        raise ConfigError(f"config file not found: {path}")
    # configparser lowercases keys, and would copy [DEFAULT] into every section.
    known = {(f.metadata["section"], f.metadata["key"].lower()) for f in fields(cfg)}
    known.add(("solver", "accelerated"))
    if parser.defaults():
        raise ConfigError(f"[{parser.default_section}]: unknown section")
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"[{section}]: unknown section")
        unknown = [k for k in parser.options(section) if (section, k) not in known]
        if unknown:
            raise ConfigError(f"[{section}] {unknown[0]}: unknown key")
    for f in fields(cfg):
        section, key = f.metadata["section"], f.metadata["key"]
        if parser.has_option(section, key):
            setattr(cfg, f.name, _parse(f.metadata["parse"], parser.get(section, key),
                                        f"[{section}] {key}"))
    # Obsolete: it chose between two iterative reference solvers. It still
    # loads, so that configs which set it keep working.
    if parser.has_option("solver", "accelerated"):
        _parse(_parse_bool, parser.get("solver", "accelerated"), "[solver] accelerated")
        print("[solver] accelerated is obsolete and has no effect: "
              "the reference solve is Newton's method")
    return cfg


def resolve_dataset(cfg: ExperimentConfig) -> dataio.Dataset:
    if cfg.source == "synthetic":
        return dataio.generate_synthetic(
            cfg.n, cfg.d, seed=cfg.data_seed, sort_by_label=cfg.sort_by_label,
            label_noise=cfg.label_noise)
    data_dir, manifest_path = dataio.manifest_path(cfg.data_dir, cfg.manifest)
    entries = dataio.read_manifest(manifest_path)
    if cfg.source not in entries:
        raise dataio.ManifestError(
            f"dataset {cfg.source!r} not in manifest {manifest_path}")
    return dataio.load_dataset(entries[cfg.source], data_dir)


def _partition(ds: dataio.Dataset, M: int, regime: Regime,
               name: str) -> dataio.Partition:
    """dataio.partition; a split it refuses is a ConfigError on field `name`."""
    try:
        return dataio.partition(ds, M, regime)
    except ValueError as e:
        raise _invalid(name, str(e)) from None


def resolve_problem(cfg: ExperimentConfig) -> Problem:
    ds = resolve_dataset(cfg)
    return build_problem(ds, _partition(ds, cfg.M, cfg.regime, "M"), lam=cfg.lam)


def resolve_gamma(spec: str, p: Problem, M: int, T: int, H: int) -> float:
    """Stepsize spec: absolute float, 'c/L' multiples of the estimated L, or
    a planner rule name; a planner that refuses, or a 'c/L' that overflows,
    is a ConfigError on gamma."""
    if spec in theory.GAMMA_RULES:
        try:
            return theory.planned_gamma(spec, p, M=M, T=T, H=H)
        except theory.PreconditionError as e:
            raise _invalid("gamma_spec", str(e)) from None
    if spec.endswith("/L"):
        gamma = float(spec[:-2]) / p.L
        if not math.isfinite(gamma):
            raise _invalid("gamma_spec", f"{spec} gives a stepsize that is not finite: "
                                         f"{gamma!r} (L={p.L!r})")
        return gamma
    return float(spec)


def resolve_schedule(spec: str, H: int, T: int) -> SyncSchedule:
    """The schedule of the H-run; a malformed one, or one that does not end
    at T, is a ConfigError on the schedule key."""
    spec = spec.strip()
    try:
        if spec == "uniform":
            schedule = SyncSchedule.uniform(H, T)
        elif spec == "one-shot":
            schedule = SyncSchedule.one_shot(T)
        elif spec.startswith("explicit:"):
            schedule = SyncSchedule.from_steps(_list_of(int)(spec.split(":", 1)[1]))
        else:
            raise ValueError(f"unknown schedule spec {spec!r}")
    except ValueError as e:
        raise _invalid("schedule_spec", str(e)) from None
    if schedule.final != T:
        raise _invalid("schedule_spec",
                       f"schedule ends at {schedule.final}, run length T is {T}")
    return schedule


def resolve_reference(p: Problem, cfg: ExperimentConfig) -> ReferenceSolution:
    """solve_reference; a solve that stops short of tol (step cap, or a tol
    below the rounding floor) is a ConfigError on tol."""
    try:
        return solve_reference(p, cfg.tol)
    except ConvergenceError as e:
        raise _invalid("tol", str(e)) from None


def _check_output(path: str, *, is_dir: bool, name: str | None = None) -> None:
    """Refuse, before any work, an output path that cannot be written: an
    empty one, a directory where the file goes, or a file where the directory
    or one of its ancestors goes. `name` is its config field; None means --out."""
    head = path if is_dir else os.path.dirname(path)
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    why = ("empty path" if not path else
           f"{path} is a directory" if not is_dir and os.path.isdir(path) else
           f"{head} is not a directory" if head and not os.path.isdir(head) else None)
    if why:
        raise _invalid(name, why) if name else ConfigError(f"--out: {why}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_variances(args) -> int:
    cfg = _resolved_config(args)
    _check_output(cfg.out_dir, is_dir=True, name="out_dir")
    out_path = os.path.join(cfg.out_dir, "variances.csv")
    _check_output(out_path, is_dir=False, name="out_dir")
    ds = resolve_dataset(cfg)
    # Check every node count before the first solve.
    parts = [_partition(ds, M, Regime.HETEROGENEOUS, "var_M_list")
             for M in cfg.var_M_list]
    rows = []
    for part in parts:
        p = build_problem(ds, part, lam=cfg.lam)
        ref = resolve_reference(p, cfg)
        for batch_spec in cfg.var_batch_list:
            exhaustive = batch_spec == "full"
            batch = 1 if exhaustive else int(batch_spec)
            vr = measure_variances(p, ref, batch=batch, exhaustive=exhaustive)
            rows.append((ds.name, p.M, batch_spec, vr.sigma_opt_sq, vr.sigma_dif_sq))
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(out_path, "w") as f:
        f.write("dataset,M,batch,sigma_opt_sq,sigma_dif_sq\n")
        for name, M, batch_spec, so, sd in rows:
            f.write(f"{name},{M},{batch_spec},{so!r},{sd!r}\n")
    print(f"wrote {out_path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _resolved_config(args)
    # Check the whole configuration before the first solve.
    schedules = [resolve_schedule(cfg.schedule_spec, H, cfg.T) for H in cfg.H_list]
    for i, schedule in enumerate(schedules):  # none may run, and write its files, twice
        if schedule in schedules[:i]:
            first = cfg.H_list[schedules.index(schedule)]
            raise _invalid("H_list", f"H={first} and H={cfg.H_list[i]} give the same "
                                     f"schedule {schedule.describe()}")
    seen = set()
    for seed in cfg.seeds:  # a repeat would count one run as two in every verdict
        if seed in seen:
            raise _invalid("seeds", f"seed {seed} repeats")
        seen.add(seed)
    if cfg.gradient_mode == GradientMode.INJECTED_NOISE and cfg.noise_sigma is None:
        raise _invalid("noise_sigma", "injected-noise mode needs noise_sigma > 0")
    _check_output(cfg.out_dir, is_dir=True, name="out_dir")
    replicated = len(cfg.seeds) >= 2  # only a replicated run writes bound files
    theorems = theory.theorems_for(cfg.regime, cfg.gradient_mode) if replicated else []
    tags = [f"H{s.H}" for s in schedules]
    files = ["variances.txt", "variances_per_node.csv", "summary.csv",
             *(f"run_{tag}.csv" for tag in tags),
             *(f"bound_{thm.id}_{tag}{ext}" for thm in theorems for tag in tags
               for ext in (".csv", ".verdict.txt"))]
    for name in files:
        _check_output(os.path.join(cfg.out_dir, name), is_dir=False, name="out_dir")
    p = resolve_problem(cfg)
    gammas = [resolve_gamma(cfg.gamma_spec, p, cfg.M, cfg.T, s.H) for s in schedules]
    ref = resolve_reference(p, cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    var_report = measure_variances(p, ref, batch=cfg.batch)
    with open(os.path.join(cfg.out_dir, "variances.txt"), "w") as f:
        f.write(var_report.to_kv_text())
    with open(os.path.join(cfg.out_dir, "variances_per_node.csv"), "w") as f:
        var_report.to_csv(f)

    summary = []
    any_failed = False
    if not replicated:
        print("guarantees not checked: a verdict needs at least 2 seeds")
    run_cfgs = [RunConfig(M=cfg.M, schedule=schedule, gamma=gamma,
                          gradient_mode=cfg.gradient_mode, batch=cfg.batch,
                          noise_sigma=cfg.noise_sigma, record_every=cfg.record_every)
                for schedule, gamma in zip(schedules, gammas)]
    # Every H is simulated in one lockstep sweep, on the first request below;
    # each H's result is then requested in turn, as its own run (the
    # benchmark's probe, bench/tracing.py, counts each request as one run).
    sweep = Sweep(p, run_cfgs, ref, cfg.seeds)
    for run_cfg, tag in zip(run_cfgs, tags):
        schedule = run_cfg.schedule
        try:
            trace = run_replicated(p, run_cfg, ref, cfg.seeds, sweep=sweep)
        except DivergenceError as e:
            print(f"H={schedule.H}: {e} (run skipped)")
            summary.append((schedule.H, None, None, None, "diverged"))
            continue
        trace.metadata.update(_sigma_metadata(var_report))
        with open(os.path.join(cfg.out_dir, f"run_{tag}.csv"), "w") as f:
            trace.to_csv(f)
        comm = trace.comm_rounds
        final_sub, final_dist = trace.mean["subopt"][-1], trace.mean["dist_sq"][-1]
        verdicts = (_emit_bounds(cfg, p, run_cfg, ref, var_report, trace, tag)
                    if replicated else [])
        holds = all(v.holds for _, v in verdicts) if verdicts else None
        if holds is False:
            any_failed = True
        summary.append((schedule.H, comm, float(final_sub), float(final_dist),
                        "" if holds is None else ("holds" if holds else "violated")))
        print(f"H={schedule.H}: comm_rounds={comm} final_subopt={final_sub:.4e} "
              f"final_dist_sq={final_dist:.4e}"
              + (f" bounds={'ok' if holds else 'VIOLATED'}" if holds is not None else ""))

    with open(os.path.join(cfg.out_dir, "summary.csv"), "w") as f:
        f.write("H,comm_rounds,final_subopt,final_dist_sq,bounds\n")
        for H, comm, fs, fd, b in summary:
            f.write(f"{H},{'' if comm is None else comm},{'' if fs is None else repr(fs)},"
                    f"{'' if fd is None else repr(fd)},{b}\n")
    return EXIT_CRITERION if any_failed else EXIT_OK


def _sigma_metadata(vr) -> dict:
    return {
        "sigma_sq_estimate": repr(float(vr.sigma_sq)),
        "sigma_sq_is_estimate": True,
        "sigma_opt_sq": repr(float(vr.sigma_opt_sq)),
        "sigma_dif_sq": repr(float(vr.sigma_dif_sq)),
        "sigma_batch": vr.batch_size,
    }


def _emit_bounds(cfg, p, run_cfg, ref, var_report, agg, tag) -> list:
    curves, skipped = theory.applicable_bounds(p, run_cfg, ref, var_report)
    for theorem_id, why in skipped:
        print(f"H={run_cfg.schedule.H}: {theorem_id} not checked: {why}")
    verdicts = []
    for curve in curves:
        v = theory.check_bound(curve, agg)
        verdicts.append((curve, v))
        base = os.path.join(cfg.out_dir, f"bound_{curve.theorem_id}_{tag}")
        with open(base + ".csv", "w") as f:
            _write_curve_csv(f, curve, agg)
        with open(base + ".verdict.txt", "w") as f:
            f.write(v.to_kv_text())
            f.write(f"theorem_id = {curve.theorem_id}\n")
            for k, val in sorted(vars(curve.inputs).items()):
                f.write(f"input.{k} = {val!r}\n")
    return verdicts


def _write_curve_csv(stream, curve, agg) -> None:
    stream.write(f"# theorem_id = {curve.theorem_id}\n")
    stream.write(f"# metric = {curve.metric}\n")
    for k, val in sorted(vars(curve.inputs).items()):
        stream.write(f"# input.{k} = {val!r}\n")
    if curve.notes:
        stream.write(f"# notes = {curve.notes}\n")
    stream.write("t,rhs\n")
    for t in agg.t[theory.compared_steps(curve, agg)]:
        stream.write(f"{int(t)},{curve.rhs_at(int(t))!r}\n")


def cmd_solve_ref(args) -> int:
    cfg = _resolved_config(args)
    out = args.out
    if out is None:
        _check_output(cfg.out_dir, is_dir=True, name="out_dir")
        out = os.path.join(cfg.out_dir, "reference.txt")
    _check_output(out, is_dir=False, name="out_dir" if args.out is None else None)
    p = resolve_problem(cfg)
    ref = resolve_reference(p, cfg)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        f.write(ref.to_kv_text())
        f.write(f"L = {p.L!r}\nL_component = {p.L_component!r}\n"
                f"mu = {p.mu!r}\nlambda = {p.lam!r}\n")
    print(f"wrote {out} (f* = {ref.f_star!r}, ||grad|| = {ref.grad_norm:.3e})")
    return EXIT_OK


def cmd_plan(args) -> int:
    if args.what == "h":
        print(theory.plan_H(args.rule, args.T, args.M, kappa=args.kappa))
        return EXIT_OK
    pg = theory.plan_gamma(args.rule, L=args.L, mu=args.mu, M=args.M, T=args.T,
                           H=args.H, t_param=args.t_param)
    print(f"{pg.gamma!r}  # satisfies {pg.precondition}"
          + (f"; suggested T >= {pg.suggested_T}" if pg.suggested_T else ""))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.out is not None:
        _check_output(args.out, is_dir=False)
    results = verify.run_all(level=args.level)
    for r in results:
        print(r.line())
    failed = [r for r in results if r.failed]
    if args.out is not None:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump([{"name": r.name, "status": r.status,
                        "details": r.details, "seconds": round(r.seconds, 3)}
                       for r in results], f, indent=2)
        print(f"wrote {args.out}")
    print(f"{sum(r.status == 'PASS' for r in results)} passed, "
          f"{len(failed)} failed, "
          f"{sum(r.status == 'SKIP' for r in results)} skipped")
    return EXIT_CRITERION if failed else EXIT_OK


def _resolved_config(args) -> ExperimentConfig:
    """The config file with the flags applied, refused before any work if
    lambda^2 or noise_sigma^2 is not finite: the first enters every
    per-sample gradient norm of the variance report, the second every
    bound's sigma^2."""
    cfg = load_config(args.config)
    for f in fields(cfg):
        raw = getattr(args, f.name, None) if f.metadata["flag"] else None
        if raw is not None:
            setattr(cfg, f.name, _parse(f.metadata["parse"], raw, f.metadata["flag"]))
    for name in ("lam", "noise_sigma"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value * value):
            raise _invalid(name, f"{value!r} has a square that is not finite")
    return cfg


# The flagged fields `variances` and `solve-ref` read; `run` reads them all.
# A subcommand refuses the flag of a field it does not read.
_VARIANCES_FIELDS = ("source", "lam", "tol", "out_dir")
_SOLVE_REF_FIELDS = _VARIANCES_FIELDS + ("M", "regime")


def _add_common(sub, names: tuple[str, ...] | None = None):
    """--config, and the flag of each ExperimentConfig field in `names`
    (every flagged field when None)."""
    sub.add_argument("--config", help="INI config file")
    for f in fields(ExperimentConfig):
        if f.metadata["flag"] and (names is None or f.name in names):
            sub.add_argument(f.metadata["flag"], dest=f.name, help=f.metadata["help"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="localsgd",
        description="Local SGD simulator and convergence-bound verifier")
    sp = ap.add_subparsers(dest="command", required=True)

    v = sp.add_parser("variances", help="sweep sigma quantities over M and batch")
    _add_common(v, _VARIANCES_FIELDS)
    v.set_defaults(fn=cmd_variances)

    r = sp.add_parser("run", help="run the H sweep with bound verdicts")
    _add_common(r)
    r.set_defaults(fn=cmd_run)

    s = sp.add_parser("solve-ref", help="solve and store the reference optimum")
    _add_common(s, _SOLVE_REF_FIELDS)
    s.add_argument("--out", help="output path")
    s.set_defaults(fn=cmd_solve_ref)

    pl = sp.add_parser("plan", help="optimal-H and stepsize planners")
    pl.add_argument("--what", choices=["h", "gamma"], required=True)
    pl.add_argument("--rule", required=True)
    for flag in ("--T", "--M", "--H"):
        pl.add_argument(flag, type=_positive_int)
    for flag in ("--kappa", "--L", "--mu", "--t-param"):
        pl.add_argument(flag, type=_positive_float)
    pl.set_defaults(fn=cmd_plan)

    ve = sp.add_parser("verify", help="run the acceptance criteria")
    ve.add_argument("--level", choices=["fast", "full"], default="fast")
    ve.add_argument("--out", help="write machine-readable results (JSON)")
    ve.set_defaults(fn=cmd_verify)
    for parser in (ap, *sp.choices.values()):
        parser.allow_abbrev = False  # no prefix silently stands for a longer flag
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, configparser.Error, theory.PreconditionError,
            theory.UnknownRuleError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (dataio.ManifestError, dataio.LibsvmFormatError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
