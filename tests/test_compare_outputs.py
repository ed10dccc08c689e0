import os
import shutil
import sys

import pytest

from localsgd import cli

from compare_outputs import compare_dirs, main
from pinned_outputs import write_configs, write_csr_configs


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The output of one small replicated `run`, with verdicts."""
    root = tmp_path_factory.mktemp("run")
    cfg = root / "cfg.ini"
    cfg.write_text(f"[data]\nn = 60\nd = 3\nseed = 4\n[problem]\nlambda = 0.05\n"
                   f"M = 2\n[run]\ngamma = 0.001\nH = 1,4\nT = 32\nseeds = 0:2\n"
                   f"[output]\ndir = {root / 'out'}\n")
    assert cli.main(["run", "--config", str(cfg)]) == 0
    return root / "out"


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_identical_directories_show_no_change(run_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    cmp = compare_dirs(str(run_dir), str(copy))
    assert cmp.problems == []
    assert cmp.changes and all(c == (0.0, 0.0) for c in cmp.changes.values())
    assert cmp.report() == ("same files, keys, integer and text values; "
                            "files with changed floats: 0")
    assert main([str(run_dir), str(copy)]) == 0


def test_float_change_is_reported_not_refused(run_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    meta = (run_dir / "run_H4.csv").read_text().split("# f_star = ")[1].split("\n")[0]
    _edit(copy / "run_H4.csv", f"# f_star = {meta}", f"# f_star = {float(meta) * 1.5!r}")
    cmp = compare_dirs(str(run_dir), str(copy))
    assert cmp.problems == []
    rel, ab = cmp.changes[("run_H4.csv", "f_star")]
    assert rel == pytest.approx(1 / 3) and ab == pytest.approx(0.5 * float(meta))
    lines = cmp.report().splitlines()
    assert len(lines) == 2 and lines[0].startswith("run_H4.csv: f_star max rel 0.333")
    assert lines[1].endswith("; files with changed floats: 1")


@pytest.mark.parametrize("name, old, new", [
    ("bound_SC_IID_FS_H4.verdict.txt", "holds = True", "holds = False"),
    ("run_H1.csv", "\n1,1,1,", "\n2,1,1,"),
])
def test_changed_holds_or_step_is_a_problem(run_dir, tmp_path, name, old, new):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    _edit(copy / name, old, new)
    cmp = compare_dirs(str(run_dir), str(copy))
    assert len(cmp.problems) == 1 and cmp.problems[0].startswith(name)
    assert main([str(run_dir), str(copy)]) == 1


def test_float_turned_nan_is_one_problem_per_column_with_a_count(run_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    header, *rows = [line.split(",") for line in
                     (run_dir / "run_H1.csv").read_text().splitlines()
                     if not line.startswith("#")]
    col = header.index("subopt_mean")
    for row in rows[3:8]:
        _edit(copy / "run_H1.csv", "\n" + ",".join(row) + "\n",
              "\n" + ",".join(row[:col] + ["nan"] + row[col + 1:]) + "\n")
    cmp = compare_dirs(str(run_dir), str(copy))
    assert cmp.problems == ["run_H1.csv: subopt_mean 5 cells float -> nan"]
    assert main([str(run_dir), str(copy)]) == 1
    back = compare_dirs(str(copy), str(run_dir))
    assert back.problems == ["run_H1.csv: subopt_mean 5 cells nan -> float"]


def test_missing_file_is_a_problem(run_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    (copy / "summary.csv").unlink()
    cmp = compare_dirs(str(run_dir), str(copy))
    assert cmp.problems == [f"summary.csv: only in {run_dir}"]


def test_pinned_configs_load(tmp_path):
    paths = write_configs(str(tmp_path))
    cfgs = [cli.load_config(path) for path in paths.values()]
    assert len({(c.regime, c.gradient_mode, c.seeds, c.M) for c in cfgs}) == 14
    assert all((c.n, c.d, c.T, c.H_list) == (90, 7, 40, (1, 4)) for c in cfgs)
    assert sorted(c.M for c in cfgs) == [3] * 12 + [4] * 2


def test_pinned_csr_configs_load_csr_data(tmp_path):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    paths = write_csr_configs(str(tmp_path), workloads)
    cfgs = [cli.load_config(path) for path in paths.values()]
    assert len({(c.regime, c.gradient_mode) for c in cfgs}) == 4
    ds = cli.resolve_dataset(cfgs[0])
    assert not ds.is_dense and (ds.n, ds.dim) == (2000, 123)
