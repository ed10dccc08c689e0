"""Compare two output directories of `localsgd run` or `localsgd variances`.

Usage:  python3 tests/compare_outputs.py OLD_DIR NEW_DIR

For a change that moves the last bits of the outputs. The two directories
must hold the same files, each with the same metadata keys (`# key = value`
header lines, or `key = value` lines of a .txt file) and the same CSV
columns and row count. Every value that is not a float must be equal: the
integer columns (t, round, synced, H, comm_rounds, node, M, batch), the
text columns (bounds, dataset), `holds` and the other text keys of a
verdict. A float is a value that parses as float but not as int; a comma
list of floats (x_star) is compared entry by entry. For each float column
or key that changed the report gives, per file, the maximum relative change
|a - b| / max(|a|, |b|) and the maximum absolute change: a value that was
zero up to the old solver's tolerance reads a relative change near 1 and
a tiny absolute one. A float that turns into nan, or nan into a float,
is a problem, reported once per file and column or key with its count
(`run_H1.csv: subopt_mean 1234 cells float -> nan`). Its last line counts
the files whose floats changed. Exits 0 when nothing but floats changed,
1 otherwise.
"""
from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Comparison:
    problems: list[str] = field(default_factory=list)
    # (file, column or key) -> (max relative change, max absolute change)
    changes: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    # (file, column or key, "float -> nan" or "nan -> float") -> cell count
    nan_flips: Counter = field(default_factory=Counter)

    def report(self) -> str:
        changed = sorted((k, v) for k, v in self.changes.items() if v != (0.0, 0.0))
        lines = [f"{name}: {key} max rel {rel:.3g} max abs {ab:.3g}"
                 for (name, key), (rel, ab) in changed]
        lines += [f"PROBLEM {p}" for p in self.problems]
        files = len({name for (name, _), _ in changed})
        lines.append(("same files, keys, integer and text values"
                      if not self.problems else f"{len(self.problems)} problems")
                     + f"; files with changed floats: {files}")
        return "\n".join(lines)


def read_output(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(metadata, CSV header, CSV rows) of one output file."""
    meta, header, rows = {}, [], []
    with open(path) as f:
        for line in f.read().splitlines():
            if path.endswith(".txt") or line.startswith("# "):
                key, _, value = line.removeprefix("# ").partition(" = ")
                meta[key] = value
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def _floats(text: str) -> list[float] | None:
    """The floats of a value, or None for an integer or text value."""
    try:
        int(text)
        return None
    except ValueError:
        pass
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        return None


def _compare_value(cmp: Comparison, name: str, key: str, old: str, new: str) -> None:
    a, b = _floats(old), _floats(new)
    if a is None or b is None or len(a) != len(b):
        if old != new:
            cmp.problems.append(f"{name}: {key} {old!r} -> {new!r}")
        return
    rel, ab = cmp.changes.get((name, key), (0.0, 0.0))
    for x, y in zip(a, b):
        if math.isnan(x) or math.isnan(y):
            if math.isnan(x) != math.isnan(y):
                flip = "nan -> float" if math.isnan(x) else "float -> nan"
                cmp.nan_flips[(name, key, flip)] += 1
            continue
        if x != y:
            ab = max(ab, abs(x - y))
            rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
    cmp.changes[(name, key)] = (rel, ab)


def compare_dirs(old_dir: str, new_dir: str) -> Comparison:
    cmp = Comparison()

    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, fs in os.walk(root) for f in fs}

    old_files, new_files = files(old_dir), files(new_dir)
    for name in sorted(old_files ^ new_files):
        cmp.problems.append(f"{name}: only in "
                            f"{old_dir if name in old_files else new_dir}")
    for name in sorted(old_files & new_files):
        old_meta, old_header, old_rows = read_output(os.path.join(old_dir, name))
        new_meta, new_header, new_rows = read_output(os.path.join(new_dir, name))
        if old_meta.keys() != new_meta.keys():
            cmp.problems.append(f"{name}: metadata keys differ: "
                                f"{sorted(old_meta.keys() ^ new_meta.keys())}")
        for key in sorted(old_meta.keys() & new_meta.keys()):
            _compare_value(cmp, name, key, old_meta[key], new_meta[key])
        if old_header != new_header or len(old_rows) != len(new_rows):
            cmp.problems.append(f"{name}: columns or row count differ")
            continue
        for old_row, new_row in zip(old_rows, new_rows):
            for col, a, b in zip(old_header, old_row, new_row):
                _compare_value(cmp, name, col, a, b)
    cmp.problems += [f"{name}: {key} {count} cells {flip}"
                     for (name, key, flip), count in sorted(cmp.nan_flips.items())]
    return cmp


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cmp = compare_dirs(*argv)
    print(cmp.report())
    return 1 if cmp.problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
