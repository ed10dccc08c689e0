"""The pinned outputs, but the three full-size benchmark workloads', must
keep the bytes recorded in tests/pinned_digests.txt. A change that moves
them on purpose (a declared rebaseline) rewrites the manifest in the same
change:

    python3 tests/pinned_outputs.py OUT --skip-bench --manifest tests/pinned_digests.txt

Only files the program writes deterministically are in it; a file of
timings or versions would change from run to run and could not be."""
import subprocess
import sys
from pathlib import Path

from pinned_outputs import read_manifest

HERE = Path(__file__).resolve().parent


def test_pinned_outputs_keep_their_digests(tmp_path):
    # The script runs in its own process, which pins BLAS to one thread
    # before numpy loads.
    got_path = tmp_path / "digests.txt"
    subprocess.run([sys.executable, str(HERE / "pinned_outputs.py"), str(tmp_path / "out"),
                    "--skip-bench", "--manifest", str(got_path)],
                   check=True, capture_output=True, timeout=600)
    want_env, want = read_manifest(HERE / "pinned_digests.txt")
    got_env, got = read_manifest(got_path)
    changed = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    problems = [f"{len(changed)} of {len(want)} files differ: {', '.join(changed)}"] if changed else []
    problems += [f"missing: {name}" for name in sorted(want.keys() - got.keys())]
    problems += [f"not in the manifest: {name}" for name in sorted(got.keys() - want.keys())]
    if problems:
        env_diff = [f"{k}: {want_env.get(k)} in the manifest, {got_env.get(k)} here"
                    for k in sorted(want_env.keys() | got_env.keys())
                    if want_env.get(k) != got_env.get(k)]
        problems.append("environment differences: " + ("; ".join(env_diff) if env_diff else
                                                       "none (same versions and core)"))
    assert not problems, "\n".join(problems)
