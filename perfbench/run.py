#!/usr/bin/env python3
"""Build the Sprout benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <hot_read_64k|cold_mixed_4k|plan_sim> \
        --seed N --seconds S --trace <0|1>

The benchmark is its own cargo package (perfbench/Cargo.toml) that depends
on the repository's crates by path, so it is always built from the source
in the current checkout. Build output goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset. The program's standard output is passed
through; its last line is the JSON result. Build failures (for example a
checkout without the crates) exit non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build() -> Path:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: build failed (exit {done.returncode})")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def main() -> int:
    binary = build()
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
