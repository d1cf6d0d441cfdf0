#!/usr/bin/env python3
"""Reduced-length run of every workload, untraced and traced.

Asserts that each run is correct with no failures, that every metric
BENCHMARK.json names is emitted with its unit and a finite value, that the
traced run wrote its spans, and that hot_read_64k prints the layer ladder.

    python3 perfbench/selftest.py        # from the repository root
"""

import json
import math
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, f"{cmd} exited {done.returncode}:\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True, "\n".join(lines)
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {got} != {want}"
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), f"{workload}: {name} = {m['value']}"
            if key == "end_to_end":
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            else:
                assert Path(f".bench_out/spans-{workload}.txt").is_file()
                if workload == "hot_read_64k":
                    assert any(l.startswith("ladder ") for l in lines), "no ladder"
            print(f"ok {workload} trace={trace}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
