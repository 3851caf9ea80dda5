"""Harness self-test: a tiny run of every workload emits every metric it promises.

Run from the repository root:

    python3 hlbench/selftest.py

Each workload runs with ``--tiny`` for one second, untraced and traced, each
in its own process.  The result line must carry exactly the metrics that
BENCHMARK.json names for that mode, each with its unit and a finite value,
and no check may fail.  The traced run's span file must be well formed.
Last, the harness must exit non-zero without a result line in a copy that
holds only BENCHMARK.json and the benchmark's own directories.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "hlbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec, workload: str, trace: int):
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, (workload, trace, proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == wanted, (workload, trace, set(emitted) ^ set(wanted))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    return result


def check_spans(workload: str):
    path = ROOT / ".hlbench_out" / f"spans-{workload}-seed0.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, workload
    for span in spans:
        assert span["start"] <= span["end"], span
        parent = span["parent"]
        if parent is not None:
            assert parent < span["id"], span
            outer = spans[parent]
            assert outer["start"] <= span["start"] and span["end"] <= outer["end"], span
            assert outer["check"] == span["check"], span


def check_bare_copy(spec):
    """Without src/ and scenarios/, the harness must fail and print no result."""
    bare = ROOT / ".hlbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "0",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = check_result(spec, workload, trace)
            print(f"selftest: {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checks, all correct")
        check_spans(workload)
    check_bare_copy(spec)
    print("selftest: bare copy exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
