"""Smoke test of the benchmark: every workload once, at its smallest size.

Run from the repository root:

    python3 bench/smoke.py

For each workload of BENCHMARK.json it runs ``bench/run.py --size smoke``
untraced and traced, and checks that each run exits 0, reports correct
outputs, and prints exactly the end-to-end (untraced) or per-layer (traced)
metrics of BENCHMARK.json, each with its unit.  Exit status 0 when all
runs pass, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append("outputs not correct")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    for name in sorted(set(expected) | set(got)):
        if got.get(name) != expected.get(name):
            problems.append(f"metric {name}: unit {got.get(name)!r},"
                            f" expected {expected.get(name)!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sections = {0: "end_to_end", 1: "per_layer"}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in sections.items():
            expected = {m["name"]: m["unit"] for m in spec[section]}
            problems = check_run(workload, trace, expected)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
