"""Self-test of the benchmark harness at toy scale.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics named in
``BENCHMARK.json``, each with its unit, untraced and traced; that an
injected bad operation is counted as failed without crashing the run; and
that the harness refuses to run, without printing a result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT, script: Path = RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--scale", "toy", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = result_of(proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: outputs not correct: {proc.stdout[-1000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            print(f"{label}: {len(got)} metrics, {result['attempted']} operations")

    proc = run("class_cli", 0, "--inject-failure")
    if proc.returncode != 0:
        problems.append(f"injected failure crashed the run: {proc.stderr[-500:]}")
    else:
        result = result_of(proc)
        if result["failed"] != 1 or result["correct"] or result["attempted"] < 2:
            problems.append(f"injected failure not counted: {proc.stdout[-1000:]}")
        print(f"injected failure: {result['failed']} of {result['attempted']} operations failed")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("trend", 0, cwd=bare, script=bare / RUN.relative_to(ROOT))
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]}")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
