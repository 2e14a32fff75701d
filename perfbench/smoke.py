"""Shortest-length run of every workload, traced and untraced, checking the
output schema against BENCHMARK.json and the human-readable report.

    python3 perfbench/smoke.py

Run from the repository root; takes about two minutes on one core. It also
checks that the benchmark exits nonzero, without a result line, in a copy
that holds only BENCHMARK.json and perfbench/ (no program sources).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# every end-to-end metric of the report, with its unit
REPORT_METRICS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "infer_peak_rss_mb": "MiB", "error_rate": "ratio",
    "step_ms_p50": "ms", "step_ms_p90": "ms", "loss_ratio": "ratio",
    "predict_ms_p50": "ms", "predict_ms_p90": "ms", "predict_pp_ms_p50": "ms", "predict_pp_ms_p90": "ms",
    "eval_scenes_per_s": "scenes/s", "step_ms_min": "ms", "predict_ms_min": "ms", "predict_pp_ms_min": "ms",
    "wall.setup_s": "s", "wall.step_ms_p50": "ms", "wall.predict_ms_p50": "ms", "wall.predict_pp_ms_p50": "ms",
    "wall.eval_scenes_per_s": "scenes/s", "host.kernel_ms": "ms",
}


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(contract, workload, trace):
    proc = run(ROOT, workload, trace)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    section = contract["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metric names/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))[:5]}, extra {sorted(set(got) - set(expected))[:5]}, "
                        f"unit mismatches {[k for k in expected if k in got and got[k] != expected[k]][:5]}")
    for name, entry in result.get("metrics", {}).items():
        if not isinstance(entry.get("value"), (int, float)) or entry["value"] != entry["value"]:
            problems.append(f"{name} has no numeric value")
    report = "\n".join(lines[:-1])
    for name, unit in REPORT_METRICS.items():
        if not re.search(rf"^  {re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+", report, re.M):
            problems.append(f"report lacks {name} in {unit}")
    if not re.search(r"^env nproc=\d+ .*src_lines=\d+", report, re.M):
        problems.append("report lacks the environment record")
    if trace and "per-Conv table" not in report:
        problems.append("traced report lacks the per-Conv table")
    return problems


def check_without_sources():
    """Only BENCHMARK.json and perfbench/: must fail without a result line."""
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "_runs")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_runs", "__pycache__"))
        proc = run(bare, "small32", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit code {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    os.makedirs(os.path.join(BENCH, "_runs"), exist_ok=True)
    failures = 0
    checks = [(f"{w['name']} trace={t}", lambda w=w["name"], t=t: check_run(contract, w, t))
              for w in contract["workloads"] for t in (0, 1)]
    checks.append(("without sources", check_without_sources))
    for label, check in checks:
        problems = check()
        failures += bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
