"""Smoke-size self-test of the benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload it runs ``run.py --smoke`` once untraced and twice traced
on one seed, then checks that

* the last line has exactly the keys correct, attempted, failed and metrics,
  and the run is correct;
* every metric BENCHMARK.json names is printed with the unit it declares;
* the count metrics (calls, lanes, out_bytes, exact_frac, ...) repeat
  exactly across the two traced runs;
* without the skinspec sources the benchmark exits nonzero and prints no
  result.

Exits 0 when every check holds and prints one line per failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench_selftest"
EXACT = {"cli.out_bytes", "cli.fail_frac", "toeplitz2.exact_frac", "spectral.sigma_min_bad_frac"}


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int, problems: list[str]) -> dict:
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    if done.returncode != 0:
        problems.append(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
        return {}
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload} trace {trace}: result keys {sorted(res)}")
    elif res["correct"] is not True or not res["attempted"] >= 1:
        problems.append(f"{workload} trace {trace}: correct={res['correct']} "
                        f"attempted={res['attempted']}")
    return res.get("metrics", {})


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        seen = {trace: result(workload, trace, problems) for trace in (0, 1)}
        again = result(workload, 1, problems)
        for trace, metrics in seen.items():
            for m in declared[trace]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{workload}: {m['name']} printed as {got}, unit {m['unit']}")
            extra = set(metrics) - {m["name"] for m in declared[trace]}
            if extra:
                problems.append(f"{workload}: undeclared metrics {sorted(extra)}")
        for m in declared[1]:
            name = m["name"]
            if (m["unit"] == "count" or name in EXACT) and name in seen[1] and name in again:
                if seen[1][name]["value"] != again[name]["value"]:
                    problems.append(f"{workload}: {name} {seen[1][name]['value']} then "
                                    f"{again[name]['value']}")

    shutil.rmtree(BARE, ignore_errors=True)
    shutil.copytree(HERE, BARE / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    try:
        done = bench(BARE, "--workload", "chain-modes", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("without sources: benchmark exited 0 or printed a result")

    for p in problems:
        print(f"selftest: {p}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
