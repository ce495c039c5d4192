"""Self-test of the benchmark at tiny size (about a minute).

Usage, from the repository root: ``python3 perfbench/selftest.py``.
Checks that every workload runs and verifies its outputs, that every metric
named in ``BENCHMARK.json`` appears with its unit, traced and untraced, that
an injected wrong digest counts as a failed item, and that the benchmark
refuses to run with ``CRYSTAL_POLY_NODE_CAP`` set.  Exits 1 on any failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, load_layer_spec  # noqa: E402


def run(workload, trace, *extra, env=None):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--size", "tiny", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    layers = {name: m["unit"] for name, m in load_layer_spec().items()}
    if layers != expected[1]:
        problems.append("layers.json and BENCHMARK.json per_layer differ")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                                "missing, extra or with another unit")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
        code, result = run(workload, 0, "--inject-bad-digest")
        if result is None or result["failed"] < 1 or result["correct"]:
            problems.append(f"{workload}: an injected wrong digest was not counted as failed")
        print(f"{workload}: checked", flush=True)
    env = dict(os.environ, CRYSTAL_POLY_NODE_CAP="5")
    code, result = run("families", 0, env=env)
    if code == 0 or result is not None:
        problems.append("ran with CRYSTAL_POLY_NODE_CAP set")
    for line in problems:
        print("FAIL " + line)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
