"""Record the per-item output digests that every benchmark pass checks.

Usage, from the repository root: ``python3 perfbench/record_digests.py``.
Runs one untraced pass of every workload, at both sizes, with the default
seed, and rewrites ``perfbench/digests.json``.  Refuses to record if any item
of any pass has sides that disagree.  Re-record only for a change that is
meant to alter outputs, and say so in the change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for size in ("full", "tiny"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", str(DEFAULT_SEED), "--size", size, "--out-dir", str(out_dir)],
                capture_output=True, text=True, env=env, cwd=ROOT, check=True)
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            bad = [f for f in record["failures"] if f[1] != "digest mismatch"]
            if bad:
                print(f"refusing to record: {workload}/{size}: {bad[:3]}", file=sys.stderr)
                return 1
            table[workload].update(record["digests"])
            print(f"{workload}/{size}: {len(record['digests'])} items")
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
