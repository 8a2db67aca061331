"""Check that the benchmark catches what it is meant to catch.

    python3 perfbench/selfcheck.py

1. A short run in a copy of ``BENCHMARK.json``, ``perfbench/`` and
   ``src/`` with one golden answer corrupted (the one the run's first
   request is checked against) must report ``failed`` > 0 and
   ``correct: false``.
2. The same run in the checkout, with the real goldens, must report no
   failure.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, import_coalstab

WORKLOAD, SEED, SECONDS = "dynamics", 7, "2"


def bench(cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        sys.exit(f"benchmark exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_tree(dest: Path, *dirs: str) -> Path:
    """``BENCHMARK.json`` and the named directories of the checkout, copied
    under ``dest``."""
    for d in dirs:
        shutil.copytree(ROOT / d, dest / d, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def main() -> int:
    import_coalstab()
    from workloads import workload

    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch))
    try:
        wl = workload(WORKLOAD, ROOT, tmp)
        kind, index = wl.plan(SEED)[0]
        key = wl.make(kind, index).key
        tree = copy_tree(tmp / "corrupted", "perfbench", "src")
        golden = json.loads((HERE / "golden.json").read_text())
        golden[WORKLOAD][key]["applications"] += 1
        (tree / "perfbench" / "golden.json").write_text(json.dumps(golden))

        corrupted = result(bench(tree))
        assert corrupted["failed"] > 0 and not corrupted["correct"], corrupted
        print(f"corrupted golden {key}: failed {corrupted['failed']} of {corrupted['attempted']}")

        clean = result(bench(ROOT))
        assert clean["failed"] == 0 and clean["correct"], clean
        print(f"real goldens: failed 0 of {clean['attempted']}")

        proc = bench(copy_tree(tmp / "bare", "perfbench"))
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert proc.returncode != 0 and not last.startswith("{"), (proc.returncode, last)
        print(f"without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
