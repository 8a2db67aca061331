"""Time ``python -m coalstab`` per subcommand, one row each, median of 9 rounds.

    python3 tools/cli_rows.py [SRC_DIR ...]

Each row is one request on a bundled document (``generate`` writes into a
temporary directory).  Per tree a row prints the median wall time of the
whole process and the median ms that ``-X importtime`` charges to
``coalstab``: the cumulative time of every ``coalstab`` import not nested
in another, including the standard-library modules they pull in.  The two
come from separate processes, so ``-X importtime`` does not slow the wall
time.  The ``interpreter`` row is ``python -c pass``.  Processes inherit
this environment; without cached bytecode (``PYTHONDONTWRITEBYTECODE=1``,
or a read-only tree) each one compiles every module it imports.
``SRC_DIR`` (default: this repository's ``src``) is the package to time;
given several, each round runs every row on each tree in turn, starting
from a different tree each round.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 9


def rows(out: Path) -> "list[tuple[str, list[str]]]":
    """(label, interpreter arguments) per row."""
    game = lambda name: str(ROOT / "games" / f"{name}.game")
    cli = lambda *args: ["-m", "coalstab", *args]
    return [
        ("interpreter", ["-c", "pass"]),
        ("check", cli("check", "--game", game("exa-a"), "--partition", "two-one", "--notion", "dc")),
        ("find", cli("find", "--game", game("exa-miss"), "--notion", "dc")),
        ("solve", cli("solve", "--game", game("exa-2"))),
        ("iterate", cli("iterate", "--game", game("exa-1"), "--start", "singletons")),
        ("outcomes", cli("outcomes", "--game", game("exa-1"), "--start", "singletons")),
        ("generate", cli("generate", "--family", "generalized_odd", "--param", "n=4", "--out", str(out / "odd.game"))),
    ]


def import_ms(report: str) -> float:
    """The ms ``-X importtime`` charges to ``coalstab`` imports not nested in another."""
    lines = [line.split("|") for line in report.splitlines() if line.startswith("import time:")]
    total, stack = 0.0, []  # (depth, inside a coalstab import)
    # Children print before their parent, so walk the lines backwards.
    for _, cumulative, field in reversed(lines[1:]):
        name = field.strip()
        depth = (len(field) - len(field.lstrip())) // 2
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == "coalstab" or name.startswith("coalstab.")
        if mine and not inside:
            total += int(cumulative) / 1e3
        stack.append((depth, inside or mine))
    return total


def run(src: Path, args: "list[str]", importtime: bool) -> "tuple[float, float]":
    """Wall ms of one process, and its ``coalstab`` import ms (0 without ``importtime``)."""
    flags = ["-X", "importtime"] if importtime else []
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, *args], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = (time.perf_counter() - start) * 1e3
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{src}: {' '.join(args)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return wall, import_ms(proc.stderr)


def main() -> None:
    srcs = [Path(a).resolve() for a in sys.argv[1:]] or [ROOT / "src"]
    with tempfile.TemporaryDirectory() as tmp:
        table = rows(Path(tmp))
        walls = {(i, label): [] for i in range(len(srcs)) for label, _ in table}
        imports = {key: [] for key in walls}
        for r in range(ROUNDS):
            for label, args in table:
                for k in range(len(srcs)):
                    i = (r + k) % len(srcs)
                    walls[i, label].append(run(srcs[i], args, False)[0])
                    imports[i, label].append(run(srcs[i], args, True)[1])
    for i, src in enumerate(srcs):
        print(f"tree {i}: coalstab from {src}")
    print(f"median of {ROUNDS} rounds, ms")
    head = "".join(f"{f'wall {i}':>10}{f'import {i}':>10}" for i in range(len(srcs)))
    print(f"{'row':<12}{head}" + (f"{'wall Δ':>10}" if len(srcs) == 2 else ""))
    for label, _ in table:
        wall = [statistics.median(walls[i, label]) for i in range(len(srcs))]
        imp = [statistics.median(imports[i, label]) for i in range(len(srcs))]
        cells = "".join(f"{w:10.1f}{m:10.1f}" for w, m in zip(wall, imp))
        delta = f"{(wall[1] / wall[0] - 1) * 100:+9.1f}%" if len(srcs) == 2 else ""
        print(f"{label:<12}{cells}{delta}")


if __name__ == "__main__":
    main()
