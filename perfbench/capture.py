"""Capture the golden answers in ``golden.json``.

    python3 perfbench/capture.py

Runs every pool instance of every workload once, untraced, through the
same request and answer code the benchmark uses, and records the answers.
Every answer for a game of at most 10 players is first cross-checked
against the brute-force oracles (``check_definitional`` and
``enumerate_partitions``); a disagreement aborts the capture.  Run it only
at a commit whose answers are trusted: the goldens then hold later commits
to the same answers.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, import_coalstab

ORACLE_N = 10


def agree(cond: bool, key: str, what: str) -> None:
    if not cond:
        sys.exit(f"oracle disagrees on {key}: {what}")


def maximizers_by_enumeration(g, max_blocks=None):
    from coalstab import enumerate_partitions, social_welfare

    best, found = None, []
    for q in enumerate_partitions(g.n):
        if max_blocks is not None and len(q) > max_blocks:
            continue
        w = social_welfare(g, q)
        if best is None or w > best:
            best, found = w, [q]
        elif w == best:
            found.append(q)
    return best, found


def oracle_ties(inp, r, ans) -> None:
    from coalstab import Partition, check_definitional, dp_k
    from workloads import by_masks, digest

    g, grand, key = r["g"], r["grand"], inp.key
    memo: dict = {}

    def stable(q, kind, strict=False):
        if (q, str(kind), strict) not in memo:
            memo[q, str(kind), strict] = check_definitional(g, q, kind, strict).stable
        return memo[q, str(kind), strict]

    agree(stable(grand, dp_k(3), True) == ans["dpk3_strict"], key, "strict dpk:3 on the grand partition")
    for q, plain, strict in zip(r["targets"], ans["dhp"], ans["strict_dhp"]):
        agree(stable(q, "dhp") == plain and stable(q, "dhp", True) == strict, key, f"dhp on {q}")
    if "mx" not in r:
        return
    best, maxi = maximizers_by_enumeration(g)
    agree(str(best) == ans["optimum"] and len(maxi) == ans["maximizers"], key, "optimum or maximizer count")
    agree(digest(maxi) == ans["maximizer_digest"], key, "maximizer set")
    agree(stable(by_masks(maxi)[0], "dp", True) == ans["strict_dp"], key, "strict dp")
    agree(any(stable(q, "dc") for q in maxi) == ans["dc_found"], key, "existence of a dc-stable partition")
    if r["found"] is not None:
        agree(stable(r["found"], "dc"), key, "find_dc_stable's partition")
    single = Partition.singletons(g.n)
    cor = [stable(grand, "dc"), stable(grand, "dc", True), stable(single, "dc"), stable(single, "dc", True)]
    agree(cor == ans["corollary"], key, "corollary shortcuts")


def oracle_dynamics(inp, r, ans) -> None:
    from coalstab import check_definitional, enumerate_partitions, social_welfare

    g, key = r["g"], inp.key
    v = g.dense_table()
    # Partitions closed under merge and split are exactly the dhp-stable ones.
    for q in set().union(*r["outs"].values()) | {t.final for t in r["traces"].values()}:
        agree(check_definitional(g, q, "dhp").stable, key, f"fixpoint {q} is not dhp-stable")
    gaining = sum(1 for q in enumerate_partitions(g.n) if len(q) > 1 and social_welfare(g, q) > v[g.full_mask])
    agree(gaining == ans["applications"], key, "applications at the grand partition")


def oracle_cli(inp, ans) -> None:
    from coalstab import Partition, check_definitional, enumerate_partitions, load_game

    argv = inp.data
    game = inp.extra["game"]
    if ans["exit"] not in (0, 1) or game is None or game == "{big}":
        return
    g, named = load_game(ROOT / game)
    opts = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--") and not argv[i + 1].startswith("--")}
    flags = set(argv)
    key = inp.key

    def part(text):
        return Partition.parse(text) if "{" in text else named[text]

    cmd = argv[0]
    if cmd == "check":
        want = check_definitional(g, part(opts["--partition"]), opts["--notion"], "--strict" in flags).stable
        agree(want == ans["stable"], key, "check verdict")
    elif cmd == "find" and opts["--notion"] == "dc":
        agree(any(check_definitional(g, q, "dc").stable for q in enumerate_partitions(g.n)) == ans["found"], key, "find dc")
    elif cmd == "solve":
        bound = int(opts["--max-size"]) if "--max-size" in opts else None
        best, maxi = maximizers_by_enumeration(g, bound)
        agree(str(best) == ans["optimum"], key, "optimum")
        if "--all-maximizers" in flags:
            agree(len(maxi) == ans["maximizer_count"], key, "maximizer count")
    elif cmd == "iterate":
        agree(check_definitional(g, Partition.parse(ans["final"]), "dhp").stable, key, "iterate final")
    elif cmd == "outcomes":
        for q in ans["outcomes"]:
            agree(check_definitional(g, Partition.parse(q), "dhp").stable, key, f"outcome {q}")


def capture(name: str, tmp: Path) -> dict:
    from workloads import BIG_POOL, _UNTRACED, workload

    wl = workload(name, ROOT, tmp)
    out: dict = {}
    rounds = range(BIG_POOL) if name == "cli" else [None]
    for big in rounds:
        if big is not None:
            wl.big = big
            wl.setup([])
        for kind in dict.fromkeys(wl.pattern):
            for index in range(wl.pool(kind)):
                inp = wl.make(kind, index)
                if inp.key in out:
                    continue
                raw = wl.run(_UNTRACED, inp)
                ans = wl.answer(inp, raw)
                if name == "ties" and inp.n <= ORACLE_N:
                    oracle_ties(inp, raw, ans)
                elif name == "dynamics":
                    oracle_dynamics(inp, raw, ans)
                elif name == "cli":
                    oracle_cli(inp, ans)
                out[inp.key] = ans
                print(f"{name} {inp.key}: {ans}", flush=True)
    return out


def main() -> int:
    import_coalstab()
    from workloads import WORKLOADS

    golden = {}
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="capture-", dir=scratch))
    try:
        for name in WORKLOADS:
            golden[name] = capture(name, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
