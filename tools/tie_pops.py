"""Count the tie walk's heap pops where it stops early, on adversarial tables.

    python3 tools/tie_pops.py

The strict checks read the walk up to its second grouping when ``p`` is
the first, and ``find_dc_stable`` up to the first dc-stable one.  A node
popped before that is a prefix of a tied partition whose key is below
theirs.  Its placed players agree with the next grouping's labels up to
some unplaced player whose label there is higher, so the worst tables
tie many placements of late players and make early players' labels
jump.  Rows, each over a fresh game (pops counted by wrapping
``solver.heappop``):

- the all-zero game, where every partition ties;
- ``c`` *core* players that must sit in distinct blocks (a block holding
  two of them is worth -1) and ``n - c`` null players, worth nothing and
  free to join any block: before the first grouping the walk pops every
  placement of the null players beside the first ``c - 2`` core blocks;
- ``exa-1``, which has no dc-stable partition, with null players added:
  ``find_dc_stable`` vets every maximizer and pops the whole tie tree,
  or, past Bell(10) maximizers at 12 players, vets Bell(10) of them and
  refuses.

Each row gives the tied partitions, the pops before the second grouping
(the strict rival of the first grouping), the pops before
``find_dc_stable`` returns, the pops of the full walk, and the times of
the strict check and the dc search on a fresh game, DP pass and pop
counter included (best of 3).  The dc search vets at most Bell(10)
maximizers: a row where it vets that many, none dc-stable, with more
left reads "refused" and counts the pops up to the refusal.  Past that
many tied partitions the listings refuse, and the full walk is not run.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import coalstab.solver as solver  # noqa: E402
from coalstab import CapExceededError, Game, check_strict_dp, example_game, find_dc_stable  # noqa: E402

POPS = [0]
_heappop = solver.heappop


def _counting_pop(heap):
    POPS[0] += 1
    return _heappop(heap)


solver.heappop = _counting_pop


def counted(f, *args):
    POPS[0] = 0
    out = f(*args)
    return POPS[0], out


def core_and_nulls(n: int, c: int) -> "list[int]":
    core = (1 << c) - 1
    return [-1 if (m & core).bit_count() > 1 else 0 for m in range(1 << n)]


def with_nulls(base: Game, n: int) -> "list[int]":
    v, core = base.dense_table(), base.full_mask
    return [v[m & core] for m in range(1 << n)]


def row(name: str, table: "list[int]", n: int) -> None:
    g = Game(n, table=list(table))
    count, walk = solver._ties(g, n)  # the counting pass and its witness
    p = solver._from_masks(solver.Partition, next(walk))
    second, _ = counted(check_strict_dp, g, p)
    dc, found = counted(_dc_search, g)
    full = "-"
    if count <= solver._LISTING_CAP:  # past it the listings refuse
        full, _ = counted(lambda: sum(1 for _ in solver._ties(g, n)[1]))
    strict_ms = _best_ms(lambda g: check_strict_dp(g, p), table, n)
    dc_ms = _best_ms(_dc_search, table, n)
    outcome = "none" if found is None else "refused" if found == "refused" else "found"
    print(
        f"{name:<18} {count:>9} ties {second:>6} pops to the 2nd {dc:>7} to dc"
        f" ({outcome}) {full!s:>7} in all"
        f"  strict {strict_ms:6.1f} ms  dc {dc_ms:6.1f} ms"
    )


def _dc_search(g: Game):
    """``find_dc_stable(g)``, or "refused" where it refuses."""
    try:
        return find_dc_stable(g)
    except CapExceededError:
        return "refused"


def _best_ms(f, table: "list[int]", n: int) -> float:
    """The best of 3 calls of ``f`` on a fresh game, in ms."""
    times = []
    for _ in range(3):
        g = Game(n, table=list(table))
        t = time.perf_counter()
        f(g)
        times.append(time.perf_counter() - t)
    return min(times) * 1e3


def main() -> None:
    for n in (10, 12):
        row(f"all-zero n={n}", [0] * (1 << n), n)
    for n in (10, 12):
        for c in range(3, n):
            row(f"core {c} + {n - c} null", core_and_nulls(n, c), n)
    base = example_game("exa-1")
    for n in range(base.n + 1, 13):
        row(f"exa-1 + {n - base.n} null", with_nulls(base, n), n)


if __name__ == "__main__":
    main()
