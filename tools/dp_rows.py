"""Time the solver in process, one row per table, best of 3.

    python3 tools/dp_rows.py [SRC_DIR]

``optimal_partition`` rows: random 0..100 int tables at n = 12 and 14, a
12-player table with denominators 1..6, the 12-player transportation game
(three cities, decay 1/2 2/3 3/4).  ``optimal_partition_bounded(g, 3)``
on the 12-player int table, as the benchmark's ``solve`` workload runs
it.  The largest n whose int table is solved within 1 s (best of 3), and
the largest within 10 s (one run, up to ``SOLVER_CAP``).  A search at the
edge of its budget can flip between runs, so every n either search tried
is then timed ``RERUNS`` more times, round-robin over those n so that a
drift of the machine reaches each n alike; each n's row prints the time
the search used and, beside it, the min–max of the reruns.  The reruns
add about three times the 10 s search's own time, most of the tool's run
time: on a 2-vCPU Xeon with Python 3.11.7, where n = 17 took 6.4 s and
n = 18 14.2 s, they took about 70 s of the tool's 106 s.  Two rows time
the tie paths at their 12-player cap on a strictly superadditive table:
``all_maximizers`` and ``check_dp_k_strict(g, grand, 3)``.  Two time
``check_strict_dp(g, grand)`` at 12 players where the DP's tie counts
do the most bookkeeping: on the all-zero table, where every candidate
ties, and on a random 0..2 table.  One times ``check_dhp`` and
``check_strict_dhp`` at the grand partition of that 0..2 table once
``optimal_partition`` has cached its tables, untimed: the split scan
walks the grand block's best grouping off them in place.  Two time
the dynamics split rule on the same table: ``is_closed`` at the grand
partition under merge and split, and at ``{1..11} {12}`` under the
split rule alone.  Two time
``closure_outcomes`` from the singletons of an 8-player strictly
superadditive table, where every one of the Bell(8) partitions is
reachable: under merge and split, and under all four rules.  One times
``parse_game`` on the 14-player int table's document, as
``serialize_game`` writes it, in the form the benchmark's ``solve``
workload parses for its random 0..100 tables.
Each run calls a fresh game over a table built beforehand, so a row is
the DP, its tie walk and its cached tables, not the table's construction.
``SRC_DIR`` (default: this repository's ``src``) is the package to time.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from coalstab import (  # noqa: E402
    ALL_RULES,
    DEFAULT_RULES,
    SOLVER_CAP,
    CityConfig,
    Game,
    Partition,
    all_maximizers,
    check_dhp,
    check_dp_k_strict,
    check_strict_dhp,
    check_strict_dp,
    closure_outcomes,
    is_closed,
    optimal_partition,
    optimal_partition_bounded,
    parse_game,
    serialize_game,
    transportation_game,
)


def solve_ms(n: int, table: list, call=optimal_partition, prep=None) -> float:
    """Wall time of one ``call`` on a fresh game, in ms, after an untimed
    ``prep`` on the same game if one is given."""
    g = Game(n, table=table)
    if prep is not None:
        prep(g)
    start = time.perf_counter()
    call(g)
    return (time.perf_counter() - start) * 1e3


def best_of_3(n: int, table: list, call=optimal_partition, prep=None) -> float:
    return min(solve_ms(n, table, call, prep) for _ in range(3))


RERUNS = 3  # timed runs of each n the largest-n searches tried


def rerun_spread(ns) -> "dict[int, tuple[float, float]]":
    """The min and max in ms of ``RERUNS`` runs of each n in ``ns``, one
    run per n per round."""
    tables = {n: int_table(n) for n in ns}
    times: "dict[int, list[float]]" = {n: [] for n in ns}
    for _ in range(RERUNS):
        for n in ns:
            times[n].append(solve_ms(n, tables[n]))
    return {n: (min(t), max(t)) for n, t in times.items()}


def largest_n(n: int, budget_ms: float, runs: int) -> "tuple[int | None, list]":
    """The largest n, counting up from ``n`` to ``SOLVER_CAP``, whose int
    table ``optimal_partition`` solves within ``budget_ms`` (best of
    ``runs``), or ``None``; and each n tried with its time in ms."""
    fits, tried = None, []
    while n <= SOLVER_CAP:
        table = int_table(n)
        ms = min(solve_ms(n, table) for _ in range(runs))
        tried.append((n, ms))
        if ms > budget_ms:
            break
        fits, n = n, n + 1
    return fits, tried


def int_table(n: int) -> list:
    rng = random.Random(f"dp_rows|{n}")
    return [0] + [rng.randint(0, 100) for _ in range((1 << n) - 1)]


def fraction_table(n: int) -> list:
    rng = random.Random(f"dp_rows|fraction|{n}")
    draw = lambda: Fraction(rng.randint(0, 600), rng.randint(1, 6))
    return [0] + [draw() for _ in range((1 << n) - 1)]


def tie_table(n: int) -> list:
    rng = random.Random(f"dp_rows|tie|{n}")
    return [0] + [rng.randint(0, 2) for _ in range((1 << n) - 1)]


def superadditive_table(n: int) -> list:
    """``10·|S|² + U(0..9)``: strictly superadditive, since 20·|A|·|B| > 18,
    so the grand partition is the one maximizer."""
    rng = random.Random(f"dp_rows|superadditive|{n}")
    return [0] + [10 * m.bit_count() ** 2 + rng.randint(0, 9) for m in range(1, 1 << n)]


def transportation_table() -> list:
    cities = Partition.parse("{1,2,3,4} {5,6,7,8} {9,10,11,12}")
    g, _ = transportation_game(CityConfig(cities, (5, 7, 3), ("1/2", "2/3", "3/4"), 2))
    return g.dense_table()


def main() -> None:
    grand3 = lambda g: check_dp_k_strict(g, Partition.grand(g.n), 3)
    strict = lambda g: check_strict_dp(g, Partition.grand(g.n))
    closed = lambda g: is_closed(g, Partition.grand(g.n))
    eleven = Partition.parse("{1,2,3,4,5,6,7,8,9,10,11} {12}")
    split_closed = lambda g: is_closed(g, eleven, ["split"])
    closure = lambda rules: lambda g: closure_outcomes(g, Partition.singletons(g.n), rules)
    bounded3 = lambda g: optimal_partition_bounded(g, 3)
    grand_dhp = lambda g: (check_dhp(g, Partition.grand(g.n)), check_strict_dhp(g, Partition.grand(g.n)))
    doc = serialize_game(Game(14, table=int_table(14)))
    parse = lambda g: parse_game(doc)
    rows = [
        ("int table, n = 12", 12, int_table(12), optimal_partition),
        ("int table, n = 14", 14, int_table(14), optimal_partition),
        ("bounded k=3, n = 12", 12, int_table(12), bounded3),
        ("denominators 1..6, n = 12", 12, fraction_table(12), optimal_partition),
        ("transportation, n = 12", 12, transportation_table(), optimal_partition),
        ("all_maximizers, n = 12", 12, superadditive_table(12), all_maximizers),
        ("check_dp_k_strict k=3, n = 12", 12, superadditive_table(12), grand3),
        ("check_strict_dp zero, n = 12", 12, [0] * (1 << 12), strict),
        ("check_strict_dp 0..2, n = 12", 12, tie_table(12), strict),
        ("dhp both, cached 0..2, n = 12", 12, tie_table(12), grand_dhp, optimal_partition),
        ("is_closed grand, n = 12", 12, superadditive_table(12), closed),
        ("is_closed split, {1..11} {12}", 12, superadditive_table(12), split_closed),
        ("closure merge/split, n = 8", 8, superadditive_table(8), closure(DEFAULT_RULES)),
        ("closure all rules, n = 8", 8, superadditive_table(8), closure(ALL_RULES)),
        ("parse_game int table, n = 14", 14, int_table(14), parse),
    ]
    print(f"coalstab from {SRC}")
    for label, n, table, call, *prep in rows:
        print(f"{label:<29} {best_of_3(n, table, call, *prep):9.1f} ms")
    fits, tried = largest_n(10, 1e3, 3)
    more, tried_more = largest_n(10 if fits is None else fits + 1, 1e4, 1)
    spread = rerun_spread(sorted({n for n, _ in tried + tried_more}))
    searches = (("1 s", "best of 3", tried, fits), ("10 s", "one run", tried_more, more or fits))
    for budget, runs, times, largest in searches:
        for n, ms in times:
            lo, hi = spread[n]
            label = f"int table, n = {n}, {runs}"
            print(f"{label:<29} {ms / 1e3:9.3f} s   reruns {lo / 1e3:.3f}–{hi / 1e3:.3f} s")
        print(f"{f'largest int n within {budget}':<29} {largest if largest is not None else '< 10':>9}")


if __name__ == "__main__":
    main()
