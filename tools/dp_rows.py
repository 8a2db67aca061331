"""Time ``optimal_partition`` in process, one row per table, best of 3.

    python3 tools/dp_rows.py [SRC_DIR]

Rows: random 0..100 int tables at n = 12 and 14, a 12-player table with
denominators 1..6, the 12-player transportation game (three cities, decay
1/2 2/3 3/4), and the largest n whose int table is solved within 1 s (best of 3).
Each run solves a fresh game over a table built beforehand, so a row is
the DP, its tie walk and the split table, not the table's construction.
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

from coalstab import CityConfig, Game, Partition, optimal_partition, transportation_game  # noqa: E402


def solve_ms(n: int, table: list) -> float:
    """Wall time of one ``optimal_partition`` on a fresh game, in ms."""
    g = Game(n, table=table)
    start = time.perf_counter()
    optimal_partition(g)
    return (time.perf_counter() - start) * 1e3


def best_of_3(n: int, table: list) -> float:
    return min(solve_ms(n, table) for _ in range(3))


def int_table(n: int) -> list:
    rng = random.Random(f"dp_rows|{n}")
    return [0] + [rng.randint(0, 100) for _ in range((1 << n) - 1)]


def fraction_table(n: int) -> list:
    rng = random.Random(f"dp_rows|fraction|{n}")
    draw = lambda: Fraction(rng.randint(0, 600), rng.randint(1, 6))
    return [0] + [draw() for _ in range((1 << n) - 1)]


def transportation_table() -> list:
    cities = Partition.parse("{1,2,3,4} {5,6,7,8} {9,10,11,12}")
    g, _ = transportation_game(CityConfig(cities, (5, 7, 3), ("1/2", "2/3", "3/4"), 2))
    return g.dense_table()


def main() -> None:
    rows = [
        ("int table, n = 12", 12, int_table(12)),
        ("int table, n = 14", 14, int_table(14)),
        ("denominators 1..6, n = 12", 12, fraction_table(12)),
        ("transportation, n = 12", 12, transportation_table()),
    ]
    print(f"coalstab from {SRC}")
    for label, n, table in rows:
        print(f"{label:<28} {best_of_3(n, table):9.1f} ms")
    n, fits = 10, None
    while True:
        table = int_table(n)
        if not any(solve_ms(n, table) <= 1e3 for _ in range(3)):
            break
        fits, n = n, n + 1
    print(f"{'largest int n within 1 s':<28} {fits if fits is not None else '< 10':>9}")


if __name__ == "__main__":
    main()
