"""A library of concrete games: the five named examples used throughout
the docs and tests, two parametric families with known stability
behavior, a transportation cost-sharing model, and a seeded random
generator with class certification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import log10
from typing import Callable, Sequence

from .model import (
    MAX_PLAYERS,
    MAX_VALUE_DIGITS,
    Coalition,
    Game,
    Partition,
    Value,
    as_value,
)
from .solver import _dp
from .stability import _singleton_sums, is_additive, is_superadditive

EXAMPLE_NAMES = ("exa-a", "exa-1", "exa-miss", "exa-2", "exa-miss1")


def example_game(name: str) -> Game:
    """Small named games exercised across the demos and the test-suite.

    exa-a      3 players, value by size: 2 / 5 / 6.  Welfare peaks at 7,
               yet no partition is stable against collections.
    exa-1      4 players; {1,2} worth 1, {1,3} worth 2, all else 0.
               Merge/split runs from the singletons can end in two
               different fixpoints, with welfare 1 and 2.
    exa-miss   4 players; {1,2} worth 3, everything else its size.  Has a
               collection-stable partition that merge/split runs can miss.
    exa-2      4 players; the grand coalition 6, {1,2} and {3,4} worth 4,
               {1,3} worth 3, the rest its size.  Merge/split always ends
               at {{1,2},{3,4}}, yet no partition is collection-stable.
    exa-miss1  3 players; {1,2} worth 3, the rest its size.  {{1,2},{3}}
               is the unique welfare maximizer, but {{1,3},{2}} is a
               second merge/split fixpoint.
    """
    if name == "exa-a":
        table = {m: (2, 5, 6)[m.bit_count() - 1] for m in range(1, 8)}
        return Game.from_table(3, table, family="example", params={"name": name})
    if name == "exa-1":
        return Game.from_table(
            4, {0b0011: 1, 0b0101: 2}, default=0, family="example", params={"name": name}
        )
    if name == "exa-miss":
        table = {m: 3 if m == 0b0011 else m.bit_count() for m in range(1, 16)}
        return Game.from_table(4, table, family="example", params={"name": name})
    if name == "exa-2":
        special = {0b1111: 6, 0b0011: 4, 0b1100: 4, 0b0101: 3}
        table = {m: special.get(m, m.bit_count()) for m in range(1, 16)}
        return Game.from_table(4, table, family="example", params={"name": name})
    if name == "exa-miss1":
        table = {m: 3 if m == 0b011 else m.bit_count() for m in range(1, 8)}
        return Game.from_table(3, table, family="example", params={"name": name})
    raise ValueError(f"unknown example name {name!r}; valid names: {', '.join(EXAMPLE_NAMES)}")


def generalized_odd_game(n: int) -> Game:
    """2n players; the set of all odd players is worth n + 1, every other
    coalition its size.

    The odds/evens two-block partition attains the optimum 2n + 1, but a
    merge/split walk from the per-pair partition {{1,2},{3,4},...} cannot
    reach it for n >= 2: assembling the odd block requires tearing several
    pair blocks apart at once.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError("n must be an int")
    if n < 2:
        raise ValueError(f"the family needs n >= 2, got {n}")
    if 2 * n > MAX_PLAYERS:
        raise ValueError(f"2n = {2 * n} exceeds the {MAX_PLAYERS}-player cap")
    odds = 0
    for i in range(n):
        odds |= 1 << (2 * i)

    def rule(mask: int) -> Value:
        return n + 1 if mask == odds else mask.bit_count()

    return Game.from_rule(2 * n, rule, family="generalized_odd", params={"n": n})


def odds_evens_partition(n: int) -> Partition:
    """The two-block partition {odd players, even players} of {1..2n}."""
    odds = sum(1 << (2 * i) for i in range(n))
    return Partition((Coalition(odds), Coalition(odds << 1)))


def pairs_partition(n: int) -> Partition:
    """The per-pair partition {{1,2},{3,4},...,{2n-1,2n}}."""
    return Partition(tuple(Coalition(0b11 << (2 * i)) for i in range(n)))


def partition_power_game(p: Partition, m: int) -> Game:
    """Players in a common block of ``p`` are worth |S|**m together; any
    coalition straddling blocks is worth nothing.

    With m = 1 the defining partition is stable against every collection;
    with m >= 2 it is strictly so, making it the unique stable partition
    and the guaranteed endpoint of every merge/split walk.  An ``m`` that
    makes the largest block's value pass ``MAX_VALUE_DIGITS`` digits is
    refused, as a table document's value would be.
    """
    if not isinstance(p, Partition):
        raise TypeError("expected a Partition")
    pmasks = p.masks
    top = max(pm.bit_count() for pm in pmasks)
    # top**m has floor(m·log10(top)) + 1 digits: decided without the power.
    if isinstance(m, bool) or not isinstance(m, int) or m < 1 or m * log10(top) >= MAX_VALUE_DIGITS:
        raise ValueError(f"exponent m must be an integer >= 1 with {top}**m within {MAX_VALUE_DIGITS} digits")

    def rule(mask: int) -> Value:
        low = mask & -mask
        for pm in pmasks:
            if pm & low:
                return mask.bit_count() ** m if not mask & ~pm else 0
        return 0

    return Game.from_rule(p.n, rule, family="partition_power", params={"partition": p, "m": m})


@dataclass(frozen=True)
class CityConfig:
    """Transportation setup: stores grouped into cities, each city's base
    delivery cost and geometric decay factor, and the cross-city markup."""

    cities: Partition
    base: tuple            # one positive cost per city
    decay: tuple           # one factor strictly between 0 and 1 per city
    penalty: Value         # markup factor strictly above 1

    def __post_init__(self) -> None:
        if not isinstance(self.cities, Partition):
            raise TypeError("cities must be a Partition")
        base = tuple(as_value(x) for x in self.base)
        decay = tuple(as_value(x) for x in self.decay)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "penalty", as_value(self.penalty))
        k = len(self.cities.blocks)
        if len(base) != k or len(decay) != k:
            raise ValueError(f"need exactly one base cost and one decay per city ({k} cities)")
        if any(a <= 0 for a in base):
            raise ValueError("base costs must be positive")
        if any(not 0 < r < 1 for r in decay):
            raise ValueError("decay factors must lie strictly between 0 and 1")
        if self.penalty <= 1:
            raise ValueError("the cross-city penalty must exceed 1")


def transportation_game(cfg: CityConfig) -> "tuple[Game, Callable[[Coalition | int], Value]]":
    """Cost-saving game for stores grouped in cities, plus its cost model.

    A group inside one city pays ``base * size * decay**(size-1)``: the
    per-store cost decays geometrically, so serving more stores together
    is strictly cheaper per store.  A group straddling cities pays its
    worst per-store piece cost, marked up by the penalty and scaled by the
    whole group's size, so any cross-city group is strictly worse than
    serving its pieces separately.  A group's value is what it saves over
    every member shipping alone.  The defining per-city partition is
    strictly stable against every collection.
    """
    if not isinstance(cfg, CityConfig):
        raise TypeError("expected a CityConfig")
    cities = cfg.cities
    n = cities.n
    cmasks = cities.masks
    base, decay = cfg.base, cfg.decay

    def cost_of_mask(m: int) -> Value:
        if m == 0:
            return 0
        size = m.bit_count()
        pieces = [(i, cm & m) for i, cm in enumerate(cmasks) if cm & m]
        if len(pieces) == 1:
            i = pieces[0][0]
            return as_value(base[i] * size * decay[i] ** (size - 1))
        worst = max(base[i] * decay[i] ** (pm.bit_count() - 1) for i, pm in pieces)
        return as_value(cfg.penalty * size * worst)

    city_of = [0] * n
    for i, cm in enumerate(cmasks):
        for b in range(n):
            if cm >> b & 1:
                city_of[b] = i

    def value_rule(m: int) -> Value:
        alone: Value = 0
        mm = m
        while mm:
            b = (mm & -mm).bit_length() - 1
            alone += base[city_of[b]]
            mm &= mm - 1
        return alone - cost_of_mask(m)

    game = Game.from_rule(
        n,
        value_rule,
        family="transportation",
        params={
            "cities": cities,
            "base": cfg.base,
            "decay": cfg.decay,
            "penalty": cfg.penalty,
        },
    )

    def cost(group: "Coalition | int") -> Value:
        if isinstance(group, Coalition):
            m = group.mask
        elif isinstance(group, bool) or not isinstance(group, int):
            raise TypeError("cost expects a Coalition or an int mask")
        else:
            m = group
        if m < 0 or m > game.full_mask:
            raise ValueError("cost expects a coalition within the game")
        return cost_of_mask(m)

    return game, cost


class GameClass(str, Enum):
    ADDITIVE = "additive"
    SUPERADDITIVE = "superadditive"
    STRICTLY_SUPERADDITIVE = "strictly-superadditive"
    GENERAL = "general"


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for :func:`random_game`: player count (at most 8), game
    class, inclusive integer value range, and seed."""

    n: int
    kind: "GameClass | str" = GameClass.GENERAL
    low: int = 0
    high: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or not 1 <= self.n <= 8:
            raise ValueError(f"the generator supports 1..8 players, got {self.n!r}")
        if isinstance(self.kind, str):
            try:
                object.__setattr__(self, "kind", GameClass(self.kind.strip().lower()))
            except ValueError as exc:
                valid = ", ".join(c.value for c in GameClass)
                raise ValueError(f"unknown game class {self.kind!r}; valid: {valid}") from exc
        elif not isinstance(self.kind, GameClass):
            raise TypeError("kind must be a GameClass or its string value")
        for field in ("low", "high", "seed"):
            x = getattr(self, field)
            if isinstance(x, bool) or not isinstance(x, int):
                raise TypeError(f"{field} must be an int")
        if self.low > self.high:
            raise ValueError(f"need low <= high, got {self.low} > {self.high}")


def random_game(spec: GeneratorSpec) -> Game:
    """A seeded random game of the requested class.

    Deterministic for a given spec.  Additive games draw per-player
    weights; superadditive games draw raw values and close them upward
    over all disjoint bipartitions; strictly superadditive games further
    add size**2, which turns every closure inequality sharp.  The class is
    re-verified after generation — a failure would be a construction bug.
    """
    if not isinstance(spec, GeneratorSpec):
        raise TypeError("expected a GeneratorSpec")
    rng = random.Random(f"{spec.kind.value}|{spec.n}|{spec.low}|{spec.high}|{spec.seed}")
    n, lo, hi = spec.n, spec.low, spec.high
    size = 1 << n
    params = {
        "n": n, "class": spec.kind.value, "low": lo, "high": hi, "seed": spec.seed,
    }

    if spec.kind is GameClass.ADDITIVE:
        dense = _singleton_sums([rng.randint(lo, hi) for _ in range(n)])
    elif spec.kind is GameClass.GENERAL:
        dense = [0] + [rng.randint(lo, hi) for _ in range(size - 1)]
    else:
        # The best grouping of the raw values is their superadditive closure.
        dense = _dp([0] + [rng.randint(lo, hi) for _ in range(size - 1)])[0]
        if spec.kind is GameClass.STRICTLY_SUPERADDITIVE:
            for s in range(1, size):
                dense[s] += s.bit_count() ** 2

    game = Game(n, table=dense, family="random", params=params)
    if spec.kind is GameClass.ADDITIVE and not is_additive(game):
        raise RuntimeError("generator bug: additive game failed certification")
    if spec.kind is GameClass.SUPERADDITIVE and not is_superadditive(game):
        raise RuntimeError("generator bug: superadditive game failed certification")
    if spec.kind is GameClass.STRICTLY_SUPERADDITIVE and not is_superadditive(game, strict=True):
        raise RuntimeError("generator bug: strictly superadditive game failed certification")
    return game
