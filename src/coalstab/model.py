"""Core model: players, coalitions, collections, partitions, exact values.

Players are numbered 1..n.  A coalition is a nonempty subset of players
stored as a bit pattern (player i corresponds to bit i - 1), so subset
algebra is integer bit-twiddling.  Game values are exact rationals (int or
fractions.Fraction); floats are rejected outright so that strict and
non-strict comparisons never blur.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Union

MAX_PLAYERS = 20
PARTITION_ENUM_CAP = 12   # partitions of a set this large: Bell(12) = 4,213,597
COLLECTION_ENUM_CAP = 10  # collections over n players number Bell(n + 1)

Value = Union[int, Fraction]

# CPython's default int-to-str limit: every accepted value can be printed
# back by format_value.
MAX_VALUE_DIGITS = 4300
_LITERAL_RE = re.compile(r"[-+]?(\d*)(?:\.(\d*))?(?:e([-+]?\d+))?(?:/(\d+))?", re.IGNORECASE)


class CapExceededError(ValueError):
    """An operation would enumerate past its documented size cap."""


def as_value(x: object) -> Value:
    """Coerce ``x`` to an exact value: an int, or a Fraction in lowest terms.

    Accepts int, Fraction, Decimal, and strings such as ``"5"``, ``"-3/4"``
    or ``"2.5"`` (finite decimals convert exactly).  Floats and booleans are
    rejected because exactness is load-bearing throughout this package, and
    so are strings past ``MAX_VALUE_DIGITS`` digits, which could not be
    printed back.
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not game values")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        text = x.strip()
        if len(text) > MAX_VALUE_DIGITS or "e" in text or "E" in text:
            _check_digits(text)
        else:
            # int() accepts a subset of Fraction()'s literals (signs, leading
            # zeros, "_" between digits, Unicode digits), with the same value.
            try:
                return int(text)
            except ValueError:
                pass
        try:
            f = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational: {x!r}") from exc
        return f.numerator if f.denominator == 1 else f
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, Decimal):
        return as_value(Fraction(x))
    if isinstance(x, float):
        raise TypeError(
            f"refusing float {x!r}: values must be exact; pass an int, Fraction, or string"
        )
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact value")


def _check_digits(text: str) -> None:
    """Refuse a literal whose numerator or denominator before reduction
    would have more than MAX_VALUE_DIGITS digits, judged from its digits
    and its power of ten before Fraction() builds that power."""
    m = _LITERAL_RE.fullmatch(text.replace("_", ""))
    if m is None:
        return  # malformed: Fraction() says so
    whole, frac, exp, den = m.groups("")
    digits = len((whole + frac).lstrip("0"))
    # The literal is (digits)·10**power, or whole/den; a long exponent is
    # refused before int() reads it.
    power = int(exp or 0) - len(frac) if len(exp) <= 7 else 10 * MAX_VALUE_DIGITS
    if max(digits + power, digits, 1 - power, len(den.lstrip("0"))) > MAX_VALUE_DIGITS:
        raise ValueError(
            f"rational too large: its numerator or denominator passes {MAX_VALUE_DIGITS} digits"
        )


def format_value(v: Value) -> str:
    """Render an exact value the way the parsers accept it: ``5``, ``-3/4``.

    Sums of accepted values can pass the interpreter's int-to-str digit
    limit; those go through Decimal, which that limit does not cover.
    """
    try:
        return str(v)
    except ValueError:
        if isinstance(v, Fraction):
            return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"
        return str(Decimal(v))


def _check_player_count(n: object) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError("player count must be an int")
    if not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be between 1 and {MAX_PLAYERS}, got {n}")


def _check_cap(players: int, cap: int, name: str, block: int = 0) -> None:
    """Refuse to go past a documented size cap; a per-block cap passes the
    block's mask as ``block``."""
    if players > cap:
        if block:
            who = f"block {Coalition(block)} has {players} players, past"
        else:
            who = f"{players} players exceed"
        raise CapExceededError(f"{who} the {name} cap of {cap}")


@dataclass(frozen=True, order=True)
class Coalition:
    """A nonempty set of players as a bit pattern; hashable, ordered by mask."""

    mask: int

    def __post_init__(self) -> None:
        if isinstance(self.mask, bool) or not isinstance(self.mask, int):
            raise TypeError("coalition mask must be an int")
        if self.mask <= 0:
            raise ValueError("a coalition must contain at least one player")
        if self.mask.bit_length() > MAX_PLAYERS:
            raise ValueError(f"player index exceeds the {MAX_PLAYERS}-player cap")

    @classmethod
    def of(cls, *players: int) -> "Coalition":
        return cls.from_members(players)

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "Coalition":
        mask = 0
        for p in members:
            if isinstance(p, bool) or not isinstance(p, int):
                raise TypeError(f"player numbers must be ints, got {p!r}")
            if not 1 <= p <= MAX_PLAYERS:
                raise ValueError(f"player {p} out of range 1..{MAX_PLAYERS}")
            mask |= 1 << (p - 1)
        return cls(mask)

    @classmethod
    def parse(cls, text: str) -> "Coalition":
        """Parse a literal like ``{1,3}`` (braces optional, commas or spaces)."""
        inner = text.strip()
        if inner.startswith("{") and inner.endswith("}"):
            inner = inner[1:-1]
        tokens = inner.replace(",", " ").split()
        if not tokens:
            raise ValueError(f"empty coalition literal: {text!r}")
        try:
            members = [int(t) for t in tokens]
        except ValueError as exc:
            raise ValueError(f"bad player number in coalition literal {text!r}") from exc
        return cls.from_members(members)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    @property
    def least(self) -> int:
        """The smallest player in the coalition."""
        return (self.mask & -self.mask).bit_length()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, player: object) -> bool:
        return (
            isinstance(player, int)
            and not isinstance(player, bool)
            and player >= 1
            and bool(self.mask >> (player - 1) & 1)
        )

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.members)) + "}"

    __repr__ = __str__


_BLOCK_RE = re.compile(r"\{([^{}]*)\}")
# Blocks separated by whitespace or commas, inside at most one pair of braces.
# The leading \s* sits inside the optional group so that no run of
# whitespace can be split two ways: matching stays linear in the text.
_COLLECTION_RE = re.compile(r"(?:\s*(\{))?[\s,]*(?:\{[^{}]*\}[\s,]*)*(?(1)\}\s*)")


@dataclass(frozen=True, eq=False)
class Collection:
    """A family of pairwise-disjoint nonempty coalitions; possibly empty.

    Blocks are stored canonically, sorted by least member, so equality and
    hashing are insensitive to construction order.  A Collection need not
    cover all players; :class:`Partition` adds that requirement.
    """

    blocks: tuple[Coalition, ...]

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        union = 0
        for b in blocks:
            if not isinstance(b, Coalition):
                raise TypeError("blocks must be Coalition instances")
            if union & b.mask:
                raise ValueError("blocks must be pairwise disjoint")
            union |= b.mask
        ordered = tuple(sorted(blocks, key=lambda b: b.mask & -b.mask))
        object.__setattr__(self, "blocks", ordered)
        object.__setattr__(self, "_masks", tuple(b.mask for b in ordered))
        object.__setattr__(self, "_union", union)

    @classmethod
    def of(cls, *blocks: "Coalition | Iterable[int]"):
        coerced = tuple(
            b if isinstance(b, Coalition) else Coalition.from_members(b) for b in blocks
        )
        return cls(coerced)

    @classmethod
    def parse(cls, text: str):
        """Parse a literal like ``{1,2} {3}`` or ``{{1,2},{3}}``.

        Only whitespace, commas and one enclosing pair of braces may sit
        outside the coalition literals.
        """
        groups = _BLOCK_RE.findall(text)
        if not groups:
            if text.strip():
                raise ValueError(f"no coalition literals found in {text!r}")
            return cls(())
        collection = cls(tuple(Coalition.parse("{" + g + "}") for g in groups))
        if not _COLLECTION_RE.fullmatch(text):
            raise ValueError(f"text outside the coalition literals in {text!r}")
        return collection

    @property
    def union_mask(self) -> int:
        return self._union  # type: ignore[attr-defined]

    @property
    def masks(self) -> tuple[int, ...]:
        """Block bit patterns in canonical order."""
        return self._masks  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return len(self.blocks)

    def is_subcollection_of(self, other: "Collection") -> bool:
        """True iff every block here is literally a block of ``other``."""
        return set(self.masks) <= set(other.masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Collection):
            return NotImplemented
        return self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Coalition]:
        return iter(self.blocks)

    def __str__(self) -> str:
        return " ".join(str(b) for b in self.blocks) if self.blocks else "(empty)"

    __repr__ = __str__


class Partition(Collection):
    """A :class:`Collection` whose blocks cover every player 1..n exactly once."""

    def __post_init__(self) -> None:
        super().__post_init__()
        u = self.union_mask
        if u == 0:
            raise ValueError("a partition needs at least one block")
        if u & (u + 1):
            missing = [i + 1 for i in range(u.bit_length()) if not u >> i & 1]
            raise ValueError(
                f"blocks must cover players 1..{u.bit_length()} with no gaps; missing {missing}"
            )

    @property
    def n(self) -> int:
        return self.union_mask.bit_length()

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        _check_player_count(n)
        return _from_masks(cls, [1 << i for i in range(n)])

    @classmethod
    def grand(cls, n: int) -> "Partition":
        _check_player_count(n)
        return _from_masks(cls, ((1 << n) - 1,))


def _from_masks(cls, masks, coalitions=None):
    """A ``cls`` (Collection or Partition) on block masks the library made
    canonical: disjoint, sorted by least member and, for a Partition,
    covering players 1..n.  No check is rerun.  A listing passes one
    :class:`_Coalitions` so that its results share one Coalition per mask."""
    masks = tuple(masks)
    make = Coalition if coalitions is None else coalitions.__getitem__
    obj = object.__new__(cls)
    object.__setattr__(obj, "blocks", tuple(map(make, masks)))
    object.__setattr__(obj, "_masks", masks)
    object.__setattr__(obj, "_union", sum(masks))
    return obj


class _Coalitions(dict):
    """Coalitions by mask, built on first use; one per listing."""

    def __missing__(self, mask: int) -> Coalition:
        c = self[mask] = Coalition(mask)
        return c


def _key_mask(key: object, n: int) -> int:
    """Interpret a table key (Coalition, int mask, or player iterable) as a mask."""
    if isinstance(key, Coalition):
        mask = key.mask
    elif isinstance(key, bool):
        raise TypeError("booleans are not coalition keys")
    elif isinstance(key, int):
        if key < 0:
            raise ValueError(f"coalition mask must be nonnegative, got {key}")
        mask = key
    elif isinstance(key, Iterable):
        members = tuple(key)
        mask = Coalition.from_members(members).mask if members else 0
    else:
        raise TypeError(f"cannot interpret {type(key).__name__} as a coalition")
    if mask >= 1 << n:
        raise ValueError(f"player index out of range for an {n}-player game")
    return mask


class Game:
    """An n-player game: an exact value for every coalition, 0 for the empty set.

    The values live in one dense list of 2**n values, indexed by mask.  A
    table-backed game is given that list, 0 first: an int list is kept as
    it is, and other entries go through :func:`as_value` into a copy, so
    a float or a bool is refused.  A rule-backed game holds a
    callable on masks and builds the list from it on its first value read,
    once, under a lock, so concurrent reads are safe and deterministic.
    Treat instances as immutable; the only internal mutation is caching.
    The solver keeps one cache, ``_dp``: one entry per block budget
    holding the optimum and the tie-counting tables of the pass that
    gave it.  The unbounded entry's tables also answer the stability
    scans' split test.  Each entry is written once, without a lock, as
    racing writers compute equal entries.  ``family``/``params`` carry
    optional provenance used by the file format to round-trip generated
    games.
    """

    __slots__ = (
        "n", "full_mask", "family", "params",
        "_table", "_rule", "_lock",
        "_dp",
    )

    def __init__(
        self,
        n: int,
        *,
        table: "list[Value] | None" = None,
        rule: "Callable[[int], object] | None" = None,
        family: "str | None" = None,
        params: "Mapping[str, object] | None" = None,
    ) -> None:
        _check_player_count(n)
        if (table is None) == (rule is None):
            raise ValueError("provide exactly one of table= or rule=")
        if table is not None:
            if not isinstance(table, list) or not set(map(type, table)) <= {int}:
                table = [as_value(x) for x in table]
            if len(table) != 1 << n:
                raise ValueError(f"a {n}-player table needs {1 << n} values, got {len(table)}")
            if table[0] != 0:
                raise ValueError("the empty set must have value 0")
        self.n = n
        self.full_mask = (1 << n) - 1
        self.family = family
        self.params = dict(params) if params else {}
        self._table = table
        self._rule = rule
        self._lock = threading.Lock() if rule is not None else None
        self._dp: dict[int, tuple] = {}

    @classmethod
    def from_table(
        cls,
        n: int,
        entries: Mapping[object, object],
        default: object = 0,
        *,
        family: "str | None" = None,
        params: "Mapping[str, object] | None" = None,
    ) -> "Game":
        """Build a dense game from coalition-to-value entries.

        Keys may be Coalitions, int masks, or iterables of players.
        Unlisted coalitions take ``default``; the empty set is always 0, and
        an explicit nonzero entry for it is an error.
        """
        _check_player_count(n)
        dense: list[Value] = [as_value(default)] * (1 << n)
        seen: set[int] = set()
        for key, raw in entries.items():
            mask = _key_mask(key, n)
            if mask in seen:
                raise ValueError(f"duplicate coalition entry for mask {mask}")
            seen.add(mask)
            val = as_value(raw)
            if mask == 0:
                if val != 0:
                    raise ValueError("the empty set must have value 0")
                continue
            dense[mask] = val
        dense[0] = 0
        return cls(n, table=dense, family=family, params=params)

    @classmethod
    def from_rule(
        cls,
        n: int,
        rule: Callable[[int], object],
        *,
        family: "str | None" = None,
        params: "Mapping[str, object] | None" = None,
    ) -> "Game":
        """Build a game from a callable on coalition masks.  Nothing is
        evaluated until the first value read, which builds the whole table:
        2**n - 1 calls, about a million at 20 players."""
        return cls(n, rule=rule, family=family, params=params)

    def mask_value(self, mask: int) -> Value:
        """Value of the coalition with the given bit pattern (0 for mask 0)."""
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"mask {mask} is outside this {self.n}-player game")
        return self.dense_table()[mask]

    def value(self, coalition: Coalition) -> Value:
        if not isinstance(coalition, Coalition):
            raise TypeError("value() takes a Coalition; use mask_value() for raw masks")
        if coalition.mask & ~self.full_mask:
            raise ValueError(f"coalition {coalition} uses players beyond this {self.n}-player game")
        return self.mask_value(coalition.mask)

    def dense_table(self) -> "list[Value]":
        """The full value list indexed by mask (index 0 is the empty set).

        A rule-backed game builds it on the first read, in one pass under
        its lock, so each mask is evaluated once.  Treat as read-only.
        """
        if self._table is None:
            with self._lock:  # type: ignore[union-attr]
                if self._table is None:
                    rule = self._rule
                    self._table = [0] + [as_value(rule(m)) for m in range(1, 1 << self.n)]  # type: ignore[misc]
        return self._table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return self.n == other.n and self.dense_table() == other.dense_table()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        tag = f", family={self.family!r}" if self.family else ""
        return f"Game(n={self.n}{tag})"


def _check_partition(g: Game, p: Partition) -> None:
    if not isinstance(p, Partition):
        raise TypeError("expected a Partition")
    if p.union_mask != g.full_mask:
        raise ValueError(
            f"player-count mismatch: game has {g.n} players, partition covers {p.n}"
        )


def frame(collection: Collection, partition: Partition) -> Collection:
    """Regroup the collection's players by the partition's blocks.

    The result's blocks are the nonempty intersections of the partition's
    blocks with the union of the collection, so its union equals the
    collection's union.  If the collection is itself a partition of all
    players, the result is exactly ``partition``; if its blocks are a subset
    of the partition's, the result is the collection itself.
    """
    u = collection.union_mask
    if u & ~partition.union_mask:
        raise ValueError(
            "player-count mismatch: the collection uses players the partition does not cover"
        )
    pieces = sorted((pm & u for pm in partition.masks if pm & u), key=lambda m: m & -m)
    return _from_masks(Collection, pieces)


def social_welfare(g: Game, collection: Collection) -> Value:
    """Sum of the game's values over the collection's blocks (0 if empty)."""
    if collection.union_mask & ~g.full_mask:
        raise ValueError(
            "player-count mismatch: the collection uses players beyond the game"
        )
    return _welfare(g.dense_table(), collection.masks)


def _welfare(v: "list[Value]", masks: "Iterable[int]") -> Value:
    """The sum of a value table over block masks, as :func:`as_value` gives it."""
    total: Value = 0
    for m in masks:
        total += v[m]
    return as_value(total)


def modified_social_welfare(g: Game, collection: Collection, partition: Partition) -> Value:
    """Welfare the collection's players would get regrouped by the partition.

    Equals ``social_welfare(g, frame(collection, partition))``.  When the
    collection is a partition of all players this is simply the partition's
    own welfare.
    """
    if partition.union_mask != g.full_mask:
        raise ValueError(
            "player-count mismatch: the partition does not cover the game's players"
        )
    return social_welfare(g, frame(collection, partition))


def is_compatible(t: Coalition, p: Partition) -> bool:
    """True iff the coalition fits inside a single block of the partition."""
    if t.mask & ~p.union_mask:
        raise ValueError(
            "player-count mismatch: the coalition uses players the partition does not cover"
        )
    low = t.mask & -t.mask
    for pm in p.masks:
        if pm & low:
            return not t.mask & ~pm
    return False


def is_homogeneous(q: Partition, p: Partition) -> bool:
    """True iff ``q`` arises from ``p`` by merges and splits alone.

    Concretely: every block of ``q`` either sits inside a single block of
    ``p`` or is a union of whole blocks of ``p``.
    """
    if q.union_mask != p.union_mask:
        raise ValueError("player-count mismatch: the partitions cover different players")
    for qm in q.masks:
        touching = [pm for pm in p.masks if pm & qm]
        if len(touching) == 1 and not qm & ~touching[0]:
            continue  # inside one block
        if all(not pm & ~qm for pm in touching):
            continue  # a union of whole blocks
        return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive enumeration.  Partitions of positions 0..k-1 (position i is
# bit i) come from one recurrence, in restricted-growth order: each
# partition of the first k-1 positions places position k-1 into each of
# its blocks in turn, then into a block of its own.  The tables for k <= 9
# are cached keyed by k alone, one per size: the 9-position table holds
# Bell(9) = 21 147 tuples, about 2.3 MB, and all ten about 2.7 MB.  Larger
# sets extend the 9-position table lazily.  Any other set of k players
# maps positions to players through ``_submasks``.  The raw generators work
# on mask tuples and back the definitional stability oracles and the
# dynamics split rule; the public enumerate_* functions wrap them in model
# objects.


def _submasks(mask: int) -> list[int]:
    """Every submask of ``mask``, indexed by position: entry t holds the
    players at the set bits of t, ``mask``'s players numbered 0, 1, ...
    upward.  The map keeps order, so sorted position tuples map to sorted
    mask tuples."""
    table = [0]
    while mask:
        low = mask & -mask
        table += [m | low for m in table]
        mask ^= low
    return table


def _extend(parts: "tuple[int, ...]", bit: int) -> "list[tuple[int, ...]]":
    """Place the position ``bit`` into each block of ``parts`` in turn, then
    into a block of its own; restricted-growth order in, the same order
    out."""
    out = [parts[:j] + (m | bit,) + parts[j + 1:] for j, m in enumerate(parts)]
    out.append(parts + (bit,))
    return out


@lru_cache(maxsize=None)
def _small_partitions(k: int) -> "tuple[tuple[int, ...], ...]":
    """Every partition of positions 0..k-1, k <= 9, as block-mask tuples."""
    if k == 0:
        return ((),)
    bit = 1 << (k - 1)
    return tuple(q for parts in _small_partitions(k - 1) for q in _extend(parts, bit))


def _partitions(k: int) -> "Iterable[tuple[int, ...]]":
    """Every partition of positions 0..k-1, restricted-growth order: the
    cached table up to 9 positions, a lazy extension of it past that."""
    if k <= 9:
        return _small_partitions(k)
    bit = 1 << (k - 1)
    return (q for parts in _partitions(k - 1) for q in _extend(parts, bit))


def _iter_partition_masks(mask: int) -> Iterable[tuple[int, ...]]:
    """Every partition of ``mask``'s players, as mask tuples sorted by
    least member."""
    k = mask.bit_count()
    if mask & (mask + 1) == 0:  # players 1..k are positions 0..k-1
        return _partitions(k)
    sub = _submasks(mask)
    return (tuple(sub[m] for m in parts) for parts in _partitions(k))


def _iter_collection_masks(n: int) -> Iterator[tuple[int, ...]]:
    """Every family of disjoint nonempty subsets of {1..n}, as mask tuples.

    Implemented by partitioning an augmented set holding one marker bit: the
    marker's block collects the uncovered players.  There are Bell(n + 1)
    collections; the empty collection comes first.
    """
    for grouped in _partitions(n + 1):  # bit 0 is the marker
        yield tuple(m >> 1 for m in grouped if not m & 1)


def _iter_homogeneous_masks(pmasks: "tuple[int, ...]") -> Iterator[tuple[int, ...]]:
    """Every partition reachable from the given blocks by merging whole
    blocks and splitting single blocks, as canonical mask tuples.

    Block indices are grouped every possible way; a group of two or more
    blocks becomes their (whole) union, while a lone block contributes every
    way of splitting it.  Each result arises exactly once: merged blocks are
    strictly larger than any single block, so the grouping is recoverable.
    """
    k = len(pmasks)

    def choices(gmask: int) -> Iterator[tuple[int, ...]]:
        if gmask & (gmask - 1):
            union = 0
            g = gmask
            while g:
                union |= pmasks[(g & -g).bit_length() - 1]
                g &= g - 1
            yield (union,)
        else:
            yield from _iter_partition_masks(pmasks[gmask.bit_length() - 1])

    def rec(groups: tuple[int, ...], idx: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if idx == len(groups):
            yield tuple(sorted(acc, key=lambda m: m & -m))
            return
        for part in choices(groups[idx]):
            yield from rec(groups, idx + 1, acc + list(part))

    for grouping in _partitions(k):
        yield from rec(grouping, 0, [])


def enumerate_partitions(players: "int | Coalition | Iterable[int]"):
    """Yield every partition of the given players, restricted-growth order.

    ``players`` may be a count n (meaning {1..n}), a Coalition, or an
    iterable of player numbers.  When the players are exactly {1..n} the
    yields are Partition objects; otherwise they are Collections covering
    the given set.  There are Bell(#players) of them.
    """
    if isinstance(players, bool):
        raise TypeError("player count must be an int")
    if isinstance(players, int):
        _check_player_count(players)
        mask = (1 << players) - 1
    elif isinstance(players, Coalition):
        mask = players.mask
    else:
        mask = Coalition.from_members(players).mask
    _check_cap(mask.bit_count(), PARTITION_ENUM_CAP, "partition enumeration")
    build = Partition if mask & (mask + 1) == 0 else Collection
    coalitions = _Coalitions()
    for masks in _iter_partition_masks(mask):
        yield _from_masks(build, masks, coalitions)


def enumerate_collections(n: int) -> Iterator[Collection]:
    """Yield every collection over {1..n}; the empty collection comes first."""
    _check_player_count(n)
    _check_cap(n, COLLECTION_ENUM_CAP, "collection enumeration")
    coalitions = _Coalitions()
    for masks in _iter_collection_masks(n):
        yield _from_masks(Collection, masks, coalitions)


def enumerate_homogeneous_partitions(p: Partition) -> Iterator[Partition]:
    """Yield every partition obtainable from ``p`` by merges and splits."""
    _check_cap(p.n, PARTITION_ENUM_CAP, "partition enumeration")
    coalitions = _Coalitions()
    for masks in _iter_homogeneous_masks(p.masks):
        yield _from_masks(Partition, masks, coalitions)
