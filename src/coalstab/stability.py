"""Stability checkers: fast characterization-based checks that return
violating witnesses, plus brute-force definitional oracles used to
cross-validate them.

A partition P is stable against a family of rival collections when no
rival C obtains more welfare on its own than its players would get after
being regrouped by P (C's "framed" welfare).  Supported families:

* ``dc``  — every collection of disjoint coalitions;
* ``dp``  — every partition of the full player set;
* ``dpk`` — every partition with at most k blocks;
* ``dhp`` — every partition reachable from P by merging whole blocks and
  splitting single blocks.

Strict variants demand that P do strictly better against every rival that
regrouping actually changes; rivals with ``frame(C, P) == C`` compare
equal by construction and are exempt (for the partition families that is
exactly the rival ``C == P``).

The fast checks rest on exact characterizations:

* dc-stability holds iff (1) inside every block, disjoint pieces never
  beat their union, and (2) every coalition straddling blocks is covered
  by the sum of its per-block pieces.  Strict dc-stability is the same
  with both families of inequalities sharp.
* dp-stability says P attains the solver optimum; the strict version says
  it is the unique maximizer.
* dhp-stability holds iff no way of splitting one block and no merge of
  several blocks gains welfare; the strict version is the same with the
  inequalities sharp.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Union

from .model import (
    COLLECTION_ENUM_CAP,
    PARTITION_ENUM_CAP,
    Coalition,
    Collection,
    Game,
    Partition,
    Value,
    _check_cap,
    _check_partition,
    _from_masks,
    _iter_collection_masks,
    _iter_homogeneous_masks,
    _iter_partition_masks,
    _welfare,
    as_value,
)
from .solver import (
    _LISTING_CAP, _block_tables, _check_listing, _tie_walk, _ties, optimal_partition_bounded,
)


@dataclass(frozen=True)
class DefectionKind:
    """Which family of rival collections a stability check ranges over."""

    family: str
    k: "int | None" = None

    def __post_init__(self) -> None:
        if self.family not in ("dc", "dp", "dpk", "dhp"):
            raise ValueError(f"unknown defection family {self.family!r}")
        if self.family == "dpk":
            if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
                raise ValueError("dpk needs an integer size bound k >= 1")
        elif self.k is not None:
            raise ValueError(f"{self.family} does not take a size bound")

    def __str__(self) -> str:
        return f"dpk:{self.k}" if self.family == "dpk" else self.family


DC = DefectionKind("dc")
DP = DefectionKind("dp")
DHP = DefectionKind("dhp")


def dp_k(k: int) -> DefectionKind:
    """The ``dpk`` family: partitions with at most ``k`` blocks."""
    return DefectionKind("dpk", k)


def kind_from_string(text: str) -> DefectionKind:
    """Parse ``dc`` / ``dp`` / ``dhp`` / ``dpk:K`` into a DefectionKind."""
    token = text.strip().lower()
    if token == "dc":
        return DC
    if token == "dp":
        return DP
    if token == "dhp":
        return DHP
    head, _, num = token.partition(":")
    if head == "dpk":
        if num:
            try:
                return dp_k(int(num))
            except ValueError as exc:
                raise ValueError(f"bad size bound in stability notion {text!r}") from exc
        raise ValueError("dpk needs a size bound, e.g. dpk:2")
    raise ValueError(f"unknown stability notion {text!r}; expected dc, dp, dpk:K, or dhp")


# ---------------------------------------------------------------------------
# Witnesses and verdicts


@dataclass(frozen=True)
class DefectingCollection:
    """A rival collection whose own welfare beats (strict checks: at least
    ties) what its players get once regrouped by the checked partition."""

    collection: Collection
    framed_welfare: Value
    welfare: Value


@dataclass(frozen=True)
class IntraBlockPair:
    """Disjoint pieces A and B inside one block whose union is worth less
    than (strict checks: no more than) the two taken separately."""

    block_index: int
    a: Coalition
    b: Coalition
    separate: Value
    combined: Value


@dataclass(frozen=True)
class IncompatibleSet:
    """A coalition straddling several blocks worth more than (strict
    checks: at least) the sum of its per-block pieces."""

    coalition: Coalition
    pieces_value: Value
    whole_value: Value


@dataclass(frozen=True)
class BlockSplit:
    """A way of splitting one block whose parts together are worth more
    than (strict checks: at least) the whole block."""

    block_index: int
    parts: Collection
    whole_value: Value
    parts_value: Value


@dataclass(frozen=True)
class BlockMerge:
    """Blocks whose union is worth more than (strict checks: at least)
    the same blocks taken separately."""

    block_indices: tuple[int, ...]
    separate: Value
    merged: Value


Witness = Union[DefectingCollection, IntraBlockPair, IncompatibleSet, BlockSplit, BlockMerge]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a stability check; unstable verdicts carry a witness."""

    stable: bool
    witness: "Witness | None" = None

    def __post_init__(self) -> None:
        if self.stable == (self.witness is not None):
            raise ValueError("exactly the unstable verdicts carry a witness")

    def __bool__(self) -> bool:
        return self.stable


STABLE = Verdict(True)


# ---------------------------------------------------------------------------
# dc: stability against arbitrary collections


def _dc_scan(g: Game, pmasks: "tuple[int, ...]", strict: bool) -> Verdict:
    v = g.dense_table()
    tables = _block_tables(g, g.full_mask)[0] if g.n in g._dp else None
    # Condition 1: inside each block, no pair of disjoint pieces may beat
    # (strict: tie) their union.  Pairs are anchored on the union's least
    # player so each unordered pair appears once.  A union's best split
    # bounds every pair's sum, so with the unbounded pass's tables cached
    # only the unions whose split gains are scanned.
    for i, pm in enumerate(pmasks):
        u = pm
        while u:
            if u & (u - 1) and (tables is None or _splits_gain(tables, u, strict)):
                low = u & -u
                rest = u ^ low
                combined = v[u]
                t = (rest - 1) & rest
                while True:
                    a = low | t
                    separate = v[a] + v[u ^ a]
                    if combined < separate or (strict and combined == separate):
                        return Verdict(
                            False,
                            IntraBlockPair(i, Coalition(a), Coalition(u ^ a), as_value(separate), combined),
                        )
                    if t == 0:
                        break
                    t = (t - 1) & rest
            u = (u - 1) & pm
    # Condition 2: every coalition straddling blocks must be covered
    # (strict: beaten) by the sum of its per-block pieces.  Scanned from the
    # largest bit pattern down.
    if len(pmasks) > 1:
        for tmask in range(g.full_mask, 0, -1):
            low = tmask & -tmask
            compatible = False
            for pm in pmasks:
                if pm & low:
                    compatible = not tmask & ~pm
                    break
            if compatible:
                continue
            pieces: Value = 0
            for pm in pmasks:
                pieces += v[pm & tmask]
            whole = v[tmask]
            if pieces < whole or (strict and pieces == whole):
                return Verdict(False, IncompatibleSet(Coalition(tmask), as_value(pieces), whole))
    return STABLE


def _splits_gain(tables, u: int, strict: bool) -> bool:
    """Does the best split of ``u`` beat (strict: tie) ``u`` whole?

    Read off the ``(w, best, count)`` :func:`_block_tables` gives, where
    ``u`` is a mask or, with a ``lift``, a position: a split beats ``u``
    exactly when ``best[u]`` passes ``w[u]``.  It ties ``u`` exactly
    when, besides, two or more groupings reach ``best[u]``, as the DP
    counts a whole that ties its best split as one more grouping.
    """
    w, best, count = tables
    return w[u] < best[u] or (strict and count[u] > 1)


def check_dc(g: Game, p: Partition) -> Verdict:
    """Is no collection of disjoint coalitions better off on its own?"""
    _check_partition(g, p)
    return _dc_scan(g, p.masks, False)


def check_dc_strict(g: Game, p: Partition) -> Verdict:
    """Strict version of :func:`check_dc`: both families of inequalities sharp."""
    _check_partition(g, p)
    return _dc_scan(g, p.masks, True)


# ---------------------------------------------------------------------------
# dp / dpk: stability against partitions (bounded or not)


def check_dp(g: Game, p: Partition) -> Verdict:
    """Is ``p`` a social-welfare maximizer among all partitions?  This is
    :func:`check_dp_k` at ``k = n``, where the budget binds nothing and
    the unbounded solver answers, behind its cap."""
    return check_dp_k(g, p, g.n)


def check_strict_dp(g: Game, p: Partition) -> Verdict:
    """Is ``p`` the unique social-welfare maximizer?  A tie-counting DP,
    O(3**n), and a walk over the maximizers up to the first other than
    ``p``; the partition enumeration cap applies."""
    _check_partition(g, p)
    return _rival(g, p, _ties(g, g.n)[1])


def _rival(g: Game, p: Partition, tied) -> Verdict:
    """Unstable against the first grouping of ``tied`` other than ``p``,
    stable when there is none."""
    rival = next((q for q in tied if q != p.masks), None)
    if rival is None:
        return STABLE
    v = g.dense_table()
    witness = DefectingCollection(_from_masks(Partition, rival), _welfare(v, p.masks), _welfare(v, rival))
    return Verdict(False, witness)


def _validate_bound(g: Game, p: Partition, k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError("size bound k must be an int")
    if not 1 <= k <= g.n:
        raise ValueError(f"size bound k must be in 1..{g.n}, got {k}")
    if len(p.blocks) > k:
        raise ValueError(
            f"partition exceeds size bound: {len(p.blocks)} blocks with k = {k}"
        )


def _dp_k_scan(g: Game, p: Partition, k: int, strict: bool) -> Verdict:
    # Every refusal, and the strict check's tie count, comes before p's
    # welfare, the plain check's first read of the value table.
    _check_partition(g, p)
    _validate_bound(g, p, k)
    tied = _ties(g, k)[1] if strict else None
    res = optimal_partition_bounded(g, k)
    swp = _welfare(g.dense_table(), p.masks)
    if swp < res.optimum:
        return Verdict(False, DefectingCollection(res.witness, swp, res.optimum))
    return _rival(g, p, tied) if strict else STABLE


def check_dp_k(g: Game, p: Partition, k: int) -> Verdict:
    """Is ``p`` welfare-maximal among partitions with at most ``k`` blocks?"""
    return _dp_k_scan(g, p, k, False)


def check_dp_k_strict(g: Game, p: Partition, k: int) -> Verdict:
    """Is ``p`` the unique welfare maximizer among partitions with at most
    ``k`` blocks?  A tie-counting DP: layered below ``k = n``, about
    (k-2)·3**(n-1)/2 + k·2**(n-1) steps, and one unbounded O(3**n) pass at
    ``k = n``.  Below the k-block optimum the rival is the DP's witness;
    on a tie it is the first other maximizer in enumeration order, found
    by a walk over the tied partitions, hence the partition enumeration
    cap."""
    return _dp_k_scan(g, p, k, True)


# ---------------------------------------------------------------------------
# dhp: stability against merge/split rearrangements of p itself


def _dhp_scan(g: Game, p: Partition, strict: bool) -> Verdict:
    # Splits first, then merges: the first gaining (strict: tying)
    # rearrangement of either kind is the witness.
    for i, whole, best, parts in _gaining_splits(g, p.masks, strict):
        return Verdict(False, BlockSplit(i, _from_masks(Collection, parts), whole, best))
    for tmask, _, separate, merged in _gaining_merges(g.dense_table(), p.masks, strict):
        return Verdict(False, BlockMerge(_indices(tmask), as_value(separate), as_value(merged)))
    return STABLE


def _gaining_splits(
    g: Game, pmasks: "tuple[int, ...]", strict: bool
) -> "Iterator[tuple[int, Value, Value, tuple[int, ...]]]":
    """Every block of two or more players with a cut into two or more
    parts worth more (strict: at least as much) than the block, as
    ``(index, whole, best, parts)``, blocks in order: ``best`` and
    ``parts`` are the block's best grouping.  The dhp split scan and the
    dynamics split rule both run on it.

    Each block passes the split-scan cap before the value table is read
    for it, then reads its tables from :func:`_block_tables`: the split
    test decides it, and for a gaining block the walk on the same tables,
    from the block's own mask or top position, gives its best grouping,
    which then cuts it.  ``best`` is the sum of the game's values over
    ``parts``.
    """
    for i, pm in enumerate(pmasks):
        size = pm.bit_count()
        if size < 2:
            continue
        _check_cap(size, PARTITION_ENUM_CAP, "split-scan", pm)
        tables, lift = _block_tables(g, pm)
        s = pm if lift is None else len(lift) - 1
        if _splits_gain(tables, s, strict):
            w, best, _ = tables
            parts = next(_tie_walk(w, [best] * (size + 1), None, size, s))
            if lift is not None:
                parts = tuple(map(lift.__getitem__, parts))
            v = g.dense_table()
            yield i, v[pm], _welfare(v, parts), parts


def _gaining_merges(
    v: "list[Value]", pmasks: "tuple[int, ...]", strict: bool
) -> "Iterator[tuple[int, int, Value, Value]]":
    """Every union of two or more whole blocks worth more (strict: at
    least as much) than the blocks apart, as ``(tmask, union, separate,
    merged)``: bit i of ``tmask`` picks block i, and :func:`_indices`
    spells it out for a caller that needs the indices.  Index subsets come
    ascending by bit pattern.  The dhp merge scan and the dynamics merge
    rule both run on it.

    Unions and sums are kept running, one per set bit of ``tmask``,
    highest bit first: counting ``tmask`` up clears its trailing ones and
    sets the bit above them, so those entries are popped and one is
    pushed, O(1) amortized per subset.  Each sum adds the subset's own
    values, so it is exact and has a fresh sum's type (int or Fraction)."""
    k = len(pmasks)
    block_vals = [v[pm] for pm in pmasks]
    unions: "list[int]" = [0]
    sums: "list[Value]" = [0]
    for tmask in range(1, 1 << k):
        j = (tmask & -tmask).bit_length() - 1
        if j:
            del unions[-j:], sums[-j:]
        union = unions[-1] | pmasks[j]
        separate = sums[-1] + block_vals[j]
        unions.append(union)
        sums.append(separate)
        if tmask & (tmask - 1):
            merged = v[union]
            if separate < merged or (strict and separate == merged):
                yield tmask, union, separate, merged


def _indices(tmask: int) -> "tuple[int, ...]":
    """The positions of ``tmask``'s set bits, ascending."""
    return tuple(i for i in range(tmask.bit_length()) if tmask >> i & 1)


def check_dhp(g: Game, p: Partition) -> Verdict:
    """Is ``p`` stable against every merge/split rearrangement of itself?"""
    _check_partition(g, p)
    return _dhp_scan(g, p, False)


def check_strict_dhp(g: Game, p: Partition) -> Verdict:
    """Strict version of :func:`check_dhp`: split and merge comparisons sharp.

    Equivalent to the definitional strict check: any rearrangement other
    than ``p`` itself either cuts some block (its parts then tie or beat the
    block, which the sharp split scan catches on the coarsest such cut) or
    only merges whole blocks (caught by the sharp merge scan).
    """
    _check_partition(g, p)
    return _dhp_scan(g, p, True)


# ---------------------------------------------------------------------------
# Definitional oracles


def check_definitional(
    g: Game, p: Partition, kind: "DefectionKind | str", strict: bool = False
) -> Verdict:
    """Brute-force oracle: test the stability inequality against every rival
    in the family, returning the first violation in enumeration order.

    Exponential; intended for cross-validation at small n.  For the ``dc``
    family the collection enumeration cap applies, otherwise the partition
    enumeration cap.
    """
    _check_partition(g, p)
    if isinstance(kind, str):
        kind = kind_from_string(kind)
    pmasks = p.masks
    if kind.family == "dc":
        _check_cap(g.n, COLLECTION_ENUM_CAP, "collection enumeration")
        v = g.dense_table()
        framed_by_union: dict[int, Value] = {}
        for cmasks in _iter_collection_masks(g.n):
            welfare: Value = 0
            u = 0
            for m in cmasks:
                welfare += v[m]
                u |= m
            framed = framed_by_union.get(u)
            if framed is None:
                framed = 0
                for pm in pmasks:
                    framed += v[pm & u]
                framed_by_union[u] = framed
            if framed < welfare or (
                strict and framed == welfare and not _frame_fixes(cmasks, u, pmasks)
            ):
                rival = _from_masks(Collection, cmasks)
                return Verdict(False, DefectingCollection(rival, as_value(framed), as_value(welfare)))
        return STABLE
    _check_cap(g.n, PARTITION_ENUM_CAP, "partition enumeration")
    if kind.family == "dpk":
        _validate_bound(g, p, kind.k)
    v = g.dense_table()
    swp = _welfare(v, pmasks)
    if kind.family == "dhp":
        rivals = _iter_homogeneous_masks(pmasks)
    else:
        rivals = _iter_partition_masks(g.full_mask)
    for qmasks in rivals:
        if kind.family == "dpk" and len(qmasks) > kind.k:
            continue
        total = _welfare(v, qmasks)
        if swp < total or (strict and swp == total and qmasks != pmasks):
            return Verdict(False, DefectingCollection(_from_masks(Partition, qmasks), swp, total))
    return STABLE


def _frame_fixes(cmasks: "tuple[int, ...]", union: int, pmasks: "tuple[int, ...]") -> bool:
    """True iff regrouping the collection by the partition reproduces it."""
    pieces = sorted(pm & union for pm in pmasks if pm & union)
    return pieces == sorted(cmasks)


# ---------------------------------------------------------------------------
# Game-class predicates and shortcut corollaries


def _singleton_sums(weights: "list[Value]") -> "list[Value]":
    """The table of an additive game: each mask's sum of ``weights``, one
    weight per player."""
    sums: list[Value] = [0] * (1 << len(weights))
    for s in range(1, len(sums)):
        low = s & -s
        sums[s] = sums[s ^ low] + weights[low.bit_length() - 1]
    return sums


def is_additive(g: Game) -> bool:
    """True iff every coalition is worth the sum of its members' singleton
    values — equivalently, value adds up across every disjoint pair.
    Exactly these games have every partition dc-stable."""
    v = g.dense_table()
    return _singleton_sums([v[1 << i] for i in range(g.n)]) == v


def is_superadditive(g: Game, strict: bool = False) -> bool:
    """True iff every disjoint pair satisfies v(A) + v(B) <= v(A∪B)
    (``strict=True``: <): the grand coalition passes the dc pair scan.
    Costs a 3**n disjoint-pair scan that stops at the first violation, or
    an O(2**n) sweep when the game holds the unbounded DP pass's tables."""
    return _dc_scan(g, (g.full_mask,), strict).stable


@dataclass(frozen=True)
class CorollaryReport:
    """Shortcut verdicts for the two canonical partitions.

    ``grand_stable``: the one-block partition is dc-stable, which happens
    exactly for superadditive games; ``grand_unique``: the game is strictly
    superadditive, making it the unique dc-stable partition.
    ``singletons_stable``: the all-singletons partition is dc-stable, which
    happens exactly when no coalition beats the sum of its members'
    singleton values; ``singletons_unique``: every such comparison is
    strict (for coalitions of two or more players), making it unique.
    """

    grand_stable: bool
    grand_unique: bool
    singletons_stable: bool
    singletons_unique: bool


def corollary_shortcuts(g: Game) -> CorollaryReport:
    """Whether the grand and the all-singletons partitions are dc-stable,
    and uniquely so, from the game's shape: up to two dc pair scans of the
    grand block and one O(2**n) sweep of the singleton sums."""
    v = g.dense_table()
    sums = _singleton_sums([v[1 << i] for i in range(g.n)])
    # How far the singleton sums clear every coalition of two or more.
    slack = min((sums[s] - v[s] for s in range(3, 1 << g.n) if s & (s - 1)), default=1)
    grand_unique = is_superadditive(g, strict=True)
    return CorollaryReport(
        grand_stable=grand_unique or is_superadditive(g),
        grand_unique=grand_unique,
        singletons_stable=slack >= 0,
        singletons_unique=slack > 0,
    )


def find_dc_stable(g: Game) -> "Partition | None":
    """A dc-stable partition if one exists, else None.

    Only welfare maximizers can be dc-stable, so the search runs over the
    walk :func:`all_maximizers` lists (whose partition enumeration cap
    applies), vetting each maximizer with the dc scan as the walk yields
    it, up to the first dc-stable one; only the partition returned is
    built.  It vets at most Bell(``MAXIMIZER_CAP``) maximizers, as many as
    a listing holds, and refuses when more are left.
    """
    count, walk = _ties(g, g.n)
    for q in islice(walk, _LISTING_CAP):
        if _dc_scan(g, q, False).stable:
            return _from_masks(Partition, q)
    _check_listing(count)  # none of those it may vet is dc-stable
    return None
