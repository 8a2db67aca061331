"""Rewrite rules over partitions: merge, split, transfer, exchange.

Every rule application must strictly increase social welfare, so any
iteration terminates.  The default rule set is merge + split: its
fixpoints are exactly the partitions stable against merge/split rivals
(the ``dhp`` family), while transfer and exchange exist to probe
situations the default rules cannot reach.

Application generation is deterministic.  Rules come out rule-major in
the order merge, split, transfer, exchange; within a rule the scan order
is documented on the generator and stable across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Union

from .model import (
    Coalition,
    Collection,
    Game,
    Partition,
    Value,
    _check_cap,
    _check_partition,
    _Coalitions,
    _from_masks,
    _submasks,
    as_value,
    format_value,
    social_welfare,
)
from .solver import _gaining_splits
from .stability import _gaining_merges, _indices

CLOSURE_CAP = 8


class RuleName(str, Enum):
    MERGE = "merge"
    SPLIT = "split"
    TRANSFER = "transfer"
    EXCHANGE = "exchange"


DEFAULT_RULES = frozenset((RuleName.MERGE, RuleName.SPLIT))
ALL_RULES = frozenset(RuleName)


@dataclass(frozen=True)
class Merge:
    """Fuse the blocks at the given indices (ascending, two or more)."""

    indices: tuple[int, ...]
    gain: Value

    rule = RuleName.MERGE


@dataclass(frozen=True)
class Split:
    """Replace the block at ``index`` by the given parts (two or more)."""

    index: int
    parts: Collection
    gain: Value

    rule = RuleName.SPLIT


@dataclass(frozen=True)
class Transfer:
    """Move ``moved`` — a proper nonempty subset of the source block —
    into the target block."""

    source: int
    target: int
    moved: Coalition
    gain: Value

    rule = RuleName.TRANSFER


@dataclass(frozen=True)
class Exchange:
    """Swap ``from_first`` and ``from_second`` (each a proper nonempty
    subset of its block) between the blocks at ``first`` and ``second``."""

    first: int
    second: int
    from_first: Coalition
    from_second: Coalition
    gain: Value

    rule = RuleName.EXCHANGE


RuleApplication = Union[Merge, Split, Transfer, Exchange]


@dataclass(frozen=True)
class Strategy:
    """How :func:`iterate` picks among applicable rules: ``first`` takes
    the first in canonical order, ``best`` the largest gain (ties broken
    canonically), ``random`` draws uniformly with a fixed seed."""

    kind: str
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if self.kind not in ("first", "best", "random"):
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.kind == "random":
            if isinstance(self.seed, bool) or not isinstance(self.seed, int):
                raise TypeError("random strategy seed must be an int")
        elif self.seed is not None:
            raise ValueError("exactly the random strategy takes a seed")


FIRST_APPLICABLE = Strategy("first")
BEST_GAIN = Strategy("best")


def random_strategy(seed: int) -> Strategy:
    """The strategy that draws uniformly among applicable rules, seeded by
    ``seed`` afresh on every :func:`iterate` call."""
    return Strategy("random", seed)


def _coerce_rules(rules: "Iterable[RuleName | str]") -> "tuple[RuleName, ...]":
    """The named rules in the order first given, each once.  A string is a
    comma list of names, as ``--rules`` takes it; blank names are skipped."""
    if isinstance(rules, str):
        rules = [tok for tok in rules.split(",") if tok.strip()]
    out: list[RuleName] = []
    for r in rules:
        if not isinstance(r, str):
            raise TypeError(f"rules must be RuleName or str, got {r!r}")
        token = r.strip().lower()
        try:
            rule = RuleName(token)
        except ValueError as exc:
            valid = ", ".join(x.value for x in RuleName)
            raise ValueError(f"unknown rule {token!r}; valid: {valid}") from exc
        if rule not in out:
            out.append(rule)
    if not out:
        raise ValueError("at least one rule is required")
    return tuple(out)


def _edges(
    g: Game,
    pmasks: "tuple[int, ...]",
    rules: "tuple[RuleName, ...]",
    cuts: "dict[int, list] | None" = None,
) -> "Iterator[tuple[tuple[int, ...], RuleName, object, Value]]":
    """Every strictly-gaining application as ``(child, rule, fields,
    gain)``, deterministic order: ``child`` is the partition it leads to,
    as block masks sorted by least member, and ``fields`` holds its
    payload as masks: ``tmask`` (bit i picks block i) for a merge,
    ``(index, parts)`` for a split, ``(source, target, moved)`` for a
    transfer and ``(first, second, from_first, from_second)`` for an
    exchange.

    Merges come from the dhp merge scan, index subsets ascending by bit
    pattern; the union takes the place of its lowest block, so the child
    needs no sort.  Splits scan blocks ascending and, per block that the
    dhp split scan (:func:`solver._gaining_splits`) finds can gain, the
    gaining cuts it lists in restricted-growth order, the parts taking
    the block's place.
    Transfers scan ordered block pairs and moved subsets ascending;
    exchanges scan unordered block pairs with both swapped subsets
    ascending; each rewrites two blocks of the parent and sorts.  A caller
    that reads every yield may pass ``cuts``, a dict private to it, to keep
    each block's gaining cuts by block mask across scans; without it the
    cuts are listed lazily.  The value table is read only by the rules
    that run, and the split rule reads it past its cap check.
    """
    if RuleName.MERGE in rules:
        for tmask, union, separate, merged in _gaining_merges(g.dense_table(), pmasks, False):
            child = [pm for pm in pmasks if not pm & union]
            child.insert((tmask & -tmask).bit_length() - 1, union)
            yield tuple(child), RuleName.MERGE, tmask, merged - separate
    if RuleName.SPLIT in rules:
        for i, pm in enumerate(pmasks):
            if not pm & (pm - 1):
                continue  # one player: nothing to cut
            found = None if cuts is None else cuts.get(pm)
            if found is None:
                found = _gaining_cuts(g, pm)
                if cuts is not None:
                    found = cuts[pm] = list(found)
            # The first part keeps the block's least member, so the parts
            # need sorting in only when the last one starts past the next
            # block.
            later = pmasks[i + 1:]
            nxt = later[0] & -later[0] if later else 0
            for parts, gain in found:
                child = pmasks[:i] + parts + later
                if nxt and parts[-1] & -parts[-1] > nxt:
                    child = tuple(sorted(child, key=_least))
                yield child, RuleName.SPLIT, (i, parts), gain
    if RuleName.TRANSFER in rules or RuleName.EXCHANGE in rules:
        v = g.dense_table()
        bvals = [v[m] for m in pmasks]
        # Each block of two or more players, with the payloads it can give:
        # its proper nonempty subsets, ascending.
        movable = [(i, pm, _submasks(pm)[1:-1]) for i, pm in enumerate(pmasks) if pm & (pm - 1)]
    if RuleName.TRANSFER in rules:
        for i, src, moved in movable:
            for j, tgt in enumerate(pmasks):
                if j == i:
                    continue
                base = bvals[i] + bvals[j]
                for t in moved:
                    gain = v[src ^ t] + v[tgt | t] - base
                    if gain > 0:
                        child = _rewrite(pmasks, i, src ^ t, j, tgt | t)
                        yield child, RuleName.TRANSFER, (i, j, t), gain
    if RuleName.EXCHANGE in rules:
        for a, (i, bi, firsts) in enumerate(movable):
            for j, bj, seconds in movable[a + 1:]:
                base = bvals[i] + bvals[j]
                for u1 in firsts:
                    for u2 in seconds:
                        gain = v[(bi ^ u1) | u2] + v[(bj ^ u2) | u1] - base
                        if gain > 0:
                            child = _rewrite(pmasks, i, (bi ^ u1) | u2, j, (bj ^ u2) | u1)
                            yield child, RuleName.EXCHANGE, (i, j, u1, u2), gain


def _least(mask: int) -> int:
    """The sort key of a block: its least member's bit."""
    return mask & -mask


def _rewrite(pmasks: "tuple[int, ...]", i: int, bi: int, j: int, bj: int) -> "tuple[int, ...]":
    """``pmasks`` with blocks ``i`` and ``j`` replaced by ``bi`` and
    ``bj``, sorted by least member."""
    child = list(pmasks)
    child[i] = bi
    child[j] = bj
    child.sort(key=_least)
    return tuple(child)


def _gaining_cuts(g: Game, pm: int) -> "Iterator[tuple[tuple[int, ...], Value]]":
    """Every cut of block ``pm`` into two or more parts worth more than the
    block, as ``(parts, gain)`` in restricted-growth order, or none when
    the dhp split scan finds that no cut gains.  The cuts are walked off
    the tables that decided the block (:func:`solver._gaining_splits`),
    so the cost grows with their number."""
    for _, _, cuts in _gaining_splits(g, (pm,), False):
        v = g.dense_table()
        for parts in cuts:
            gain = -v[pm]
            for m in parts:
                gain += v[m]
            yield parts, gain


def _application(rule: RuleName, fields, gain: Value, coalitions: _Coalitions) -> RuleApplication:
    """The application object of one :func:`_edges` yield; its payload
    and part coalitions come from ``coalitions``, and its gain follows
    :func:`as_value`."""
    gain = as_value(gain)
    if rule is RuleName.MERGE:
        return Merge(_indices(fields), gain)
    if rule is RuleName.SPLIT:
        i, parts = fields
        return Split(i, _from_masks(Collection, parts, coalitions), gain)
    if rule is RuleName.TRANSFER:
        i, j, t = fields
        return Transfer(i, j, coalitions[t], gain)
    i, j, u1, u2 = fields
    return Exchange(i, j, coalitions[u1], coalitions[u2], gain)


def applicable_rules(
    g: Game, p: Partition, rules: "Iterable[RuleName | str]" = DEFAULT_RULES
) -> "list[RuleApplication]":
    """All applications of the given rules that strictly gain welfare, in
    :func:`_edges` order, with one coalition table per scan."""
    _check_partition(g, p)
    coalitions = _Coalitions()
    return [
        _application(rule, fields, gain, coalitions)
        for _, rule, fields, gain in _edges(g, p.masks, _coerce_rules(rules))
    ]


def is_closed(g: Game, p: Partition, rules: "Iterable[RuleName | str]" = DEFAULT_RULES) -> bool:
    """True iff no rule in the set strictly gains welfare at ``p``."""
    _check_partition(g, p)
    return next(_edges(g, p.masks, _coerce_rules(rules)), None) is None


def _in_range(count: int, *idxs: int) -> bool:
    """True iff every block index lies in ``range(count)``; a bool index
    raises ``TypeError``, as the package takes no bool for an int."""
    if any(isinstance(i, bool) for i in idxs):
        raise TypeError(f"block indices must be ints, not bool: {idxs!r}")
    return all(0 <= i < count for i in idxs)


def step(p: Partition, a: RuleApplication) -> Partition:
    """Apply one rewrite to ``p``.  This is the one place an application
    is validated: its payload indices and coalitions are checked against
    ``p``'s blocks (``ValueError``; ``TypeError`` for a bool index or
    anything that is not a rule application) before the rewrite; gains
    are the caller's concern."""
    blocks = list(p.masks)
    count = len(blocks)
    if isinstance(a, Merge):
        idxs = a.indices
        if not _in_range(count, *idxs) or len(idxs) < 2 or list(idxs) != sorted(set(idxs)):
            raise ValueError("merge needs two or more distinct ascending block indices in range")
        union = 0
        for i in reversed(idxs):
            union |= blocks.pop(i)
        blocks.append(union)
    elif isinstance(a, Split):
        if not _in_range(count, a.index):
            raise ValueError("split index out of range")
        if len(a.parts) < 2 or a.parts.union_mask != blocks[a.index]:
            raise ValueError("split parts must cut the block into two or more pieces")
        blocks.pop(a.index)
        blocks += a.parts.masks
    elif isinstance(a, Transfer):
        i, j = a.source, a.target
        if not _in_range(count, i, j) or i == j:
            raise ValueError("transfer needs two distinct block indices in range")
        m = a.moved.mask
        if m & ~blocks[i] or m == blocks[i]:
            raise ValueError("transfer payload must be a proper nonempty subset of the source block")
        blocks[i] ^= m
        blocks[j] |= m
    elif isinstance(a, Exchange):
        i, j = a.first, a.second
        if not _in_range(count, i, j) or i == j:
            raise ValueError("exchange needs two distinct block indices in range")
        bi, bj = blocks[i], blocks[j]
        u1, u2 = a.from_first.mask, a.from_second.mask
        if u1 & ~bi or u1 == bi or u2 & ~bj or u2 == bj:
            raise ValueError("exchange payloads must be proper nonempty subsets of their blocks")
        # The payloads are disjoint and each sits in its own block, so
        # swapping them flips the same bits in both blocks.
        blocks[i] ^= u1 | u2
        blocks[j] ^= u1 | u2
    else:
        raise TypeError(f"not a rule application: {a!r}")
    blocks.sort(key=_least)
    return Partition(tuple(map(Coalition, blocks)))


@dataclass(frozen=True)
class TraceStep:
    application: RuleApplication
    result: Partition
    welfare: Value


@dataclass(frozen=True)
class Trace:
    """One terminating run of the rewrite engine."""

    initial: Partition
    steps: tuple[TraceStep, ...]

    @property
    def final(self) -> Partition:
        return self.steps[-1].result if self.steps else self.initial


def iterate(
    g: Game,
    p0: Partition,
    strategy: Strategy = FIRST_APPLICABLE,
    rules: "Iterable[RuleName | str]" = DEFAULT_RULES,
) -> Trace:
    """Apply rules per the strategy until none applies.

    Terminates on every input because each application strictly increases
    welfare and there are finitely many partitions.  Deterministic for all
    three strategies (random is seeded per call).  Each step picks among
    the scan's edges and builds the application object and the partition
    of the one it takes.
    """
    rules = _coerce_rules(rules)
    _check_partition(g, p0)
    if not isinstance(strategy, Strategy):
        raise TypeError("expected a Strategy")
    rng = random.Random(strategy.seed) if strategy.kind == "random" else None
    current = p0
    welfare = social_welfare(g, p0)
    steps: list[TraceStep] = []
    coalitions = _Coalitions()
    while True:
        if strategy.kind == "first":
            edge = next(_edges(g, current.masks, rules), None)
            if edge is None:
                break
        else:
            edges = list(_edges(g, current.masks, rules))
            if not edges:
                break
            if strategy.kind == "best":
                edge = max(edges, key=lambda e: e[3])
            else:
                edge = rng.choice(edges)  # type: ignore[union-attr]
        child, rule, fields, gain = edge
        current = _from_masks(Partition, child, coalitions)
        welfare = as_value(welfare + gain)
        steps.append(TraceStep(_application(rule, fields, gain, coalitions), current, welfare))
    return Trace(p0, tuple(steps))


def closure_outcomes(
    g: Game, p0: Partition, rules: "Iterable[RuleName | str]" = DEFAULT_RULES
) -> "set[Partition]":
    """Every fixpoint reachable from ``p0`` by any order of applications.

    A depth-first search over block-mask tuples visits each reachable
    partition once and scans its gaining edges once (:func:`_edges`),
    taking each child's mask tuple straight from the scan: no application
    object is built and :func:`step`'s checks are not rerun.  A partition
    with no gaining edge is a fixpoint.  Each block's gaining cuts are
    kept by block mask for the whole search, in a table private to the
    call.  Memory is the set of visited mask tuples and that table; only
    the returned fixpoints become Partitions.  The number of reachable
    partitions can reach Bell(n), hence the dedicated cap.
    """
    rules = _coerce_rules(rules)
    _check_partition(g, p0)
    _check_cap(g.n, CLOSURE_CAP, "closure")
    seen = {p0.masks}
    stack = [p0.masks]
    fixpoints = set()
    cuts: "dict[int, list]" = {}
    while stack:
        node = stack.pop()
        fixed = True
        for child, _, _, _ in _edges(g, node, rules, cuts):
            fixed = False
            if child not in seen:
                seen.add(child)
                stack.append(child)
        if fixed:
            fixpoints.add(_from_masks(Partition, node))
    return fixpoints


def format_application(a: RuleApplication, source: Partition) -> str:
    """Render an application against the partition it applies to:
    rule name, payload blocks in brace notation, and the exact gain."""
    blocks = source.blocks
    if isinstance(a, Merge):
        payload = " ".join(str(blocks[i]) for i in a.indices)
        return f"merge {payload} gain {format_value(a.gain)}"
    if isinstance(a, Split):
        return f"split {blocks[a.index]} into {a.parts} gain {format_value(a.gain)}"
    if isinstance(a, Transfer):
        return (
            f"transfer {a.moved} from {blocks[a.source]} to {blocks[a.target]} "
            f"gain {format_value(a.gain)}"
        )
    if isinstance(a, Exchange):
        return (
            f"exchange {a.from_first} from {blocks[a.first]} with "
            f"{a.from_second} from {blocks[a.second]} gain {format_value(a.gain)}"
        )
    raise TypeError(f"not a rule application: {a!r}")


def trace_lines(trace: Trace) -> "list[str]":
    """One line per step: the application and the partition it produced."""
    lines = []
    src = trace.initial
    for st in trace.steps:
        lines.append(f"{format_application(st.application, src)} -> {st.result}")
        src = st.result
    return lines
