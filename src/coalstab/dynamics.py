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
    _partitions,
    _submasks,
    as_value,
    format_value,
    social_welfare,
)
from .stability import _gaining_merges, _gaining_splits

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
        if (self.kind == "random") != (self.seed is not None):
            raise ValueError("exactly the random strategy takes a seed")


FIRST_APPLICABLE = Strategy("first")
BEST_GAIN = Strategy("best")


def random_strategy(seed: int) -> Strategy:
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError("random strategy seed must be an int")
    return Strategy("random", seed)


def _coerce_rules(rules: "Iterable[RuleName | str]") -> "tuple[RuleName, ...]":
    """The named rules in the order first given, each once."""
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


def _iter_applications(
    g: Game,
    pmasks: "tuple[int, ...]",
    rules: "tuple[RuleName, ...]",
    coalitions: "_Coalitions | None" = None,
) -> Iterator[RuleApplication]:
    """All strictly-gaining applications, deterministic order.

    Merges scan index subsets ascending by bit pattern; splits scan blocks
    ascending and, per block that can gain, the ways of cutting it in
    restricted-growth order; transfers scan ordered block pairs and moved
    subsets ascending; exchanges scan unordered block pairs with both
    swapped subsets ascending.  Whether a block can gain is decided by
    the dhp split scan, so a block without a gaining cut lists none.
    Payload and part coalitions come from ``coalitions``, one table per
    scan unless the caller shares one.  The value table is read only by
    the rules that run, and the split rule reads it past its cap check.
    """
    if coalitions is None:
        coalitions = _Coalitions()
    if RuleName.MERGE in rules:
        for indices, separate, merged in _gaining_merges(g.dense_table(), pmasks, False):
            yield Merge(indices, merged - separate)
    if RuleName.SPLIT in rules:
        for i, whole, _, _ in _gaining_splits(g, pmasks, False):
            # Cuts are enumerated over the block's own positions and read a
            # block-local table; only a gaining cut is mapped to players.
            pm = pmasks[i]
            sub = _submasks(pm)
            v = g.dense_table()
            w = [v[m] for m in sub]
            for parts in _partitions(pm.bit_count()):
                if len(parts) < 2:
                    continue
                total: Value = 0
                for m in parts:
                    total += w[m]
                gain = total - whole
                if gain > 0:
                    yield Split(i, _from_masks(Collection, [sub[m] for m in parts], coalitions), gain)
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
                        yield Transfer(i, j, coalitions[t], gain)
    if RuleName.EXCHANGE in rules:
        for a, (i, bi, firsts) in enumerate(movable):
            for j, bj, seconds in movable[a + 1:]:
                base = bvals[i] + bvals[j]
                for u1 in firsts:
                    for u2 in seconds:
                        gain = v[(bi ^ u1) | u2] + v[(bj ^ u2) | u1] - base
                        if gain > 0:
                            yield Exchange(i, j, coalitions[u1], coalitions[u2], gain)


def applicable_rules(
    g: Game, p: Partition, rules: "Iterable[RuleName | str]" = DEFAULT_RULES
) -> "list[RuleApplication]":
    """All applications of the given rules that strictly gain welfare."""
    _check_partition(g, p)
    return list(_iter_applications(g, p.masks, _coerce_rules(rules)))


def is_closed(g: Game, p: Partition, rules: "Iterable[RuleName | str]" = DEFAULT_RULES) -> bool:
    """True iff no rule in the set strictly gains welfare at ``p``."""
    _check_partition(g, p)
    return next(_iter_applications(g, p.masks, _coerce_rules(rules)), None) is None


def _check(pmasks: "tuple[int, ...]", a: RuleApplication) -> None:
    """The structural checks of :func:`step`, on block masks."""
    count = len(pmasks)
    if isinstance(a, Merge):
        idxs = a.indices
        if (
            len(idxs) < 2
            or list(idxs) != sorted(set(idxs))
            or not all(0 <= i < count for i in idxs)
        ):
            raise ValueError("merge needs two or more distinct ascending block indices in range")
    elif isinstance(a, Split):
        if not 0 <= a.index < count:
            raise ValueError("split index out of range")
        if len(a.parts) < 2 or a.parts.union_mask != pmasks[a.index]:
            raise ValueError("split parts must cut the block into two or more pieces")
    elif isinstance(a, Transfer):
        i, j = a.source, a.target
        if not (0 <= i < count and 0 <= j < count) or i == j:
            raise ValueError("transfer needs two distinct block indices in range")
        src, m = pmasks[i], a.moved.mask
        if m & ~src or m == src:
            raise ValueError("transfer payload must be a proper nonempty subset of the source block")
    elif isinstance(a, Exchange):
        i, j = a.first, a.second
        if not (0 <= i < count and 0 <= j < count) or i == j:
            raise ValueError("exchange needs two distinct block indices in range")
        bi, bj = pmasks[i], pmasks[j]
        u1, u2 = a.from_first.mask, a.from_second.mask
        if u1 & ~bi or u1 == bi or u2 & ~bj or u2 == bj:
            raise ValueError("exchange payloads must be proper nonempty subsets of their blocks")
    else:
        raise TypeError(f"not a rule application: {a!r}")


def _apply(pmasks: "tuple[int, ...]", a: RuleApplication) -> "tuple[int, ...]":
    """The block masks after one rewrite that passes :func:`_check`,
    sorted by least member."""
    blocks = list(pmasks)
    if isinstance(a, Merge):
        union = 0
        for i in reversed(a.indices):
            union |= blocks.pop(i)
        blocks.append(union)
    elif isinstance(a, Split):
        blocks.pop(a.index)
        blocks += a.parts.masks
    elif isinstance(a, Transfer):
        blocks[a.source] ^= a.moved.mask
        blocks[a.target] |= a.moved.mask
    else:
        # The payloads are disjoint and each sits in its own block, so
        # swapping them flips the same bits in both blocks.
        swapped = a.from_first.mask | a.from_second.mask
        blocks[a.first] ^= swapped
        blocks[a.second] ^= swapped
    blocks.sort(key=lambda m: m & -m)
    return tuple(blocks)


def step(p: Partition, a: RuleApplication) -> Partition:
    """Apply one rewrite to ``p``; payload indices and coalitions are
    validated structurally (``ValueError``; ``TypeError`` for anything
    that is not a rule application), gains are the caller's concern."""
    _check(p.masks, a)
    return Partition(tuple(map(Coalition, _apply(p.masks, a))))


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
    three strategies (random is seeded per call).
    """
    rules = _coerce_rules(rules)
    _check_partition(g, p0)
    if not isinstance(strategy, Strategy):
        raise TypeError("expected a Strategy")
    rng = random.Random(strategy.seed) if strategy.kind == "random" else None
    current = p0
    welfare = social_welfare(g, p0)
    steps: list[TraceStep] = []
    while True:
        if strategy.kind == "first":
            app = next(_iter_applications(g, current.masks, rules), None)
            if app is None:
                break
        else:
            apps = list(_iter_applications(g, current.masks, rules))
            if not apps:
                break
            if strategy.kind == "best":
                app = max(apps, key=lambda a: a.gain)
            else:
                app = rng.choice(apps)  # type: ignore[union-attr]
        current = step(current, app)
        welfare = as_value(welfare + app.gain)
        steps.append(TraceStep(app, current, welfare))
    return Trace(p0, tuple(steps))


def closure_outcomes(
    g: Game, p0: Partition, rules: "Iterable[RuleName | str]" = DEFAULT_RULES
) -> "set[Partition]":
    """Every fixpoint reachable from ``p0`` by any order of applications.

    A depth-first search over block-mask tuples visits each reachable
    partition once and scans its applications once; a partition with no
    gaining application is a fixpoint.  The generated applications are
    valid by construction, so they are rewritten without :func:`step`'s
    checks.  Memory is the set of visited mask tuples and one Coalition
    per payload mask, shared by the whole search; only the returned
    fixpoints become Partitions.  The number of reachable
    partitions can reach Bell(n), hence the dedicated cap.
    """
    rules = _coerce_rules(rules)
    _check_partition(g, p0)
    _check_cap(g.n, CLOSURE_CAP, "closure")
    seen = {p0.masks}
    stack = [p0.masks]
    fixpoints = set()
    coalitions = _Coalitions()
    while stack:
        node = stack.pop()
        fixed = True
        for a in _iter_applications(g, node, rules, coalitions):
            fixed = False
            q = _apply(node, a)
            if q not in seen:
                seen.add(q)
                stack.append(q)
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
