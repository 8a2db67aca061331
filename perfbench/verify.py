"""Re-verification of coalstab's answers against the game table.

Every witness a check returns is recomputed here from the table alone:
its payload must be structurally valid against the checked partition, its
stored values must match the table, and the inequality it cites must
really fail.  Witness identity is never pinned, only validity.
"""

from __future__ import annotations

from coalstab import (
    BlockMerge,
    BlockSplit,
    DefectingCollection,
    IncompatibleSet,
    IntraBlockPair,
    Partition,
    Verdict,
)


class Wrong(Exception):
    """An answer that is invalid or disagrees with the golden answer."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def welfare(v, masks) -> object:
    total = 0
    for m in masks:
        total += v[m]
    return total


def partition_of(p, n: int, what: str) -> None:
    require(isinstance(p, Partition) and p.union_mask == (1 << n) - 1, f"{what} is not a partition of {n} players")


def witness(v, p: Partition, verdict: Verdict, strict: bool, max_blocks: "int | None" = None) -> None:
    """Raise :class:`Wrong` unless ``verdict``'s witness refutes ``p``."""
    beats = (lambda a, b: a >= b) if strict else (lambda a, b: a > b)
    w = verdict.witness
    pm = p.masks
    if isinstance(w, IntraBlockPair):
        a, b = w.a.mask, w.b.mask
        require(0 <= w.block_index < len(pm), "pair: block index out of range")
        require(not a & b and not (a | b) & ~pm[w.block_index], "pair: pieces not disjoint inside the block")
        require(w.separate == v[a] + v[b] and w.combined == v[a | b], "pair: values do not match the table")
        require(beats(w.separate, w.combined), "pair: no violation")
    elif isinstance(w, IncompatibleSet):
        c = w.coalition.mask
        low = c & -c
        require(any(m & low and c & ~m for m in pm), "incompatible: coalition fits one block")
        require(w.pieces_value == welfare(v, [m & c for m in pm]), "incompatible: pieces value wrong")
        require(w.whole_value == v[c], "incompatible: whole value wrong")
        require(beats(w.whole_value, w.pieces_value), "incompatible: no violation")
    elif isinstance(w, BlockSplit):
        require(0 <= w.block_index < len(pm), "split: block index out of range")
        block = pm[w.block_index]
        require(len(w.parts) >= 2 and w.parts.union_mask == block, "split: parts do not cut the block")
        require(w.whole_value == v[block] and w.parts_value == welfare(v, w.parts.masks), "split: values wrong")
        require(beats(w.parts_value, w.whole_value), "split: no violation")
    elif isinstance(w, BlockMerge):
        idx = w.block_indices
        require(len(idx) >= 2 and len(set(idx)) == len(idx), "merge: needs two or more distinct blocks")
        require(all(0 <= i < len(pm) for i in idx), "merge: block index out of range")
        union = 0
        for i in idx:
            union |= pm[i]
        require(w.separate == welfare(v, [pm[i] for i in idx]) and w.merged == v[union], "merge: values wrong")
        require(beats(w.merged, w.separate), "merge: no violation")
    elif isinstance(w, DefectingCollection):
        cm = w.collection.masks
        u = w.collection.union_mask
        framed = [m & u for m in pm if m & u]
        require(w.welfare == welfare(v, cm) and w.framed_welfare == welfare(v, framed), "collection: values wrong")
        require(beats(w.welfare, w.framed_welfare), "collection: no violation")
        if strict:
            require(sorted(framed) != sorted(cm), "collection: rival is the checked partition")
        if max_blocks is not None:
            require(len(cm) <= max_blocks, "collection: rival exceeds the block bound")
    else:
        raise Wrong(f"unstable verdict without a known witness: {w!r}")


def verdict(v, p: Partition, result, strict: bool = False, max_blocks: "int | None" = None) -> bool:
    """Validate a verdict (its witness, when unstable) and return its boolean."""
    require(isinstance(result, Verdict), f"not a verdict: {result!r}")
    if not result.stable:
        witness(v, p, result, strict, max_blocks)
    return result.stable
