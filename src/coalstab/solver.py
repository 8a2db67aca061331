"""Exact welfare maximization over partitions, by one subset DP.

The best grouping of a player set S considers every block containing S's
least player, so each partition is represented exactly once and a pass
over every set costs O(3**n) (Yeh, BIT 1986).  Stacked by block budget the
pass gives the bounded optimum; with tie counts, a walk over the tied
choices lists every optimal partition at a cost that grows with the list.

The pass visits the sets by lowest bit, highest first.  Without tie
counts it reads together the candidates that differ only in where the
two highest players go: one submask of the other members gives up to
four int adds and compares.  A table that holds Fractions runs scaled
to ints by the lcm of its denominators, while that lcm has at most
``_SCALE_BITS`` bits; the walk reads the same scaled table, and only
the reported values are divided back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from math import lcm

from .model import (
    PARTITION_ENUM_CAP, CapExceededError, Game, Partition, Value,
    _check_cap, _Coalitions, _from_masks, _submasks, as_value,
)

SOLVER_CAP = 18
BOUNDED_SOLVER_CAP = 16
MAXIMIZER_CAP = 10  # a listing holds at most Bell(MAXIMIZER_CAP) partitions
_LISTING_CAP = 115_975  # Bell(MAXIMIZER_CAP)
_NO_SPLIT = float("-inf")
_SCALE_BITS = 8192  # the largest lcm of denominators the DP scales by


@dataclass(frozen=True)
class OptResult:
    """Best achievable welfare and one witness partition."""

    optimum: Value
    witness: Partition


def _dp(w, below=None, below_count=None, counting=False, lowest=0, split=None):
    """One pass of the recurrence over the 2**b values ``w``.

    ``best[s]`` is the larger of ``w[s]`` and the best split of ``s``: the
    largest ``w[t] + rest[s ^ t]`` over proper blocks ``t`` of ``s``
    holding its least element, where ``rest`` is ``below`` (one block
    fewer) or, unbounded, ``best`` itself.  With ``counting``, ``count[s]``
    is how many groupings reach ``best[s]``.  A ``split`` list receives
    each best split (``-inf`` for one player).  The pass keeps values, not
    the blocks that reach them: :func:`_tie_walk` finds the witnesses.
    :func:`_pass` runs it on a game's table and caches what it gives.

    Sets run by lowest bit, from the highest down: every set ``s ^ t``
    read has a higher lowest bit than ``s``.  Within one lowest bit
    ``low``, ``w[low:]`` is indexed by the block's other members.  Where
    a set can hold five players above ``low``, the plain pass reads the
    two highest players' candidates together: a set holding ``h`` of them
    and other members ``r`` enumerates the submasks ``t`` of ``r`` once,
    and each ``t`` gives the 1, 2 or 4 candidates that put a part of ``h``
    in the block, read from copies of ``w[low:]`` and ``rest`` shifted by
    that part.  Sets whose lowest bit is below ``lowest`` are skipped,
    except the full set.  About 3**b/2 candidates.
    """
    size = len(w)
    best: "list[Value]" = [0] * size
    count = [1] * size if counting else None
    rest_best = best if below is None else below
    rest_count = count if below_count is None else below_count
    spans = [(1 << i, range(0, size, 2 << i)) for i in range(size.bit_length() - 2, lowest - 1, -1)]
    if lowest:
        spans.append((1, (size - 2,)))  # the full set
    mid, hi = size >> 2, size >> 1  # the two highest players
    for low, rests in spans:
        wl = w[low:]
        # A layer whose sets hold fewer than five players above low loses
        # more to the copies than the paired steps save.
        top = mid | hi if count is None and low < size >> 5 else 0
        if top:
            # Shifted copies: wm[t] is wl[mid | t], bm[u] is rest_best[mid | u].
            wm, wh, wt = wl[mid:], wl[hi:], wl[top:]
            bm, bh, bt = rest_best[mid:], rest_best[hi:], rest_best[top:]
        for rest in rests:
            s = low | rest
            b = wl[rest]
            sp = _NO_SPLIT
            if count is None:
                h = rest & top
                r = t = rest ^ h
                if not h:
                    while t:
                        t = (t - 1) & r
                        cand = wl[t] + rest_best[r ^ t]
                        if cand > sp:
                            sp = cand
                elif h != top:
                    wa, ba = (wm, bm) if h == mid else (wh, bh)
                    sp = wl[r] + ba[0]  # t = r: every block but the whole set
                    while t:
                        t = (t - 1) & r
                        u = r ^ t
                        cand = wl[t] + ba[u]
                        if cand > sp:
                            sp = cand
                        cand = wa[t] + rest_best[u]
                        if cand > sp:
                            sp = cand
                else:
                    sp = max(wl[r] + bt[0], wm[r] + bh[0], wh[r] + bm[0])  # t = r, likewise
                    while t:
                        t = (t - 1) & r
                        u = r ^ t
                        cand = wl[t] + bt[u]
                        if cand > sp:
                            sp = cand
                        cand = wm[t] + bh[u]
                        if cand > sp:
                            sp = cand
                        cand = wh[t] + bm[u]
                        if cand > sp:
                            sp = cand
                        cand = wt[t] + rest_best[u]
                        if cand > sp:
                            sp = cand
            else:
                t, c = rest, 0
                while t:
                    t = (t - 1) & rest
                    r = rest ^ t
                    cand = wl[t] + rest_best[r]
                    if cand > sp:
                        sp = cand
                        c = rest_count[r]
                    elif cand == sp:
                        c += rest_count[r]
                if b <= sp:
                    count[s] = c + 1 if b == sp else c
            best[s] = b if b >= sp else sp
            if split is not None:
                split[s] = sp
    return best, count


def _int_table(v):
    """``v`` as the DP runs it, and the factor it was scaled by.

    An int table runs as it is, with factor ``None``.  A table holding a
    Fraction runs multiplied by the lcm ``L`` of its denominators, as
    ints: sums, comparisons and ties are the same, and an int add costs
    about a fifteenth of a Fraction one.  Past ``_SCALE_BITS`` bits of
    ``L`` the big-int adds and the divisions back cost more than they
    save, so the table runs on its Fractions, with factor 1.  Read values
    back with :func:`_unscale`.
    """
    if set(map(type, v)) <= {int}:
        return v, None
    scale = 1
    for d in {x.denominator for x in v}:
        scale = lcm(scale, d)
        if scale.bit_length() > _SCALE_BITS:
            return v, 1
    return [x.numerator * (scale // x.denominator) for x in v], scale


def _unscale(x, scale: "int | None") -> Value:
    """A value of the table :func:`_int_table` gave back on the game's
    scale: an int when integral, else a Fraction in lowest terms; ``-inf``
    stays."""
    if scale is None or x == _NO_SPLIT:
        return x
    return as_value(x if scale == 1 else Fraction(x, scale))


def _tie_walk(w, best, count, j: int, s: int):
    """Every grouping of ``s`` into at most ``j`` blocks that reaches
    ``best[j][s]``, as block tuples, least member first, in enumeration
    order.

    ``best`` and ``count`` are stacks of tables indexed by block budget.
    A node places blocks by least member; its children are its tied first
    blocks of the rest, found by a scan that stops once their branches add
    up to the node's count, so every child completes.  A node whose one
    tied grouping is its whole rest, the last block the scan would reach,
    takes it without a scan.  The nodes run best first on a heap, keyed by
    their restricted-growth string with every unplaced player given the
    next label, read as a base-n number.  A child only raises the labels
    of the players it leaves, so no key is below its parent's and the
    groupings pop in enumeration order.  Without counts the walk keeps the
    first tie of each node only: the grouping whose blocks have the
    smallest bit patterns, and no key table.
    """
    ties: "dict[tuple[int, int], list[int]]" = {}
    digits = _digits(len(w).bit_length() - 1) if count else None
    heap = [(0, (), s, j)]
    while heap:
        key, blocks, s, j = heappop(heap)
        if not s:
            yield blocks
            continue
        got = (s,) if j == 1 else ties.get((j, s))
        if got is None:
            got = ties[j, s] = []
            need, low, t = count[j][s] if count else 1, s & -s, 0
            rest = s ^ low
            if count and need == 1 and w[s] == best[j][s]:
                got.append(s)
                need = 0
            while need:
                tm = low | t
                if w[tm] + best[j - 1][s ^ tm] == best[j][s]:
                    got.append(tm)
                    need -= count[j - 1][s ^ tm] if count else 1
                t = (t - rest) & rest
        for tm in got:
            heappush(heap, (key + digits[s ^ tm] if digits else 0, blocks + (tm,), s ^ tm, j - 1))


@lru_cache(maxsize=None)
def _digits(n: int) -> "list[int]":
    """Each mask's players as base-n digits, player 1 the leading one:
    ``digits[m]`` is the sum of n**(n-1-p) over the players p in ``m``.
    One table per n, kept: the counted walks read it on every call."""
    digits = [0]
    for p in range(n):
        d = n ** (n - 1 - p)
        digits += [x + d for x in digits]
    return digits


def _best_grouping(
    v: "list[Value]", mask: int, split: "list[Value] | None" = None
) -> "tuple[Value, tuple[int, ...]]":
    """The best value of a grouping of ``mask``'s players, and its blocks.

    The tables index ``mask``'s own submasks: O(2**|mask|) memory.  With
    the game's split table each submask's best grouping is read off it;
    without, a DP finds them in O(3**|mask|) time.  Unbounded, a set of j
    players has the same table under every budget from j up, so one table
    serves the whole walk.
    """
    expand = _submasks(mask)
    w, scale = [v[m] for m in expand], None
    if split is None:
        w, scale = _int_table(w)
        best, _ = _dp(w)
    else:
        best = [max(v[m], split[m]) for m in expand]
    top = len(w) - 1
    b = top.bit_length()
    parts = next(_tie_walk(w, [best] * (b + 1), None, b, top))
    return _unscale(best[top], scale), tuple(expand[t] for t in parts)


def _pass(g: Game, k: int, counting: bool = False):
    """The game's cache entry for block budget ``k``, filled by one DP
    pass if it is missing, or if ``counting`` asks for tables it lacks.

    ``g._dp`` maps a budget to ``(OptResult, tables)``.  ``tables`` is
    the table the DP ran on (as :func:`_int_table` gives it) and its
    ``best`` and ``count`` tables stacked by budget, as :func:`_tie_walk`
    reads them, after a counting pass; ``None`` after a plain one, which
    keeps only the result.

    At ``k = n`` the budget binds nothing: the pass is the unbounded one,
    its tables serve every budget of the stack, and it leaves the split
    table on the game's scale once it is whole.  Below ``n`` the pass is
    layered.  Budget 1 is the value table itself and budget k covers the
    full mask only.  Budgets 2 .. k-1 cover the full mask and the masks
    without player 1, whose lowest bit is 1 or higher: a budget-j
    grouping of the full mask leaves, after player 1's block, a set
    without player 1, and so does every read below it.  About
    (k-2)·3**(n-1)/2 + k·2**(n-1) steps.  It caches the result of every
    budget up to ``k`` not yet cached; only budget ``k`` keeps tables.

    Racing writers store equal results, and a plain result never
    replaces an entry that holds tables, so the cache needs no lock.
    """
    entry = g._dp.get(k)
    if entry is not None and (entry[1] is not None or not counting):
        return entry
    w, scale = _int_table(g.dense_table())
    full, n = g.full_mask, g.n
    if k == n:
        split: "list[Value]" = [0] * len(w)
        best, count = _dp(w, counting=counting, split=split)
        g._split = split if scale is None else [_unscale(x, scale) for x in split]
        best, count, budgets = [best] * (n + 1), [count] * (n + 1), (n,)
    else:
        best, count = [None, w], [None, [1] * (full + 1) if counting else None]
        for j in range(2, k + 1):
            layer = _dp(w, best[-1], count[-1], counting, n if j == k else 1)
            best.append(layer[0])
            count.append(layer[1])
        budgets = range(1, k + 1)
    for j in budgets:
        if j not in g._dp:
            witness = next(_tie_walk(w, best, None, j, full))
            res = OptResult(_unscale(best[j][full], scale), _from_masks(Partition, witness))
            g._dp.setdefault(j, (res, None))
    if counting:
        g._dp[k] = (g._dp[k][0], (w, best, count))
    return g._dp[k]


def optimal_partition(g: Game) -> OptResult:
    """Maximum social welfare over all partitions, with a witness.

    Deterministic: ties at every table cell break toward the candidate
    block with the smallest bit pattern.  The result is cached on the game,
    and so is the DP's split table, which the stability scans read.
    """
    _check_cap(g.n, SOLVER_CAP, "solver")
    return _pass(g, g.n)[0]


def optimal_partition_bounded(g: Game, k: int) -> OptResult:
    """Maximum welfare over partitions with at most ``k`` blocks.

    Same recurrence as :func:`optimal_partition`, layered by block budget
    and run only on the sets the top budget reads: about
    (k-2)·3**(n-1)/2 + k·2**(n-1) steps.  Monotone in ``k``.  At ``k = n``
    the budget binds nothing, so the call is :func:`optimal_partition`,
    with its cap and its cache.  Below, results for every budget up to
    ``k`` are cached on the game.
    """
    _check_budget(g, k)
    return _pass(g, k)[0]


def _check_budget(g: Game, k: int) -> None:
    """Refuse a block budget as :func:`optimal_partition_bounded` does
    before any DP: its type, its range, then the cap of the solver that
    answers it (the unbounded one at ``k = n``)."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError("block budget k must be an int")
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"block budget k must be in 1..{n}, got {k}")
    if k == n:
        _check_cap(n, SOLVER_CAP, "solver")
    else:
        _check_cap(n, BOUNDED_SOLVER_CAP, "bounded solver")


def _ties(g: Game, k: int):
    """How many partitions of at most ``k`` blocks reach the k-block
    optimum, and a fresh lazy walk over them as block tuples.

    The counting pass's tables are cached per budget (see :func:`_pass`).
    A walk can reach Bell(n) groupings, so this refuses past the
    partition enumeration cap before reading the table.
    """
    _check_cap(g.n, PARTITION_ENUM_CAP, "partition enumeration")
    w, best, count = _pass(g, k, True)[1]
    return count[k][g.full_mask], _tie_walk(w, best, count, k, g.full_mask)


def _capped_ties(g: Game, k: int):
    """The walk :func:`_ties` gives, refused past ``_LISTING_CAP``
    groupings before it starts."""
    count, walk = _ties(g, k)
    if count > _LISTING_CAP:
        raise CapExceededError(
            f"{count} maximizers exceed Bell({MAXIMIZER_CAP}) = {_LISTING_CAP},"
            f" the maximizer enumeration cap of {MAXIMIZER_CAP}"
        )
    return walk


def all_maximizers(g: Game) -> "list[Partition]":
    """Every partition achieving the optimum, in enumeration order.

    A counting DP pass plus a walk over the tied choices: O(3**n) plus the
    size of the output, which can reach Bell(n).  The partition
    enumeration cap applies, and the list holds at most
    Bell(``MAXIMIZER_CAP``) partitions.  The DP's tables are cached on the
    game, so a repeated call walks them again and runs no DP.
    """
    coalitions = _Coalitions()
    return [_from_masks(Partition, q, coalitions) for q in _capped_ties(g, g.n)]
