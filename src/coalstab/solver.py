"""Exact welfare maximization over partitions, by one subset DP.

The best grouping of a player set S considers every block containing S's
least player, so each partition is represented exactly once and a pass
over every set costs O(3**n) (Yeh, BIT 1986).  Stacked by block budget the
pass gives the bounded optimum; with its tie counts, a walk over the
tied choices lists every optimal partition at a cost that grows with the
list.

The pass visits the sets by lowest bit, highest first, and reads
together the candidates that differ only in where the two highest
players go: one submask of the other members gives up to four int adds
and compares.  A table that holds Fractions runs scaled
to ints by the lcm of its denominators, while that lcm has at most
``_SCALE_BITS`` bits; the walk reads the same scaled table, and every
reported value is summed from the game's own table over the blocks
that reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from math import lcm

from .model import (
    PARTITION_ENUM_CAP, CapExceededError, Game, Partition, Value,
    _check_cap, _Coalitions, _from_masks, _submasks, _welfare,
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


def _dp(w, below=None, below_count=None, lowest=0):
    """One pass of the recurrence over the 2**b values ``w``.

    ``best[s]`` is the larger of ``w[s]`` and the best split of ``s``: the
    largest ``w[t] + rest[s ^ t]`` over proper blocks ``t`` of ``s``
    holding its least element, where ``rest`` is ``below`` (one block
    fewer) or, unbounded, ``best`` itself; ``count[s]`` is how many
    groupings reach ``best[s]``, where ``below_count`` counts the rest's.
    Unbounded, the tables answer whether a split of ``s`` beats ``s``
    whole (``w[s] < best[s]``) or ties or beats it (that, or
    ``count[s] > 1``: a whole that ties its best split is counted with
    it).  The pass keeps values and counts, not the blocks that reach them:
    :func:`_tie_walk` finds the witnesses.  :func:`_pass` runs it on a
    game's table and caches what it gives.

    Sets run by lowest bit, from the highest down: every set ``s ^ t``
    read has a higher lowest bit than ``s``.  Within one lowest bit
    ``low``, ``w[low:]`` is indexed by the block's other members.  Where
    a set can hold five players above ``low``, the pass reads the two
    highest players' candidates together: a set holding ``h`` of them and
    other members ``r`` enumerates the submasks ``u`` of ``r`` once, and
    each ``u`` gives the 1, 2 or 4 candidates that leave it and a part of
    ``h`` to the rest, read from copies of ``w[low:]``, ``rest`` and its
    counts shifted by that part.  A candidate that reaches the best split
    so far adds its rest's count, one that passes it starts the count
    again.  The rests run from the largest down: where best values tend
    to grow with the set, as on tables with no negative value, the best
    split comes early and few candidates pass it.  Sets whose lowest bit
    is below ``lowest`` are skipped, except the full set.  About 3**b/2
    candidates.
    """
    size = len(w)
    best: "list[Value]" = [0] * size
    count = [1] * size
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
        top = mid | hi if low < size >> 5 else 0
        if top:
            # Shifted copies: wm[t] is wl[mid | t], bm[u] is rest_best[mid | u],
            # cm[u] is rest_count[mid | u].
            wm, wh, wt = wl[mid:], wl[hi:], wl[top:]
            bm, bh, bt = rest_best[mid:], rest_best[hi:], rest_best[top:]
            cm, ch, ct = rest_count[mid:], rest_count[hi:], rest_count[top:]
        for rest in rests:
            h = rest & top
            r = u = rest ^ h
            if not h:
                sp, c = _NO_SPLIT, 0
                while u:
                    cand = wl[r ^ u] + rest_best[u]
                    if cand >= sp:
                        c = c + rest_count[u] if cand == sp else rest_count[u]
                        sp = cand
                    u = (u - 1) & r
            elif h != top:
                wa, ba, ca = (wm, bm, cm) if h == mid else (wh, bh, ch)
                sp, c = wl[r] + ba[0], ca[0]  # t = r: every block but the whole set
                while u:
                    t = r ^ u
                    cand = wl[t] + ba[u]
                    if cand >= sp:
                        c = c + ca[u] if cand == sp else ca[u]
                        sp = cand
                    cand = wa[t] + rest_best[u]
                    if cand >= sp:
                        c = c + rest_count[u] if cand == sp else rest_count[u]
                        sp = cand
                    u = (u - 1) & r
            else:
                sp = max(x := wl[r] + bt[0], y := wm[r] + bh[0], z := wh[r] + bm[0])  # t = r, likewise
                c = (x == sp) * ct[0] + (y == sp) * ch[0] + (z == sp) * cm[0]
                while u:
                    t = r ^ u
                    cand = wl[t] + bt[u]
                    if cand >= sp:
                        c = c + ct[u] if cand == sp else ct[u]
                        sp = cand
                    cand = wm[t] + bh[u]
                    if cand >= sp:
                        c = c + ch[u] if cand == sp else ch[u]
                        sp = cand
                    cand = wh[t] + bm[u]
                    if cand >= sp:
                        c = c + cm[u] if cand == sp else cm[u]
                        sp = cand
                    cand = wt[t] + rest_best[u]
                    if cand >= sp:
                        c = c + rest_count[u] if cand == sp else rest_count[u]
                        sp = cand
                    u = (u - 1) & r
            s, b = low | rest, wl[rest]
            best[s] = b if b >= sp else sp
            count[s] = 1 if b > sp else c + (b == sp)
    return best, count


def _int_table(v):
    """``v`` as the DP runs it.

    An int table runs as it is.  A table holding a Fraction runs
    multiplied by the lcm ``L`` of its denominators, as ints: sums,
    comparisons and ties are the same, and an int add costs about a
    fifteenth of a Fraction one.  Past ``_SCALE_BITS`` bits of ``L`` the
    big-int adds cost more than they save, so the table runs on its
    Fractions.  Values on the game's scale are summed from ``v`` itself
    over the blocks the DP picks.
    """
    if set(map(type, v)) <= {int}:
        return v
    scale = 1
    for d in {x.denominator for x in v}:
        scale = lcm(scale, d)
        if scale.bit_length() > _SCALE_BITS:
            return v
    return [x.numerator * (scale // x.denominator) for x in v]


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


def _cut_walk(w, best, s: int):
    """Every grouping of ``s`` into two or more blocks worth more than
    ``s`` whole on ``w``, as block tuples, least member first, in
    enumeration order.

    ``best`` is the unbounded pass's table over ``w``.  A node places
    blocks by least member and keeps a block ``t`` of its rest ``r`` only
    while ``acc + w[t] + best[r ^ t]`` is positive, ``acc`` being what
    its blocks are worth less ``w[s]``: the bound is exact, so every
    node kept completes and the cost grows with the output.  Each node
    carries its key as in :func:`_tie_walk`, over the players of ``s``
    alone: ``digits`` maps each submask of ``s`` to :func:`_digits` of
    its positions in ``s``.  Up to the first grouping the nodes run best
    first on a heap, so a caller that reads one pays for little more: the
    grouping that ends with a node's whole rest has the node's own key,
    below every other on the heap.  The nodes left then run depth first,
    a block that leaves one player completing its grouping at once, and
    one sort by key puts the rest in order, at about three fifths of the
    heap's cost per grouping where most cuts gain.
    """
    digits = dict(zip(_submasks(s), _digits(s.bit_count())))
    nodes, found, heap = [(0, -w[s], (), s)], {}, True
    while nodes:
        key, acc, blocks, r = heappop(nodes) if heap else nodes.pop()
        if acc + w[r] > 0:
            found[key] = blocks + (r,)
        rest = u = r ^ (r & -r)
        while u:
            t = r ^ u
            total = acc + w[t]
            if total + best[u] > 0:
                if heap or u & (u - 1):
                    (heappush if heap else list.append)(nodes, (key + digits[u], total, blocks + (t,), u))
                else:
                    found[key + digits[u]] = blocks + (t, u)
            u = (u - 1) & rest
        if heap and found:
            yield found.pop(key)
            heap = False
    for key in sorted(found):
        yield found[key]


@lru_cache(maxsize=None)
def _digits(n: int) -> "list[int]":
    """Each mask's players as base-n digits, player 1 the leading one:
    ``digits[m]`` is the sum of n**(n-1-p) over the players p in ``m``.
    One table per n, kept: the counted walks read it on every call, and
    the cut walk at its block's size, within the split-scan cap."""
    digits = [0]
    for p in range(n):
        d = n ** (n - 1 - p)
        digits += [x + d for x in digits]
    return digits


def _pass(g: Game, k: int):
    """The game's cache entry for block budget ``k``, filled by one DP
    pass if it is missing.

    ``g._dp`` maps a budget to ``(OptResult, tables)``.  ``tables`` is
    the table the DP ran on (as :func:`_int_table` gives it) and its
    ``best`` and ``count`` tables stacked by budget, as :func:`_tie_walk`
    reads them.

    At ``k = n`` the budget binds nothing: the pass is the unbounded one,
    and its tables serve every budget of the stack and every split test
    of the stability scans (see :func:`_dp`).  Below ``n`` the pass is
    layered.  Budget 1 is the value table itself and budget k covers the
    full mask only.  Budgets 2 .. k-1 cover the full mask and the masks
    without player 1, whose lowest bit is 1 or higher: a budget-j
    grouping of the full mask leaves, after player 1's block, a set
    without player 1, and so does every read below it.  About
    (k-2)·3**(n-1)/2 + k·2**(n-1) steps.  The stack serves every budget
    up to ``k``, so the pass caches each one not yet cached, tables
    included; and it starts from the stack of the largest budget ``m``
    cached up to ``k``, whose layers below ``m`` cover those sets, so
    only the layers from ``m`` up run.  Each optimum is the sum of the
    game's values over its witness's blocks.

    Each budget's entry is written once, with ``setdefault``: a racing
    pass computes an equal entry and drops it, so the cache needs no
    lock.
    """
    entry = g._dp.get(k)
    if entry is not None:
        return entry
    v = g.dense_table()
    w = _int_table(v)
    full, n = g.full_mask, g.n
    if k == n:
        best, count = _dp(w)
        best, count = [best] * (n + 1), [count] * (n + 1)
    else:
        # The stack of the largest budget cached, or budget 1's: its
        # layers below that budget hold every set a layer reads.
        m = max(j for j in (1, *g._dp) if j <= k)
        _, (_, best, count) = g._dp.get(m, (None, (w, [None, w], [None, [1] * (full + 1)])))
        best, count = best[:max(m, 2)], count[:max(m, 2)]
        for j in range(len(best), k + 1):
            layer = _dp(w, best[-1], count[-1], n if j == k else 1)
            best.append(layer[0])
            count.append(layer[1])
    for j in range(1, k + 1) if k < n else (n,):
        if j not in g._dp:
            witness = next(_tie_walk(w, best, None, j, full))
            res = OptResult(_welfare(v, witness), _from_masks(Partition, witness))
            g._dp.setdefault(j, (res, (w, best, count)))
    return g._dp[k]


def _split_test(w, best, count, strict: bool):
    """Does the best split of a set beat (strict: tie) the set whole?  As
    a function of the set's index in the unbounded pass's tables (see
    :func:`_dp`): a split beats it exactly when ``best`` passes ``w``,
    and ties it exactly when, besides, two or more groupings reach
    ``best``, as the pass counts a whole that ties its best split as one
    more grouping."""
    return lambda u: w[u] < best[u] or (strict and count[u] > 1)


def _cached_split_test(g: Game, strict: bool):
    """:func:`_split_test` on the game's cached unbounded pass, indexed by
    mask, or None when the game holds no such pass: the dc pair scan's
    filter, looked up once per scan."""
    entry = g._dp.get(g.n)
    if entry is not None:
        w, best, count = entry[1]
        return _split_test(w, best[g.n], count[g.n], strict)


def _gaining_splits(g: Game, pmasks: "tuple[int, ...]", strict: bool):
    """Every block of two or more players with a cut into two or more
    parts worth more (strict: at least as much) than the block, as
    ``(index, grouping, cuts)``, blocks in order.  ``grouping`` is a lazy
    walk whose first yield is the block's best grouping, and ``cuts`` a
    lazy walk over its cuts worth more than the block
    (:func:`_cut_walk`), each as block tuples of player masks.  The dhp
    split scan reads the first gaining block's grouping and the dynamics
    split rule each block's cuts; a walk not read does not run.

    Each block passes the split-scan cap before the value table is read
    for it.  Its tables are the unbounded pass's, indexed by mask, when
    the game holds that pass, looked up once per block; a block holding
    every player runs that pass first, as its own DP is the solver's, and
    caches it.  Any other block runs its own DP over its ``2**|pm|``
    submasks, O(3**|pm|), on tables indexed by position that no one
    keeps, and its walks map each position to its players.
    """
    for i, pm in enumerate(pmasks):
        size = pm.bit_count()
        if size > 1:
            _check_cap(size, PARTITION_ENUM_CAP, "split-scan", pm)
            entry = _pass(g, g.n) if pm == g.full_mask else g._dp.get(g.n)
            if entry is None:
                lift = _submasks(pm)
                w = _int_table(list(map(g.dense_table().__getitem__, lift)))
                (best, count), s = _dp(w), len(lift) - 1
            else:
                (w, best, count), lift, s = entry[1], None, pm
                best, count = best[g.n], count[g.n]
            if _split_test(w, best, count, strict)(s):
                yield i, *_lifted(lift, _tie_walk(w, [best] * (size + 1), None, size, s), _cut_walk(w, best, s))


def _lifted(lift, *walks):
    """``walks``, whose groupings are blocks of positions, as walks over
    blocks of the players ``lift`` gives each position; on tables indexed
    by mask (``lift`` None), the walks themselves."""
    return walks if lift is None else tuple((tuple(map(lift.__getitem__, q)) for q in walk) for walk in walks)


def optimal_partition(g: Game) -> OptResult:
    """Maximum social welfare over all partitions, with a witness.

    Deterministic: ties at every table cell break toward the candidate
    block with the smallest bit pattern.  The result is cached on the game
    with the DP's tables, whose split test answers the stability scans
    and the split rule (:func:`_gaining_splits`).
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

    Every cache entry holds its pass's tables (see :func:`_pass`), so
    this runs a DP only when the budget has no entry.  A walk can reach
    Bell(n) groupings, so this refuses past the partition enumeration cap
    before reading the table.
    """
    _check_cap(g.n, PARTITION_ENUM_CAP, "partition enumeration")
    w, best, count = _pass(g, k)[1]
    return count[k][g.full_mask], _tie_walk(w, best, count, k, g.full_mask)


def _check_listing(count: int) -> None:
    """Refuse ``count`` tied groupings past ``_LISTING_CAP``, the most
    a listing holds or a search vets."""
    if count > _LISTING_CAP:
        raise CapExceededError(
            f"{count} maximizers exceed Bell({MAXIMIZER_CAP}) = {_LISTING_CAP},"
            f" the maximizer enumeration cap of {MAXIMIZER_CAP}"
        )


def _capped_ties(g: Game, k: int):
    """The walk :func:`_ties` gives, refused past ``_LISTING_CAP``
    groupings before it starts."""
    count, walk = _ties(g, k)
    _check_listing(count)
    return walk


def all_maximizers(g: Game) -> "list[Partition]":
    """Every partition achieving the optimum, in enumeration order.

    The DP pass plus a walk over the tied choices: O(3**n) plus the size
    of the output, which can reach Bell(n).  The partition enumeration
    cap applies, and the list holds at most Bell(``MAXIMIZER_CAP``)
    partitions.  The DP's tables are cached on the game, so a call after
    :func:`optimal_partition` or another listing runs no DP.
    """
    coalitions = _Coalitions()
    return [_from_masks(Partition, q, coalitions) for q in _capped_ties(g, g.n)]
