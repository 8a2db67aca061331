"""Exact welfare maximization over partitions, by one subset DP.

The best grouping of a player set S considers every block containing S's
least player, so each partition is represented exactly once and a pass
over every set costs O(3**n) (Yeh, BIT 1986).  Stacked by block budget the
pass gives the bounded optimum; with tie counts, a walk over the tied
choices lists every optimal partition at a cost that grows with the list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Game, Partition, Value, _check_cap, _Coalitions, _from_masks, _submasks

SOLVER_CAP = 18
BOUNDED_SOLVER_CAP = 16
MAXIMIZER_CAP = 10
_NO_SPLIT = float("-inf")


@dataclass(frozen=True)
class OptResult:
    """Best achievable welfare and one witness partition."""

    optimum: Value
    witness: Partition


def _dp(w, below=None, below_count=None, counting=False, cells=None, split=None):
    """One pass of the recurrence over the 2**b values ``w``.

    ``best[s]`` is the larger of ``w[s]`` and the best split of ``s``: the
    largest ``w[t] + rest[s ^ t]`` over proper blocks ``t`` of ``s``
    holding its least element, where ``rest`` is ``below`` (one block
    fewer) or, unbounded, ``best`` itself.  On a tie ``w[s]`` wins, and
    among splits the first block reached.  With ``counting``, ``count[s]``
    is how many groupings reach ``best[s]``.  ``cells`` limits the masks;
    a ``split`` list receives each best split (``-inf`` for one player).
    """
    size = len(w)
    best: "list[Value]" = [0] * size
    count = [1] * size if counting else None
    rest_best = best if below is None else below
    rest_count = count if below_count is None else below_count
    for s in range(1, size) if cells is None else cells:
        low = s & -s
        rest = s ^ low
        b = w[s]
        sp = _NO_SPLIT
        t = rest
        if count is None:
            while t:
                t = (t - 1) & rest
                tm = low | t
                cand = w[tm] + rest_best[s ^ tm]
                if cand > sp:
                    sp = cand
        else:
            c = 0
            while t:
                t = (t - 1) & rest
                tm = low | t
                r = s ^ tm
                cand = w[tm] + rest_best[r]
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


def _tie_walk(w, best, count, j: int, s: int):
    """Every grouping of ``s`` into at most ``j`` blocks that reaches
    ``best[j][s]``, as block tuples, least member first.

    ``best`` and ``count`` are stacks of tables indexed by block budget.
    The walk tries smaller blocks first; every tied branch completes, and
    a node's scan stops once its branches add up to its count.  Without
    counts it takes the first tie only: the grouping whose blocks have the
    smallest bit patterns.
    """
    ties: "dict[tuple[int, int], list[int]]" = {}

    def walk(s: int, j: int):
        if j == 1 or not s:
            yield (s,) if s else ()
            return
        got = ties.get((j, s))
        if got is None:
            got = ties[j, s] = []
            need, low, t = count[j][s] if count else 1, s & -s, 0
            rest = s ^ low
            while need:
                tm = low | t
                if w[tm] + best[j - 1][s ^ tm] == best[j][s]:
                    got.append(tm)
                    need -= count[j - 1][s ^ tm] if count else 1
                t = (t - rest) & rest
        for tm in got:
            for tail in walk(s ^ tm, j - 1):
                yield (tm,) + tail

    return walk(s, j)


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
    w = [v[m] for m in expand]
    if split is None:
        best, _ = _dp(w)
    else:
        best = [max(v[m], split[m]) for m in expand]
    top = len(w) - 1
    b = top.bit_length()
    return best[top], tuple(expand[t] for t in next(_tie_walk(w, [best] * (b + 1), None, b, top)))


def _rgs(blocks: "tuple[int, ...]", n: int) -> "list[int]":
    """Each player's block index, blocks least member first: the
    restricted-growth string whose order enumeration follows."""
    key = [0] * n
    for j, m in enumerate(blocks):
        while m:
            low = m & -m
            key[low.bit_length() - 1] = j
            m ^= low
    return key


def _in_rgs_order(groupings, n: int) -> "list[Partition]":
    coalitions = _Coalitions()
    return [_from_masks(Partition, q, coalitions) for q in sorted(groupings, key=lambda q: _rgs(q, n))]


def optimal_partition(g: Game) -> OptResult:
    """Maximum social welfare over all partitions, with a witness.

    Deterministic: ties at every table cell break toward the candidate
    block with the smallest bit pattern.  The result is cached on the game,
    and so is the DP's split table, which the stability scans read.
    """
    cached = g._opt
    if cached is not None:
        return cached
    n = g.n
    _check_cap(n, SOLVER_CAP, "solver")
    v = g.dense_table()
    split: "list[Value]" = [0] * len(v)
    best, _ = _dp(v, split=split)
    g._split = split
    witness = next(_tie_walk(v, [best] * (n + 1), None, n, g.full_mask))
    result = OptResult(best[-1], _from_masks(Partition, witness))
    g._opt = result
    return result


def optimal_partition_bounded(g: Game, k: int) -> OptResult:
    """Maximum welfare over partitions with at most ``k`` blocks.

    Same recurrence as :func:`optimal_partition`, layered by block budget
    and run only on the sets the top budget reads: about
    (k-2)·3**(n-1)/2 + k·2**(n-1) steps.  Monotone in ``k`` and equal to
    the unbounded optimum at ``k = n``.  Results for every budget up to
    ``k`` are cached on the game.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError("block budget k must be an int")
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"block budget k must be in 1..{n}, got {k}")
    cached = g._bounded.get(k)
    if cached is not None:
        return cached  # type: ignore[return-value]
    _check_cap(n, BOUNDED_SOLVER_CAP, "bounded solver")
    _bounded(g, k)
    return g._bounded[k]  # type: ignore[return-value]


def _bounded(g: Game, k: int, counting: bool = False):
    """The layered DP for an already validated budget ``k``.

    Budget 1 is the value table itself and budget k covers the full mask
    only.  Budgets 2 .. k-1 cover the full mask and the masks without
    player 1: a budget-j grouping of the full mask leaves, after player
    1's block, a set without player 1, and so does every read below it.
    About (k-2)·3**(n-1)/2 + k·2**(n-1) steps.  Caches the optimum of
    every budget up to ``k``; with ``counting``, returns how many
    partitions reach the k-block optimum and a lazy walk over them.
    """
    v = g.dense_table()
    full = g.full_mask
    best, count = [None, v], [None, [1] * (full + 1) if counting else None]
    for j in range(2, k + 1):
        cells = [full] if j == k else [*range(2, full, 2), full]
        layer = _dp(v, best[-1], count[-1], counting, cells)
        best.append(layer[0])
        count.append(layer[1])
    for j in range(1, k + 1):
        if j not in g._bounded:
            witness = next(_tie_walk(v, best, None, j, full))
            g._bounded[j] = OptResult(best[j][full], _from_masks(Partition, witness))
    if counting:
        return count[k][full], _tie_walk(v, best, count, k, full)


def all_maximizers(g: Game) -> "list[Partition]":
    """Every partition achieving the optimum, in enumeration order.

    A counting DP pass plus a walk over the tied choices: O(3**n) plus the
    size of the output, which can reach Bell(n), hence the tighter cap.
    The result is cached on the game; callers get a fresh list each time.
    """
    if g._maximizers is None:
        n = g.n
        _check_cap(n, MAXIMIZER_CAP, "maximizer enumeration")
        v = g.dense_table()
        split: "list[Value]" = [0] * len(v)
        best, count = _dp(v, counting=True, split=split)
        g._split = split
        walk = _tie_walk(v, [best] * (n + 1), [count] * (n + 1), n, g.full_mask)
        g._maximizers = tuple(_in_rgs_order(walk, n))
    return list(g._maximizers)
