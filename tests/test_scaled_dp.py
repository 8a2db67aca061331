"""The solver DP on tables that hold Fractions.

Such a table runs as ints, scaled by the lcm of its denominators, and every
value the solver reports is summed from the game's own table.  These tests hold the
scaled path to plain enumeration and to the definitional oracles, pin the
type of every reported value, and pin the witnesses and maximizer order
the Fraction arithmetic gave before the scaling."""

import hashlib
import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coalstab import (
    BlockSplit,
    Coalition,
    DefectingCollection,
    Game,
    Partition,
    all_maximizers,
    as_value,
    check_dc,
    check_dc_strict,
    check_definitional,
    check_dhp,
    check_dp,
    check_dp_k,
    check_dp_k_strict,
    check_strict_dhp,
    check_strict_dp,
    enumerate_partitions,
    optimal_partition,
    optimal_partition_bounded,
)
from coalstab.model import _iter_partition_masks
from coalstab.solver import _cached_split_test, _pass
from conftest import best_grouping, witness_violates

# Denominator 1 keeps ints in the tables; 7..23 are pairwise coprime, so
# their lcm grows with every new one.
KINDS = {
    "fraction": st.builds(Fraction, st.integers(-3, 6), st.sampled_from((2, 3, 4, 6))),
    "mixed": st.sampled_from((-1, 0, 1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(-2, 3))),
    "coprime": st.builds(Fraction, st.integers(-3, 6), st.sampled_from((1, 7, 11, 13, 17, 19, 23))),
}


def cover(v):
    """Each mask's best grouping, by plain recursion: a table whose splits
    tie their unions, so the checks see stable partitions and ties."""
    out = list(v)
    for s in range(1, len(v)):
        low = s & -s
        t = s ^ low
        while t:
            t = (t - 1) & (s ^ low)
            out[s] = max(out[s], out[low | t] + out[s ^ low ^ t])
    return out


@st.composite
def tables(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    v = [0] + [as_value(draw(entries)) for _ in range((1 << n) - 1)]
    if draw(st.booleans()):
        v = cover(v)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: "dict[int, int]" = {}
    for player, lab in enumerate(labels):
        blocks[lab] = blocks.get(lab, 0) | 1 << player
    return n, v, Partition(tuple(Coalition(m) for m in blocks.values()))


def welfare(v, q):
    return sum(v[m] for m in q)


def assert_exact(x):
    """``x`` follows ``as_value``'s contract: an int when integral, else a
    Fraction in lowest terms."""
    assert type(x) is (Fraction if isinstance(x, Fraction) and x.denominator > 1 else int), repr(x)


@settings(max_examples=60)
@given(tables())
def test_solvers_agree_with_enumeration(case):
    n, v, _ = case
    groupings = [q.masks for q in enumerate_partitions(n)]
    g = Game(n, table=list(v))
    res = optimal_partition(g)
    best = max(welfare(v, q) for q in groupings)
    tied = [q for q in groupings if welfare(v, q) == best]
    assert res.optimum == best
    assert res.witness.masks == min(tied)
    assert [q.masks for q in all_maximizers(Game(n, table=list(v)))] == tied
    for k in range(1, n + 1):
        fits = [q for q in groupings if len(q) <= k]
        top = max(welfare(v, q) for q in fits)
        got = optimal_partition_bounded(Game(n, table=list(v)), k)
        assert got.optimum == top
        assert got.witness.masks == min(q for q in fits if welfare(v, q) == top)
    # The cached tables give each mask's best grouping on the game's scale
    # and whether a split beats (strict: ties) the mask whole.
    split_test = {strict: _cached_split_test(g, strict) for strict in (False, True)}
    for s in range(1, 1 << n):
        split = max((welfare(v, q) for q in _iter_partition_masks(s) if len(q) > 1), default=None)
        assert best_grouping(g, s)[0] == (v[s] if split is None else max(v[s], split))
        for strict in (False, True):
            gains = split is not None and (split > v[s] or (strict and split == v[s]))
            assert split_test[strict](s) == gains


@settings(max_examples=40)
@given(tables(max_n=7))
def test_checks_agree_with_the_oracles(case):
    n, v, p = case
    checks = [
        (check_dc, "dc", False),
        (check_dc_strict, "dc", True),
        (check_dhp, "dhp", False),
        (check_strict_dhp, "dhp", True),
        (check_dp, "dp", False),
        (check_strict_dp, "dp", True),
    ]
    for solve in (None, optimal_partition):
        g = Game(n, table=list(v))
        if solve is not None:
            solve(g)
        for q in (p, Partition.grand(n)):
            for f, family, strict in checks:
                got = f(g, q)
                assert got.stable == check_definitional(g, q, family, strict=strict).stable
                if not got.stable:
                    assert witness_violates(g, q, got.witness, strict=strict)
            for k in range(len(q.blocks), n + 1):
                for strict, f in ((False, check_dp_k), (True, check_dp_k_strict)):
                    got = f(g, q, k)
                    assert got.stable == check_definitional(g, q, f"dpk:{k}", strict=strict).stable
                    if not got.stable:
                        assert witness_violates(g, q, got.witness, strict=strict)


def _spy_dp(check):
    """Replace the solver's ``_dp`` by one that runs ``check(w, below)``
    first; returns the calls seen and a function that restores it."""
    import coalstab.solver as solver

    dp, calls = solver._dp, []

    def spy(w, below=None, *args, **kwargs):
        check(w, below)
        calls.append(w)
        return dp(w, below, *args, **kwargs)

    solver._dp = spy
    return calls, lambda: setattr(solver, "_dp", dp)


def _all_ints(w, below):
    assert all(type(x) is int for x in w)
    assert below is None or all(type(x) is int for x in below)


@settings(max_examples=30)
@given(tables(max_n=7))
def test_the_dp_is_never_handed_a_fraction(case):
    n, v, p = case
    assume(any(isinstance(x, Fraction) for x in v))
    calls, restore = _spy_dp(_all_ints)
    try:
        optimal_partition(Game(n, table=list(v)))
        all_maximizers(Game(n, table=list(v)))
        for k in range(2, n + 1):
            check_dp_k_strict(Game(n, table=list(v)), Partition.grand(n), k)
        # A block's own DP, on a game that has no split table yet.
        check_dhp(Game(n, table=list(v)), p)
    finally:
        restore()
    assert calls


def test_a_huge_lcm_runs_on_the_fractions():
    # Sylvester's numbers are pairwise coprime and double in bits: the lcm
    # of fifteen of them passes the 8192 bits up to which the DP scales.
    dens = [2]
    while len(dens) < 15:
        dens.append(dens[-1] * (dens[-1] - 1) + 1)
    rng = random.Random(2)
    v = [0] + [as_value(Fraction(rng.randint(-5, 9), d)) for d in dens]
    handed = []
    calls, restore = _spy_dp(lambda w, below: handed.extend(w))
    try:
        g = Game(4, table=list(v))
        res = optimal_partition(g)
    finally:
        restore()
    assert calls and any(isinstance(x, Fraction) for x in handed)
    groupings = [q.masks for q in enumerate_partitions(4)]
    best = max(welfare(v, q) for q in groupings)
    assert res.optimum == best
    assert res.witness.masks == min(q for q in groupings if welfare(v, q) == best)
    for x in [res.optimum] + [best_grouping(g, s)[0] for s in range(1, 16)]:
        assert_exact(x)


def test_value_types_on_a_mixed_table():
    # Reported values follow as_value: an int when integral, however many
    # Fractions were added up, else a Fraction in lowest terms.  repr pins
    # the types: 1/2 + 3/2 reads 2, not Fraction(2, 1).
    h = Fraction(1, 2)
    v = [0, h, h, Fraction(1, 3), Fraction(2, 3), Fraction(1, 6), Fraction(3, 2), 1]
    g = Game(3, table=list(v))
    assert repr(optimal_partition(g)) == "OptResult(optimum=2, witness={1} {2,3})"
    assert repr([best_grouping(g, s)[0] for s in range(1, 8)]) == (
        "[Fraction(1, 2), Fraction(1, 2), 1, Fraction(2, 3), Fraction(7, 6), Fraction(3, 2), 2]"
    )
    for strict in (False, True):
        assert [_cached_split_test(g, strict)(s) for s in (3, 5, 6, 7)] == [True, True, False, True]
    bounded = [optimal_partition_bounded(Game(3, table=list(v)), k).optimum for k in (1, 2, 3)]
    assert repr(bounded) == "[1, 2, 2]"
    assert all_maximizers(g) == [Partition.parse("{1} {2,3}")]
    pair = Partition.parse("{1,2} {3}")
    witnesses = [
        check_dp(g, pair),
        check_strict_dp(g, Partition.grand(3)),
        check_dhp(Game(3, table=list(v)), pair),
        check_dc(g, pair),
    ]
    assert [repr(w.witness) for w in witnesses] == [
        "DefectingCollection(collection={1} {2,3}, framed_welfare=1, welfare=2)",
        "DefectingCollection(collection={1} {2,3}, framed_welfare=1, welfare=2)",
        "BlockSplit(block_index=0, parts={1} {2}, whole_value=Fraction(1, 3), parts_value=1)",
        "IntraBlockPair(block_index=0, a={1}, b={2}, separate=1, combined=Fraction(1, 3))",
    ]


def test_an_int_table_runs_as_it_is():
    # No scaled copy: the DP reads the game's own table and reports ints.
    rng = random.Random(4)
    v = [0] + [rng.randint(-5, 9) for _ in range(63)]
    g = Game(6, table=v)
    calls, restore = _spy_dp(_all_ints)
    try:
        assert type(optimal_partition(g).optimum) is int
        optimal_partition_bounded(g, 3)
        all_maximizers(g)
    finally:
        restore()
    # One unbounded pass, which the listing reuses, and two layers.
    assert len(calls) == 3 and all(w is v for w in calls)
    w, best, _ = _pass(g, g.n)[1]
    assert w is v and all(type(x) is int for x in best[g.n])


def test_a_witness_value_does_not_depend_on_the_cache():
    # The block {1,2} ties its split {1} {2}: on a fresh game its own DP
    # finds the split, on a solved one the cached tables do, and both
    # report the parts' sum as as_value gives it.  The game reads its
    # table through as_value, so the block's own Fraction(2) reads 2 too.
    one, two = Fraction(1), Fraction(2)
    v = [0, one, one, two, one, two, two, Fraction(3)]
    pair = Partition.parse("{1,2} {3}")
    fresh = check_strict_dhp(Game(3, table=list(v)), pair)
    solved = Game(3, table=list(v))
    optimal_partition(solved)
    for got in (fresh, check_strict_dhp(solved, pair)):
        assert repr(got.witness) == (
            "BlockSplit(block_index=0, parts={1} {2}, whole_value=2, parts_value=2)"
        )


def digest() -> str:
    """sha256 over the witness masks and maximizer mask lists of seeded
    Fraction, mixed and coprime-denominator tables, n = 1..8."""
    h = hashlib.sha256()
    rng = random.Random("scaled-dp-digest")
    for case in range(48):
        n = 1 + case % 8
        dens = ((2, 3, 4, 6), (1, 1, 1, 2, 3), (1, 7, 11, 13, 17, 19, 23))[case % 3]
        v = [0] + [as_value(Fraction(rng.randint(-2, 3), rng.choice(dens))) for _ in range((1 << n) - 1)]
        if case % 2:
            v = cover(v)
        out = [optimal_partition(Game(n, table=list(v))).witness.masks]
        out += [optimal_partition_bounded(Game(n, table=list(v)), k).witness.masks for k in range(1, n + 1)]
        out.append([q.masks for q in all_maximizers(Game(n, table=list(v)))])
        for k in range(1, n + 1):
            w = check_dp_k_strict(Game(n, table=list(v)), Partition.grand(n), k).witness
            out.append(None if w is None else w.collection.masks)
        # Every player but the last in one block: on a fresh game the dhp
        # scan runs that block's own DP.
        last = 1 << (n - 1)
        head = Partition(tuple(Coalition(m) for m in (last - 1, last) if m))
        for warm in (False, True):
            g = Game(n, table=list(v))
            if warm:
                optimal_partition(g)
            w = check_strict_dhp(g, head).witness
            out.append(w.parts.masks if isinstance(w, BlockSplit) else None)
        h.update(repr(out).encode())
    return h.hexdigest()


def test_witnesses_and_maximizer_order_match_the_fraction_dp():
    assert digest() == DIGEST


# Captured with the DP that added Fractions directly.
DIGEST = "5128f85bfe763d237098eda45ea17cd5e79e7fd6872b3f88d43f1cfca7f0d324"


if __name__ == "__main__":  # pragma: no cover - prints DIGEST for a tree
    print(digest())
