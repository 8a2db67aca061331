"""The split test the scans read off the solver's cached tables.

``optimal_partition`` and ``all_maximizers`` cache on the game the
unbounded DP pass's tables, which tell for every mask of two or more
players whether some grouping into two or more parts beats (strict: ties)
the mask whole.  The dc pair scan, the dhp split scan and the dynamics
split rule read it when it is there, and a dhp scan or a split rule on
the grand block caches it; these tests hold them to the answers they give
without it, to plain enumeration and to the definitional oracles."""

import inspect
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalstab import (
    ALL_RULES,
    BEST_GAIN,
    DEFAULT_RULES,
    PARTITION_ENUM_CAP,
    BlockSplit,
    CapExceededError,
    Coalition,
    Game,
    GameClass,
    GeneratorSpec,
    Partition,
    all_maximizers,
    applicable_rules,
    as_value,
    check_dc,
    check_dc_strict,
    check_definitional,
    check_dhp,
    check_strict_dhp,
    closure_outcomes,
    corollary_shortcuts,
    enumerate_partitions,
    find_dc_stable,
    is_closed,
    is_superadditive,
    iterate,
    optimal_partition,
    optimal_partition_bounded,
    random_game,
)
import coalstab.dynamics
import coalstab.solver
import coalstab.stability
from coalstab.model import _iter_partition_masks
from coalstab.dynamics import _gaining_cuts
from coalstab.solver import _SCALE_BITS, _cached_split_test, _gaining_splits, _int_table
from conftest import best_grouping, count_dp_calls, witness_violates

CHECKS = (
    (check_dc, "dc", False),
    (check_dc_strict, "dc", True),
    (check_dhp, "dhp", False),
    (check_strict_dhp, "dhp", True),
)


def cover(v):
    """The superadditive cover: each mask's best grouping, by plain
    recursion over the blocks holding its least player."""
    out = list(v)
    for s in range(1, len(v)):
        low = s & -s
        t = s ^ low
        while t:
            t = (t - 1) & (s ^ low)
            out[s] = max(out[s], out[low | t] + out[s ^ low ^ t])
    return out


values = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.fractions(min_value=-2, max_value=3, max_denominator=3),
)


@st.composite
def tables(draw, max_n=8):
    """A table of n = 1..max_n players: raw small values (many ties), their
    superadditive cover (splits that tie their union), or the cover plus
    |S|² (strictly superadditive)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    v = [0] + [as_value(x) for x in draw(st.lists(values, min_size=(1 << n) - 1, max_size=(1 << n) - 1))]
    shape = draw(st.sampled_from(("raw", "cover", "strict")))
    if shape != "raw":
        v = cover(v)
    if shape == "strict":
        v = [x + bin(m).count("1") ** 2 if m else 0 for m, x in enumerate(v)]
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: "dict[int, int]" = {}
    for player, lab in enumerate(labels):
        blocks[lab] = blocks.get(lab, 0) | 1 << player
    return n, v, Partition(tuple(Coalition(m) for m in blocks.values()))


def answers(g, p):
    """Every check that reads the split test; ``find_dc_stable`` last,
    since its tie-counting pass caches the tables on the game."""
    grand = Partition.grand(g.n)
    return (
        [f(g, q) for q in (p, grand) for f, _, _ in CHECKS],
        is_superadditive(g),
        is_superadditive(g, strict=True),
        corollary_shortcuts(g),
        find_dc_stable(g),
    )


@settings(max_examples=100)
@given(tables())
def test_checks_give_the_same_answers_with_and_without_the_table(case):
    n, v, p = case
    fresh = Game(n, table=list(v))
    expect = answers(fresh, p)
    for solve in (optimal_partition, all_maximizers):
        g = Game(n, table=list(v))
        solve(g)
        assert g.n in g._dp
        assert answers(g, p) == expect


@settings(max_examples=80)
@given(tables(max_n=7))
def test_checks_with_the_table_agree_with_the_oracles(case):
    n, v, p = case
    for solve in (None, optimal_partition, all_maximizers):
        g = Game(n, table=list(v))
        if solve is not None:
            solve(g)
        for f, family, strict in CHECKS:
            got = f(g, p)
            assert got.stable == check_definitional(g, p, family, strict=strict).stable
            if not got.stable:
                assert witness_violates(g, p, got.witness, strict=strict)
        grand = Partition.grand(n)
        for strict in (False, True):
            assert is_superadditive(g, strict) == check_definitional(g, grand, "dc", strict).stable


def best_split(v, s):
    """The best grouping of ``s`` into two or more parts, by enumeration."""
    return max(
        sum(v[b.mask] for b in q.blocks)
        for q in enumerate_partitions(Coalition(s))
        if len(q.blocks) > 1
    )


def assert_split_test(g, v):
    """The cached split test on every mask of two or more players against
    :func:`best_split`, and each mask's best grouping against both."""
    assert g.n in g._dp
    split_test = {strict: _cached_split_test(g, strict) for strict in (False, True)}
    for s in range(1, 1 << g.n):
        if s & (s - 1):
            split = best_split(v, s)
            assert split_test[False](s) == (split > v[s])
            assert split_test[True](s) == (split >= v[s])
            assert best_grouping(g, s)[0] == max(v[s], split)


@settings(max_examples=60)
@given(tables(max_n=6))
def test_the_table_holds_each_masks_best_split(case):
    n, v, _ = case
    for solve in (optimal_partition, all_maximizers):
        g = Game(n, table=list(v))
        solve(g)
        assert_split_test(g, v)
    if n > 1:
        assert optimal_partition(g).optimum == max(v[-1], best_split(v, g.full_mask))


def seeded_table(kind, n):
    rng = random.Random(f"split-test|{kind}|{n}")
    fraction = lambda: Fraction(rng.randint(-6, 20), rng.randint(1, 6))
    draw = {
        "int": lambda: rng.randint(-20, 50),
        "fraction": fraction,
        "wide": fraction,
        "tie": lambda: rng.randint(0, 2),
        "zero": lambda: 0,
    }[kind]
    v = [0] + [draw() for _ in range((1 << n) - 1)]
    if kind == "wide":
        # Player 1's value with a denominator past the scaled DP's bound:
        # every table holding it runs on its Fractions.
        v[1] += Fraction(1, 2 ** _SCALE_BITS)
    return v


@pytest.mark.parametrize("kind", ["int", "fraction", "tie", "zero"])
@pytest.mark.parametrize("n", range(1, 9))
def test_the_split_test_on_every_mask(kind, n):
    # Solved directly, by the listing, and with a budget n - 1 entry cached
    # before or after the unbounded one.
    v = seeded_table(kind, n)
    orders = [[optimal_partition], [all_maximizers]]
    if n > 1:
        bounded = lambda g: optimal_partition_bounded(g, n - 1)
        orders += [[optimal_partition, bounded], [bounded, optimal_partition]]
    for order in orders:
        g = Game(n, table=list(v))
        for solve in order:
            solve(g)
        assert_split_test(g, v)


def several_partitions(n):
    """The grand partition, one player split off either end, the odd and
    even players, and a seeded draw: blocks of every size up to n."""
    full = (1 << n) - 1
    odd = sum(1 << i for i in range(0, n, 2))
    rng = random.Random(f"several|{n}")
    drawn: "dict[int, int]" = {}
    for player in range(n):
        lab = rng.randrange(3)
        drawn[lab] = drawn.get(lab, 0) | 1 << player
    shapes = [(full,), (full >> 1, 1 << (n - 1)), (1, full ^ 1), (odd, full ^ odd), tuple(drawn.values())]
    return [Partition(tuple(Coalition(m) for m in q if m)) for q in shapes]


@pytest.mark.parametrize("kind", ["int", "fraction", "tie", "zero", "wide"])
@pytest.mark.parametrize("n", range(2, 9))
def test_block_tables_match_enumeration_from_both_sources(kind, n, monkeypatch):
    # Each block's tables come from its own DP on a fresh game, indexed by
    # position, and from the cached pass on a solved one, indexed by mask;
    # the split test, the best grouping and the gaining cuts read off
    # either match every grouping of the block.
    v = seeded_table(kind, n)
    if kind == "wide":
        assert _int_table(v) is v  # runs unscaled
    dp, sizes = coalstab.solver._dp, []
    monkeypatch.setattr(coalstab.solver, "_dp", lambda w, *a: sizes.append(len(w)) or dp(w, *a))
    for solved in (False, True):
        for p in several_partitions(n):
            g = Game(n, table=list(v))
            if solved:
                optimal_partition(g)
            for pm in p.masks:
                if not pm & (pm - 1):
                    continue
                sizes.clear()
                found = {strict: list(_gaining_splits(g, (pm,), strict)) for strict in (False, True)}
                if solved:
                    assert sizes == []
                elif pm == g.full_mask:
                    assert sizes == [1 << n]  # the solver's pass, cached
                    assert g.n in g._dp
                else:
                    assert sizes == [1 << pm.bit_count()] * 2  # the block's own, not kept
                    assert g._dp == {}
                totals = {q: sum(v[m] for m in q) for q in _iter_partition_masks(pm)}
                split = max(t for q, t in totals.items() if len(q) > 1)
                assert [i for i, _, _ in found[False]] == ([0] if split > v[pm] else [])
                assert [i for i, _, _ in found[True]] == ([0] if split >= v[pm] else [])
                for _, grouping, cuts in found[True]:
                    parts = next(grouping)
                    assert totals[parts] == max(totals.values())
                    assert list(cuts) == [q for q, t in totals.items() if len(q) > 1 and t > v[pm]]
                value, parts = best_grouping(g, pm)
                assert value == max(totals.values()) == totals[parts]
                gaining = [(q, t - v[pm]) for q, t in totals.items() if len(q) > 1 and t > v[pm]]
                assert list(_gaining_cuts(g, pm)) == gaining


@pytest.mark.parametrize("kind", ["int", "tie", "one-cut"])
@pytest.mark.parametrize("solved", [False, True])
def test_gaining_cuts_of_a_nine_player_block_match_enumeration(kind, solved):
    # Players 2..10 of a 10-player game: on a fresh game the block's own
    # tables, indexed by position; on a solved one the cached pass's,
    # indexed by mask.  "one-cut" is 10·|S|² but for one cut of the block
    # into 4 and 5 players, which beats it by 1.
    n, pm, half = 10, 0b1111111110, 0b11110
    if kind == "one-cut":
        v = [10 * m.bit_count() ** 2 for m in range(1 << n)]
        v[half], v[pm ^ half] = v[pm] // 2 + 1, v[pm] // 2
    else:
        v = seeded_table(kind, n)
    g = Game(n, table=list(v))
    if solved:
        optimal_partition(g)
    gaining = []
    for q in _iter_partition_masks(pm):
        gain = sum(v[m] for m in q) - v[pm]
        if len(q) > 1 and gain > 0:
            gaining.append((q, gain))
    assert list(_gaining_cuts(g, pm)) == gaining
    assert len(gaining) == 1 if kind == "one-cut" else len(gaining) > 1000
    assert (n in g._dp) == solved


@pytest.mark.parametrize("kind", ["int", "fraction", "tie", "zero"])
@pytest.mark.parametrize("n", range(1, 7))
def test_dhp_witnesses_do_not_depend_on_the_cache(kind, n):
    v = seeded_table(kind, n)
    solved = Game(n, table=list(v))
    optimal_partition(solved)
    for p in enumerate_partitions(n):
        for check in (check_dhp, check_strict_dhp):
            assert repr(check(Game(n, table=list(v)), p)) == repr(check(solved, p))


def test_dc_checks_on_a_fresh_game_run_no_dp(monkeypatch):
    calls = count_dp_calls(monkeypatch)
    for kind in ("int", "fraction", "tie", "zero"):
        for n in range(2, 9):
            g = Game(n, table=seeded_table(kind, n))
            for p in several_partitions(n):
                check_dc(g, p)
                check_dc_strict(g, p)
            is_superadditive(g)
            corollary_shortcuts(g)
            assert g._dp == {}
    assert calls == []


def test_scans_on_a_fresh_game_build_no_table():
    # Except dhp on the grand block, whose own DP is the solver's: it
    # leaves the solver's table on the game.
    n = 7
    rng = random.Random(5)
    v = [0] + [Fraction(rng.randint(-3, 9), rng.randint(1, 2)) for _ in range((1 << n) - 1)]
    g = Game(n, table=list(v))
    for q in (Partition.grand(n), Partition.singletons(n), Partition.parse("{1,2,3} {4,5} {6,7}")):
        for f, family, _ in CHECKS:
            if family == "dc" or q != Partition.grand(n):
                f(g, q)
    is_superadditive(g)
    is_superadditive(g, strict=True)
    corollary_shortcuts(g)
    assert g.n not in g._dp
    assert g._dp == {}
    for f in (check_dhp, check_strict_dhp):
        grand = Game(n, table=list(v))
        f(grand, Partition.grand(n))
        assert grand.n in grand._dp
        assert grand._dp[n][0] == optimal_partition(Game(n, table=list(v)))


@pytest.mark.parametrize("seed", range(4))
def test_grand_dhp_checks_share_one_dp(seed, monkeypatch):
    # The grand block's DP runs once, through the solver; the strict check
    # after it reads the cached tables.
    rng = random.Random(seed)
    n = 6 + seed % 3
    g = Game(n, table=[0] + [rng.randint(0, 2) for _ in range((1 << n) - 1)])
    calls = count_dp_calls(monkeypatch)
    grand = Partition.grand(n)
    check_dhp(g, grand)
    check_strict_dhp(g, grand)
    assert calls == [1]


@settings(max_examples=80)
@given(tables(max_n=7))
def test_grand_dhp_checks_on_a_fresh_game_agree_with_the_oracle(case):
    n, v, _ = case
    grand = Partition.grand(n)
    for order in (CHECKS[2:], CHECKS[:1:-1]):
        g = Game(n, table=list(v))
        for f, family, strict in order:
            got = f(g, grand)
            assert got.stable == check_definitional(g, grand, family, strict=strict).stable
            assert got == f(Game(n, table=list(v)), grand)
            if not got.stable:
                assert witness_violates(g, grand, got.witness, strict=strict)


@pytest.mark.parametrize(
    "check",
    [check_dhp, check_strict_dhp, lambda g, p: applicable_rules(g, p, ["split"])],
    ids=["check_dhp", "check_strict_dhp", "split_rule"],
)
def test_grand_block_over_the_split_cap_runs_no_solver(check):
    n = PARTITION_ENUM_CAP + 1
    g = Game.from_rule(n, lambda m: 0)
    with pytest.raises(CapExceededError, match=f"cap of {PARTITION_ENUM_CAP}$"):
        check(g, Partition.grand(n))
    assert g._dp == {}
    assert g.n not in g._dp


@pytest.mark.parametrize("check", [check_dhp, check_strict_dhp])
def test_split_scan_cap_holds_with_a_table(check):
    n = PARTITION_ENUM_CAP + 1
    g = Game.from_rule(n, lambda m: 0)
    optimal_partition(g)
    assert g.n in g._dp
    with pytest.raises(CapExceededError, match=f"cap of {PARTITION_ENUM_CAP}$"):
        check(g, Partition.grand(n))


class ProbeTable(list):
    """A value table that runs ``probe`` once, from inside whatever reads
    it, at its ``at``-th read.  A slice is a ProbeTable whose reads count
    toward the table it was cut from."""

    def __init__(self, values, at=None, probe=None, root=None):
        super().__init__(values)
        self.root = self if root is None else root
        self.reads, self.at, self.probe, self.seen = 0, at, probe, None

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ProbeTable(super().__getitem__(i), root=self.root)
        root = self.root
        root.reads += 1
        if root.reads == root.at:
            root.seen = root.probe()
        return super().__getitem__(i)


@pytest.mark.parametrize("solve", [optimal_partition, all_maximizers])
@pytest.mark.parametrize("share", [0.25, 0.5, 0.75])
def test_checks_run_inside_the_dp_see_no_partial_table(solve, share):
    # A scan that starts while the DP is filling its tables must not see
    # them until they are cached: it gives a fresh game's answers.
    n = 8
    rng = random.Random(11)
    v = [0] + [rng.randint(1, 9) for _ in range((1 << n) - 1)]
    parts = (Partition.grand(n), Partition.parse("{1,2,3,4} {5,6,7,8}"))

    def probe(g):
        return [f(g, q) for q in parts for f, _, _ in CHECKS] + [is_superadditive(g, s) for s in (False, True)]

    expect = probe(Game(n, table=list(v)))
    assert not all(expect)
    dp_reads = (3**n - 1) // 2  # one per mask and one per proper block
    table = ProbeTable(v, int(share * dp_reads), lambda: probe(g))
    g = Game(n, table=table)
    solve(g)
    assert table.seen == expect


@pytest.mark.parametrize("check", [check_dhp, check_strict_dhp])
def test_dhp_witness_on_a_warmed_game_runs_no_dp(check, monkeypatch):
    # With the unbounded pass's tables on the game, a gaining block's
    # witness is read off them: no DP over the block's submasks.
    rng = random.Random(3)
    n = 7
    v = [0] + [rng.randint(0, 9) for _ in range((1 << n) - 1)]
    p = Partition.parse("{1,2,3,4,5} {6,7}")
    expect = check(Game(n, table=list(v)), p)
    assert isinstance(expect.witness, BlockSplit)
    g = Game(n, table=list(v))
    optimal_partition(g)
    calls = count_dp_calls(monkeypatch)
    assert check(g, p) == expect
    assert calls == []


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=7),
    st.sampled_from(list(GameClass)),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from((DEFAULT_RULES, ALL_RULES)),
    st.data(),
)
def test_rules_give_the_same_answers_with_and_without_the_table(n, kind, seed, rules, data):
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: "dict[int, int]" = {}
    for player, lab in enumerate(labels):
        blocks[lab] = blocks.get(lab, 0) | 1 << player
    p = Partition(tuple(Coalition(m) for m in blocks.values()))
    spec = GeneratorSpec(n=n, kind=kind, low=0, high=2, seed=seed)

    def answers(g):
        # closure_outcomes keeps each block's cuts for one search, from the
        # block's own DP on the fresh game and from the tables on the other
        return (
            applicable_rules(g, p, rules),
            is_closed(g, p, rules),
            iterate(g, p, rules=rules),
            iterate(g, p, BEST_GAIN, rules),
            closure_outcomes(g, p, rules),
        )

    expect = answers(random_game(spec))
    g = random_game(spec)
    optimal_partition(g)
    assert g.n in g._dp
    assert answers(g) == expect
    # Both sides above decide gaining blocks by the same split scan, so the
    # split rule is also held to every gaining cut, listed by enumeration.
    v = g.dense_table()
    cuts = [
        (i, q.blocks, sum(v[b.mask] for b in q.blocks) - v[pm])
        for i, pm in enumerate(p.masks)
        for q in enumerate_partitions(Coalition(pm))
        if len(q.blocks) > 1
    ]
    for game in (random_game(spec), g):
        splits = applicable_rules(game, p, ["split"])
        assert [(a.index, a.parts.blocks, a.gain) for a in splits] == [c for c in cuts if c[2] > 0]


def test_only_the_solver_reads_the_dp_tables():
    # The split test, the tables' two indexings and the walks over them
    # live in the solver: the stability scans and the dynamics get the
    # split test and the walks' player masks from it.
    for module in (coalstab.stability, coalstab.dynamics):
        assert not {"_tie_walk", "_cut_walk", "_block_tables", "_splits_gain"} & set(vars(module))
        assert not re.search(r"\._dp\b|\blift\b", inspect.getsource(module))
