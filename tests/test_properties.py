"""Property-based tests: structural invariants, checker/oracle coherence,
solver correctness against enumeration, dynamics invariants, and
serialization round-trips on randomized inputs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalstab import (
    ALL_RULES,
    Coalition,
    Collection,
    Game,
    Partition,
    all_maximizers,
    as_value,
    check_dc,
    check_dc_strict,
    check_definitional,
    check_dhp,
    check_dp,
    check_strict_dhp,
    check_strict_dp,
    closure_outcomes,
    corollary_shortcuts,
    enumerate_homogeneous_partitions,
    enumerate_partitions,
    format_value,
    frame,
    is_additive,
    is_closed,
    is_homogeneous,
    is_superadditive,
    iterate,
    modified_social_welfare,
    optimal_partition,
    optimal_partition_bounded,
    parse_game,
    random_strategy,
    serialize_game,
    social_welfare,
)
from conftest import brute_force_optimum, witness_violates

values = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def games(draw, max_n=5, value_strategy=values):
    n = draw(st.integers(min_value=1, max_value=max_n))
    table = [0] + [
        as_value(draw(value_strategy)) for _ in range((1 << n) - 1)
    ]
    return Game(n, table=table)


@st.composite
def partitions_of(draw, n):
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: "dict[int, int]" = {}
    for player, lab in enumerate(labels, start=1):
        blocks[lab] = blocks.get(lab, 0) | (1 << (player - 1))
    return Partition(tuple(Coalition(m) for m in blocks.values()))


@st.composite
def games_with_partition(draw, max_n=5, value_strategy=values):
    g = draw(games(max_n=max_n, value_strategy=value_strategy))
    p = draw(partitions_of(g.n))
    return g, p


@st.composite
def collections_over(draw, n):
    labels = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    blocks: "dict[int, int]" = {}
    for player, lab in enumerate(labels, start=1):
        if lab >= 0:
            blocks[lab] = blocks.get(lab, 0) | (1 << (player - 1))
    return Collection(tuple(Coalition(m) for m in blocks.values()))


# ---------------------------------------------------------------------------
# model invariants


@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_collection_canonical_under_permutation(n, rnd):
    parts = list(enumerate_partitions(n))
    p = parts[rnd.randrange(len(parts))]
    shuffled = list(p.blocks)
    rnd.shuffle(shuffled)
    assert Partition(tuple(shuffled)) == p
    assert Partition.parse(str(p)) == p


@given(games_with_partition(max_n=5))
def test_frame_invariants(gp):
    g, p = gp
    n = p.n
    for c in (Collection(p.blocks[:1]), Collection(p.blocks), Collection(())):
        f = frame(c, p)
        assert f.union_mask == c.union_mask
        assert frame(f, p) == f  # idempotent


@settings(max_examples=60)
@given(st.data())
def test_frame_and_modified_welfare(data):
    g, p = data.draw(games_with_partition(max_n=5))
    c = data.draw(collections_over(g.n))
    f = frame(c, p)
    assert f.union_mask == c.union_mask
    assert frame(f, p) == f
    # every frame block sits inside one partition block
    assert all(
        any(not fm & ~pm for pm in p.masks) for fm in f.masks
    )
    assert modified_social_welfare(g, c, p) == social_welfare(g, f)
    if c.is_subcollection_of(p):
        assert f == c


@given(games_with_partition(max_n=6))
def test_partition_frames_to_the_partition(gp):
    g, p = gp
    q = Partition.singletons(p.n)
    assert frame(q, p) == p
    assert modified_social_welfare(g, q, p) == social_welfare(g, p)


@given(st.integers(1, 5), st.data())
def test_homogeneous_generator_matches_filter(n, data):
    p = data.draw(partitions_of(n))
    via_gen = set(enumerate_homogeneous_partitions(p))
    via_filter = {q for q in enumerate_partitions(n) if is_homogeneous(q, p)}
    assert via_gen == via_filter
    assert p in via_gen


# ---------------------------------------------------------------------------
# values


@given(values)
def test_value_string_round_trip(v):
    exact = as_value(v)
    assert as_value(format_value(exact)) == exact
    assert isinstance(exact, (int, Fraction)) and not isinstance(exact, bool)


# ---------------------------------------------------------------------------
# solver


@given(games(max_n=6, value_strategy=st.integers(-9, 9)))
def test_solver_matches_enumeration(g):
    res = optimal_partition(g)
    best, _ = brute_force_optimum(g)
    assert res.optimum == best
    assert social_welfare(g, res.witness) == best


@given(games(max_n=5))
def test_bounded_solver_invariants(g):
    per_k = [optimal_partition_bounded(g, k) for k in range(1, g.n + 1)]
    for k, res in enumerate(per_k, start=1):
        assert len(res.witness) <= k
        assert social_welfare(g, res.witness) == res.optimum
    for a, b in zip(per_k, per_k[1:]):
        assert a.optimum <= b.optimum
    assert per_k[0].optimum == g.mask_value(g.full_mask)
    assert per_k[-1].optimum == optimal_partition(g).optimum


@given(games(max_n=5, value_strategy=st.integers(-4, 4)))
def test_all_maximizers_exact(g):
    best, _ = brute_force_optimum(g)
    maxi = all_maximizers(g)
    assert maxi == [
        q for q in enumerate_partitions(g.n) if social_welfare(g, q) == best
    ]
    assert optimal_partition(g).witness in maxi


# ---------------------------------------------------------------------------
# stability checkers vs oracles


@settings(max_examples=60)
@given(games_with_partition(max_n=4, value_strategy=st.integers(-5, 5)))
def test_checkers_agree_with_oracles(gp):
    g, p = gp
    cases = [
        (check_dc(g, p), check_definitional(g, p, "dc", strict=False), False),
        (check_dc_strict(g, p), check_definitional(g, p, "dc", strict=True), True),
        (check_dp(g, p), check_definitional(g, p, "dp", strict=False), False),
        (check_strict_dp(g, p), check_definitional(g, p, "dp", strict=True), True),
        (check_dhp(g, p), check_definitional(g, p, "dhp", strict=False), False),
        (check_strict_dhp(g, p), check_definitional(g, p, "dhp", strict=True), True),
    ]
    for fast, slow, strict in cases:
        assert fast.stable == slow.stable
        for verdict in (fast, slow):
            if not verdict.stable:
                assert witness_violates(g, p, verdict.witness, strict=strict)


@settings(max_examples=80)
@given(games_with_partition(max_n=5, value_strategy=st.integers(-5, 5)))
def test_strict_implies_plain_and_inclusion_chain(gp):
    g, p = gp
    dc, dp, dhp = check_dc(g, p), check_dp(g, p), check_dhp(g, p)
    if check_dc_strict(g, p).stable:
        assert dc.stable
    if check_strict_dp(g, p).stable:
        assert dp.stable
    if check_strict_dhp(g, p).stable:
        assert dhp.stable
    # collection-stability is the strongest notion, rearrangement the weakest
    if dc.stable:
        assert dp.stable
    if dp.stable:
        assert dhp.stable


@settings(max_examples=60)
@given(games(max_n=4, value_strategy=st.integers(-4, 4)))
def test_additivity_agrees_with_definition(g):
    singles = [g.mask_value(1 << i) for i in range(g.n)]
    definitional = all(
        g.mask_value(s) == sum(singles[i] for i in range(g.n) if s >> i & 1)
        for s in range(1, 1 << g.n)
    )
    assert is_additive(g) == definitional
    if definitional:
        for p in enumerate_partitions(g.n):
            assert check_dc(g, p).stable


@settings(max_examples=80)
@given(games(max_n=4, value_strategy=st.integers(-2, 2)))
def test_superadditivity_and_corollaries_agree_with_definitions(g):
    v = g.dense_table()
    pairs = [(a, b) for a in range(1, 1 << g.n) for b in range(1, 1 << g.n) if not a & b]
    assert is_superadditive(g) == all(v[a] + v[b] <= v[a | b] for a, b in pairs)
    assert is_superadditive(g, strict=True) == all(v[a] + v[b] < v[a | b] for a, b in pairs)
    rep = corollary_shortcuts(g)
    grand, singles = Partition.grand(g.n), Partition.singletons(g.n)
    assert rep.grand_stable == check_dc(g, grand).stable
    assert rep.grand_unique == check_dc_strict(g, grand).stable
    assert rep.singletons_stable == check_dc(g, singles).stable
    assert rep.singletons_unique == check_dc_strict(g, singles).stable


# ---------------------------------------------------------------------------
# dynamics


@settings(max_examples=60)
@given(games_with_partition(max_n=5, value_strategy=st.integers(-6, 6)), st.integers(0, 2))
def test_iterate_invariants(gp, mode):
    g, p = gp
    strategy = [None, None, random_strategy(7)][mode]
    kwargs = {} if strategy is None else {"strategy": strategy}
    rules = ALL_RULES if mode == 1 else ("merge", "split")
    tr = iterate(g, p, rules=rules, **kwargs)
    last = social_welfare(g, tr.initial)
    for step_ in tr.steps:
        assert step_.application.gain > 0
        assert step_.welfare == last + step_.application.gain
        last = step_.welfare
    assert is_closed(g, tr.final, rules=rules)
    assert social_welfare(g, tr.final) == last


@settings(max_examples=60)
@given(games_with_partition(max_n=4, value_strategy=st.integers(-5, 5)))
def test_closed_iff_dhp_stable(gp):
    g, p = gp
    assert is_closed(g, p) == check_dhp(g, p).stable


@settings(max_examples=40)
@given(games(max_n=4, value_strategy=st.integers(-4, 4)), st.data())
def test_closure_outcomes_are_fixpoints_reaching_maximum_nowhere_lower(g, data):
    p = data.draw(partitions_of(g.n))
    outs = closure_outcomes(g, p)
    assert outs
    base = social_welfare(g, p)
    for q in outs:
        assert is_closed(g, q)
        assert social_welfare(g, q) >= base
    assert iterate(g, p).final in outs


# ---------------------------------------------------------------------------
# serialization


@given(games(max_n=4))
def test_serialize_round_trip(g):
    text = serialize_game(g)
    back, named = parse_game(text)
    assert back == g and named == {}
    assert serialize_game(back) == text


names = st.text(st.characters(blacklist_characters=":#"), min_size=1, max_size=8).filter(
    lambda s: s == s.strip() and s.splitlines() == [s]
)


@given(games(max_n=6), st.dictionaries(names, st.just(None), max_size=3), st.data())
def test_serialize_round_trip_with_names(g, names_drawn, data):
    given_named = {name: data.draw(partitions_of(g.n)) for name in names_drawn}
    text = serialize_game(g, given_named)
    back, named = parse_game(text)
    assert back == g and named == given_named
    assert serialize_game(back, named) == text


# Short literals without an exponent: as_value must agree with Fraction(),
# value for value, and reject what it rejects as a malformed rational.
@given(st.text("0123456789_+-./ \u0661", max_size=10))
def test_as_value_agrees_with_fraction(text):
    try:
        f = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError) as info:
            as_value(text)
        assert str(info.value) == f"malformed rational: {text!r}"
        return
    got = as_value(text)
    assert got == f and type(got) is (int if f.denominator == 1 else Fraction)


@given(st.integers(1, 5), st.data())
def test_serialize_with_named_partitions(n, data):
    g = Game(n, table=[0] * (1 << n))
    p = data.draw(partitions_of(n))
    back, named = parse_game(serialize_game(g, {"main": p}))
    assert named == {"main": p}
