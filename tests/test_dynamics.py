"""Unit tests for the reorganization dynamics: rule scans, strategies,
traces, closure outcomes, and their agreement with the stability checkers."""

import hashlib
import random
from fractions import Fraction

import pytest

from coalstab import (
    ALL_RULES,
    BEST_GAIN,
    CLOSURE_CAP,
    DEFAULT_RULES,
    FIRST_APPLICABLE,
    EXAMPLE_NAMES,
    CapExceededError,
    Coalition,
    Collection,
    Exchange,
    Game,
    GameClass,
    GeneratorSpec,
    Merge,
    Partition,
    RuleName,
    Split,
    Strategy,
    Transfer,
    applicable_rules,
    as_value,
    check_dc,
    check_dhp,
    closure_outcomes,
    enumerate_partitions,
    example_game,
    format_application,
    generalized_odd_game,
    is_closed,
    iterate,
    pairs_partition,
    random_game,
    random_strategy,
    social_welfare,
    step,
    trace_lines,
)
from coalstab.dynamics import _coerce_rules, _edges
from conftest import one_cut_table

EXA_1 = example_game("exa-1")
EXA_MISS = example_game("exa-miss")
EXA_2 = example_game("exa-2")

# Every single rule, then the default and the full set, with a stable label.
RULE_SETS = [(r.value, [r]) for r in RuleName] + [("default", DEFAULT_RULES), ("all", ALL_RULES)]


def random_cases(max_n=7, seeds=2):
    """``(label, game, partitions)`` for every random_game class, n = 1..max_n:
    the singletons, the grand partition and three drawn partitions."""
    for n in range(1, max_n + 1):
        every = list(enumerate_partitions(n))
        for kind in GameClass:
            for seed in range(seeds):
                g = random_game(GeneratorSpec(n=n, kind=kind, seed=seed))
                rng = random.Random(f"{n}|{kind.value}|{seed}")
                starts = [Partition.singletons(n), Partition.grand(n)] + rng.sample(every, min(3, len(every)))
                yield f"{n} {kind.value} {seed}", g, starts


class TestRuleSets:
    def test_defaults(self):
        assert DEFAULT_RULES == {RuleName.MERGE, RuleName.SPLIT}
        assert ALL_RULES == {
            RuleName.MERGE,
            RuleName.SPLIT,
            RuleName.TRANSFER,
            RuleName.EXCHANGE,
        }

    def test_string_rules_accepted(self):
        got = applicable_rules(EXA_1, Partition.singletons(4), rules=["merge"])
        assert got == applicable_rules(
            EXA_1, Partition.singletons(4), rules=[RuleName.MERGE]
        )

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            applicable_rules(EXA_1, Partition.singletons(4), rules=["grow"])

    def test_empty_rule_set_rejected(self):
        with pytest.raises(ValueError):
            applicable_rules(EXA_1, Partition.singletons(4), rules=[])

    def test_rules_keep_the_order_first_given(self):
        assert _coerce_rules(["Split ", "merge", RuleName.SPLIT]) == (RuleName.SPLIT, RuleName.MERGE)
        with pytest.raises(ValueError, match="^unknown rule 'grow'; valid: merge, split, transfer, exchange$"):
            _coerce_rules(["merge", " Grow"])

    @pytest.mark.parametrize(
        "text,listed",
        [("merge, split", ["merge", "split"]), ("split", ["split"]), (RuleName.SPLIT, [RuleName.SPLIT]),
         (" Split ,,merge,", ["split", "merge"])],
    )
    def test_a_string_is_a_comma_list(self, text, listed):
        assert _coerce_rules(text) == _coerce_rules(listed)

    @pytest.mark.parametrize("text", ["", " , ", ",,"])
    def test_a_string_of_blank_names_is_no_rule(self, text):
        with pytest.raises(ValueError, match="^at least one rule is required$"):
            _coerce_rules(text)

    def test_every_entry_point_reads_a_rule_string(self):
        start = Partition.parse("{1,2,3} {4}")
        for rules in ("split", "merge,split"):
            listed = rules.split(",")
            assert applicable_rules(EXA_1, start, rules) == applicable_rules(EXA_1, start, listed)
            assert is_closed(EXA_1, start, rules) == is_closed(EXA_1, start, listed)
            assert iterate(EXA_1, start, BEST_GAIN, rules) == iterate(EXA_1, start, BEST_GAIN, listed)
            assert closure_outcomes(EXA_1, start, rules) == closure_outcomes(EXA_1, start, listed)
        assert applicable_rules(EXA_1, start, "split")  # the split rule applies here


class TestApplicableRules:
    def test_merges_from_singletons_frozen(self):
        got = applicable_rules(EXA_1, Partition.singletons(4))
        assert got == [Merge((0, 1), 1), Merge((0, 2), 2)]

    def test_transfers_frozen(self):
        got = applicable_rules(
            EXA_2, Partition.parse("{1,2,3} {4}"), rules=["transfer"]
        )
        assert got == [
            Transfer(0, 1, Coalition.of(2), 1),
            Transfer(0, 1, Coalition.of(3), 4),
        ]

    def test_exchanges_frozen(self):
        trap = Partition.parse("{1,3} {2,4}")
        got = applicable_rules(EXA_MISS, trap, rules=ALL_RULES)
        assert got == [
            Exchange(0, 1, Coalition.of(1), Coalition.of(4), 1),
            Exchange(0, 1, Coalition.of(3), Coalition.of(2), 1),
        ]

    def test_all_gains_positive(self):
        for p in (Partition.singletons(4), Partition.parse("{1,2} {3,4}")):
            for a in applicable_rules(EXA_2, p, rules=ALL_RULES):
                assert a.gain > 0
                after = step(p, a)
                assert (
                    social_welfare(EXA_2, after)
                    == social_welfare(EXA_2, p) + a.gain
                )

    def test_splits(self):
        g = Game.from_table(2, {(1,): 1, (2,): 1, (1, 2): 0})
        got = applicable_rules(g, Partition.grand(2), rules=["split"])
        assert got == [Split(0, Collection.of([1], [2]), 2)]

    def test_payloads_share_one_coalition_per_mask(self):
        g = random_game(GeneratorSpec(n=6, kind="general", seed=3))
        payloads = []
        for a in applicable_rules(g, Partition.parse("{1,2,3} {4,5,6}"), rules=ALL_RULES):
            if isinstance(a, Transfer):
                payloads.append(a.moved)
            elif isinstance(a, Exchange):
                payloads += [a.from_first, a.from_second]
            elif isinstance(a, Split):
                payloads += a.parts.blocks
        assert len({id(c) for c in payloads}) == len({c.mask for c in payloads}) < len(payloads)

    def test_player_count_checked(self):
        with pytest.raises(ValueError, match="player-count mismatch"):
            applicable_rules(EXA_1, Partition.singletons(3))


class TestEdges:
    def test_children_are_the_applications_rewritten(self):
        # The edge generator and the application objects built from it list
        # the same edges in the same order; a block-cut table kept across
        # the scans of one game changes nothing.
        for _, g, starts in random_cases():
            for _, rules in RULE_SETS:
                rules = _coerce_rules(rules)
                cuts = {}
                for p in starts:
                    expect = [step(p, a).masks for a in applicable_rules(g, p, rules)]
                    for table in (None, cuts):
                        assert [e[0] for e in _edges(g, p.masks, rules, table)] == expect

    def test_edges_carry_the_application_gains(self):
        for _, g, starts in random_cases(max_n=5):
            for p in starts:
                edges = list(_edges(g, p.masks, _coerce_rules(ALL_RULES)))
                apps = applicable_rules(g, p, ALL_RULES)
                assert [(e[1], e[3]) for e in edges] == [(a.rule, a.gain) for a in apps]
                for child, _, _, gain in edges:
                    assert social_welfare(g, Partition(tuple(map(Coalition, child)))) == social_welfare(g, p) + gain

    def test_applicable_rules_pinned_over_random_games(self):
        # Application reprs, one line per case: every random_game class,
        # n = 1..7, every single rule and both rule sets.
        h = hashlib.sha256()
        for label, g, starts in random_cases():
            for name, rules in RULE_SETS:
                for p in starts:
                    h.update(f"{label} {name} {p}: {applicable_rules(g, p, rules)!r}\n".encode())
        assert h.hexdigest() == "d284534b2f7fa82d602c2cfdd50da19f93ba09296f6a8cae0378140f1d3c394a"


class TestStep:
    def test_merge(self):
        p = Partition.singletons(3)
        assert step(p, Merge((0, 2), 5)) == Partition.parse("{1,3} {2}")

    def test_split(self):
        p = Partition.parse("{1,2,3}")
        after = step(p, Split(0, Collection.of([1, 3], [2]), 1))
        assert after == Partition.parse("{1,3} {2}")

    def test_transfer(self):
        p = Partition.parse("{1,2,3} {4}")
        after = step(p, Transfer(0, 1, Coalition.of(3), 4))
        assert after == Partition.parse("{1,2} {3,4}")

    def test_exchange(self):
        p = Partition.parse("{1,3} {2,4}")
        after = step(p, Exchange(0, 1, Coalition.of(1), Coalition.of(4), 1))
        assert after == Partition.parse("{1,2} {3,4}")

    def test_structural_validation(self):
        p = Partition.parse("{1,2} {3,4}")
        merge = "^merge needs two or more distinct ascending block indices in range$"
        with pytest.raises(ValueError, match=merge):
            step(p, Merge((0,), 1))  # merging one block is no merge
        with pytest.raises(ValueError, match=merge):
            step(p, Merge((0, 5), 1))  # no such block
        with pytest.raises(ValueError, match=merge):
            step(p, Merge((1, 0), 1))  # descending
        with pytest.raises(ValueError, match="^split index out of range$"):
            step(p, Split(2, Collection.of([1], [2]), 1))
        split = "^split parts must cut the block into two or more pieces$"
        with pytest.raises(ValueError, match=split):
            step(p, Split(0, Collection.of([1, 2]), 1))  # not a real split
        with pytest.raises(ValueError, match=split):
            step(p, Split(0, Collection.of([1], [3]), 1))  # wrong players
        with pytest.raises(ValueError, match="^transfer needs two distinct block indices in range$"):
            step(p, Transfer(0, 0, Coalition.of(1), 1))  # same block
        with pytest.raises(
            ValueError, match="^transfer payload must be a proper nonempty subset of the source block$"
        ):
            step(p, Transfer(0, 1, Coalition.of(1, 2), 1))  # moves whole block
        with pytest.raises(ValueError, match="^exchange needs two distinct block indices in range$"):
            step(p, Exchange(1, 1, Coalition.of(3), Coalition.of(4), 1))
        with pytest.raises(
            ValueError, match="^exchange payloads must be proper nonempty subsets of their blocks$"
        ):
            step(p, Exchange(0, 1, Coalition.of(1, 2), Coalition.of(3), 1))
        with pytest.raises(TypeError, match=r"^not a rule application: \(0, 1\)$"):
            step(p, (0, 1))

    # A bool is refused as a block index before any range check, as the
    # package refuses it wherever it takes an int.
    @pytest.mark.parametrize(
        "application",
        [
            Merge((False, True), 1),
            Split(False, Collection.of([1], [2]), 1),
            Transfer(True, False, Coalition.of(3), 1),
            Exchange(False, True, Coalition.of(1), Coalition.of(3), 1),
        ],
        ids=["merge", "split", "transfer", "exchange"],
    )
    def test_bool_block_index_refused(self, application):
        with pytest.raises(TypeError, match="^block indices must be ints, not bool"):
            step(Partition.parse("{1,2} {3,4}"), application)


class TestIsClosed:
    def test_trap_is_merge_split_fixpoint_but_not_exchange(self):
        trap = Partition.parse("{1,3} {2,4}")
        assert is_closed(EXA_MISS, trap)
        assert not is_closed(EXA_MISS, trap, rules=ALL_RULES)

    def test_matches_dhp_on_examples(self):
        from coalstab import enumerate_partitions

        for name in ("exa-a", "exa-1", "exa-miss", "exa-2", "exa-miss1"):
            g = example_game(name)
            for p in enumerate_partitions(g.n):
                assert is_closed(g, p) == check_dhp(g, p).stable

    def test_generalized_odd_pairs(self):
        assert not is_closed(generalized_odd_game(2), pairs_partition(2), rules=ALL_RULES)
        assert is_closed(generalized_odd_game(3), pairs_partition(3), rules=ALL_RULES)


class TestIterate:
    def test_first_applicable_frozen(self):
        tr = iterate(EXA_1, Partition.singletons(4))
        assert trace_lines(tr) == ["merge {1} {2} gain 1 -> {1,2} {3} {4}"]
        assert tr.final == Partition.parse("{1,2} {3} {4}")
        assert tr.initial == Partition.singletons(4)

    def test_best_gain_frozen(self):
        tr = iterate(EXA_1, Partition.singletons(4), strategy=BEST_GAIN)
        assert trace_lines(tr) == ["merge {1} {3} gain 2 -> {1,3} {2} {4}"]

    def test_best_gain_tie_keeps_scan_order(self):
        g = example_game("exa-a")
        tr = iterate(g, Partition.singletons(3), strategy=BEST_GAIN)
        assert trace_lines(tr) == ["merge {1} {2} gain 1 -> {1,2} {3}"]

    def test_random_is_seed_deterministic(self):
        a = iterate(EXA_1, Partition.singletons(4), strategy=random_strategy(11))
        b = iterate(EXA_1, Partition.singletons(4), strategy=random_strategy(11))
        assert trace_lines(a) == trace_lines(b)
        assert a.final == b.final

    def test_exchange_escapes_the_trap(self):
        trap = Partition.parse("{1,3} {2,4}")
        tr = iterate(EXA_MISS, trap, rules=ALL_RULES)
        assert trace_lines(tr) == [
            "exchange {1} from {1,3} with {4} from {2,4} gain 1 -> {1,2} {3,4}"
        ]
        assert tr.final == Partition.parse("{1,2} {3,4}")

    def test_fixpoint_immediately(self):
        tr = iterate(EXA_MISS, Partition.parse("{1,2} {3,4}"))
        assert tr.steps == () or list(tr.steps) == []
        assert tr.final == tr.initial

    def test_welfare_strictly_increases(self):
        for seed in range(10):
            g = random_game(GeneratorSpec(n=5, kind="general", seed=500 + seed))
            tr = iterate(g, Partition.singletons(5), rules=ALL_RULES)
            welfare = [social_welfare(g, tr.initial)]
            for s in tr.steps:
                welfare.append(s.welfare)
            assert all(b > a for a, b in zip(welfare, welfare[1:]))
            assert is_closed(g, tr.final, rules=ALL_RULES)

    def test_trace_welfare_follows_as_value(self):
        half = Fraction(1, 2)
        g = Game.from_table(2, {(1,): half, (2,): half, (1, 2): 2})
        tr = iterate(g, Partition.singletons(2))
        assert [repr(s.welfare) for s in tr.steps] == ["2"]

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            Strategy("fastest")
        with pytest.raises(ValueError):
            Strategy("first", seed=1)  # seed only makes sense for random
        assert random_strategy(3).seed == 3
        assert FIRST_APPLICABLE.kind == "first"

    @pytest.mark.parametrize("seed", [True, 1.5, "x"])
    def test_random_seed_must_be_an_int(self, seed):
        # The constructor checks the seed, so a float or a bool seed never
        # reaches iterate.
        for make in (lambda: Strategy("random", seed), lambda: random_strategy(seed)):
            with pytest.raises(TypeError, match="^random strategy seed must be an int$"):
                make()


class TestClosureOutcomes:
    def test_two_basins_frozen(self):
        got = closure_outcomes(EXA_1, Partition.singletons(4))
        assert got == {
            Partition.parse("{1,2} {3} {4}"),
            Partition.parse("{1,3} {2} {4}"),
        }

    def test_every_outcome_is_a_fixpoint(self):
        for p0 in (Partition.singletons(4), Partition.grand(4)):
            for q in closure_outcomes(EXA_2, p0):
                assert is_closed(EXA_2, q)

    def test_three_pairings_from_singletons(self):
        got = closure_outcomes(example_game("exa-a"), Partition.singletons(3))
        assert {str(p) for p in got} == {"{1,2} {3}", "{1,3} {2}", "{1} {2,3}"}

    def test_fixpoint_closure_is_itself(self):
        trap = Partition.parse("{1,3} {2,4}")
        assert closure_outcomes(EXA_MISS, trap) == {trap}

    def test_every_dc_stable_partition_is_a_fixpoint(self):
        from coalstab import enumerate_partitions

        for seed in range(15):
            g = random_game(GeneratorSpec(n=4, kind="general", seed=600 + seed))
            for p in enumerate_partitions(4):
                if check_dc(g, p).stable:
                    assert is_closed(g, p)
                    assert closure_outcomes(g, p) == {p}

    def test_outcomes_pinned_over_random_games(self):
        # Fixpoints as strings, one line per case: every random_game class,
        # n = 1..7, seeds 0..2, both rule sets, from both ends.
        h = hashlib.sha256()
        for n in range(1, 8):
            for kind in GameClass:
                for seed in range(3):
                    g = random_game(GeneratorSpec(n=n, kind=kind, seed=seed))
                    for rules in (DEFAULT_RULES, ALL_RULES):
                        for p0 in (Partition.singletons(n), Partition.grand(n)):
                            got = sorted(closure_outcomes(g, p0, rules), key=lambda q: q.masks)
                            line = f"{n} {kind.value} {seed} {len(rules)} {p0}: {' | '.join(map(str, got))}\n"
                            h.update(line.encode())
        assert h.hexdigest() == "0308fca8182a16c869e4cfece73508e8c1d7ce0c26bfa809326819eb28a56d31"

    def test_each_reachable_partition_is_scanned_once(self, monkeypatch):
        import coalstab.dynamics as dynamics

        scanned = []
        scan = dynamics._edges

        def counting(g, pmasks, rules, *rest):
            scanned.append(pmasks)
            return scan(g, pmasks, rules, *rest)

        monkeypatch.setattr(dynamics, "_edges", counting)
        for kind in GameClass:
            for seed in range(2):
                g = random_game(GeneratorSpec(n=5, kind=kind, seed=seed))
                for rules in (DEFAULT_RULES, ALL_RULES):
                    p0 = Partition.singletons(5)
                    reached, todo = {p0}, [p0]
                    while todo:
                        p = todo.pop()
                        for a in applicable_rules(g, p, rules):
                            q = step(p, a)
                            if q not in reached:
                                reached.add(q)
                                todo.append(q)
                    scanned.clear()
                    closure_outcomes(g, p0, rules)
                    assert sorted(scanned) == sorted(q.masks for q in reached)

    def test_cap(self):
        g = Game.from_rule(CLOSURE_CAP + 1, lambda m: 0)
        with pytest.raises(CapExceededError):
            closure_outcomes(g, Partition.singletons(CLOSURE_CAP + 1))


class TestFormatting:
    def test_each_rule_formats(self):
        p = Partition.parse("{1,2} {3,4}")
        assert format_application(Merge((0, 1), 1), p) == "merge {1,2} {3,4} gain 1"
        assert (
            format_application(Split(0, Collection.of([1], [2]), 2), p)
            == "split {1,2} into {1} {2} gain 2"
        )
        assert (
            format_application(Transfer(0, 1, Coalition.of(2), "1/2"), p)
            == "transfer {2} from {1,2} to {3,4} gain 1/2"
        )
        assert (
            format_application(
                Exchange(0, 1, Coalition.of(1), Coalition.of(4), 1), p
            )
            == "exchange {1} from {1,2} with {4} from {3,4} gain 1"
        )


def test_gains_follow_as_value_on_a_fraction_game():
    # Half-integer values whose differences are often integral: a gain
    # reads 1, not Fraction(1, 1), as every value the package reports.
    h = Fraction(1, 2)
    g = Game(3, table=[0, h, h, 0, h, 3, h, h])
    assert repr(applicable_rules(g, Partition.parse("{1,2} {3}"), ALL_RULES)) == (
        "[Split(index=0, parts={1} {2}, gain=1),"
        " Transfer(source=0, target=1, moved={1}, gain=3),"
        " Transfer(source=0, target=1, moved={2}, gain=Fraction(1, 2))]"
    )
    assert repr(applicable_rules(g, Partition.singletons(3))) == "[Merge(indices=(0, 2), gain=2)]"
    rng = random.Random(7)
    g = Game(4, table=[0] + [Fraction(rng.randint(-4, 8), 2) for _ in range(15)])
    seen = set()
    for p in enumerate_partitions(4):
        for a in applicable_rules(g, p, ALL_RULES):
            assert type(a.gain) is type(as_value(a.gain))
            seen.add((a.rule, type(a.gain)))
    assert {rule for rule, kind in seen if kind is int} == set(RuleName)


def test_the_dynamics_never_enumerate_partitions(monkeypatch):
    # The split rule lists its cuts off the block's DP tables, so every
    # dynamics entry point runs with the partition enumeration broken.
    import coalstab.model as model

    def refuse(k):
        raise AssertionError(f"partitions of {k} positions enumerated")

    monkeypatch.setattr(model, "_partitions", refuse)
    games = [example_game(name) for name in EXAMPLE_NAMES]
    games.append(random_game(GeneratorSpec(8, GameClass.GENERAL, 0, 6, 3)))
    for g in games:
        grand, singletons = Partition.grand(g.n), Partition.singletons(g.n)
        applicable_rules(g, grand, ALL_RULES)
        for start in (grand, singletons):
            for strategy in (FIRST_APPLICABLE, BEST_GAIN, random_strategy(1)):
                assert is_closed(g, iterate(g, start, strategy).final)
        closure_outcomes(g, singletons)
    assert len(applicable_rules(games[-1], Partition.grand(8), ["split"])) > 1000
    # Of Bell(12) = 4 213 597 cuts, the one that gains comes out alone.
    g = Game(12, table=one_cut_table(12))
    half = Coalition.of(*range(1, 7))
    assert applicable_rules(g, Partition.grand(12), ["split"]) == [
        Split(0, Collection((half, Coalition(g.full_mask ^ half.mask))), 1)
    ]


def test_split_rule_on_nine_player_blocks_of_a_fresh_game():
    # Thirty distinct 9-player blocks of an all-zero game, each with its
    # own position-indexed tables: no cut beats a block, so none splits.
    from itertools import combinations, islice

    g = Game.from_table(12, {})
    for members in islice(combinations(range(1, 13), 9), 0, 150, 5):
        block = Coalition.from_members(members)
        rest = Coalition(g.full_mask ^ block.mask)
        assert is_closed(g, Partition((block, rest)), ["split"])
    assert g._dp == {}
