"""Unit tests for the core model: values, coalitions, collections,
partitions, games, welfare, and exhaustive enumeration."""

import sys
import threading
from collections import deque
from fractions import Fraction

import pytest

from coalstab import (
    COLLECTION_ENUM_CAP,
    MAX_PLAYERS,
    PARTITION_ENUM_CAP,
    CapExceededError,
    Coalition,
    Collection,
    Game,
    Partition,
    as_value,
    enumerate_collections,
    enumerate_homogeneous_partitions,
    enumerate_partitions,
    format_value,
    frame,
    is_compatible,
    is_homogeneous,
    modified_social_welfare,
    social_welfare,
)
from coalstab.gamefile import serialize_game
from coalstab.model import MAX_VALUE_DIGITS
from conftest import bell


def _rgs_strings(k, prefix=()):
    """Every restricted-growth string of length k, lexicographic: each
    entry is at most one above the largest before it."""
    if len(prefix) == k:
        yield prefix
        return
    for b in range(max(prefix, default=-1) + 2):
        yield from _rgs_strings(k, prefix + (b,))


def _blocks(players, rgs):
    """The blocks a restricted-growth string assigns to ``players``."""
    return tuple(
        Coalition.from_members(p for p, b in zip(players, rgs) if b == j)
        for j in range(max(rgs) + 1)
    )


# ---------------------------------------------------------------------------
# values


class TestValues:
    def test_int_passthrough(self):
        assert as_value(7) == 7 and type(as_value(7)) is int

    def test_fraction_normalized_to_int(self):
        got = as_value(Fraction(6, 3))
        assert got == 2 and type(got) is int

    def test_fraction_kept_exact(self):
        assert as_value(Fraction(-3, 4)) == Fraction(-3, 4)

    @pytest.mark.parametrize(
        "text,expect",
        [("5", 5), ("-3/4", Fraction(-3, 4)), ("2.5", Fraction(5, 2)), (" 10/2 ", 5)],
    )
    def test_string_forms(self, text, expect):
        assert as_value(text) == expect

    def test_decimal_is_exact(self):
        from decimal import Decimal

        assert as_value(Decimal("0.1")) == Fraction(1, 10)

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False, None, [1]])
    def test_rejected_types(self, bad):
        with pytest.raises(TypeError):
            as_value(bad)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1//2"])
    def test_malformed_strings(self, bad):
        with pytest.raises(ValueError, match="malformed rational"):
            as_value(bad)

    # The int fast path agrees with Fraction(): the same value, or the same
    # exception type and message.
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("+5", 5), ("-0", 0), ("007", 7), ("1_0", 10), ("\u0661\u0662", 12), ("5.", 5),
            ("1e3", 1000), (" -12 ", -12), ("9" * 4300, 10**4300 - 1),
            ("1__0", ValueError("malformed rational: '1__0'")),
            ("_1", ValueError("malformed rational: '_1'")),
            ("0x10", ValueError("malformed rational: '0x10'")),
            ("9" * 4301, ValueError(
                f"rational too large: its numerator or denominator passes {MAX_VALUE_DIGITS} digits"
            )),
        ],
        ids=lambda x: x[:12] if isinstance(x, str) else None,
    )
    def test_literal_corpus(self, text, expect):
        if isinstance(expect, Exception):
            with pytest.raises(type(expect)) as info:
                as_value(text)
            assert str(info.value) == str(expect)
        else:
            got = as_value(text)
            assert got == expect == Fraction(text) and type(got) is int

    def test_format_round_trips(self):
        for v in (0, -7, Fraction(3, 2), Fraction(-1, 3)):
            assert as_value(format_value(v)) == v

    @pytest.mark.parametrize(
        "text",
        ["1e4299", "-100e4297", "0.5e4300", "1e-4299", "9" * 4300, "1/" + "7" * 4300, "2.5E3"],
    )
    def test_largest_literals_print_back(self, text):
        v = as_value(text)
        assert as_value(format_value(v)) == v

    @pytest.mark.parametrize(
        "text",
        ["1e4300", "1000e4297", "1e-4300", "0.1e-4299", "9" * 4301, "1/" + "7" * 4301,
         "0e5000", "1e1000000", "1E-123456789"],
    )
    def test_literals_past_the_digit_limit_refused(self, text):
        with pytest.raises(ValueError, match=f"passes {MAX_VALUE_DIGITS} digits"):
            as_value(text)

    def test_values_past_the_digit_limit_print(self):
        nines = 10**MAX_VALUE_DIGITS - 1
        limit = sys.get_int_max_str_digits()
        assert format_value(2 * nines) == "1" + "9" * (MAX_VALUE_DIGITS - 1) + "8"
        assert format_value(-2 * nines) == "-1" + "9" * (MAX_VALUE_DIGITS - 1) + "8"
        assert format_value(Fraction(2 * nines, 7)) == "1" + "9" * (MAX_VALUE_DIGITS - 1) + "8/7"
        assert format_value(Fraction(1, 7 * 10**MAX_VALUE_DIGITS)) == "1/7" + "0" * MAX_VALUE_DIGITS
        assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# coalitions


class TestCoalition:
    def test_of_and_mask(self):
        c = Coalition.of(1, 3)
        assert c.mask == 0b101
        assert c.members == (1, 3)
        assert c.least == 1
        assert len(c) == 2
        assert list(c) == [1, 3]
        assert 3 in c and 2 not in c

    def test_from_members_dedups(self):
        assert Coalition.from_members([2, 2, 4]) == Coalition.of(2, 4)

    def test_parse(self):
        assert Coalition.parse("{1,3}") == Coalition.of(1, 3)
        assert Coalition.parse(" { 2 , 5 } ") == Coalition.of(2, 5)

    @pytest.mark.parametrize("bad", ["", "{}", "{0}", "{a}", "{1.5}"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Coalition.parse(bad)

    def test_parse_is_lenient_about_braces(self):
        assert Coalition.parse("1 2") == Coalition.of(1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Coalition.of()
        with pytest.raises(ValueError):
            Coalition(0)

    def test_player_bounds(self):
        with pytest.raises(ValueError):
            Coalition.of(0)
        with pytest.raises(ValueError):
            Coalition.of(MAX_PLAYERS + 1)
        assert Coalition.of(MAX_PLAYERS).mask == 1 << (MAX_PLAYERS - 1)

    def test_str(self):
        assert str(Coalition.of(3, 1)) == "{1,3}"

    def test_hash_and_order(self):
        assert Coalition.of(1) < Coalition.of(2)
        assert len({Coalition.of(1, 2), Coalition.from_members((2, 1))}) == 1


# ---------------------------------------------------------------------------
# collections and partitions


class TestCollection:
    def test_canonical_order_by_least_member(self):
        c = Collection.of([3], [1, 4], [2])
        assert [str(b) for b in c.blocks] == ["{1,4}", "{2}", "{3}"]
        assert c.masks == (0b1001, 0b10, 0b100)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            Collection.of([1, 2], [2, 3])

    def test_equality_ignores_input_order(self):
        assert Collection.of([2], [1]) == Collection.of([1], [2])
        assert hash(Collection.of([2], [1])) == hash(Collection.of([1], [2]))

    def test_empty_collection_allowed(self):
        c = Collection.of()
        assert len(c) == 0 and c.union_mask == 0
        assert str(c) == "(empty)"

    def test_parse_both_styles(self):
        assert Collection.parse("{1,2} {3}") == Collection.of([1, 2], [3])
        assert Collection.parse("{{1,2},{3}}") == Collection.of([1, 2], [3])
        assert Collection.parse("") == Collection.of()
        assert Collection.parse(" { {1,2} , {3} } ") == Collection.of([1, 2], [3])

    @pytest.mark.parametrize("text", ["{1,2} oops {3}", "{1,2}{3}x", "{1,2} {3", "{{1}", "{1}}", "{ {1} } {2}"])
    def test_parse_rejects_text_outside_literals(self, text):
        with pytest.raises(ValueError, match="text outside the coalition literals"):
            Collection.parse(text)

    def test_subcollection(self):
        p = Partition.parse("{1,2} {3} {4}")
        assert Collection.of([3]).is_subcollection_of(p)
        assert not Collection.of([1]).is_subcollection_of(p)

    def test_union_mask_and_size(self):
        c = Collection.of([1, 2], [4])
        assert c.union_mask == 0b1011
        assert c.size == 2


class TestPartition:
    def test_cover_enforced(self):
        with pytest.raises(ValueError, match="missing"):
            Partition.of([1, 2], [4])
        with pytest.raises(ValueError):
            Partition(())

    def test_singletons_and_grand(self):
        s = Partition.singletons(3)
        assert s.masks == (1, 2, 4) and s.n == 3
        g = Partition.grand(3)
        assert g.masks == (7,) and g.n == 3

    def test_partition_equals_same_masked_collection(self):
        assert Partition.parse("{1,2} {3}") == Collection.of([1, 2], [3])

    def test_str_round_trip(self):
        p = Partition.parse("{2,4} {1,3}")
        assert str(p) == "{1,3} {2,4}"
        assert Partition.parse(str(p)) == p


# ---------------------------------------------------------------------------
# games


class TestGame:
    def test_from_table_with_default(self):
        g = Game.from_table(2, {(1, 2): 5}, default=1)
        assert g.mask_value(0b11) == 5
        assert g.mask_value(0b01) == 1
        assert g.mask_value(0) == 0

    def test_key_styles(self):
        g = Game.from_table(2, {Coalition.of(1): 1, 0b10: 2, (1, 2): 3})
        assert g.dense_table() == [0, 1, 2, 3]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Game.from_table(2, {Coalition.of(1): 1, (1,): 2})

    def test_empty_set_must_be_zero(self):
        with pytest.raises(ValueError, match="empty set"):
            Game.from_table(2, {(): 1})
        g = Game.from_table(2, {(): 0, (1, 2): 4})
        assert g.mask_value(0b11) == 4

    def test_float_values_rejected(self):
        with pytest.raises(TypeError):
            Game.from_table(2, {(1,): 0.5})

    def test_rule_backed_memoizes(self):
        calls = []

        def rule(mask):
            calls.append(mask)
            return mask

        g = Game.from_rule(3, rule)
        assert g.mask_value(5) == 5
        assert g.mask_value(5) == 5
        assert calls.count(5) == 1

    def test_dense_table_evaluates_each_mask_once(self):
        calls = []

        def rule(mask):
            calls.append(mask)
            return mask * 2

        g = Game.from_rule(5, rule)
        assert [g.mask_value(m) for m in (7, 1, 31)] == [14, 2, 62]
        assert g.dense_table() == [2 * m for m in range(32)]
        assert sorted(calls) == list(range(1, 32))
        assert g.mask_value(7) == 14 and g.dense_table() is g.dense_table()
        assert len(calls) == 31

    def test_dense_table_shared_across_threads(self):
        n, workers = 9, 8
        calls = []

        def rule(mask):
            calls.append(mask)
            return Fraction(mask % 7, 1 + mask % 3)

        expect = [0] + [Fraction(m % 7, 1 + m % 3) for m in range(1, 1 << n)]
        g = Game.from_rule(n, rule)
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def work(i):
            barrier.wait()
            mine = [g.mask_value(m) for m in range(i, 1 << n, workers)]
            results[i] = (mine, list(g.dense_table()), [g.mask_value(m) for m in range(1 << n)])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, (mine, table, values) in enumerate(results):
            assert mine == expect[i::workers]
            assert table == expect and values == expect
        assert sorted(calls) == list(range(1, 1 << n))

    def test_rule_game_evaluates_nothing_before_a_read(self):
        calls = []

        def rule(mask):
            calls.append(mask)
            return 0

        g = Game.from_rule(4, rule, family="generalized_odd", params={"n": 2})
        assert calls == []
        assert serialize_game(g).startswith("representation: rule\n")
        assert calls == []

    @pytest.mark.parametrize(
        "g",
        [Game.from_table(2, {(1, 2): 5, (1,): 1}), Game.from_rule(2, lambda m: m)],
        ids=["table", "rule"],
    )
    def test_mask_value_refuses_masks_outside_the_game(self, g):
        for mask in (-1, 4):
            with pytest.raises(ValueError, match="outside this 2-player game"):
                g.mask_value(mask)
        assert [g.mask_value(m) for m in range(4)] == list(g.dense_table())

    def test_rule_values_coerced(self):
        g = Game.from_rule(2, lambda m: "1/2")
        assert g.mask_value(1) == Fraction(1, 2)

    def test_value_checks_bounds(self):
        g = Game.from_table(2, {(1, 2): 1})
        with pytest.raises(ValueError, match="beyond"):
            g.value(Coalition.of(3))
        with pytest.raises(TypeError):
            g.value(0b11)

    def test_semantic_equality(self):
        a = Game.from_table(2, {(1,): 1, (2,): 2, (1, 2): 3})
        b = Game.from_rule(2, lambda m: [0, 1, 2, 3][m])
        assert a == b

    def test_need_exactly_one_source(self):
        with pytest.raises(ValueError):
            Game(2)
        with pytest.raises(ValueError):
            Game(2, table=[0, 1, 2, 3], rule=lambda m: 0)

    def test_a_float_entry_is_refused(self):
        with pytest.raises(TypeError, match="refusing float"):
            Game(2, table=[0, 1.5, 2, 3])

    def test_a_bool_entry_is_refused(self):
        with pytest.raises(TypeError, match="booleans"):
            Game(2, table=[0, True, 2, 3])

    def test_a_table_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="needs 4 values, got 3"):
            Game(2, table=[0, 1, 2])
        with pytest.raises(ValueError, match="needs 4 values, got 5"):
            Game(2, table=[0, 1, 2, 3, 4])

    def test_a_nonzero_empty_set_value_is_refused(self):
        # Kept, v[{}] = 5 would add 5 per block to the dc scan's piece sums.
        with pytest.raises(ValueError, match="empty set"):
            Game(3, table=[5, 1, 1, 5, 1, 2, 2, 3])

    def test_table_entries_are_read_through_as_value(self):
        v = [0, Fraction(1), Fraction(2, 4), "3/2"]
        g = Game(2, table=v)
        assert repr(g.dense_table()) == "[0, 1, Fraction(1, 2), Fraction(3, 2)]"
        assert repr(v) == "[0, Fraction(1, 1), Fraction(1, 2), '3/2']"  # the caller's list
        ints = [0, 1, 2, 3]
        assert Game(2, table=ints).dense_table() is ints

    def test_player_count_bounds(self):
        with pytest.raises(ValueError):
            Game.from_table(0, {})
        with pytest.raises(ValueError):
            Game.from_rule(MAX_PLAYERS + 1, lambda m: 0)


# ---------------------------------------------------------------------------
# frame / welfare / compatibility / homogeneity


class TestFrameAndWelfare:
    def setup_method(self):
        self.p = Partition.parse("{1,2} {3,4}")

    def test_frame_regroups(self):
        c = Collection.of([1, 3], [2])
        assert frame(c, self.p) == Collection.of([1, 2], [3])

    def test_frame_of_partition_is_partition(self):
        q = Partition.parse("{1,3} {2,4}")
        assert frame(q, self.p) == self.p

    def test_frame_of_subcollection_is_itself(self):
        c = Collection.of([3, 4])
        assert frame(c, self.p) == c

    def test_frame_idempotent(self):
        c = Collection.of([1, 3], [2])
        f = frame(c, self.p)
        assert frame(f, self.p) == f

    def test_frame_empty(self):
        assert frame(Collection.of(), self.p) == Collection.of()

    def test_frame_player_mismatch(self):
        with pytest.raises(ValueError, match="player-count mismatch"):
            frame(Collection.of([5]), self.p)

    def test_social_welfare(self):
        g = Game.from_table(4, {(1, 2): 3, (3, 4): 2}, default=1)
        assert social_welfare(g, self.p) == 5
        assert social_welfare(g, Collection.of()) == 0

    def test_welfare_values_follow_as_value(self):
        g = Game.from_table(2, {(1,): Fraction(1, 2), (2,): Fraction(1, 2), (1, 2): Fraction(1, 3)})
        p = Partition.parse("{1} {2}")
        assert repr(social_welfare(g, p)) == "1"
        assert repr(modified_social_welfare(g, Collection.of([1], [2]), p)) == "1"
        assert repr(social_welfare(g, Collection.of([1]))) == "Fraction(1, 2)"
        assert repr(social_welfare(g, Partition.grand(2))) == "Fraction(1, 3)"

    def test_modified_social_welfare(self):
        g = Game.from_table(4, {(1, 2): 3, (3, 4): 2}, default=1)
        c = Collection.of([1, 3], [2, 4])
        # the collection is a partition of all players, so the framed
        # welfare is the partition's own welfare
        assert modified_social_welfare(g, c, self.p) == 5
        assert modified_social_welfare(g, Collection.of([1], [2]), self.p) == 3

    def test_welfare_player_mismatch(self):
        g = Game.from_table(2, {(1, 2): 1})
        with pytest.raises(ValueError, match="player-count mismatch"):
            social_welfare(g, Partition.parse("{1,2} {3}"))
        with pytest.raises(ValueError, match="player-count mismatch"):
            modified_social_welfare(g, Collection.of([1]), Partition.parse("{1,2} {3}"))

    def test_is_compatible(self):
        assert is_compatible(Coalition.of(1, 2), self.p)
        assert is_compatible(Coalition.of(3), self.p)
        assert not is_compatible(Coalition.of(2, 3), self.p)
        with pytest.raises(ValueError, match="player-count mismatch"):
            is_compatible(Coalition.of(5), self.p)

    def test_is_homogeneous(self):
        p = Partition.parse("{1,2} {3,4}")
        assert is_homogeneous(Partition.parse("{1,2,3,4}"), p)  # merge
        assert is_homogeneous(Partition.parse("{1} {2} {3,4}"), p)  # split
        assert is_homogeneous(p, p)
        assert not is_homogeneous(Partition.parse("{1,3} {2,4}"), p)
        assert not is_homogeneous(Partition.parse("{1,2,3} {4}"), p)
        with pytest.raises(ValueError, match="player-count mismatch"):
            is_homogeneous(Partition.grand(3), p)


# ---------------------------------------------------------------------------
# enumeration


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_partition_counts_are_bell(self, n):
        assert sum(1 for _ in enumerate_partitions(n)) == bell(n)

    def test_partitions_distinct_and_cover(self):
        seen = set(enumerate_partitions(4))
        assert len(seen) == bell(4)
        assert all(isinstance(p, Partition) and p.n == 4 for p in seen)

    def test_first_partition_is_grand_like(self):
        # restricted-growth order opens with everything in one block
        assert next(iter(enumerate_partitions(3))) == Partition.grand(3)

    def test_partitions_of_a_coalition_are_collections(self):
        got = list(enumerate_partitions(Coalition.of(2, 4)))
        assert got == [Collection.of([2, 4]), Collection.of([2], [4])]
        assert not any(isinstance(c, Partition) for c in got)

    def test_partitions_of_iterable(self):
        assert sum(1 for _ in enumerate_partitions([1, 2, 3])) == bell(3)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_order_matches_restricted_growth_reference(self, n):
        players = range(1, n + 1)
        expect = [Partition(_blocks(players, s)) for s in _rgs_strings(n)]
        assert list(enumerate_partitions(n)) == expect

    def test_order_on_a_coalition_matches_reference(self):
        players = [2, 3, 5, 8, 9, 12]
        expect = [Collection(_blocks(players, s)) for s in _rgs_strings(6)]
        assert list(enumerate_partitions(Coalition.from_members(players))) == expect

    def test_ten_players(self):
        # Bell(10) distinct partitions; the first and last match the reference
        got = [p.masks for p in enumerate_partitions(10)]
        assert len(set(got)) == len(got) == bell(10)
        reference = _rgs_strings(10)
        assert got[0] == Partition(_blocks(range(1, 11), next(reference))).masks
        (ref_last,) = deque(reference, maxlen=1)
        assert got[-1] == Partition(_blocks(range(1, 11), ref_last)).masks

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_collection_counts(self, n):
        # collections over n players (including the empty one) number Bell(n+1)
        assert sum(1 for _ in enumerate_collections(n)) == bell(n + 1)

    def test_collections_start_empty_and_distinct(self):
        got = list(enumerate_collections(2))
        assert got[0] == Collection.of()
        assert len(set(got)) == len(got) == bell(3)

    def test_homogeneous_matches_definition(self):
        p = Partition.parse("{1,2} {3} {4,5}")
        via_generator = set(enumerate_homogeneous_partitions(p))
        via_filter = {q for q in enumerate_partitions(5) if is_homogeneous(q, p)}
        assert via_generator == via_filter

    def test_homogeneous_counts(self):
        # one lone block of size two: merge-with-nothing or split it
        assert sum(1 for _ in enumerate_homogeneous_partitions(Partition.parse("{1,2}"))) == 2

    def test_caps(self):
        with pytest.raises(CapExceededError):
            next(enumerate_partitions(PARTITION_ENUM_CAP + 1))
        with pytest.raises(CapExceededError):
            next(enumerate_collections(COLLECTION_ENUM_CAP + 1))
        with pytest.raises(CapExceededError):
            next(
                enumerate_homogeneous_partitions(
                    Partition.singletons(PARTITION_ENUM_CAP + 1)
                )
            )
