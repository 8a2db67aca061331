"""Unit tests for the stability checkers: frozen verdicts and witnesses on
the bundled example games, cross-checks against the definitional oracles,
witness re-verification, and the additivity/superadditivity shortcuts."""

import pytest

from coalstab import (
    DC,
    DHP,
    DP,
    STABLE,
    BlockSplit,
    CapExceededError,
    Coalition,
    Collection,
    DefectingCollection,
    DefectionKind,
    Game,
    GeneratorSpec,
    IncompatibleSet,
    IntraBlockPair,
    Partition,
    Verdict,
    all_maximizers,
    check_dc,
    check_dc_strict,
    check_definitional,
    check_dhp,
    check_dp,
    check_dp_k,
    check_dp_k_strict,
    check_strict_dhp,
    check_strict_dp,
    corollary_shortcuts,
    dp_k,
    enumerate_partitions,
    example_game,
    find_dc_stable,
    is_additive,
    is_superadditive,
    kind_from_string,
    random_game,
)
from conftest import witness_violates

EXA_A = example_game("exa-a")
EXA_1 = example_game("exa-1")
EXA_MISS = example_game("exa-miss")
EXA_2 = example_game("exa-2")
EXA_MISS1 = example_game("exa-miss1")

STABLE_PAIRING = Partition.parse("{1,2} {3,4}")
TRAP_PAIRING = Partition.parse("{1,3} {2,4}")


class TestKinds:
    def test_singletons(self):
        assert str(DC) == "dc" and str(DP) == "dp" and str(DHP) == "dhp"

    def test_dp_k(self):
        k = dp_k(3)
        assert k.family == "dpk" and k.k == 3 and str(k) == "dpk:3"

    def test_kind_from_string(self):
        assert kind_from_string("dc") == DC
        assert kind_from_string("dpk:2") == dp_k(2)
        with pytest.raises(ValueError):
            kind_from_string("nope")
        with pytest.raises(ValueError):
            kind_from_string("dpk:0")

    @pytest.mark.parametrize("text", ["dpkzz:2", "dpk2", "dpk-:3", "dp:2", "dhpx"])
    def test_malformed_notions_are_refused(self, text):
        # only the exact word before the colon names a family
        with pytest.raises(ValueError, match="unknown stability notion"):
            kind_from_string(text)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            DefectionKind("dc", k=1)
        with pytest.raises(ValueError):
            DefectionKind("dpk")


class TestVerdict:
    def test_truthiness(self):
        assert STABLE
        assert not Verdict(False, IncompatibleSet(Coalition.of(1, 2), 0, 1))

    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            Verdict(True, IncompatibleSet(Coalition.of(1, 2), 0, 1))
        with pytest.raises(ValueError):
            Verdict(False, None)


class TestDcOnExamples:
    def test_no_dc_stable_partition_in_three_player_example(self):
        for p in enumerate_partitions(3):
            verdict = check_dc(EXA_A, p)
            assert not verdict.stable
            assert witness_violates(EXA_A, p, verdict.witness)

    def test_grand_witness_frozen(self):
        w = check_dc(EXA_A, Partition.grand(3)).witness
        assert w == IntraBlockPair(0, Coalition.of(1, 3), Coalition.of(2), 7, 6)

    def test_singletons_witness_frozen(self):
        w = check_dc(EXA_A, Partition.singletons(3)).witness
        assert w == IncompatibleSet(Coalition.of(2, 3), 4, 5)

    def test_stable_pairing(self):
        assert check_dc(EXA_MISS, STABLE_PAIRING).stable

    def test_stable_pairing_not_strict(self):
        v = check_dc_strict(EXA_MISS, STABLE_PAIRING)
        assert not v.stable
        # splitting {3,4} into singletons ties: 1 + 1 = 2
        assert v.witness == IntraBlockPair(1, Coalition.of(3), Coalition.of(4), 2, 2)
        assert witness_violates(EXA_MISS, STABLE_PAIRING, v.witness, strict=True)

    def test_trap_pairing_unstable(self):
        v = check_dc(EXA_MISS, TRAP_PAIRING)
        assert v.witness == IncompatibleSet(Coalition.of(1, 2), 2, 3)
        assert witness_violates(EXA_MISS, TRAP_PAIRING, v.witness)

    def test_strict_implies_nonstrict(self):
        for name in ("exa-a", "exa-1", "exa-miss", "exa-2", "exa-miss1"):
            g = example_game(name)
            for p in enumerate_partitions(g.n):
                if check_dc_strict(g, p).stable:
                    assert check_dc(g, p).stable


class TestDpOnExamples:
    def test_trap_not_dp_stable(self):
        v = check_dp(EXA_MISS, TRAP_PAIRING)
        assert not v.stable
        assert v.witness.framed_welfare == 4 and v.witness.welfare == 5
        assert witness_violates(EXA_MISS, TRAP_PAIRING, v.witness)

    def test_stable_pairing_is_dp_stable_but_not_uniquely(self):
        assert check_dp(EXA_MISS, STABLE_PAIRING).stable
        v = check_strict_dp(EXA_MISS, STABLE_PAIRING)
        assert not v.stable
        # the rival maximizer also reaches 5
        assert v.witness == DefectingCollection(
            Partition.parse("{1,2} {3} {4}"), 5, 5
        )
        assert witness_violates(EXA_MISS, STABLE_PAIRING, v.witness, strict=True)

    def test_unique_maximizer_is_strictly_dp_stable(self):
        assert check_strict_dp(EXA_MISS1, Partition.parse("{1,2} {3}")).stable

    def test_non_maximizer_witness_frozen(self):
        v = check_strict_dp(EXA_MISS1, Partition.parse("{1,3} {2}"))
        assert v.witness == DefectingCollection(Partition.parse("{1,2} {3}"), 3, 4)

    def test_singletons_in_four_player_example(self):
        v = check_dp(EXA_2, Partition.singletons(4))
        assert v.witness == DefectingCollection(STABLE_PAIRING, 4, 8)
        assert witness_violates(EXA_2, Partition.singletons(4), v.witness)


class TestDpkOnExamples:
    def test_grand_is_best_single_block(self):
        assert check_dp_k(EXA_A, Partition.grand(3), 1).stable
        assert check_dp_k_strict(EXA_A, Partition.grand(3), 1).stable

    def test_pair_partition_ties_under_bound_two(self):
        p = Partition.parse("{1,2} {3}")
        assert check_dp_k(EXA_A, p, 2).stable
        v = check_dp_k_strict(EXA_A, p, 2)
        assert not v.stable
        assert v.witness == DefectingCollection(Partition.parse("{1,3} {2}"), 7, 7)
        assert witness_violates(EXA_A, p, v.witness, strict=True)

    def test_bound_violations_raise(self):
        with pytest.raises(ValueError, match="exceeds size bound"):
            check_dp_k(EXA_A, Partition.singletons(3), 2)
        with pytest.raises(ValueError, match="size bound k"):
            check_dp_k(EXA_A, Partition.grand(3), 0)
        with pytest.raises(TypeError):
            check_dp_k(EXA_A, Partition.grand(3), "2")


class TestDhpOnExamples:
    def test_trap_is_dhp_stable(self):
        assert check_dhp(EXA_MISS, TRAP_PAIRING).stable

    def test_trap_not_strictly_dhp_stable(self):
        v = check_strict_dhp(EXA_MISS, TRAP_PAIRING)
        assert v.witness == BlockSplit(
            0, Collection.of([1], [3]), whole_value=2, parts_value=2
        )
        assert witness_violates(EXA_MISS, TRAP_PAIRING, v.witness, strict=True)

    def test_three_player_examples(self):
        assert check_dhp(EXA_MISS1, Partition.parse("{1,3} {2}")).stable
        assert check_strict_dhp(EXA_MISS1, Partition.parse("{1,2} {3}")).stable
        assert not check_strict_dhp(EXA_MISS1, Partition.parse("{1,3} {2}")).stable

    def test_witnesses_verify_everywhere(self):
        for name in ("exa-a", "exa-1", "exa-miss", "exa-2", "exa-miss1"):
            g = example_game(name)
            for p in enumerate_partitions(g.n):
                for checker, strict in (
                    (check_dhp, False),
                    (check_strict_dhp, True),
                ):
                    v = checker(g, p)
                    if not v.stable:
                        assert witness_violates(g, p, v.witness, strict=strict)

    @pytest.mark.parametrize("strict", [False, True])
    def test_merge_scan_matches_unions_built_from_scratch(self, strict):
        # the scan keeps its unions and sums running; each yield must equal
        # the subset's own bit pattern, union and exact sum, of the same
        # type, in bit-pattern order (values mix ints and Fractions)
        from fractions import Fraction
        from random import Random

        from coalstab.model import as_value
        from coalstab.stability import _gaining_merges, _indices

        rng = Random(3)
        for _ in range(40):
            n = rng.randrange(2, 9)
            v = [0] + [
                as_value(Fraction(rng.randrange(-3, 12), rng.choice((1, 2, 3))))
                for _ in range(1, 1 << n)
            ]
            pmasks = rng.choice(list(enumerate_partitions(n))).masks
            expect = []
            for tmask in range(1 << len(pmasks)):
                if tmask.bit_count() < 2:
                    continue
                idx = tuple(j for j in range(len(pmasks)) if tmask >> j & 1)
                union = sum(pmasks[j] for j in idx)
                separate = sum(v[pmasks[j]] for j in idx)
                if separate < v[union] or (strict and separate == v[union]):
                    expect.append((tmask, idx, union, separate, type(separate), v[union]))
            got = [(t, _indices(t), u, s, type(s), m) for t, u, s, m in _gaining_merges(v, pmasks, strict)]
            assert got == expect


class TestOracleAgreement:
    """The fast checkers must agree verdict-for-verdict with the
    definitional brute-force oracles on every example game and partition."""

    NAMES = ("exa-a", "exa-1", "exa-miss", "exa-2", "exa-miss1")

    @pytest.mark.parametrize("name", NAMES)
    def test_all_notions(self, name):
        g = example_game(name)
        for p in enumerate_partitions(g.n):
            pairs = [
                (check_dc(g, p), check_definitional(g, p, "dc")),
                (check_dc_strict(g, p), check_definitional(g, p, "dc", strict=True)),
                (check_dp(g, p), check_definitional(g, p, "dp")),
                (check_strict_dp(g, p), check_definitional(g, p, "dp", strict=True)),
                (check_dhp(g, p), check_definitional(g, p, "dhp")),
                (check_strict_dhp(g, p), check_definitional(g, p, "dhp", strict=True)),
            ]
            for fast, slow in pairs:
                assert fast.stable == slow.stable

    @pytest.mark.parametrize("name", NAMES)
    def test_dpk_against_oracle(self, name):
        g = example_game(name)
        for p in enumerate_partitions(g.n):
            for k in range(len(p), g.n + 1):
                assert (
                    check_dp_k(g, p, k).stable
                    == check_definitional(g, p, dp_k(k)).stable
                )
                assert (
                    check_dp_k_strict(g, p, k).stable
                    == check_definitional(g, p, dp_k(k), strict=True).stable
                )

    def test_oracle_witnesses_verify(self):
        for p in enumerate_partitions(4):
            v = check_definitional(EXA_MISS, p, "dc")
            if not v.stable:
                assert witness_violates(EXA_MISS, p, v.witness)
            vs = check_definitional(EXA_MISS, p, "dc", strict=True)
            if not vs.stable:
                assert witness_violates(EXA_MISS, p, vs.witness, strict=True)

    def test_inclusion_chain_on_examples(self):
        # dc-stability implies dp-stability implies dhp-stability
        for name in self.NAMES:
            g = example_game(name)
            for p in enumerate_partitions(g.n):
                if check_dc(g, p).stable:
                    assert check_dp(g, p).stable
                if check_dp(g, p).stable:
                    assert check_dhp(g, p).stable


class TestValidation:
    def test_player_count_mismatch(self):
        with pytest.raises(ValueError, match="player-count mismatch"):
            check_dc(EXA_A, Partition.grand(4))
        with pytest.raises(ValueError, match="player-count mismatch"):
            check_dhp(EXA_2, Partition.grand(3))


class TestAdditivity:
    def test_additive_detected(self):
        g = Game.from_table(3, {(1,): 1, (2,): 2, (3,): 4, (1, 2): 3,
                                (1, 3): 5, (2, 3): 6, (1, 2, 3): 7})
        assert is_additive(g)

    def test_one_deviation_breaks_it(self):
        g = Game.from_table(3, {(1,): 1, (2,): 2, (3,): 4, (1, 2): 3,
                                (1, 3): 5, (2, 3): 6, (1, 2, 3): 8})
        assert not is_additive(g)

    def test_additive_means_every_partition_dc_stable(self):
        g = random_game(GeneratorSpec(n=4, kind="additive", seed=7))
        assert is_additive(g)
        for p in enumerate_partitions(4):
            assert check_dc(g, p).stable

    def test_examples_are_not_additive(self):
        for name in ("exa-a", "exa-1", "exa-miss", "exa-2", "exa-miss1"):
            assert not is_additive(example_game(name))


class TestSuperadditivity:
    def test_additive_is_superadditive_but_not_strictly(self):
        g = random_game(GeneratorSpec(n=4, kind="additive", seed=1))
        assert is_superadditive(g)
        assert not is_superadditive(g, strict=True)

    @pytest.mark.parametrize("n", [4, 11, 12])
    def test_strictly_superadditive(self, n):
        # Past ten players the grand partition, the unique maximizer, is
        # still listed, checked and found.
        g = Game.from_rule(n, lambda m: m.bit_count() ** 2)
        grand = Partition.grand(n)
        assert all_maximizers(g) == [grand]
        assert check_strict_dp(g, grand).stable
        assert find_dc_stable(g) == grand
        assert is_superadditive(g, strict=True)

    def test_examples(self):
        assert not is_superadditive(EXA_A)  # 5 + 2 > 6 for a pair plus the rest
        assert not is_superadditive(example_game("exa-miss"))


class TestCorollaryShortcuts:
    def test_superadditive_grand(self):
        g = Game.from_rule(4, lambda m: m.bit_count() ** 2)
        rep = corollary_shortcuts(g)
        assert rep.grand_stable and rep.grand_unique
        assert not rep.singletons_stable
        assert check_dc(g, Partition.grand(4)).stable
        assert check_dc_strict(g, Partition.grand(4)).stable
        assert find_dc_stable(g) == Partition.grand(4)

    def test_subadditive_singletons(self):
        g = Game.from_table(3, {(1,): 1, (2,): 1, (3,): 1}, default=0)
        rep = corollary_shortcuts(g)
        assert rep.singletons_stable and rep.singletons_unique
        assert not rep.grand_stable
        assert check_dc(g, Partition.singletons(3)).stable

    def test_additive_game_has_both_non_uniquely(self):
        g = random_game(GeneratorSpec(n=3, kind="additive", seed=3))
        rep = corollary_shortcuts(g)
        assert rep.grand_stable and rep.singletons_stable
        assert not rep.grand_unique and not rep.singletons_unique

    def test_examples_have_neither(self):
        rep = corollary_shortcuts(EXA_A)
        assert rep == (False, False, False, False) or (
            not rep.grand_stable and not rep.singletons_stable
        )

    def test_agrees_with_checkers_on_random_games(self):
        for seed in range(30):
            g = random_game(GeneratorSpec(n=4, kind="general", seed=300 + seed))
            rep = corollary_shortcuts(g)
            assert rep.grand_stable == check_dc(g, Partition.grand(4)).stable
            assert (
                rep.singletons_stable
                == check_dc(g, Partition.singletons(4)).stable
            )
            if rep.grand_unique:
                assert check_dc_strict(g, Partition.grand(4)).stable
            if rep.singletons_unique:
                assert check_dc_strict(g, Partition.singletons(4)).stable


class TestFindDcStable:
    def test_finds_the_stable_pairing(self):
        assert find_dc_stable(EXA_MISS) == STABLE_PAIRING

    def test_none_when_absent(self):
        assert find_dc_stable(EXA_A) is None
        assert find_dc_stable(EXA_1) is None
        assert find_dc_stable(EXA_2) is None

    def test_searches_past_the_listing_cap(self):
        # All Bell(12) partitions tie, more than a listing may hold, and
        # the first the search vets, the grand partition, is dc-stable.
        assert find_dc_stable(Game(12, table=[0] * (1 << 12))) == Partition.grand(12)

    def test_refuses_once_the_cap_is_vetted(self, monkeypatch):
        # exa-1 with a null player: 7 maximizers, none dc-stable.  The
        # search vets at most the listing cap of them and refuses only
        # when more are left.
        import coalstab.solver as solver
        import coalstab.stability as stability

        v = EXA_1.dense_table()
        g = Game(5, table=[v[m & 15] for m in range(32)])
        assert len(all_maximizers(g)) == 7
        for cap, refused in ((7, False), (6, True)):
            monkeypatch.setattr(solver, "_LISTING_CAP", cap)
            monkeypatch.setattr(stability, "_LISTING_CAP", cap)
            if refused:
                with pytest.raises(CapExceededError, match="7 maximizers exceed Bell"):
                    find_dc_stable(g)
            else:
                assert find_dc_stable(g) is None

    def test_agrees_with_exhaustive_search(self):
        for seed in range(25):
            g = random_game(GeneratorSpec(n=4, kind="general", seed=400 + seed))
            got = find_dc_stable(g)
            exhaustive = [
                p for p in enumerate_partitions(4) if check_dc(g, p).stable
            ]
            if exhaustive:
                assert got in exhaustive
            else:
                assert got is None


class TestKnownLimitsOfTheoreticalShortcuts:
    """Regression pins for facts the fast checkers must get right even
    where simpler folklore shortcuts would get them wrong."""

    def test_two_maximizers_in_the_trap_example(self):
        # welfare 5 is reached twice, so strict dp-stability fails everywhere
        assert len(all_maximizers(EXA_MISS)) == 2
        for p in enumerate_partitions(4):
            assert not check_strict_dp(EXA_MISS, p).stable

    # Two pairings tie for the optimum, but neither is a merge/split
    # rearrangement of the other, so strict dhp-stability holds for both
    # while strict dp-stability holds for neither.
    CROSSED = Game.from_table(4, {(1, 2): 2, (3, 4): 2, (1, 3): 2, (2, 4): 2})

    def test_strict_dhp_differs_from_strict_dp(self):
        p = Partition.parse("{1,2} {3,4}")
        assert check_strict_dhp(self.CROSSED, p).stable
        assert not check_strict_dp(self.CROSSED, p).stable
        # and the oracle agrees
        assert check_definitional(self.CROSSED, p, "dhp", strict=True).stable

    def test_strict_dhp_not_unique(self):
        stable = [
            p
            for p in enumerate_partitions(4)
            if check_strict_dhp(self.CROSSED, p).stable
        ]
        assert Partition.parse("{1,2} {3,4}") in stable
        assert Partition.parse("{1,3} {2,4}") in stable
