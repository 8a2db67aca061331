"""Unit tests for the game library: named examples, the odd-players
family, block-power games, the transportation model, and the seeded
random generator."""

import hashlib
import math
from fractions import Fraction

import pytest

from coalstab import (
    EXAMPLE_NAMES,
    CityConfig,
    Coalition,
    GameClass,
    GeneratorSpec,
    Partition,
    all_maximizers,
    check_dc,
    check_dc_strict,
    example_game,
    generalized_odd_game,
    is_additive,
    is_superadditive,
    odds_evens_partition,
    optimal_partition,
    pairs_partition,
    partition_power_game,
    random_game,
    transportation_game,
)
from coalstab.model import MAX_PLAYERS, MAX_VALUE_DIGITS
from conftest import bell


class TestExampleGames:
    def test_names(self):
        assert EXAMPLE_NAMES == ("exa-a", "exa-1", "exa-miss", "exa-2", "exa-miss1")
        for name in EXAMPLE_NAMES:
            g = example_game(name)
            assert g.family == "example" and g.params == {"name": name}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown example"):
            example_game("exa-zzz")

    def test_tables_frozen(self):
        assert example_game("exa-a").dense_table() == [0, 2, 2, 5, 2, 5, 5, 6]
        assert example_game("exa-1").dense_table() == [
            0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]
        assert example_game("exa-miss").dense_table() == [
            0, 1, 1, 3, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        ]
        assert example_game("exa-2").dense_table() == [
            0, 1, 1, 4, 1, 3, 2, 3, 1, 2, 2, 3, 4, 3, 3, 6,
        ]
        assert example_game("exa-miss1").dense_table() == [0, 1, 1, 3, 1, 2, 2, 3]


class TestGeneralizedOdd:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_values(self, n):
        g = generalized_odd_game(n)
        assert g.n == 2 * n
        odds_mask = odds_evens_partition(n).masks[0]
        assert g.mask_value(odds_mask) == n + 1
        assert g.mask_value(g.full_mask) == 2 * n
        assert g.mask_value(0b11) == 2

    def test_partition_helpers(self):
        assert str(odds_evens_partition(2)) == "{1,3} {2,4}"
        assert str(pairs_partition(2)) == "{1,2} {3,4}"
        assert str(pairs_partition(3)) == "{1,2} {3,4} {5,6}"

    @pytest.mark.parametrize("n", [2, 3])
    def test_optimum_and_maximizers(self, n):
        g = generalized_odd_game(n)
        res = optimal_partition(g)
        assert res.optimum == 2 * n + 1
        maxi = all_maximizers(g)
        # exactly the partitions that keep the odd block whole: the even
        # players can then split any way at no cost, Bell(n) ways
        assert len(maxi) == bell(n)
        odds_mask = odds_evens_partition(n).masks[0]
        assert all(odds_mask in q.masks for q in maxi)
        assert odds_evens_partition(n) in maxi

    def test_validation(self):
        with pytest.raises(ValueError):
            generalized_odd_game(1)
        with pytest.raises(ValueError):
            generalized_odd_game(11)  # 22 players is past the cap
        with pytest.raises(TypeError):
            generalized_odd_game("2")


class TestPartitionPower:
    def test_values(self):
        p = Partition.parse("{1,2,3} {4}")
        g = partition_power_game(p, 2)
        assert g.mask_value(0b0111) == 9
        assert g.mask_value(0b0011) == 4
        assert g.mask_value(0b1000) == 1
        assert g.mask_value(0b1001) == 0  # straddles blocks
        assert g.mask_value(g.full_mask) == 0

    def test_quadratic_blocks_are_strictly_stable(self):
        p = Partition.parse("{1,2} {3,4,5}")
        g = partition_power_game(p, 2)
        assert check_dc_strict(g, p).stable

    def test_linear_blocks_are_stable_but_not_strictly(self):
        p = Partition.parse("{1,2} {3,4,5}")
        g = partition_power_game(p, 1)
        assert check_dc(g, p).stable
        assert not check_dc_strict(g, p).stable

    def test_validation(self):
        p = Partition.grand(3)
        with pytest.raises(ValueError):
            partition_power_game(p, 0)
        # 2**14284 has 4300 digits, 2**14285 has 4301.
        pair = Partition.parse("{1,2} {3}")
        assert len(str(partition_power_game(pair, 14284).mask_value(0b11))) == MAX_VALUE_DIGITS
        with pytest.raises(ValueError, match=f"with 2\\*\\*m within {MAX_VALUE_DIGITS} digits"):
            partition_power_game(pair, 14285)
        assert partition_power_game(Partition.singletons(3), 10**9).mask_value(0b100) == 1
        with pytest.raises(TypeError):
            partition_power_game("{1,2}", 2)

    @pytest.mark.parametrize("top", range(2, MAX_PLAYERS + 1))
    def test_largest_exponent_for_each_block_size(self, top):
        # The largest m with top**m below 10**MAX_VALUE_DIGITS, by exact
        # int comparisons from an estimate: accepted, and m + 1 refused.
        limit, m = 10**MAX_VALUE_DIGITS, int(MAX_VALUE_DIGITS / math.log10(top))
        while top**m >= limit:
            m -= 1
        while top ** (m + 1) < limit:
            m += 1
        grand = Partition.grand(top)
        assert partition_power_game(grand, m).params["m"] == m
        with pytest.raises(ValueError, match="within"):
            partition_power_game(grand, m + 1)


TWO_CITIES = CityConfig(
    cities=Partition.parse("{1,2} {3,4}"),
    base=(6, 4),
    decay=("1/2", "1/2"),
    penalty=2,
)


class TestTransportation:
    def test_costs_frozen(self):
        _, cost = transportation_game(TWO_CITIES)
        assert cost(Coalition.of(1)) == 6
        assert cost(Coalition.of(3)) == 4
        assert cost(Coalition.of(1, 2)) == 6  # 6 * 2 * (1/2)
        assert cost(Coalition.of(3, 4)) == 4
        # cross-city: worst per-store piece cost 6, doubled, times 2 stores
        assert cost(Coalition.of(1, 3)) == 24
        assert cost(0b1111) == 24  # pieces cost 3 and 2 per store; 2*4*3

    def test_values_frozen(self):
        g, _ = transportation_game(TWO_CITIES)
        assert g.mask_value(0b0001) == 0  # alone saves nothing
        assert g.mask_value(0b0011) == 6
        assert g.mask_value(0b1100) == 4
        assert g.mask_value(0b0101) == -14
        assert g.mask_value(0b1111) == -4
        assert g.family == "transportation"

    def test_fractional_costs_stay_exact(self):
        cfg = CityConfig(
            cities=Partition.grand(3), base=("5/3",), decay=("2/3",), penalty="3/2"
        )
        g, cost = transportation_game(cfg)
        assert cost(0b111) == Fraction(5, 3) * 3 * Fraction(4, 9)
        assert g.mask_value(0b111) == 5 - Fraction(20, 9)

    def test_per_city_partition_strictly_stable(self):
        g, _ = transportation_game(TWO_CITIES)
        assert check_dc_strict(g, TWO_CITIES.cities).stable

    def test_cost_argument_validation(self):
        _, cost = transportation_game(TWO_CITIES)
        with pytest.raises(TypeError):
            cost("1")
        with pytest.raises(ValueError):
            cost(1 << 10)
        assert cost(0) == 0

    def test_config_validation(self):
        good = dict(
            cities=Partition.parse("{1,2} {3,4}"),
            base=(6, 4),
            decay=("1/2", "1/2"),
            penalty=2,
        )
        with pytest.raises(ValueError, match="positive"):
            CityConfig(**{**good, "base": (0, 4)})
        with pytest.raises(ValueError, match="strictly between"):
            CityConfig(**{**good, "decay": (1, "1/2")})
        with pytest.raises(ValueError, match="exceed 1"):
            CityConfig(**{**good, "penalty": 1})
        with pytest.raises(ValueError, match="one base cost and one decay"):
            CityConfig(**{**good, "base": (6,)})
        with pytest.raises(TypeError):
            CityConfig(**{**good, "cities": "{1,2} {3,4}"})
        with pytest.raises(TypeError):
            transportation_game("not a config")


class TestRandomGames:
    def test_tables_pinned(self):
        digest = hashlib.sha256()
        for kind in GameClass:
            for n in range(1, 9):
                for seed in range(5):
                    table = random_game(GeneratorSpec(n, kind, seed=seed)).dense_table()
                    digest.update(f"{kind.value}|{n}|{seed}:{','.join(map(str, table))}\n".encode())
        assert digest.hexdigest() == (
            "57bb94a8a2e1ff02d5eae3f5c01ba214ac3285a4e2f2133c7350ec5eaea0e437"
        )

    def test_deterministic(self):
        a = random_game(GeneratorSpec(n=5, kind="general", seed=42))
        b = random_game(GeneratorSpec(n=5, kind="general", seed=42))
        assert a == b
        c = random_game(GeneratorSpec(n=5, kind="general", seed=43))
        assert a != c

    def test_class_certification(self):
        for seed in range(10):
            assert is_additive(random_game(GeneratorSpec(n=4, kind="additive", seed=seed)))
            assert is_superadditive(
                random_game(GeneratorSpec(n=4, kind="superadditive", seed=seed))
            )
            assert is_superadditive(
                random_game(GeneratorSpec(n=4, kind="strictly-superadditive", seed=seed)),
                strict=True,
            )

    def test_kind_accepts_strings_and_enum(self):
        assert GeneratorSpec(n=3, kind="additive").kind is GameClass.ADDITIVE
        assert GeneratorSpec(n=3, kind=GameClass.GENERAL).kind is GameClass.GENERAL

    def test_general_respects_range(self):
        g = random_game(GeneratorSpec(n=4, kind="general", low=2, high=3, seed=9))
        assert all(2 <= v <= 3 for v in g.dense_table()[1:])

    def test_provenance_params(self):
        g = random_game(GeneratorSpec(n=3, kind="additive", seed=5))
        assert g.family == "random"
        assert g.params == {
            "n": 3, "class": "additive", "low": 0, "high": 6, "seed": 5,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=9)
        with pytest.raises(ValueError):
            GeneratorSpec(n=3, kind="weird")
        with pytest.raises(ValueError):
            GeneratorSpec(n=3, low=5, high=2)
        with pytest.raises(TypeError):
            GeneratorSpec(n=3, seed="x")
        with pytest.raises(TypeError):
            random_game({"n": 3})
