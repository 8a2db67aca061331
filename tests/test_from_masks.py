"""The trusted builder ``model._from_masks``: every site that uses it must
hand it canonical masks, listings share one Coalition per mask, the public
entry points that read outside input keep their checks, and the dynamics
list rule payloads in their documented order."""

import hashlib
import re

import pytest

import coalstab.cli as cli
import coalstab.dynamics as dynamics
import coalstab.gamefile as gamefile
import coalstab.games as games
import coalstab.model as model
import coalstab.solver as solver
import coalstab.stability as stability
from coalstab import (
    ALL_RULES,
    Coalition,
    Collection,
    Game,
    GameClass,
    GeneratorSpec,
    Merge,
    Partition,
    RuleName,
    all_maximizers,
    applicable_rules,
    check_definitional,
    check_dhp,
    check_dp_k_strict,
    closure_outcomes,
    enumerate_collections,
    enumerate_homogeneous_partitions,
    enumerate_partitions,
    frame,
    iterate,
    odds_evens_partition,
    optimal_partition,
    optimal_partition_bounded,
    pairs_partition,
    random_game,
    step,
)


def _zero(n):
    return Game.from_table(n, {})


def _split_gains(n):
    """The grand coalition is worth nothing, every player 1 alone."""
    return Game.from_table(n, {1 << i: 1 for i in range(n)})


@pytest.fixture
def checked(monkeypatch):
    """Route every module's ``_from_masks`` through a checker that also
    builds the validating constructor's result and compares the two."""
    calls = []
    trusted = model._from_masks

    def checking(cls, masks, coalitions=None):
        masks = tuple(masks)
        got = trusted(cls, masks, coalitions)
        want = cls(tuple(map(Coalition, masks)))
        assert type(got) is type(want)
        assert got.masks == want.masks
        assert got.blocks == want.blocks
        assert got.union_mask == want.union_mask
        calls.append(cls)
        return got

    for mod in (model, solver, stability, dynamics, cli, games, gamefile):
        if hasattr(mod, "_from_masks"):
            monkeypatch.setattr(mod, "_from_masks", checking)
    return calls


SITES = {
    "singletons": lambda: Partition.singletons(5),
    "grand": lambda: Partition.grand(5),
    "frame": lambda: frame(Collection.parse("{3} {4}"), Partition.parse("{1,4} {2,3}")),
    "enumerate_partitions": lambda: list(enumerate_partitions(4)),
    "enumerate_partitions_of_a_set": lambda: list(enumerate_partitions([2, 4, 5])),
    "enumerate_collections": lambda: list(enumerate_collections(3)),
    "enumerate_homogeneous_partitions": lambda: list(
        enumerate_homogeneous_partitions(Partition.parse("{1,2} {3,4} {5}"))
    ),
    "optimal_partition": lambda: optimal_partition(_split_gains(4)).witness,
    "optimal_partition_bounded": lambda: optimal_partition_bounded(_split_gains(4), 2).witness,
    "all_maximizers": lambda: all_maximizers(_zero(4)),
    "check_dp_k_strict_rival": lambda: check_dp_k_strict(_zero(3), Partition.grand(3), 2).witness,
    "dhp_split_grand_block": lambda: check_dhp(_split_gains(4), Partition.grand(4)).witness,
    "dhp_split_without_table": lambda: check_dhp(
        _split_gains(4), Partition.parse("{1,2,3} {4}")
    ).witness,
    "definitional_dc_rival": lambda: check_definitional(
        _split_gains(3), Partition.grand(3), "dc"
    ).witness,
    "definitional_dp_rival": lambda: check_definitional(
        _split_gains(3), Partition.grand(3), "dp"
    ).witness,
    "dynamics_split_parts": lambda: applicable_rules(
        _split_gains(4), Partition.grand(4), [RuleName.SPLIT]
    ),
    "closure_fixpoints": lambda: closure_outcomes(_split_gains(4), Partition.grand(4)),
    "iterate_steps": lambda: iterate(_split_gains(4), Partition.grand(4)).steps,
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_trusted_site_builds_what_the_constructor_builds(checked, site):
    assert SITES[site]()
    assert checked, f"{site} did not reach _from_masks"


def test_frame_sorts_its_pieces_by_least_member(checked):
    framed = frame(Collection.parse("{3} {4}"), Partition.parse("{1,4} {2,3}"))
    assert framed.masks == (4, 8)
    assert str(framed) == "{3} {4}"


def test_step_keeps_the_partition_checks():
    message = "blocks must cover players 1..3 with no gaps; missing [1]"
    with pytest.raises(ValueError, match=re.escape(message)):
        step(Collection.parse("{2} {3}"), Merge((0, 1), 1))


@pytest.mark.parametrize(
    "build, n, message",
    [
        (odds_evens_partition, 0, "a coalition must contain at least one player"),
        (odds_evens_partition, -1, "a coalition must contain at least one player"),
        (odds_evens_partition, 11, "player index exceeds the 20-player cap"),
        (pairs_partition, 0, "a partition needs at least one block"),
        (pairs_partition, -1, "a partition needs at least one block"),
        (pairs_partition, 11, "player index exceeds the 20-player cap"),
    ],
)
def test_games_partition_helpers_keep_their_checks(build, n, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(n)


def test_listings_share_one_coalition_per_mask():
    # 8 players have 255 nonempty coalitions; every partition of them is a
    # maximizer of the all-zero game.
    maxi = all_maximizers(_zero(8))
    assert len(maxi) == 4140
    assert len({id(b) for q in maxi for b in q.blocks}) <= 255
    listed = list(enumerate_partitions(8))
    assert len({id(b) for q in listed for b in q.blocks}) <= 255


def test_payload_order_pinned_over_random_games():
    # Every application under all four rules, as reprs, one line per case:
    # every random_game class, n = 1..8, the two canonical partitions and a
    # spread of others in enumeration order, most with singleton blocks.
    h = hashlib.sha256()
    for n in range(1, 9):
        listed = list(enumerate_partitions(n))
        starts = listed[:: max(1, len(listed) // 5)] + [Partition.singletons(n)]
        for kind in GameClass:
            g = random_game(GeneratorSpec(n=n, kind=kind, seed=n))
            for p in starts:
                apps = applicable_rules(g, p, ALL_RULES)
                h.update(f"{n} {kind.value} {p}: {apps!r}\n".encode())
    assert h.hexdigest() == "e13966b153fc9ad1d757f02c44201ec3d069710bff4fc54af5a6937b9d77f057"
