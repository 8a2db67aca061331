"""Every capped entry point refuses inputs one past its cap with a
CapExceededError whose message names the cap, and the CLI maps it to
exit 3; the entry points that stay cheap at the cap itself run there.
Oversized games are rule-backed where the cap is checked before the
table is built."""

import json

import pytest

from coalstab import (
    CLOSURE_CAP,
    COLLECTION_ENUM_CAP,
    MAXIMIZER_CAP,
    PARTITION_ENUM_CAP,
    SOLVER_CAP,
    BOUNDED_SOLVER_CAP,
    CapExceededError,
    Game,
    Partition,
    all_maximizers,
    applicable_rules,
    check_definitional,
    check_dhp,
    check_dp,
    check_dp_k,
    check_dp_k_strict,
    check_strict_dp,
    closure_outcomes,
    enumerate_collections,
    enumerate_homogeneous_partitions,
    enumerate_partitions,
    find_dc_stable,
    is_closed,
    optimal_partition,
    optimal_partition_bounded,
)
from coalstab.cli import main


def zero_game(n: int, calls: "list[int] | None" = None) -> Game:
    """An all-zero rule game; ``calls`` records each mask the rule is asked."""

    def rule(mask):
        if calls is not None:
            calls.append(mask)
        return 0

    return Game.from_rule(n, rule)


@pytest.mark.parametrize(
    "call,cap",
    [
        (lambda: next(enumerate_partitions(13)), PARTITION_ENUM_CAP),
        (lambda: next(enumerate_collections(11)), COLLECTION_ENUM_CAP),
        (
            lambda: next(enumerate_homogeneous_partitions(Partition.singletons(13))),
            PARTITION_ENUM_CAP,
        ),
        (
            lambda: check_definitional(zero_game(13), Partition.singletons(13), "dp"),
            PARTITION_ENUM_CAP,
        ),
        (
            lambda: check_definitional(zero_game(11), Partition.singletons(11), "dc"),
            COLLECTION_ENUM_CAP,
        ),
        (lambda: check_dp_k_strict(zero_game(13), Partition.grand(13), 1), PARTITION_ENUM_CAP),
        (lambda: check_strict_dp(zero_game(13), Partition.grand(13)), PARTITION_ENUM_CAP),
        (lambda: find_dc_stable(zero_game(13)), PARTITION_ENUM_CAP),
        (lambda: check_dhp(zero_game(13), Partition.grand(13)), PARTITION_ENUM_CAP),
        (lambda: optimal_partition(zero_game(19)), SOLVER_CAP),
        (lambda: optimal_partition_bounded(zero_game(17), 2), BOUNDED_SOLVER_CAP),
        (lambda: all_maximizers(zero_game(11)), MAXIMIZER_CAP),
        (
            lambda: applicable_rules(zero_game(13), Partition.grand(13), ["split"]),
            PARTITION_ENUM_CAP,
        ),
        (lambda: closure_outcomes(zero_game(9), Partition.singletons(9)), CLOSURE_CAP),
    ],
    ids=[
        "enumerate_partitions", "enumerate_collections", "enumerate_homogeneous",
        "definitional_dp", "definitional_dc", "dp_k_strict", "strict_dp", "find_dc_stable", "dhp_split",
        "optimal_partition", "optimal_partition_bounded", "all_maximizers",
        "applicable_rules_split", "closure_outcomes",
    ],
)
def test_entry_point_refuses_past_its_cap(call, cap):
    with pytest.raises(CapExceededError, match=f"cap of {cap}$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: next(enumerate_partitions(PARTITION_ENUM_CAP)),
        lambda: next(enumerate_collections(COLLECTION_ENUM_CAP)),
        lambda: next(enumerate_homogeneous_partitions(Partition.singletons(PARTITION_ENUM_CAP))),
        lambda: check_dp_k_strict(zero_game(PARTITION_ENUM_CAP), Partition.grand(PARTITION_ENUM_CAP), 1),
        lambda: check_dhp(zero_game(PARTITION_ENUM_CAP), Partition.grand(PARTITION_ENUM_CAP)),
        lambda: optimal_partition_bounded(zero_game(BOUNDED_SOLVER_CAP), 1),
        lambda: closure_outcomes(zero_game(CLOSURE_CAP), Partition.singletons(CLOSURE_CAP)),
        lambda: all_maximizers(zero_game(MAXIMIZER_CAP)),
    ],
    ids=[
        "enumerate_partitions", "enumerate_collections", "enumerate_homogeneous",
        "dp_k_strict", "dhp_split", "optimal_partition_bounded", "closure_outcomes",
        "all_maximizers",
    ],
)
def test_entry_point_runs_at_its_cap(call):
    call()


@pytest.mark.parametrize(
    "check",
    [
        lambda g: check_definitional(g, Partition.grand(g.n), "dc"),
        lambda g: check_definitional(g, Partition.grand(g.n), "dp"),
        lambda g: check_dhp(g, Partition.grand(g.n)),
        lambda g: check_strict_dp(g, Partition.grand(g.n)),
        lambda g: check_dp(g, Partition.grand(g.n)),
        lambda g: check_dp_k(g, Partition.grand(g.n), 2),
        lambda g: check_dp_k_strict(g, Partition.grand(g.n), 2),
        lambda g: applicable_rules(g, Partition.grand(g.n), ["split"]),
        lambda g: is_closed(g, Partition.grand(g.n), ["split"]),
    ],
    ids=[
        "definitional_dc", "definitional_dp", "dhp_split", "strict_dp", "dp", "dp_k",
        "dp_k_strict", "applicable_rules_split", "is_closed_split",
    ],
)
def test_refusal_evaluates_no_coalition(check):
    calls = []
    with pytest.raises(CapExceededError):
        check(zero_game(20, calls))
    assert calls == []


@pytest.mark.parametrize(
    "n,k,head,cap",
    [(13, 2, "13 players", PARTITION_ENUM_CAP), (11, 10, "678569 maximizers", MAXIMIZER_CAP)],
    ids=["players", "listing"],
)
def test_cli_bounded_maximizers_cap_exits_3(capsys, tmp_path, n, k, head, cap):
    doc = tmp_path / f"n{n}.game"
    doc.write_text(f"representation: table\nn: {n}\ndefault: 0\n")
    code = main(["solve", "--game", str(doc), "--max-size", str(k), "--all-maximizers"])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 3
    assert err.startswith(head)
    assert err.endswith(f"cap of {cap}")
