"""Oracle agreement for the paths that run on the solver's subset DP:
maximizer lists, strict dpk checks, the dhp split scan and the CLI's
bounded maximizer list, each held to plain enumeration at 6-8 players,
where ties are plentiful."""

import contextlib
import hashlib
import io
import json
import random

import pytest

from coalstab import (
    BlockSplit,
    Collection,
    DefectingCollection,
    Game,
    Partition,
    all_maximizers,
    check_definitional,
    check_dhp,
    check_dp_k_strict,
    check_strict_dhp,
    check_strict_dp,
    enumerate_partitions,
    find_dc_stable,
    optimal_partition,
    optimal_partition_bounded,
    serialize_game,
    social_welfare,
)
from coalstab.cli import main
from conftest import bell, tie_table, witness_violates


def tie_heavy(n, seed):
    rng = random.Random(f"tie-heavy|{n}|{seed}")
    return Game(n, table=[0] + [rng.randint(0, 2) for _ in range((1 << n) - 1)])


def additive(n):
    return Game(n, table=[m.bit_count() for m in range(1 << n)])


def zero(n):
    return Game(n, table=[0] * (1 << n))


def enumerated_maximizers(g, k=None):
    parts = [q for q in enumerate_partitions(g.n) if k is None or len(q) <= k]
    best = max(social_welfare(g, q) for q in parts)
    return [q for q in parts if social_welfare(g, q) == best]


GAMES = [tie_heavy(n, seed) for n in (6, 7, 8) for seed in range(2)] + [additive(7), zero(6)]


class TestAllMaximizers:
    @pytest.mark.parametrize("g", GAMES, ids=str)
    def test_matches_enumeration_in_order(self, g):
        assert all_maximizers(g) == enumerated_maximizers(g)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_zero_game_has_every_partition(self, n):
        got = all_maximizers(zero(n))
        assert len(got) == bell(n)
        assert got == list(enumerate_partitions(n))


class TestWitnessTieBreak:
    @pytest.mark.parametrize("g", GAMES, ids=str)
    def test_witness_has_the_smallest_blocks(self, g):
        # each block, least member first, is the smallest bit pattern that
        # still completes to an optimum: the least mask tuple of all maximizers
        assert optimal_partition(g).witness.masks == min(q.masks for q in enumerated_maximizers(g))
        for k in range(1, g.n + 1):
            best = min(q.masks for q in enumerated_maximizers(g, k))
            assert optimal_partition_bounded(g, k).witness.masks == best

    def test_witness_walk_builds_no_key_table(self):
        # Only the counted walks, capped at 12 players, order their output;
        # the solver's witness walk, run up to 18, reads no key table.
        import coalstab.solver as solver

        before = solver._digits.cache_info()
        g = tie_heavy(8, 0)
        optimal_partition(g)
        optimal_partition_bounded(g, 3)
        after = solver._digits.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


def some_partitions(g):
    rng = random.Random(g.n)
    every = list(enumerate_partitions(g.n))
    return [Partition.grand(g.n), Partition.singletons(g.n)] + all_maximizers(g)[:2] + rng.sample(every, 3)


class TestDpkStrict:
    @pytest.mark.parametrize("g", GAMES, ids=str)
    def test_agrees_with_definitional_for_every_k(self, g):
        for p in some_partitions(g):
            for k in range(len(p), g.n + 1):
                fast = check_dp_k_strict(g, p, k)
                oracle = check_definitional(g, p, f"dpk:{k}", strict=True)
                assert fast.stable == oracle.stable
                if fast.stable:
                    continue
                assert witness_violates(g, p, fast.witness, strict=True)
                assert len(fast.witness.collection) <= k
                if fast.witness.welfare == oracle.witness.framed_welfare:
                    # p ties the k-block optimum: the rival is the first
                    # other maximizer in enumeration order, as the oracle's
                    assert fast == oracle

    def test_rival_is_first_other_maximizer(self):
        g = zero(7)
        p = Partition.parse("{1} {2,3,4,5,6,7}")
        v = check_dp_k_strict(g, p, 2)
        assert v.witness == DefectingCollection(Partition.grand(7), 0, 0)
        v = check_dp_k_strict(g, Partition.grand(7), 3)
        assert v.witness == DefectingCollection(Partition.parse("{1,2,3,4,5,6} {7}"), 0, 0)


class TestTieWalkStopsEarly:
    """The strict checks and the dc search read the tie walk in
    enumeration order and stop at the grouping they need.  On an all-zero
    game every partition ties and the grand partition comes first."""

    def spy(self, monkeypatch):
        import coalstab.solver as solver

        drawn = []
        walk = solver._tie_walk

        def spy(*args):
            for q in walk(*args):
                drawn.append(q)
                assert len(drawn) <= 10, "the walk ran on"
                yield q

        monkeypatch.setattr(solver, "_tie_walk", spy)
        return drawn

    def test_strict_checks_draw_two_groupings(self, monkeypatch):
        g, grand = zero(12), Partition.grand(12)
        optimal_partition(g)  # its witness walk is not counted below
        drawn = self.spy(monkeypatch)
        assert check_strict_dp(g, grand).witness.collection == Partition.of(range(1, 12), [12])
        assert len(drawn) <= 2
        drawn.clear()
        assert not check_dp_k_strict(g, grand, 12).stable
        assert len(drawn) <= 2

    def test_dc_search_draws_one_grouping(self, monkeypatch):
        g = zero(10)
        optimal_partition(g)
        drawn = self.spy(monkeypatch)
        assert find_dc_stable(g) == Partition.grand(10)
        assert len(drawn) == 1


def big_block_partitions(n):
    """Partitions with a block of 5 .. n players."""
    return [
        Partition.grand(n),
        Partition.of(range(2, n + 1), [1]),
        Partition.of([1, 3, 4, 5, 6], [2, *range(7, n + 1)]),
        Partition.of(range(1, 6), *([i] for i in range(6, n + 1))),
    ]


class TestDhp:
    @pytest.mark.parametrize("g", GAMES, ids=str)
    @pytest.mark.parametrize("strict", [False, True])
    def test_agrees_with_definitional(self, g, strict):
        check = check_strict_dhp if strict else check_dhp
        for p in big_block_partitions(g.n) + all_maximizers(g)[:2]:
            fast = check(g, p)
            assert fast.stable == check_definitional(g, p, "dhp", strict=strict).stable
            if not fast.stable:
                assert witness_violates(g, p, fast.witness, strict=strict)

    def test_split_witness_is_the_best_split(self):
        # the grand block is worth 5; cutting off a player already gains,
        # but the best split is {1,2,3} {4,5,6} at 20
        table = [m.bit_count() for m in range(64)]
        table[0b000111] = table[0b111000] = 10
        table[63] = 5
        v = check_dhp(Game(6, table=table), Partition.grand(6))
        assert v.witness == BlockSplit(0, Collection.parse("{1,2,3} {4,5,6}"), 5, 20)

    def test_strict_split_ties(self):
        g = additive(6)
        assert check_dhp(g, Partition.grand(6)).stable
        v = check_strict_dhp(g, Partition.grand(6))
        assert v.witness.parts_value == v.witness.whole_value == 6


class TestCliBoundedMaximizers:
    @pytest.mark.parametrize("g", [tie_heavy(6, 0), tie_heavy(7, 1), zero(6)], ids=str)
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_lists_the_enumerated_set_in_order(self, g, k, tmp_path, capsys):
        doc = tmp_path / "g.game"
        doc.write_text(serialize_game(g))
        code = main(["solve", "--game", str(doc), "--max-size", str(k), "--all-maximizers"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        expect = [str(q) for q in enumerated_maximizers(g, k)]
        assert out["maximizers"] == expect
        assert out["maximizer_count"] == len(expect)


def tie_digest(tmp_path) -> str:
    """sha256 over every answer the tie paths give on seeded tie-heavy
    tables, n = 1..8: the dc search, the maximizer listing, both strict
    checks at every budget for the grand partition, the singletons and
    the first three maximizers (or the budget's refusal), the strict dhp
    witness, and the CLI's bounded listing at every budget."""
    h = hashlib.sha256()
    doc = tmp_path / "g.game"
    for kind in ("int", "fraction", "mixed"):
        for n in range(1, 9):
            for seed in range(8 if n <= 6 else 4):
                v = tie_table(n, kind, seed)
                out = [find_dc_stable(Game(n, table=list(v)))]
                g = Game(n, table=list(v))
                maxi = all_maximizers(g)
                out.append([q.masks for q in maxi])
                for p in [Partition.grand(n), Partition.singletons(n)] + maxi[:3]:
                    out.append(check_strict_dp(g, p).witness)
                    for k in range(1, n + 1):
                        try:
                            out.append(check_dp_k_strict(g, p, k).witness)
                        except ValueError as e:
                            out.append(str(e))
                out.append(check_strict_dhp(g, Partition.grand(n)).witness)
                doc.write_text(serialize_game(g))
                for k in range(1, n + 1):
                    with contextlib.redirect_stdout(io.StringIO()) as buf:
                        code = main(["solve", "--game", str(doc), "--max-size", str(k), "--all-maximizers"])
                    report = json.loads(buf.getvalue())
                    del report["game"]  # the document's path
                    out.append((code, report))
                h.update(f"{kind} {n} {seed}: {out!r}\n".encode())
    return h.hexdigest()


def test_tie_paths_match_the_sorted_walk(tmp_path):
    assert tie_digest(tmp_path) == TIE_DIGEST


# Captured with the walk in block-tuple order, sorted by restricted-growth
# key for the listings and searched with ``min`` for the strict rivals;
# re-captured once a split witness's parts value became the parts' sum on
# every path, which changed the one answer "fraction 2 3" (a strict dhp
# witness's parts_value read Fraction(2, 1) for 2); re-captured again once
# a game read its table through as_value, which turned every witness
# value that read Fraction(k, 1) into k and changed nothing else (the old
# answers, with those reprs rewritten, hash to this digest).
TIE_DIGEST = "5ca930e71785e46cbff21b7ae709cbb0ebb6970873b94a09ba26fb9c43e39b2c"
