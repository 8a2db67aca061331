"""Unit tests for the welfare-maximization solver: exact DP, the
block-count-bounded variant, and maximizer enumeration — each checked
against plain enumeration."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from coalstab import (
    ALL_RULES,
    BOUNDED_SOLVER_CAP,
    DEFAULT_RULES,
    MAXIMIZER_CAP,
    SOLVER_CAP,
    CapExceededError,
    Game,
    GeneratorSpec,
    Partition,
    all_maximizers,
    check_dc,
    check_dc_strict,
    check_dhp,
    check_dp,
    check_dp_k,
    check_dp_k_strict,
    check_strict_dhp,
    check_strict_dp,
    closure_outcomes,
    corollary_shortcuts,
    enumerate_partitions,
    example_game,
    find_dc_stable,
    optimal_partition,
    optimal_partition_bounded,
    random_game,
    social_welfare,
)
from coalstab.solver import _LISTING_CAP, _dp, _pass, _split_test, _tie_walk
from conftest import bell, brute_force_optimum, count_dp_calls, tie_table


class TestOptimalPartition:
    def test_three_player_example_frozen(self):
        g = example_game("exa-a")
        res = optimal_partition(g)
        assert res.optimum == 7
        # several partitions tie at 7; the DP prefers the one whose blocks
        # have the smallest bit patterns, which is {1} {2,3}
        assert res.witness == Partition.parse("{1} {2,3}")
        assert social_welfare(g, res.witness) == 7

    def test_single_player(self):
        g = Game.from_table(1, {(1,): 9})
        res = optimal_partition(g)
        assert res.optimum == 9 and res.witness == Partition.grand(1)

    def test_negative_values(self):
        g = Game.from_table(2, {(1,): -1, (2,): -2, (1, 2): -5})
        res = optimal_partition(g)
        assert res.optimum == -3 and res.witness == Partition.singletons(2)

    def test_fractional_values(self):
        g = Game.from_table(2, {(1,): "1/3", (2,): "1/3", (1, 2): "1/2"})
        assert optimal_partition(g).optimum == Fraction(2, 3)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_enumeration(self, seed):
        n = 3 + seed % 4
        g = random_game(GeneratorSpec(n=n, kind="general", seed=seed))
        res = optimal_partition(g)
        best, _ = brute_force_optimum(g)
        assert res.optimum == best
        assert social_welfare(g, res.witness) == res.optimum

    def test_result_is_cached(self):
        g = example_game("exa-1")
        assert optimal_partition(g) is optimal_partition(g)

    def test_cap(self):
        g = Game.from_rule(SOLVER_CAP + 1, lambda m: 0)
        with pytest.raises(CapExceededError):
            optimal_partition(g)


class TestBoundedSolver:
    def test_frozen_example(self):
        # exa-a: best single block is 6, best with two blocks is 7
        g = example_game("exa-a")
        assert optimal_partition_bounded(g, 1).optimum == 6
        assert optimal_partition_bounded(g, 2).optimum == 7
        assert optimal_partition_bounded(g, 3).optimum == 7

    def test_k_one_is_grand(self):
        g = example_game("exa-2")
        res = optimal_partition_bounded(g, 1)
        assert res.witness == Partition.grand(4)
        assert res.optimum == g.mask_value(g.full_mask)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_and_consistent(self, seed):
        n = 3 + seed % 3
        g = random_game(GeneratorSpec(n=n, kind="general", seed=100 + seed))
        unbounded = optimal_partition(g).optimum
        prev = None
        for k in range(1, n + 1):
            res = optimal_partition_bounded(g, k)
            assert len(res.witness) <= k
            assert social_welfare(g, res.witness) == res.optimum
            # oracle: best over partitions with at most k blocks
            oracle = max(
                social_welfare(g, q) for q in enumerate_partitions(n) if len(q) <= k
            )
            assert res.optimum == oracle
            if prev is not None:
                assert res.optimum >= prev
            prev = res.optimum
        assert prev == unbounded

    def test_bad_bound_rejected(self):
        g = example_game("exa-1")
        with pytest.raises(ValueError):
            optimal_partition_bounded(g, 0)
        with pytest.raises(TypeError):
            optimal_partition_bounded(g, True)

    def test_bound_above_n_rejected(self):
        g = example_game("exa-1")
        with pytest.raises(ValueError, match="1..4"):
            optimal_partition_bounded(g, 10)

    def test_cap(self):
        g = Game.from_rule(BOUNDED_SOLVER_CAP + 1, lambda m: 0)
        with pytest.raises(CapExceededError):
            optimal_partition_bounded(g, 2)


class TestBoundedCells:
    """The layered DP runs budgets below k on the full set and the sets
    without player 1 only; every answer it gives must be the one plain
    enumeration of partitions with at most k blocks gives."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_budget_matches_enumeration(self, n, kind):
        for seed in range(2 if n > 5 else 4):
            v = tie_table(n, kind, seed)
            groupings = [q.masks for q in enumerate_partitions(n)]
            for k in range(1, n + 1):
                g = Game(n, table=list(v))
                w, layers, counts = _pass(g, k)[1]
                count, walk = counts[k][-1], _tie_walk(w, layers, counts, k, (1 << n) - 1)
                # Below n the layered pass answers every budget up to k; at
                # n the unbounded pass answers budget n alone.
                assert sorted(g._dp) == (list(range(1, k + 1)) if k < n else [n])
                for j in sorted(g._dp):
                    fits = [q for q in groupings if len(q) <= j]
                    best = max(sum(v[m] for m in q) for q in fits)
                    # Enumeration order, which the counted walk yields.
                    tied = [q for q in fits if sum(v[m] for m in q) == best]
                    res = g._dp[j][0]
                    assert res.optimum == best
                    # The witness walk takes smaller blocks first.
                    assert res.witness.masks == min(tied)
                    if j == k:
                        assert count == len(tied)
                        assert list(walk) == tied
                fresh = Game(n, table=list(v))
                assert optimal_partition_bounded(fresh, k) == g._dp[k][0]

    @pytest.mark.parametrize("n,k", [(2, 2), (5, 3), (7, 2), (7, 5), (7, 7)])
    def test_each_budget_below_k_visits_half_the_sets(self, n, k, monkeypatch):
        import coalstab.solver as solver

        full = (1 << n) - 1
        layers = []

        def spy(w, below=None, below_count=None, lowest=0):
            # On a table positive off the empty set, a pass leaves a set's
            # best above 0 exactly when it visits the set.
            got = _dp(w, below, below_count, lowest)
            layers.append([s for s, x in enumerate(got[0]) if x])
            return got

        monkeypatch.setattr(solver, "_dp", spy)
        _pass(Game(n, table=[0] + [1 + x for x in tie_table(n, "int", 0)[1:]]), k)
        if k == n:
            # The budget binds nothing: one unbounded pass over every set.
            assert layers == [list(range(1, full + 1))]
            return
        without_player_1 = sorted([*range(2, full, 2), full])
        assert len(without_player_1) == 1 << (n - 1)
        assert layers == [without_player_1] * (k - 2) + [[full]]

    def test_cells_bound_the_pass(self):
        # The top-only pass visits the full set alone: no other set is
        # written, and the full set reads the layer below.
        assert _dp([0, 5, 7, 9], [0, 5, 7, 9], [1] * 4, lowest=2) == ([0, 0, 0, 12], [1, 1, 1, 1])
        assert _dp([0, 5, 7, 9])[0] == [0, 5, 7, 12]


class TestBudgetCache:
    """One cache entry per block budget, each holding the tables of the
    pass that filled it, so no budget runs its pass twice on one game,
    whatever the call order; and every answer is the one a fresh game
    gives."""

    n = 7

    @pytest.mark.parametrize(
        "calls,passes",
        [
            (
                [
                    lambda g, p: optimal_partition(g),
                    lambda g, p: all_maximizers(g),
                    lambda g, p: optimal_partition(g),
                ],
                [1, 0, 0],
            ),
            (
                [
                    lambda g, p: check_dp_k_strict(g, p, 5),
                    lambda g, p: optimal_partition_bounded(g, 3),
                    lambda g, p: check_dp_k_strict(g, p, 3),
                ],
                [4, 0, 0],
            ),
            (
                [
                    lambda g, p: optimal_partition_bounded(g, 3),
                    lambda g, p: check_dp_k_strict(g, p, 3),
                    lambda g, p: optimal_partition_bounded(g, 2),
                ],
                [2, 0, 0],
            ),
            (
                [
                    lambda g, p: check_dhp(g, p),
                    lambda g, p: check_dp(g, p),
                    lambda g, p: check_strict_dp(g, p),
                    lambda g, p: check_dp_k(g, p, g.n),
                ],
                [1, 0, 0, 0],
            ),
            (
                # Budget 5 takes up budget 3's stack: its layers 3 and 4
                # over the sets without player 1, then its own top.
                [
                    lambda g, p: optimal_partition_bounded(g, 3),
                    lambda g, p: check_dp_k_strict(g, p, 5),
                    lambda g, p: optimal_partition_bounded(g, 4),
                ],
                [2, 3, 0],
            ),
        ],
        ids=["unbounded_then_ties", "ties_then_plain_below", "plain_then_ties", "grand_checks", "below_then_above"],
    )
    def test_passes_per_call(self, calls, passes, monkeypatch):
        v = tie_table(self.n, "int", 0)
        g, grand = Game(self.n, table=list(v)), Partition.grand(self.n)
        dp_calls = count_dp_calls(monkeypatch)
        got = []
        for call in calls:
            dp_calls.clear()
            result = call(g, grand)
            got.append(len(dp_calls))
            assert result == call(Game(self.n, table=list(v)), grand)
        assert got == passes

    def test_every_cached_budget_holds_tables(self, monkeypatch):
        g = Game(self.n, table=tie_table(self.n, "int", 0))
        optimal_partition(g)
        optimal_partition_bounded(g, 4)
        assert sorted(g._dp) == [1, 2, 3, 4, self.n]
        full = g.full_mask
        for j, (res, (w, best, count)) in g._dp.items():
            tied = list(_tie_walk(w, best, count, j, full))
            assert count[j][full] == len(tied) and res.witness.masks in tied
            assert next(_tie_walk(w, best, None, j, full)) == res.witness.masks
        # So a tie question on any cached budget runs no DP.
        dp_calls = count_dp_calls(monkeypatch)
        grand = Partition.grand(self.n)
        for j in sorted(g._dp):
            check_dp_k_strict(g, grand, j)
        assert dp_calls == []

    @pytest.mark.parametrize("k", [3, 7])
    def test_racing_passes_leave_equal_entries(self, k, monkeypatch):
        # A second pass of the same budget runs and stores its entries
        # while the first builds its witness; whichever stores first, every
        # entry either offers is the same.
        import coalstab.solver as solver

        class Stores(dict):
            def setdefault(self, key, value):
                offered.setdefault(key, []).append(value)
                return super().setdefault(key, value)

        v = tie_table(self.n, "int", 0)
        g, offered = Game(self.n, table=list(v)), {}
        optimal_partition_bounded(g, 2)  # so the passes take up budget 2's stack
        g._dp = Stores(g._dp)
        build = solver._from_masks

        def spy(*args):
            monkeypatch.setattr(solver, "_from_masks", build)
            _pass(g, k)
            return build(*args)

        monkeypatch.setattr(solver, "_from_masks", spy)
        assert _pass(g, k)[0] == optimal_partition_bounded(Game(self.n, table=list(v)), k)
        assert sorted(offered) == (list(range(3, k + 1)) if k < self.n else [k])
        assert all(len(entries) == 2 and entries[0] == entries[1] for entries in offered.values())


def _reference_dp(w, below=None, below_count=None, counting=False, lowest=0):
    """The recurrence one candidate at a time, sets in increasing order:
    ``(best, count, split)`` as :func:`_dp` should leave them, with
    ``None`` in ``split`` for a set the pass does not visit."""
    size = len(w)
    best = [0] * size
    count = [1] * size if counting else None
    split = [None] * size
    rest_best = best if below is None else below
    rest_count = count if below_count is None else below_count
    for s in range(1, size):
        low = s & -s
        if low < 1 << lowest and s != size - 1:
            continue
        sp, c = float("-inf"), 0
        for t in range(low, s, low):  # blocks holding low, other than s
            if t & s != t or not t & low:
                continue
            cand = w[t] + rest_best[s ^ t]
            if cand > sp:
                sp, c = cand, rest_count[s ^ t] if counting else 0
            elif cand == sp and counting:
                c += rest_count[s ^ t]
        if counting and w[s] <= sp:
            count[s] = c + 1 if w[s] == sp else c
        best[s] = w[s] if w[s] >= sp else sp
        split[s] = sp
    return best, count, split


def _kernel_table(n, kind):
    rng = random.Random(f"kernel|{kind}|{n}")
    draw = {
        "int": lambda: rng.randint(0, 100),
        "fraction": lambda: Fraction(rng.randint(0, 60), rng.randint(1, 6)),
        "tie": lambda: rng.randint(0, 2),
        "negative": lambda: rng.randint(-40, 10),
        "zero": lambda: 0,
    }[kind]
    return [0] + [draw() for _ in range((1 << n) - 1)]


class TestDpKernel:
    """``_dp`` against a recurrence that reads one candidate per step: the
    pass reads the two highest players' candidates together, which must
    leave every table, counts included, as the reference leaves it."""

    @staticmethod
    def _same(w, below=None, below_count=None, lowest=0):
        best, count = _dp(w, below, below_count, lowest)
        ref_best, ref_count, split = _reference_dp(w, below, below_count, True, lowest)
        assert (best, count) == (ref_best, ref_count)
        if below is None:
            # The unbounded tables' split test against the reference's
            # best splits, on every set of two or more players.
            for s in range(3, len(w)):
                if s & (s - 1):
                    assert _split_test(w, best, count, False)(s) == (split[s] > w[s])
                    assert _split_test(w, best, count, True)(s) == (split[s] >= w[s])
        return best, count

    @pytest.mark.parametrize("kind", ["int", "fraction", "tie", "negative", "zero"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_unbounded_and_every_budget(self, n, kind):
        w = _kernel_table(n, kind)
        self._same(w)
        below = (w, [1] * len(w))
        for _ in range(2, n + 1):  # budget j: its top pass, then its layer
            self._same(w, *below, n)
            below = self._same(w, *below, 1)

    def test_twelve_players_pinned(self):
        # The digest of the tables a one-candidate step leaves on this input.
        import hashlib

        w = _kernel_table(12, "int")
        best, _ = _dp(w)
        layer, _ = _dp(w, w, [1] * len(w), lowest=1)
        top, _ = _dp(w, layer, [1] * len(w), lowest=12)
        got = hashlib.sha256(repr((best, layer, top)).encode()).hexdigest()
        assert got == "d922422a7ec5b0c71f1df943dcd183b2edae010322d7b8634db6a24d5aaed51c"

    @pytest.mark.parametrize(
        "kind,digest",
        [
            ("int", "1cf7d14bb2839884884919be05d4c9e2f313182b210de5dced391cacb677c5ef"),
            ("tie", "fd78db9e57c8e7dd365d93af90bd1fc70416d5a1422245ea789c473dc72ec73f"),
            ("zero", "53bf5546b6346ac78ea704192f260a58ceb2076043423492eb76b40fab203621"),
        ],
    )
    def test_twelve_player_counts_pinned(self, kind, digest):
        # The digest of the count tables a one-candidate step leaves: the
        # unbounded pass, a budget-2 layer and a budget-3 top pass.  At 12
        # players the paired steps cover more layers than at n <= 9.
        import hashlib

        w = _kernel_table(12, kind)
        _, count = _dp(w)
        layer, layer_count = _dp(w, w, [1] * len(w), lowest=1)
        _, top = _dp(w, layer, layer_count, lowest=12)
        assert hashlib.sha256(repr((count, layer_count, top)).encode()).hexdigest() == digest


class TestAllMaximizers:
    def test_two_way_tie_frozen(self):
        # the trap example has two welfare maximizers, both at 5: splitting
        # {3,4} into singletons costs nothing because values are additive there
        g = example_game("exa-miss")
        got = [str(p) for p in all_maximizers(g)]
        assert got == ["{1,2} {3,4}", "{1,2} {3} {4}"]

    def test_unique_maximizer(self):
        g = example_game("exa-miss1")
        assert all_maximizers(g) == [Partition.parse("{1,2} {3}")]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration(self, seed):
        n = 3 + seed % 3
        g = random_game(GeneratorSpec(n=n, kind="general", seed=200 + seed))
        best, _ = brute_force_optimum(g)
        expect = [q for q in enumerate_partitions(n) if social_welfare(g, q) == best]
        assert all_maximizers(g) == expect
        assert optimal_partition(g).optimum == best

    def test_returns_fresh_list(self):
        g = example_game("exa-1")
        first = all_maximizers(g)
        first.append(None)
        assert None not in all_maximizers(g)

    def test_cap(self):
        assert _LISTING_CAP == bell(MAXIMIZER_CAP)
        g = Game.from_rule(MAXIMIZER_CAP + 1, lambda m: 0)
        with pytest.raises(CapExceededError):
            all_maximizers(g)

    @pytest.mark.parametrize("n", [4, 7])
    def test_tie_paths_run_one_pass_per_budget(self, n, monkeypatch):
        # The tie-counting tables are cached per block budget and shared by
        # the strict checks, the listing and the dc search; at k = n the
        # strict dpk check runs the one unbounded pass.
        import coalstab.solver as solver

        passes = []

        def spy(*args, **kwargs):
            passes.append(1)
            return _dp(*args, **kwargs)

        monkeypatch.setattr(solver, "_dp", spy)
        g = Game(n, table=tie_table(n, "int", 0))
        grand = Partition.grand(n)
        counts = []
        for call in (
            lambda: check_dp_k_strict(g, grand, 3),
            lambda: all_maximizers(g),
            lambda: check_strict_dp(g, grand),
            lambda: find_dc_stable(g),
            lambda: check_dp_k_strict(g, grand, n),
            lambda: check_dp_k_strict(Game(n, table=tie_table(n, "int", 0)), grand, n),
        ):
            passes.clear()
            call()
            counts.append(len(passes))
        assert counts == [2, 1, 0, 0, 0, 1]


def _rule(m):
    return Fraction(m * 2654435761 % 7, 1 + m % 3)


def _race(work, workers):
    """Run ``work(i)`` for each worker index at once, switching threads as
    often as the interpreter allows."""
    barrier = threading.Barrier(workers)

    def start(i):
        barrier.wait(timeout=30)
        work(i)

    threads = [threading.Thread(target=start, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestSharedGameThreads:
    def test_cached_entry_points_agree_across_threads(self):
        # The caches are written without a lock; racing writers must still
        # leave every thread with the answers a fresh game gives.  Each
        # closure keeps its blocks' cuts in a table of its own while the
        # solvers cache their tables on the game.
        n, workers = 8, 8
        starts = (
            (Partition.parse("{1,2,3,4,5} {6,7} {8}"), DEFAULT_RULES),
            (Partition.parse("{1,2,3,4} {5,6} {7} {8}"), ALL_RULES),
        )

        def answers(g):
            return (
                [g.mask_value(m) for m in range(1 << n)],
                list(g.dense_table()),
                optimal_partition(g),
                [optimal_partition_bounded(g, k) for k in (3, 2, 5)],
                check_strict_dp(g, optimal_partition(g).witness),
                [check_dp_k_strict(g, optimal_partition_bounded(g, k).witness, k) for k in (3, 2, 5)],
                all_maximizers(g),
                [closure_outcomes(g, p, rules) for p, rules in starts],
            )

        expect = answers(Game.from_rule(n, _rule))
        shared = Game.from_rule(n, _rule)
        results = [None] * workers

        def work(i):
            results[i] = answers(shared)

        _race(work, workers)
        assert results == [expect] * workers

    def test_checks_agree_while_the_split_table_appears(self):
        # The dc and dhp scans read the unbounded pass's tables once they
        # are cached on the game; solver threads cache them while the
        # checks run.
        n, checkers, solvers, rounds = 8, 8, 2, 3
        parts = (Partition.grand(n), Partition.singletons(n), Partition.parse("{1,2,3} {4,5,6,7,8}"))

        def checks(g):
            return (
                [f(g, q) for q in parts for f in (check_dc, check_dc_strict, check_dhp, check_strict_dhp)],
                corollary_shortcuts(g),
                find_dc_stable(g),
            )

        expect = checks(Game.from_rule(n, _rule))
        shared = Game.from_rule(n, _rule)
        results = [None] * checkers

        def work(i):
            if i < checkers:
                results[i] = [checks(shared) for _ in range(rounds)]
            else:
                optimal_partition(shared)
                all_maximizers(shared)

        _race(work, checkers + solvers)
        assert shared.n in shared._dp
        assert results == [[expect] * rounds] * checkers
