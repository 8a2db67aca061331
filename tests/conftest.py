"""Shared test helpers: witness re-verification, a Bell-number oracle,
the shared random game suite, and a terminal summary that prints one
PASS/FAIL line per acceptance criterion."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

try:
    from hypothesis import settings

    settings.register_profile("pinned", derandomize=True, deadline=None)
    settings.load_profile("pinned")
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass

from coalstab import (
    BlockMerge,
    BlockSplit,
    DefectingCollection,
    Game,
    GeneratorSpec,
    IncompatibleSet,
    IntraBlockPair,
    Partition,
    enumerate_partitions,
    frame,
    is_compatible,
    modified_social_welfare,
    random_game,
    social_welfare,
)


def bell(n: int) -> int:
    """Bell numbers via the Bell triangle; independent of the package."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def tie_table(n: int, kind: str, seed: int) -> list:
    """A small-valued table of ``kind`` int, Fraction or mixed-sign, so
    that optima tie often at every block budget."""
    rng = random.Random(f"{kind}|{n}|{seed}")
    if kind == "int":
        draw = lambda: rng.randint(0, 2)
    elif kind == "fraction":
        draw = lambda: Fraction(rng.randint(0, 4), rng.randint(1, 2))
    else:
        draw = lambda: rng.choice((-2, -1, 0, 1, Fraction(1, 2), 2))
    return [0] + [draw() for _ in range((1 << n) - 1)]


def best_grouping(g: Game, pm: int):
    """Block ``pm``'s best value and grouping: the strict dhp split scan's
    best grouping when some split ties or beats the block, else the block
    whole."""
    from coalstab.stability import _gaining_splits

    for _, _, best, parts in _gaining_splits(g, (pm,), True):
        return best, parts
    return g.dense_table()[pm], (pm,)


def count_dp_calls(monkeypatch):
    """Count ``solver._dp`` passes from here on; returns the growing list."""
    import coalstab.solver as solver

    calls = []
    dp = solver._dp
    monkeypatch.setattr(solver, "_dp", lambda *a, **k: calls.append(1) or dp(*a, **k))
    return calls


def brute_force_optimum(g: Game):
    """Welfare maximum by plain enumeration; independent of the solver DP."""
    best = None
    arg = None
    for q in enumerate_partitions(g.n):
        s = social_welfare(g, q)
        if best is None or s > best:
            best, arg = s, q
    return best, arg


def witness_violates(g: Game, p: Partition, w, strict: bool = False) -> bool:
    """Re-evaluate a witness from scratch: its payload must be structurally
    valid against ``p``, its stored values must recompute exactly, and the
    cited inequality must genuinely fail (non-strictly for strict checks)."""
    beats = (lambda a, b: a >= b) if strict else (lambda a, b: a > b)
    if isinstance(w, IncompatibleSet):
        pieces = sum(g.mask_value(pm & w.coalition.mask) for pm in p.masks)
        whole = g.mask_value(w.coalition.mask)
        return (
            not is_compatible(w.coalition, p)
            and pieces == w.pieces_value
            and whole == w.whole_value
            and beats(whole, pieces)
        )
    if isinstance(w, IntraBlockPair):
        block = p.blocks[w.block_index]
        union = w.a.mask | w.b.mask
        structurally = not w.a.mask & w.b.mask and not union & ~block.mask
        separate = g.mask_value(w.a.mask) + g.mask_value(w.b.mask)
        combined = g.mask_value(union)
        return (
            structurally
            and separate == w.separate
            and combined == w.combined
            and beats(separate, combined)
        )
    if isinstance(w, BlockSplit):
        block = p.blocks[w.block_index]
        structurally = w.parts.union_mask == block.mask and len(w.parts) >= 2
        total = social_welfare(g, w.parts)
        whole = g.mask_value(block.mask)
        return (
            structurally
            and total == w.parts_value
            and whole == w.whole_value
            and beats(total, whole)
        )
    if isinstance(w, BlockMerge):
        if len(w.block_indices) < 2 or any(not 0 <= i < len(p.blocks) for i in w.block_indices):
            return False
        union = 0
        separate = 0
        for i in w.block_indices:
            union |= p.masks[i]
            separate += g.mask_value(p.masks[i])
        merged = g.mask_value(union)
        return separate == w.separate and merged == w.merged and beats(merged, separate)
    if isinstance(w, DefectingCollection):
        c = w.collection
        framed = modified_social_welfare(g, c, p)
        own = social_welfare(g, c)
        if framed != w.framed_welfare or own != w.welfare:
            return False
        if strict:
            return own >= framed and frame(c, p) != c
        return own > framed
    raise TypeError(f"not a witness: {w!r}")


@pytest.fixture(scope="session")
def random_suite():
    """The 1000 seeded random games with n in {4, 5} shared by the oracle
    equivalence and dynamics criteria, each with a fixed partition sample."""
    suite = []
    for i in range(1000):
        n = 4 if i % 2 == 0 else 5
        g = random_game(GeneratorSpec(n=n, kind="general", low=0, high=6, seed=i))
        parts = [Partition.singletons(n), Partition.grand(n)]
        # four more partitions, deterministically spread over the lattice
        all_parts = list(enumerate_partitions(n))
        stride = max(1, len(all_parts) // 4)
        for j in range(4):
            q = all_parts[(i + j * stride) % len(all_parts)]
            if q not in parts:
                parts.append(q)
        suite.append((g, parts))
    return suite


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion at the end of the run.

_acceptance_results: "dict[str, tuple[str, str]]" = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and "test_acceptance" in str(getattr(item, "fspath", "")):
        doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
        _acceptance_results[item.nodeid] = (rep.outcome.upper(), doc)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_results):
        outcome, doc = _acceptance_results[nodeid]
        mark = "PASS" if outcome == "PASSED" else "FAIL"
        terminalreporter.write_line(f"{mark}  {doc}")
