"""Spans around the benchmark's calls into coalstab, and the per-layer
metrics derived from them.

Every call the workloads make into a public coalstab function goes through
:meth:`Tracer.call`.  With tracing off it is a plain call.  With tracing on
it records a span (name, start, end, parent span, request id, game size,
largest block) and counts derived from the call's result, kept in memory
until the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter

from coalstab import Game, Partition, Verdict

# Result-derived counts, recorded at the call boundary after the span ends.
WITNESS_NAMES = {
    "IntraBlockPair": "pair",
    "IncompatibleSet": "incompatible",
    "BlockSplit": "split",
    "BlockMerge": "merge",
    "DefectingCollection": "collection",
}


def bell(n: int) -> int:
    """Bell numbers via the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


class Tracer:
    """Records spans when ``on``; otherwise :meth:`call` just calls."""

    def __init__(self, on: bool = False) -> None:
        self.on = on
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.extra: "dict[str, tuple[float, str]]" = {}
        self._stack: list[int] = []
        self._request = -1

    def call(self, name: str, fn, *args, tag: "str | None" = None):
        if not self.on:
            return fn(*args)
        n = size = None
        for a in args:
            if n is None and isinstance(a, Game):
                n = a.n
            elif size is None and isinstance(a, Partition):
                size = max(len(b) for b in a.blocks)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._request, n, size, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        self._count(name, args, result)
        return result

    def begin_request(self, rid: int, kind: str) -> None:
        if self.on:
            self._request = rid
            self._stack.append(len(self.spans))
            self.spans.append(["request." + kind, perf_counter(), 0.0, None, rid, None, None, None])

    def end_request(self) -> None:
        if self.on:
            self.spans[self._stack.pop()][2] = perf_counter()

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if isinstance(result, Verdict):
            if not result.stable:
                c["stability.unstable"] += 1
                c["stability.witness." + WITNESS_NAMES[type(result.witness).__name__]] += 1
        elif name == "solver.all_maximizers":
            c["solver.maximizers"] += len(result)
            c["solver.bell"] += bell(args[0].n)
        elif name == "solver.optimal_partition":
            # Each game reaches the solver once, so every call is a cold DP.
            c["solver.dp_cells"] += (3 ** args[0].n - 1) // 2
        elif name == "dynamics.closure_outcomes":
            c["dynamics.fixpoints"] += len(result)
        elif name.startswith("dynamics.iterate."):
            c["dynamics.steps"] += len(result.steps)
        elif name == "dynamics.applicable_rules":
            c["dynamics.applications"] += len(result)
        elif name == "gamefile.parse_game":
            c["gamefile.bytes"] += len(args[0])
        elif name == "gamefile.serialize_game":
            c["gamefile.bytes"] += len(result)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "request", "n", "block", "tag")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _busy(spans, name):
    durs = [s[2] - s[1] for s in spans if s[0] == name]
    return sum(durs), len(durs)


def _median_ms(spans, name, *, n=None, block=None, tag=None):
    durs = [
        s[2] - s[1]
        for s in spans
        if s[0] == name
        and (n is None or s[5] == n)
        and (block is None or s[6] == block)
        and (tag is None or s[7] == tag)
    ]
    return 1000 * statistics.median(durs) if durs else 0.0


BUSY_AND_CALLS = (
    "solver.optimal_partition",
    "solver.optimal_partition_bounded",
    "solver.all_maximizers",
    "stability.check_dhp",
    "stability.check_strict_dhp",
    "stability.check_strict_dp",
    "stability.check_dp_k_strict",
    "stability.find_dc_stable",
    "stability.corollary_shortcuts",
)
BUSY_ONLY = (
    "stability.check_dc",
    "stability.check_dc_strict",
    "stability.check_dp",
    "dynamics.closure_outcomes",
    "dynamics.iterate.first",
    "dynamics.iterate.best",
    "dynamics.iterate.random",
    "dynamics.applicable_rules",
    "dynamics.is_closed",
    "games.random_game",
    "model.dense_table",
    "gamefile.parse_game",
    "gamefile.serialize_game",
)
COUNTS = (
    "solver.dp_cells",
    "solver.maximizers",
    "stability.unstable",
    "stability.witness.pair",
    "stability.witness.incompatible",
    "stability.witness.split",
    "stability.witness.merge",
    "stability.witness.collection",
    "dynamics.fixpoints",
    "dynamics.steps",
    "dynamics.applications",
)
CLI_COMMANDS = ("check", "find", "solve", "iterate", "outcomes", "generate")


def layer_metrics(tracer: Tracer) -> "dict[str, tuple[float, str]]":
    """Every per-layer metric, as name -> (value, unit).  Layers the
    workload does not reach read 0."""
    spans = tracer.spans
    out: dict[str, tuple[float, str]] = {}
    for name in BUSY_AND_CALLS + BUSY_ONLY:
        busy, calls = _busy(spans, name)
        out[name + ".busy_s"] = (busy, "s")
        if name in BUSY_AND_CALLS:
            out[name + ".calls"] = (calls, "count")
    out["solver.optimal_partition.ms_n14"] = (_median_ms(spans, "solver.optimal_partition", n=14), "ms")
    out["solver.all_maximizers.ms_n10"] = (_median_ms(spans, "solver.all_maximizers", n=10), "ms")
    # Only the 14-player grand coalition makes the dc scan run to completion.
    out["stability.check_dc.ms_n14"] = (_median_ms(spans, "stability.check_dc", n=14, block=14), "ms")
    out["stability.check_dhp.ms_b11"] = (_median_ms(spans, "stability.check_dhp", block=11), "ms")
    # The 8-player partition_power games under merge and split: every
    # instance explores many partitions, whereas the closure on an additive
    # or already stable game returns at once.
    out["dynamics.closure_outcomes.ms_n8"] = (_median_ms(spans, "dynamics.closure_outcomes", tag="power8/ms"), "ms")
    for name in COUNTS:
        out[name] = (tracer.counts[name], "count")
    bells = tracer.counts["solver.bell"]
    out["solver.all_maximizers.yield"] = (tracer.counts["solver.maximizers"] / bells if bells else 0.0, "ratio")
    out["gamefile.bytes"] = (tracer.counts["gamefile.bytes"], "bytes")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.p50_ms"] = (_median_ms(spans, "cli." + cmd), "ms")
    out["cli.check.exa-a.p50_ms"] = (_median_ms(spans, "cli.check", tag="exa-a"), "ms")
    out["cli.interpreter_ms"] = tracer.extra.get("cli.interpreter_ms", (0.0, "ms"))
    out["cli.import_ms"] = tracer.extra.get("cli.import_ms", (0.0, "ms"))
    return out
