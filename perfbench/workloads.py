"""The four workloads: how each makes its inputs, runs one request, and
turns the result into a checked answer.

Inputs come from a fixed pool per kind of request: instance ``i`` of kind
``K`` is generated from the seed string ``"<workload>|K|i"``, so the golden
answers in ``golden.json`` cover every input any run can draw.  The run's
``--seed`` picks which pool instances a run uses and the order of the
requests.  Each cycle of a plan holds every kind in the workload's pattern
once, so a run's mix of kinds hardly depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from coalstab import (
    ALL_RULES,
    BEST_GAIN,
    DEFAULT_RULES,
    FIRST_APPLICABLE,
    BlockMerge,
    BlockSplit,
    Coalition,
    Collection,
    DefectingCollection,
    Exchange,
    Game,
    GeneratorSpec,
    IncompatibleSet,
    IntraBlockPair,
    Merge,
    Partition,
    Split,
    Transfer,
    Verdict,
    all_maximizers,
    applicable_rules,
    as_value,
    check_dc,
    check_dc_strict,
    check_dhp,
    check_dp,
    check_dp_k_strict,
    check_strict_dhp,
    check_strict_dp,
    closure_outcomes,
    corollary_shortcuts,
    example_game,
    find_dc_stable,
    generalized_odd_game,
    is_closed,
    iterate,
    load_game,
    optimal_partition,
    optimal_partition_bounded,
    parse_game,
    partition_power_game,
    random_game,
    random_strategy,
    serialize_game,
)

from verify import Wrong, partition_of, require, verdict, welfare, witness

POOL = 8          # instances per kind of request
SPLIT_CAP = 12    # the dhp split scan's block-size cap at the seed commit


@dataclass
class Input:
    key: str                 # golden-answer key: "<kind>:<pool index>"
    kind: str
    n: int
    data: object = None
    extra: dict = field(default_factory=dict)


def digest(items) -> str:
    """Short order-independent fingerprint of a set of partitions."""
    text = "\n".join(sorted(str(x) for x in items))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _popcounts(n: int) -> list:
    return [m.bit_count() for m in range(1 << n)]


def _literals(n: int) -> list:
    """Coalition literals ``{1,3}`` for every mask, built incrementally."""
    lit = [""] * (1 << n)
    for m in range(1, 1 << n):
        top = m.bit_length()
        rest = m ^ (1 << (top - 1))
        lit[m] = lit[rest] + ("," if rest else "") + str(top)
    return ["{" + s + "}" for s in lit]


def table_document(n: int, values: list) -> str:
    lit = _literals(n)
    lines = ["representation: table", f"n: {n}", "default: 0"]
    lines += [f"value {lit[m]}: {values[m]}" for m in range(1, 1 << n) if values[m]]
    return "\n".join(lines) + "\n"


def random_table(rng: random.Random, n: int, lo: int, hi: int) -> list:
    return [0] + [rng.randint(lo, hi) for _ in range((1 << n) - 1)]


def superadditive_table(rng: random.Random, n: int) -> list:
    """``10·|S|² + U(0..9)``: strictly superadditive, since 20·|A|·|B| > 18."""
    pc = _popcounts(n)
    return [0] + [10 * pc[m] ** 2 + rng.randint(0, 9) for m in range(1, 1 << n)]


def random_blocks(rng: random.Random, n: int, k: int) -> str:
    """A seeded partition of 1..n into k nonempty blocks, as a literal."""
    players = list(range(1, n + 1))
    rng.shuffle(players)
    cuts = [0] + sorted(rng.sample(range(1, n), k - 1)) + [n]
    return " ".join("{" + ",".join(map(str, sorted(players[a:b]))) + "}" for a, b in zip(cuts, cuts[1:]))


def run_blocks(n: int, k: int) -> str:
    """The partition of 1..n into k runs of consecutive players, as a literal."""
    cuts = [n * i // k for i in range(k + 1)]
    return " ".join("{" + ",".join(map(str, range(a + 1, b + 1))) + "}" for a, b in zip(cuts, cuts[1:]))


def by_masks(parts) -> list:
    return sorted(parts, key=lambda q: q.masks)


class Workload:
    name = ""
    pattern: tuple = ()
    cycles = 2            # plan length in cycles; longer runs repeat the plan
    trace_cycles = 1      # requests in a traced run, in cycles

    def pool(self, kind: str) -> int:
        return POOL

    def plan(self, seed: int) -> "list[tuple[str, int]]":
        rng = random.Random(f"{self.name}|{seed}")
        out = []
        for _ in range(self.cycles):
            kinds = list(self.pattern)
            rng.shuffle(kinds)
            out += [(k, rng.randrange(self.pool(k))) for k in kinds]
        return out

    def setup(self, plan) -> "list[Input]":
        inputs = [self.make(kind, index) for kind, index in plan]
        self.warm()
        return inputs

    def make(self, kind: str, index: int) -> Input:
        raise NotImplementedError

    def warm(self) -> None:
        """Run small requests untimed so lazy set-up is done before timing."""
        raise NotImplementedError

    def run(self, tr, inp: Input):
        raise NotImplementedError

    def answer(self, inp: Input, raw) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# solve: the O(3^n) DP, the dc scan and parsing; no Bell enumeration


class Solve(Workload):
    name = "solve"
    # R: random 0..100 tables, S: strictly superadditive, T: transportation.
    # Latency clusters: R12/R13 ~0.2 s, R14/S13 ~0.6 s, S14/T12 ~1.1 s.  The
    # mix puts the median inside the first cluster and the 11th-largest
    # latency inside the second, so neither sits on a cluster boundary.
    pattern = ("R12",) * 6 + ("R13",) * 6 + ("R14", "S13") * 3 + ("S14", "T12")

    def make(self, kind: str, index: int) -> Input:
        rng = random.Random(f"solve|{kind}|{index}")
        return Input(f"{kind}:{index}", kind, int(kind[1:]), self._document(rng, kind[0], int(kind[1:])))

    @staticmethod
    def _document(rng: random.Random, family: str, n: int) -> str:
        if family == "R":
            return table_document(n, random_table(rng, n, 0, 100))
        if family == "S":
            return table_document(n, superadditive_table(rng, n))
        # Fixed cities and decay factors, seeded base costs: the exact
        # arithmetic of the DP costs about the same on every instance.
        lines = [
            "representation: rule",
            "family: transportation",
            "param cities: " + run_blocks(n, 3),
            "param base: " + " ".join(str(rng.randint(2, 9)) for _ in range(3)),
            "param decay: 1/2 2/3 3/4",
            "param penalty: 2",
        ]
        return "\n".join(lines) + "\n"

    def warm(self) -> None:
        rng = random.Random("solve|warm")
        for fam in "RST":
            inp = Input("warm", fam, 6, self._document(rng, fam, 6))
            self.answer(inp, self.run(_UNTRACED, inp))

    def run(self, tr, inp: Input):
        g, _ = tr.call("gamefile.parse_game", parse_game, inp.data)
        tr.call("model.dense_table", g.dense_table)
        opt = tr.call("solver.optimal_partition", optimal_partition, g)
        bounded = None
        if g.n == 12:
            bounded = tr.call("solver.optimal_partition_bounded", optimal_partition_bounded, g, 3)
        w = opt.witness
        single = Partition.singletons(g.n)
        r = {"g": g, "opt": opt, "bounded": bounded, "single": single}
        r["dp"] = tr.call("stability.check_dp", check_dp, g, w)
        r["dp_single"] = tr.call("stability.check_dp", check_dp, g, single)
        r["dc"] = tr.call("stability.check_dc", check_dc, g, w)
        r["dc_strict"] = tr.call("stability.check_dc_strict", check_dc_strict, g, w)
        r["dhp"] = None
        if max(len(b) for b in w.blocks) <= SPLIT_CAP:
            r["dhp"] = tr.call("stability.check_dhp", check_dhp, g, w)
        r["doc"] = tr.call("gamefile.serialize_game", serialize_game, g, {"witness": w})
        return r

    def answer(self, inp: Input, r) -> dict:
        g, opt, bounded = r["g"], r["opt"], r["bounded"]
        require(g.n == inp.n, "parsed game has the wrong size")
        v = g.dense_table()
        w = opt.witness
        partition_of(w, g.n, "optimum witness")
        require(welfare(v, w.masks) == opt.optimum, "witness welfare differs from the optimum")
        if bounded is not None:
            partition_of(bounded.witness, g.n, "bounded witness")
            require(len(bounded.witness) <= 3, "bounded witness has more than 3 blocks")
            require(welfare(v, bounded.witness.masks) == bounded.optimum, "bounded witness welfare wrong")
            require(bounded.optimum <= opt.optimum, "bounded optimum above the optimum")
        require(verdict(v, w, r["dp"]), "optimum witness judged not dp-stable")
        single_dp = verdict(v, r["single"], r["dp_single"])
        require(single_dp == (welfare(v, r["single"].masks) == opt.optimum), "dp verdict on singletons wrong")
        require(f"partition witness: {w}\n" in r["doc"], "serialized document lacks the witness")
        return {
            "optimum": str(opt.optimum),
            "bounded3": None if bounded is None else str(bounded.optimum),
            "dp_singletons": single_dp,
            "dc": verdict(v, w, r["dc"]),
            "dc_strict": verdict(v, w, r["dc_strict"], strict=True),
            "dhp": None if r["dhp"] is None else verdict(v, w, r["dhp"]),
        }


# ---------------------------------------------------------------------------
# ties: the Bell-number enumerations, several questions per game


class Ties(Workload):
    name = "ties"
    # T: tie-heavy 0..2 tables, S: strictly superadditive.  S11 asks only
    # the three grand-partition questions.
    # Latency clusters: T9 ~10 ms, S9 ~35 ms, T10 ~0.2 s, S10 ~0.9 s, S11
    # ~3 s.  The mix puts both the median and the 11th-largest latency well
    # inside S10, whose cost does not depend on the table's values; S9's
    # rides on a cached partition list and swings with memory contention.
    pattern = ("T9", "S9", "T10") + ("S10",) * 8 + ("S11",)

    def make(self, kind: str, index: int) -> Input:
        rng = random.Random(f"ties|{kind}|{index}")
        n = int(kind[1:])
        table = random_table(rng, n, 0, 2) if kind[0] == "T" else superadditive_table(rng, n)
        return Input(f"{kind}:{index}", kind, n, table)

    def warm(self) -> None:
        rng = random.Random("ties|warm")
        for kind, table in (("T6", random_table(rng, 6, 0, 2)), ("S11", superadditive_table(rng, 6))):
            inp = Input("warm", kind, 6, table)
            self.answer(inp, self.run(_UNTRACED, inp))

    def run(self, tr, inp: Input):
        g = Game(inp.n, table=inp.data)
        tr.call("model.dense_table", g.dense_table)
        grand = Partition.grand(g.n)
        r = {"g": g, "grand": grand}
        r["dpk"] = tr.call("stability.check_dp_k_strict", check_dp_k_strict, g, grand, 3)
        if inp.kind == "S11":
            r["targets"] = [grand]
        else:
            mx = tr.call("solver.all_maximizers", all_maximizers, g)
            first = by_masks(mx)
            r["mx"] = mx
            r["strict_dp"] = tr.call("stability.check_strict_dp", check_strict_dp, g, first[0])
            r["found"] = tr.call("stability.find_dc_stable", find_dc_stable, g)
            r["targets"] = [grand] + [q for q in first[:3] if q != grand]
            r["corollary"] = tr.call("stability.corollary_shortcuts", corollary_shortcuts, g)
        r["dhp"] = [tr.call("stability.check_dhp", check_dhp, g, q) for q in r["targets"]]
        r["strict_dhp"] = [tr.call("stability.check_strict_dhp", check_strict_dhp, g, q) for q in r["targets"]]
        return r

    def answer(self, inp: Input, r) -> dict:
        g, grand = r["g"], r["grand"]
        v = g.dense_table()
        ans = {
            "dpk3_strict": verdict(v, grand, r["dpk"], strict=True, max_blocks=3),
            "dhp": [verdict(v, q, x) for q, x in zip(r["targets"], r["dhp"])],
            "strict_dhp": [verdict(v, q, x, strict=True) for q, x in zip(r["targets"], r["strict_dhp"])],
        }
        if "mx" not in r:
            return ans
        mx = r["mx"]
        require(len(mx) >= 1 and len(set(mx)) == len(mx), "maximizers empty or repeated")
        for q in mx:
            partition_of(q, g.n, "maximizer")
        opt = welfare(v, mx[0].masks)
        require(all(welfare(v, q.masks) == opt for q in mx), "maximizers differ in welfare")
        first = by_masks(mx)[0]
        strict_dp = verdict(v, first, r["strict_dp"], strict=True)
        require(strict_dp == (len(mx) == 1), "strict dp verdict disagrees with the maximizer count")
        found = r["found"]
        require(found is None or found in mx, "dc-stable partition is not a maximizer")
        c = r["corollary"]
        ans.update(
            optimum=str(opt),
            maximizers=len(mx),
            maximizer_digest=digest(mx),
            strict_dp=strict_dp,
            dc_found=found is not None,
            corollary=[c.grand_stable, c.grand_unique, c.singletons_stable, c.singletons_unique],
        )
        return ans


# ---------------------------------------------------------------------------
# dynamics: the rule generator and the reachability closure, n <= 8

CLASSES = ("additive", "superadditive", "strictly-superadditive", "general")
RULE_SETS = (("ms", DEFAULT_RULES), ("all", ALL_RULES))


def apply_masks(pm: tuple, app) -> list:
    """Block masks after one rule application, computed independently."""
    blocks = list(pm)
    if isinstance(app, Merge):
        union = 0
        for i in app.indices:
            union |= blocks[i]
        return [b for i, b in enumerate(blocks) if i not in app.indices] + [union]
    if isinstance(app, Split):
        require(app.parts.union_mask == blocks[app.index], "split parts do not cover the block")
        return [b for i, b in enumerate(blocks) if i != app.index] + list(app.parts.masks)
    if isinstance(app, Transfer):
        m = app.moved.mask
        require(not m & ~blocks[app.source] and m != blocks[app.source], "transfer payload invalid")
        blocks[app.source] ^= m
        blocks[app.target] |= m
        return blocks
    if isinstance(app, Exchange):
        u1, u2 = app.from_first.mask, app.from_second.mask
        i, j = app.first, app.second
        require(not u1 & ~blocks[i] and not u2 & ~blocks[j], "exchange payload invalid")
        blocks[i], blocks[j] = (blocks[i] ^ u1) | u2, (blocks[j] ^ u2) | u1
        return blocks
    raise Wrong(f"unknown rule application {app!r}")


def check_gain(v, pm: tuple, app) -> list:
    after = apply_masks(pm, app)
    require(sorted(after) != sorted(pm) and all(after), "application leaves an empty block or no change")
    require(app.gain > 0 and welfare(v, after) - welfare(v, pm) == app.gain, "application gain wrong")
    return after


class Dynamics(Workload):
    name = "dynamics"
    # Strictly superadditive games only at n = 7: from the singletons every
    # merge gains, and at n = 8 their closure alone takes about 5 s.  Four
    # 8-player additive games (~5 ms each, like odd4) per cycle keep the
    # median inside that cluster.
    pattern = (
        tuple(f"R7-{c}" for c in CLASSES)
        + ("R8-additive",) * 4
        + ("R8-superadditive", "R8-general", "exa-a", "exa-1", "exa-miss", "exa-2", "exa-miss1", "odd4", "power8")
    )
    cycles = 4
    trace_cycles = 6

    def pool(self, kind: str) -> int:
        return POOL if kind.startswith(("R", "power")) else 1

    def make(self, kind: str, index: int) -> Input:
        rng = random.Random(f"dynamics|{kind}|{index}")
        extra = {"random_seed": rng.randrange(1 << 16)}
        if kind.startswith("R"):
            n, cls = kind[1:].split("-", 1)
            data = GeneratorSpec(int(n), cls, 0, 6, rng.randrange(1 << 30))
            return Input(f"{kind}:{index}", kind, int(n), data, extra)
        if kind == "power8":
            data = Partition.parse(random_blocks(rng, 8, rng.choice((2, 3, 4))))
            return Input(f"{kind}:{index}", kind, 8, data, extra)
        n = 8 if kind == "odd4" else example_game(kind).n
        return Input(f"{kind}:{index}", kind, n, None, extra)

    def warm(self) -> None:
        inp = self.make("exa-a", 0)
        self.answer(inp, self.run(_UNTRACED, inp))

    def run(self, tr, inp: Input):
        kind = inp.kind
        if kind.startswith("R"):
            g = tr.call("games.random_game", random_game, inp.data)
        elif kind == "power8":
            g = tr.call("games.partition_power_game", partition_power_game, inp.data, 2)
        elif kind == "odd4":
            g = tr.call("games.generalized_odd_game", generalized_odd_game, 4)
        else:
            g = tr.call("games.example_game", example_game, kind)
        tr.call("model.dense_table", g.dense_table)
        s0 = Partition.singletons(g.n)
        traces = {}
        for strategy in (FIRST_APPLICABLE, BEST_GAIN, random_strategy(inp.extra["random_seed"])):
            for rname, rules in RULE_SETS:
                traces[f"{strategy.kind}/{rname}"] = tr.call(
                    "dynamics.iterate." + strategy.kind, iterate, g, s0, strategy, rules
                )
        outs = {
            rname: tr.call("dynamics.closure_outcomes", closure_outcomes, g, s0, rules, tag=f"{kind}/{rname}")
            for rname, rules in RULE_SETS
        }
        apps = tr.call("dynamics.applicable_rules", applicable_rules, g, Partition.grand(g.n), ALL_RULES)
        rules_of = dict(RULE_SETS)
        closed = [
            tr.call("dynamics.is_closed", is_closed, g, t.final, rules_of[key.split("/")[1]])
            for key, t in traces.items()
        ]
        return {"g": g, "traces": traces, "outs": outs, "apps": apps, "closed": closed}

    def answer(self, inp: Input, r) -> dict:
        g = r["g"]
        v = g.dense_table()
        require(all(r["closed"]), "an iterate final is not closed under its rules")
        for key, t in r["traces"].items():
            pm = t.initial.masks
            for st in t.steps:
                after = check_gain(v, pm, st.application)
                require(sorted(after) == sorted(st.result.masks), "trace step result differs from its application")
                require(st.welfare == welfare(v, after), "trace welfare wrong")
                pm = st.result.masks
            require(t.final in r["outs"][key.split("/")[1]], "iterate final is not a reachable fixpoint")
        grand = (g.full_mask,)
        for app in r["apps"]:
            check_gain(v, grand, app)
        return {
            "finals": {key: str(t.final) for key, t in r["traces"].items()},
            "outcomes": {k: [len(o), digest(o)] for k, o in r["outs"].items()},
            "applications": len(r["apps"]),
        }


# ---------------------------------------------------------------------------
# cli: one `python -m coalstab` process per request

G = "games/"
CLI_REQUESTS = {
    # id: (argv after `-m coalstab`, span tag)
    "check-dc": (["check", "--game", G + "exa-a.game", "--partition", "two-one", "--notion", "dc"], "exa-a"),
    "check-dp": (["check", "--game", G + "exa-miss.game", "--partition", "trap", "--notion", "dp"], None),
    "check-dpk": (["check", "--game", G + "exa-2.game", "--partition", "final", "--notion", "dpk:2"], None),
    "check-dhp": (["check", "--game", G + "exa-1.game", "--partition", "low", "--notion", "dhp"], None),
    "check-dc-strict": (["check", "--game", G + "transport-two-cities.game", "--partition", "cities", "--notion", "dc", "--strict"], None),
    "check-dp-strict": (["check", "--game", G + "exa-miss1.game", "--partition", "best", "--notion", "dp", "--strict"], None),
    "check-dpk-strict": (["check", "--game", G + "exa-miss.game", "--partition", "stable", "--notion", "dpk:2", "--strict"], None),
    "check-dhp-strict": (["check", "--game", G + "exa-miss1.game", "--partition", "other", "--notion", "dhp", "--strict"], None),
    "check-dc-oracle": (["check", "--game", G + "exa-2.game", "--partition", "final", "--notion", "dc", "--oracle"], None),
    "check-dhp-oracle": (["check", "--game", G + "exa-miss.game", "--partition", "trap", "--notion", "dhp", "--oracle"], None),
    "check-dp-oracle-strict": (["check", "--game", G + "exa-1.game", "--partition", "high", "--notion", "dp", "--strict", "--oracle"], None),
    "find-dc": (["find", "--game", G + "exa-miss.game", "--notion", "dc"], None),
    "find-dc-none": (["find", "--game", G + "exa-a.game", "--notion", "dc"], None),
    "find-dp": (["find", "--game", G + "exa-2.game", "--notion", "dp"], None),
    "find-dhp": (["find", "--game", G + "exa-1.game", "--notion", "dhp"], None),
    "solve": (["solve", "--game", G + "exa-2.game"], None),
    "solve-max-size": (["solve", "--game", G + "exa-1.game", "--max-size", "2"], None),
    "solve-all": (["solve", "--game", G + "exa-miss1.game", "--all-maximizers"], None),
    "solve-max-size-all": (["solve", "--game", G + "exa-a.game", "--max-size", "2", "--all-maximizers"], None),
    "iterate-first": (["iterate", "--game", G + "exa-1.game", "--start", "singletons"], None),
    "iterate-best": (["iterate", "--game", G + "transport-two-cities.game", "--start", "chains", "--strategy", "best", "--rules", "merge,split,transfer,exchange"], None),
    "iterate-random": (["iterate", "--game", G + "exa-miss.game", "--start", "singletons", "--strategy", "random:7"], None),
    "outcomes": (["outcomes", "--game", G + "exa-1.game", "--start", "singletons"], None),
    "outcomes-all": (["outcomes", "--game", G + "exa-2.game", "--start", "singletons", "--rules", "merge,split,transfer,exchange"], None),
    "generate-odd": (["generate", "--family", "generalized_odd", "--param", "n=4", "--out", "{tmp}/odd.game"], None),
    "generate-random": (["generate", "--family", "random", "--param", "n=6", "--param", "class=superadditive", "--param", "seed=5", "--out", "{tmp}/random.game"], None),
    # One generated 14-player table: parsing and the DP dominate.
    "solve-big": (["solve", "--game", "{big}"], None),
    "check-big": (["check", "--game", "{big}", "--partition", "singletons", "--notion", "dp"], None),
    # Failures by design: a malformed document (exit 2) and a 13-player
    # block past the dhp split-scan cap (exit 3).
    "bad-document": (["check", "--game", "{tmp}/bad.game", "--partition", "{1}", "--notion", "dc"], None),
    "cap-dhp": (["check", "--game", "{tmp}/cap.game", "--partition", "grand", "--notion", "dhp"], None),
}
BAD_DOCUMENT = "representation: table\nn: 2\nvalue {1,3}: 5\n"
CAP_DOCUMENT = (
    "representation: rule\nfamily: partition_power\n"
    "param partition: {1,2,3,4,5,6,7,8,9,10,11,12,13}\nparam m: 2\n"
    "partition grand: {1,2,3,4,5,6,7,8,9,10,11,12,13}\n"
)
BIG_N = 14
BIG_POOL = 4


class Cli(Workload):
    name = "cli"
    # Each invocation once, and the two 14-player ones (~0.85 s against
    # ~0.2 s) five times: the 11th-largest latency then falls inside their
    # cluster rather than on whichever small query a noise burst hit.
    pattern = tuple(CLI_REQUESTS) + ("solve-big", "check-big") * 4
    cycles = 1

    def __init__(self, root: Path, tmp: Path) -> None:
        self.root = root
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tables: dict = {}

    def pool(self, kind: str) -> int:
        return 1

    def plan(self, seed: int):
        self.big = random.Random(f"cli|big|{seed}").randrange(BIG_POOL)
        return super().plan(seed)

    def setup(self, plan):
        self.tables = {}
        for f in sorted((self.root / "games").glob("*.game")):
            self.tables[G + f.name] = load_game(f)[0].dense_table()
        rng = random.Random(f"cli|big|{self.big}")
        values = random_table(rng, BIG_N, 0, 100)
        doc = table_document(BIG_N, values) + "partition singletons: " + " ".join(
            "{%d}" % i for i in range(1, BIG_N + 1)
        ) + "\n"
        (self.tmp / "big.game").write_text(doc, encoding="utf-8")
        self.tables["{big}"] = values
        (self.tmp / "bad.game").write_text(BAD_DOCUMENT, encoding="utf-8")
        (self.tmp / "cap.game").write_text(CAP_DOCUMENT, encoding="utf-8")
        return super().setup(plan)

    def make(self, kind: str, index: int) -> Input:
        argv, tag = CLI_REQUESTS[kind]
        key = f"{kind}:{self.big}" if "{big}" in argv else kind
        args = [a.replace("{tmp}", str(self.tmp)).replace("{big}", str(self.tmp / "big.game")) for a in argv]
        game = next((a for a in argv if a.startswith(G) or a == "{big}"), None)
        return Input(key, kind, 0, args, {"tag": tag, "game": game})

    def warm(self) -> None:
        self.invoke(CLI_REQUESTS["check-dc"][0])

    def invoke(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "coalstab", *args],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, tr, inp: Input):
        return tr.call("cli." + inp.data[0], self.invoke, inp.data, tag=inp.extra["tag"])

    def answer(self, inp: Input, raw) -> dict:
        code, out, err = raw
        ans: dict = {"exit": code}
        if code not in (0, 1):
            require(json.loads(err).get("error"), "failure without an error message")
            return ans
        rep = json.loads(out)
        cmd = rep["command"]
        v = self.tables.get(inp.extra["game"])
        if cmd == "check":
            ans["stable"] = rep["stable"]
            require((code == 0) == rep["stable"], "exit code disagrees with the verdict")
            if "witness" in rep:
                cli_witness(v, rep)
        elif cmd == "find":
            ans["found"] = rep["found"]
            if rep["found"]:
                Partition.parse(rep["partition"])
        elif cmd == "solve":
            ans["optimum"] = rep["optimum"]
            opt = as_value(rep["optimum"])
            require(welfare(v, Partition.parse(rep["witness"]).masks) == opt, "solve witness welfare wrong")
            if "maximizers" in rep:
                ans["maximizer_count"] = rep["maximizer_count"]
                qs = [Partition.parse(q) for q in rep["maximizers"]]
                require(len(qs) == rep["maximizer_count"], "maximizer count wrong")
                require(all(welfare(v, q.masks) == opt for q in qs), "maximizer welfare wrong")
        elif cmd == "iterate":
            ans["final"] = rep["final"]
            final = Partition.parse(rep["final"])
            require(welfare(v, final.masks) == as_value(rep["final_welfare"]), "final welfare wrong")
        elif cmd == "outcomes":
            ans["outcomes"] = rep["outcomes"]
        elif cmd == "generate":
            ans["n"] = rep["n"]
            require(Path(rep["out"]).is_file(), "generated document missing")
        return ans


def cli_witness(v, rep: dict) -> None:
    """Re-verify a CLI check report's witness through :func:`verify.witness`."""
    w = rep["witness"]
    p = Partition.parse(rep["partition"])
    val = as_value
    kind = w["kind"]
    if kind == "intra_block_pair":
        obj = IntraBlockPair(w["block_index"], Coalition.parse(w["a"]), Coalition.parse(w["b"]), val(w["separate"]), val(w["combined"]))
    elif kind == "incompatible_set":
        obj = IncompatibleSet(Coalition.parse(w["coalition"]), val(w["pieces_value"]), val(w["whole_value"]))
    elif kind == "block_split":
        obj = BlockSplit(w["block_index"], Collection.parse(w["parts"]), val(w["whole_value"]), val(w["parts_value"]))
    elif kind == "block_merge":
        obj = BlockMerge(tuple(w["block_indices"]), val(w["separate"]), val(w["merged"]))
    else:
        obj = DefectingCollection(Collection.parse(w["collection"]), val(w["framed_welfare"]), val(w["welfare"]))
    notion = rep["notion"]
    bound = int(notion.split(":")[1]) if notion.startswith("dpk") else None
    witness(v, p, Verdict(False, obj), rep["strict"], bound)


class _Untraced:
    @staticmethod
    def call(name, fn, *args, tag=None):
        return fn(*args)


_UNTRACED = _Untraced()


def workload(name: str, root: Path, tmp: Path) -> Workload:
    if name == "cli":
        return Cli(root, tmp)
    return {"solve": Solve, "ties": Ties, "dynamics": Dynamics}[name]()


WORKLOADS = ("solve", "ties", "dynamics", "cli")
