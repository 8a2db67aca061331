"""Command-line front end.

Subcommands: ``check``, ``find``, ``solve``, ``iterate``, ``outcomes``,
``generate``.  Reports go to stdout as JSON with exact values rendered as
strings; errors go to stderr as ``{"error": ...}``.  Exit codes: 0 for
success (stable / found), 1 for a negative verdict (unstable / nothing
found), 2 for usage or input errors, 3 when an enumeration cap is hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .model import (
    PARTITION_ENUM_CAP,
    CapExceededError,
    Game,
    Partition,
    _check_cap,
    _check_partition,
    format_value,
    social_welfare,
)
from .solver import (
    _bounded,
    _in_rgs_order,
    all_maximizers,
    optimal_partition,
    optimal_partition_bounded,
)
from .gamefile import FAMILIES, ParseError, build_family, load_game, serialize_game

# ``stability``, ``dynamics`` and ``games`` are imported inside the commands
# that use them, so that a process loads only what its subcommand needs.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalstab",
        description="Stability analysis for coalition structures in transferable-utility games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--game", required=True, help="path to a game document")

    c = sub.add_parser("check", help="test one partition against a stability notion")
    add_game(c)
    c.add_argument(
        "--partition",
        required=True,
        help="a literal like '{1,2} {3}' or a partition name from the game file",
    )
    c.add_argument("--notion", required=True, help="dc | dp | dpk:K | dhp")
    c.add_argument("--strict", action="store_true", help="require strict superiority")
    c.add_argument(
        "--oracle",
        action="store_true",
        help="use the exhaustive definitional check instead of the fast one",
    )

    f = sub.add_parser("find", help="search for a stable partition")
    add_game(f)
    f.add_argument("--notion", default="dc", choices=["dc", "dp", "dhp"])

    s = sub.add_parser("solve", help="maximize social welfare over partitions")
    add_game(s)
    s.add_argument("--max-size", type=int, default=None, help="allow at most K blocks")
    s.add_argument("--all-maximizers", action="store_true", help="list every optimal partition")

    it = sub.add_parser("iterate", help="run the rewrite engine to a fixpoint")
    add_game(it)
    it.add_argument("--start", required=True, help="starting partition (literal or name)")
    it.add_argument("--strategy", default="first", help="first | best | random:SEED")
    it.add_argument("--rules", default="merge,split", help="comma list: merge,split,transfer,exchange")

    o = sub.add_parser("outcomes", help="all rewrite fixpoints reachable from a start")
    add_game(o)
    o.add_argument("--start", required=True, help="starting partition (literal or name)")
    o.add_argument("--rules", default="merge,split", help="comma list: merge,split,transfer,exchange")

    gen = sub.add_parser("generate", help="write a game document for a named family")
    gen.add_argument("--family", required=True, choices=list(FAMILIES))
    gen.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="family parameter; repeatable",
    )
    gen.add_argument("--out", required=True, help="output path for the game document")
    return parser


def _resolve_partition(text: str, named: "dict[str, Partition]", game: Game) -> Partition:
    if "{" in text:
        part = Partition.parse(text)
    elif text in named:
        part = named[text]
    else:
        known = ", ".join(sorted(named)) or "none defined"
        raise ValueError(f"unknown partition name {text!r} (known: {known})")
    _check_partition(game, part)
    return part


def _resolve_strategy(text: str):
    from .dynamics import BEST_GAIN, FIRST_APPLICABLE, random_strategy

    token = text.strip().lower()
    if token == "first":
        return FIRST_APPLICABLE
    if token == "best":
        return BEST_GAIN
    head, _, num = token.partition(":")
    if head == "random":
        if num:
            try:
                return random_strategy(int(num))
            except ValueError as exc:
                raise ValueError(f"bad seed in strategy {text!r}") from exc
        raise ValueError("the random strategy needs a seed, e.g. random:7")
    raise ValueError(f"unknown strategy {text!r}; expected first, best, or random:SEED")


def _resolve_rules(text: str) -> "tuple[RuleName, ...]":
    from .dynamics import _coerce_rules

    return _coerce_rules(tok for tok in text.split(",") if tok.strip())


def _witness_json(w: object) -> dict:
    from .stability import BlockMerge, BlockSplit, DefectingCollection, IncompatibleSet, IntraBlockPair

    if isinstance(w, IncompatibleSet):
        return {
            "kind": "incompatible_set",
            "coalition": str(w.coalition),
            "pieces_value": format_value(w.pieces_value),
            "whole_value": format_value(w.whole_value),
        }
    if isinstance(w, IntraBlockPair):
        return {
            "kind": "intra_block_pair",
            "block_index": w.block_index,
            "a": str(w.a),
            "b": str(w.b),
            "separate": format_value(w.separate),
            "combined": format_value(w.combined),
        }
    if isinstance(w, BlockSplit):
        return {
            "kind": "block_split",
            "block_index": w.block_index,
            "parts": str(w.parts),
            "whole_value": format_value(w.whole_value),
            "parts_value": format_value(w.parts_value),
        }
    if isinstance(w, BlockMerge):
        return {
            "kind": "block_merge",
            "block_indices": list(w.block_indices),
            "separate": format_value(w.separate),
            "merged": format_value(w.merged),
        }
    if isinstance(w, DefectingCollection):
        return {
            "kind": "defecting_collection",
            "collection": str(w.collection),
            "framed_welfare": format_value(w.framed_welfare),
            "welfare": format_value(w.welfare),
        }
    raise TypeError(f"not a witness: {w!r}")


def _fast_check(g: Game, p: Partition, kind: DefectionKind, strict: bool) -> Verdict:
    from . import stability as st

    if kind.family == "dc":
        return st.check_dc_strict(g, p) if strict else st.check_dc(g, p)
    if kind.family == "dp":
        return st.check_strict_dp(g, p) if strict else st.check_dp(g, p)
    if kind.family == "dhp":
        return st.check_strict_dhp(g, p) if strict else st.check_dhp(g, p)
    return st.check_dp_k_strict(g, p, kind.k) if strict else st.check_dp_k(g, p, kind.k)


def _cmd_check(args, game: Game, named: "dict[str, Partition]"):
    from .stability import check_definitional, kind_from_string

    kind = kind_from_string(args.notion)
    part = _resolve_partition(args.partition, named, game)
    if args.oracle:
        verdict = check_definitional(game, part, kind, strict=args.strict)
    else:
        verdict = _fast_check(game, part, kind, args.strict)
    report = {
        "command": "check",
        "game": args.game,
        "partition": str(part),
        "notion": str(kind),
        "strict": args.strict,
        "oracle": args.oracle,
        "stable": verdict.stable,
    }
    if verdict.witness is not None:
        report["witness"] = _witness_json(verdict.witness)
    return (0 if verdict.stable else 1), report


def _cmd_find(args, game: Game, named: "dict[str, Partition]"):
    if args.notion == "dc":
        from .stability import find_dc_stable

        found = find_dc_stable(game)
    elif args.notion == "dp":
        found = optimal_partition(game).witness
    else:
        from .dynamics import iterate

        found = iterate(game, Partition.singletons(game.n)).final
    report = {"command": "find", "game": args.game, "notion": args.notion, "found": found is not None}
    if found is not None:
        report["partition"] = str(found)
    return (0 if found is not None else 1), report


def _cmd_solve(args, game: Game, named: "dict[str, Partition]"):
    if args.max_size is not None:
        res = optimal_partition_bounded(game, args.max_size)
    else:
        res = optimal_partition(game)
    report = {
        "command": "solve",
        "game": args.game,
        "optimum": format_value(res.optimum),
        "witness": str(res.witness),
    }
    if args.max_size is not None:
        report["max_size"] = args.max_size
    if args.all_maximizers:
        if args.max_size is not None:
            _check_cap(game.n, PARTITION_ENUM_CAP, "partition enumeration")
            maxi = _in_rgs_order(_bounded(game, args.max_size, counting=True)[1], game.n)
        else:
            maxi = all_maximizers(game)
        report["maximizers"] = [str(q) for q in maxi]
        report["maximizer_count"] = len(maxi)
    return 0, report


def _cmd_iterate(args, game: Game, named: "dict[str, Partition]"):
    from .dynamics import iterate, trace_lines

    part = _resolve_partition(args.start, named, game)
    strategy = _resolve_strategy(args.strategy)
    rules = _resolve_rules(args.rules)
    trace = iterate(game, part, strategy, rules)
    lines = trace_lines(trace)
    steps = []
    for st, line in zip(trace.steps, lines):
        steps.append(
            {
                "line": line,
                "rule": st.application.rule.value,
                "gain": format_value(st.application.gain),
                "result": str(st.result),
                "welfare": format_value(st.welfare),
            }
        )
    report = {
        "command": "iterate",
        "game": args.game,
        "start": str(part),
        "strategy": args.strategy,
        "rules": [r.value for r in rules],
        "initial_welfare": format_value(social_welfare(game, part)),
        "final": str(trace.final),
        "final_welfare": format_value(social_welfare(game, trace.final)),
        "steps": steps,
    }
    return 0, report


def _cmd_outcomes(args, game: Game, named: "dict[str, Partition]"):
    from .dynamics import closure_outcomes

    part = _resolve_partition(args.start, named, game)
    rules = _resolve_rules(args.rules)
    outs = sorted(closure_outcomes(game, part, rules), key=lambda q: q.masks)
    report = {
        "command": "outcomes",
        "game": args.game,
        "start": str(part),
        "rules": [r.value for r in rules],
        "count": len(outs),
        "outcomes": [str(q) for q in outs],
    }
    return 0, report


def _family_partitions(family: str, game: Game) -> "dict[str, Partition]":
    from .games import odds_evens_partition, pairs_partition

    if family == "generalized_odd":
        n = game.params["n"]
        return {"odds-evens": odds_evens_partition(n), "pairs": pairs_partition(n)}
    if family == "partition_power":
        return {"blocks": game.params["partition"]}
    if family == "transportation":
        return {"cities": game.params["cities"]}
    return {}


def _cmd_generate(args):
    raw_params = {}
    for kv in args.param:
        key, sep, val = kv.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"parameters look like --param key=value, got {kv!r}")
        if key.strip() in raw_params:
            raise ValueError(f"duplicate parameter {key.strip()!r}")
        raw_params[key.strip()] = val.strip()
    game = build_family(args.family, raw_params)
    named = _family_partitions(args.family, game)
    Path(args.out).write_text(serialize_game(game, named), encoding="utf-8")
    report = {"command": "generate", "family": args.family, "out": args.out, "n": game.n}
    return 0, report


def _fail(message: str) -> None:
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        if args.command == "generate":
            code, report = _cmd_generate(args)
        else:
            game, named = load_game(args.game)
            handler = {
                "check": _cmd_check,
                "find": _cmd_find,
                "solve": _cmd_solve,
                "iterate": _cmd_iterate,
                "outcomes": _cmd_outcomes,
            }[args.command]
            code, report = handler(args, game, named)
    except CapExceededError as exc:
        _fail(str(exc))
        return 3
    except (ParseError, OSError, TypeError, ValueError) as exc:
        _fail(str(exc))
        return 2
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
