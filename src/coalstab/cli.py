"""Command-line front end.

Subcommands: ``check``, ``find``, ``solve``, ``iterate``, ``outcomes``,
``generate``.  Reports go to stdout as JSON with exact values rendered as
strings; errors go to stderr as ``{"error": ...}``.  Exit codes: 0 for
success (stable / found), 1 for a negative verdict (unstable / nothing
found), 2 for usage or input errors, 3 when an enumeration cap is hit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from .model import (
    CapExceededError, Game, Partition, _check_partition, _Coalitions, _from_masks, format_value, social_welfare
)
from .solver import _capped_ties, _check_budget, optimal_partition, optimal_partition_bounded
from .gamefile import FAMILIES, ParseError, build_family, load_game, save_game

# ``stability``, ``dynamics`` and ``games`` are imported inside the commands
# that use them, so that a process loads only what its subcommand needs.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalstab",
        description="Stability analysis for coalition structures in transferable-utility games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game(sp: argparse.ArgumentParser, handler) -> None:
        sp.add_argument("--game", required=True, help="path to a game document")
        sp.set_defaults(handler=handler)

    c = sub.add_parser("check", help="test one partition against a stability notion")
    add_game(c, _cmd_check)
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
    add_game(f, _cmd_find)
    f.add_argument("--notion", default="dc", choices=["dc", "dp", "dhp"])

    s = sub.add_parser("solve", help="maximize social welfare over partitions")
    add_game(s, _cmd_solve)
    s.add_argument("--max-size", type=int, default=None, help="allow at most K blocks")
    s.add_argument("--all-maximizers", action="store_true", help="list every optimal partition")

    it = sub.add_parser("iterate", help="run the rewrite engine to a fixpoint")
    add_game(it, _cmd_iterate)
    it.add_argument("--start", required=True, help="starting partition (literal or name)")
    it.add_argument("--strategy", default="first", help="first | best | random:SEED")
    it.add_argument("--rules", default="merge,split", help="comma list: merge,split,transfer,exchange")

    o = sub.add_parser("outcomes", help="all rewrite fixpoints reachable from a start")
    add_game(o, _cmd_outcomes)
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


def _witness_json(w: object) -> dict:
    """A witness as JSON, its fields in order after its ``kind``, the
    class name in snake case: values as exact strings, block indices as
    ints (a tuple of them as a list), coalitions and collections as
    literals."""
    kind = "".join("_" + c.lower() if c.isupper() else c for c in type(w).__name__)
    out: dict = {"kind": kind[1:]}
    for f in dataclasses.fields(w):  # type: ignore[arg-type]
        x = getattr(w, f.name)
        if f.type == "Value":
            x = format_value(x)
        elif isinstance(x, tuple):
            x = list(x)
        elif not isinstance(x, int):
            x = str(x)
        out[f.name] = x
    return out


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
    k = game.n if args.max_size is None else args.max_size
    maxi = None
    if args.all_maximizers:
        # The budget and the solver's cap are checked first, and the
        # listing's 12-player cap before the DP, so a listing refused by
        # them runs none; the pass the listing runs caches the optimum
        # the solve below reads.
        _check_budget(game, k)
        maxi = _capped_ties(game, k)
    res = optimal_partition_bounded(game, k)
    report = {
        "command": "solve",
        "game": args.game,
        "optimum": format_value(res.optimum),
        "witness": str(res.witness),
    }
    if args.max_size is not None:
        report["max_size"] = args.max_size
    if maxi is not None:
        coalitions = _Coalitions()
        report["maximizers"] = [str(_from_masks(Partition, q, coalitions)) for q in maxi]
        report["maximizer_count"] = len(report["maximizers"])
    return 0, report


def _cmd_iterate(args, game: Game, named: "dict[str, Partition]"):
    from .dynamics import _coerce_rules, iterate, trace_lines

    part = _resolve_partition(args.start, named, game)
    strategy = _resolve_strategy(args.strategy)
    rules = _coerce_rules(args.rules)
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
    from .dynamics import _coerce_rules, closure_outcomes

    part = _resolve_partition(args.start, named, game)
    rules = _coerce_rules(args.rules)
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
    save_game(args.out, game, named)
    report = {"command": "generate", "family": args.family, "out": args.out, "n": game.n}
    return 0, report


def _fail(message: str) -> None:
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")


def main(argv: "Sequence[str] | None" = None) -> int:
    """Run one subcommand on ``argv`` (default: ``sys.argv[1:]``), write
    its JSON report to stdout, and return the exit code: 0 stable or
    found, 1 unstable or nothing found, 2 a usage or input error, 3 a
    cap hit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        if args.command == "generate":
            code, report = _cmd_generate(args)
        else:
            code, report = args.handler(args, *load_game(args.game))
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
