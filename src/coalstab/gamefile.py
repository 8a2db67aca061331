"""Plain-text game documents.

A document is a sequence of ``key: value`` lines; ``#`` starts a comment
and blank lines are ignored.  Two representations exist::

    representation: table          representation: rule
    n: 3                           family: generalized_odd
    default: 0                     param n: 3
    value {1,2}: 5/2               partition pairs: {1,2} {3,4} {5,6}
    partition main: {1,2} {3}

Values are exact: integers, fractions like ``3/4``, or finite decimals
(converted exactly).  Table documents without a ``default`` line must
value every nonempty coalition.  Rule documents name a generator family
and its parameters, and round-trip through those parameters rather than
through an expanded table.  Named partitions are optional in both forms.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping

from .model import (
    MAX_PLAYERS,
    Coalition,
    Collection,
    Game,
    Partition,
    Value,
    as_value,
    format_value,
)


class ParseError(ValueError):
    """A malformed game document; messages carry the offending line number."""


class _BadParam(ValueError):
    """A family parameter whose value failed to convert; ``name`` says which."""

    def __init__(self, name: str, exc: Exception) -> None:
        super().__init__(str(exc))
        self.name = name


FAMILIES = ("example", "generalized_odd", "partition_power", "transportation", "random")


def _parse_int(raw: str, what: str) -> int:
    try:
        return int(raw.strip())
    except ValueError as exc:
        raise ValueError(f"{what} must be an integer, got {raw!r}") from exc


def _parse_value_list(raw: str) -> "tuple[Value, ...]":
    return tuple(as_value(tok) for tok in raw.replace(",", " ").split())


def build_family(family: str, raw_params: "Mapping[str, str]") -> Game:
    """Construct a game from a family name and raw string parameters.

    Shared by the document parser and the ``generate`` command.  Raises
    ValueError on unknown families, unknown or missing parameters, and any
    parameter that fails its family's validation; a value that fails to
    convert raises the subclass ``_BadParam``, which names the parameter.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; valid: {', '.join(FAMILIES)}")
    # Imported here, so that reading a table document does not load ``games``.
    from .games import (
        CityConfig,
        GeneratorSpec,
        example_game,
        generalized_odd_game,
        partition_power_game,
        random_game,
        transportation_game,
    )

    params = dict(raw_params)

    def take(name: str, convert: "Callable[[str], object]", default: "str | None" = None):
        raw = params.pop(name, default)
        if raw is None:
            raise ValueError(f"family {family!r} needs parameter {name!r}")
        try:
            return convert(raw)
        except (TypeError, ValueError) as exc:
            raise _BadParam(name, exc) from exc

    def take_int(name: str, default: "str | None" = None) -> int:
        return take(name, lambda raw: _parse_int(raw, name), default)

    if family == "example":
        game = example_game(take("name", str.strip))
    elif family == "generalized_odd":
        game = generalized_odd_game(take_int("n"))
    elif family == "partition_power":
        game = partition_power_game(take("partition", Partition.parse), take_int("m"))
    elif family == "transportation":
        cfg = CityConfig(
            cities=take("cities", Partition.parse),
            base=take("base", _parse_value_list),
            decay=take("decay", _parse_value_list),
            penalty=take("penalty", as_value),
        )
        game = transportation_game(cfg)[0]
    else:
        spec = GeneratorSpec(
            n=take_int("n"),
            kind=take("class", str.strip, "general"),
            low=take_int("low", "0"),
            high=take_int("high", "6"),
            seed=take_int("seed", "0"),
        )
        game = random_game(spec)
    if params:
        leftover = ", ".join(sorted(params))
        raise ValueError(f"unknown parameter(s) for family {family!r}: {leftover}")
    return game


def _parse_entry_mask(literal: str, bits: "Mapping[str, int]", lineno: int) -> int:
    """The mask of a stripped coalition literal; ``bits`` maps each player
    number written ``"1"``..``"n"`` to its bit."""
    if literal.startswith("{") and literal.endswith("}"):
        literal = literal[1:-1]
    mask = 0
    for tok in literal.replace(",", " ").split():
        bit = bits.get(tok)
        if bit is None:
            try:
                player = int(tok)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad player number {tok!r}") from exc
            if not 1 <= player <= len(bits):
                raise ParseError(
                    f"line {lineno}: player index out of range: {player} in a {len(bits)}-player game"
                )
            bit = 1 << (player - 1)
        mask |= bit
    return mask


def _lines(text: str) -> "list[str]":
    """``text`` split at ``\\n``, ``\\r\\n`` and ``\\r`` only, as ``open()`` reads
    text, so that line numbers match an editor's (``str.splitlines`` also
    breaks at form feeds, U+2028 and other separators)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_game(text: str) -> "tuple[Game, dict[str, Partition]]":
    """Parse a game document into a Game and its named partitions."""
    representation = None
    n = None
    n_line = 0
    default_entry: "tuple[int, str] | None" = None
    value_entries: "list[tuple[int, str, str]]" = []
    family = None
    family_line = 0
    raw_params: "dict[str, str]" = {}
    param_lines: "dict[str, int]" = {}
    partition_entries: "dict[str, tuple[int, str]]" = {}

    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        head, colon, tail = line.partition(":")
        if not colon:
            raise ParseError(f"line {lineno}: expected 'key: value', got {line!r}")
        tail = tail.strip()
        words = head.split(None, 1)
        key = words[0] if words else ""
        arg = words[1].strip() if len(words) > 1 else None
        if key == "value":
            if arg is None:
                raise ParseError(f"line {lineno}: value lines look like 'value {{1,2}}: 5'")
            value_entries.append((lineno, arg, tail))
        elif key == "representation" and arg is None:
            if representation is not None:
                raise ParseError(f"line {lineno}: duplicate representation line")
            if tail not in ("table", "rule"):
                raise ParseError(f"line {lineno}: representation must be 'table' or 'rule'")
            representation = tail
        elif key == "n" and arg is None:
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate n line")
            try:
                n = _parse_int(tail, "n")
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            n_line = lineno
        elif key == "default" and arg is None:
            if default_entry is not None:
                raise ParseError(f"line {lineno}: duplicate default line")
            default_entry = (lineno, tail)
        elif key == "family" and arg is None:
            if family is not None:
                raise ParseError(f"line {lineno}: duplicate family line")
            if tail not in FAMILIES:
                raise ParseError(
                    f"line {lineno}: unknown family {tail!r}; valid: {', '.join(FAMILIES)}"
                )
            family = tail
            family_line = lineno
        elif key == "param":
            if arg is None:
                raise ParseError(f"line {lineno}: param lines look like 'param n: 3'")
            if arg in raw_params:
                raise ParseError(f"line {lineno}: duplicate parameter {arg!r}")
            raw_params[arg] = tail
            param_lines[arg] = lineno
        elif key == "partition":
            if arg is None:
                raise ParseError(f"line {lineno}: partition lines look like 'partition main: {{1,2}} {{3}}'")
            if arg in partition_entries:
                raise ParseError(f"line {lineno}: duplicate partition name {arg!r}")
            partition_entries[arg] = (lineno, tail)
        else:
            raise ParseError(f"line {lineno}: unknown key {head.strip()!r}")

    if representation is None:
        raise ParseError("missing 'representation: table' or 'representation: rule' line")

    if representation == "table":
        if family is not None or raw_params:
            first = min(ln for ln in (family_line, *param_lines.values()) if ln)
            raise ParseError(f"line {first}: table documents do not take family/param lines")
        if n is None:
            raise ParseError("table documents need an 'n:' line")
        if not 1 <= n <= MAX_PLAYERS:
            raise ParseError(f"line {n_line}: n must be between 1 and {MAX_PLAYERS}")
        default: Value = 0
        if default_entry is not None:
            dl, draw = default_entry
            try:
                default = as_value(draw)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"line {dl}: {exc}") from exc
        bits = {str(i + 1): 1 << i for i in range(n)}
        dense: "list[Value]" = [0] + [default] * ((1 << n) - 1)
        seen = bytearray(1 << n)
        for lineno, literal, rawval in value_entries:
            mask = _parse_entry_mask(literal, bits, lineno)
            try:
                val = as_value(rawval)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if seen[mask]:
                raise ParseError(f"line {lineno}: duplicate coalition entry {literal.strip()}")
            seen[mask] = 1
            if mask == 0 and val != 0:
                raise ParseError(f"line {lineno}: the empty set must have value 0")
            dense[mask] = val
        missing = seen.find(0, 1)
        if default_entry is None and missing > 0:
            raise ParseError(
                f"missing value for coalition {Coalition(missing)} and no default given"
            )
        game = Game(n, table=dense)
    else:
        if value_entries or default_entry is not None:
            bad = value_entries[0][0] if value_entries else default_entry[0]  # type: ignore[index]
            raise ParseError(f"line {bad}: rule documents do not take value/default lines")
        if family is None:
            raise ParseError("rule documents need a 'family:' line")
        try:
            game = build_family(family, raw_params)
        except ParseError:
            raise
        except _BadParam as exc:
            raise ParseError(f"line {param_lines[exc.name]}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"line {family_line}: {exc}") from exc
        if n is not None and n != game.n:
            raise ParseError(
                f"line {n_line}: n is {n} but family {family!r} produced {game.n} players"
            )

    named: "dict[str, Partition]" = {}
    for name, (lineno, literal) in partition_entries.items():
        try:
            part = Partition.parse(literal)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if part.union_mask != game.full_mask:
            raise ParseError(
                f"line {lineno}: partition {name!r} does not cover players 1..{game.n}"
            )
        named[name] = part
    return game, named


def _format_param(value: object) -> str:
    if isinstance(value, Collection):
        return str(value)
    if isinstance(value, (tuple, list)):
        return " ".join(format_value(as_value(x)) for x in value)
    if isinstance(value, (int, Fraction)):
        return format_value(as_value(value))
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize parameter value {value!r}")


def serialize_game(g: Game, named: "Mapping[str, Partition] | None" = None) -> str:
    """Render a game document that :func:`parse_game` reads back.

    Games carrying family parameters serialize in rule form and round-trip
    through their parameters; everything else serializes as a dense table
    (zero-valued coalitions are elided under an explicit ``default: 0``).
    """
    lines = []
    if g.family in FAMILIES and g.params:
        lines.append("representation: rule")
        lines.append(f"family: {g.family}")
        for pname, pval in g.params.items():
            lines.append(f"param {pname}: {_format_param(pval)}")
    else:
        lines.append("representation: table")
        lines.append(f"n: {g.n}")
        lines.append("default: 0")
        # A literal is the members of its low half then of its high half.
        half = g.n // 2
        low, high = _member_lists(1, half), _member_lists(half + 1, g.n - half)
        low_mask = (1 << half) - 1
        lines += [
            f"value {{{(low[m & low_mask] + high[m >> half])[:-1]}}}: {format_value(x)}"
            for m, x in enumerate(g.dense_table())
            if x and m
        ]
    for name, part in (named or {}).items():
        if name != name.strip() or name.splitlines() != [name] or ":" in name or "#" in name:
            raise ValueError(f"partition name {name!r} would not read back as itself")
        lines.append(f"partition {name}: {part}")
    return "\n".join(lines) + "\n"


def _member_lists(first: int, count: int) -> "list[str]":
    """``"p,q,"`` for each subset of players first..first+count-1, by mask."""
    out = [""]
    for player in range(first, first + count):
        out += [s + f"{player}," for s in out]
    return out


def load_game(path: "str | Path") -> "tuple[Game, dict[str, Partition]]":
    """Read and parse a UTF-8 game document from disk, skipping a byte-order mark."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_lines(data[: exc.start].decode("utf-8")))
        bad = data[exc.start]
        raise ParseError(f"{path}: line {lineno}: not UTF-8: cannot decode byte 0x{bad:02x}") from exc
    try:
        return parse_game(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_game(path: "str | Path", g: Game, named: "Mapping[str, Partition] | None" = None) -> None:
    """Serialize a game document to disk."""
    Path(path).write_text(serialize_game(g, named), encoding="utf-8")
