"""Unit tests for the plain-text game document format: parsing, precise
error reporting, serialization round-trips, and the bundled documents."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from coalstab import (
    Coalition,
    Game,
    ParseError,
    Partition,
    build_family,
    example_game,
    format_value,
    generalized_odd_game,
    load_game,
    parse_game,
    partition_power_game,
    save_game,
    serialize_game,
    transportation_game,
    CityConfig,
)

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"


class TestParseTable:
    def test_minimal(self):
        g, named = parse_game(
            """
            representation: table
            n: 2
            default: 0
            value {1,2}: 5
            """
        )
        assert g.dense_table() == [0, 0, 0, 5]
        assert named == {}

    def test_comments_and_fractions(self):
        g, _ = parse_game(
            "# a comment\n"
            "representation: table  # trailing comment\n"
            "n: 2\n"
            "value {1}: 1/3\n"
            "value {2}: 0.25\n"
            "value {1,2}: -2\n"
        )
        assert g.dense_table() == [0, Fraction(1, 3), Fraction(1, 4), -2]

    def test_no_default_requires_completeness(self):
        with pytest.raises(ParseError, match=r"missing value for coalition \{2\}"):
            parse_game("representation: table\nn: 2\nvalue {1}: 1\nvalue {1,2}: 1\n")

    def test_explicit_empty_set(self):
        g, _ = parse_game(
            "representation: table\nn: 1\ndefault: 3\nvalue {}: 0\n"
        )
        assert g.mask_value(0) == 0 and g.mask_value(1) == 3
        with pytest.raises(ParseError, match="empty set must have value 0"):
            parse_game("representation: table\nn: 1\ndefault: 0\nvalue {}: 1\n")

    def test_named_partitions(self):
        _, named = parse_game(
            "representation: table\nn: 3\ndefault: 0\n"
            "partition main: {1,2} {3}\npartition alt: {1,3} {2}\n"
        )
        assert named == {
            "main": Partition.parse("{1,2} {3}"),
            "alt": Partition.parse("{1,3} {2}"),
        }

    @pytest.mark.parametrize(
        "doc,message",
        [
            ("n: 2\n", "missing 'representation"),
            ("representation: csv\nn: 2\n", "must be 'table' or 'rule'"),
            ("representation: table\ndefault: 0\n", "need an 'n:' line"),
            ("representation: table\nn: 0\n", "n must be between"),
            ("representation: table\nn: 2\nn: 3\n", "duplicate n"),
            ("representation: table\nn: 2\nvalue: 3\n", "value lines look like"),
            ("representation: table\nn: 2\ncolor {1}: red\n", "unknown key"),
            ("representation: table\nn: 2\ndefault: 0\nnonsense\n", "expected 'key: value'"),
            (
                "representation: table\nn: 2\ndefault: 0\nvalue {1}: 1\nvalue {1}: 2\n",
                "duplicate coalition entry",
            ),
            (
                "representation: table\nn: 2\ndefault: 0\nvalue {3}: 1\n",
                "player index out of range",
            ),
            (
                "representation: table\nn: 2\ndefault: 0\nvalue {x}: 1\n",
                "bad player number",
            ),
            (
                "representation: table\nn: 2\ndefault: 0\nvalue {1}: 1.1.1\n",
                "malformed rational",
            ),
            (
                "representation: table\nn: 2\ndefault: 0\nvalue {1}: 0.5\nfamily: example\n",
                "do not take family",
            ),
            (
                "representation: table\nn: 2\ndefault: 0\npartition a: {1}\n",
                "does not cover",
            ),
            (
                "representation: table\nn: 2\ndefault: 0\n"
                "partition a: {1} {2}\npartition a: {1,2}\n",
                "duplicate partition name",
            ),
        ],
    )
    def test_errors(self, doc, message):
        with pytest.raises(ParseError, match=message):
            parse_game(doc)

    @pytest.mark.parametrize(
        "doc,line",
        [
            ("representation: table\nn: 2\ndefault: 1e5000\n", "line 3"),
            ("representation: table\nn: 2\ndefault: 0\nvalue {1,2}: 1e-9999999\n", "line 4"),
        ],
    )
    def test_oversized_values_refused_with_line(self, doc, line):
        with pytest.raises(ParseError, match=f"{line}: rational too large"):
            parse_game(doc)

    def test_errors_carry_line_numbers(self):
        doc = "representation: table\nn: 2\ndefault: 0\nvalue {9}: 1\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_game(doc)


class TestParseRule:
    def test_example_family(self):
        g, _ = parse_game("representation: rule\nfamily: example\nparam name: exa-a\n")
        assert g == example_game("exa-a")
        assert g.family == "example"

    def test_generalized_odd(self):
        g, _ = parse_game("representation: rule\nfamily: generalized_odd\nparam n: 3\n")
        assert g == generalized_odd_game(3)

    def test_partition_power(self):
        g, _ = parse_game(
            "representation: rule\nfamily: partition_power\n"
            "param partition: {1,2} {3}\nparam m: 2\n"
        )
        assert g == partition_power_game(Partition.parse("{1,2} {3}"), 2)

    def test_transportation(self):
        g, _ = parse_game(
            "representation: rule\nfamily: transportation\n"
            "param cities: {1,2} {3,4}\nparam base: 6 4\n"
            "param decay: 1/2 1/2\nparam penalty: 2\n"
        )
        expect, _ = transportation_game(
            CityConfig(Partition.parse("{1,2} {3,4}"), (6, 4), ("1/2", "1/2"), 2)
        )
        assert g == expect

    def test_random_defaults(self):
        g, _ = parse_game("representation: rule\nfamily: random\nparam n: 4\n")
        assert g.n == 4 and g.family == "random"
        again, _ = parse_game("representation: rule\nfamily: random\nparam n: 4\n")
        assert g == again  # seeded, hence reproducible

    def test_optional_n_cross_check(self):
        g, _ = parse_game(
            "representation: rule\nn: 6\nfamily: generalized_odd\nparam n: 3\n"
        )
        assert g.n == 6
        with pytest.raises(ParseError, match="produced 6 players"):
            parse_game("representation: rule\nn: 4\nfamily: generalized_odd\nparam n: 3\n")

    @pytest.mark.parametrize(
        "doc,message",
        [
            ("representation: rule\nparam n: 3\n", "need a 'family:' line"),
            ("representation: rule\nfamily: sudoku\n", "unknown family"),
            ("representation: rule\nfamily: generalized_odd\n", "needs parameter 'n'"),
            (
                "representation: rule\nfamily: generalized_odd\nparam n: 3\nparam q: 1\n",
                "unknown parameter",
            ),
            (
                "representation: rule\nfamily: example\nparam name: exa-a\nvalue {1}: 2\n",
                "do not take value/default",
            ),
            (
                "representation: rule\nfamily: generalized_odd\nparam n: 1\n",
                "needs n >= 2",
            ),
            (
                "representation: rule\nfamily: example\nparam name: x\nparam name: y\n",
                "duplicate parameter",
            ),
        ],
    )
    def test_errors(self, doc, message):
        with pytest.raises(ParseError, match=message):
            parse_game(doc)

    def test_bad_param_value_reported_at_its_line(self):
        doc = (
            "representation: rule\nfamily: transportation\nparam cities: {1,2} {3}\n"
            "param base: 6 4\nparam decay: 1/2 1/2\nparam penalty: PENALTY\n"
        )
        with pytest.raises(ParseError, match="^line 6: rational too large"):
            parse_game(doc.replace("PENALTY", "1e5000"))
        with pytest.raises(ParseError, match="^line 4: n must be an integer"):
            parse_game("representation: rule\nfamily: random\n\nparam n: four\n")
        # Errors that involve several parameters stay at the family line.
        with pytest.raises(ParseError, match="^line 2: need exactly one base cost"):
            parse_game(doc.replace("6 4", "6 4 2").replace("PENALTY", "2"))

    def test_build_family_direct(self):
        g = build_family("example", {"name": "exa-1"})
        assert g == example_game("exa-1")
        with pytest.raises(ValueError, match="unknown family"):
            build_family("nope", {})


class TestSerialize:
    def test_table_round_trip(self):
        g = Game.from_table(3, {(1,): "1/2", (2, 3): -4}, default=0)
        text = serialize_game(g, {"main": Partition.parse("{1} {2,3}")})
        back, named = parse_game(text)
        assert back == g
        assert named == {"main": Partition.parse("{1} {2,3}")}
        assert "default: 0" in text and "value {1}: 1/2" in text

    def test_zero_values_elided(self):
        g = Game.from_table(2, {(1, 2): 1})
        text = serialize_game(g)
        assert "value {1}" not in text and "value {1,2}: 1" in text

    @pytest.mark.parametrize(
        "make",
        [
            lambda: example_game("exa-2"),
            lambda: generalized_odd_game(3),
            lambda: partition_power_game(Partition.parse("{1,2} {3,4}"), 2),
            lambda: transportation_game(
                CityConfig(Partition.parse("{1,2} {3,4}"), (6, 4), ("1/2", "1/2"), 2)
            )[0],
        ],
    )
    def test_rule_round_trip_stays_rule(self, make):
        g = make()
        text = serialize_game(g)
        assert text.startswith("representation: rule")
        back, _ = parse_game(text)
        assert back == g
        assert back.family == g.family

    def test_family_without_params_falls_back_to_table(self):
        g = Game(2, table=[0, 1, 2, 3], family="example")
        assert serialize_game(g).startswith("representation: table")

    def test_save_and_load(self, tmp_path):
        g = example_game("exa-miss1")
        path = tmp_path / "doc.game"
        save_game(path, g, {"best": Partition.parse("{1,2} {3}")})
        back, named = load_game(path)
        assert back == g and named["best"] == Partition.parse("{1,2} {3}")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_game(tmp_path / "absent.game")

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "broken.game"
        path.write_text("representation: table\n")
        with pytest.raises(ParseError, match="broken.game"):
            load_game(path)


class TestBundledDocuments:
    @pytest.mark.parametrize("name", ["exa-a", "exa-1", "exa-miss", "exa-2", "exa-miss1"])
    def test_examples_match_library(self, name):
        g, named = load_game(GAMES_DIR / f"{name}.game")
        assert g == example_game(name)
        assert named  # every bundled document names at least one partition

    def test_transport_document(self):
        g, named = load_game(GAMES_DIR / "transport-two-cities.game")
        expect, _ = transportation_game(
            CityConfig(Partition.parse("{1,2} {3,4}"), (6, 4), ("1/2", "1/2"), 2)
        )
        assert g == expect
        assert named["cities"] == Partition.parse("{1,2} {3,4}")
        assert named["chains"] == Partition.parse("{1,3} {2,4}")

    def test_specific_named_partitions(self):
        _, named = load_game(GAMES_DIR / "exa-miss.game")
        assert named["stable"] == Partition.parse("{1,2} {3,4}")
        assert named["trap"] == Partition.parse("{1,3} {2,4}")


# ---------------------------------------------------------------------------
# Exact table-document errors: the message, the line, and which error wins
# when a document has several faults.

H = "representation: table\nn: 2\ndefault: 0\n"
TABLE_ERRORS = [
    ('n: 2\n',
     "missing 'representation: table' or 'representation: rule' line"),
    ('representation: table\nn: 2\nrepresentation: table\n',
     'line 3: duplicate representation line'),
    ('representation: csv\nn: 2\n',
     "line 1: representation must be 'table' or 'rule'"),
    ('representation: table\nn: 2\nn: 3\n',
     'line 3: duplicate n line'),
    ('representation: table\nn: two\n',
     "line 2: n must be an integer, got 'two'"),
    (H + 'default: 1\n',
     'line 4: duplicate default line'),
    ('representation: table\nn: 2\nvalue: 3\n',
     "line 3: value lines look like 'value {1,2}: 5'"),
    ('representation: table\nn: 2\nvalue {1}\n',
     "line 3: expected 'key: value', got 'value {1}'"),
    ('representation: table\nn: 2\n: 3\n',
     "line 3: unknown key ''"),
    ('representation: table\nn: 2\ncolor {1} : red\n',
     "line 3: unknown key 'color {1}'"),
    ('representation: table\ndefault: 0\n',
     "table documents need an 'n:' line"),
    ('representation: table\nn: 0\n',
     'line 2: n must be between 1 and 20'),
    ('representation: table\nn: 21\n',
     'line 2: n must be between 1 and 20'),
    ('representation: table\nn: 2\nfamily: example\n',
     'line 3: table documents do not take family/param lines'),
    ('representation: table\nn: 2\nfamily: sudoku\n',
     "line 3: unknown family 'sudoku'; valid: example, generalized_odd, partition_power, transportation, random"),
    ('representation: table\nn: 2\nparam n: 3\n',
     'line 3: table documents do not take family/param lines'),
    ('representation: table\nn: 2\nparam: 3\n',
     "line 3: param lines look like 'param n: 3'"),
    ('representation: table\nn: 2\npartition: {1,2}\n',
     "line 3: partition lines look like 'partition main: {1,2} {3}'"),
    (H + 'value {x}: 1\n',
     "line 4: bad player number 'x'"),
    (H + 'value {1,,x}: 1\n',
     "line 4: bad player number 'x'"),
    (H + 'value {3}: 1\n',
     'line 4: player index out of range: 3 in a 2-player game'),
    (H + 'value {0}: 1\n',
     'line 4: player index out of range: 0 in a 2-player game'),
    (H + 'value {-1}: 1\n',
     'line 4: player index out of range: -1 in a 2-player game'),
    (H + 'value {1,2: 1\n',
     "line 4: bad player number '{1'"),
    (H + 'value 1 2 3: 1\n',
     'line 4: player index out of range: 3 in a 2-player game'),
    (H + 'value {1}: 1.1.1\n',
     "line 4: malformed rational: '1.1.1'"),
    (H + 'value {1}: 1/0\n',
     "line 4: malformed rational: '1/0'"),
    (H + 'value {1}: 0.5 # half\nvalue {1}: 2\n',
     'line 5: duplicate coalition entry {1}'),
    (H + 'value {1}: 1\nvalue { 1 }: 2\n',
     'line 5: duplicate coalition entry { 1 }'),
    (H + 'value {1,2}: 1\nvalue {2,1}: 2\n',
     'line 5: duplicate coalition entry {2,1}'),
    (H + 'value {}: 1\n',
     'line 4: the empty set must have value 0'),
    (H + 'value {}: -1/2\n',
     'line 4: the empty set must have value 0'),
    (H + 'value {1}: 1e5000\n',
     'line 4: rational too large: its numerator or denominator passes 4300 digits'),
    ('representation: table\nn: 2\ndefault: x\n',
     "line 3: malformed rational: 'x'"),
    ('representation: table\nn: 2\ndefault: 1e-9999999\n',
     'line 3: rational too large: its numerator or denominator passes 4300 digits'),
    ('representation: table\nn: 2\nvalue {1}: 1\nvalue {1,2}: 1\n',
     'missing value for coalition {2} and no default given'),
    ('representation: table\nn: 3\nvalue {1}: 1\n',
     'missing value for coalition {2} and no default given'),
    ('representation: table\nn: 2\nvalue {2}: 1\nvalue {1,2}: 1\n',
     'missing value for coalition {1} and no default given'),
    (H + 'partition a: {1}\n',
     "line 4: partition 'a' does not cover players 1..2"),
    (H + 'partition a: {1} {2}\npartition a: {1,2}\n',
     "line 5: duplicate partition name 'a'"),
    (H + 'partition a: {1,2} {2}\n',
     'line 4: blocks must be pairwise disjoint'),
    (H + 'partition a: {1} {3}\n',
     'line 4: blocks must cover players 1..3 with no gaps; missing [2]'),
    (H + 'partition a: oops\n',
     "line 4: no coalition literals found in 'oops'"),
    (H + 'partition a: {1,x}\n',
     "line 4: bad player number in coalition literal '{1,x}'"),
    (H + 'partition a: {}\n',
     "line 4: empty coalition literal: '{}'"),
    (H + 'nonsense\n',
     "line 4: expected 'key: value', got 'nonsense'"),
    (H + 'value {x}: 1\nvalue {1}: y\n',
     "line 4: bad player number 'x'"),
    (H + 'value {1}: y\nvalue {x}: 1\n',
     "line 4: malformed rational: 'y'"),
    (H + 'value {x}: y\n',
     "line 4: bad player number 'x'"),
    (H + 'value {1}: 1\nvalue {1}: y\n',
     "line 5: malformed rational: 'y'"),
    (H + 'value {9}: 1\nbogus: 2\n',
     "line 5: unknown key 'bogus'"),
    (H + 'value {1}: 1\nvalue {1}: 2\nvalue {2}: 1\nvalue {2}: 2\n',
     'line 5: duplicate coalition entry {1}'),
    ('representation: table\nn: 2\nvalue {1}: 1\nvalue {1}: 1\n',
     'line 4: duplicate coalition entry {1}'),
    ('representation: table\nn: 25\nvalue {x}: 1\n',
     'line 2: n must be between 1 and 20'),
    ('representation: table\nn: 2\ndefault: q\nvalue {x}: 1\n',
     "line 3: malformed rational: 'q'"),
    (H + 'value {1}: 1\npartition a: {1}\npartition b: {3}\n',
     "line 5: partition 'a' does not cover players 1..2"),
    (H + 'partition a: {1} {2}\npartition a: {1,2}\npartition a: x\n',
     "line 5: duplicate partition name 'a'"),
    ('representation: table\nrepresentation: rule\nn: 2\nn: 3\n',
     'line 2: duplicate representation line'),
    (H + 'value {1}: 1\nfamily: example\nvalue {x}: 1\n',
     'line 5: table documents do not take family/param lines'),
    (H + 'value {1}: 1\nparam n: 3\nfamily: example\n',
     'line 5: table documents do not take family/param lines'),
]


@pytest.mark.parametrize("doc,message", TABLE_ERRORS)
def test_table_document_error_messages(doc, message):
    with pytest.raises(ParseError) as info:
        parse_game(doc)
    assert str(info.value) == message


R = "representation: rule\n"
E = R + "family: example\nparam name: exa-a\n"
RULE_ERRORS = [
    (E + 'family: example\n',
     'line 4: duplicate family line'),
    (R + 'family: sudoku\n',
     "line 2: unknown family 'sudoku'; valid: example, generalized_odd, partition_power, transportation, random"),
    (R + 'param n: 3\n',
     "rule documents need a 'family:' line"),
    (E + 'value {1}: 2\n',
     'line 4: rule documents do not take value/default lines'),
    (E + 'default: 0\n',
     'line 4: rule documents do not take value/default lines'),
    (E + 'default: 0\nvalue {1}: 2\n',
     'line 4: rule documents do not take value/default lines'),
    (E + 'value {1}: 2\ndefault: 0\n',
     'line 4: rule documents do not take value/default lines'),
    (R + 'n extra: 3\n',
     "line 2: unknown key 'n extra'"),
    ('representation x: rule\n',
     "line 1: unknown key 'representation x'"),
    (E + 'default d: 0\n',
     "line 4: unknown key 'default d'"),
    (R + 'family f: example\n',
     "line 2: unknown key 'family f'"),
    # Two bad header lines: the first line in the document that is bad wins,
    # and a repeated key is refused before its value is looked at.
    (R + 'family: example\nfamily: sudoku\n',
     'line 3: duplicate family line'),
    (R + 'n: x\nfamily: sudoku\n',
     "line 2: n must be an integer, got 'x'"),
    (R + 'family: sudoku\nn: 3\nn: 4\n',
     "line 2: unknown family 'sudoku'; valid: example, generalized_odd, partition_power, transportation, random"),
    # Values of 3**3000000, 1.4 million digits, are refused unbuilt.
    (R + 'family: partition_power\nparam partition: {1,2,3} {4}\nparam m: 3000000\n',
     'line 2: exponent m must be an integer >= 1 with 3**m within 4300 digits'),
]


@pytest.mark.parametrize("doc,message", RULE_ERRORS)
def test_rule_document_error_messages(doc, message):
    with pytest.raises(ParseError) as info:
        parse_game(doc)
    assert str(info.value) == message


def _reference_table_document(g: Game, named=None) -> str:
    """The table form rendered one Coalition at a time."""
    v = g.dense_table()
    lines = ["representation: table", f"n: {g.n}", "default: 0"]
    lines += [f"value {Coalition(m)}: {format_value(v[m])}" for m in range(1, 1 << g.n) if v[m] != 0]
    lines += [f"partition {name}: {p}" for name, p in (named or {}).items()]
    return "\n".join(lines) + "\n"


class TestSerializeBytes:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_tables_match_reference(self, n):
        rng = random.Random(f"serialize|{n}")
        pool = [0, 0, 1, -1, 57, -4300, Fraction(1, 3), Fraction(-7, 2), Fraction(22, 7)]
        table = [0] + [rng.choice(pool) for _ in range((1 << n) - 1)]
        g = Game(n, table=table)
        named = {"grand": Partition.grand(n), "two words": Partition.singletons(n)}
        text = serialize_game(g, named)
        assert text == _reference_table_document(g, named)
        assert parse_game(text) == (g, named)

    @pytest.mark.parametrize("path", sorted(GAMES_DIR.glob("*.game")), ids=lambda p: p.stem)
    def test_bundled_documents_match_reference(self, path):
        g, named = load_game(path)
        table_only = Game(g.n, table=g.dense_table())
        assert serialize_game(table_only, named) == _reference_table_document(table_only, named)

    @pytest.mark.parametrize("name", ["", " a", "a ", "a:b", "a#b", "a\nb", "a\rb", "a\u2028b", "\t"])
    def test_names_that_do_not_read_back_refused(self, name):
        g = Game(2, table=[0, 1, 1, 3])
        with pytest.raises(ValueError, match="would not read back as itself"):
            serialize_game(g, {name: Partition.grand(2)})

    @pytest.mark.parametrize("name", ["a", "two words", "x-1_y.z", "a\tb", "\u00e9t\u00e9"])
    def test_names_that_read_back_kept(self, name):
        g = Game(2, table=[0, 1, 1, 3])
        back, named = parse_game(serialize_game(g, {name: Partition.grand(2)}))
        assert back == g and named == {name: Partition.grand(2)}


class TestParseFixes:
    def test_repeated_empty_set_line_is_a_duplicate(self):
        with pytest.raises(ParseError) as info:
            parse_game(H + "value {}: 0\nvalue {}: 0\n")
        assert str(info.value) == "line 5: duplicate coalition entry {}"
        g, _ = parse_game(H + "value {}: 0\nvalue {1}: 2\n")
        assert g.dense_table() == [0, 2, 0, 0]

    @pytest.mark.parametrize(
        "literal", ["{1,2} oops", "{1} oops {2}", "{1}{2}x", "{1} {2", "}{1} {2}", "{1} {2}}"]
    )
    def test_text_outside_partition_literals(self, literal):
        with pytest.raises(ParseError) as info:
            parse_game(H + f"partition main: {literal}\n")
        assert str(info.value) == f"line 4: text outside the coalition literals in {literal!r}"

    @pytest.mark.parametrize("literal", ["{1} {2}", "{{1},{2}}", " { {1} , {2} } ", "{1},{2}"])
    def test_separators_and_one_enclosing_pair_kept(self, literal):
        _, named = parse_game(H + f"partition main: {literal}\n")
        assert named == {"main": Partition.singletons(2)}

    def test_load_reads_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.game"
        path.write_bytes(b"\xef\xbb\xbf" + (GAMES_DIR / "exa-a.game").read_bytes())
        assert load_game(path) == load_game(GAMES_DIR / "exa-a.game")
        # A string keeps its byte-order mark, which is not a key.
        with pytest.raises(ParseError) as info:
            parse_game("\ufeff" + H)
        assert str(info.value) == "line 1: unknown key '\\ufeffrepresentation'"


class TestLineBreaks:
    def test_form_feed_in_a_comment_stays_in_its_line(self):
        with pytest.raises(ParseError) as info:
            parse_game("# comment\x0ctail\nrepresentation: table\nn: 2\nvalue {1,3}: 5\n")
        assert str(info.value) == "line 4: player index out of range: 3 in a 2-player game"

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_newlines_end_a_line(self, sep):
        doc = f"# a{sep}b: c\n" + H + f"value {{1,2}}: 3  # d{sep}e\n"
        g, named = parse_game(doc)
        assert g.dense_table() == [0, 0, 0, 3] and named == {}
        with pytest.raises(ParseError) as info:
            parse_game(doc + f"# f{sep}g\nvalue {{3}}: 1\n")
        assert str(info.value) == "line 7: player index out of range: 3 in a 2-player game"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_endings_number_lines_as_open_does(self, newline, tmp_path):
        doc = newline.join(["representation: table", "n: 2", "", "value {1,3}: 5", ""])
        with pytest.raises(ParseError) as info:
            parse_game(doc)
        assert str(info.value) == "line 4: player index out of range: 3 in a 2-player game"
        path = tmp_path / "endings.game"
        path.write_bytes(doc.encode())
        with pytest.raises(ParseError) as info:
            load_game(path)
        assert str(info.value) == f"{path}: line 4: player index out of range: 3 in a 2-player game"


class TestNotUtf8:
    @pytest.mark.parametrize(
        "data,line,byte",
        [
            (b"\xffrepresentation: table\n", 1, "0xff"),
            (b"representation: table\r\nn: 2\r# caf\xe9\n", 3, "0xe9"),
            (b"\xef\xbb\xbfrepresentation: table\nn: 2\n\n# \xe2\x82", 4, "0xe2"),
        ],
        ids=["first-byte", "cr-line-endings", "bom-and-cut-sequence"],
    )
    def test_load_names_the_path_and_the_line_of_the_first_bad_byte(self, tmp_path, data, line, byte):
        path = tmp_path / "latin1.game"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            load_game(path)
        assert str(info.value) == f"{path}: line {line}: not UTF-8: cannot decode byte {byte}"
