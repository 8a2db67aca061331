"""Unit tests for the command-line interface: JSON reports, exit codes,
partition-name resolution, and the generate round trip.  Most tests drive
``main()`` in-process; two subprocess tests cover the real entry points.
The console-script test builds the ``coalstab`` script from the committed
``pyproject.toml`` into a temporary directory and runs that copy; it never
looks the script up on ``PATH``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from coalstab import Partition, example_game, load_game
from coalstab.cli import main
from conftest import count_dp_calls

ROOT = Path(__file__).resolve().parent.parent
GAMES = ROOT / "games"
EXA_A = str(GAMES / "exa-a.game")
EXA_1 = str(GAMES / "exa-1.game")
EXA_MISS = str(GAMES / "exa-miss.game")
EXA_2 = str(GAMES / "exa-2.game")
TRANSPORT = str(GAMES / "transport-two-cities.game")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


class TestCheck:
    def test_stable_partition(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--game", EXA_MISS, "--partition", "stable", "--notion", "dc"
        )
        assert code == 0 and err is None
        assert out["stable"] is True
        assert out["notion"] == "dc" and out["partition"] == "{1,2} {3,4}"
        assert "witness" not in out

    @pytest.mark.parametrize(
        "game,partition,notion,witness",
        [
            (EXA_MISS, "trap", ["dc"], [
                ("kind", "incompatible_set"), ("coalition", "{1,2}"),
                ("pieces_value", "2"), ("whole_value", "3"),
            ]),
            (EXA_MISS, "stable", ["dc", "--strict"], [
                ("kind", "intra_block_pair"), ("block_index", 1), ("a", "{3}"), ("b", "{4}"),
                ("separate", "2"), ("combined", "2"),
            ]),
            (EXA_A, "grand", ["dhp"], [
                ("kind", "block_split"), ("block_index", 0), ("parts", "{1} {2,3}"),
                ("whole_value", "6"), ("parts_value", "7"),
            ]),
            (EXA_A, "singletons", ["dhp"], [
                ("kind", "block_merge"), ("block_indices", [0, 1]), ("separate", "4"), ("merged", "5"),
            ]),
            (EXA_MISS, "trap", ["dp"], [
                ("kind", "defecting_collection"), ("collection", "{1,2} {3} {4}"),
                ("framed_welfare", "4"), ("welfare", "5"),
            ]),
        ],
        ids=["incompatible_set", "intra_block_pair", "block_split", "block_merge", "defecting_collection"],
    )
    def test_unstable_partition_carries_witness(self, capsys, game, partition, notion, witness):
        code, out, _ = run_cli(
            capsys, "check", "--game", game, "--partition", partition, "--notion", *notion
        )
        assert code == 1
        assert out["stable"] is False
        assert list(out["witness"].items()) == witness

    def test_literal_partition(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--game", EXA_MISS, "--partition", "{1,3} {2,4}",
            "--notion", "dhp",
        )
        assert code == 0 and out["stable"] is True

    def test_strict_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--game", EXA_MISS, "--partition", "stable",
            "--notion", "dc", "--strict",
        )
        assert code == 1
        assert out["strict"] is True
        assert out["witness"]["kind"] == "intra_block_pair"

    def test_oracle_agrees(self, capsys):
        for notion in ("dc", "dp", "dhp", "dpk:2"):
            for partition in ("stable", "trap"):
                fast = run_cli(
                    capsys, "check", "--game", EXA_MISS, "--partition", partition,
                    "--notion", notion,
                )
                slow = run_cli(
                    capsys, "check", "--game", EXA_MISS, "--partition", partition,
                    "--notion", notion, "--oracle",
                )
                assert fast[0] == slow[0]
                assert fast[1]["stable"] == slow[1]["stable"]
                assert slow[1]["oracle"] is True

    def test_dpk_notion(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--game", EXA_A, "--partition", "grand", "--notion", "dpk:1"
        )
        assert code == 0 and out["notion"] == "dpk:1"

    def test_unknown_partition_name(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--game", EXA_A, "--partition", "nope", "--notion", "dc"
        )
        assert code == 2
        assert "unknown partition name" in err["error"]
        assert "grand" in err["error"]  # lists the known names

    def test_partition_size_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--game", EXA_A, "--partition", "{1,2} {3,4}",
            "--notion", "dc",
        )
        assert code == 2 and "player-count mismatch" in err["error"]

    def test_text_outside_partition_literal(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--game", EXA_A, "--partition", "{1,2}{3}x", "--notion", "dc"
        )
        assert code == 2 and out is None
        assert err == {"error": "text outside the coalition literals in '{1,2}{3}x'"}

    def test_bad_notion(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--game", EXA_A, "--partition", "grand", "--notion", "zz"
        )
        assert code == 2 and "notion" in err["error"]

    def test_missing_game_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "check", "--game", str(tmp_path / "no.game"),
            "--partition", "grand", "--notion", "dc",
        )
        assert code == 2 and err is not None

    def test_malformed_game_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.game"
        bad.write_text("representation: table\nn: 2\ndefault: 0\nvalue {9}: 1\n")
        code, _, err = run_cli(
            capsys, "check", "--game", str(bad), "--partition", "{1} {2}", "--notion", "dc"
        )
        assert code == 2 and "line 4" in err["error"]

    def test_game_file_that_is_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.game"
        bad.write_bytes(b"representation: table\nn: 2\n# caf\xe9\n")
        code, out, err = run_cli(
            capsys, "check", "--game", str(bad), "--partition", "{1} {2}", "--notion", "dc"
        )
        assert code == 2 and out is None
        assert err == {"error": f"{bad}: line 3: not UTF-8: cannot decode byte 0xe9"}


class TestFind:
    def test_dc_found(self, capsys):
        code, out, _ = run_cli(capsys, "find", "--game", EXA_MISS, "--notion", "dc")
        assert code == 0
        assert out["found"] is True and out["partition"] == "{1,2} {3,4}"

    def test_dc_absent(self, capsys):
        for game in (EXA_A, EXA_1, EXA_2):
            code, out, _ = run_cli(capsys, "find", "--game", game, "--notion", "dc")
            assert code == 1
            assert out["found"] is False and "partition" not in out

    def test_dc_found_past_the_listing_cap(self, capsys, tmp_path):
        # All Bell(12) partitions tie, more than a listing may hold, and
        # the first the search vets, the grand partition, is dc-stable.
        doc = tmp_path / "zero.game"
        doc.write_text("representation: table\nn: 12\ndefault: 0\n")
        code, out, _ = run_cli(capsys, "find", "--game", str(doc), "--notion", "dc")
        assert code == 0 and out["partition"] == str(Partition.grand(12))

    def test_dp_always_found(self, capsys):
        code, out, _ = run_cli(capsys, "find", "--game", EXA_A, "--notion", "dp")
        assert code == 0 and out["partition"] == "{1} {2,3}"

    def test_dhp_via_rewrites(self, capsys):
        code, out, _ = run_cli(capsys, "find", "--game", EXA_A, "--notion", "dhp")
        assert code == 0 and out["partition"] == "{1,2} {3}"

    def test_bad_notion_rejected_by_argparse(self, capsys):
        code = main(["find", "--game", EXA_A, "--notion", "dpk:2"])
        capsys.readouterr()
        assert code == 2


class TestSolve:
    def test_unbounded(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--game", EXA_A)
        assert code == 0
        assert out["optimum"] == "7" and out["witness"] == "{1} {2,3}"

    def test_bounded(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--game", EXA_A, "--max-size", "1")
        assert code == 0
        assert out["optimum"] == "6" and out["witness"] == "{1,2,3}"
        assert out["max_size"] == 1

    def test_all_maximizers(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--game", EXA_MISS, "--all-maximizers")
        assert code == 0
        assert out["maximizer_count"] == 2
        assert out["maximizers"] == ["{1,2} {3,4}", "{1,2} {3} {4}"]

    def test_bounded_maximizers(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--game", EXA_A, "--max-size", "2", "--all-maximizers"
        )
        assert code == 0
        assert out["maximizer_count"] == 3
        assert set(out["maximizers"]) == {"{1,2} {3}", "{1,3} {2}", "{1} {2,3}"}

    def test_fractional_optimum_rendered_exactly(self, capsys, tmp_path):
        doc = tmp_path / "frac.game"
        doc.write_text(
            "representation: table\nn: 2\ndefault: 0\n"
            "value {1}: 1/3\nvalue {2}: 1/3\nvalue {1,2}: 1/2\n"
        )
        code, out, _ = run_cli(capsys, "solve", "--game", str(doc))
        assert code == 0 and out["optimum"] == "2/3"

    def test_optimum_past_the_digit_limit(self, capsys, tmp_path):
        doc = tmp_path / "big.game"
        nines = "9" * 4300
        doc.write_text(
            f"representation: table\nn: 2\ndefault: 0\nvalue {{1}}: {nines}\nvalue {{2}}: {nines}\n"
        )
        code, out, _ = run_cli(capsys, "solve", "--game", str(doc))
        assert code == 0 and out["optimum"] == "1" + "9" * 4299 + "8"

    def test_bad_bound(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--game", EXA_A, "--max-size", "0")
        assert code == 2 and "k must be" in err["error"]

    @pytest.mark.parametrize(
        "n,k,error",
        [
            (13, None, "13 players exceed the partition enumeration cap of 12"),
            (16, 2, "16 players exceed the partition enumeration cap of 12"),
            (17, 17, "17 players exceed the partition enumeration cap of 12"),
            (17, 2, "17 players exceed the bounded solver cap of 16"),
            (19, None, "19 players exceed the solver cap of 18"),
            (19, 19, "19 players exceed the solver cap of 18"),
        ],
    )
    def test_refused_listing_runs_no_dp(self, capsys, tmp_path, monkeypatch, n, k, error):
        # The listing's cap and the solver's are tested before any DP, the
        # solver's first, so each refusal is the one the solve would give.
        doc = tmp_path / "zero.game"
        doc.write_text(f"representation: table\nn: {n}\ndefault: 0\n")
        calls = count_dp_calls(monkeypatch)
        bound = [] if k is None else ["--max-size", str(k)]
        code, out, err = run_cli(capsys, "solve", "--game", str(doc), "--all-maximizers", *bound)
        assert code == 3 and out is None
        assert err["error"] == error
        assert calls == []

    @pytest.mark.parametrize("bound", [[], ["--max-size", "2"]], ids=["unbounded", "bounded"])
    def test_answered_listing_runs_one_pass(self, capsys, monkeypatch, bound):
        # The counting pass leaves the optimum the report reads: one DP,
        # one layer at budget 2, and the same optimum and witness as a
        # plain solve.
        game = str(GAMES / "exa-miss1.game")
        _, plain, _ = run_cli(capsys, "solve", "--game", game, *bound)
        calls = count_dp_calls(monkeypatch)
        code, out, _ = run_cli(capsys, "solve", "--game", game, "--all-maximizers", *bound)
        assert code == 0 and calls == [1]
        assert (out["optimum"], out["witness"]) == (plain["optimum"], plain["witness"])
        assert out["witness"] in out["maximizers"]


class TestIterate:
    def test_first_strategy(self, capsys):
        code, out, _ = run_cli(
            capsys, "iterate", "--game", EXA_1, "--start", "singletons"
        )
        assert code == 0
        assert out["final"] == "{1,2} {3} {4}"
        assert out["initial_welfare"] == "0" and out["final_welfare"] == "1"
        assert [s["line"] for s in out["steps"]] == [
            "merge {1} {2} gain 1 -> {1,2} {3} {4}"
        ]
        assert out["steps"][0]["rule"] == "merge" and out["steps"][0]["gain"] == "1"

    def test_best_strategy(self, capsys):
        code, out, _ = run_cli(
            capsys, "iterate", "--game", EXA_1, "--start", "singletons",
            "--strategy", "best",
        )
        assert code == 0 and out["final"] == "{1,3} {2} {4}"
        assert out["final_welfare"] == "2"

    def test_random_strategy_is_deterministic(self, capsys):
        runs = [
            run_cli(
                capsys, "iterate", "--game", EXA_1, "--start", "singletons",
                "--strategy", "random:11",
            )[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_exchange_rule(self, capsys):
        code, out, _ = run_cli(
            capsys, "iterate", "--game", EXA_MISS, "--start", "trap",
            "--rules", "merge,split,transfer,exchange",
        )
        assert code == 0
        assert out["final"] == "{1,2} {3,4}"
        assert out["steps"][0]["rule"] == "exchange"

    def test_fixpoint_start(self, capsys):
        code, out, _ = run_cli(capsys, "iterate", "--game", EXA_MISS, "--start", "trap")
        assert code == 0 and out["steps"] == [] and out["final"] == "{1,3} {2,4}"

    def test_bad_strategy(self, capsys):
        code, _, err = run_cli(
            capsys, "iterate", "--game", EXA_1, "--start", "singletons",
            "--strategy", "slowest",
        )
        assert code == 2 and "unknown strategy" in err["error"]
        code, _, err = run_cli(
            capsys, "iterate", "--game", EXA_1, "--start", "singletons",
            "--strategy", "random",
        )
        assert code == 2 and "needs a seed" in err["error"]

    @pytest.mark.parametrize("text", ["random-ish:7", "randomly:7", "random7", "first:1"])
    def test_malformed_strategies_are_refused(self, capsys, text):
        code, out, err = run_cli(
            capsys, "iterate", "--game", EXA_1, "--start", "singletons",
            "--strategy", text,
        )
        assert code == 2 and out is None and "unknown strategy" in err["error"]

    def test_bad_rules(self, capsys):
        code, _, err = run_cli(
            capsys, "iterate", "--game", EXA_1, "--start", "singletons",
            "--rules", "merge,grow",
        )
        assert code == 2 and "unknown rule" in err["error"]


class TestOutcomes:
    def test_two_basins(self, capsys):
        code, out, _ = run_cli(
            capsys, "outcomes", "--game", EXA_1, "--start", "singletons"
        )
        assert code == 0
        assert out["count"] == 2
        assert out["outcomes"] == ["{1,2} {3} {4}", "{1,3} {2} {4}"]

    def test_all_rules_escape_the_trap(self, capsys):
        code, out, _ = run_cli(
            capsys, "outcomes", "--game", EXA_MISS, "--start", "trap",
            "--rules", "merge,split,transfer,exchange",
        )
        assert code == 0 and out["outcomes"] == ["{1,2} {3,4}"]

    def test_merge_split_misses_it(self, capsys):
        code, out, _ = run_cli(capsys, "outcomes", "--game", EXA_MISS, "--start", "trap")
        assert code == 0 and out["outcomes"] == ["{1,3} {2,4}"]

    def test_cap_exit_code(self, capsys, tmp_path):
        doc = tmp_path / "big.game"
        code, _, _ = run_cli(
            capsys, "generate", "--family", "generalized_odd", "--param", "n=5",
            "--out", str(doc),
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "outcomes", "--game", str(doc), "--start", "pairs"
        )
        assert code == 3 and "closure cap" in err["error"]


class TestGenerate:
    def test_generalized_odd(self, capsys, tmp_path):
        out_path = tmp_path / "gen.game"
        code, out, _ = run_cli(
            capsys, "generate", "--family", "generalized_odd", "--param", "n=2",
            "--out", str(out_path),
        )
        assert code == 0 and out["n"] == 4
        game, named = load_game(out_path)
        assert game.mask_value(0b0101) == 3
        assert named["odds-evens"] == Partition.parse("{1,3} {2,4}")
        assert named["pairs"] == Partition.parse("{1,2} {3,4}")

    def test_example(self, capsys, tmp_path):
        out_path = tmp_path / "exa.game"
        code, _, _ = run_cli(
            capsys, "generate", "--family", "example", "--param", "name=exa-2",
            "--out", str(out_path),
        )
        assert code == 0
        game, _ = load_game(out_path)
        assert game == example_game("exa-2")

    def test_partition_power(self, capsys, tmp_path):
        out_path = tmp_path / "power.game"
        code, _, _ = run_cli(
            capsys, "generate", "--family", "partition_power",
            "--param", "partition={1,2} {3}", "--param", "m=2",
            "--out", str(out_path),
        )
        assert code == 0
        game, named = load_game(out_path)
        assert game.mask_value(0b011) == 4
        assert named["blocks"] == Partition.parse("{1,2} {3}")

    def test_transportation(self, capsys, tmp_path):
        out_path = tmp_path / "tr.game"
        code, _, _ = run_cli(
            capsys, "generate", "--family", "transportation",
            "--param", "cities={1,2} {3,4}", "--param", "base=6 4",
            "--param", "decay=1/2 1/2", "--param", "penalty=2",
            "--out", str(out_path),
        )
        assert code == 0
        game, named = load_game(out_path)
        assert game.mask_value(0b0011) == 6
        assert named["cities"] == Partition.parse("{1,2} {3,4}")

    def test_param_errors(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "generate", "--family", "random", "--param", "n4",
            "--out", str(tmp_path / "x.game"),
        )
        assert code == 2 and "key=value" in err["error"]
        code, _, err = run_cli(
            capsys, "generate", "--family", "random", "--param", "n=4",
            "--param", "n=5", "--out", str(tmp_path / "x.game"),
        )
        assert code == 2 and "duplicate parameter" in err["error"]
        code, _, err = run_cli(
            capsys, "generate", "--family", "generalized_odd", "--param", "n=1",
            "--out", str(tmp_path / "x.game"),
        )
        assert code == 2 and "n >= 2" in err["error"]

    def test_unknown_family_rejected_by_argparse(self, capsys):
        code = main(["generate", "--family", "poker", "--out", "x.game"])
        capsys.readouterr()
        assert code == 2


class TestArgparseBehavior:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "coalstab" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


@pytest.fixture(scope="module")
def installed_script(tmp_path_factory):
    """Install the package from a copy of the tree, offline and without build
    isolation, and return the ``coalstab`` script and its site-packages
    directory.  Copying first keeps ``build/`` and ``*.egg-info`` out of the
    working tree."""
    pytest.importorskip("setuptools")
    work = tmp_path_factory.mktemp("console-script")
    tree = work / "tree"
    shutil.copytree(ROOT / "src", tree / "src")
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tree / name)
    prefix = work / "install"
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "install", "--root", str(prefix),
         "--install-lib", "/site-packages", "--install-scripts", "/bin"],
        cwd=tree, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return prefix / "bin" / "coalstab", prefix / "site-packages"


class TestRealEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coalstab", "check", "--game", EXA_MISS,
             "--partition", "stable", "--notion", "dc"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["stable"] is True

    def test_console_script(self, installed_script):
        exe, site_packages = installed_script
        assert exe.is_file(), "console script should be installed"
        proc = subprocess.run(
            [str(exe), "solve", "--game", EXA_A], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(site_packages)},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["optimum"] == "7"
