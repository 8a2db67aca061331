"""Which modules each entry point loads, and the package's lazily resolved names.

``import coalstab`` loads no submodule: a public name imports the submodule
that defines it on first access, and each CLI subcommand imports only the
modules it uses.  Every test runs its probe in a fresh interpreter, so the
modules this test process has already imported do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GAMES = ROOT / "games"

SUBMODULES = ("model", "solver", "stability", "dynamics", "games", "gamefile", "cli")


def probe(code: str, *args: str):
    """Run ``code`` in a fresh interpreter and return the JSON it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Runs ``python -m coalstab ARGS`` in process, with its report kept off stdout.
CLI_PROBE = """
import contextlib, io, json, runpy, sys
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("coalstab", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("coalstab."))
print(json.dumps({"exit": code, "loaded": loaded}))
"""

BASE = {"cli", "gamefile", "model", "solver"}
STABILITY = BASE | {"stability"}
DYNAMICS = STABILITY | {"dynamics"}
GAMES_MOD = STABILITY | {"games"}


def game(name: str) -> str:
    return str(GAMES / f"{name}.game")


CLI_CASES = {
    "check-dc": (["check", "--game", game("exa-a"), "--partition", "two-one", "--notion", "dc"], STABILITY),
    "check-dc-strict": (["check", "--game", game("exa-miss"), "--partition", "stable", "--notion", "dc", "--strict"], STABILITY),
    "check-dp": (["check", "--game", game("exa-miss"), "--partition", "trap", "--notion", "dp"], STABILITY),
    "check-dpk": (["check", "--game", game("exa-2"), "--partition", "final", "--notion", "dpk:2"], STABILITY),
    "check-dhp": (["check", "--game", game("exa-1"), "--partition", "low", "--notion", "dhp"], STABILITY),
    "check-oracle": (["check", "--game", game("exa-2"), "--partition", "final", "--notion", "dc", "--oracle"], STABILITY),
    "find-dc": (["find", "--game", game("exa-miss"), "--notion", "dc"], STABILITY),
    "find-dp": (["find", "--game", game("exa-2"), "--notion", "dp"], BASE),
    "find-dhp": (["find", "--game", game("exa-1"), "--notion", "dhp"], DYNAMICS),
    "solve": (["solve", "--game", game("exa-2")], BASE),
    "solve-max-size-all": (["solve", "--game", game("exa-a"), "--max-size", "2", "--all-maximizers"], BASE),
    "solve-all": (["solve", "--game", game("exa-miss1"), "--all-maximizers"], BASE),
    "iterate": (["iterate", "--game", game("exa-1"), "--start", "singletons", "--strategy", "random:7"], DYNAMICS),
    "outcomes": (["outcomes", "--game", game("exa-1"), "--start", "singletons"], DYNAMICS),
    "rule-document": (["solve", "--game", game("transport-two-cities")], GAMES_MOD),
    "bad-rules": (["iterate", "--game", game("exa-1"), "--start", "singletons", "--rules", "grow"], DYNAMICS),
}


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_subcommand_loads_only_its_modules(case):
    argv, expected = CLI_CASES[case]
    got = probe(CLI_PROBE, *argv)
    assert got["exit"] in (0, 1, 2)
    assert set(got["loaded"]) == expected


def test_generate_loads_games(tmp_path):
    out = tmp_path / "odd.game"
    got = probe(CLI_PROBE, "generate", "--family", "generalized_odd", "--param", "n=4", "--out", str(out))
    assert got["exit"] == 0 and out.is_file()
    assert set(got["loaded"]) == GAMES_MOD


def test_import_loads_no_submodule():
    loaded = probe(
        "import json, sys, coalstab\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('coalstab.')]))"
    )
    assert loaded == []


def test_every_public_name_is_its_defining_modules_object():
    # Touch every name through the package first, then import the
    # submodules directly and compare.
    bad = probe(
        "import importlib, json, coalstab\n"
        "got = {name: getattr(coalstab, name) for name in coalstab.__all__}\n"
        f"mods = [importlib.import_module('coalstab.' + m) for m in {SUBMODULES!r}]\n"
        "bad = []\n"
        "for name, obj in got.items():\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    bound = {id(vars(m)[name]) for m in mods if name in vars(m)}\n"
        "    home = getattr(obj, '__module__', None) or ''\n"
        "    defined = vars(importlib.import_module(home)).get(name) is obj if home.startswith('coalstab.') else True\n"
        "    if bound != {id(obj)} or not defined or vars(coalstab)[name] is not obj:\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))"
    )
    assert bad == []


def test_dir_star_import_submodules_and_unknown_names():
    got = probe(
        "import json, coalstab\n"
        "names = dir(coalstab)\n"
        "first = coalstab.dynamics.iterate is coalstab.iterate\n"
        "star = {}\n"
        "exec('from coalstab import *', star)\n"
        "try:\n"
        "    coalstab.nosuch\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'all': coalstab.__all__, 'dir': names, 'first': first,\n"
        "    'star': sorted(k for k in star if k != '__builtins__'), 'missing': missing,\n"
        "    'main': coalstab.main.__module__, 'version': coalstab.__version__}))"
    )
    assert set(got["dir"]) >= set(got["all"]) | set(SUBMODULES)
    assert got["first"] is True
    assert got["star"] == sorted(got["all"])
    assert got["missing"] == "module 'coalstab' has no attribute 'nosuch'"
    assert got["main"] == "coalstab.cli" and got["version"] == "0.1.0"
    assert len(got["all"]) == len(set(got["all"])) == 96


THREAD_PROBE = """
import importlib, json, sys, threading
sys.setswitchinterval(1e-6)
import coalstab
names = sys.argv[1:]
barrier = threading.Barrier(len(names))
got = {}

def touch(name):
    barrier.wait(30)
    got[name] = getattr(coalstab, name)

threads = [threading.Thread(target=touch, args=(name,)) for name in names]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
alive = sum(t.is_alive() for t in threads)
wrong = []
for name in names:
    if name in %r:
        want = importlib.import_module("coalstab." + name)
    else:
        want = getattr(importlib.import_module(got[name].__module__), name)
    if got[name] is not want:
        wrong.append(name)
print(json.dumps({"alive": alive, "touched": sorted(got), "wrong": wrong}))
""" % (SUBMODULES,)


@pytest.mark.parametrize(
    "names",
    [
        ["Game", "optimal_partition", "check_dc", "iterate", "random_game", "load_game", "main", "find_dc_stable"],
        ["dynamics", "games", "Trace", "GeneratorSpec", "stability", "check_dhp", "parse_game", "solver"],
    ],
    ids=["functions", "with-submodules"],
)
def test_first_access_from_eight_threads(names):
    got = probe(THREAD_PROBE, *names)
    assert got == {"alive": 0, "touched": sorted(names), "wrong": []}
