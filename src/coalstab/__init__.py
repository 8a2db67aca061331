"""Exact stability analysis for coalition structures in transferable-utility games.

The package models games with exact rational values, checks partitions for
stability against several families of rival arrangements (arbitrary
collections, partitions, size-bounded partitions, merge/split
rearrangements), maximizes social welfare, runs merge/split/transfer/
exchange dynamics to their fixpoints, ships a library of example and
parametric games, and reads/writes a plain-text game-document format with
a matching command-line interface.
"""

import importlib

__version__ = "0.1.0"

# Each public name by the submodule that defines it, in ``__all__`` order.
# ``import coalstab`` loads none of them: a name's submodule is imported
# on its first access, through ``__getattr__``.
_SOURCES = {
    "model": (
        "MAX_PLAYERS", "PARTITION_ENUM_CAP", "COLLECTION_ENUM_CAP", "CapExceededError",
        "Value", "as_value", "format_value", "Coalition", "Collection", "Partition",
        "Game", "frame", "social_welfare", "modified_social_welfare", "is_compatible",
        "is_homogeneous", "enumerate_partitions", "enumerate_collections",
        "enumerate_homogeneous_partitions",
    ),
    "solver": (
        "SOLVER_CAP", "BOUNDED_SOLVER_CAP", "MAXIMIZER_CAP", "OptResult",
        "optimal_partition", "optimal_partition_bounded", "all_maximizers",
    ),
    "stability": (
        "DefectionKind", "DC", "DP", "DHP", "dp_k", "kind_from_string",
        "DefectingCollection", "IntraBlockPair", "IncompatibleSet", "BlockSplit",
        "BlockMerge", "Witness", "Verdict", "STABLE", "check_dc", "check_dc_strict",
        "check_dp", "check_strict_dp", "check_dp_k", "check_dp_k_strict", "check_dhp",
        "check_strict_dhp", "check_definitional", "is_additive", "is_superadditive",
        "CorollaryReport", "corollary_shortcuts", "find_dc_stable",
    ),
    "dynamics": (
        "CLOSURE_CAP", "RuleName", "DEFAULT_RULES", "ALL_RULES", "Merge", "Split",
        "Transfer", "Exchange", "RuleApplication", "Strategy", "FIRST_APPLICABLE",
        "BEST_GAIN", "random_strategy", "TraceStep", "Trace", "applicable_rules",
        "is_closed", "step", "iterate", "closure_outcomes", "format_application",
        "trace_lines",
    ),
    "games": (
        "EXAMPLE_NAMES", "example_game", "generalized_odd_game",
        "odds_evens_partition", "pairs_partition", "partition_power_game",
        "CityConfig", "transportation_game", "GameClass", "GeneratorSpec",
        "random_game",
    ),
    "gamefile": (
        "FAMILIES", "ParseError", "parse_game", "serialize_game", "load_game",
        "save_game", "build_family",
    ),
    "cli": ("main",),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import the submodule ``name`` or the one that defines it, and cache
    the name here so later reads skip this hook."""
    if name in _SOURCES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> "list[str]":
    return sorted({*globals(), *__all__, *_SOURCES})
