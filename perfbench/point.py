"""Record a trajectory point: two sets of runs of every workload, checked
against the bounds in ``BENCHMARK.json``.

    python3 perfbench/point.py --label seed --out perfbench/points/BENCH_000_seed.json

Runs every workload untraced once per seed in ``SEEDS``, then all of that
again as a second set.  For each set it reports each end-to-end metric's
median, quartiles and spread (interquartile range over median).  The check
requires every spread except ``setup_s``'s to stay within the metric's
bound, and no median of the second set to be worse than the first set's by
more than the bound.  Then one traced run per workload gives the per-layer
metrics; the fixed-size rows (``.ms_n14``, ``.ms_b11``, ``.ms_n10``,
``.ms_n8``, CLI ``check`` on exa-a) are repeated under ``fixed_n``.  The
file is written either way; the exit code is 1 if the check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from run import HERE, ROOT, machine

SEEDS = range(1, 11)
SETS = 2
FIXED_N = (
    "solver.optimal_partition.ms_n14",
    "stability.check_dc.ms_n14",
    "stability.check_dhp.ms_b11",
    "solver.all_maximizers.ms_n10",
    "dynamics.closure_outcomes.ms_n8",
    "cli.check.exa-a.p50_ms",
    "cli.interpreter_ms",
    "cli.import_ms",
)


def now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed requests\n{proc.stderr}")
    return result["metrics"]


def one_set(spec: dict, number: int) -> dict:
    """Every workload on every seed: each end-to-end metric's values,
    median, quartiles and spread."""
    out = {"date": now(), "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(name, seed, spec["run_seconds"], 0) for seed in SEEDS]
        e2e = {}
        for m in spec["end_to_end"]:
            vals = [r[m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            e2e[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "values": vals}
            print(f"set {number} {name:9s} {m['name']:16s} median {med:12.6g} {m['unit']:6s} "
                  f"spread {(q3 - q1) / med:.3f}", flush=True)
        out["workloads"][name] = e2e
    return out


def check(spec: dict, sets: list) -> dict:
    """Per workload and metric: the spreads of both sets against the bound
    (``setup_s`` exempt), and how much worse the second median is than the
    first, as a share of the first."""
    out = {}
    for w in spec["workloads"]:
        rows = out[w["name"]] = {}
        for m in spec["end_to_end"]:
            a, b = (s["workloads"][w["name"]][m["name"]] for s in sets)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spreads = [a["spread"], b["spread"]]
            rows[m["name"]] = {
                "bound": m["bound"],
                "spreads": spreads,
                "spreads_ok": m["name"] == "setup_s" or max(spreads) <= m["bound"],
                "second_worse_by": worse,
                "medians_ok": worse <= m["bound"],
            }
            r = rows[m["name"]]
            print(f"check {w['name']:9s} {m['name']:16s} spreads {spreads[0]:.3f} {spreads[1]:.3f} "
                  f"worse by {worse:+.3f}  bound {m['bound']}  "
                  f"{'ok' if r['spreads_ok'] and r['medians_ok'] else 'FAIL'}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    point = {
        "label": args.label,
        "date": now(),
        **machine(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "sets": [one_set(spec, i + 1) for i in range(SETS)],
    }
    point["check"] = check(spec, point["sets"])
    point["ok"] = all(r["spreads_ok"] and r["medians_ok"] for w in point["check"].values() for r in w.values())
    point["per_layer"] = {}
    point["fixed_n"] = {}
    for w in spec["workloads"]:
        traced = bench(w["name"], 1, seconds, 1)
        point["per_layer"][w["name"]] = {k: v["value"] for k, v in traced.items()}
        for key in FIXED_N:
            if traced.get(key, {}).get("value"):
                point["fixed_n"][key] = traced[key]["value"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"{'check passed' if point['ok'] else 'check FAILED'}; point written to {args.out}")
    return 0 if point["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
