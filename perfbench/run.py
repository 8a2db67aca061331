"""coalstab benchmark: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0

Workloads are ``solve``, ``ties``, ``dynamics`` and ``cli`` (see
``workloads.py``); ``--workload all`` runs each in turn in its own process.
Each request is sent only after the previous one returns.  The run builds
its inputs from ``--seed``, checks every answer (witnesses against the game
table, verdicts and optima against ``golden.json``), and measures until the
requests have taken ``--seconds`` in total.  Checking happens between
requests and is not timed.  ``setup_s`` is the median of several cold
set-ups (start-up to the end of warm-up), this process's and those of
``--setup-only`` children.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each of the
first requests untraced and then again with a span around every call into
coalstab, and prints the per-layer metrics derived from the spans, with
``trace.overhead_ratio`` (traced / untraced throughput).  The spans are
written to ``.perfbench_run/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

T0 = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5    # cold set-ups behind setup_s: this process's and four children's


def import_coalstab() -> None:
    """Import coalstab from the checkout's ``src/``; exit with an error if
    the checkout has no sources or another copy of the package would be
    measured."""
    init = SRC / "coalstab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import coalstab

    if Path(coalstab.__file__).resolve() != init.resolve():
        sys.exit(f"error: coalstab imported from {coalstab.__file__}, not from {SRC}")


def machine() -> dict:
    """Python version, CPU count, CPU model and commit, for headers."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu, "commit": commit()}


def commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line[:12]
    except OSError:
        pass
    return "unknown"


class Phase:
    """Latencies and failures of the requests run so far."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.busy = 0.0

    def request(self, wl, inp, tr, golden: dict) -> None:
        """Run one request (timed), then check its answer (untimed)."""
        from verify import Wrong

        tr.begin_request(self.attempted, inp.kind)
        err = None
        start = perf_counter()
        try:
            raw = wl.run(tr, inp)
        except Exception as exc:  # any exception is a failed request
            err = f"raised {type(exc).__name__}: {exc}"
        took = perf_counter() - start
        tr.end_request()
        self.busy += took
        self.attempted += 1
        if err is None:
            try:
                ans = wl.answer(inp, raw)
                if ans != golden.get(inp.key):
                    err = f"answer {ans} differs from golden {golden.get(inp.key)}"
            except Wrong as exc:
                err = f"invalid answer: {exc}"
            except Exception as exc:  # malformed output is a failed request
                err = f"unreadable answer: {type(exc).__name__}: {exc}"
        if err is None:
            self.latencies.append(took)
            self.kinds.append(inp.kind)
        else:
            self.failures.append((inp.key, err))


def measure(wl, inputs, golden: dict, seconds: float) -> Phase:
    """Closed loop over the seeded inputs until the requests have taken
    ``seconds``."""
    from tracing import Tracer

    ph = Phase()
    tr = Tracer(False)
    while ph.busy < seconds:
        ph.request(wl, inputs[ph.attempted % len(inputs)], tr, golden)
    return ph


def measure_traced(wl, inputs, golden: dict, seconds: float, limit: int):
    """Each of the first ``limit`` requests untraced, then again traced,
    until the untraced ones have taken ``seconds``.  Alternating cancels
    drift in machine speed out of the traced / untraced ratio."""
    from tracing import Tracer

    plain, traced = Phase(), Phase()
    off, tr = Tracer(False), Tracer(True)
    while plain.attempted < limit and plain.busy < seconds:
        inp = inputs[plain.attempted % len(inputs)]
        plain.request(wl, inp, off, golden)
        traced.request(wl, inp, tr, golden)
    return plain, traced, tr


def throughput(ph: Phase, pattern: tuple) -> float:
    """Requests per second of the workload's mix: one plan cycle's requests
    over the cycle's time, from each kind's mean latency in the run.  A run
    ends partway through a cycle, and whether that part holds a slow kind
    would otherwise swing the figure by a whole slow request."""
    by_kind: dict = {}
    for kind, took in zip(ph.kinds, ph.latencies):
        by_kind.setdefault(kind, []).append(took)
    if any(k not in by_kind for k in pattern):
        return len(ph.latencies) / ph.busy
    return len(pattern) / sum(statistics.fmean(by_kind[k]) for k in pattern)


def tail(lat: list) -> "tuple[float, float]":
    """The highest percentile with at least 10 requests beyond it: the 11th
    largest latency, and the percentile it sits at.  Runs of 10 requests
    or fewer report their largest latency."""
    s = sorted(lat)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * k / len(s)


def run_all(args) -> int:
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    print(json.dumps(total))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "ties", "dynamics", "cli", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the seconds since start-up and exit (one setup_s sample)")
    args = ap.parse_args()

    import_coalstab()
    if args.workload == "all":
        return run_all(args)
    from tracing import layer_metrics
    from workloads import workload

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[args.workload]
    out_dir = ROOT / ".perfbench_run"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    try:
        print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
        print("# " + "  ".join(f"{k} {v}" for k, v in machine().items()))
        wl = workload(args.workload, ROOT, tmp)
        inputs = wl.setup(wl.plan(args.seed))
        setup_s = perf_counter() - T0
        if args.setup_only:
            print(setup_s)
            return 0

        metrics: dict = {}
        lines = []
        if args.trace:
            limit = wl.trace_cycles * len(wl.pattern)
            plain, traced, tr = measure_traced(wl, inputs, golden, args.seconds / 2, limit)
            phases = [plain, traced]
            if args.workload == "cli":
                cli_baselines(wl, tr)
            for name, (value, unit) in layer_metrics(tr).items():
                metrics[name] = {"value": value, "unit": unit}
            ratio = plain.busy / traced.busy if traced.busy else 0.0
            metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
            spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            tr.dump(spans)
            lines.append(f"# {len(tr.spans)} spans over {traced.attempted} requests written to {spans}")
        else:
            ph = measure(wl, inputs, golden, args.seconds)
            phases = [ph]
            lat = ph.latencies
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            p50 = 1000 * statistics.median(lat) if lat else 0.0
            t_ms, t_pct = tail(lat) if lat else (0.0, 0.0)
            # Read before cold_setup starts children of its own.
            rss = resource.getrusage(who).ru_maxrss / 1024
            metrics = {
                "throughput_rps": {"value": throughput(ph, wl.pattern), "unit": "req/s"},
                "latency_p50_ms": {"value": p50, "unit": "ms"},
                "latency_tail_ms": {"value": 1000 * t_ms, "unit": "ms"},
                "setup_s": {"value": cold_setup(args, setup_s), "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
            lines.append(f"# tail is p{t_pct:.1f} of {len(lat)} requests")
        attempted = sum(p.attempted for p in phases)
        failed = sum(len(p.failures) for p in phases)
        for key, err in [f for p in phases for f in p.failures][:5]:
            print(f"FAILED {args.workload} {key}: {err}", file=sys.stderr)
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
        print(f"{'failed_ratio':40s} {failed / attempted:.6g} ratio  ({failed} of {attempted})")
        for line in lines:
            print(line)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        print(json.dumps(result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def cold_setup(args, own: float) -> float:
    """The median of ``SETUP_RUNS`` cold set-ups: this process's own, then
    ``--setup-only`` children run one after another.  Each is timed from
    start-up to the end of warm-up, so it includes the import and any lazy
    first-call work."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    reps = [own]
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        reps.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(reps)


def cli_baselines(wl, tr, repeats: int = 7) -> None:
    """Interpreter start-up, and ``import coalstab`` on top of it: medians
    over alternating ``pass`` / ``import`` processes."""

    def once(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=wl.env, check=True, timeout=60)
        return 1000 * (perf_counter() - start)

    pairs = [(once("pass"), once("import coalstab")) for _ in range(repeats)]
    tr.extra["cli.interpreter_ms"] = (statistics.median(p for p, _ in pairs), "ms")
    tr.extra["cli.import_ms"] = (statistics.median(i - p for p, i in pairs), "ms")


if __name__ == "__main__":
    sys.exit(main())
