"""brauercalc benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload q_split_distinguish --seed 0 --seconds 48 --trace 0

Run from the root of a checkout; stdlib only.  One caller in one
process runs one operation at a time (a closed loop).  Every replay
starts from a fresh import with no warm-up, so the module caches fill
during it as they do for a CLI user or a batch caller.

A run replays the first N operations of the workload's seeded stream,
where N spreads --seconds over the replays at the rate the workload
reaches on a slow machine.  Between blocks of operations, and around
every set-up, it times a frozen reference computation (bench/gauge.py)
and scales the times measured in between to a machine of nominal
speed, because the machine's own speed drifts by up to 1.8x.  --trace 0 makes REPLAYS replays and prints the end-to-end
metrics.  --trace 1 makes two: one plain and one with every traced
function wrapped, and prints the per-layer metrics and the tracing
overhead.  Every output is checked, and the first outputs at the
default and held-out seeds are compared with stored digests.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable summary and the provenance of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import tracer
import workloads
from gauge import Gauge

MODULES = (
    "poly", "fields", "factoring", "points", "residues", "hilbert", "brauer",
    "distinguish", "covers", "parser", "report", "cli",
)
# A run replays the same operations REPLAYS times, each from a fresh
# import, and times each op by its median over the replays.
REPLAYS = 3
# Set-ups timed before the first replay and not replayed.  Each replay
# also times its own set-up, and setup_s is the median of all of them.
EXTRA_SETUPS = 2
# No replay starts that would end after RUN_LIMIT * --seconds if it took
# as long as the one before, so a slow machine cannot stretch a run far;
# the summary lists the replays made.
RUN_LIMIT = 1.25
# A replay runs the gauge's sweep after every BLOCK_S seconds of
# operations, and the sweeps take about GAUGE_SHARE of the run.
BLOCK_S = 0.5
GAUGE_SHARE = 0.25
# The first DIGEST_OPS outputs of every replay at these seeds must match
# bench/digests.json.  Tune on the default seed; confirm a gain on the
# held-out one.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
DIGEST_OPS = 32
DIGESTS = BENCH / "digests.json"


def load_library():
    """Import brauercalc from the checkout's src/ afresh, with empty caches."""
    for name in [m for m in sys.modules if m == "brauercalc" or m.startswith("brauercalc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("brauercalc")
    if Path(pkg.__file__).resolve().parent != SRC / "brauercalc":
        raise ImportError(f"brauercalc imported from {pkg.__file__}, not {SRC}")
    mods = {m: importlib.import_module(f"brauercalc.{m}") for m in MODULES}
    return SimpleNamespace(modules=tuple(mods.values()), **mods)


def setup(workload, seed, n_ops):
    """Import the package afresh and generate the first n_ops of the stream."""
    lib = load_library()
    stream = workloads.stream(workload, lib, seed)
    return lib, [next(stream) for _ in range(n_ops)]


def timed_setup(workload, seed, n_ops, times, gauge):
    """setup(), timed and scaled into times after earlier replays' garbage is freed."""
    gc.collect()
    before = gauge.sweep()
    t0 = perf_counter()
    lib, corpus = setup(workload, seed, n_ops)
    dt = perf_counter() - t0
    times.append(dt * gauge.scale(before, gauge.sweep()))
    return lib, corpus


def replay_ops(workload, seconds):
    """Operations per replay: --seconds, less the gauge's share, split over the replays."""
    return max(4, round(seconds * (1 - GAUGE_SHARE) / REPLAYS * workload.rate))


class Replay:
    """Runs operations one at a time, timing each and checking its output.

    raw holds the measured latencies; latencies holds them scaled by the
    gauge sweeps before and after their block.
    """

    def __init__(self, workload, lib, seed):
        self.workload = workload
        self.lib = lib
        self.raw = []
        self.latencies = []
        self.failed = 0
        self.problems = []
        self.expected = stored_digests().get(workload.name, {}).get(str(seed), [])
        self.tracer = None

    def run(self, corpus, gauge):
        """Run the corpus in blocks of BLOCK_S seconds, with a sweep after each."""
        before, start, spent = gauge.last, 0, 0.0
        for i, op in enumerate(corpus):
            self.op(i, op)
            spent += self.raw[-1]
            if spent >= BLOCK_S or i == len(corpus) - 1:
                after = gauge.sweep()
                scale = gauge.scale(before, after)
                self.latencies.extend(dt * scale for dt in self.raw[start:])
                before, start, spent = after, len(self.raw), 0.0
        self.lib = None  # let the replay's modules and caches be freed
        return self

    def op(self, index, op):
        """Run one operation; return its canonical output, or None if it failed."""
        w, lib, tr = self.workload, self.lib, self.tracer
        if tr:
            tr.enabled = True
        t0 = perf_counter()
        try:
            out = w.run(lib, op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = exc
        dt = perf_counter() - t0
        if tr:
            tr.enabled = False
        self.raw.append(dt)
        try:
            if isinstance(out, Exception):
                raise workloads.CheckError(f"raised {type(out).__name__}: {out}")
            text = w.check(lib, op, out)
            if index < len(self.expected) and digest(text) != self.expected[index]:
                raise workloads.CheckError("output differs from the stored digest")
        except Exception as exc:  # a check that cannot even run fails the op too
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {index}: {exc}")
            return None
        return text


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stored_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def latency_stats(lat):
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return len(lat) / sum(lat), statistics.median(lat) * 1e3, p90 * 1e3


def op_latencies(replays, attr="latencies"):
    """Each op's median latency over the replays.

    Every replay runs op i from the same cache state.  The median drops a
    timing disturbed by a blip; the fastest timing would not do: how far
    it lies below the others grows with how much the machine's speed
    wavered during the run, and so would the rates read from it.
    """
    return [statistics.median(lats) for lats in zip(*(getattr(r, attr) for r in replays))]


def measure(workload, seed, seconds):
    """REPLAYS identical replays, each from a fresh import; each op's median latency."""
    n = replay_ops(workload, seconds)
    gauge = Gauge()
    deadline = perf_counter() + RUN_LIMIT * seconds
    setup_times, replays = [], []
    for _ in range(EXTRA_SETUPS):
        timed_setup(workload, seed, n, setup_times, gauge)
    last = 0.0
    while len(replays) < REPLAYS and (not replays or perf_counter() + last <= deadline):
        t0 = perf_counter()
        lib, corpus = timed_setup(workload, seed, n, setup_times, gauge)
        replays.append(Replay(workload, lib, seed).run(corpus, gauge))
        last = perf_counter() - t0
    rate, p50, p90 = latency_stats(op_latencies(replays))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    failed = sum(r.failed for r in replays) / sum(len(r.latencies) for r in replays)
    summary = dict(metrics, failed_frac=(failed, "1"))
    rates = (latency_stats(r.latencies)[0] for r in replays)
    summary["ops_per_s.replays"] = (" ".join(f"{r:.4g}" for r in rates), "1/s")
    raw_rate, raw_p50, raw_p90 = latency_stats(op_latencies(replays, "raw"))
    summary["unscaled.ops_per_s"] = (raw_rate, "1/s")
    summary["unscaled.op_p50_ms"] = (raw_p50, "ms")
    summary["unscaled.op_p90_ms"] = (raw_p90, "ms")
    summary["machine_speed"] = (gauge.speed(), "1")
    return replays, metrics, summary


def measure_traced(workload, seed, seconds):
    """Replay the same operations plain, then traced, each from a fresh import."""
    n = replay_ops(workload, seconds)
    gauge = Gauge()
    lib, corpus = timed_setup(workload, seed, n, [], gauge)
    plain = Replay(workload, lib, seed).run(corpus, gauge)
    lib, corpus = timed_setup(workload, seed, n, [], gauge)
    traced = Replay(workload, lib, seed)
    traced.tracer = tracer.Tracer(lib)
    traced.tracer.install()
    traced.run(corpus, gauge)
    values = traced.tracer.metrics()
    values["trace.ops"] = n
    # unscaled, like the layers' self_ms and total_ms, so shares add up
    values["trace.op_ms"] = sum(traced.raw) * 1e3
    values["trace.overhead_frac"] = sum(traced.latencies) / sum(plain.latencies) - 1
    metrics = {name: (values[name], unit) for name, unit in tracer.PER_LAYER}
    return [plain, traced], metrics, metrics


def provenance(args, replays):
    src = hashlib.sha256()
    for path in sorted((SRC / "brauercalc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "replays": len(replays),
        "ops_per_replay": len(replays[0].latencies),
        "commit": _git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(args, replays, metrics, summary):
    for name, (value, unit) in summary.items():
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}")
    for problem in [p for r in replays for p in r.problems][:5]:
        print(f"{args.workload} FAILED {problem}")
    print("provenance " + json.dumps(provenance(args, replays), sort_keys=True))
    failed = sum(r.failed for r in replays)
    result = {
        "correct": failed == 0,
        "attempted": sum(len(r.latencies) for r in replays),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


@contextlib.contextmanager
def in_checkout():
    """Work from the checkout root with src/ importable and WORK_DIR present."""
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    try:
        yield
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "brauercalc" / "__init__.py").is_file():
        print(f"error: no brauercalc package under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    with in_checkout():
        if args.trace:
            replays, metrics, summary = measure_traced(workload, args.seed, args.seconds)
        else:
            replays, metrics, summary = measure(workload, args.seed, args.seconds)
    report(args, replays, metrics, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
