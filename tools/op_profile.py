"""Where one replay of a bench workload spends its time, in process.

    python3 tools/op_profile.py --workload q_split_distinguish --seed 0 --ops 264
    python3 tools/op_profile.py --workload cli_mix --ops 700 --kind "ram fq"
    python3 tools/op_profile.py --workload q_split_distinguish --functions 15
    python3 tools/op_profile.py --workload q_split_distinguish --caches
    python3 tools/op_profile.py --workload q_split_distinguish --setup --functions 15

Loads bench/run.py and bench/workloads.py from the checkout (--root, the
repository this file sits in by default) and changes nothing under
bench/.  The first --ops operations of the workload's seeded stream are
replayed twice, each time from a fresh import of the checkout's src/
with empty caches, as bench/run.py replays them, and every output is
checked by the workload's own check:
- a plain replay, timed per op with perf_counter, gives each op kind's
  share of op time: the command and base of a cli_mix op ("ram q",
  "ram fq", "enumerate fq", ...), the mode of a q_split_distinguish or
  q_equal op;
- a replay under cProfile gives the self-time share of each library
  module, and of every other file (fractions.py, argparse.py, ...) by
  its file name, with built-in functions as <built-in>.  With --kind
  (as printed: "mode 0", "equal q", "ram fq", ...) only the ops of that
  kind are profiled, so the table is that kind's own.
Op kinds print in stream order, then the 12 largest modules from the
largest share down; --functions N adds the N functions with the largest
self-time share, each as file:line name (built-ins as ~:0); --caches adds
the hits, misses and current size of every functools.lru_cache defined
in a library module (found by its cache_info, on functions and on class
attributes), as read after the plain replay, set-up and checks included.  The ops/s on
the first line is not scaled by bench/gauge.py, so it drifts with the
machine's speed from run to run; compare shares here, and rates with
bench/run.py.
With --setup the set-up is profiled instead of the ops: a fresh import
of the checkout's src/ and the generation of the first --ops ops of the
stream, as bench/run.py times it for setup_s.  The first line gives the
import and the generation in ms, each the fastest of SETUP_RUNS plain
set-ups, and one more set-up under cProfile gives the same module and
function tables; --caches lists the caches after the last plain set-up.
Stdlib only.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SETUP_RUNS = 5


def load_bench(root):
    """bench/run.py of the checkout at root, imported as a module."""
    sys.path.insert(0, str(root / "bench"))
    run = importlib.import_module("run")
    if Path(run.__file__).resolve() != (root / "bench" / "run.py").resolve():
        raise ImportError(f"bench/run.py imported from {run.__file__}, not {root}")
    return run


def op_kind(op):
    """mode N for a moded op, command and base (q or fq) for a cli_mix op."""
    if not isinstance(op, tuple):
        return "op"
    if isinstance(op[0], int):
        return f"mode {op[0]}"
    argv = op[1]
    base = argv[argv.index("--base") + 1] if "--base" in argv else "q"
    return f"{op[0]} {base.split(':')[0]}"


def replay(run, workload, seed, n_ops, profile=None, kind=None):
    """Time and check the first n_ops ops after a fresh import: the library
    imported and (kind, seconds) per op.  profile, if given, runs on the ops
    of kind, or on all if None."""
    lib, corpus = run.setup(workload, seed, n_ops)
    times = []
    for op in corpus:
        on = profile and kind in (None, op_kind(op))
        if on:
            profile.enable()
        t0 = perf_counter()
        out = workload.run(lib, op)
        dt = perf_counter() - t0
        if on:
            profile.disable()
        workload.check(lib, op, out)
        times.append((op_kind(op), dt))
    return lib, times


def timed_setup(run, workload, seed, n_ops, profile=None):
    """One set-up as bench/run.py's setup makes it, under profile if given:
    the library imported and the seconds of the import and of generating
    the first n_ops ops."""
    if profile:
        profile.enable()
    t0 = perf_counter()
    lib = run.load_library()
    t1 = perf_counter()
    stream = run.workloads.stream(workload, lib, seed)
    for _ in range(n_ops):
        next(stream)
    t2 = perf_counter()
    if profile:
        profile.disable()
    return lib, t1 - t0, t2 - t1


def cache_stats(lib):
    """(module.qualname, cache_info()) of every lru_cache defined in a module
    of lib, at module level or as a class attribute, sorted by name."""
    found = {}
    for module in lib.modules:
        stem = module.__name__.rsplit(".", 1)[-1]
        for obj in vars(module).values():
            inner = vars(obj).values() if isinstance(obj, type) else ()
            for f in (obj, *(getattr(a, "__func__", a) for a in inner)):
                if hasattr(f, "cache_info") and f.__module__ == module.__name__:
                    found[f"{stem}.{f.__qualname__}"] = f.cache_info()
    return sorted(found.items())


def module_of(filename, package):
    if filename == "~":  # cProfile's file name for built-in functions
        return "<built-in>"
    path = Path(filename)
    if path.parent == package:
        return path.stem
    return path.name if path.suffix else filename


def module_shares(profile, package):
    """Self time per module, as a fraction of all profiled self time."""
    self_s = Counter()
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        self_s[module_of(filename, package)] += tottime
    total = sum(self_s.values()) or 1.0
    return [(name, s / total) for name, s in self_s.most_common()]


def function_shares(profile, n):
    """The n functions with the largest self time, as (file:line name, share)."""
    stats = pstats.Stats(profile).stats
    total = sum(tottime for _, _, tottime, _, _ in stats.values()) or 1.0
    top = sorted(stats.items(), key=lambda item: -item[1][2])[:n]
    return [(f"{Path(filename).name}:{line} {name}", tottime / total)
            for (filename, line, name), (_, _, tottime, _, _) in top]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ops", type=int, default=264)
    ap.add_argument("--root", type=Path, default=ROOT)
    ap.add_argument("--kind",
                    help='profile only the ops of this kind ("mode 0", "ram fq", ...)')
    ap.add_argument("--functions", type=int, default=0, metavar="N",
                    help="also list the N functions with the largest self time")
    ap.add_argument("--caches", action="store_true",
                    help="also list every lru_cache's hits, misses and size")
    ap.add_argument("--setup", action="store_true",
                    help="profile the set-up (fresh import and op generation), not the ops")
    args = ap.parse_args(argv)
    if args.setup and args.kind is not None:
        ap.error("--kind selects ops; --setup profiles no op")
    root = args.root.resolve()
    run = load_bench(root)
    workload = run.workloads.WORKLOADS[args.workload]
    package = (root / "src" / "brauercalc").resolve()
    if args.setup:
        with run.in_checkout():
            runs = [timed_setup(run, workload, args.seed, args.ops) for _ in range(SETUP_RUNS)]
            profile = cProfile.Profile()
            timed_setup(run, workload, args.seed, args.ops, profile)
        print(f"{args.workload} seed {args.seed}: set-up of {args.ops} ops, import "
              f"{1e3 * min(r[1] for r in runs):.1f} ms, generation "
              f"{1e3 * min(r[2] for r in runs):.1f} ms (fastest of {SETUP_RUNS}), "
              f"python {sys.version.split()[0]}, {root}")
        print_tables(profile, package, "set-up", args.functions)
        if args.caches:
            print_caches("the last plain set-up", cache_stats(runs[-1][0]))
        return 0
    with run.in_checkout():
        lib, times = replay(run, workload, args.seed, args.ops)
        caches = cache_stats(lib)
        profiled = [kind for kind, _ in times if args.kind in (None, kind)]
        if not profiled:
            ap.error(f"no {args.kind!r} op among the first {len(times)} ops")
        profile = cProfile.Profile()
        replay(run, workload, args.seed, args.ops, profile, args.kind)

    total = sum(dt for _, dt in times)
    print(f"{args.workload} seed {args.seed}: {len(times)} ops in {total:.3f} s "
          f"({len(times) / total:.0f} ops/s), python {sys.version.split()[0]}, {root}")
    print("op time by kind:")
    kinds, counts = Counter(), Counter()
    for kind, dt in times:
        kinds[kind] += dt
        counts[kind] += 1
    for kind in kinds:
        print(f"  {kind:<16} {counts[kind]:>5} ops  {100 * kinds[kind] / total:5.1f} %")
    label = "" if args.kind is None else f" {args.kind}"
    print_tables(profile, package, f"{len(profiled)}{label} ops", args.functions)
    if args.caches:
        print_caches("the plain replay", caches)
    return 0


def print_tables(profile, package, label, functions):
    """The self-time tables: the 12 largest modules, and the `functions`
    largest functions if that is positive."""
    print(f"self time by module (cProfile, {label}):")
    for name, share in module_shares(profile, package)[:12]:
        print(f"  {name:<24} {100 * share:5.1f} %")
    if functions > 0:
        print(f"self time by function (cProfile, {label}):")
        for name, share in function_shares(profile, functions):
            print(f"  {100 * share:5.1f} %  {name}")


def print_caches(after, caches):
    print(f"lru caches after {after}:")
    for name, info in caches:
        print(f"  {name:<32} {info.hits:>8} hits {info.misses:>8} misses "
              f"{info.currsize:>6} size")


if __name__ == "__main__":
    sys.exit(main())
