"""Alternating parent/change pairs of bench/run.py, summarized into a claim file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cli_mix \
        --seed 0 --pairs 10 --seconds 48

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Pair i
runs bench/run.py in both, the parent first when i is even and the
change first when i is odd, with the same workload, seed and seconds.
Each side writes its bytecode to its own cache, empty at the start, in
a temporary directory outside both checkouts (PYTHONPYCACHEPREFIX), so
setup_s compares the code and not .pyc files a checkout already held.
For every end-to-end metric of BENCHMARK.json the file records each
side's runs, median and quartiles, the pairs the change won (ties count
for neither), and two verdicts:
- claim_rule_holds: at least nine tenths of the pairs won, the medians
  apart by more than the distance between the parent's quartiles, and no
  more failed operations than the parent;
- no_regression: whether the change's median is worse than the parent's
  by at most the metric's bound (a fraction of the parent's median), or
  "unresolved" when the parent's quartiles are further apart than the
  bound allows, unless every run of the change reads better than every
  run of the parent.
After the last pair, one line per metric gives the parent's median and
quartiles, the change's median, the pairs won and the two verdicts.
The result is appended to the records under its seed in
BENCH_<workload>.json (in --out, the current directory by default), so
no earlier record is lost, with the command line that made it and every
run's provenance line and counts of attempted and failed operations.
If a bench/run.py run exits nonzero, the script names the pair, the side,
the exit code and the tail of the run's stderr, writes nothing and exits 1.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

STDERR_TAIL = 20  # lines of a failed run's stderr that are reported


def run_once(checkout, workload, seed, seconds, pycache):
    """One bench/run.py run in a checkout, with its bytecode cached under
    pycache: its provenance and its result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    prov = next(json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance "))
    result = json.loads(lines[-1])
    return {"provenance": prov, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def summarize(spec, pairs):
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    out = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        won = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        ps, cs = spread(par), spread(chg)
        gap = sign * (cs["median"] - ps["median"])
        out[name] = {"unit": metric["unit"], "better": metric["better"], "parent": ps,
                     "change": cs, "pairs_won": won, "pairs": len(pairs),
                     "claim_rule_holds": won >= 0.9 * len(pairs) and gap > ps["q3"] - ps["q1"]
                     and failed["change"] <= failed["parent"],
                     "bound": metric["bound"],
                     "no_regression": no_regression(metric["bound"], sign, ps, cs)}
    return out


def no_regression(bound, sign, ps, cs):
    """True if the change's median is at most the bound worse than the
    parent's, or every change run is better than every parent run; False
    if it is worse by more; "unresolved" if the parent's IQR/median is
    over the bound and the runs do not separate so; sign is 1 when higher
    is better, -1 when lower is."""
    median = ps["median"]
    if min(sign * v for v in cs["runs"]) > max(sign * v for v in ps["runs"]):
        return True
    if ps["q3"] - ps["q1"] > bound * abs(median):
        return "unresolved"
    return sign * (median - cs["median"]) <= bound * abs(median)


def verdict_line(name, m):
    """One readable line of a summarize() entry."""
    ps = m["parent"]
    return (f"{name} ({m['unit']}, {m['better']} is better): parent median {ps['median']:.4g} "
            f"(q1 {ps['q1']:.4g}, q3 {ps['q3']:.4g}), change median {m['change']['median']:.4g}; "
            f"won {m['pairs_won']}/{m['pairs']}; claim_rule_holds {m['claim_rule_holds']}; "
            f"no_regression {m['no_regression']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error(f"--pairs {args.pairs}: quartiles need at least 2 pairs")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as caches:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                try:
                    pair[side] = run_once(getattr(args, side), args.workload, args.seed,
                                          args.seconds, Path(caches) / side)
                except subprocess.CalledProcessError as exc:
                    tail = "\n".join(exc.stderr.splitlines()[-STDERR_TAIL:])
                    print(f"pair {i}: the {side} run exited {exc.returncode}; nothing "
                          f"written\n{tail}", file=sys.stderr)
                    return 1
            pairs.append(pair)
            print(f"pair {i}: " + ", ".join(f"{side} {pair[side]['metrics']['ops_per_s']:.1f} "
                                           "ops/s" for side in order), flush=True)
    metrics = summarize(spec, pairs)
    for name, m in metrics.items():
        print(verdict_line(name, m))
    path = args.out / f"BENCH_{args.workload}.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc.update(workload=args.workload)
    command = " ".join(["python3", "tools/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)])
    doc.setdefault("seeds", {}).setdefault(str(args.seed), []).append({
        "command": command, "seconds": args.seconds, "metrics": metrics,
        "runs": pairs})
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
