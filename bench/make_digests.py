"""Record the output digests that bench/run.py checks runs against.

    python3 bench/make_digests.py

Runs the first DIGEST_OPS operations of every workload for the default
seed and the held-out seed, checks each output, and writes the digest
of its canonical text to bench/digests.json.  The digests pin the
library's outputs byte for byte; re-record them only for a change that
is meant to alter an output, and say so in its description.
"""

from __future__ import annotations

import json

import run
import workloads


def record(workload, seed):
    lib, corpus = run.setup(workload, seed, run.DIGEST_OPS)
    replay = run.Replay(workload, lib, seed)
    replay.expected = []
    texts = [replay.op(i, op) for i, op in enumerate(corpus)]
    if replay.failed:
        raise SystemExit(f"{workload.name} seed {seed}: {replay.problems}")
    return [run.digest(text) for text in texts]


def main():
    with run.in_checkout():
        digests = {
            name: {str(s): record(w, s) for s in (run.DEFAULT_SEED, run.HELD_OUT_SEED)}
            for name, w in workloads.WORKLOADS.items()
        }
    doc = {
        "ops": run.DIGEST_OPS,
        "seeds": {"default": run.DEFAULT_SEED, "held_out": run.HELD_OUT_SEED},
        "digests": digests,
    }
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
