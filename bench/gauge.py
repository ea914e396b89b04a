"""Gauge of the machine's current speed, for scaling measured times.

The machine the benchmark was tuned on runs identical work up to 1.8x
slower for stretches of seconds to minutes, on both cores at once, with
CPU time tracking wall time (bench/NOTES.md, noise note).  No statistic
taken over the program's own timings removes a state that outlasts a
run.  So the benchmark times a fixed reference computation, a sweep,
between blocks of operations, and scales each block's times by
NOMINAL_SWEEP_S over the sweep time around it.

The sweep is a few distinguish calls over Q through bench/gaugelib, a
frozen copy of the library's modules.  It is the same kind of code as
the program, so it slows down with the machine: a small integer loop
or a large-list walk tracks the program's speed much worse.  It does
not change when src/ does, so a faster program still shows as faster.
"""

from __future__ import annotations

import gc
import importlib
import statistics
from time import perf_counter
from types import SimpleNamespace

import workloads

# A sweep's time on a 2-core x86_64 VM under CPython 3.11.7 when that
# machine ran fast.  Scaled times read as times on such a machine.
NOMINAL_SWEEP_S = 0.15
SWEEP_OPS = 6
SEED = 20100
# Sweeps run before the first timed one, so that the copy's caches are
# full and every later sweep does the same work.
WARM_SWEEPS = 3


class Gauge:
    def __init__(self):
        lib = SimpleNamespace(
            **{m: importlib.import_module(f"gaugelib.{m}")
               for m in ("poly", "points", "brauer", "distinguish")}
        )
        ops = workloads.stream(workloads.WORKLOADS["q_split_distinguish"], lib, SEED)
        self.pairs = [next(ops)[1:] for _ in range(SWEEP_OPS)]
        self.distinguish = lib.distinguish.distinguish
        self.times = []
        for _ in range(WARM_SWEEPS):
            self.sweep()
        self.times.clear()

    def sweep(self):
        """Time one sweep; return its time in seconds.

        The cyclic garbage collector is off during the sweep, so that its
        time does not grow with the objects the program holds.
        """
        gc.disable()
        try:
            t0 = perf_counter()
            for a, b in self.pairs:
                self.distinguish(a, b)
            dt = perf_counter() - t0
        finally:
            gc.enable()
        self.times.append(dt)
        return dt

    @property
    def last(self):
        return self.times[-1]

    @staticmethod
    def scale(before, after):
        """Factor for times measured between sweeps that took before and after seconds."""
        return 2 * NOMINAL_SWEEP_S / (before + after)

    def speed(self):
        """The machine's median speed over the run, relative to the nominal one."""
        return NOMINAL_SWEEP_S / statistics.median(self.times)
