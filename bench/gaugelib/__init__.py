"""A frozen copy of brauercalc's modules up to distinguish, for bench/gauge.py.

The files are byte-identical copies of src/brauercalc at the commit that
added the benchmark.  The benchmark times this copy only to gauge how fast
the machine runs at the moment, so it must not follow later changes to
src/: leave these files as they are.
"""
