"""The repository benchmark: three workloads timed against a reference loop.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints one JSON result
line.  See ``perfbench/README.md`` for the workloads, the metrics and how
machine drift is handled.
"""
