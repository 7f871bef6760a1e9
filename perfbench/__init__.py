"""Benchmark of woldlab: workloads, tracer, output checks.  Run ``python3 perfbench/run.py --help``."""
