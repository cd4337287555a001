"""Benchmark for recallci: coverage-study throughput, audit latency, and
traced per-layer timings.  Run it with ``python3 perfbench/run.py``."""
