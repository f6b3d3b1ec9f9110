"""Benchmark harness for voxsynth: workloads, probes and the traced run.

Run it with ``python3 perfbench/run.py`` from the repository root; see
``perfbench/README.md``.
"""
