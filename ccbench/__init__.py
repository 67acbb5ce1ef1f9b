"""Benchmark of the color-coding counter: workloads, metrics, traced run.

Run ``python3 ccbench/run.py --help``; see ``ccbench/README.md``.
"""
