"""LIDER benchmark: one command, three workloads, an opt-in traced run.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
