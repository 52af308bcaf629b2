"""Benchmark of the relational clustering API on Spark; see run.py."""
