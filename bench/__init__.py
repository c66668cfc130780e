"""Benchmark and per-layer tracing harness for gamma3lab; see README.md."""
