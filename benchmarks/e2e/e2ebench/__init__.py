"""End-to-end benchmark of deployed ``ParallelApp``s on the real backends.

The package is driven by ``benchmarks/e2e/run.py``; see the README beside
it for every metric and workload.  Nothing here is imported by ``repro``.
"""
