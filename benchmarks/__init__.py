"""Benchmark/experiment harness: one module per reproduced table or figure.

Each module's docstring states what it reproduces and asserts; the repo's
end-to-end benchmark and its baseline are described in
``benchmarks/e21/README.md``.  Run with::

    pytest benchmarks/ --benchmark-only
"""
