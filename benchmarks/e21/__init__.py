"""E21 "photon to served key": the repo's end-to-end benchmark.

Five workloads drive the stack from trigger slot to key served over TCP;
``run.py`` measures one workload (the ``BENCHMARK.json`` command),
``python -m benchmarks.e21`` runs them all and prints every metric, and
``python -m benchmarks.e21.compare old.json new.json`` is the before/after
table.  See ``README.md`` in this directory.
"""
