"""The deterministic parallel distillation runtime.

The paper's system is a *throughput* machine — a 1 MHz pulsed link feeding a
mesh of VPN gateways with continuously distilled key — and past a point one
core per process is the bottleneck, not the protocols.  This package scales
the simulation out without giving up the property every test leans on:
**identical seeds give identical keys, for any worker count**.

Three layers:

* :mod:`repro.runtime.pool` — order-preserving ``parallel_map`` over a
  process or thread pool (the scheduling substrate);
* :mod:`repro.runtime.parallel` — :class:`ParallelDistiller`, block-level
  parallelism inside one engine: per-block labeled RNG forks
  (``fork_labeled(f"block/{id}")``) make the compute phase
  order-independent, and the engine commits results in block-id order;
* :mod:`repro.runtime.farm` — :class:`LinkFarm`, link-level parallelism
  across a fleet: each link is rebuilt in a worker from ``(parameters,
  seed, slots)``, so relay-mesh and VPN scenarios run every link
  concurrently.

Engine integration: set
``EngineParameters(parallel_workers=N, parallel_backend="process")`` and
:class:`~repro.core.engine.QKDProtocolEngine` batches completed blocks
through the runtime; ``parallel_workers=None`` (the default) keeps the
historical sequential path bit-for-bit intact.  See ``docs/API.md`` for the
determinism contract and the catalogue of named RNG streams.
"""

from repro.runtime.farm import LinkFarm, LinkJob, LinkRun
from repro.runtime.parallel import BlockWorkItem, ParallelDistiller
from repro.runtime.pool import BACKENDS, parallel_map, resolve_workers

__all__ = [
    "BACKENDS",
    "BlockWorkItem",
    "LinkFarm",
    "LinkJob",
    "LinkRun",
    "ParallelDistiller",
    "parallel_map",
    "resolve_workers",
]
