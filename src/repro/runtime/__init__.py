"""Link-level scale-out that keeps seeded runs bit-identical.

The paper's system is a *throughput* machine — a 1 MHz pulsed link feeding a
mesh of VPN gateways with continuously distilled key.  This package runs many
independent links at once without giving up the property every test leans
on: **identical seeds give identical keys, for any worker count**.

* :mod:`repro.runtime.pool` — order-preserving ``parallel_map`` over a
  process or thread pool, and :func:`resolve_workers`;
* :mod:`repro.runtime.farm` — :class:`LinkFarm`, link-level parallelism
  across a fleet: each link is rebuilt in a worker from ``(parameters,
  seed, slots)``, so the replenishment scheduler's Monte-Carlo epochs run
  every link concurrently.

Blocks inside one engine are not fanned out: a worker pool lost to the
plain loop there (``n_x_1`` about 1.0 with processes and 0.75 with threads
at 2 workers on a 2-vCPU host), so an engine distils its one key stream
in-line.  See ``docs/API.md`` for the determinism contract and the catalogue
of named RNG streams.
"""

from repro.runtime.farm import LinkFarm, LinkJob, LinkRun
from repro.runtime.pool import BACKENDS, parallel_map, resolve_workers

__all__ = [
    "BACKENDS",
    "LinkFarm",
    "LinkJob",
    "LinkRun",
    "parallel_map",
    "resolve_workers",
]
