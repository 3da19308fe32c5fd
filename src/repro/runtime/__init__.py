"""Link-level scale-out that keeps seeded runs bit-identical.

The paper's system is a *throughput* machine — a 1 MHz pulsed link feeding a
mesh of VPN gateways with continuously distilled key.  This package runs a
fleet of independent links as one batch without giving up the property every
test leans on: **identical seeds give identical keys**, whatever links run
beside them.

* :mod:`repro.runtime.farm` — :class:`LinkFarm`, which rebuilds each link
  from ``(parameters, seed, slots)`` and runs the fleet as the lanes of one
  :class:`~repro.lanes.LaneEngine` run in this thread, results in
  submission order (the replenishment scheduler's Monte-Carlo epochs); and
  :func:`resolve_workers`, the check every worker count passes.

Nothing here runs on a pool.  Blocks inside one engine lost to the plain
loop (``n_x_1`` about 1.0 with processes and 0.75 with threads at 2 workers
on a 2-vCPU host), and whole links on two threads measured no faster than
one lane after another once the source ran one batch ahead.  See
``docs/API.md`` for the determinism contract and the catalogue of named RNG
streams.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.runtime.farm": ("LinkFarm", "LinkJob", "LinkRun", "resolve_workers"),
    },
)
