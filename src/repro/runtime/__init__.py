"""Link-level scale-out that keeps seeded runs bit-identical.

The paper's system is a *throughput* machine — a 1 MHz pulsed link feeding a
mesh of VPN gateways with continuously distilled key.  This package runs many
independent links at once without giving up the property every test leans
on: **identical seeds give identical keys, for any worker count**.

* :mod:`repro.runtime.farm` — :class:`LinkFarm`, link-level parallelism
  across a fleet: each link is rebuilt on a worker thread from
  ``(parameters, seed, slots)``, results in submission order, so the
  replenishment scheduler's Monte-Carlo epochs run every link concurrently;
  and :func:`resolve_workers`, the one worker-count rule.

Blocks inside one engine are not fanned out: a worker pool lost to the
plain loop there (``n_x_1`` about 1.0 with processes and 0.75 with threads
at 2 workers on a 2-vCPU host), so an engine distils its one key stream
in-line.  See ``docs/API.md`` for the determinism contract and the catalogue
of named RNG streams.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.runtime.farm": ("LinkFarm", "LinkJob", "LinkRun", "resolve_workers"),
    },
)
