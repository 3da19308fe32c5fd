"""Continuous-operation key management (the network run as a *system*).

The paper's contribution is a continuously operating QKD network — keys
relayed across a mesh, delivered to IKE/IPsec consumers, replenished under
contention and attack.  :mod:`repro.kms` is that operational layer:

* :class:`~repro.kms.store.KeyStore` — per-peer-pair reservoirs with
  reservation / consume / expire semantics over :mod:`repro.core.keypool`;
* :class:`~repro.kms.scheduler.ReplenishmentScheduler` — depletion-driven
  dispatch of distillation epochs across mesh links (each link's epoch a
  lane of one :class:`~repro.runtime.farm.LinkFarm` run, its output
  independent of the links beside it);
* :class:`~repro.kms.workload.TrafficWorkload` — Poisson / bursty IPsec
  rekey demand on labeled RNG streams;
* :class:`~repro.kms.service.KeyManagementService` — the long-lived runtime
  under the :mod:`repro.sim` event clock, with failure/attack injection,
  starvation accounting and sustained-throughput reporting.

Metro scale (PR 10): :class:`~repro.kms.zones.ZonePlan` shards the mesh so
scheduling cost is per-zone (:class:`~repro.kms.zones.ZonedReplenisher`,
trunk stores between zone gateways), the dispatch/epoch hot paths run on
the indexed :class:`~repro.kms.indexing.LazyPriorityHeap`, and
:class:`~repro.kms.workload.AggregateWorkload` models millions of tunnels
as compound arrivals without per-tunnel objects.

Entry point: ``QKDSystem(...).mesh(...).kms(config=KmsConfig()...)`` on the
:mod:`repro.api` facade, or build a :class:`KeyManagementService` directly.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.kms.indexing": ("LazyPriorityHeap",),
        "repro.kms.scheduler": ("EpochReport", "ReplenishmentConfig", "ReplenishmentScheduler"),
        "repro.kms.service": (
            "KeyManagementService",
            "KmsConfig",
            "KmsMetrics",
            "SoakReport",
        ),
        "repro.kms.store": (
            "ConservationError",
            "KeyReservation",
            "KeyStore",
            "KeyStoreExhaustedError",
            "ReservationError",
            "StorePool",
            "StoreStatistics",
        ),
        "repro.kms.workload": (
            "AggregateProfile",
            "AggregateWorkload",
            "TrafficWorkload",
            "WorkloadProfile",
        ),
        "repro.kms.zones": ("ZonedReplenisher", "ZonePlan", "build_metro_mesh"),
    },
)
