"""Disruption-tolerant key relay: custody transfer over a contact plan.

The trusted-relay transport of :mod:`repro.network.relay` assumes a live
end-to-end path at the moment a key must move; when the mesh partitions,
transport starves.  This package removes that assumption with the
standard DTN toolkit, specialised to OTP key material:

* :mod:`repro.dtn.contact` — contact windows/schedules (buildable from
  the fault plane's flap windows) and a contact-graph
  :class:`~repro.dtn.contact.ContactGraphSelector` with earliest-arrival
  routing;
* :mod:`repro.dtn.store` — bounded per-relay custody stores with TTLs
  and deterministic eviction;
* :mod:`repro.dtn.policies` — pluggable forwarding (``scheduled``
  contact-graph routing vs ``epidemic`` flooding with duplicate
  suppression);
* :mod:`repro.dtn.transport` — the custody engine tying them together,
  with exact terminal accounting and an order-independent delivered
  digest.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dtn.contact": ("ContactGraphSelector", "ContactSchedule", "ContactWindow"),
        "repro.dtn.policies": (
            "POLICIES",
            "EpidemicPolicy",
            "ForwardingPolicy",
            "ScheduledPolicy",
            "build_policy",
        ),
        "repro.dtn.store": (
            "DELIVERED",
            "EVICTED",
            "EXPIRED",
            "CustodyBundle",
            "CustodyError",
            "CustodyStore",
            "CustodyStoreStats",
        ),
        "repro.dtn.transport": ("CustodyMetrics", "CustodyTransport"),
    },
)
