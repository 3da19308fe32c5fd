"""repro — a reproduction of "Quantum Cryptography in Practice" (SIGCOMM 2003).

The package re-implements the DARPA Quantum Network described by Elliott,
Pearson and Troxel as a pure-Python simulation and protocol library:

* :mod:`repro.optics` — the weak-coherent BB84 physical layer (attenuated
  laser pulses, Mach-Zehnder phase encoding, fiber loss, gated APDs).
* :mod:`repro.core` — the QKD protocol engine: sifting, Cascade error
  correction, entropy estimation (Bennett / Slutsky defense functions),
  privacy amplification and Wegman-Carter authentication.
* :mod:`repro.pipeline` — the distillation pipeline: the paper's Fig 9
  stages, run in a fixed order over the engine's own components, one block
  per ``QKDProtocolEngine.distill_block`` call.
* :mod:`repro.eve` — eavesdropping attack models (intercept-resend,
  photon-number splitting, man-in-the-middle, denial of service).
* :mod:`repro.link` — a full Alice/Bob QKD link producing distilled key.
* :mod:`repro.ipsec` — IPsec/IKE with the paper's QKD extensions (continually
  reseeded AES keys and one-time-pad security associations).
* :mod:`repro.network` — trusted-relay and untrusted-switch QKD networks.
* :mod:`repro.runtime` — link-level scheduling across a thread pool
  (:class:`~repro.runtime.LinkFarm`) with output invariant under worker
  count.
* :mod:`repro.lanes` — the slot→key loop and the lane engine: a fleet of
  links carried to pooled key one lane at a time in one process, each lane
  bit-identical to the same link run alone.
* :mod:`repro.kms` — continuous-operation key management: per-peer-pair key
  stores with reservation semantics, depletion-driven replenishment across
  the mesh, traffic-driven IKE rekey workloads, and failure/attack handling
  under the simulated event clock.
* :mod:`repro.dtn` — disruption-tolerant key relay: custody transfer of
  OTP bundles with bounded stores and TTLs, contact-graph routing over
  time-varying link availability, and scheduled vs epidemic forwarding.
* :mod:`repro.api` — the top-level facade: :class:`~repro.api.QKDSystem`
  assembles links, VPNs and relay meshes from one config object.

The quickest way in is the facade::

    from repro import QKDSystem
    report = QKDSystem(seed=2003).link().run_seconds(2.0)

Every package, this one included, resolves its exports on first use
(:mod:`repro.util.exports`): ``import repro`` loads no subsystem, and each
facade builder loads its layer when first called (``docs/API.md``, "What an
import loads").

See ``docs/API.md`` for the pipeline stages and the facade entry points, and ``ROADMAP.md`` for where the system is headed.
"""

from repro.util.exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.api": ("MeshSystem", "QKDSystem", "SystemConfig", "VPNSystem"),
        "repro.dtn.contact": ("ContactGraphSelector", "ContactSchedule", "ContactWindow"),
        "repro.dtn.store": ("CustodyStore",),
        "repro.dtn.transport": ("CustodyTransport",),
        "repro.kms.workload": (
            "AggregateProfile",
            "AggregateWorkload",
            "TrafficWorkload",
            "WorkloadProfile",
        ),
        "repro.kms.service": ("KeyManagementService", "KmsConfig", "SoakReport"),
        "repro.kms.zones": ("ZonePlan", "build_metro_mesh"),
        "repro.lanes.engine": ("LaneEngine",),
    },
)
__all__.insert(0, "__version__")
