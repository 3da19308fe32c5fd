"""The QKD protocol engine (paper section 5) — the system's primary contribution.

The paper describes the protocols as "sub-layers within the QKD protocol
suite ... closer to being pipeline stages" (Fig 9):

    Raw Qframes -> Sifting -> Error Correction -> Entropy Estimation /
    Privacy Amplification -> Authentication -> Distilled key bits

This package implements each stage as an explicit two-party protocol with
message objects crossing a public channel, plus the engine that drives a raw
frame of channel detections all the way to authenticated, distilled key:

* :mod:`repro.core.messages` — the protocol messages of every stage.
* :mod:`repro.core.sifting` — sifting with run-length-encoded sift messages.
* :mod:`repro.core.cascade` — the BBN Cascade variant (64 LFSR-seeded parity
  subsets, divide-and-conquer correction, leakage accounting).
* :mod:`repro.core.entropy_estimation` — the Bennett and Slutsky defense
  functions and the resultant-entropy formula of the paper's Appendix.
* :mod:`repro.core.privacy` — privacy amplification via a linear hash over
  GF(2^n) (sparse primitive polynomial, multiplier, additive polynomial,
  truncation to m bits).
* :mod:`repro.core.authentication` — Wegman-Carter authentication of the
  protocol transcript with a replenished shared-secret pool.
* :mod:`repro.core.keypool` — the distilled-key reservoir consumed by the
  VPN/OPC interface.
* :mod:`repro.core.engine` — the engine binding it all together: the
  stages of :mod:`repro.pipeline`, run in the paper's fixed order.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.sifting": ("SiftingProtocol", "SiftResult", "run_length_encode_mask"),
        "repro.core.cascade": ("CascadeProtocol", "CascadeResult", "CascadeParameters"),
        "repro.core.entropy_estimation": (
            "BennettDefense",
            "SlutskyDefense",
            "EntropyEstimate",
            "EntropyEstimator",
            "EntropyInputs",
        ),
        "repro.core.privacy": ("PrivacyAmplification", "PrivacyAmplificationResult"),
        "repro.core.randomness": ("RandomnessReport", "RandomnessTester"),
        "repro.core.authentication": ("AuthenticatedChannel",),
        "repro.core.keypool": ("KeyPool", "KeyBlock"),
        "repro.core.engine": ("QKDProtocolEngine", "EngineParameters"),
    },
)
