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

from repro.core.sifting import SiftingProtocol, SiftResult, run_length_encode, run_length_decode
from repro.core.cascade import CascadeProtocol, CascadeResult, CascadeParameters
from repro.core.entropy_estimation import (
    BennettDefense,
    SlutskyDefense,
    EntropyEstimate,
    EntropyEstimator,
    EntropyInputs,
)
from repro.core.privacy import PrivacyAmplification, PrivacyAmplificationResult
from repro.core.randomness import RandomnessReport, RandomnessTester
from repro.core.authentication import AuthenticatedChannel
from repro.core.keypool import KeyPool, KeyBlock
from repro.core.engine import QKDProtocolEngine, DistillationOutcome, EngineParameters

__all__ = [
    "SiftingProtocol",
    "SiftResult",
    "run_length_encode",
    "run_length_decode",
    "CascadeProtocol",
    "CascadeResult",
    "CascadeParameters",
    "BennettDefense",
    "SlutskyDefense",
    "EntropyEstimate",
    "EntropyEstimator",
    "EntropyInputs",
    "PrivacyAmplification",
    "PrivacyAmplificationResult",
    "RandomnessTester",
    "RandomnessReport",
    "AuthenticatedChannel",
    "KeyPool",
    "KeyBlock",
    "QKDProtocolEngine",
    "DistillationOutcome",
    "EngineParameters",
]
