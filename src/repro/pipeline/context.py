"""Per-block pipeline state and the shared services stages draw on.

A :class:`PipelineContext` is everything one sifted block accumulates on its
way through the distillation pipeline: the two endpoints' keys, the public
transcript, the per-stage results (Cascade, entropy estimate, privacy
amplification), and the abort/authentication flags.  Stages receive a context,
mutate it, and hand it to the next stage.

A :class:`PipelineServices` bundle holds the long-lived two-party machinery
the stages read through ``ctx.services``: the Cascade protocol instance, the
privacy amplifier, the entropy estimator, both endpoints' authenticated
channels and key pools, and the engine's cumulative statistics.  An engine
has one bundle and every block runs against it, which is how stages carry
state (running QBER estimate, authentication pools) across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.cascade import CascadeProtocol, CascadeResult
from repro.core.entropy_estimation import EntropyEstimate, EntropyEstimator
from repro.core.keypool import KeyPool
from repro.core.messages import PublicChannelLog
from repro.core.privacy import PrivacyAmplification, PrivacyAmplificationResult
from repro.core.randomness import RandomnessTester
from repro.util.bits import BitString


@dataclass
class PipelineServices:
    """Long-lived two-party machinery shared by every block's pipeline run.

    ``parameters`` and ``statistics`` are the engine's
    :class:`~repro.core.engine.EngineParameters` and
    :class:`~repro.core.engine.EngineStatistics`; they are typed loosely here
    so the pipeline package never has to import the engine module (the engine
    imports the pipeline, not the other way round).
    """

    #: The engine's EngineParameters (defense choice, thresholds, replenish).
    parameters: Any
    #: The engine's cumulative EngineStatistics, mutated by stages.
    statistics: Any
    cascade: CascadeProtocol
    privacy: PrivacyAmplification
    estimator: EntropyEstimator
    #: Alice's and Bob's AuthenticatedChannel endpoints.
    alice_auth: Any
    bob_auth: Any
    alice_pool: KeyPool
    bob_pool: KeyPool
    randomness_tester: Optional[RandomnessTester] = None
    #: Exponentially-weighted running QBER estimate used to size Cascade's
    #: first-pass blocks; updated by the error-correction stage.
    running_qber: float = 0.01


@dataclass
class PipelineContext:
    """Everything one sifted block carries through the distillation pipeline."""

    block_id: int
    alice_key: BitString
    bob_key: BitString
    transmitted_pulses: int
    mean_photon_number: float = 0.1
    entangled_source: bool = False
    #: The services bundle this block runs against: every stage reads its
    #: protocols, pools and statistics from here.  The engine passes its own.
    services: Optional[PipelineServices] = None

    #: Public transcript of the block; authenticated at the end.
    log: PublicChannelLog = field(default_factory=PublicChannelLog)

    #: Measured error rate between the two keys.  This is ground truth the
    #: simulation knows up front (not a stage product), so it is computed at
    #: construction.  Pass a value explicitly to override.
    qber: Optional[float] = None

    # ---- filled in by stages ---------------------------------------- #
    cascade: Optional[CascadeResult] = None
    entropy: Optional[EntropyEstimate] = None
    privacy: Optional[PrivacyAmplificationResult] = None
    #: The distilled key as it currently stands (post-privacy-amplification,
    #: then post-replenish once the delivery stage has run).
    distilled: Optional[BitString] = None
    authenticated: bool = False
    aborted: bool = False
    abort_reason: str = ""

    def __post_init__(self) -> None:
        if len(self.alice_key) != len(self.bob_key):
            raise ValueError(
                "alice and bob keys must have the same length "
                f"({len(self.alice_key)} != {len(self.bob_key)})"
            )
        if self.qber is None:
            self.qber = self.alice_key.error_rate(self.bob_key)

    @property
    def sifted_bits(self) -> int:
        return len(self.alice_key)

    @property
    def distilled_bits(self) -> int:
        """Distilled bits delivered (0 unless the block authenticated)."""
        if not self.authenticated or self.distilled is None:
            return 0
        return len(self.distilled)

    def abort(self, reason: str) -> None:
        """Mark the block aborted; the pipeline skips the remaining stages."""
        self.aborted = True
        self.abort_reason = reason
