"""Per-block pipeline state.

A :class:`PipelineContext` is everything one sifted block accumulates on its
way through the distillation pipeline: the two endpoints' keys, the public
transcript, the per-stage results (Cascade, entropy estimate, privacy
amplification), and the abort/authentication flags.  Stages receive a context,
mutate it, and hand it to the next stage.

The long-lived two-party machinery the stages read through ``ctx.services``
is the :class:`~repro.core.engine.QKDProtocolEngine` itself: its Cascade
protocol, privacy amplifier, entropy estimator, both endpoints'
authenticated channels and key pools, its statistics and its running QBER
estimate are plain engine attributes.  Every block of an engine runs against
that one engine, which is how stages carry state across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.cascade import CascadeResult
from repro.core.entropy_estimation import EntropyEstimate
from repro.core.messages import PublicChannelLog
from repro.core.privacy import PrivacyAmplificationResult
from repro.util.bits import BitString

if TYPE_CHECKING:
    from repro.core.engine import QKDProtocolEngine


@dataclass
class PipelineContext:
    """Everything one sifted block carries through the distillation pipeline."""

    block_id: int
    alice_key: BitString
    bob_key: BitString
    transmitted_pulses: int
    mean_photon_number: float = 0.1
    entangled_source: bool = False
    #: The engine this block runs against: every stage reads its protocols,
    #: pools and statistics from here.  The engine passes itself.
    services: Optional["QKDProtocolEngine"] = None

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
