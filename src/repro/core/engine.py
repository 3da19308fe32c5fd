"""The QKD protocol engine: raw Qframes in, authenticated distilled key out.

This is the pipeline of the paper's Fig 9 assembled into one driver.  For each
batch of channel slots it:

1. runs **sifting** (sift / sift-response) to obtain both sides' sifted bits,
2. accumulates sifted bits until a block is large enough to be worth
   correcting,
3. hands each completed block to a :class:`repro.pipeline.DistillationPipeline`
   of the paper's six stages, always in this order: QBER alarm, **Cascade**
   error correction, **entropy estimation** with the configured defense
   function, **privacy amplification** over GF(2^n), **Wegman-Carter
   authentication** of the public transcript, and delivery to both
   endpoints' key pools (the "VPN / OPC interface").

Every protocol step lives in a stage (:mod:`repro.pipeline.stages`); what
varies between engines is configuration (:class:`EngineParameters`: the
defense function, the confidence, the thresholds), never the sequence.
Every block enters through :meth:`QKDProtocolEngine.distill_block`, and the
stages read the engine's components from it as ``ctx.services``.

An engine distils one key stream: its blocks run in-line, one after another,
through the one pipeline, sharing the engine's Cascade and privacy RNG
streams and its running QBER estimate.  Blocks are never fanned out to
workers; parallelism lives one level up, across links
(:class:`repro.runtime.LinkFarm`).

Because this is a simulation, one engine object drives both protocol
endpoints; the two ends' states (keys, pools) are nonetheless kept strictly
separate so that tests can verify they only ever agree through protocol
messages, never by accident of implementation.

If a block's QBER exceeds the abort threshold — the signature of an
intercept-resend attack — the block is discarded and counted, which is
exactly the detect-and-respond behaviour the paper ascribes to Alice and Bob.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from numbers import Integral
from typing import ClassVar, List, Optional

from repro.core.authentication import AuthenticatedChannel
from repro.core.cascade import CascadeParameters, CascadeProtocol, CascadeResult
from repro.core.entropy_estimation import (
    BennettDefense,
    EntropyEstimate,
    EntropyEstimator,
    SlutskyDefense,
)
from repro.core.keypool import KeyPool
from repro.core.messages import PublicChannelLog
from repro.core.privacy import PrivacyAmplification, PrivacyAmplificationResult
from repro.core.randomness import RandomnessTester
from repro.core.sifting import SiftResult
from repro.pipeline import DistillationPipeline, PipelineContext
from repro.pipeline.stages import (
    AuthenticationStage,
    CascadeStage,
    DeliveryStage,
    EntropyEstimationStage,
    PrivacyAmplificationStage,
    QberAlarmStage,
)
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


@dataclass
class EngineParameters:
    """Configuration of the protocol pipeline."""

    #: Which defense function bounds Eve's error-inducing information:
    #: "bennett" or "slutsky" (both per the paper's Appendix).
    defense: str = "bennett"
    #: The confidence parameter c (c = 5 means five standard deviations,
    #: "about 10^-6 chance of successful eavesdropping").
    confidence_sigmas: float = 5.0
    #: Sifted bits accumulated before a block is corrected and distilled.
    block_size_bits: int = 2048
    #: Blocks whose measured QBER exceeds this are discarded outright
    #: (eavesdropping alarm).  25 % is the signature of full intercept-resend;
    #: 15 % leaves a margin above the link's natural 6-8 %.
    abort_qber: float = 0.15
    #: Distilled bits fed back to the authentication pool per block.  A full
    #: tag/verify round trip costs each endpoint 2 x tag_bits of pad, so this
    #: default replenishes twice what a block consumes.
    auth_replenish_bits: ClassVar[int] = 128
    #: Pre-shared secret used to bootstrap authentication.
    preshared_secret_bits: int = AuthenticatedChannel.DEFAULT_PRESHARED_BITS
    #: Non-randomness measure r (a fixed placeholder, exactly as in the paper).
    non_randomness_bits: int = 0
    #: When enabled, the engine replaces the placeholder with a measured value
    #: from the randomness-test battery (repro.core.randomness) applied to
    #: each corrected block — the "until randomness testing is put into the
    #: system" extension the paper anticipates.
    randomness_testing: bool = False
    cascade: CascadeParameters = field(default_factory=CascadeParameters)

    def __post_init__(self) -> None:
        if self.defense not in ("bennett", "slutsky"):
            raise ValueError("defense must be 'bennett' or 'slutsky'")
        size = self.block_size_bits
        if isinstance(size, bool) or not isinstance(size, Integral) or size < 1:
            raise ValueError(f"block_size_bits must be a positive integer, got {size!r}")
        self.block_size_bits = int(size)
        sigmas = self.confidence_sigmas
        if not (math.isfinite(sigmas) and sigmas >= 0):
            raise ValueError(f"confidence_sigmas must be finite and non-negative, got {sigmas!r}")
        r = self.non_randomness_bits
        if isinstance(r, bool) or not isinstance(r, Integral) or r < 0:
            # A negative r would add key beyond the entropy bound.
            raise ValueError(f"non_randomness_bits must be a non-negative integer, got {r!r}")
        if not 0.0 < self.abort_qber <= 0.5:
            raise ValueError("abort QBER must be in (0, 0.5]")

    def make_defense(self):
        if self.defense == "bennett":
            return BennettDefense()
        return SlutskyDefense()


@dataclass
class DistillationOutcome:
    """Everything that happened while distilling one block."""

    block_id: int
    sifted_bits: int
    qber: float
    cascade: Optional[CascadeResult]
    entropy: Optional[EntropyEstimate]
    privacy: Optional[PrivacyAmplificationResult]
    distilled_bits: int
    authenticated: bool
    aborted: bool
    abort_reason: str = ""
    transcript: Optional[PublicChannelLog] = None


@dataclass
class EngineStatistics:
    """Cumulative statistics across the engine's lifetime."""

    slots_processed: int = 0
    sifted_bits: int = 0
    sifted_errors: int = 0
    distilled_bits: int = 0
    blocks_distilled: int = 0
    blocks_aborted: int = 0
    disclosed_parities: int = 0

    @property
    def mean_qber(self) -> float:
        if self.sifted_bits == 0:
            return 0.0
        return self.sifted_errors / self.sifted_bits

    def since(self, earlier: "EngineStatistics") -> "EngineStatistics":
        """What was counted after ``earlier``, a copy of these statistics, was taken."""
        return EngineStatistics(*(now - then for now, then in zip(astuple(self), astuple(earlier))))


class QKDProtocolEngine:
    """Drives the stage pipeline and feeds both endpoints' key pools.

    The engine is also what every stage reads through ``ctx.services``: its
    parameters, statistics, protocol components, authenticated channels, key
    pools and running QBER estimate are plain attributes, and each block's
    context carries the engine itself.
    """

    def __init__(
        self,
        parameters: Optional[EngineParameters] = None,
        rng: Optional[DeterministicRNG] = None,
    ):
        self.parameters = params = parameters or EngineParameters()
        self.rng = rng or DeterministicRNG(0)
        self.statistics = EngineStatistics()

        # Fork order (preshared, cascade, privacy) fixes every stream's draws.
        preshared = BitString.random(
            params.preshared_secret_bits, self.rng.fork("preshared")
        )
        self.alice_auth, self.bob_auth = AuthenticatedChannel.paired(preshared)
        self.cascade = CascadeProtocol(params.cascade, self.rng.fork("cascade"))
        self.privacy = PrivacyAmplification(self.rng.fork("privacy"))
        self.estimator = EntropyEstimator(
            defense=params.make_defense(),
            confidence_sigmas=params.confidence_sigmas,
        )
        #: Optional randomness-test battery (None if disabled).
        self.randomness_tester = RandomnessTester() if params.randomness_testing else None
        self.alice_pool = KeyPool(name="alice")
        self.bob_pool = KeyPool(name="bob")
        #: Exponentially-weighted running QBER estimate used to size
        #: Cascade's first-pass blocks; updated by the error-correction stage.
        self.running_qber = params.cascade.default_error_rate_hint

        self.pipeline = DistillationPipeline(
            (
                QberAlarmStage(),
                CascadeStage(),
                EntropyEstimationStage(),
                PrivacyAmplificationStage(),
                AuthenticationStage(),
                DeliveryStage(),
            )
        )

        self._next_block_id = 0
        self._next_frame_id = 0

        # Accumulators for sifted bits awaiting a full block.
        self._pending_alice: List[int] = []
        self._pending_bob: List[int] = []
        self._pending_pulses_transmitted = 0
        self._pending_mu = 0.1
        self._pending_entangled = False

    # ------------------------------------------------------------------ #
    # Frame intake
    # ------------------------------------------------------------------ #

    def allocate_frame_id(self) -> int:
        """Claim the next sift frame id (one per processed frame), with which
        the batch loop stamps each lane's sift before :meth:`process_sifted`.
        """
        frame_id = self._next_frame_id
        self._next_frame_id += 1
        return frame_id

    def process_sifted(
        self,
        sift: "SiftResult",
        n_slots: int,
        mean_photon_number: float = 0.1,
        entangled_source: bool = False,
    ) -> List[DistillationOutcome]:
        """Accumulate an already-sifted frame and distill completed blocks.

        The slot→key loop (:func:`repro.lanes.engine.run_lane`) sifts each
        batch of its link's frames and feeds the :class:`SiftResult` here.
        ``n_slots`` is the transmitted slot count of the frame the sift came
        from.  Returns the outcomes of every block completed by this frame
        (possibly none, if the sifted bits are still accumulating).
        """
        self.statistics.slots_processed += n_slots
        self.statistics.sifted_bits += sift.n_sifted
        self.statistics.sifted_errors += sift.error_count

        self._pending_alice.extend(sift.alice_key)
        self._pending_bob.extend(sift.bob_key)
        self._pending_pulses_transmitted += n_slots
        self._pending_mu = mean_photon_number
        self._pending_entangled = entangled_source

        size = self.parameters.block_size_bits
        outcomes = []
        while len(self._pending_alice) >= size:
            outcomes.append(self._distill_pending(size))
        return outcomes

    def flush(self) -> Optional[DistillationOutcome]:
        """Distill whatever sifted bits are pending, even if below block size."""
        if not self._pending_alice:
            return None
        return self._distill_pending(len(self._pending_alice))

    def _distill_pending(self, size: int) -> DistillationOutcome:
        """Distill the first ``size`` pending sifted bits as one block."""
        pending = len(self._pending_alice)
        alice_key = BitString(self._pending_alice[:size])
        bob_key = BitString(self._pending_bob[:size])
        del self._pending_alice[:size]
        del self._pending_bob[:size]

        # Apportion the transmitted-pulse count to this block in proportion to
        # its share of the pending sifted bits.
        pulses = int(self._pending_pulses_transmitted * size / pending)
        self._pending_pulses_transmitted -= pulses
        return self.distill_block(
            alice_key, bob_key, pulses, self._pending_mu, self._pending_entangled
        )

    # ------------------------------------------------------------------ #
    # Distillation of one block
    # ------------------------------------------------------------------ #

    def distill_block(
        self,
        alice_key: BitString,
        bob_key: BitString,
        transmitted_pulses: int,
        mean_photon_number: float = 0.1,
        entangled_source: bool = False,
    ) -> DistillationOutcome:
        """Run one sifted block through the distillation pipeline.

        The one entry point: :meth:`process_sifted` and :meth:`flush` call it
        for every block they pop.  The block takes the next block id, and its
        run advances the engine's state: the authentication pads, the key
        pools, the statistics and the running QBER estimate.
        """
        block_id = self._next_block_id
        self._next_block_id += 1
        ctx = self.pipeline.run(
            PipelineContext(
                block_id=block_id,
                alice_key=alice_key,
                bob_key=bob_key,
                transmitted_pulses=transmitted_pulses,
                mean_photon_number=mean_photon_number,
                entangled_source=entangled_source,
                services=self,
            )
        )
        return DistillationOutcome(
            block_id=ctx.block_id,
            sifted_bits=ctx.sifted_bits,
            qber=ctx.qber,
            cascade=ctx.cascade,
            entropy=ctx.entropy,
            privacy=ctx.privacy,
            distilled_bits=ctx.distilled_bits,
            authenticated=ctx.authenticated,
            aborted=ctx.aborted,
            abort_reason=ctx.abort_reason,
            transcript=ctx.log,
        )

    # ------------------------------------------------------------------ #

    @property
    def keys_match(self) -> bool:
        """Whether both pools have received identical key material so far."""
        return (
            self.alice_pool.bits_added == self.bob_pool.bits_added
            and self.alice_pool.available_bits == self.bob_pool.available_bits
        )

    def __repr__(self) -> str:
        return (
            f"QKDProtocolEngine(defense={self.parameters.defense}, "
            f"blocks={self.statistics.blocks_distilled}, "
            f"distilled={self.statistics.distilled_bits} bits)"
        )
