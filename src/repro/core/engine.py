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

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
from repro.pipeline import DistillationPipeline, PipelineContext, PipelineServices
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
    #: Use the paranoid transmitted-count multi-photon accounting instead of
    #: the received-count accounting (see entropy_estimation).
    worst_case_multiphoton: bool = False
    #: Sifted bits accumulated before a block is corrected and distilled.
    block_size_bits: int = 2048
    #: Blocks whose measured QBER exceeds this are discarded outright
    #: (eavesdropping alarm).  25 % is the signature of full intercept-resend;
    #: 15 % leaves a margin above the link's natural 6-8 %.
    abort_qber: float = 0.15
    #: Distilled bits fed back to the authentication pool per block.  A full
    #: tag/verify round trip costs each endpoint 2 x tag_bits of pad, so this
    #: default replenishes twice what a block consumes.
    auth_replenish_bits: int = 128
    #: Pre-shared secret used to bootstrap authentication.
    preshared_secret_bits: int = AuthenticatedChannel.DEFAULT_PRESHARED_BITS
    #: Tag length for Wegman-Carter authentication.
    auth_tag_bits: int = 32
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
        if self.block_size_bits <= 0:
            raise ValueError("block size must be positive")
        if not 0.0 < self.abort_qber <= 0.5:
            raise ValueError("abort QBER must be in (0, 0.5]")
        if self.auth_replenish_bits < 0:
            raise ValueError("auth replenish bits must be non-negative")

    def make_defense(self):
        if self.defense == "bennett":
            return BennettDefense()
        return SlutskyDefense()


@dataclass(frozen=True)
class SiftedBlock:
    """One block-sized chunk of sifted key, ready for distillation.

    The unit of :meth:`QKDProtocolEngine.distill_blocks`: everything the
    pipeline needs from the sifted stream is carried with the block.
    """

    alice_key: BitString
    bob_key: BitString
    transmitted_pulses: int
    mean_photon_number: float = 0.1
    entangled_source: bool = False


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

    @property
    def secret_fraction(self) -> float:
        if self.sifted_bits == 0:
            return 0.0
        return self.distilled_bits / self.sifted_bits


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

    @property
    def sifted_fraction(self) -> float:
        if self.slots_processed == 0:
            return 0.0
        return self.sifted_bits / self.slots_processed


class QKDProtocolEngine:
    """Drives the stage pipeline and feeds both endpoints' key pools."""

    def __init__(
        self,
        parameters: Optional[EngineParameters] = None,
        rng: Optional[DeterministicRNG] = None,
    ):
        params = parameters or EngineParameters()
        self.rng = rng or DeterministicRNG(0)

        preshared = BitString.random(
            params.preshared_secret_bits, self.rng.fork("preshared")
        )
        alice_auth, bob_auth = AuthenticatedChannel.paired(
            preshared, params.auth_tag_bits
        )

        # Every protocol component lives in the services bundle the pipeline
        # stages read; the engine attributes below (``engine.cascade`` etc.)
        # are read-only views onto it.
        self.services = PipelineServices(
            parameters=params,
            statistics=EngineStatistics(),
            cascade=CascadeProtocol(params.cascade, self.rng.fork("cascade")),
            privacy=PrivacyAmplification(self.rng.fork("privacy")),
            estimator=EntropyEstimator(
                defense=params.make_defense(),
                confidence_sigmas=params.confidence_sigmas,
                worst_case_multiphoton=params.worst_case_multiphoton,
            ),
            randomness_tester=RandomnessTester() if params.randomness_testing else None,
            alice_auth=alice_auth,
            bob_auth=bob_auth,
            alice_pool=KeyPool(name="alice"),
            bob_pool=KeyPool(name="bob"),
            running_qber=params.cascade.default_error_rate_hint,
        )
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
        self._pending_slots = 0
        self._pending_pulses_transmitted = 0
        self._pending_mu = 0.1
        self._pending_entangled = False

    # ------------------------------------------------------------------ #
    # Read-only views onto the shared services bundle
    # ------------------------------------------------------------------ #

    def _services_view(name, doc):  # noqa: N805 — descriptor factory
        return property(lambda self: getattr(self.services, name), doc=doc)

    parameters = _services_view("parameters", "The engine's configuration.")
    statistics = _services_view("statistics", "Cumulative engine statistics.")
    cascade = _services_view("cascade", "The error-correction protocol stage driver.")
    privacy = _services_view("privacy", "The privacy-amplification backend.")
    estimator = _services_view("estimator", "The entropy estimator.")
    randomness_tester = _services_view(
        "randomness_tester", "Optional randomness-test battery (None if disabled)."
    )
    alice_auth = _services_view("alice_auth", "Alice's authenticated channel endpoint.")
    bob_auth = _services_view("bob_auth", "Bob's authenticated channel endpoint.")
    alice_pool = _services_view("alice_pool", "Alice's distilled-key pool.")
    bob_pool = _services_view("bob_pool", "Bob's distilled-key pool.")

    del _services_view

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
        self._pending_slots += sift.n_sifted
        self._pending_pulses_transmitted += n_slots
        self._pending_mu = mean_photon_number
        self._pending_entangled = entangled_source

        blocks = []
        while len(self._pending_alice) >= self.parameters.block_size_bits:
            blocks.append(self._pop_pending_block())
        return self.distill_blocks(blocks)

    def flush(self) -> Optional[DistillationOutcome]:
        """Distill whatever sifted bits are pending, even if below block size."""
        if not self._pending_alice:
            return None
        return self.distill_blocks([self._pop_pending_block(partial=True)])[0]

    @property
    def pending_sifted_key(self) -> Tuple[BitString, BitString]:
        """Both sides' sifted bits accumulated toward the next block.

        The raw sifted stream as it stands between block completions —
        what a flush would distill.  Differential tests and benchmarks use
        it to compare execution backends byte-for-byte without paying for
        a distillation pass.
        """
        return BitString(self._pending_alice), BitString(self._pending_bob)

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

        The block takes the next block id, and its run advances the engine's
        state: the authentication pads, the key pools, the statistics and
        the running QBER estimate.  It is a one-block :meth:`distill_blocks`,
        so single-block and batched submissions of the same blocks produce
        identical key material.
        """
        block = SiftedBlock(
            alice_key=alice_key,
            bob_key=bob_key,
            transmitted_pulses=transmitted_pulses,
            mean_photon_number=mean_photon_number,
            entangled_source=entangled_source,
        )
        return self.distill_blocks([block])[0]

    def distill_blocks(self, blocks: Sequence[SiftedBlock]) -> List[DistillationOutcome]:
        """Distill a batch of sifted blocks, in order.

        Every block runs the engine's six-stage :attr:`pipeline` against
        the engine's one :attr:`services` bundle.
        """
        outcomes = []
        for block in blocks:
            block_id = self._next_block_id
            self._next_block_id += 1
            ctx = PipelineContext(
                block_id=block_id,
                alice_key=block.alice_key,
                bob_key=block.bob_key,
                transmitted_pulses=block.transmitted_pulses,
                mean_photon_number=block.mean_photon_number,
                entangled_source=block.entangled_source,
                services=self.services,
            )
            ctx = self.pipeline.run(ctx)
            outcomes.append(
                DistillationOutcome(
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
            )
        return outcomes

    def _pop_pending_block(self, partial: bool = False) -> SiftedBlock:
        size = (
            len(self._pending_alice)
            if partial
            else self.parameters.block_size_bits
        )
        alice_key = BitString(self._pending_alice[:size])
        bob_key = BitString(self._pending_bob[:size])
        del self._pending_alice[:size]
        del self._pending_bob[:size]

        # Apportion the transmitted-pulse count to this block in proportion to
        # its share of the pending sifted bits.
        if self._pending_slots > 0:
            pulses = int(
                self._pending_pulses_transmitted * size / max(self._pending_slots, 1)
            )
        else:
            pulses = self._pending_pulses_transmitted
        self._pending_pulses_transmitted = max(self._pending_pulses_transmitted - pulses, 0)
        self._pending_slots = max(self._pending_slots - size, 0)

        return SiftedBlock(
            alice_key=alice_key,
            bob_key=bob_key,
            transmitted_pulses=pulses,
            mean_photon_number=self._pending_mu,
            entangled_source=self._pending_entangled,
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
