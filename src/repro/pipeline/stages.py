"""The built-in stages of the paper's Fig 9 distillation pipeline.

Each class wraps one of the two-party protocols of :mod:`repro.core` as a
:class:`~repro.pipeline.stage.PipelineStage`.  The engine runs all six, in
this order, on every block:

========================  ====================================================
name                      stage
========================  ====================================================
``alarm.qber``            eavesdropping alarm (abort above the QBER threshold)
``cascade.bicon``         BBN Cascade error correction with leakage accounting
``entropy.estimate``      entropy estimation with the configured defense
``privacy.gf2n``          privacy amplification over GF(2^n)
``auth.wegman_carter``    Wegman-Carter authentication of the transcript
``deliver.pools``         auth-pool replenishment and key-pool delivery
========================  ====================================================

The stages reproduce the historical monolithic engine bit for bit: the same
RNG draws in the same order, the same statistics increments, the same
authentication-pool arithmetic.  The engine's tests pin that equivalence.
"""

from __future__ import annotations

from repro.core.entropy_estimation import EntropyInputs
from repro.core.keypool import KeyBlock
from repro.crypto.wegman_carter import AuthenticationError
from repro.pipeline.context import PipelineContext
from repro.pipeline.stage import PipelineStage


class QberAlarmStage(PipelineStage):
    """Abort blocks whose error rate signals eavesdropping.

    A QBER above the configured threshold is the signature of an
    intercept-resend attack; the block is discarded.  Even an aborted block
    costs authenticated traffic — the error estimate and the abort decision
    themselves are exchanged under authentication, which is what makes the
    key-exhaustion denial-of-service of the paper's section 2 possible.
    """

    name = "alarm.qber"

    def run(self, ctx: PipelineContext) -> PipelineContext:
        services = ctx.services
        threshold = services.parameters.abort_qber
        if ctx.qber > threshold:
            services.statistics.blocks_aborted += 1
            payload = ctx.log.transcript_bytes()
            tag = services.alice_auth.tag_payload(payload, covered_messages=len(ctx.log))
            services.bob_auth.verify_payload(payload, tag)
            ctx.abort(
                f"QBER {ctx.qber:.1%} exceeds abort threshold "
                f"{threshold:.1%} (possible eavesdropping)"
            )
        return ctx


class CascadeStage(PipelineStage):
    """BBN Cascade error correction, charging every disclosed parity bit.

    The block's first-pass size comes from ``services.running_qber``, which
    the stage then moves toward the error rate Cascade found.  A block whose
    corrected key fails the confirmation parities is aborted here.
    """

    name = "cascade.bicon"

    def run(self, ctx: PipelineContext) -> PipelineContext:
        services = ctx.services
        result = services.cascade.reconcile(
            ctx.alice_key,
            ctx.bob_key,
            log=ctx.log,
            error_rate_hint=services.running_qber,
        )
        ctx.cascade = result
        services.statistics.disclosed_parities += result.disclosed_parities
        services.running_qber = 0.5 * services.running_qber + 0.5 * max(
            result.errors_corrected / max(ctx.sifted_bits, 1), 1e-4
        )
        if not result.confirmed:
            services.statistics.blocks_aborted += 1
            ctx.abort("error correction failed confirmation")
        return ctx


class EntropyEstimationStage(PipelineStage):
    """Entropy estimation with the engine's configured defense function."""

    name = "entropy.estimate"

    def run(self, ctx: PipelineContext) -> PipelineContext:
        services = ctx.services
        non_randomness = services.parameters.non_randomness_bits
        if services.randomness_tester is not None:
            # Replace the placeholder r with a measured value: the battery is
            # run over the corrected block, and any detected bias/correlation
            # shortens the distilled key accordingly.
            report = services.randomness_tester.assess(ctx.cascade.corrected_key)
            non_randomness += report.non_randomness_bits
        inputs = EntropyInputs(
            sifted_bits=ctx.sifted_bits,
            error_bits=ctx.cascade.errors_corrected,
            transmitted_pulses=ctx.transmitted_pulses,
            disclosed_parities=ctx.cascade.disclosed_parities,
            non_randomness=non_randomness,
            mean_photon_number=ctx.mean_photon_number,
            entangled_source=ctx.entangled_source,
        )
        ctx.entropy = services.estimator.estimate(inputs)
        return ctx


class PrivacyAmplificationStage(PipelineStage):
    """Distill the corrected block down to the entropy estimate's bound.

    Alice hashes her own (reference) key with the same announced parameters;
    since the corrected keys are identical the outputs are identical, which
    the tests verify explicitly.
    """

    name = "privacy.gf2n"

    def run(self, ctx: PipelineContext) -> PipelineContext:
        result = ctx.services.privacy.amplify(
            ctx.cascade.corrected_key, ctx.entropy.distillable_bits, log=ctx.log
        )
        ctx.privacy = result
        ctx.distilled = result.distilled_key
        return ctx


class AuthenticationStage(PipelineStage):
    """Authenticate the block's public transcript in both directions."""

    name = "auth.wegman_carter"

    def run(self, ctx: PipelineContext) -> PipelineContext:
        services = ctx.services
        ctx.authenticated = True
        try:
            # Nothing is recorded to the log between the four operations, so
            # the transcript is serialized once and the bytes shared.
            payload = ctx.log.transcript_bytes()
            covered = len(ctx.log)
            tag = services.alice_auth.tag_payload(payload, covered_messages=covered)
            services.bob_auth.verify_payload(payload, tag)
            tag_back = services.bob_auth.tag_payload(payload, covered_messages=covered)
            services.alice_auth.verify_payload(payload, tag_back)
        except AuthenticationError:
            ctx.authenticated = False
            ctx.abort("authentication failure")
        return ctx


class DeliveryStage(PipelineStage):
    """Replenish the authentication pools and feed both endpoints' key pools.

    Each endpoint's :class:`~repro.core.keypool.KeyBlock` gets its own
    independent copy of the distilled bits, so the two pools can never alias
    the same object.
    """

    name = "deliver.pools"

    def run(self, ctx: PipelineContext) -> PipelineContext:
        services = ctx.services
        if not ctx.authenticated:
            # Policy: key is only ever delivered from an authenticated
            # transcript.
            return ctx
        distilled = ctx.distilled
        if len(distilled) == 0:
            return ctx

        replenish = min(services.parameters.auth_replenish_bits, len(distilled))
        if replenish:
            refresh_bits = distilled[:replenish]
            services.alice_auth.replenish(refresh_bits)
            services.bob_auth.replenish(refresh_bits)
            distilled = distilled[replenish:]
        ctx.distilled = distilled

        for pool in (services.alice_pool, services.bob_pool):
            pool.add_block(
                KeyBlock(
                    bits=distilled.copy(),
                    block_id=ctx.block_id,
                    qber=ctx.qber,
                    sifted_bits=ctx.sifted_bits,
                )
            )
        services.statistics.distilled_bits += len(distilled)
        services.statistics.blocks_distilled += 1
        return ctx

