"""Pinned-digest regression test for distilled key material.

The packed-word refactor of BitString and every layer above it must leave the
protocol's *output* untouched: same seeds in, bit-identical distilled key out.
The digest below was recorded from the pre-refactor (tuple-backed) engine at
the commit where PR 1's pipeline landed; any change to RNG draw order, Cascade
disclosure order, privacy-amplification parameters or key delivery will move
it and fail loudly here.
"""

import dataclasses
import hashlib

import pytest

from repro import QKDSystem
from repro.core.cascade import CascadeParameters, CascadeProtocol
from repro.core.engine import EngineParameters, QKDProtocolEngine
from repro.core.sifting import SiftingProtocol
from repro.eve import BeamSplittingAttack, InterceptResendAttack
from repro.link.qkd_link import LinkParameters, QKDLink
from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.optics.model import DetectorParameters
from repro.optics.entangled import EntangledSourceParameters
from repro.optics.model import InterferometerParameters
from repro.optics.timing import FramingParameters
from repro.runtime.farm import LinkJob
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.draws import sample

BLOCK_BITS = 2048
ERROR_RATE = 0.06
N_BLOCKS = 4

#: sha256 over the concatenated '0'/'1' rendering of every KeyBlock delivered
#: to Alice's pool, recorded from the tuple-backed engine (seed 7, the four
#: noisy blocks below).
PINNED_POOL_DIGEST = "f17c5484dda40648337e659ae98b53674f574eb2784e8172e381f37d51e771fd"


def _noisy_pair(seed, error_rate=ERROR_RATE):
    rng = DeterministicRNG(seed)
    reference = BitString.random(BLOCK_BITS, rng)
    errors = sample(rng, range(BLOCK_BITS), int(round(error_rate * BLOCK_BITS)))
    noisy = reference.to_list()
    for index in errors:
        noisy[index] ^= 1
    return reference, BitString(noisy)


def test_distilled_key_material_matches_pre_refactor_digest():
    engine = QKDProtocolEngine(EngineParameters(), DeterministicRNG(7))
    for seed in range(N_BLOCKS):
        alice, bob = _noisy_pair(100 + seed)
        engine.distill_block(alice, bob, transmitted_pulses=500_000)

    assert engine.statistics.blocks_distilled == N_BLOCKS
    assert engine.keys_match

    digest = hashlib.sha256()
    for block in engine.alice_pool.blocks:
        digest.update(str(block.bits).encode())
    assert digest.hexdigest() == PINNED_POOL_DIGEST


# ---------------------------------------------------------------------- #
# Per-branch link pins
# ---------------------------------------------------------------------- #
#
# Recorded from the hand-written sequential chain (QuantumChannel.transmit ->
# SiftingProtocol.sift -> process_frame -> QKDLink.run_slots) at the last
# commit that had one, so each optics branch below keeps an independent
# reference now that a single link is the width-1 lane.  ``sift`` digests two
# consecutive transmit calls (every per-slot array, the attack record, both
# sifted keys); ``pool`` digests a three-batch link run (report statistics,
# per-block outcomes, every pooled block).

LINK_SEED = 2003
LINK_SLOTS = 2_000_000
LINK_BATCH = 800_000  # 800k + 800k + 400k: exercises the remainder batch
FRAME_SLOTS = 150_000

#: name -> (channel parameters, attack class, sift digest, pool digest)
LINK_BRANCHES = {
    "entangled": (
        lambda: ChannelParameters.entangled_link(
            2.0,
            EntangledSourceParameters(mean_pairs_per_pulse=0.1, heralding_efficiency=0.8),
        ),
        None,
        "45348cdca12e795af2f52faadb219123d659e1530341c9398c822ebac8fedf4b",
        "1c559eb091a7817fb3773526360ab2e2be809d75fc302f64f43bfb7e1ae3bb38",
    ),
    "intercept_resend": (
        lambda: ChannelParameters.for_distance(2.0),
        InterceptResendAttack,
        "29bc19cb3176c0c212b723b1ea7a708759c82c0c9f5f26c2c551be9d9a6b8e79",
        "c7f6a46c1c45e321f126b90912f9e9285cc9d23afdaa4a8cc207715deabe5357",
    ),
    "beamsplitter": (
        lambda: ChannelParameters.for_distance(2.0),
        BeamSplittingAttack,
        "50b953f4f5dce739b988477d0f1f746932e574f520c48b97aac5078aa88915ba",
        "22f1a4fec012177b3bc17f3a89d22d38707663ce5e21f4ca339b1d4a71f2b72d",
    ),
    "afterpulse": (
        lambda: dataclasses.replace(
            ChannelParameters.for_distance(2.0),
            detectors=DetectorParameters(afterpulse_probability=0.05),
        ),
        None,
        "6f208ff45df0570b7e1eedaecd28ff62b5dae49fa7a9af619ddc96a60a60286d",
        "7f59f150f82326e15fbe7978fa1bcfca0108aaacf0480dc3b197145c24f66845",
    ),
    "phase_noise": (
        lambda: dataclasses.replace(
            ChannelParameters.for_distance(2.0),
            interferometer=InterferometerParameters(phase_noise_rad=0.1),
        ),
        None,
        "3ad9dc0c5758f9774ec2e76cc1827ddc680bbcb7680a30b30ed26096db30fce1",
        "e78fcaef50b82bdfcda3a2a44100d44be2967625c15a0174ba6775cd157b9c2c",
    ),
    "frame_loss_and_misalignment": (
        lambda: dataclasses.replace(
            ChannelParameters.for_distance(2.0),
            framing=FramingParameters(
                frame_loss_probability=0.05, gate_misalignment_penalty=0.2
            ),
        ),
        None,
        "4b1016210b297727e736e7ffd938b813cca731040d5c7f134a791ea1c95bf90f",
        "e74c1665807b5be11913e56007bd16ccee8cc8f21bfd72cec7e3a062c9b8e4fb",
    ),
}


def branch_job(name):
    """The pinned three-batch link run of one branch, as a farm/lane job."""
    channel_parameters, attack_class, _sift, _pool = LINK_BRANCHES[name]
    return LinkJob(
        name=name,
        parameters=LinkParameters(
            channel=channel_parameters(), slots_per_batch=LINK_BATCH
        ),
        seed=LINK_SEED,
        n_slots=LINK_SLOTS,
        attack=attack_class() if attack_class is not None else None,
    )


def link_run_digest(report, alice_pool):
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                report.sifted_bits,
                report.distilled_bits,
                report.mean_qber,
                report.blocks_distilled,
                report.blocks_aborted,
            )
        ).encode()
    )
    for outcome in report.outcomes:
        digest.update(
            repr(
                (outcome.block_id, outcome.sifted_bits, outcome.qber, outcome.aborted)
            ).encode()
        )
    for block in alice_pool.blocks:
        digest.update(str(block.bits).encode())
    return digest.hexdigest()


def _sift_digest(job):
    channel = QuantumChannel(job.parameters.channel, DeterministicRNG(job.seed))
    digest = hashlib.sha256()
    for frame_id in range(2):
        frame = channel.transmit(FRAME_SLOTS, attack=job.attack)
        for array in (
            frame.alice_basis,
            frame.alice_value,
            frame.alice_photons,
            frame.bob_basis,
            frame.bob_click,
            frame.bob_double,
            frame.bob_value,
            frame.frame_numbers,
        ):
            digest.update(array.tobytes())
        digest.update(repr(sorted(frame.attack_record.items())).encode())
        sift = SiftingProtocol(frame_id=frame_id).sift(frame)
        digest.update(str(sift.alice_key).encode())
        digest.update(str(sift.bob_key).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", LINK_BRANCHES)
def test_link_branch_matches_sequential_digest(name):
    _channel, _attack, sift_digest, pool_digest = LINK_BRANCHES[name]
    assert _sift_digest(branch_job(name)) == sift_digest

    job = branch_job(name)
    link = QKDLink(job.parameters, DeterministicRNG(job.seed))
    if job.attack is not None:
        link.attach_attack(job.attack)
    report = link.run_slots(job.n_slots)
    assert report.distilled_bits > 0 or report.blocks_aborted > 0
    assert link_run_digest(report, link.engine.alice_pool) == pool_digest


# ---------------------------------------------------------------------- #
# Transcript and tag pins
# ---------------------------------------------------------------------- #
#
# The pool digests above only see the distilled key.  These pin what crosses
# the public channel on the way there — every transcript byte, both tags and
# Cascade's disclosure counts — recorded at the commit before the LFSR,
# Wegman-Carter and transcript loops became table kernels.

PINNED_TRANSCRIPT_SHA256 = "9eae8def690e32f105252e1f7bf8a862c19b2e036bcc13b32df0defb49b5468c"
PINNED_TAGS = (
    "11000001100110111000010101000010",  # Alice -> Bob
    "01100101110011010001110110111000",  # Bob -> Alice
)
PINNED_LINK_TRANSCRIPT_SHA256 = (
    "3a8472cdd27af4cd57c839798262da5905c8f036aa66779716b96cdab12cb366",
    "5da4520b0879a8afd2bc41a07b08f7f33ce24b164c1ab566d78ece3ffcab995c",
    "2dd7cc6875a020ec05859237483b6cf1e00f9e2c8425dc491b550729a347a0bf",
)


def test_block_transcript_tags_and_parity_counts_are_pinned(monkeypatch):
    engine = QKDProtocolEngine(EngineParameters(), DeterministicRNG(7))
    tags = []
    for auth in (engine.alice_auth, engine.bob_auth):
        original = auth.tag_payload

        def recording(payload, covered_messages, _original=original):
            message = _original(payload, covered_messages=covered_messages)
            tags.append(str(message.tag))
            return message

        monkeypatch.setattr(auth, "tag_payload", recording)

    alice, bob = _noisy_pair(100)
    outcome = engine.distill_block(alice, bob, transmitted_pulses=500_000)

    transcript = outcome.log.transcript_bytes()
    assert len(transcript) == 50_020
    assert hashlib.sha256(transcript).hexdigest() == PINNED_TRANSCRIPT_SHA256
    assert tuple(tags) == PINNED_TAGS
    assert outcome.cascade.disclosed_parities == 947
    assert outcome.cascade.independent_parities == 764
    assert outcome.cascade.bisection_queries == 666
    assert outcome.distilled_bits == 371


def test_link_block_transcripts_are_pinned():
    report = QKDSystem(seed=LINK_SEED).link().run_slots(3_000_000)
    assert tuple(
        hashlib.sha256(outcome.log.transcript_bytes()).hexdigest()
        for outcome in report.outcomes
    ) == PINNED_LINK_TRANSCRIPT_SHA256


# ---------------------------------------------------------------------- #
# Cascade transcript pins off the default path
# ---------------------------------------------------------------------- #
#
# The block above reconciles one 2 048-bit key at 6 % with the default
# parameters.  These reach what it does not: no first pass (every bisection
# over a ~n/2 random subset), sparse subsets (gaps >= 128, the general index
# coder), a high error rate (4-bit first-pass blocks, long cascades) and keys
# so short that subsets hold one position and a bisection asks nothing.
# Recorded at a014021, before Cascade's bookkeeping moved into arrays.

#: name -> (key bits, error rate, parameter overrides, error-rate hint,
#:          transcript sha256, len(log), total_bytes,
#:          (errors corrected, disclosed, independent, rounds used, bisection queries))
CASCADE_TRANSCRIPT_PINS = {
    "no_first_pass": (
        2048, 0.06, {"block_first_pass": False}, 0.06,
        "4f15b5abe33905f06e7754dd8f7c9528b106c649483375412fcf6ce925efaa4e",
        2458, 154_974, (123, 1371, 806, 2, 1227),
    ),
    "sparse_subsets": (
        2048, 0.06, {"subset_density": 0.05}, 0.06,
        "2e18a43bd317e1dbfca2cd00b06a868edcab46d4ca72b926efae1e4b6ccfc821",
        1038, 17_040, (123, 831, 809, 2, 516),
    ),
    "qber_11": (
        2048, 0.11, {}, 0.11,
        "ebbc76d8bdeab9f297163938d8533887805e7915d532680e063f3cfcbfa72278",
        2020, 78_836, (225, 1444, 1158, 2, 1007),
    ),
    "bits_1": (
        1, 1.0, {}, None,
        "b5b8b9eb81b4768e23975832ebaa8ee4c21d2a6a2049775d6552f5f603ec4997",
        4, 322, (1, 81, 1, 1, 0),
    ),
    "bits_2": (
        2, 0.5, {}, None,
        "4b4c3bf6937bb1c66f8585f1de61ea14fcd35321e13a09b770654e9193b87c7d",
        6, 347, (1, 82, 2, 1, 1),
    ),
    "bits_3": (
        3, 0.34, {}, None,
        "823b358a9ffd5347f00ff61c26b1818310dc61750b48650378b751af3b4bbbd2",
        8, 372, (1, 83, 3, 1, 2),
    ),
    "bits_65": (
        65, 0.06, {}, None,
        "00e66d5a24cfab4325bc90821a61e6496ba58c732cff73db695998f637ee2045",
        40, 1082, (4, 166, 54, 2, 17),
    ),
}


@pytest.mark.parametrize("name", sorted(CASCADE_TRANSCRIPT_PINS))
def test_cascade_transcript_and_counts_are_pinned(name):
    n, rate, overrides, hint, sha256, messages, total_bytes, counts = (
        CASCADE_TRANSCRIPT_PINS[name]
    )
    rng = DeterministicRNG(220 + n)
    reference = BitString.random(n, rng)
    noisy = reference.to_list()
    for index in sample(rng, range(n), int(round(rate * n))):
        noisy[index] ^= 1
    result = CascadeProtocol(CascadeParameters(**overrides), DeterministicRNG(22)).reconcile(
        reference, BitString(noisy), error_rate_hint=hint
    )
    log = result.message_log
    assert hashlib.sha256(log.transcript_bytes()).hexdigest() == sha256
    assert (len(log), log.total_bytes) == (messages, total_bytes)
    assert (
        result.errors_corrected,
        result.disclosed_parities,
        result.independent_parities,
        result.rounds_used,
        result.bisection_queries,
    ) == counts
    assert result.confirmed and result.matches_reference


# ---------------------------------------------------------------------- #
# Slutsky defense and the fixed stage sequence
# ---------------------------------------------------------------------- #
#
# The retired bench A3's Slutsky run (six 2 048-bit blocks at 6 % QBER,
# seed 7), one block per ``distill_block`` call: the Slutsky defense distils
# key from every block over the same six stages as Bennett.

#: sha256 over Alice's pooled blocks, and the EngineStatistics fields
SLUTSKY_PIN = (
    "be36171e68de3666751e1ef3461ee7c6245bf06c9a34142ec70de2d4fb731e40",
    {"slots_processed": 0, "sifted_bits": 0, "sifted_errors": 0, "distilled_bits": 10,
     "blocks_distilled": 6, "blocks_aborted": 0, "disclosed_parities": 5687},
)


def test_slutsky_pool_and_statistics_are_pinned():
    engine = QKDProtocolEngine(EngineParameters(defense="slutsky"), DeterministicRNG(7))
    for seed in range(6):
        alice, bob = _noisy_pair(100 + seed)
        engine.distill_block(alice, bob, transmitted_pulses=500_000)
    assert tuple(stage.name for stage in engine.pipeline.stages) == ENGINE_STAGE_NAMES
    digest = hashlib.sha256()
    for block in engine.alice_pool.blocks:
        digest.update(str(block.bits).encode())
    assert engine.keys_match
    assert (digest.hexdigest(), dataclasses.asdict(engine.statistics)) == SLUTSKY_PIN


ENGINE_STAGE_NAMES = (
    "alarm.qber",
    "cascade.bicon",
    "entropy.estimate",
    "privacy.gf2n",
    "auth.wegman_carter",
    "deliver.pools",
)


def test_stage_sequences_are_pinned():
    engine = QKDProtocolEngine(EngineParameters(), DeterministicRNG(7))
    assert tuple(stage.name for stage in engine.pipeline.stages) == ENGINE_STAGE_NAMES


# ---------------------------------------------------------------------- #
# The engine's one key stream: submission, mixes and parameter variants
# ---------------------------------------------------------------------- #
#
# An engine distils its blocks in-line on one stream, one ``distill_block``
# call each.  These pin that stream beyond the four standard blocks: sixteen
# of them, an alarmed block inside a run, an unconfirmed one, two parameter
# variants and a link's partial-block flush.  Recorded at the commit where
# the stream became the only one.

#: sha256 over Alice's pool after the sixteen standard noisy blocks (seed 7);
#: its first four blocks are PINNED_POOL_DIGEST's.
PINNED_SIXTEEN_BLOCK_DIGEST = "f180d358c7d651b8a243449bd028c78abf2854ff75f827fddc0ea1260ad14821"


def _statistics(distilled, blocks_distilled, blocks_aborted, disclosed, slots=0, sifted=0, errors=0):
    return {"slots_processed": slots, "sifted_bits": sifted, "sifted_errors": errors,
            "distilled_bits": distilled, "blocks_distilled": blocks_distilled,
            "blocks_aborted": blocks_aborted, "disclosed_parities": disclosed}


def _pool_digest(blocks):
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(str(block.bits).encode())
    return digest.hexdigest()


def _workload(n_blocks):
    return [_noisy_pair(100 + seed) for seed in range(n_blocks)]


def _distill(engine, blocks):
    """Run ``blocks`` through ``engine``, 500 000 pulses each, one call per block."""
    return [engine.distill_block(alice, bob, 500_000) for alice, bob in blocks]


def test_sixteen_blocks_are_pinned():
    engine = QKDProtocolEngine(EngineParameters(), DeterministicRNG(7))
    _distill(engine, _workload(16))
    pooled = list(engine.alice_pool.blocks)
    assert engine.keys_match
    assert _pool_digest(pooled) == PINNED_SIXTEEN_BLOCK_DIGEST
    assert _pool_digest(pooled[:N_BLOCKS]) == PINNED_POOL_DIGEST
    assert dataclasses.asdict(engine.statistics) == _statistics(5925, 16, 0, 15163)
    assert engine.alice_auth.pool.available_bits == 4833


def test_alarmed_block_inside_a_run_is_pinned():
    blocks = _workload(3)
    blocks[1] = _noisy_pair(555, error_rate=0.30)
    engine = QKDProtocolEngine(EngineParameters(), DeterministicRNG(7))
    outcomes = _distill(engine, blocks)
    assert [o.abort_reason for o in outcomes] == [
        "", "QBER 30.0% exceeds abort threshold 15.0% (possible eavesdropping)", ""
    ]
    assert _pool_digest(engine.alice_pool.blocks) == (
        "e9142ec16b073e8837934cef7a11c3fb89a54453efd0b76c2add7db0e3bededf"
    )
    assert dataclasses.asdict(engine.statistics) == _statistics(749, 2, 1, 1887)
    assert engine.alice_auth.pool.available_bits == 3905
    assert engine.bob_auth.pool.available_bits == 3905


#: name -> (EngineParameters overrides, pool sha256, distilled bits)
PARAMETER_VARIANT_PINS = {
    "confidence_4_sigmas": (
        {"confidence_sigmas": 4.0},
        "fd165953b05fc89ed00cf16a5620762ad0de1bb12edef97f818720c9e4098c6d", 792,
    ),
    "randomness_testing": (
        {"randomness_testing": True},
        "c80a45964451846129c79e11ed77030f10cac80c334405f9f684fe615e5f018e", 730,
    ),
}


@pytest.mark.parametrize("variant", sorted(PARAMETER_VARIANT_PINS))
def test_parameter_variants_are_pinned(variant):
    overrides, digest, distilled = PARAMETER_VARIANT_PINS[variant]
    engine = QKDProtocolEngine(EngineParameters(**overrides), DeterministicRNG(7))
    _distill(engine, _workload(2))
    assert _pool_digest(engine.alice_pool.blocks) == digest
    assert dataclasses.asdict(engine.statistics) == _statistics(distilled, 2, 0, 1906)


def test_unconfirmed_block_is_pinned():
    """The same mix as tests/test_pipeline.py's unconfirmed-block test, which
    pins the same key and counts."""
    blocks = [
        _noisy_pair(100 + index, error_rate=rate)
        for index, rate in enumerate((0.002, 0.06, 0.002))
    ]
    cascade = CascadeParameters(block_first_pass=False, rounds=1, subsets_per_round=8)
    engine = QKDProtocolEngine(EngineParameters(cascade=cascade), DeterministicRNG(7))
    outcomes = _distill(engine, blocks)
    assert [o.abort_reason for o in outcomes] == ["", "error correction failed confirmation", ""]
    assert outcomes[1].entropy is None and outcomes[1].privacy is None
    assert _pool_digest(engine.alice_pool.blocks) == (
        "1a996fa9cd8d5c5ad12e408d9358649915edf271d4e809d2c927b1aef8fbcfcc"
    )
    assert dataclasses.asdict(engine.statistics) == _statistics(3376, 2, 1, 272)
    assert engine.alice_auth.pool.available_bits == 3937


def test_link_partial_block_flush_is_pinned():
    # 2 M slots sift 3 134 bits: one full block, then a 1 086-bit flush.
    link = QKDSystem(seed=LINK_SEED).link()
    report = link.run_slots(2_000_000)
    assert [(o.sifted_bits, o.distilled_bits) for o in report.outcomes] == [
        (2048, 266),
        (1086, 50),
    ]
    assert _pool_digest(link.engine.alice_pool.blocks) == (
        "82f2d03ecaaeeed624ba97ed87fdaf2e2270f4cfec742664b46016e78f3a98ef"
    )
    assert dataclasses.asdict(link.engine.statistics) == _statistics(
        316, 2, 0, 1574, slots=2_000_000, sifted=3134, errors=199
    )
