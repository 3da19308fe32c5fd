"""The paper's quantitative claims, checked as one table.

Each row is ``Claim(claim, band, statistic, seeds, alpha)``: what the paper
says, the band its numbers allow, and the statistic that must land in it.

* **Analytic** rows evaluate the closed-form model once.
* **Protocol** rows run one seeded, deterministic scenario once, at the
  smallest size that still shows the claim.
* **Monte-Carlo** rows evaluate the statistic once per seed (``seeds``, at
  least 32) at smoke size.  A row fails only when the two-sided ``1 - alpha``
  Student-t confidence interval on the mean misses the band, so a model whose
  true mean lies in the band fails it with probability at most ``alpha``: the
  false-alarm rate each row states.  The interval must also be no wider than
  the band, so that no row passes just because its seeds scatter widely.

``HOLDS`` is the band of a yes/no statistic that must be yes.  Nothing here
is timed: E21 measures time.
"""

import functools
import math
import re
import statistics
from typing import Callable, NamedTuple, Optional, Tuple

import pytest

from repro.core.cascade import CascadeParameters, CascadeProtocol
from repro.core.engine import EngineParameters, QKDProtocolEngine
from repro.core.entropy_estimation import (
    BennettDefense,
    EntropyEstimator,
    EntropyInputs,
    SlutskyDefense,
)
from repro.core.keypool import KeyPool, KeyPoolExhaustedError
from repro.core.sifting import SiftingProtocol
from repro.eve import BeamSplittingAttack, InterceptResendAttack
from repro.ipsec import CipherSuite, GatewayPair, IPPacket, SecurityPolicy
from repro.ipsec.ike import NegotiationError
from repro.link import LinkParameters, QKDLink
from repro.mathkit.entropy import binary_entropy
from repro.network import QKDNetwork, TrustedRelayNetwork, interconnection_cost
from repro.network.switches import UntrustedSwitchNetwork
from repro.optics import model
from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.optics.fiber import OpticalPath
from repro.optics.model import DetectorParameters
from repro.sim.clock import SimClock
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.draws import sample
from tests.frames import detected, qber, sifted_errors
from tests.oracles.naive_sift import bitmap_bytes, naive_sift_message

SEEDS = tuple(range(32))
#: The false-alarm rate of every Monte-Carlo row below.
ALPHA = 1e-3
HOLDS = (True, True)
INF = math.inf


class Claim(NamedTuple):
    claim: str
    band: Tuple[float, float]
    statistic: Callable
    seeds: Tuple[int, ...] = ()
    alpha: Optional[float] = None


def _t_quantile(alpha, df):
    """Two-sided Student-t quantile (Cornish-Fisher, Abramowitz & Stegun
    26.7.5; within 1e-3 of the exact value for df >= 30 and alpha >= 1e-4)."""
    x = statistics.NormalDist().inv_cdf(1 - alpha / 2)
    terms = [
        (x**3 + x) / 4,
        (5 * x**5 + 16 * x**3 + 3 * x) / 96,
        (3 * x**7 + 19 * x**5 + 17 * x**3 - 15 * x) / 384,
    ]
    return x + sum(term / df ** (power + 1) for power, term in enumerate(terms))


def _noisy_pair(n, rate, rng):
    """A random block and a copy with exactly ``round(rate * n)`` bits flipped."""
    reference = BitString.random(n, rng)
    noisy = reference.to_list()
    for index in sample(rng, range(n), int(round(rate * n))):
        noisy[index] ^= 1
    return reference, BitString(noisy)


def _steps(values):
    return [b - a for a, b in zip(values, values[1:])]


# --------------------------------------------------------------------------- #
# Shared samples.  Monte-Carlo ones are cached per seed as plain numbers, so
# every row that reads a sample pays for it once.
# --------------------------------------------------------------------------- #

PAPER_SLOTS = 400_000  # ~640 sifted bits per seed at the operating point
ATTACK_SLOTS = 100_000


@functools.lru_cache(maxsize=None)
def paper_frame(seed):
    """The 10 km link at mu = 0.1 (E1, E2, E10 clean side, A2 weak side)."""
    frame = QuantumChannel(ChannelParameters(), DeterministicRNG(seed)).transmit(PAPER_SLOTS)
    sifted = SiftingProtocol().sift(frame)
    return frame.n_slots, detected(frame), sifted.n_sifted, qber(frame)


def _one_percent_channel():
    """E2's worked example: mu * eta = 0.0101, no receiver loss, no dark counts,
    so about 1 % of pulses are detected."""
    return ChannelParameters(
        path=OpticalPath.single_span(0.0),
        detectors=DetectorParameters(
            quantum_efficiency=0.101, dark_count_probability=0.0, receiver_loss_db=0.0
        ),
    )


@functools.lru_cache(maxsize=None)
def one_percent_frame(seed):
    frame = QuantumChannel(_one_percent_channel(), DeterministicRNG(seed)).transmit(100_000)
    return detected(frame) / frame.n_slots, 1000 * frame.n_sifted / frame.n_slots


@functools.lru_cache(maxsize=None)
def attacked_qber(seed, fraction):
    """QBER with intercept-resend of ``fraction`` of the pulses (0: no attack)."""
    attack = InterceptResendAttack(fraction) if fraction else None
    channel = QuantumChannel(ChannelParameters(), DeterministicRNG(seed))
    return qber(channel.transmit(ATTACK_SLOTS, attack=attack))


def _intercept_rise(fraction):
    """QBER added by intercept-resend, per unit of intercepted fraction."""
    return lambda seed: (attacked_qber(seed, fraction) - attacked_qber(seed, 0)) / fraction


def _smallest_attack_step(seed):
    return min(_steps([attacked_qber(seed, f) for f in (0, 0.25, 0.5, 1.0)]))


@functools.lru_cache(maxsize=None)
def pns_sample(seed):
    """(QBER added by PNS, bits PNS Eve holds per bit the estimate charges)."""
    channel = QuantumChannel(ChannelParameters(), DeterministicRNG(seed))
    tapped = channel.transmit(ATTACK_SLOTS, attack=BeamSplittingAttack())
    charge = EntropyEstimator(defense=BennettDefense()).estimate(
        EntropyInputs(
            sifted_bits=tapped.n_sifted,
            error_bits=sifted_errors(tapped),
            transmitted_pulses=tapped.n_slots,
            disclosed_parities=0,
            mean_photon_number=0.1,
        )
    ).transparent.information_bits
    added_qber = qber(tapped) - attacked_qber(seed, 0)
    return added_qber, BeamSplittingAttack.eve_known_sifted_bits(tapped) / charge


def _weak_over_entangled_sift_rate(seed):
    n_slots, _, n_sifted, _ = paper_frame(seed)
    channel = QuantumChannel(ChannelParameters.entangled_link(10.0), DeterministicRNG(seed))
    entangled = channel.transmit(PAPER_SLOTS)
    return (n_sifted / n_slots) / (entangled.n_sifted / entangled.n_slots)


def _link_sifted_rate(seed):
    return QKDLink(LinkParameters.paper_link(), DeterministicRNG(seed)).run_seconds(0.2).sifted_rate_bps


def _cascade_over_shannon(seed):
    """Parities Cascade discloses on a 2048-bit block at 6.5 % errors, over n*h(e)."""
    reference, noisy = _noisy_pair(2048, 0.065, DeterministicRNG(1000 + seed))
    result = CascadeProtocol(rng=DeterministicRNG(2000 + seed)).reconcile(
        reference, noisy, error_rate_hint=0.065
    )
    assert result.matches_reference
    return result.disclosed_parities / (2048 * binary_entropy(0.065))


# ---- E8: availability after random link failures ------------------------- #


def _point_to_point(rng):
    return QKDNetwork.point_to_point(), "alice", "bob"


def _mesh(rng):
    """Two endpoints on a five-relay ring with three chords, each endpoint
    dual-homed: "as much redundancy as desired simply by adding more links"."""
    network = QKDNetwork.relay_mesh(n_endpoints=2, n_relays=5, rng=rng)
    network.add_link("relay-1", "relay-3", 10.0)
    network.add_link("endpoint-0", "relay-2", 10.0)
    network.add_link("endpoint-1", "relay-3", 10.0)
    return network, "endpoint-0", "endpoint-1"


@functools.lru_cache(maxsize=None)
def delivers(build, failures, seed):
    """Whether a 128-bit key still crosses after ``failures`` random cuts."""
    rng = DeterministicRNG(seed)
    network, source, destination = build(rng)
    relays = TrustedRelayNetwork(network, rng.fork("relay"))
    relays.run_links_for(120.0)
    links = network.links()
    for edge in sample(rng, links, min(failures, len(links))):
        network.cut_link(*edge.endpoints())
    return relays.transport_with_reroute(source, destination, 128).success


def _mesh_minus_point_to_point(seed):
    return min(
        delivers(_mesh, k, seed) - delivers(_point_to_point, k, seed) for k in range(4)
    )


# --------------------------------------------------------------------------- #
# Deterministic scenarios, run once
# --------------------------------------------------------------------------- #


def _link_run(parameters, seed, seconds, attack=None):
    """(distilled bits/s, sifted bits/s, blocks aborted, keys match) of a link
    through the full stack."""
    link = QKDLink(parameters, DeterministicRNG(seed))
    if attack is not None:
        link.attach_attack(attack)
    report = link.run_seconds(seconds)
    return (
        report.distilled_rate_bps,
        report.sifted_rate_bps,
        report.blocks_aborted,
        link.engine.keys_match,
    )


@functools.lru_cache(maxsize=None)
def paper_link_run():
    return _link_run(LinkParameters.paper_link(), 11, 3.0)


@functools.lru_cache(maxsize=None)
def entangled_link_run():
    return _link_run(LinkParameters(channel=ChannelParameters.entangled_link(10.0)), 71, 4.0)


@functools.lru_cache(maxsize=None)
def intercepted_link_run():
    return _link_run(LinkParameters.paper_link(), 41, 1.0, InterceptResendAttack(1.0))


CASCADE_RATES = (0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.09, 0.11)


@functools.lru_cache(maxsize=None)
def cascade_sweep():
    """(rate, disclosed, disclosed / Shannon, corrected) per error rate, 2048 bits."""
    rows = []
    for rate in CASCADE_RATES:
        reference, noisy = _noisy_pair(2048, rate, DeterministicRNG(int(rate * 1000)))
        result = CascadeProtocol(rng=DeterministicRNG(7)).reconcile(
            reference, noisy, error_rate_hint=rate
        )
        shannon = 2048 * binary_entropy(rate)
        disclosed = result.disclosed_parities
        rows.append((rate, disclosed, disclosed / shannon, result.matches_reference))
    return rows


@functools.lru_cache(maxsize=None)
def cascade_run(rate, seed, **parameters):
    """(parities disclosed, fully corrected) for one 2048-bit block."""
    reference, noisy = _noisy_pair(2048, rate, DeterministicRNG(seed))
    protocol = CascadeProtocol(CascadeParameters(**parameters), DeterministicRNG(seed + 1))
    result = protocol.reconcile(reference, noisy, error_rate_hint=rate)
    return result.disclosed_parities, result.matches_reference


def block_pass_ablation():
    """A1: Cascade at 6.5 % with and without the contiguous-block first pass."""
    return (
        cascade_run(0.065, 91, block_first_pass=True),
        cascade_run(0.065, 91, block_first_pass=False, rounds=8),
    )


def subsets_ablation():
    """A1: Cascade at 6.5 % announcing 16 and 128 random subsets per round."""
    return [cascade_run(0.065, 92, subsets_per_round=n) for n in (16, 128)]


QBER_SWEEP = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.10, 0.12)


def _entropy_inputs(qber, bits=4096):
    return EntropyInputs(
        sifted_bits=bits,
        error_bits=int(round(qber * bits)),
        transmitted_pulses=bits * 300,
        disclosed_parities=int(1.35 * binary_entropy(qber) * bits) + 150,
        mean_photon_number=0.1,
    )


def _distillable(defense, qbers=QBER_SWEEP, sigmas=5.0):
    estimator = EntropyEstimator(defense=defense, confidence_sigmas=sigmas)
    return [estimator.estimate(_entropy_inputs(q)).distillable_bits for q in qbers]


def _worst_case(entangled, **inputs):
    estimator = EntropyEstimator(defense=BennettDefense(), worst_case_multiphoton=True)
    return estimator.estimate(EntropyInputs(entangled_source=entangled, mean_photon_number=0.1, **inputs))


E10_BLOCK = dict(sifted_bits=2000, error_bits=100, transmitted_pulses=600_000, disclosed_parities=700)
A2_BLOCK = dict(sifted_bits=4096, error_bits=260, transmitted_pulses=4096 * 300, disclosed_parities=1400)

# ---- E6: AES reseeding vs one-time pad ------------------------------------ #

E6_MINUTES = 10
E6_PACKETS_PER_MINUTE = 6
E6_PACKET_BYTES = 64


def _run_tunnel(cipher_suite, qkd_bits_per_rekey):
    shared = BitString.random(400_000, DeterministicRNG(21))
    alice_pool, bob_pool = KeyPool(name="alice"), KeyPool(name="bob")
    alice_pool.add_bits(shared)
    bob_pool.add_bits(shared)
    clock = SimClock()
    pair = GatewayPair(alice_pool, bob_pool, clock, DeterministicRNG(22))
    pair.add_symmetric_policy(
        SecurityPolicy(
            name="tunnel",
            source_network="10.1.0.0/16",
            destination_network="10.2.0.0/16",
            cipher_suite=cipher_suite,
            lifetime_seconds=60.0,
            qkd_bits_per_rekey=qkd_bits_per_rekey,
        )
    )
    pair.establish()
    delivered = failures = 0
    for _minute in range(E6_MINUTES):
        for _packet in range(E6_PACKETS_PER_MINUTE):
            packet = IPPacket("10.1.0.1", "10.2.0.1", bytes(E6_PACKET_BYTES))
            try:
                delivered += pair.transmit(packet) is not None
            except NegotiationError:
                failures += 1
        clock.advance(60.0)
    return {
        "delivered": delivered,
        "failures": failures,
        "bits": pair.alice.ike.qkd_bits_consumed,
        "negotiations": pair.alice.statistics.negotiations,
    }


@functools.lru_cache(maxsize=None)
def tunnels():
    """(AES rapid-reseed, one-time pad) over the same traffic; the pad tunnel
    negotiates a minute of two-way traffic plus ESP overhead per rollover."""
    per_minute_bits = E6_PACKETS_PER_MINUTE * (E6_PACKET_BYTES + 96) * 8 * 2
    return (
        _run_tunnel(CipherSuite.AES_QKD_RESEED, qkd_bits_per_rekey=1024),
        _run_tunnel(CipherSuite.ONE_TIME_PAD, qkd_bits_per_rekey=per_minute_bits),
    )


def _tunnels_deliver_everything():
    expected = E6_MINUTES * E6_PACKETS_PER_MINUTE
    return all(t["failures"] == 0 and t["delivered"] == expected for t in tunnels())


# ---- E7: the Fig 12 transcript ------------------------------------------- #

#: The event sequence visible in the paper's Fig 12 (responder side).
FIG12_EVENTS = [
    r"isakmp_ph2begin_r\(\): respond new phase 2 negotiation: 192\.1\.99\.35\[0\]<=>192\.1\.99\.34\[0\]",
    r"set_proposal_from_policy\(\): RESPONDER setting QPFS encmodesv 1",
    r"qke_create_reply\(\): reply 1 Qblocks 1024 bits 1024\.000000 entropy \(offer is 1 Qblocks\)",
    r"oakley_compute_keymat_x\(\): KEYMAT using 128 bytes QBITS",
    r"pk_recvupdate\(\): IPsec-SA established: ESP/Tunnel 192\.1\.99\.34->192\.1\.99\.35 spi=\d+\(0x[0-9a-f]+\)",
    r"pk_recvadd\(\): IPsec-SA established: ESP/Tunnel 192\.1\.99\.35->192\.1\.99\.34 spi=\d+\(0x[0-9a-f]+\)",
]


@functools.lru_cache(maxsize=None)
def fig12_exchange():
    """Bob's racoon log of the first phase-2 exchange, and the first packet through."""
    shared = BitString.random(60_000, DeterministicRNG(31))
    alice_pool, bob_pool = KeyPool(name="alice"), KeyPool(name="bob")
    alice_pool.add_bits(shared)
    bob_pool.add_bits(shared)
    pair = GatewayPair(alice_pool, bob_pool, SimClock(), DeterministicRNG(32))
    pair.add_symmetric_policy(
        SecurityPolicy(
            name="fig12",
            source_network="10.1.0.0/16",
            destination_network="10.2.0.0/16",
            qkd_bits_per_rekey=1024,
        )
    )
    pair.establish()
    delivered = pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"traffic flowed a few moments later"))
    return "\n".join(pair.bob.ike.log_lines), delivered


def _fig12_events_in_order():
    log, _ = fig12_exchange()
    matches = [re.search(pattern, log) for pattern in FIG12_EVENTS]
    positions = [match.start() for match in matches if match]
    return len(positions) == len(FIG12_EVENTS) and positions == sorted(positions)


# ---- E8: routing around a link shut down for eavesdropping ---------------- #


def _routes_around_eavesdropping():
    """A healthy transport, its second hop then marked eavesdropped: the
    rerouted transport still delivers, over another path."""
    rng = DeterministicRNG(5)
    network, source, destination = _mesh(rng)
    relays = TrustedRelayNetwork(network, rng.fork("relay"))
    relays.run_links_for(120.0)
    healthy = relays.transport_key(source, destination, 128)
    network.mark_eavesdropped(healthy.path[1], healthy.path[2])
    rerouted = relays.transport_with_reroute(source, destination, 128)
    return healthy.success and rerouted.success and rerouted.path != healthy.path


# ---- E9: untrusted switches ----------------------------------------------- #

SWITCH_COUNTS = (0, 1, 2, 3, 4, 5, 6)


def _switch_chain():
    return [UntrustedSwitchNetwork.chain(k, 5.0) for k in SWITCH_COUNTS]


def _reach_km(n_switches):
    """Longest end-to-end distance (5 km steps) over which key still flows."""
    viable = [
        km for km in range(10, 90, 5) if UntrustedSwitchNetwork.chain(n_switches, km / (n_switches + 1)).viable
    ]
    return max(viable, default=0)


def _loss_budget_error():
    return max(
        abs(r.total_loss_db - (0.2 * r.fiber_length_km + 0.5 * r.n_switches)) for r in _switch_chain()
    )


# ---- E11: the authentication pool ----------------------------------------- #


@functools.lru_cache(maxsize=None)
def auth_pool_levels():
    """Alice's authentication pool before and after each of 8 distilled blocks,
    then the pad bits her tags drew and the bits fed back."""
    engine = QKDProtocolEngine(EngineParameters(), DeterministicRNG(51))
    levels = [engine.alice_auth.pool.available_bits]
    for block in range(8):
        alice, bob = _noisy_pair(2048, 0.06, DeterministicRNG(100 + block))
        engine.distill_block(alice, bob, transmitted_pulses=600_000)
        levels.append(engine.alice_auth.pool.available_bits)
    auth = engine.alice_auth
    return levels, auth.statistics.secret_bits_consumed, auth.pool.bits_added


DOS_POOLS = (512, 1024, 2048)


@functools.lru_cache(maxsize=None)
def dos_outcome(preshared_bits):
    """Eve holds every 256-bit block at 30 % QBER: no block distills, yet each
    still pays for its authenticated exchange.  Returns (rounds survived,
    pool exhausted, bits distilled meanwhile)."""
    engine = QKDProtocolEngine(
        EngineParameters(preshared_secret_bits=preshared_bits), DeterministicRNG(52)
    )
    rng = DeterministicRNG(53)
    for rounds in range(400):
        alice, bob = _noisy_pair(256, 0.30, rng)
        try:
            engine.distill_block(alice, bob, transmitted_pulses=256 * 200)
        except KeyPoolExhaustedError:
            return rounds, True, engine.statistics.distilled_bits
    return 400, False, engine.statistics.distilled_bits


# ---- E12: run-length encoded sift messages -------------------------------- #


@functools.lru_cache(maxsize=None)
def sift_encodings():
    """(bitmap / binary RLE, binary RLE, JSON RLE, naive index bytes) at 10, 30, 50 km."""
    rows = []
    for distance in (10, 30, 50):
        frame = QuantumChannel(ChannelParameters.for_distance(distance), DeterministicRNG(61)).transmit(
            250_000
        )
        message = SiftingProtocol().build_sift_message(frame)
        binary = len(message.encode())
        rows.append(
            (bitmap_bytes(message) / binary, binary, len(message.encode_json()), len(naive_sift_message(frame)))
        )
    return rows


def _rle_bytes_per_detection_spread():
    """Largest over smallest RLE bytes per detection as the batch grows 16x."""
    channel = QuantumChannel(ChannelParameters(), DeterministicRNG(62))
    per_detection = []
    for slots in (50_000, 200_000, 800_000):
        frame = channel.transmit(slots)
        message = SiftingProtocol().build_sift_message(frame)
        per_detection.append(len(message.encode()) / max(detected(frame), 1))
    return max(per_detection) / min(per_detection)


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #

DISTANCES_KM = (0, 5, 10, 20, 30, 40, 50, 60, 70)
REACH_KM = (5, 10, 20, 30, 40, 50, 60, 70, 80)


def _secret_rates():
    return {d: QKDLink(LinkParameters(channel=ChannelParameters.for_distance(d))).estimated_secret_key_rate() for d in REACH_KM}


ANALYTIC = [
    Claim("E1: expected QBER at mu = 0.1, 1 MHz, 10 km is 6-8 %", (0.06, 0.08),
          lambda: model.expected_qber(ChannelParameters())),
    Claim("E1: sifted key rate at the operating point is O(1000) bits/s", (500, 5000),
          lambda: model.sifted_rate_per_second(ChannelParameters())),
    Claim("E1: QBER never falls along 0-70 km of fiber", (-1e-9, INF),
          lambda: min(_steps([model.expected_qber(ChannelParameters.for_distance(d))
                              for d in DISTANCES_KM]))),
    Claim("E1: the sifted rate never rises along 0-70 km", (-INF, 0),
          lambda: max(_steps([model.sifted_rate_per_second(ChannelParameters.for_distance(d))
                              for d in DISTANCES_KM]))),
    Claim("E1: QBER at 70 km is past 10 % ('up to about 70 km')", (0.10, 0.5),
          lambda: model.expected_qber(ChannelParameters.for_distance(70))),
    Claim("E4: Bennett-defense key never rises with QBER (1-12 %)", (-INF, 0),
          lambda: max(_steps(_distillable(BennettDefense())))),
    Claim("E4: Slutsky-defense key never rises with QBER (1-12 %)", (-INF, 0),
          lambda: max(_steps(_distillable(SlutskyDefense())))),
    Claim("E4: Slutsky is at least as conservative as Bennett", (-INF, 0),
          lambda: max(s - b for b, s in zip(_distillable(BennettDefense()),
                                            _distillable(SlutskyDefense())))),
    Claim("E4: Bennett still distills at the 6-8 % operating band", (1, INF),
          lambda: min(_distillable(BennettDefense(), qbers=(0.06, 0.07, 0.08)))),
    Claim("E4: Slutsky distills nothing at 12 %", (0, 0),
          lambda: _distillable(SlutskyDefense(), qbers=(0.12,))[0]),
    Claim("E4: key never rises with the confidence parameter c (0-7 sigma)", (-INF, 0),
          lambda: max(_steps([_distillable(BennettDefense(), (0.065,), c)[0]
                              for c in (0.0, 1.0, 3.0, 5.0, 7.0)]))),
    Claim("E4: c = 5 means about 1e-6 chance of successful eavesdropping", (0, 1e-5),
          lambda: EntropyEstimator(BennettDefense(), confidence_sigmas=5.0)
          .estimate(_entropy_inputs(0.065)).eavesdropping_success_probability),
    Claim("E5: the secret rate never rises along 5-80 km", (-INF, 0),
          lambda: max(_steps(list(_secret_rates().values())))),
    Claim("E5: over 50 secret bits/s at 10 km", (50, INF), lambda: _secret_rates()[10]),
    Claim("E5: no key at 80 km", (0, 0), lambda: _secret_rates()[80]),
    Claim("E5: the last distance with key is 40-75 km ('up to about 70 km')", (40, 75),
          lambda: max(d for d, rate in _secret_rates().items() if rate > 0)),
    Claim("E8: N(N-1)/2 pairwise links vs N star links, N = 2-64", HOLDS,
          lambda: all(interconnection_cost(n) == {"pairwise_links": n * (n - 1) // 2,
                                                   "star_links": n}
                      for n in (2, 4, 8, 16, 32, 64))),
    Claim("E9: every added switch cuts the key rate (5 km spans)", (-INF, -1e-12),
          lambda: max(_steps([r.secret_key_rate_bps for r in _switch_chain()]))),
    Claim("E9: loss is 0.2 dB/km plus 0.5 dB per switch", (0, 1e-6), _loss_budget_error),
    Claim("E9: reach with key never grows with switches (0, 2, 4, 6)", (-INF, 0),
          lambda: max(_steps([_reach_km(n) for n in (0, 2, 4, 6)]))),
    Claim("E9: six switches shorten the reach", (5, INF), lambda: _reach_km(0) - _reach_km(6)),
    Claim("E9: 80 km over two untrusted switches yields no key", (0, 0),
          lambda: UntrustedSwitchNetwork.chain(2, 80.0 / 3).secret_key_rate_bps),
    Claim("E9: 80 km over two trusted relays yields key", (1e-9, INF),
          lambda: QKDNetwork.estimate_link_rate(80.0 / 3)),
    Claim("E10: worst-case weak-coherent charge is over 5x the entangled one", (5, INF),
          lambda: _worst_case(False, **E10_BLOCK).transparent.information_bits
          / _worst_case(True, **E10_BLOCK).transparent.information_bits),
    Claim("E10: worst case leaves the weak-coherent block no key", (0, 0),
          lambda: _worst_case(False, **E10_BLOCK).distillable_bits),
    Claim("E10: worst case leaves the entangled block key", (1, INF),
          lambda: _worst_case(True, **E10_BLOCK).distillable_bits),
    Claim("A2: worst-case accounting of a 4096-bit block: weak-coherent keeps none", (0, 0),
          lambda: _worst_case(False, **A2_BLOCK).distillable_bits),
    Claim("A2: worst-case accounting of a 4096-bit block: entangled keeps key", (1, INF),
          lambda: _worst_case(True, **A2_BLOCK).distillable_bits),
]

PROTOCOL = [
    Claim("E3: every block of the 0.5-11 % sweep is fully corrected", HOLDS,
          lambda: all(corrected for *_, corrected in cascade_sweep())),
    Claim("E3: more errors, strictly more parities disclosed", (1, INF),
          lambda: min(_steps([disclosed for _, disclosed, _, _ in cascade_sweep()]))),
    Claim("E3: disclosure within 2x Shannon at 3-11 % errors", (0, 2.0),
          lambda: max(ratio for rate, _, ratio, _ in cascade_sweep() if rate >= 0.03)),
    Claim("E3: a 0.2 % block discloses under half an 8 % block's parities", (0, 0.5),
          lambda: cascade_run(0.002, 1)[0] / cascade_run(0.08, 2)[0]),
    Claim("E5: the full link distills key, below its sifted rate", HOLDS,
          lambda: 0 < paper_link_run()[0] < paper_link_run()[1]),
    Claim("E6: both tunnels deliver all traffic from a full store", HOLDS,
          _tunnels_deliver_everything),
    Claim("E6: the one-time pad uses over 5x the key of AES reseeding", (5, INF),
          lambda: tunnels()[1]["bits"] / tunnels()[0]["bits"]),
    Claim("E6: AES reseeding draws under the link's ~300 distilled bits/s", (0, 300),
          lambda: tunnels()[0]["bits"] / (E6_MINUTES * 60.0)),
    Claim("E6: keys roll over about once a minute", (E6_MINUTES - 1, E6_MINUTES + 1),
          lambda: tunnels()[0]["negotiations"]),
    Claim("E7: every Fig 12 event appears, in order, in the responder's log", HOLDS,
          _fig12_events_in_order),
    Claim("E7: traffic flows through the negotiated SA", HOLDS,
          lambda: fig12_exchange()[1] is not None),
    Claim("E8: a link shut down for eavesdropping is routed around", HOLDS,
          _routes_around_eavesdropping),
    Claim("E10: a fully intercepted link aborts blocks", (1, INF),
          lambda: intercepted_link_run()[2]),
    Claim("E10: a fully intercepted link distills nothing", (0, 0),
          lambda: intercepted_link_run()[0]),
    Claim("E11: distilling grows the authentication pool", (1, INF),
          lambda: auth_pool_levels()[0][-1] - auth_pool_levels()[0][0]),
    Claim("E11: replenishment outpaces tag consumption", HOLDS,
          lambda: auth_pool_levels()[2] > auth_pool_levels()[1]),
    Claim("E11: no block costs more than two 32-bit tags", (-64, INF),
          lambda: min(_steps(auth_pool_levels()[0]))),
    Claim("E11: the key-exhaustion DoS exhausts every pool, distilling nothing", HOLDS,
          lambda: all(dos_outcome(bits)[1:] == (True, 0) for bits in DOS_POOLS)),
    Claim("E11: bigger preshared pools survive the DoS strictly longer", (1, INF),
          lambda: min(_steps([dos_outcome(bits)[0] for bits in DOS_POOLS]))),
    Claim("E12: RLE beats the per-slot bitmap by over 3x", (3, INF),
          lambda: min(row[0] for row in sift_encodings())),
    Claim("E12: the RLE advantage never shrinks with distance", (0, INF),
          lambda: min(_steps([row[0] for row in sift_encodings()]))),
    Claim("E12: binary RLE < JSON RLE <= naive indices", HOLDS,
          lambda: all(binary < json_rle <= naive for _, binary, json_rle, naive in sift_encodings())),
    Claim("E12: binary RLE is over 2x tighter than JSON RLE", (2, INF),
          lambda: min(json_rle / binary for _, binary, json_rle, _ in sift_encodings())),
    Claim("E12: RLE bytes per detection stay within 2.5x as slots grow 16x", (1, 2.5),
          _rle_bytes_per_detection_spread),
    Claim("A1: Cascade corrects with and without the block first pass", HOLDS,
          lambda: all(corrected for _, corrected in block_pass_ablation())),
    Claim("A1: the block first pass discloses fewer parities", HOLDS,
          lambda: block_pass_ablation()[0][0] < block_pass_ablation()[1][0]),
    Claim("A1: with the block first pass, disclosure is under 2x Shannon", (0, 2.0),
          lambda: block_pass_ablation()[0][0] / (2048 * binary_entropy(0.065))),
    Claim("A1: Cascade corrects at 16 and 128 subsets per round", HOLDS,
          lambda: all(corrected for _, corrected in subsets_ablation())),
    Claim("A1: 16 subsets per round disclose fewer parities than 128", HOLDS,
          lambda: subsets_ablation()[0][0] < subsets_ablation()[1][0]),
    Claim("A2: both links distill matching keys", HOLDS,
          lambda: all(distilled > 0 and keys_match
                      for distilled, _, _, keys_match in (paper_link_run(), entangled_link_run()))),
]

_EXPECTED_QBER = model.expected_qber(ChannelParameters())
_SIFTED_PER_SLOT = model.sifted_rate_per_slot(ChannelParameters())

MONTE_CARLO = [
    Claim("E1: measured QBER at the operating point is 6-8 %", (0.06, 0.08),
          lambda seed: paper_frame(seed)[3], SEEDS, ALPHA),
    Claim("E1: measured QBER matches the analytic model to 1 point",
          (_EXPECTED_QBER - 0.01, _EXPECTED_QBER + 0.01),
          lambda seed: paper_frame(seed)[3], SEEDS, ALPHA),
    Claim("E2: about 1 % of pulses are detected in the worked example", (0.008, 0.012),
          lambda seed: one_percent_frame(seed)[0], SEEDS, ALPHA),
    Claim("E2: about 5 sifted bits per 1000 pulses (1 in 200)", (4.0, 6.0),
          lambda seed: one_percent_frame(seed)[1], SEEDS, ALPHA),
    Claim("E2: sifting keeps about half the detections", (0.425, 0.575),
          lambda seed: paper_frame(seed)[2] / paper_frame(seed)[1], SEEDS, ALPHA),
    Claim("E2: the real link sifts one slot in a few hundred", (1 / 2000, 1 / 100),
          lambda seed: paper_frame(seed)[2] / paper_frame(seed)[0], SEEDS, ALPHA),
    Claim("E2: the measured sift rate matches the analytic model to 15 %",
          (0.85 * _SIFTED_PER_SLOT, 1.15 * _SIFTED_PER_SLOT),
          lambda seed: paper_frame(seed)[2] / paper_frame(seed)[0], SEEDS, ALPHA),
    Claim("E5: the full link's sifted key rate is O(1000) bits/s", (500, 5000),
          _link_sifted_rate, SEEDS, ALPHA),
    Claim("E8: point-to-point delivers with no failed link", (1, 1),
          lambda seed: delivers(_point_to_point, 0, seed), SEEDS, ALPHA),
    Claim("E8: point-to-point never delivers after one failed link", (0, 0),
          lambda seed: delivers(_point_to_point, 1, seed), SEEDS, ALPHA),
    Claim("E8: the mesh delivers with no failed link", (1, 1),
          lambda seed: delivers(_mesh, 0, seed), SEEDS, ALPHA),
    Claim("E8: mesh availability after one failed link", (0.9, 1.0),
          lambda seed: delivers(_mesh, 1, seed), SEEDS, ALPHA),
    Claim("E8: mesh availability after three failed links", (0.5, 1.0),
          lambda seed: delivers(_mesh, 3, seed), SEEDS, ALPHA),
    Claim("E8: the mesh never does worse than point-to-point (0-3 failures)", (0, 1),
          _mesh_minus_point_to_point, SEEDS, ALPHA),
    Claim("E10: intercepting 25 % adds about 25 % of that to the QBER", (0.15, 0.35),
          _intercept_rise(0.25), SEEDS, ALPHA),
    Claim("E10: intercepting 50 % adds about 25 % of that to the QBER", (0.15, 0.35),
          _intercept_rise(0.5), SEEDS, ALPHA),
    Claim("E10: intercepting 100 % adds about 25 % of that to the QBER", (0.15, 0.35),
          _intercept_rise(1.0), SEEDS, ALPHA),
    Claim("E10: QBER rises with the intercepted fraction (0, 25, 50, 100 %)", (0, INF),
          _smallest_attack_step, SEEDS, ALPHA),
    Claim("E10: full intercept-resend QBER is over 22 %", (0.22, 0.5),
          lambda seed: attacked_qber(seed, 1.0), SEEDS, ALPHA),
    Claim("E10: photon-number splitting adds no QBER", (-0.02, 0.02),
          lambda seed: pns_sample(seed)[0], SEEDS, ALPHA),
    Claim("E10: the multi-photon charge covers what PNS Eve holds (within 1.25x)", (0, 1.25),
          lambda seed: pns_sample(seed)[1], SEEDS, ALPHA),
    # The bound is recorded from SEEDS: 1.33-1.47x Shannon, mean 1.39x.
    Claim("A1: Cascade discloses at most 1.5x Shannon at 6.5 % errors", (1.0, 1.5),
          _cascade_over_shannon, SEEDS, ALPHA),
    Claim("A2: the weak-coherent link sifts faster than the entangled link", (1, INF),
          _weak_over_entangled_sift_rate, SEEDS, ALPHA),
]


def _in_band(value, band):
    low, high = band
    return low <= value <= high


@pytest.mark.parametrize("row", ANALYTIC + PROTOCOL, ids=lambda row: row.claim)
def test_claim(row):
    value = row.statistic()
    assert _in_band(value, row.band), f"{row.claim}: {value!r} outside {row.band}"


@pytest.mark.parametrize("row", MONTE_CARLO, ids=lambda row: row.claim)
def test_monte_carlo_claim(row):
    assert len(row.seeds) >= 32 and row.alpha is not None
    values = [float(row.statistic(seed)) for seed in row.seeds]
    mean = statistics.fmean(values)
    half_width = _t_quantile(row.alpha, len(values) - 1) * statistics.stdev(values) / math.sqrt(len(values))
    low, high = row.band
    assert mean + half_width >= low and mean - half_width <= high, (
        f"{row.claim}: the {1 - row.alpha:.1%} interval {mean:.4g} +- {half_width:.2g} misses {row.band}"
    )
    assert 2 * half_width <= high - low, (
        f"{row.claim}: the interval {mean:.4g} +- {half_width:.2g} is wider than the band {row.band}"
    )
