"""Tests for the IKE daemon with QKD extensions, ESP processing and the VPN gateways."""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.core.engine import QKDProtocolEngine
from repro.core.keypool import KeyPool
from repro.crypto.otp import OneTimePad
from repro.crypto.sha1 import prf_expand
from repro.ipsec import ike
from repro.ipsec.esp import EspError, EspProcessor
from repro.ipsec.gateway import GatewayPair, VPNGateway
from repro.ipsec.ike import (
    QBLOCK_BITS,
    IKEConfig,
    IKEDaemon,
    NegotiationError,
    NegotiationTimeout,
)
from repro.ipsec.packets import IPPacket
from repro.ipsec.sad import SecurityAssociation, SecurityAssociationDatabase
from repro.ipsec.spd import CipherSuite, PolicyAction, SecurityPolicy
from repro.sim.clock import SimClock
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.draws import sample


def synced_pools(bits: int = 60_000, seed: int = 50):
    shared = BitString.random(bits, DeterministicRNG(seed))
    alice = KeyPool(name="alice")
    bob = KeyPool(name="bob")
    alice.add_bits(shared)
    bob.add_bits(shared)
    return alice, bob


def make_daemons(alice_pool=None, bob_pool=None, **config_overrides):
    if alice_pool is None:
        alice_pool, bob_pool = synced_pools()
    alice = IKEDaemon(
        IKEConfig("alice-gw", "192.1.99.34", "192.1.99.35", **config_overrides),
        alice_pool,
        SecurityAssociationDatabase(),
        DeterministicRNG(1),
    )
    bob = IKEDaemon(
        IKEConfig("bob-gw", "192.1.99.35", "192.1.99.34", **config_overrides),
        bob_pool,
        SecurityAssociationDatabase(),
        DeterministicRNG(2),
    )
    return alice, bob


AES_POLICY = SecurityPolicy("enclave", "10.1.0.0/16", "10.2.0.0/16")
OTP_POLICY = SecurityPolicy(
    "pad", "10.3.0.0/16", "10.4.0.0/16",
    cipher_suite=CipherSuite.ONE_TIME_PAD, qkd_bits_per_rekey=8192,
)


class TestPhase1:
    def test_establishes_shared_state(self):
        alice, bob = make_daemons()
        state = alice.establish_phase1(bob)
        assert alice.phase1 is bob.phase1 is state
        assert any("ISAKMP-SA established" in line for line in alice.log_lines)

    def test_mismatched_preshared_keys_fail(self):
        alice, _ = make_daemons()
        _, bob = make_daemons(preshared_key=b"different")
        with pytest.raises(NegotiationError):
            alice.establish_phase1(bob)

    def test_phase2_requires_phase1(self):
        alice, bob = make_daemons()
        with pytest.raises(NegotiationError):
            alice.negotiate_phase2(bob, AES_POLICY)


class TestPhase2Qkd:
    def test_qblock_accounting(self):
        alice_pool, bob_pool = synced_pools()
        alice, bob = make_daemons(alice_pool, bob_pool)
        alice.establish_phase1(bob)
        before = alice_pool.available_bits
        alice.negotiate_phase2(bob, AES_POLICY)
        assert alice_pool.available_bits == before - QBLOCK_BITS
        assert bob_pool.available_bits == before - QBLOCK_BITS
        negotiation = alice.last_negotiation
        assert negotiation.granted_qblocks == 1
        assert negotiation.qkd_bits_used == QBLOCK_BITS

    def test_each_negotiation_takes_a_fresh_increasing_id(self):
        alice_pool, bob_pool = synced_pools()
        alice, bob = make_daemons(alice_pool, bob_pool)
        alice.establish_phase1(bob)
        first, _ = alice.negotiate_phase2(bob, AES_POLICY)
        second, _ = alice.negotiate_phase2(bob, AES_POLICY)
        assert first.negotiation_id < second.negotiation_id
        assert alice.last_negotiation.negotiation_id == second.negotiation_id

    def test_both_ends_derive_identical_keymat(self):
        alice_pool, bob_pool = synced_pools()
        alice, bob = make_daemons(alice_pool, bob_pool)
        alice.establish_phase1(bob)
        outbound_local, inbound_local = alice.negotiate_phase2(bob, AES_POLICY)
        outbound_peer = bob.sad.lookup_spi(outbound_local.spi)
        assert outbound_peer.encryption_key == outbound_local.encryption_key
        assert outbound_peer.authentication_key == outbound_local.authentication_key

    def test_diverged_pools_cause_silent_key_mismatch(self):
        """The IKE blind spot the paper warns about: nothing notices at negotiation time."""
        alice_pool, _ = synced_pools(seed=60)
        _, bob_pool = synced_pools(seed=61)  # deliberately different key material
        alice, bob = make_daemons(alice_pool, bob_pool)
        alice.establish_phase1(bob)
        outbound_local, _ = alice.negotiate_phase2(bob, AES_POLICY)
        outbound_peer = bob.sad.lookup_spi(outbound_local.spi)
        assert outbound_peer.encryption_key != outbound_local.encryption_key

    def test_otp_negotiation_builds_pads(self):
        alice_pool, bob_pool = synced_pools()
        alice, bob = make_daemons(alice_pool, bob_pool)
        alice.establish_phase1(bob)
        outbound, inbound = alice.negotiate_phase2(bob, OTP_POLICY)
        assert outbound.pad is not None and inbound.pad is not None
        assert outbound.pad.available_bytes > 0
        # The two directions' pads must be disjoint key material.
        assert outbound.pad.peek(8) != inbound.pad.peek(8)
        assert alice_pool.available_bits == bob_pool.available_bits

    def test_timeout_when_the_pools_are_short(self):
        alice_pool = KeyPool(name="alice")
        bob_pool = KeyPool(name="bob")
        alice, bob = make_daemons(alice_pool, bob_pool)
        alice.establish_phase1(bob)
        with pytest.raises(NegotiationTimeout):
            alice.negotiate_phase2(bob, AES_POLICY)
        assert alice.last_negotiation.timed_out

    def test_fast_key_supply_avoids_timeout(self):
        alice_pool = KeyPool(name="alice")
        bob_pool = KeyPool(name="bob")
        shared = BitString.random(QBLOCK_BITS, DeterministicRNG(70))
        alice_pool.add_bits(shared)
        bob_pool.add_bits(shared)
        alice, bob = make_daemons(alice_pool, bob_pool)
        alice.establish_phase1(bob)
        # Enough key is already on hand: no waiting needed.
        alice.negotiate_phase2(bob, AES_POLICY)

    def test_classical_suite_uses_no_qkd(self):
        alice_pool, bob_pool = synced_pools()
        alice, bob = make_daemons(alice_pool, bob_pool)
        alice.establish_phase1(bob)
        classical = SecurityPolicy(
            "legacy", "10.9.0.0/16", "10.8.0.0/16", cipher_suite=CipherSuite.AES_CLASSICAL
        )
        before = alice_pool.available_bits
        alice.negotiate_phase2(bob, classical)
        assert alice_pool.available_bits == before
        assert alice.qkd_bits_consumed == 0


#: Phase-2 output of ``make_daemons()`` negotiating AES_POLICY then OTP_POLICY,
#: recorded from the from-scratch per-call SHA-1 at commit d191fdd:
#: ``{pools: {policy: {sa: (encryption_key hex, authentication_key hex)}}}``.
PINNED_SKEYID = "96524c01728e6d78ad2bca9b1b64eade91b7edcd"
PINNED_SPIS = {"enclave": (52895214, 248514594), "pad": (52946904, 248531082)}
PINNED_SA_KEYS = {
    "synchronised": {
        "enclave": {
            "out_local": ("3593b0401f4728b8af105b6ef15c9ffb", "bfb3b9fd05cb75fbf048dc579bccc5d9599fe942"),
            "in_local": ("b8a03a3492a8444d64396e5429733ed3", "5bc6011ede3da663e221d683359925cb2080e0ba"),
            "out_peer": ("3593b0401f4728b8af105b6ef15c9ffb", "bfb3b9fd05cb75fbf048dc579bccc5d9599fe942"),
            "in_peer": ("b8a03a3492a8444d64396e5429733ed3", "5bc6011ede3da663e221d683359925cb2080e0ba"),
        },
        "pad": {
            "out_local": ("492c7e3b207cf49161deea4e94ef9bc9", "492c7e3b207cf49161deea4e94ef9bc942d189ec"),
            "in_local": ("cbeb8be9ddc6865a2da4c10b296177a6", "cbeb8be9ddc6865a2da4c10b296177a60b380ad7"),
            "out_peer": ("492c7e3b207cf49161deea4e94ef9bc9", "492c7e3b207cf49161deea4e94ef9bc942d189ec"),
            "in_peer": ("cbeb8be9ddc6865a2da4c10b296177a6", "cbeb8be9ddc6865a2da4c10b296177a60b380ad7"),
        },
    },
    "diverged": {
        "enclave": {
            "out_local": ("066e5e9942f2669d8e7c78343dce0f72", "e9fe062ac3a151c4a0bbd0682eeaea4681ce4157"),
            "in_local": ("0eb33ddf50276e0f09fbb60ab280aa22", "9850d2d583f7d5fec8233aba89f283c0e7346221"),
            "out_peer": ("2081d464bdca2b28b6f5c371f267fb86", "cae2d524fb52bc9e600f8b8df39fd9bf7fd87b35"),
            "in_peer": ("dbcf69da0e9b5fed980bb130d19ff8fa", "5227de94bea575143ab209bb67e546f69d0e13f3"),
        },
        "pad": {
            "out_local": ("2e269c53df1df586b6de9917d0ea88e6", "2e269c53df1df586b6de9917d0ea88e64e872cfa"),
            "in_local": ("1a0c3146b8450f1b70b3604fb703e501", "1a0c3146b8450f1b70b3604fb703e501419ca4c6"),
            "out_peer": ("5b33235a622f823d8d1d7edebbf8d63c", "5b33235a622f823d8d1d7edebbf8d63cf9f6c07f"),
            "in_peer": ("1108585eb9ee3b911d4256be2bc58e76", "1108585eb9ee3b911d4256be2bc58e76dc5acf64"),
        },
    },
}
#: ``prf_expand(bytes(range(20)), bytes(range(164)), n)`` — the key and seed
#: sizes of one KEYMAT derivation; every shorter output is a prefix of this.
PINNED_PRF_52 = (
    "e5163b1a2f7f5d3539cf35c5c19025e14ea540178481b0f4d1db6fdb5da8990d80ec002c"
    "00669d7e00bc6caf8098697195c4115f"
)
#: ICVs of a 0-, 5- and 1500-byte payload, in that order under one SA of
#: ``TestEspProcessor._sa_pair``, recorded at commit 6cf2222 where every
#: packet keyed its own ``hmac_sha1``.
PINNED_ESP_TAGS = {
    "aes-qkd-reseed": ["6a065212873453866d802a45", "da3828a6295c050b71de2a66", "8f7190ed0ba2fb69fc14fb9d"],
    "one-time-pad": ["1285653d9ee339096cf66b2b", "34ff6e5935a5bbfe0060563c", "d6aa4a72a5aa71b02f5a4227"],
}


class TestPinnedKeymat:
    """Literal key bytes, so a change to SHA-1, HMAC, prf+ or the derivation
    order inside ``negotiate_phase2`` cannot move an SA key unnoticed."""

    @pytest.mark.parametrize("pools", ["synchronised", "diverged"])
    def test_phase2_sa_keys(self, pools):
        if pools == "synchronised":
            alice_pool, bob_pool = synced_pools()
        else:
            alice_pool, _ = synced_pools(seed=60)
            _, bob_pool = synced_pools(seed=61)
        alice, bob = make_daemons(alice_pool, bob_pool)
        assert alice.establish_phase1(bob).skeyid.hex() == PINNED_SKEYID
        for policy in (AES_POLICY, OTP_POLICY):
            out_local, in_local = alice.negotiate_phase2(bob, policy)
            assert (out_local.spi, in_local.spi) == PINNED_SPIS[policy.name]
            installed = {
                "out_local": out_local,
                "in_local": in_local,
                "out_peer": bob.sad.lookup_spi(out_local.spi),
                "in_peer": bob.sad.lookup_spi(in_local.spi),
            }
            keys = {
                name: (sa.encryption_key.hex(), sa.authentication_key.hex())
                for name, sa in installed.items()
            }
            assert keys == PINNED_SA_KEYS[pools][policy.name]
            if pools == "diverged":
                assert keys["out_local"] != keys["out_peer"]
                assert keys["in_local"] != keys["in_peer"]

    def test_phase2_sa_keys_when_the_two_skeyids_differ(self):
        """Synchronised pools, but the peer's phase 1 state holds another
        SKEYID: the local pair is the synchronised one, the peer's is its own."""
        alice, bob = make_daemons()
        state = alice.establish_phase1(bob)
        bob.phase1 = dataclasses.replace(state, skeyid=bytes(range(20)))
        out_local, in_local = alice.negotiate_phase2(bob, AES_POLICY)
        keys = {
            name: (sa.encryption_key.hex(), sa.authentication_key.hex())
            for name, sa in (
                ("out_local", out_local),
                ("in_local", in_local),
                ("out_peer", bob.sad.lookup_spi(out_local.spi)),
                ("in_peer", bob.sad.lookup_spi(in_local.spi)),
            )
        }
        synchronised = PINNED_SA_KEYS["synchronised"]["enclave"]
        assert keys == {
            "out_local": synchronised["out_local"],
            "in_local": synchronised["in_local"],
            "out_peer": ("36f083c48a8567d1732559bfeb5be9dd", "53980a9e849967bf71d740b6c9b72fee3209b218"),
            "in_peer": ("47a070f96c946c67ea4c7cea649626ff", "703a60252b31ebdf2e5a8525519f54f8a40c4a44"),
        }

    @pytest.mark.parametrize("length", [0, 1, 20, 21, 36, 52])
    def test_prf_expand_outputs(self, length):
        output = prf_expand(bytes(range(20)), bytes(range(164)), length)
        assert output.hex() == PINNED_PRF_52[: 2 * length]


class TestEspProcessor:
    def _sa_pair(self, suite=CipherSuite.AES_QKD_RESEED):
        pad_material = bytes(range(256)) * 8
        sender_pad = OneTimePad(pad_material) if suite is CipherSuite.ONE_TIME_PAD else None
        receiver_pad = OneTimePad(pad_material) if suite is CipherSuite.ONE_TIME_PAD else None
        common = dict(
            spi=0x300,
            source_gateway="a",
            destination_gateway="b",
            cipher_suite=suite,
            encryption_key=bytes(range(16)),
            authentication_key=bytes(range(20)),
            lifetime_seconds=60.0,
        )
        return (
            SecurityAssociation(pad=sender_pad, **common),
            SecurityAssociation(pad=receiver_pad, **common),
        )

    def test_aes_roundtrip(self):
        esp = EspProcessor(DeterministicRNG(3))
        sender_sa, receiver_sa = self._sa_pair()
        packet = IPPacket("10.1.0.1", "10.2.0.1", b"hello", protocol="udp", identifier=5)
        wire = esp.encapsulate(packet, sender_sa, "1.1.1.1", "2.2.2.2")
        restored = esp.decapsulate(wire, receiver_sa)
        assert restored.payload == packet.payload
        assert restored.source == packet.source
        assert restored.protocol == "udp"

    def test_otp_roundtrip(self):
        esp = EspProcessor(DeterministicRNG(4))
        sender_sa, receiver_sa = self._sa_pair(CipherSuite.ONE_TIME_PAD)
        packet = IPPacket("10.3.0.1", "10.4.0.1", b"top secret")
        wire = esp.encapsulate(packet, sender_sa, "1.1.1.1", "2.2.2.2")
        assert wire.iv == b""
        assert esp.decapsulate(wire, receiver_sa).payload == b"top secret"

    def test_ciphertext_hides_plaintext(self):
        esp = EspProcessor(DeterministicRNG(5))
        sender_sa, _ = self._sa_pair()
        wire = esp.encapsulate(IPPacket("10.1.0.1", "10.2.0.1", b"A" * 64), sender_sa, "1.1.1.1", "2.2.2.2")
        assert b"A" * 16 not in wire.ciphertext

    def test_corrupted_packet_rejected(self):
        esp = EspProcessor(DeterministicRNG(6))
        sender_sa, receiver_sa = self._sa_pair()
        wire = esp.encapsulate(IPPacket("10.1.0.1", "10.2.0.1", b"data"), sender_sa, "1.1.1.1", "2.2.2.2")
        wire.ciphertext = b"\x00" + wire.ciphertext[1:]
        with pytest.raises(EspError):
            esp.decapsulate(wire, receiver_sa)
        assert esp.authentication_failures == 1

    def test_wrong_key_rejected(self):
        esp = EspProcessor(DeterministicRNG(7))
        sender_sa, receiver_sa = self._sa_pair()
        receiver_sa.authentication_key = bytes(20)
        wire = esp.encapsulate(IPPacket("10.1.0.1", "10.2.0.1", b"data"), sender_sa, "1.1.1.1", "2.2.2.2")
        with pytest.raises(EspError):
            esp.decapsulate(wire, receiver_sa)

    def test_replay_rejected(self):
        esp = EspProcessor(DeterministicRNG(8))
        sender_sa, receiver_sa = self._sa_pair()
        wire = esp.encapsulate(IPPacket("10.1.0.1", "10.2.0.1", b"data"), sender_sa, "1.1.1.1", "2.2.2.2")
        esp.decapsulate(wire, receiver_sa)
        with pytest.raises(EspError):
            esp.decapsulate(wire, receiver_sa)
        assert esp.replay_rejections == 1

    def test_pad_exhaustion_raises(self):
        esp = EspProcessor(DeterministicRNG(9))
        sender_sa, _ = self._sa_pair(CipherSuite.ONE_TIME_PAD)
        sender_sa.pad = OneTimePad(bytes(4))
        with pytest.raises(EspError):
            esp.encapsulate(IPPacket("10.3.0.1", "10.4.0.1", b"much too long"), sender_sa, "1.1.1.1", "2.2.2.2")

    @pytest.mark.parametrize(
        "forge",
        [
            lambda tag: bytes([tag[0] ^ 1]) + tag[1:],
            lambda tag: tag[:-1] + bytes([tag[-1] ^ 0x80]),
            lambda tag: tag[:-1],
            lambda tag: b"",
            lambda tag: tag + b"\x00",
        ],
        ids=["first-byte", "last-bit", "truncated", "empty", "extended"],
    )
    def test_forged_tag_rejected_and_counted(self, forge):
        esp = EspProcessor(DeterministicRNG(10))
        sender_sa, receiver_sa = self._sa_pair()
        wire = esp.encapsulate(IPPacket("10.1.0.1", "10.2.0.1", b"data"), sender_sa, "1.1.1.1", "2.2.2.2")
        genuine = wire.auth_tag
        wire.auth_tag = forge(genuine)
        with pytest.raises(EspError, match="integrity check failed"):
            esp.decapsulate(wire, receiver_sa)
        assert esp.authentication_failures == 1
        assert receiver_sa.highest_received_sequence == 0
        # The failed check consumed nothing: the genuine tag still verifies.
        wire.auth_tag = genuine
        assert esp.decapsulate(wire, receiver_sa).payload == b"data"
        assert esp.authentication_failures == 1

    def test_tags_are_pinned_packet_after_packet(self):
        """The ICV bytes of three packets per suite under one SA, as literals:
        how the SA holds its HMAC key must not show on the wire."""
        tags = {}
        for suite in (CipherSuite.AES_QKD_RESEED, CipherSuite.ONE_TIME_PAD):
            esp = EspProcessor(DeterministicRNG(11))
            sender_sa, receiver_sa = self._sa_pair(suite)
            tags[suite.value] = []
            for size in (0, 5, 1500):
                packet = IPPacket("10.1.0.1", "10.2.0.1", (bytes(range(256)) * 6)[:size])
                wire = esp.encapsulate(packet, sender_sa, "1.1.1.1", "2.2.2.2")
                assert esp.decapsulate(wire, receiver_sa).payload == packet.payload
                tags[suite.value].append(wire.auth_tag.hex())
        assert tags == PINNED_ESP_TAGS


class TestGatewayPair:
    def _pair(self, key_bits=80_000):
        alice_pool, bob_pool = synced_pools(key_bits, seed=80)
        clock = SimClock()
        pair = GatewayPair(alice_pool, bob_pool, clock, DeterministicRNG(81))
        pair.add_symmetric_policy(AES_POLICY)
        pair.add_symmetric_policy(OTP_POLICY)
        pair.establish()
        return pair, clock

    def test_bidirectional_traffic(self):
        pair, _ = self._pair()
        assert pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"to bob")).payload == b"to bob"
        assert pair.transmit(
            IPPacket("10.2.0.1", "10.1.0.1", b"to alice"), from_alice=False
        ).payload == b"to alice"

    def test_policy_actions(self):
        pair, _ = self._pair()
        pair.alice.add_policy(
            SecurityPolicy("drop", "172.16.0.0/16", "172.17.0.0/16", action=PolicyAction.DISCARD)
        )
        assert pair.alice.send(IPPacket("172.16.0.1", "172.17.0.1", b"nope")) is None
        assert pair.alice.statistics.packets_discarded == 1
        # No policy at all is also a discard.
        assert pair.alice.send(IPPacket("8.8.8.8", "9.9.9.9", b"nope")) is None

    def test_rollover_after_lifetime(self):
        pair, clock = self._pair()
        pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"first"))
        negotiations_before = pair.alice.statistics.negotiations
        clock.advance(61.0)
        delivered = pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"after rollover"))
        assert delivered.payload == b"after rollover"
        assert pair.alice.statistics.negotiations == negotiations_before + 1

    def test_each_rekey_consumes_fresh_qkd_bits(self):
        pair, clock = self._pair()
        consumed = []
        for _ in range(3):
            pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"tick"))
            consumed.append(pair.alice.ike.qkd_bits_consumed)
            clock.advance(61.0)
        assert consumed[2] > consumed[1] > consumed[0]

    def test_otp_tunnel_roundtrip_and_key_use(self):
        pair, _ = self._pair()
        pool_before = pair.alice.key_pool.available_bits
        delivered = pair.transmit(IPPacket("10.3.0.1", "10.4.0.1", b"pad-protected"))
        assert delivered.payload == b"pad-protected"
        assert pair.alice.key_pool.available_bits <= pool_before - OTP_POLICY.qkd_bits_per_rekey

    def test_key_exhaustion_blocks_negotiation(self):
        pair, clock = self._pair(key_bits=1536)  # enough for one rekey only
        pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"ok"))
        clock.advance(61.0)
        with pytest.raises(NegotiationTimeout):
            pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"starved"))
        assert pair.alice.statistics.negotiation_failures >= 1

    def test_combined_log_contains_both_gateways(self):
        pair, _ = self._pair()
        pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"x"))
        log = "\n".join(pair.alice.ike.log_lines + pair.bob.ike.log_lines)
        assert "alice-gw racoon" in log
        assert "bob-gw racoon" in log

    def test_rekey_now_without_a_peer_refuses_before_touching_state(self):
        alice_pool, _ = synced_pools(4096, seed=82)
        gateway = VPNGateway("solo-gw", "192.1.99.40", "192.1.99.41", alice_pool)
        gateway.add_policy(AES_POLICY)
        sa = SecurityAssociation(
            spi=0x500,
            source_gateway="solo-gw",
            destination_gateway="far-gw",
            cipher_suite=CipherSuite.AES_QKD_RESEED,
            policy_name=AES_POLICY.name,
        )
        gateway.sad.install(sa)
        before = dataclasses.asdict(gateway.statistics)
        with pytest.raises(RuntimeError, match="no peer connected"):
            gateway.rekey_now(AES_POLICY.name)
        assert gateway.sad.lookup_spi(0x500) is sa
        assert dataclasses.asdict(gateway.statistics) == before
        assert gateway.ike.qkd_bits_consumed == 0
        assert alice_pool.available_bits == 4096

    def test_ten_times_the_traffic_and_rekeys_take_no_more_memory(self, monkeypatch):
        """A tunnel that keeps running keeps its memory: nothing the pair,
        its gateways or their daemons hold grows with packets sent or SAs
        rolled over.  The racoon logs rotate at four lines here, so one
        rekey fills them (it logs at least four on each side).  Sized for
        about two seconds: traced, a rekey and a send cost ~0.13 s on a
        2-vCPU runner."""
        monkeypatch.setattr(ike, "LOG_LINES_KEPT", 4)

        def run(pair, rekeys):
            for index in range(rekeys):
                pair.alice.rekey_now(AES_POLICY.name)
                assert pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"%d" % index))

        def grown(rekeys):
            pair, _ = self._pair()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                run(pair, rekeys)
                gc.collect()  # a full collection empties the free lists
                return tracemalloc.get_traced_memory()[0] - before, pair
            finally:
                tracemalloc.stop()

        run(self._pair()[0], 1)  # first-call allocations (caches, interned objects)
        small, few = grown(1)
        large, many = grown(10)
        assert len(few.bob.ike.log_lines) == len(many.bob.ike.log_lines) == 4
        assert few.alice.statistics.negotiations == 1
        assert many.alice.statistics.negotiations == 10
        assert many.bob.statistics.packets_received == 10
        # ~1 kB of the difference is structural: a rotating log's deque
        # block and the SAD's dict resizes.  Each packet kept would be
        # ~300 B more, and each rekey's records ~5 kB.
        assert large <= small + 2048


def _distilling_engine(n_blocks=4):
    """An engine that has distilled ``n_blocks`` 6 % blocks into its pools."""
    engine = QKDProtocolEngine(rng=DeterministicRNG(7))
    for seed in range(n_blocks):
        rng = DeterministicRNG(100 + seed)
        alice = BitString.random(2048, rng)
        bob = alice.to_list()
        for index in sample(rng, range(2048), 123):
            bob[index] ^= 1
        engine.distill_block(alice, BitString(bob), transmitted_pulses=500_000)
    return engine


class TestGatewayFromEngine:
    def test_gateways_key_their_tunnel_from_the_engines_pools(self):
        engine = _distilling_engine()
        pair = GatewayPair.from_engine(engine, SimClock(), DeterministicRNG(81))
        assert pair.alice.key_pool is engine.alice_pool
        assert pair.bob.key_pool is engine.bob_pool
        distilled = engine.alice_pool.available_bits
        pair.add_symmetric_policy(AES_POLICY)
        pair.establish()
        delivered = pair.transmit(IPPacket("10.1.0.1", "10.2.0.1", b"over distilled key"))
        assert delivered.payload == b"over distilled key"
        consumed = pair.alice.ike.qkd_bits_consumed
        assert consumed > 0
        assert engine.alice_pool.available_bits == distilled - consumed
        assert engine.bob_pool.available_bits == engine.alice_pool.available_bits

    def test_names_and_addresses_reach_the_gateways(self):
        pair = GatewayPair.from_engine(
            _distilling_engine(n_blocks=0),
            alice_name="west-gw",
            bob_name="east-gw",
            alice_address="192.1.98.34",
            bob_address="192.1.98.35",
        )
        assert (pair.alice.name, pair.alice.address, pair.alice.peer_address) == (
            "west-gw", "192.1.98.34", "192.1.98.35"
        )
        assert (pair.bob.name, pair.bob.address, pair.bob.peer_address) == (
            "east-gw", "192.1.98.35", "192.1.98.34"
        )
