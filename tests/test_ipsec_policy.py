"""Tests for IP/ESP packets, the SPD and the SAD."""

import pytest

from repro.crypto.otp import OneTimePad
from repro.ipsec.packets import ESPPacket, IPPacket
from repro.ipsec.sad import SecurityAssociation, SecurityAssociationDatabase
from repro.ipsec.spd import CipherSuite, PolicyAction, SecurityPolicy, SecurityPolicyDatabase


class TestPackets:
    def test_ip_packet_validation(self):
        packet = IPPacket("10.0.0.1", "10.0.0.2", b"payload")
        assert packet.size_bytes == len(b"payload") + 20
        with pytest.raises(ValueError):
            IPPacket("not-an-address", "10.0.0.2", b"")

    def test_esp_packet_header_bytes(self):
        esp = ESPPacket(
            spi=0x01020304,
            sequence=7,
            ciphertext=b"x" * 32,
            auth_tag=b"t" * 12,
            outer_source="1.1.1.1",
            outer_destination="2.2.2.2",
            iv=b"i" * 16,
        )
        assert esp.header_bytes() == bytes([1, 2, 3, 4, 0, 0, 0, 7])
        assert esp.size_bytes == 20 + 8 + 16 + 32 + 12


class TestSecurityPolicy:
    def test_matching(self):
        policy = SecurityPolicy("p", "10.1.0.0/16", "10.2.0.0/16")
        assert policy.matches("10.1.5.5", "10.2.9.9")
        assert not policy.matches("10.3.0.1", "10.2.0.1")
        assert not policy.matches("10.1.0.1", "10.3.0.1")

    def test_validation(self):
        with pytest.raises(ValueError):
            SecurityPolicy("p", "bad-network", "10.0.0.0/8")
        with pytest.raises(ValueError):
            SecurityPolicy("p", "10.0.0.0/8", "10.0.0.0/8", key_bits=100)
        with pytest.raises(ValueError):
            SecurityPolicy("p", "10.0.0.0/8", "10.0.0.0/8", lifetime_seconds=0)
        with pytest.raises(ValueError):
            SecurityPolicy("p", "10.0.0.0/8", "10.0.0.0/8", qkd_bits_per_rekey=0)

    def test_defaults_match_paper(self):
        policy = SecurityPolicy("p", "10.0.0.0/8", "172.16.0.0/12")
        assert policy.cipher_suite is CipherSuite.AES_QKD_RESEED
        assert policy.lifetime_seconds == 60.0  # "about once a minute"


class TestSPD:
    def _spd(self):
        spd = SecurityPolicyDatabase()
        spd.add(SecurityPolicy("protect", "10.1.0.0/16", "10.2.0.0/16"))
        spd.add(
            SecurityPolicy(
                "bypass", "192.168.0.0/16", "192.168.0.0/16", action=PolicyAction.BYPASS
            )
        )
        return spd

    def test_first_match_wins(self):
        spd = self._spd()
        spd.add(SecurityPolicy("shadow", "10.1.0.0/16", "10.2.0.0/16", action=PolicyAction.DISCARD))
        assert spd.lookup("10.1.0.1", "10.2.0.1").name == "protect"

    def test_no_match_returns_none(self):
        assert self._spd().lookup("8.8.8.8", "9.9.9.9") is None

    def test_duplicate_names_rejected(self):
        spd = self._spd()
        with pytest.raises(ValueError):
            spd.add(SecurityPolicy("protect", "10.0.0.0/8", "10.0.0.0/8"))

    def test_remove(self):
        spd = self._spd()
        spd.remove("bypass")
        assert len(spd) == 1
        with pytest.raises(KeyError):
            spd.remove("bypass")

    def test_policy_by_name(self):
        spd = self._spd()
        assert spd.policy_by_name("protect").name == "protect"
        with pytest.raises(KeyError):
            spd.policy_by_name("missing")


class TestSecurityAssociation:
    def _sa(self, **kwargs):
        defaults = dict(
            spi=0x100,
            source_gateway="a",
            destination_gateway="b",
            cipher_suite=CipherSuite.AES_QKD_RESEED,
            encryption_key=bytes(16),
            authentication_key=bytes(20),
            created_at=0.0,
            lifetime_seconds=60.0,
        )
        defaults.update(kwargs)
        return SecurityAssociation(**defaults)

    def test_sequence_numbers_increase(self):
        sa = self._sa()
        assert sa.next_sequence() == 1
        assert sa.next_sequence() == 2

    def test_anti_replay(self):
        sa = self._sa()
        assert sa.accept_sequence(1)
        assert sa.accept_sequence(3)
        assert not sa.accept_sequence(3)
        assert not sa.accept_sequence(2)

    def test_time_lifetime(self):
        sa = self._sa(lifetime_seconds=60.0)
        assert not sa.expired(now=59.0)
        assert sa.expired(now=60.0)

    def test_volume_lifetime(self):
        sa = self._sa(lifetime_kilobytes=1)
        sa.record_traffic(500)
        assert not sa.expired(now=0.0)
        sa.record_traffic(600)
        assert sa.volume_expired()
        assert sa.expired(now=0.0)

    def test_pad_exhaustion_expires_otp_sa(self):
        sa = self._sa(cipher_suite=CipherSuite.ONE_TIME_PAD, pad=OneTimePad(bytes(4)))
        assert not sa.expired(now=0.0)
        sa.pad.encrypt(b"1234")
        assert sa.pad_exhausted()
        assert sa.expired(now=0.0)

    def test_traffic_accounting(self):
        sa = self._sa()
        sa.record_traffic(100)
        sa.record_traffic(50)
        assert sa.bytes_protected == 150
        assert sa.packets_protected == 2


class TestSAD:
    def _sad_with_sas(self):
        sad = SecurityAssociationDatabase()
        for index, created in enumerate((0.0, 10.0)):
            sad.install(
                SecurityAssociation(
                    spi=0x200 + index,
                    source_gateway="a",
                    destination_gateway="b",
                    cipher_suite=CipherSuite.AES_QKD_RESEED,
                    encryption_key=bytes(16),
                    authentication_key=bytes(20),
                    created_at=created,
                    lifetime_seconds=60.0,
                    policy_name="p",
                )
            )
        return sad

    def test_install_and_lookup(self):
        sad = self._sad_with_sas()
        assert sad.lookup_spi(0x200).spi == 0x200
        assert sad.lookup_spi(0x999) is None
        assert sad.active_count == 2

    def test_duplicate_spi_rejected(self):
        sad = self._sad_with_sas()
        with pytest.raises(ValueError):
            sad.install(
                SecurityAssociation(
                    spi=0x200,
                    source_gateway="a",
                    destination_gateway="b",
                    cipher_suite=CipherSuite.AES_QKD_RESEED,
                )
            )

    def test_outbound_prefers_freshest(self):
        sad = self._sad_with_sas()
        assert sad.outbound_sa("a", "b", now=20.0).created_at == 10.0

    def test_outbound_respects_policy_filter(self):
        sad = self._sad_with_sas()
        assert sad.outbound_sa("a", "b", now=20.0, policy_name="p") is not None
        assert sad.outbound_sa("a", "b", now=20.0, policy_name="other") is None

    def test_outbound_skips_expired(self):
        sad = self._sad_with_sas()
        assert sad.outbound_sa("a", "b", now=200.0) is None

    def test_retire_and_rollover_count(self):
        sad = self._sad_with_sas()
        sad.retire(0x200)
        assert sad.active_count == 1
        assert sad.lookup_spi(0x200) is None
        expired = sad.retire_expired(now=500.0)
        assert len(expired) == 1
        assert sad.active_count == 0
