"""Symmetric cryptographic substrate for the QKD-secured VPN.

The DARPA Quantum Network uses the distilled QKD bits in two ways (paper §7):
as continually-reseeded keys for conventional symmetric ciphers (AES, 3DES)
protecting IPsec security associations, and as a Vernam one-time pad for the
most sensitive traffic.  Authentication of both the QKD protocols and the VPN
traffic uses Wegman-Carter universal hashing keyed from a shared secret pool.

Everything here is implemented from scratch (no external crypto libraries):

* :mod:`repro.crypto.aes` — AES-128/192/256 block cipher.
* :mod:`repro.crypto.modes` — CBC mode with PKCS#7 padding.
* :mod:`repro.crypto.sha1` — SHA-1 and HMAC-SHA1 (the paper's "SHA1" integrity
  primitive for conventional IPsec SAs).
* :mod:`repro.crypto.otp` — the one-time pad with an explicit pad pool.
* :mod:`repro.crypto.wegman_carter` — Wegman-Carter authentication tags built
  from Toeplitz universal hashing and one-time-pad masking.
"""

from repro.crypto.aes import AES
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.otp import OneTimePad, PadExhaustedError
from repro.crypto.sha1 import hmac_sha1, sha1
from repro.crypto.wegman_carter import WegmanCarterAuthenticator, AuthenticationError

__all__ = [
    "AES",
    "cbc_decrypt",
    "cbc_encrypt",
    "OneTimePad",
    "PadExhaustedError",
    "hmac_sha1",
    "sha1",
    "WegmanCarterAuthenticator",
    "AuthenticationError",
]
