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

# ``sha1`` names both a submodule and its hash function.  Bound lazily, the
# first ``import repro.crypto.sha1`` anywhere would leave the module here
# instead, so the function is the one export bound up front.
from repro.crypto.sha1 import sha1  # noqa: F401
from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.crypto.aes": ("AES",),
        "repro.crypto.modes": ("cbc_decrypt", "cbc_encrypt"),
        "repro.crypto.otp": ("OneTimePad", "PadExhaustedError"),
        "repro.crypto.sha1": ("hmac_sha1", "sha1"),
        "repro.crypto.wegman_carter": ("WegmanCarterAuthenticator", "AuthenticationError"),
    },
)
