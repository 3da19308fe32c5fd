"""Block-cipher modes of operation used by the simulated IPsec stack.

IPsec ESP runs its ciphers in CBC mode with PKCS#7 padding.
"""

from __future__ import annotations

from repro.crypto.aes import AES, BLOCK_SIZE


def pkcs7_pad(data: bytes) -> bytes:
    """Pad to a whole number of AES blocks (always adds at least one byte)."""
    pad_len = BLOCK_SIZE - (len(data) % BLOCK_SIZE)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes) -> bytes:
    """Remove PKCS#7 padding, validating it."""
    if not data or len(data) % BLOCK_SIZE:
        raise ValueError("padded data must be a non-empty multiple of the block size")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > BLOCK_SIZE:
        raise ValueError("invalid padding length")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("invalid padding bytes")
    return data[:-pad_len]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


# --------------------------------------------------------------------------- #
# CBC (the classic ESP mode)
# --------------------------------------------------------------------------- #

def cbc_encrypt(cipher: AES, plaintext: bytes, iv: bytes) -> bytes:
    """Encrypt with CBC + PKCS#7 padding under the given 16-byte IV."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("the IV must be one block long")
    padded = pkcs7_pad(plaintext)
    previous = iv
    out = bytearray()
    for i in range(0, len(padded), BLOCK_SIZE):
        block = _xor_bytes(padded[i : i + BLOCK_SIZE], previous)
        encrypted = cipher.encrypt_block(block)
        out.extend(encrypted)
        previous = encrypted
    return bytes(out)


def cbc_decrypt(cipher: AES, ciphertext: bytes, iv: bytes) -> bytes:
    """Decrypt CBC + PKCS#7 under the given IV."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("the IV must be one block long")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE:
        raise ValueError("ciphertext must be a non-empty multiple of the block size")
    previous = iv
    out = bytearray()
    for i in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i : i + BLOCK_SIZE]
        decrypted = cipher.decrypt_block(block)
        out.extend(_xor_bytes(decrypted, previous))
        previous = block
    return pkcs7_unpad(bytes(out))
