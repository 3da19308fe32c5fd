"""Block-cipher modes of operation used by the simulated IPsec stack.

IPsec ESP traditionally runs its ciphers in CBC mode; CTR mode is provided as
well because the VPN gateway's rapid-reseed extension prefers a mode that
needs no padding and whose keystream length can be accounted against the QKD
key budget precisely.  PKCS#7 padding is implemented for CBC/ECB.
"""

from __future__ import annotations

from repro.crypto.aes import AES, BLOCK_SIZE


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Pad to a whole number of blocks (always adds at least one byte)."""
    if block_size <= 0 or block_size > 255:
        raise ValueError("block size must be in [1, 255]")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Remove PKCS#7 padding, validating it."""
    if not data or len(data) % block_size:
        raise ValueError("padded data must be a non-empty multiple of the block size")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise ValueError("invalid padding length")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("invalid padding bytes")
    return data[:-pad_len]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


# --------------------------------------------------------------------------- #
# ECB (used only for tests and key-schedule validation — never for traffic)
# --------------------------------------------------------------------------- #

def ecb_encrypt(cipher: AES, plaintext: bytes) -> bytes:
    """Encrypt with ECB + PKCS#7 padding.  For test vectors only."""
    padded = pkcs7_pad(plaintext)
    blocks = [
        cipher.encrypt_block(padded[i : i + BLOCK_SIZE])
        for i in range(0, len(padded), BLOCK_SIZE)
    ]
    return b"".join(blocks)


def ecb_decrypt(cipher: AES, ciphertext: bytes) -> bytes:
    """Decrypt ECB + PKCS#7."""
    if len(ciphertext) % BLOCK_SIZE:
        raise ValueError("ciphertext must be a multiple of the block size")
    blocks = [
        cipher.decrypt_block(ciphertext[i : i + BLOCK_SIZE])
        for i in range(0, len(ciphertext), BLOCK_SIZE)
    ]
    return pkcs7_unpad(b"".join(blocks))


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


# --------------------------------------------------------------------------- #
# CTR (rapid-reseed mode; no padding, symmetric transform)
# --------------------------------------------------------------------------- #

def ctr_keystream(cipher: AES, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes for an 8-byte nonce."""
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes (the counter fills the rest)")
    if length < 0:
        raise ValueError("length must be non-negative")
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = nonce + counter.to_bytes(8, "big")
        out.extend(cipher.encrypt_block(block))
        counter += 1
    return bytes(out[:length])


def ctr_transform(cipher: AES, data: bytes, nonce: bytes) -> bytes:
    """Encrypt or decrypt (the operation is its own inverse) in CTR mode."""
    keystream = ctr_keystream(cipher, nonce, len(data))
    return _xor_bytes(data, keystream)
