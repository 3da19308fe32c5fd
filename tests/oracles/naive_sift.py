"""The two uncompressed sift indications the run-length encoding saves against.

Bob could list every detected slot's index explicitly (the naive sift
message, in the JSON reference encoding) or send one bit per slot.  Neither
is ever sent: the E12 claims in ``tests/test_paper_claims.py`` size the
shipped :class:`repro.core.messages.SiftMessage` against both.
"""

import json

import numpy as np


def naive_sift_message(frame, frame_id: int = 0) -> bytes:
    """Bob's sift message with explicit slot indices instead of runs."""
    usable = frame.usable_clicks
    payload = {
        "kind": "sift-naive",
        "frame": frame_id,
        "slots": frame.n_slots,
        "indices": np.flatnonzero(usable).tolist(),
        "bases": frame.bob_basis[usable].astype(int).tolist(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def bitmap_bytes(message) -> int:
    """One detected/not-detected bit per slot plus one basis bit per detection."""
    return (message.n_slots + 7) // 8 + (len(message.detected_bases) + 7) // 8
