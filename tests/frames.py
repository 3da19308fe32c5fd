"""Counts over one transmitted frame, read from its per-slot arrays.

The shipped stack reads ``n_sifted`` off a
:class:`~repro.optics.channel.FrameResult` and works on the arrays; the
tests also count detections and sifted errors, the QBER they give, and
what an intercept-resend attack taught Eve.
"""

import numpy as np


def detected(frame) -> int:
    """Usable clicks at Bob."""
    return int(np.count_nonzero(frame.usable_clicks))


def sifted_errors(frame) -> int:
    """Error bits among the sifted bits (the paper's ``e``)."""
    mask = frame.sifted_mask
    return int(np.count_nonzero(frame.alice_value[mask] != frame.bob_value[mask]))


def qber(frame) -> float:
    """Empirical quantum bit error rate over the sifted bits."""
    sifted = frame.n_sifted
    return sifted_errors(frame) / sifted if sifted else 0.0


def eve_known_sifted_bits(frame) -> int:
    """Sifted bits whose value Eve knows outright: she intercepted the slot
    and measured in Alice's basis.  Read from the ``attack_record`` an
    :class:`~repro.eve.InterceptResendAttack` leaves on the frame; 0 when
    the frame carries none."""
    record = frame.attack_record
    if "intercepted_mask" not in record:
        return 0
    known = frame.sifted_mask & record["intercepted_mask"] & (
        record["eve_basis"] == frame.alice_basis
    )
    return int(np.count_nonzero(known))
