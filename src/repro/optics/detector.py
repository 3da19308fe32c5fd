"""Gated avalanche photodiode (APD) detectors at Bob.

Bob's two 1550 nm detectors are "operated in the Geiger gated mode, where the
applied bias voltage exceeds the breakdown voltage for a very short period of
time when a photon is expected to arrive" (paper section 4).  The model
captures the behaviours of such detectors that matter to the key rate and the
error rate:

* **quantum efficiency** — the probability that a photon arriving inside the
  gate actually triggers an avalanche (10 % is typical for the InGaAs APDs of
  the era, cooled to -30 C as in the paper);
* **dark counts** — avalanches triggered by thermal carriers with no photon
  present; each gate of each detector fires spuriously with a small
  probability, and dark clicks land in a random detector, contributing
  random (50 % wrong) bits that dominate the QBER at long distances;
* **afterpulsing** — an elevated false-click probability in the gates
  immediately following a real avalanche;
* **dead time / double clicks** — slots where both detectors fire carry no
  usable information and are discarded by sifting.

The parameters live in :class:`repro.optics.model.DetectorParameters`, with
the closed-form click probabilities; this module evaluates the clicks slot
by slot.
"""

from __future__ import annotations

import numpy as np

from repro.optics.draws import coin_flips


def signal_click_probability(photons_at_receiver: np.ndarray, per_photon: float) -> np.ndarray:
    """Elementwise click probability ``1 - (1 - per_photon) ** k``.

    ``per_photon`` is the probability a single arriving photon survives the
    receiver optics and triggers the APD; :meth:`QuantumChannel.transmit
    <repro.optics.channel.QuantumChannel.transmit>` passes the link's value
    with its non-zero photon counts.

    The photon counts are tiny integers (Poisson, mu ~ 0.1), so the power is
    evaluated once per distinct count and gathered — ``np.power`` is
    elementwise, so the table entries are the very floats the whole-array
    call would produce, at a fraction of its cost.
    """
    counts = np.arange(photons_at_receiver.max(initial=0) + 1)
    return (1.0 - np.power(1.0 - per_photon, counts))[photons_at_receiver]


def apply_afterpulse(
    signal_click: np.ndarray,
    afterpulse_probability: float,
    numpy_rng: np.random.Generator,
    dark0: np.ndarray,
    dark1: np.ndarray,
) -> None:
    """Fold afterpulse clicks into the dark-click masks, in place.

    A crude afterpulse model: a gate following a signal click has an extra
    chance of a spurious click in a random detector.  Operates on one link's
    1-D gate sequence (afterpulsing is a *temporal* correlation along a single
    detector pair); ``dark0``/``dark1`` are updated with in-place ``|=``, so
    they may be views.  An empty gate sequence takes no draws.
    """
    n = signal_click.shape[0]
    if n == 0:
        return
    after = np.zeros(n, dtype=bool)
    after[1:] = signal_click[:-1] & (numpy_rng.random(n - 1) < afterpulse_probability)
    after_detector = coin_flips(numpy_rng, n)
    dark0 |= after & (after_detector == 0)
    dark1 |= after & (after_detector == 1)


def combine_clicks(
    signal_click: np.ndarray,
    signal_detector: np.ndarray,
    dark0: np.ndarray,
    dark1: np.ndarray,
    coin: np.ndarray,
):
    """Combine per-slot event masks into the detector outcome dict.

    Pure boolean algebra, no draws, elementwise throughout — so it works on
    arrays of any shape.  ``coin`` resolves double clicks so downstream code
    never reads uninitialised data.

    Returns a dict of boolean/uint8 arrays:

    ``click``       — at least one detector fired;
    ``double``      — both detectors fired (discarded by sifting);
    ``value``       — the bit value registered (valid where ``click`` and
                      not ``double``);
    ``dark_only``   — the click was caused purely by dark counts.
    """
    detector0_fired = (signal_click & (signal_detector == 0)) | dark0
    detector1_fired = (signal_click & (signal_detector == 1)) | dark1

    click = detector0_fired | detector1_fired
    double = detector0_fired & detector1_fired
    dark_only = click & ~signal_click

    # Registered value: D1 means "1".  Where both fired the value is
    # meaningless and the slot will be discarded; fill with the coin flip.
    value = (detector1_fired & ~detector0_fired).view(np.uint8)
    value = np.where(double, coin, value)

    return {
        "click": click,
        "double": double,
        "value": value,
        "dark_only": dark_only,
    }
