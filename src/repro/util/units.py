"""Unit helpers for the photonic layer: decibels, fiber loss, rates.

The paper's physical layer is specified in the units optical engineers use —
dB of loss, dB/km of fiber attenuation, pulse repetition rates in MHz, mean
photon numbers per pulse.  These helpers convert between those and the plain
probabilities/fractions the simulation works with, so the conversion logic
lives (and is tested) in exactly one place.
"""

from __future__ import annotations

import math

# Standard telecom fiber attenuation at 1550 nm, in dB per km.  The paper's
# link runs over "10 km Telco Fiber Spool" of ordinary telecom fiber.
DEFAULT_FIBER_ATTENUATION_DB_PER_KM = 0.2

# Typical insertion loss of a MEMS optical switch (paper section 8 notes each
# untrusted switch "adds at least a fractional dB insertion loss").
DEFAULT_SWITCH_INSERTION_LOSS_DB = 0.5


def db_to_fraction(loss_db: float) -> float:
    """Convert a loss in dB to the transmitted power fraction.

    A loss of 3 dB corresponds to a transmitted fraction of ~0.501; 10 dB to
    0.1; 0 dB to 1.0.  Negative dB values represent gain and return > 1.
    """
    return 10.0 ** (-loss_db / 10.0)


def fiber_loss_db(
    length_km: float,
    attenuation_db_per_km: float = DEFAULT_FIBER_ATTENUATION_DB_PER_KM,
) -> float:
    """Total attenuation of a fiber span of the given length."""
    if length_km < 0:
        raise ValueError("fiber length must be non-negative")
    if attenuation_db_per_km < 0:
        raise ValueError("attenuation must be non-negative")
    return length_km * attenuation_db_per_km


def multi_photon_probability(mean_photon_number: float) -> float:
    """Probability that a weak-coherent pulse contains two or more photons.

    For a Poissonian source with mean mu this is ``1 - e^-mu - mu e^-mu``.
    This quantity drives the beam-splitting / PNS leakage estimates in the
    paper's entropy analysis (section 6).
    """
    if mean_photon_number < 0:
        raise ValueError("mean photon number must be non-negative")
    mu = mean_photon_number
    return 1.0 - math.exp(-mu) - mu * math.exp(-mu)


def non_empty_pulse_probability(mean_photon_number: float) -> float:
    """Probability that a weak-coherent pulse contains at least one photon."""
    if mean_photon_number < 0:
        raise ValueError("mean photon number must be non-negative")
    return 1.0 - math.exp(-mean_photon_number)
