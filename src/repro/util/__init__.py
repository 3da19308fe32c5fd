"""Utility substrate: bit strings, deterministic randomness, unit helpers.

These are the low-level building blocks shared by every other subpackage.
Nothing in here knows about quantum optics or cryptographic protocols; it is
pure data plumbing, kept deliberately small and well tested.
"""

from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from repro.util.units import db_to_fraction, fiber_loss_db

__all__ = [
    "BitString",
    "DeterministicRNG",
    "db_to_fraction",
    "fiber_loss_db",
]
