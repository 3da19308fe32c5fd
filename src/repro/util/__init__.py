"""Utility substrate: bit strings, deterministic randomness, unit helpers.

These are the low-level building blocks shared by every other subpackage.
Nothing in here knows about quantum optics or cryptographic protocols; it is
pure data plumbing, kept deliberately small and well tested.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.util.bits": ("BitString",),
        "repro.util.rng": ("DeterministicRNG",),
        "repro.util.units": ("db_to_fraction", "fiber_loss_db"),
    },
)
