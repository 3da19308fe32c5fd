"""The entangled source's full emission record — the reference
:meth:`repro.optics.entangled.EntangledPairSource.emit_into` is checked against.

``emit_into`` hands the channel only what it reads: the heralded slots'
pair counts as photon numbers, with basis and value.  :func:`entangled_emit`
keeps everything the draws produced — every slot's pair count and herald —
from the same draws in the same order, so ``tests/test_optics.py`` can check
that ``emit_into`` is this record with the unheralded photons discarded.
"""

import numpy as np


def entangled_emit(source, n_pulses: int):
    """``pairs``, ``heralded``, ``basis`` and ``value`` for ``n_pulses`` pump slots."""
    if n_pulses < 0:
        raise ValueError("number of pulses must be non-negative")
    pairs = np.empty(n_pulses, dtype=np.int64)
    basis = np.empty(n_pulses, dtype=np.uint8)
    value = np.empty(n_pulses, dtype=np.uint8)
    occupied, heralded_pair = source._draw(pairs, basis, value)
    heralded = np.zeros(n_pulses, dtype=bool)
    heralded[occupied] = heralded_pair
    return {"pairs": pairs, "heralded": heralded, "basis": basis, "value": value}
