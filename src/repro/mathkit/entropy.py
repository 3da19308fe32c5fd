"""Entropy and statistics helpers used by the QKD entropy-estimation stage.

The defense functions of the paper (section 6 and the Appendix) are built out
of the binary entropy function and standard deviations combined in
quadrature (the paper's "margin for certainty based on the standard
deviation").
"""

from __future__ import annotations

import math
from typing import Sequence


def binary_entropy(p: float) -> float:
    """Shannon binary entropy ``h(p)`` in bits; 0 at p in {0, 1}, 1 at p = 0.5."""
    if p < 0.0 or p > 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def combine_stddevs(stddevs: Sequence[float]) -> float:
    """Combine independent standard deviations in quadrature.

    The paper separates the standard deviation of each term of the entropy
    estimate and combines them at the end, multiplied by the confidence
    parameter c; this helper performs that combination.
    """
    return math.sqrt(sum(s * s for s in stddevs))


def eavesdropping_failure_probability(confidence_sigmas: float) -> float:
    """Approximate probability mass beyond ``c`` standard deviations (one-sided).

    The paper remarks that c = 5 corresponds to "about 10^-6 chance of
    successful eavesdropping"; this Gaussian tail approximation reproduces
    that figure (Q(5) ~ 2.9e-7, within the paper's order of magnitude).
    """
    if confidence_sigmas < 0:
        raise ValueError("confidence must be non-negative")
    return 0.5 * math.erfc(confidence_sigmas / math.sqrt(2.0))
