"""Entropy estimation: how much of the corrected key does Eve know?

Privacy amplification "depends on having an estimate of the eavesdropping-free
entropy of the quantum channel — the amount of information in the channel
beyond what Eve might know" (paper section 6).  The estimate is assembled
from four components, each of which this module computes:

1. **Non-transparent (error-inducing) observations** — bounded by a *defense
   function* of the observed error count.  The paper implements two, due to
   Bennett et al. and to Slutsky et al., and lets the operator choose; both
   are provided here (:class:`BennettDefense`, :class:`SlutskyDefense`).
2. **Transparent eavesdropping** — beam-splitting / PNS style attacks that
   cause no errors.  For a weak-coherent source the worst-case leak is
   proportional to the *transmitted* pulse count times the multi-photon
   probability; for an entangled source it is proportional to the *received*
   count.  Both accountings are implemented; the engine defaults to the
   received-photon accounting that the operating system actually keyed with.
3. **Publicly disclosed information** — "precisely the number of sets of bits
   whose parities have been disclosed" during error correction.
4. **Non-randomness of the raw bits** — a placeholder measure ``r`` exactly as
   in the paper ("only a placeholder at the moment, until randomness testing
   is put into the system").

The components are combined by the Appendix's resultant-entropy formula:
from the ``b`` received (error-corrected) bits subtract ``d`` disclosed parity
bits, ``r``, the defense-function estimate, the transparent-leak estimate, and
a confidence margin of ``c`` combined standard deviations.

**A note on formula reconstruction.**  The Appendix typesets the Bennett and
Slutsky expressions as images that do not survive text extraction cleanly.
The implementations below reconstruct them from the surviving fragments, the
cited sources (Bennett et al. 1992; Slutsky et al. 1998), and the constraints
the paper itself states (both estimates carry a standard-deviation margin;
Slutsky's is parameterised by an attack-success probability and saturates the
whole key as the error rate grows).  This is a documented deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.mathkit.entropy import combine_stddevs, eavesdropping_failure_probability
from repro.util.units import multi_photon_probability, non_empty_pulse_probability


@dataclass(frozen=True)
class EntropyInputs:
    """The observable inputs to entropy estimation, as listed in section 6.

    ``b``  the number of received (sifted, error-corrected) bits
    ``e``  the number of errors found in the sifted bits
    ``n``  the total number of bits (pulses) transmitted
    ``d``  the number of parity bits disclosed during error correction
    ``r``  a non-randomness measure from randomness tests (placeholder)
    """

    sifted_bits: int
    error_bits: int
    transmitted_pulses: int
    disclosed_parities: int
    non_randomness: int = 0
    #: Mean photon number of the source, needed for the multi-photon terms.
    mean_photon_number: float = 0.1
    #: Whether the source is entangled-pair (received-count multi-photon
    #: accounting) or weak-coherent (transmitted-count accounting available).
    entangled_source: bool = False

    def __post_init__(self) -> None:
        if self.sifted_bits < 0 or self.error_bits < 0:
            raise ValueError("counts must be non-negative")
        if self.error_bits > self.sifted_bits:
            raise ValueError("cannot have more errors than sifted bits")
        if self.transmitted_pulses < 0 or self.disclosed_parities < 0:
            raise ValueError("counts must be non-negative")

    @property
    def error_rate(self) -> float:
        if self.sifted_bits == 0:
            return 0.0
        return self.error_bits / self.sifted_bits


@dataclass
class DefenseEstimate:
    """One component of Eve's information: a central value and its std. deviation."""

    information_bits: float
    stddev_bits: float
    name: str = ""


class BennettDefense:
    """The Bennett et al. defense function.

    Bennett, Bessette, Brassard, Salvail and Smolin (J. Cryptology 1992)
    bound the information an eavesdropper gains from error-inducing
    (intercept/resend style) measurements by a linear function of the observed
    error count: every induced error corresponds to at most ``4/sqrt(2)`` bits
    of expected leakage (an intercepted photon in the Breidbart basis yields
    at most ``1/sqrt(2)`` bits and causes an error with probability 1/4).  The
    paper notes this estimate carries a margin of 5 standard deviations
    including the multi-photon term.
    """

    name = "bennett"

    #: Leakage per observed error bit: 4/sqrt(2) = 2*sqrt(2).
    LEAK_PER_ERROR = 4.0 / math.sqrt(2.0)

    def estimate(self, inputs: EntropyInputs) -> DefenseEstimate:
        e = inputs.error_bits
        information = self.LEAK_PER_ERROR * e
        # Reconstructed from the Appendix: the uncertainty of the estimate is
        # of order sqrt(e) with a constant combining the binomial spread of
        # the error count and of the interception success, (4 + 2*sqrt(2)).
        stddev = math.sqrt((4.0 + 2.0 * math.sqrt(2.0)) * max(e, 0))
        information = min(information, inputs.sifted_bits)
        return DefenseEstimate(information, stddev, self.name)


class SlutskyDefense:
    """The Slutsky et al. defense-frontier function.

    Slutsky, Rao, Sun, Tancevski and Fainman (Applied Optics 1998) derive the
    maximum information an individual attack can have obtained as a function
    of the observed error *rate*; the per-bit defense function is

        t(e) = 1 + log2( 1 - 1/2 * ( max(1 - 3e, 0) / (1 - e) )^2 )

    which is 0 at e = 0 and reaches a full bit per key bit at e = 1/3.  The
    estimate over the block is ``b * t(e)``.  Its uncertainty is driven by the
    binomial spread of the observed error count; the engine evaluates the
    defense function at the error rate shifted by one standard deviation and
    uses the difference as the term's standard deviation, exactly in the
    spirit of the paper's "separate out the standard deviation of each term".
    """

    name = "slutsky"

    @staticmethod
    def per_bit_defense(error_rate: float) -> float:
        if error_rate < 0:
            raise ValueError("error rate must be non-negative")
        if error_rate >= 1.0 / 3.0:
            return 1.0
        numerator = max(1.0 - 3.0 * error_rate, 0.0)
        denominator = 1.0 - error_rate
        inner = 1.0 - 0.5 * (numerator / denominator) ** 2
        return 1.0 + math.log2(inner)

    def estimate(self, inputs: EntropyInputs) -> DefenseEstimate:
        b = inputs.sifted_bits
        if b == 0:
            return DefenseEstimate(0.0, 0.0, self.name)
        rate = inputs.error_rate
        information = b * self.per_bit_defense(rate)
        # One-sigma shift of the observed error rate.
        rate_sigma = math.sqrt(max(rate * (1.0 - rate), 0.0) / b)
        shifted = min(rate + rate_sigma, 1.0)
        stddev = b * (self.per_bit_defense(shifted) - self.per_bit_defense(rate))
        information = min(information, b)
        return DefenseEstimate(information, max(stddev, 0.0), self.name)


class TransparentLeakEstimator:
    """Information from eavesdropping that causes no errors (section 6).

    Beam-splitting and POVM attacks exploit multi-photon pulses.  The paper
    contrasts two accountings:

    * **weak-coherent, worst case** — "proportional to the number of
      transmitted bits times the multi-photon probability";
    * **entangled (and the operational weak-coherent figure)** — proportional
      to the number of *received* bits times the multi-photon fraction of
      detected pulses.

    ``worst_case=True`` selects the transmitted-count accounting.
    """

    def __init__(self, worst_case: bool = False):
        self.worst_case = worst_case

    def estimate(self, inputs: EntropyInputs) -> DefenseEstimate:
        mu = inputs.mean_photon_number
        p_multi = multi_photon_probability(mu)
        p_nonempty = non_empty_pulse_probability(mu)
        if inputs.entangled_source or not self.worst_case:
            # Fraction of detected pulses that carried extra photons Eve could
            # have split off without affecting the error rate.
            multi_fraction = 0.0 if p_nonempty == 0 else p_multi / p_nonempty
            information = inputs.sifted_bits * multi_fraction
            stddev = math.sqrt(
                max(inputs.sifted_bits * multi_fraction * (1.0 - multi_fraction), 0.0)
            )
        else:
            information = inputs.transmitted_pulses * p_multi
            stddev = math.sqrt(
                max(inputs.transmitted_pulses * p_multi * (1.0 - p_multi), 0.0)
            )
        information = min(information, inputs.sifted_bits)
        return DefenseEstimate(information, stddev, "transparent")


@dataclass
class EntropyEstimate:
    """The final estimate handed to privacy amplification."""

    inputs: EntropyInputs
    defense: DefenseEstimate
    transparent: DefenseEstimate
    confidence_sigmas: float
    distillable_bits: int
    #: Break-down retained for reporting/benchmarks.
    margin_bits: float = 0.0

    @property
    def secret_fraction(self) -> float:
        """Distillable bits per sifted bit."""
        if self.inputs.sifted_bits == 0:
            return 0.0
        return self.distillable_bits / self.inputs.sifted_bits

    @property
    def eavesdropping_success_probability(self) -> float:
        """Roughly the paper's "about 10^-6" figure for c = 5."""
        return eavesdropping_failure_probability(self.confidence_sigmas)


class EntropyEstimator:
    """Combines the components per the Appendix's resultant-entropy formula.

    distillable = b - d - r - t_defense - t_transparent - c * sqrt(sum of variances)
    """

    def __init__(
        self,
        defense: Optional[object] = None,
        confidence_sigmas: float = 5.0,
        worst_case_multiphoton: bool = False,
    ):
        self.defense = defense or SlutskyDefense()
        self.confidence_sigmas = confidence_sigmas
        self.transparent_estimator = TransparentLeakEstimator(worst_case_multiphoton)
        if not (math.isfinite(confidence_sigmas) and confidence_sigmas >= 0):
            raise ValueError("confidence parameter must be finite and non-negative")

    def estimate(self, inputs: EntropyInputs) -> EntropyEstimate:
        defense = self.defense.estimate(inputs)
        transparent = self.transparent_estimator.estimate(inputs)
        margin = self.confidence_sigmas * combine_stddevs(
            [defense.stddev_bits, transparent.stddev_bits]
        )
        distillable = (
            inputs.sifted_bits
            - inputs.disclosed_parities
            - inputs.non_randomness
            - defense.information_bits
            - transparent.information_bits
            - margin
        )
        distillable_bits = max(int(math.floor(distillable)), 0)
        return EntropyEstimate(
            inputs=inputs,
            defense=defense,
            transparent=transparent,
            confidence_sigmas=self.confidence_sigmas,
            distillable_bits=distillable_bits,
            margin_bits=margin,
        )
