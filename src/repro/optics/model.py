"""The link's operating parameters and its closed-form rate model.

Everything a link *is* — source, fiber path, interferometer alignment,
detectors, framing — is a plain parameter dataclass here, and everything
the rest of the system asks of a link without simulating it is a function
of those parameters: the per-slot signal, dark and any-click probabilities,
the expected QBER, the sifted rate, the secret fraction and the secret-key
rate.  The Monte-Carlo optics (:mod:`repro.optics.channel` and the modules
it assembles) take their parameters from here and answer the analytic
questions by calling here, so there is one model.

The module needs no numpy and no link code, so the network layer, the relay
mesh and an analytic-mode key service price a fiber length without loading
the photon simulation: that is what :meth:`QKDNetwork.estimate_link_rate
<repro.network.topology.QKDNetwork.estimate_link_rate>` and the kms
replenishment scheduler's analytic epochs evaluate.

The one exponential (:func:`signal_click_probability`) is ``math.exp``,
not numpy's: this module loads no numpy, and ``math.exp`` returns the same
double on every host, where numpy's ``exp`` takes an AVX-512 kernel on
hosts that have it and differs from the C library's in the last bit at a
few percent of fiber lengths.  The two agree at the lengths the standard
meshes build (5, 10 and 25 km); ``tests/test_link_model.py`` pins the rates
there as literals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.mathkit.entropy import binary_entropy
from repro.optics.fiber import OpticalPath
from repro.util.units import multi_photon_probability, non_empty_pulse_probability

#: Largest mean accepted for a per-slot photon count.  The counts travel in
#: ``uint16`` rows, where assignment wraps silently; Poisson(60 000) reaches
#: 65 536 only 22 standard deviations out.
MAX_MEAN_COUNT = 60_000.0


@dataclass(frozen=True)
class SourceParameters:
    """Operating parameters of the weak-coherent source.

    Defaults reproduce the paper's stated operating point: a 1 MHz trigger
    rate with a mean photon-emission number of 0.1 photons per pulse.
    """

    mean_photon_number: float = 0.1
    pulse_rate_hz: ClassVar[float] = 1.0e6

    def __post_init__(self) -> None:
        if self.mean_photon_number < 0:
            raise ValueError("mean photon number must be non-negative")
        if self.mean_photon_number > MAX_MEAN_COUNT:
            raise ValueError("mean photon number too large for uint16 photon counts")


@dataclass(frozen=True)
class EntangledSourceParameters:
    """Operating parameters of the SPDC pair source."""

    #: Mean number of photon pairs generated per pump pulse.  SPDC pair
    #: statistics are thermal/Poisson-like; small values keep double pairs rare.
    mean_pairs_per_pulse: float = 0.05
    #: Pump pulse rate: the paper's 1 MHz trigger.
    pulse_rate_hz: ClassVar[float] = 1.0e6
    #: Heralding efficiency: probability that the idler photon of a generated
    #: pair is detected at the source so the signal photon can be announced.
    heralding_efficiency: float = 0.6

    def __post_init__(self) -> None:
        if self.mean_pairs_per_pulse < 0:
            raise ValueError("mean pairs per pulse must be non-negative")
        if self.mean_pairs_per_pulse > MAX_MEAN_COUNT:
            raise ValueError("mean pairs per pulse too large for uint16 photon counts")
        if not 0.0 <= self.heralding_efficiency <= 1.0:
            raise ValueError("heralding efficiency must be in [0, 1]")


@dataclass(frozen=True)
class InterferometerParameters:
    """Alignment quality of the interferometer pair."""

    #: Fringe visibility of the combined Alice+Bob interferometer pair.
    #: V = 1 is perfect alignment; the intrinsic error rate is (1 - V) / 2.
    visibility: float = 0.87
    #: Additional RMS phase noise (radians) from fiber stretcher imperfection;
    #: applied as a random phase jitter per pulse.
    phase_noise_rad: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if self.phase_noise_rad < 0:
            raise ValueError("phase noise must be non-negative")

    @property
    def intrinsic_error_rate(self) -> float:
        """Probability of hitting the wrong detector with compatible bases."""
        return (1.0 - self.visibility) / 2.0


@dataclass(frozen=True)
class DetectorParameters:
    """Operating parameters of Bob's gated APD pair."""

    quantum_efficiency: float = 0.10
    dark_count_probability: float = 1.0e-5
    afterpulse_probability: float = 0.0
    #: Receiver insertion loss (couplers, Bob's interferometer) in dB applied
    #: before the detectors.
    receiver_loss_db: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantum_efficiency <= 1.0:
            raise ValueError("quantum efficiency must be in [0, 1]")
        if not 0.0 <= self.dark_count_probability <= 1.0:
            raise ValueError("dark count probability must be in [0, 1]")
        if not 0.0 <= self.afterpulse_probability <= 1.0:
            raise ValueError("afterpulse probability must be in [0, 1]")
        if self.receiver_loss_db < 0:
            raise ValueError("receiver loss must be non-negative")

    @property
    def receiver_transmittance(self) -> float:
        """Probability of surviving the receiver optics before the APDs."""
        return 10.0 ** (-self.receiver_loss_db / 10.0)

    @property
    def per_photon_detection_probability(self) -> float:
        """Probability a single arriving photon produces a signal click."""
        return self.receiver_transmittance * self.quantum_efficiency


@dataclass(frozen=True)
class FramingParameters:
    """Parameters of the bright-pulse framing subsystem."""

    #: Number of QKD trigger slots per Qframe.  The real engine works on
    #: frames of a few thousand symbols; 4096 keeps sift messages compact.
    slots_per_frame: int = 4096
    #: Probability that a frame's bright annunciator pulse is missed entirely
    #: (fiber transient, sync detector dropout), losing the whole frame.
    frame_loss_probability: float = 0.0
    #: Fractional reduction of detection efficiency due to gate timing jitter.
    gate_misalignment_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.slots_per_frame <= 0:
            raise ValueError("slots per frame must be positive")
        if not 0.0 <= self.frame_loss_probability <= 1.0:
            raise ValueError("frame loss probability must be in [0, 1]")
        if not 0.0 <= self.gate_misalignment_penalty < 1.0:
            raise ValueError("gate misalignment penalty must be in [0, 1)")

    @property
    def efficiency_factor(self) -> float:
        """Multiplicative detection-efficiency factor from gate misalignment."""
        return 1.0 - self.gate_misalignment_penalty


@dataclass
class ChannelParameters:
    """Everything needed to describe one weak-coherent QKD link.

    The defaults reproduce the paper's first link: mean photon number 0.1 at a
    1 MHz pulse rate through 10 km of telecom fiber, detectors cooled to
    -30 C, overall QBER in the 6-8 % band.
    """

    source: SourceParameters = field(default_factory=SourceParameters)
    path: OpticalPath = field(default_factory=lambda: OpticalPath.single_span(10.0))
    interferometer: InterferometerParameters = field(
        default_factory=InterferometerParameters
    )
    detectors: DetectorParameters = field(default_factory=DetectorParameters)
    framing: FramingParameters = field(default_factory=FramingParameters)
    #: When set, the link uses the SPDC entangled-pair source planned for the
    #: network's second link instead of the attenuated laser.  Only the slots
    #: whose idler photon was heralded carry a usable signal photon; the
    #: weak-coherent ``source`` field is ignored apart from its pulse rate.
    entangled_source: Optional[EntangledSourceParameters] = None

    @classmethod
    def for_distance(cls, length_km: float) -> "ChannelParameters":
        """The paper's link with the fiber spool replaced by ``length_km`` of fiber."""
        return cls(path=OpticalPath.single_span(length_km))

    @classmethod
    def entangled_link(
        cls, length_km: float, source: Optional[EntangledSourceParameters] = None
    ) -> "ChannelParameters":
        """The planned second link: an SPDC entangled-pair source over fiber."""
        return cls(
            path=OpticalPath.single_span(length_km),
            entangled_source=source or EntangledSourceParameters(),
        )

    @property
    def is_entangled(self) -> bool:
        return self.entangled_source is not None

    @property
    def pulse_rate_hz(self) -> float:
        """Trigger rate of whichever source is in use."""
        if self.entangled_source is not None:
            return self.entangled_source.pulse_rate_hz
        return self.source.pulse_rate_hz

    @property
    def effective_mean_photon_number(self) -> float:
        """The mean signal-photon number per slot, whichever source is in use."""
        if self.entangled_source is not None:
            return self.entangled_source.mean_pairs_per_pulse
        return self.source.mean_photon_number


# --------------------------------------------------------------------------- #
# The closed-form model
# --------------------------------------------------------------------------- #


def signal_click_probability(p: ChannelParameters) -> float:
    """Probability per slot of a click caused by Alice's photons.

    A Poissonian mean ``m`` reaches the receiver (heralded pairs only, for
    the entangled source; thinned by gate misalignment); each photon
    independently survives the receiver optics and triggers with the quantum
    efficiency, so the click probability is ``1 - exp(-m * T_rx * eta)``.
    """
    mean_emitted = p.effective_mean_photon_number
    if p.is_entangled:
        mean_emitted *= p.entangled_source.heralding_efficiency
    mean_at_receiver = mean_emitted * p.path.transmittance * p.framing.efficiency_factor
    effective = (
        mean_at_receiver * p.detectors.receiver_transmittance * p.detectors.quantum_efficiency
    )
    return 1.0 - math.exp(-effective)


def dark_click_probability(p: ChannelParameters) -> float:
    """Probability per slot that at least one of the two detectors fires darkly."""
    dark = p.detectors.dark_count_probability
    return 1.0 - (1.0 - dark) ** 2


def click_probability(p: ChannelParameters) -> float:
    """Probability per slot that Bob registers any click."""
    return 1.0 - (1.0 - signal_click_probability(p)) * (1.0 - dark_click_probability(p))


def expected_qber(p: ChannelParameters) -> float:
    """Expected QBER from interferometer visibility and dark counts.

    Signal clicks land on the wrong detector with the interferometer's
    intrinsic error rate; dark clicks are uncorrelated with Alice's bit and
    are wrong half the time.  The expected QBER is the click-weighted mixture
    of the two.
    """
    p_any = click_probability(p)
    if p_any == 0:
        return 0.0
    signal_weight = signal_click_probability(p) / p_any
    dark_weight = 1.0 - signal_weight
    return signal_weight * p.interferometer.intrinsic_error_rate + dark_weight * 0.5


def sifted_rate_per_slot(p: ChannelParameters) -> float:
    """Expected sifted bits per trigger slot (basis match halves the clicks)."""
    return 0.5 * click_probability(p)


def sifted_rate_per_second(p: ChannelParameters) -> float:
    """Expected sifted key rate in bits per second at the source pulse rate."""
    return sifted_rate_per_slot(p) * p.pulse_rate_hz


def secret_fraction(
    error_rate: float,
    mean_photon_number: float,
    cascade_efficiency: float = 1.35,
) -> float:
    """``1 - f_EC * h(e) - t(e) - multi-photon fraction``, clamped at zero.

    ``f_EC`` is the reconciliation inefficiency relative to the Shannon limit
    ``h(e)`` (about 1.35 for this Cascade variant), ``t(e)`` the per-bit
    defense function — the engine's default Bennett defense, the linear
    ``2 * sqrt(2) * e`` bound — and the multi-photon fraction covers
    transparent leakage.  The confidence margin vanishes in the asymptotic
    (large-block) limit, so this is an upper estimate of what the
    finite-block engine achieves.
    """
    if error_rate >= 0.5:
        return 0.0
    defense_per_bit = min(2.0 * math.sqrt(2.0) * error_rate, 1.0)
    multi_fraction = multi_photon_probability(mean_photon_number) / max(
        non_empty_pulse_probability(mean_photon_number), 1e-12
    )
    fraction = (
        1.0 - cascade_efficiency * binary_entropy(error_rate) - defense_per_bit - multi_fraction
    )
    return max(fraction, 0.0)


def secret_key_rate(p: ChannelParameters) -> float:
    """Distilled key rate in bits per second: the sifted rate times the
    :func:`secret_fraction` at the expected QBER, with the engine's own
    reconciliation efficiency and defense."""
    return sifted_rate_per_second(p) * secret_fraction(
        expected_qber(p), p.effective_mean_photon_number
    )
