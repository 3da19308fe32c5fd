"""The physical layer of the weak-coherent QKD link (paper section 4).

The real system modulates the phase of very dim 1550 nm laser pulses with
unbalanced Mach-Zehnder interferometers, sends them over 10 km of telecom
fiber together with 1300 nm bright framing pulses, and detects them with
gated, thermo-electrically cooled APDs.  What the QKD protocol stack sees from
all of that hardware is a stream of *per-slot click records*: for each
transmitted slot, whether a detector fired, which one, and (on Alice's side)
which basis and value she modulated.

This package reproduces those statistics:

* :mod:`repro.optics.source` — weak-coherent pulse source (Poissonian photon
  number, random BB84 basis/value phase modulation) and the SPDC
  entangled-pair source planned for the network's second link.
* :mod:`repro.optics.fiber` — fiber spans and optical path loss budgets.
* :mod:`repro.optics.interferometer` — the phase-encoding/decoding
  Mach-Zehnder pair's per-slot interference, under fringe visibility
  (interferometer alignment).
* :mod:`repro.optics.detector` — gated APD clicks per slot: quantum
  efficiency, dark counts, afterpulsing and double clicks.
* :mod:`repro.optics.timing` — bright-pulse framing/annunciation.
* :mod:`repro.optics.channel` — the assembled quantum channel that turns a
  number of trigger pulses into Alice and Bob's raw Qframe records, with a
  hook for eavesdropping attacks.
* :mod:`repro.optics.model` — the parameter dataclass of every part above
  and the closed-form rate model (click probabilities, expected QBER,
  sifted and secret-key rates), with no numpy: what the network and an
  analytic-mode key service load.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.optics.source": ("WeakCoherentSource",),
        "repro.optics.entangled": ("EntangledPairSource",),
        "repro.optics.fiber": ("FiberSpan", "OpticalPath"),
        "repro.optics.timing": ("BrightPulseFraming",),
        "repro.optics.channel": ("QuantumChannel", "FrameResult"),
        "repro.optics.model": (
            "SourceParameters",
            "EntangledSourceParameters",
            "DetectorParameters",
            "InterferometerParameters",
            "FramingParameters",
            "ChannelParameters",
        ),
    },
)
