"""E2 — Sifting yield (section 5).

Paper claim: "assume that 1% of the photons that Alice tries to transmit are
actually received at Bob ...  On average, Alice and Bob will happen to agree
on a basis 50% of the time in BB84.  Thus only 50% x 1% of Alice's photons
give rise to a sifted bit, i.e., 1 photon in 200.  A transmitted stream of
1,000 bits therefore would boil down to about 5 sifted bits."

Part one reproduces that worked example exactly (1 % detection probability);
part two reports the sifted yield of the actual simulated link.
"""


from benchmarks.conftest import run_once
from repro.core.sifting import SiftingProtocol
from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.optics.model import DetectorParameters
from repro.optics.fiber import OpticalPath
from repro.optics.source import SourceParameters
from repro.util.rng import DeterministicRNG


def _one_percent_detection_channel():
    """A channel tuned so ~1% of transmitted pulses produce a click, as in the example."""
    # mu * T_path * T_rx * eta = mean detected photons; choose values giving ~0.01.
    return QuantumChannel(
        ChannelParameters(
            source=SourceParameters(mean_photon_number=0.1),
            path=OpticalPath.single_span(0.0),
            detectors=DetectorParameters(
                quantum_efficiency=0.101, dark_count_probability=0.0, receiver_loss_db=0.0
            ),
        ),
        DeterministicRNG(3),
    )


def test_e2_one_in_two_hundred(benchmark, table):
    def experiment():
        channel = _one_percent_detection_channel()
        result = channel.transmit(2_000_000)
        sift = SiftingProtocol().sift(result)
        return {
            "click_fraction": result.n_detected / result.n_slots,
            "sifted_fraction": sift.sifted_fraction,
            "sifted_per_1000": 1000.0 * sift.sifted_fraction,
        }

    outcome = run_once(benchmark, experiment)
    table(
        "E2: sifting yield at 1% detection probability (the paper's worked example)",
        ["quantity", "paper", "measured"],
        [
            ["detected fraction", "1 %", f"{outcome['click_fraction']:.2%}"],
            ["sifted fraction", "1 in 200 (0.5 %)", f"{outcome['sifted_fraction']:.2%}"],
            ["sifted bits per 1000 pulses", "about 5", f"{outcome['sifted_per_1000']:.1f}"],
        ],
    )
    assert 0.008 <= outcome["click_fraction"] <= 0.012
    # "about 5 sifted bits" per 1000 transmitted
    assert 4.0 <= outcome["sifted_per_1000"] <= 6.0


def test_e2_sifted_yield_of_real_link(benchmark, table):
    def experiment():
        channel = QuantumChannel(ChannelParameters.paper_operating_point(), DeterministicRNG(4))
        result = channel.transmit(2_000_000)
        sift = SiftingProtocol().sift(result)
        detected = result.n_detected / result.n_slots
        return detected, sift.sifted_fraction

    detected, sifted = run_once(benchmark, experiment)
    table(
        "E2: sifting yield of the simulated 10 km link",
        ["quantity", "value"],
        [
            ["detected fraction", f"{detected:.3%}"],
            ["sifted fraction", f"{sifted:.3%}"],
            ["one sifted bit per", f"{1/sifted:.0f} pulses"],
        ],
    )
    # Sifting keeps about half of the detections.
    assert sifted == pytest.approx(detected / 2, rel=0.15)


import pytest  # noqa: E402  (used in the assertion above)
