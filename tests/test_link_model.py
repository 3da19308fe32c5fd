"""The closed-form link model (:mod:`repro.optics.model`) held to literals.

The network prices every link with the model, and an analytic-mode key
service banks pad at the rate it gives, so the kms, metro, chaos and dtn
pins all rest on its floats.  The literals below were recorded from the
link model as it was before it moved into :mod:`repro.optics.model`: a
seeded Monte-Carlo ``QKDLink`` per fiber length, whose click probability
used ``numpy.exp``.

The model now uses ``math.exp``.  The two agree at the lengths the standard
meshes build (5, 10 and 25 km), where every value is pinned exactly.  On a
host whose numpy has AVX-512 they differ in the last bit at a few percent
of other lengths (on a host without it numpy calls the C library's ``exp``
and they agree everywhere).  There the exponential is one ulp apart — the
signal click probability ``1 - exp(-x)``, with ``exp(-x)`` just below one,
moves by exactly ``2**-53`` — and the rate and QBER inherit a relative
difference below ``1e-9``.
"""

import math

import pytest

from repro.link import LinkParameters, QKDLink
from repro.network.switches import UntrustedSwitchNetwork
from repro.network.topology import QKDNetwork
from repro.optics import model
from repro.optics.channel import QuantumChannel
from repro.util.rng import DeterministicRNG

#: ``QKDNetwork.estimate_link_rate`` at the lengths ``mesh()`` and ``metro()``
#: build.
MESH_RATES = {
    5.0: 561.4840585508286,
    10.0: 439.70206357629365,
    25.0: 204.917942078491,
}

#: length (km) -> (signal click probability, expected QBER, secret-key rate
#: in bits/s) of the paper's link over that much fiber.
SWEEP = {
    0.0: (0.004999333859941779, 0.0667246581655771, 714.674240592714),
    5.0: (0.003973157745070566, 0.06717010281411102, 561.4840585508286),
    10.0: (0.0031572829264671087, 0.06772958408489758, 439.70206357629365),
    15.0: (0.0025087342846178418, 0.06843187625889972, 342.9133687550544),
    20.0: (0.0019932731023364347, 0.06931277180509667, 266.0079300128622),
    25.0: (0.0015836379124944955, 0.07041665356780313, 204.917942078491),
    30.0: (0.0012581332976370208, 0.07179833829096326, 156.407183274448),
    35.0: (0.000999500166624978, 0.07352518954556536, 117.90237470868949),
    40.0: (0.0007940128395667045, 0.07567946211649115, 87.35837832175817),
    45.0: (0.0006307583327530564, 0.07836077984095421, 63.15055622156578),
    50.0: (0.0005010616602851847, 0.08168855503294845, 43.9888682692501),
    55.0: (0.00039802793640875134, 0.08580401955940602, 28.8493241180731),
    60.0: (0.0003161777712868963, 0.09087134752849005, 16.919261685285715),
    65.0: (0.0002511570979251143, 0.09707710897291502, 7.55362752888049),
    70.0: (0.00019950632746223995, 0.10462702571229512, 0.24001341089954267),
    75.0: (0.00015847676047742176, 0.11373876625802067, 0.0),
    80.0: (0.0001258846170459904, 0.12462943575677052, 0.0),
    85.0: (9.999500016666385e-05, 0.1374966771179414, 0.0),
    90.0: (7.942966876928192e-05, 0.15249313270971027, 0.0),
    95.0: (6.309374395407907e-05, 0.16969560949851872, 0.0),
    100.0: (5.0117467440546903e-05, 0.18907261084129534, 0.0),
    105.0: (3.98099246192718e-05, 0.21045647010953092, 0.0),
    110.0: (3.162227660691297e-05, 0.23352811221271494, 0.0),
    115.0: (2.5118548839020427e-05, 0.25782211736670185, 0.0),
    120.0: (1.9952424097469112e-05, 0.28275628843066314, 0.0),
    125.0: (1.5848806330986953e-05, 0.3076836678643702, 0.0),
    130.0: (1.2589174873567366e-05, 0.33195799815552396, 0.0),
    135.0: (9.999950000172397e-06, 0.3549990333294881, 0.0),
    140.0: (7.943250799447021e-06, 0.37634416150619704, 0.0),
    145.0: (6.3095535395296665e-06, 0.3956774624724235, 0.0),
    150.0: (5.011859776860028e-06, 0.4128342923650119, 0.0),
    155.0: (3.981063781077765e-06, 0.4277857007603899, 0.0),
    160.0: (3.1622726601732154e-06, 0.4406103916299086, 0.0),
    165.0: (2.5118832767123678e-06, 0.4514622342284754, 0.0),
    170.0: (1.9952603244055567e-06, 0.46053950946532085, 0.0),
    175.0: (1.5848919365790692e-06, 0.46805950194566087, 0.0),
    180.0: (1.2589246193295267e-06, 0.4742397395989855, 0.0),
    185.0: (9.999994999843054e-07, 0.4792856057820099, 0.0),
    190.0: (7.943279192179631e-07, 0.48338322970266745, 0.0),
    195.0: (6.309571454199414e-07, 0.48669631008516323, 0.0),
    200.0: (5.011871080373709e-07, 0.48936561278707996, 0.0),
}

#: One ulp of a double in [0.5, 1): what ``exp(-x)`` may differ by.
EXP_ULP = 2.0**-53


def evaluate(length_km):
    channel = model.ChannelParameters.for_distance(length_km)
    return (
        model.signal_click_probability(channel),
        model.expected_qber(channel),
        model.secret_key_rate(channel),
    )


@pytest.mark.parametrize("length_km", sorted(MESH_RATES))
def test_estimate_link_rate_at_the_mesh_lengths(length_km):
    assert QKDNetwork.estimate_link_rate(length_km) == MESH_RATES[length_km]


@pytest.mark.parametrize("length_km", sorted(MESH_RATES))
def test_the_model_is_exact_at_the_mesh_lengths(length_km):
    assert evaluate(length_km) == SWEEP[length_km]


def test_the_model_tracks_the_recorded_sweep():
    for length_km, recorded in SWEEP.items():
        signal, qber, rate = evaluate(length_km)
        assert abs(signal - recorded[0]) <= EXP_ULP, length_km
        if signal == recorded[0]:
            assert (qber, rate) == recorded[1:], length_km
        else:
            assert qber == pytest.approx(recorded[1], rel=1e-9, abs=0.0), length_km
            assert rate == pytest.approx(recorded[2], rel=1e-9, abs=0.0), length_km


@pytest.mark.parametrize("length_km", [0.0, 5.0, 10.0, 25.0, 37.5, 65.0, 70.0, 175.0])
def test_every_analytic_entry_point_is_the_model(length_km):
    """The link, the channel, the network and the switch layer all answer
    from the one model, float for float."""
    signal, qber, rate = evaluate(length_km)
    parameters = LinkParameters.for_distance(length_km)
    link = QKDLink(parameters, DeterministicRNG(0))
    channel = QuantumChannel(parameters.channel, DeterministicRNG(0))
    assert link.expected_qber() == channel.expected_qber() == qber
    assert link.estimated_secret_key_rate() == QKDNetwork.estimate_link_rate(length_km) == rate
    assert link.sifted_rate_bps() == model.sifted_rate_per_second(parameters.channel)
    direct = UntrustedSwitchNetwork.chain(0, length_km)
    assert (direct.expected_qber, direct.secret_key_rate_bps) == (qber, rate)


def test_the_exponential_is_the_c_library_one():
    """``math.exp``, whatever SIMD the host's numpy would pick."""
    channel = model.ChannelParameters.for_distance(65.0)
    detectors = channel.detectors
    effective = (
        channel.effective_mean_photon_number
        * channel.path.transmittance
        * channel.framing.efficiency_factor
        * detectors.receiver_transmittance
        * detectors.quantum_efficiency
    )
    assert model.signal_click_probability(channel) == 1.0 - math.exp(-effective)
