"""Eavesdropping attack models (the paper's "disquisition on Eve", section 6).

Eve is "limited only by the known laws of physics" and can detect dim pulses
with zero loss, create indistinguishable substitutes, transport photons
losslessly, eavesdrop on and forge the public channel.  The attacks modelled
here are the ones whose observable consequences the paper discusses:

* :class:`InterceptResendAttack` — Eve measures each photon in a random basis
  and resends her result.  She learns every bit she intercepts but induces a
  25 % error rate on the intercepted fraction, which the protocol's QBER
  monitoring and entropy estimation detect.
* :class:`BeamSplittingAttack` — the photon-number-splitting / transparent
  attack: Eve stores one photon from every multi-photon pulse and measures it
  after basis announcement.  No errors are induced; the leakage is what the
  multi-photon terms of entropy estimation charge for.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.eve.base": ("QuantumChannelAttack",),
        "repro.eve.intercept_resend": ("InterceptResendAttack",),
        "repro.eve.beamsplitter": ("BeamSplittingAttack",),
    },
)
