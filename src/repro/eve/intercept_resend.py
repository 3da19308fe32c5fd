"""The intercept-resend attack.

Eve places her own receiver and transmitter in the fiber.  For a chosen
fraction of the slots she measures the incoming photon in a random basis
(per the paper's axioms, with perfect detectors and no loss), records the
result, and resends a fresh pulse prepared in *her* basis and measured value
towards Bob (again losslessly, indistinguishable from Alice's pulses).

Consequences, which the protocol stack observes:

* When Eve's basis happens to match Alice's (half the time) she learns the
  bit and resends a faithful copy — no error is induced.
* When it does not match, her measurement result is random, and the pulse she
  resends is prepared in the wrong basis; even when Bob then measures in
  Alice's basis his outcome is random.  Net effect: a 25 % error rate on the
  intercepted fraction, i.e. ``QBER ~ 0.25 * intercept_fraction`` on top of
  the link's intrinsic error rate.
* Eve knows the value she measured for every intercepted slot; after basis
  reconciliation she keeps the ones where her basis matched (full knowledge)
  and has partial knowledge elsewhere.  The attack records how many sifted
  bits she actually knows so experiments can compare her true information
  with what the defense functions charge.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.eve.base import QuantumChannelAttack
from repro.optics.draws import coin_flips, poisson_counts
from repro.optics.model import MAX_MEAN_COUNT


class InterceptResendAttack(QuantumChannelAttack):
    """Eve measures and resends a fraction of the pulses."""

    name = "intercept-resend"

    def __init__(self, intercept_fraction: float = 1.0, resend_mean_photons: Optional[float] = None):
        if not 0.0 <= intercept_fraction <= 1.0:
            raise ValueError("intercept fraction must be in [0, 1]")
        if resend_mean_photons is not None and not 0 <= resend_mean_photons <= MAX_MEAN_COUNT:
            raise ValueError(
                "resend mean photon number must be non-negative and fit uint16 photon counts"
            )
        self.intercept_fraction = intercept_fraction
        #: Eve may resend brighter pulses to make sure Bob sees them; None
        #: means "resend exactly one photon per intercepted non-empty pulse",
        #: the least detectable choice.
        self.resend_mean_photons = resend_mean_photons
        self.last_record: Dict[str, object] = {}

    def intercept(self, emission, transmittance, rng):
        photons = emission["photons"]
        n = photons.shape[0]

        # Eve sits right outside Alice's lab, so she sees the photons before
        # fiber loss (her equipment is lossless per the threat model).
        intercepted = (rng.random(n) < self.intercept_fraction) & (photons > 0)

        eve_basis = coin_flips(rng, n)
        # Measurement outcome: if Eve's basis matches Alice's she reads the
        # true value; otherwise her detector clicks at random.
        basis_match = eve_basis == emission["basis"]
        random_bits = coin_flips(rng, n)
        eve_value = np.where(basis_match, emission["value"], random_bits).astype(np.uint8)

        # Pulses Eve did not touch propagate normally through the fiber.
        untouched_photons = rng.binomial(photons, transmittance)

        # Pulses Eve intercepted are replaced by her own resent pulses, which
        # she delivers to Bob losslessly (threat-model axiom).
        if self.resend_mean_photons is None:
            resent_photons = np.ones(n, dtype=np.int64)
        else:
            resent_photons, _ = poisson_counts(
                rng, self.resend_mean_photons, n, out=np.empty(n, dtype=np.int64)
            )

        photons_at_receiver = np.where(intercepted, resent_photons, untouched_photons)
        eve_phase = eve_basis * (math.pi / 2.0) + eve_value * math.pi
        phase_at_receiver = np.where(intercepted, eve_phase, emission["phase"])

        record = {
            "attack": self.name,
            "intercept_fraction": self.intercept_fraction,
            "slots_intercepted": int(np.count_nonzero(intercepted)),
            "intercepted_mask": intercepted,
            "eve_basis": eve_basis,
            "eve_value": eve_value,
        }
        self.last_record = record
        return {
            "photons_at_receiver": photons_at_receiver,
            "phase_at_receiver": phase_at_receiver,
            "record": record,
        }

    # ------------------------------------------------------------------ #
