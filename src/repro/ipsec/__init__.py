"""IPsec / IKE with the paper's QKD extensions (section 7).

The DARPA Quantum Network does not invent a new secure-traffic protocol; it
feeds quantum-distilled key into the standard IPsec architecture (RFC 2401)
and its key-exchange protocol IKE (RFC 2409), modified in two ways:

* **rapid reseeding** — distilled QKD bits are mixed into the IKE Phase-2
  key material, and the AES keys protecting each Security Association are
  refreshed "about once a minute";
* **one-time pad SAs** — for the most sensitive tunnels, a negotiated stream
  of QKD bits is used directly as a Vernam cipher for the ESP payload.

The subpackage models the pieces of that architecture that the extensions
touch: IP/ESP packets, the Security Policy Database (SPD), the Security
Association Database (SAD) with lifetimes and rollover, the IKE daemon with
its QKD "Qblock" negotiation (whose log output regenerates the paper's
Fig 12), ESP tunnel processing, and the VPN gateway that ties them together.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ipsec.packets": ("IPPacket", "ESPPacket"),
        "repro.ipsec.spd": (
            "SecurityPolicy",
            "SecurityPolicyDatabase",
            "PolicyAction",
            "CipherSuite",
        ),
        "repro.ipsec.sad": ("SecurityAssociation", "SecurityAssociationDatabase"),
        "repro.ipsec.ike": ("IKEDaemon", "IKEConfig", "QkdKeyNegotiation"),
        "repro.ipsec.esp": ("EspProcessor", "EspError"),
        "repro.ipsec.gateway": ("VPNGateway", "GatewayPair"),
    },
)
