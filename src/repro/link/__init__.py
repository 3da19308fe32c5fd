"""A complete QKD link: quantum channel + protocol engines at both ends."""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.link.qkd_link": ("QKDLink", "LinkParameters", "LinkReport"),
    },
)
