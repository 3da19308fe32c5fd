"""A minimal discrete-event simulation substrate.

The IPsec gateways (key rollover timers, SA lifetimes) and the QKD network
experiments (link failures, rerouting) need a notion of simulated time that
is decoupled from wall-clock time.  :class:`SimClock` provides the time base
and :class:`EventScheduler` a priority queue of timestamped callbacks — just
enough machinery for the paper's scenarios without pulling in a full DES
framework.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.clock": ("SimClock", "EventScheduler", "ScheduledEvent"),
    },
)
