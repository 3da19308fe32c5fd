"""Scan-everything reference for :meth:`repro.netkms.server.NetworkKmsServer.reap_expired`.

The body ``reap_expired`` had before the server kept its earliest
outstanding deadline, kept verbatim as a function of the server: compare
every held reservation's and every replay-cache entry's deadline with
``now`` on every call, remembering nothing between calls.  Obvious and
slow, imported by no production code; ``tests/test_netkms.py`` holds the
shipped reaper to it — same bits freed, same held and replayable sets, same
reap and replay counters — after every step of a random request sequence
under a clock that also steps backwards (:func:`reap_at`).
"""


def full_scan_reap_expired(server):
    """Release every reservation past its lease; returns bits freed."""
    now = server._now()
    freed = 0
    for key in [k for k, held in server._held.items() if held.expires_at <= now]:
        freed += server._reap_one(key, "lease-expired")
    for key in [k for k, entry in server._served.items() if entry.expires_at <= now]:
        del server._served[key]
    return freed


def reap_at(server, at):
    """``server.reap_expired()`` with the server's clock reading ``at`` — a
    time the event loop's own clock may have passed or not reached yet."""
    clock, server._now = server._now, lambda: at
    try:
        return server.reap_expired()
    finally:
        server._now = clock
