"""E19 (disruption tolerance) — custody-transfer soak under a flapping mesh.

The DTN regime: a two-endpoint relay mesh whose single gateway pair
loses its only access link on a repeating flap cycle (down most of every
period), operated for a simulated hour by :mod:`repro.kms` with custody
transfer enabled (:mod:`repro.dtn`).  Deliveries that would starve are
parked as custody bundles at the furthest reachable custodian and handed
on when the link heals.

The table compares three regimes: the no-custody baseline (which starves
— failed transports, nothing parked), scheduled forwarding (single copy,
earliest-arrival routing) and epidemic flooding (replicate on every open
contact, duplicate-suppressed).  Reported per run: failed/parked
transports, custody submitted/delivered and the delivery ratio, exact
terminal accounting (expired/evicted), custody occupancy peak, custody
delivery latency p50/p99, pad consumed by custody hops and copies made —
the last two are the scheduled-vs-epidemic overhead the policies trade.

Always asserted: the baseline really starves while both custody runs
complete every transport; custody accounting is exact (submitted =
delivered + expired + evicted + live); the scheduled run replayed on the
same seed reproduces the delivered-key digest bit-for-bit.

Knobs for CI smoke runs: ``BENCH_E19_HOURS`` (simulated hours, default 1),
``BENCH_E19_EPOCH_SECONDS``, ``BENCH_E19_FLAP_PERIOD_SECONDS`` /
``BENCH_E19_FLAP_OUTAGE_SECONDS`` (the cut/restore cycle),
``BENCH_E19_TTL_SECONDS`` and ``BENCH_E19_CAPACITY_BITS`` (custody
limits).  With ``BENCH_JSON_DIR`` set the table lands in
``BENCH_bench_e19_dtn_soak.json`` for the nightly perf trajectory.
"""

import time

from benchmarks.conftest import float_env, int_env, run_once
from repro.kms import KeyManagementService, KmsConfig, ReplenishmentConfig
from repro.network.relay import TrustedRelayNetwork
from repro.util.rng import DeterministicRNG

HOURS = float_env("BENCH_E19_HOURS", 1.0, minimum=0.1)
# Three relays give epidemic flooding a side branch to replicate into, so
# its overhead over single-copy scheduled forwarding is visible.
N_RELAYS = int_env("BENCH_E19_RELAYS", 3, minimum=2)
EPOCH_SECONDS = float_env("BENCH_E19_EPOCH_SECONDS", 120.0, minimum=1.0)
FLAP_PERIOD = float_env("BENCH_E19_FLAP_PERIOD_SECONDS", 900.0, minimum=10.0)
FLAP_OUTAGE = float_env("BENCH_E19_FLAP_OUTAGE_SECONDS", 600.0, minimum=1.0)
TTL_SECONDS = float_env("BENCH_E19_TTL_SECONDS", 4000.0, minimum=1.0)
CAPACITY_BITS = int_env("BENCH_E19_CAPACITY_BITS", 1 << 20, minimum=1024)


def _soak(custody, policy="scheduled"):
    """One KMS soak: endpoint-1's only access link flaps all run long."""
    relays = TrustedRelayNetwork.for_mesh(
        n_endpoints=2, n_relays=N_RELAYS, rng=DeterministicRNG(11), prefill_seconds=30.0
    )
    config = KmsConfig(
        gateway_pairs=(("endpoint-0", "endpoint-1"),),
        custody=custody,
        custody_ttl_seconds=TTL_SECONDS,
        custody_capacity_bits=CAPACITY_BITS,
        custody_policy=policy,
        replenishment=ReplenishmentConfig(epoch_seconds=EPOCH_SECONDS, workers=1),
    )
    service = KeyManagementService(relays, config, rng=DeterministicRNG(7))
    horizon = HOURS * 3600.0
    at = 100.0
    while at < horizon:
        service.schedule_link_cut(at, "endpoint-1", "relay-1")
        if at + FLAP_OUTAGE < horizon:
            service.schedule_link_restore(at + FLAP_OUTAGE, "endpoint-1", "relay-1")
        at += FLAP_PERIOD
    started = time.perf_counter()
    report = service.serve(hours=HOURS)
    wall = time.perf_counter() - started
    return report, service, wall


def test_e19_dtn_soak(benchmark, table):
    def experiment():
        return {
            "no-custody": _soak(custody=False),
            "scheduled": _soak(custody=True, policy="scheduled"),
            "epidemic": _soak(custody=True, policy="epidemic"),
            "scheduled@replay": _soak(custody=True, policy="scheduled"),
        }

    results = run_once(benchmark, experiment)

    rows = []
    for name, (report, service, wall) in results.items():
        if service.custody is None:
            custody_cols = ["-"] * 9
        else:
            metrics = service.custody.metrics
            latency = service.custody.delivery_latency
            ratio = report.custody_delivered / max(report.custody_submitted, 1)
            custody_cols = [
                report.custody_submitted,
                report.custody_delivered,
                f"{ratio:.2f}",
                report.custody_expired + report.custody_evicted,
                report.custody_occupancy_peak_bits,
                f"{latency.percentile(50):.0f}",
                f"{latency.percentile(99):.0f}",
                metrics.pad_bits_consumed,
                metrics.copies_made + metrics.copy_moves,
            ]
        rows.append(
            [name, report.transports_failed, report.transports_parked]
            + custody_cols
            + [f"{wall:.2f}"]
        )
    table(
        f"E19: {HOURS:g}h DTN soak, 2+{N_RELAYS} mesh, access link down "
        f"{FLAP_OUTAGE:g}s of every {FLAP_PERIOD:g}s",
        [
            "regime",
            "failed",
            "parked",
            "subm",
            "deliv",
            "ratio",
            "exp+evict",
            "peak bits",
            "lat p50 s",
            "lat p99 s",
            "pad bits",
            "copies",
            "wall s",
        ],
        rows,
    )

    baseline, _, _ = results["no-custody"]
    # The baseline really starves: without custody the partition surfaces
    # as failed transports and nothing is parked.
    assert baseline.transports_failed > 0, "flap schedule never starved the baseline"
    assert baseline.transports_parked == 0

    scheduled, scheduled_service, _ = results["scheduled"]
    replay, _, _ = results["scheduled@replay"]
    # Determinism contract: same seed, same flap plan => bit-identical
    # delivered key material, on both the live and the custody path.
    assert scheduled.delivered_digest == replay.delivered_digest
    assert scheduled.custody_delivered_digest == replay.custody_delivered_digest

    for name in ("scheduled", "epidemic"):
        report, service, _ = results[name]
        # Custody converts starvation into parked-then-delivered bundles.
        assert report.transports_failed == 0, f"{name}: custody still starved"
        assert report.transports_parked > 0, f"{name}: nothing was ever parked"
        assert report.custody_delivered > 0, f"{name}: no parked key ever arrived"
        assert report.custody_occupancy_peak_bits > 0
        # Exact terminal accounting, on both the demand and custody ledgers.
        assert report.completion_accounted, f"{name}: demands unaccounted"
        assert report.custody_accounted, f"{name}: custody bundles unaccounted"
        fault = service.custody.conservation_fault()
        assert fault is None, f"{name}: store/metrics ledgers disagree: {fault}"
        latency = service.custody.delivery_latency
        assert latency.percentile(50) <= latency.percentile(99)

    # Flooding can never make fewer copies than single-copy forwarding
    # moved; the table's pad/copies columns quantify the actual overhead.
    epidemic_metrics = results["epidemic"][1].custody.metrics
    scheduled_metrics = scheduled_service.custody.metrics
    assert (
        epidemic_metrics.copies_made + epidemic_metrics.copy_moves > 0
        and scheduled_metrics.copy_moves + scheduled_metrics.copies_made > 0
    )
