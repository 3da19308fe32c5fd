"""E15 (continuous operation) — key-management soak over a relay mesh.

The paper's headline scenario run as a *system*: a 9-node trusted-relay
mesh (5 endpoints, 4 relays, 10 gateway pairs) operated for simulated hours
by :mod:`repro.kms` — links distill pairwise key epoch by epoch, the relay
layer transports end-to-end keys into per-pair stores, and IKE daemons
drain the stores under a traffic-driven rekey workload, through a mid-run
DoS link cut and a mid-run eavesdropping attack.

The table reports what the network *sustained*: delivered keys/s and key
bits/s of simulated time, rekey latency p50/p99 (how long a Phase-2
negotiation waited for key), starvation and timeout counts, and reroutes.
Two workload profiles are compared — steady Poisson demand and bursty
rekey storms — because the storms are what make reservation semantics and
depletion-aware replenishment visible in the latency tail.

Always asserted: every run completes with zero starvation deadlocks (every
demand reaches a terminal state), and the network keeps serving through both
injected failures.  (Analytic epochs run no pool, so there is no worker count
to replay against; the soak digest itself is pinned in ``tests/test_kms.py``.)

Knobs for CI smoke runs: ``BENCH_E15_HOURS`` (simulated hours, default 4),
``BENCH_E15_PAIR_MEAN_SECONDS`` (mean rekey interval), ``BENCH_E15_EPOCH_SECONDS``,
``BENCH_E15_ENDPOINTS`` / ``BENCH_E15_RELAYS`` (mesh size).  With
``BENCH_JSON_DIR`` set the table lands in ``BENCH_bench_e15_kms_soak.json``
for the nightly perf trajectory.
"""

import time

from benchmarks.conftest import float_env, int_env, run_once
from repro.eve.intercept_resend import InterceptResendAttack
from repro.kms import (
    KeyManagementService,
    KmsConfig,
    ReplenishmentConfig,
    TrafficWorkload,
    WorkloadProfile,
)
from repro.network.relay import TrustedRelayNetwork
from repro.util.rng import DeterministicRNG

HOURS = float_env("BENCH_E15_HOURS", 4.0, minimum=0.1)
N_ENDPOINTS = int_env("BENCH_E15_ENDPOINTS", 5, minimum=2)
# The failure injection targets relay-3, so the relay ring must reach it.
N_RELAYS = int_env("BENCH_E15_RELAYS", 4, minimum=4)
EPOCH_SECONDS = float_env("BENCH_E15_EPOCH_SECONDS", 120.0, minimum=1.0)
PAIR_MEAN_SECONDS = float_env("BENCH_E15_PAIR_MEAN_SECONDS", 120.0, minimum=1.0)

PROFILES = (
    ("poisson", WorkloadProfile.poisson(PAIR_MEAN_SECONDS)),
    ("bursty", WorkloadProfile.bursty(2.5 * PAIR_MEAN_SECONDS)),
)


def _soak(profile):
    relays = TrustedRelayNetwork.for_mesh(
        n_endpoints=N_ENDPOINTS, n_relays=N_RELAYS, rng=DeterministicRNG(7)
    )
    config = KmsConfig(replenishment=ReplenishmentConfig(epoch_seconds=EPOCH_SECONDS))
    rng = DeterministicRNG(7)
    service = KeyManagementService(
        relays,
        config,
        workload=TrafficWorkload(profile, rng.fork_labeled("bench-workload")),
        rng=rng,
    )
    horizon = HOURS * 3600.0
    # A DoS takedown one quarter in, an eavesdropper at the half-way mark.
    service.schedule_link_cut(horizon * 0.25, "relay-0", "relay-1")
    service.schedule_attack(
        horizon * 0.5, "relay-2", "relay-3", InterceptResendAttack(1.0)
    )
    started = time.perf_counter()
    report = service.serve(hours=HOURS)
    wall = time.perf_counter() - started
    return report, wall


def test_e15_kms_soak(benchmark, table):
    def experiment():
        return {name: _soak(profile) for name, profile in PROFILES}

    results = run_once(benchmark, experiment)

    rows = []
    for name, (report, wall) in results.items():
        rows.append(
            [
                name,
                report.demands,
                report.rekeys_completed,
                report.rekeys_timed_out,
                report.starvation_events,
                report.delivered_keys,
                f"{report.keys_per_second:.4f}",
                f"{report.key_bits_per_second:.1f}",
                f"{report.rekey_latency_p50_seconds:.2f}",
                f"{report.rekey_latency_p99_seconds:.2f}",
                report.reroutes,
                f"{wall:.2f}",
            ]
        )
    table(
        f"E15: {HOURS:g}h soak, {N_ENDPOINTS}+{N_RELAYS}-node mesh, "
        f"link cut @25%, eve @50%",
        [
            "workload",
            "demands",
            "rekeys",
            "timeouts",
            "starved",
            "keys",
            "keys/s",
            "bits/s",
            "p50 s",
            "p99 s",
            "reroutes",
            "wall s",
        ],
        rows,
    )

    for name, (report, _wall) in results.items():
        # Zero starvation deadlocks: every demand reached a terminal (or
        # still-waiting-at-horizon) state.
        assert report.completion_accounted, f"{name}: demands unaccounted"
        assert report.rekeys_completed > 0, f"{name}: nothing rekeyed"
        assert report.delivered_keys > 0, f"{name}: nothing delivered"
        # The injected failures were survived, not crashed over.
        assert ("relay-2", "relay-3") in report.eavesdropped_links
        assert report.rekey_latency_p50_seconds <= report.rekey_latency_p99_seconds
