"""E20 (metro scale) — zoned KMS soak from tens to a thousand-plus pairs.

The metro question: what does it cost to *schedule* a city?  This bench
soaks a four-zone metro mesh (:func:`repro.kms.build_metro_mesh`) at three
fleet sizes — endpoints per zone swept so the consumer-pair count grows
from tens to 1k+ — under a fixed-total aggregate rekey demand
(:class:`repro.kms.AggregateProfile`), so the *scheduling* cost is the
variable and the work delivered is comparable across levels.

The table reports keys/s, rekey latency p50/p99, trunk throughput and —
the point of the sweep — scheduler overhead per epoch: the wall-clock cost
of ordering work (needy-store heap, expiry sweeps, per-zone link
selection), as accounted by ``SoakReport.scheduler_overhead_per_epoch_seconds``.

Always asserted: demand accounting closes at every level.  (Analytic epochs
and the labeled prefill run no pool, so there is no worker count to replay
against; the metro digest itself is pinned in ``tests/test_zones.py``.)  With
the sub-linearity gate on (default), scheduler overhead/epoch must grow
markedly slower than the pair count — the flat implementation's full
sort-everything-per-epoch behavior would fail this.

Knobs for CI smoke runs: ``BENCH_E20_PAIRS`` (comma-separated
endpoints-per-zone levels, default ``2,5,12``), ``BENCH_E20_HOURS``
(simulated hours per level, default 0.5), ``BENCH_E20_ZONES``,
``BENCH_E20_EPOCH_SECONDS``, ``BENCH_E20_REQUIRE_SUBLINEAR`` (``0``
disables the growth gate for tiny smoke sweeps).  With ``BENCH_JSON_DIR``
set the table lands in ``BENCH_bench_e20_metro_soak.json``.
"""

import os
import time

from benchmarks.conftest import float_env, int_env, run_once
from repro.kms import (
    AggregateProfile,
    KeyManagementService,
    KmsConfig,
    ReplenishmentConfig,
    build_metro_mesh,
)
from repro.util.rng import DeterministicRNG

HOURS = float_env("BENCH_E20_HOURS", 0.5, minimum=0.05)
N_ZONES = int_env("BENCH_E20_ZONES", 4, minimum=2)
EPOCH_SECONDS = float_env("BENCH_E20_EPOCH_SECONDS", 300.0, minimum=1.0)
REQUIRE_SUBLINEAR = int_env("BENCH_E20_REQUIRE_SUBLINEAR", 1, minimum=0)
#: Endpoints per zone at each sweep level; with 4 zones the defaults give
#: C(8,2)=28, C(20,2)=190 and C(48,2)=1128 consumer pairs.
LEVELS = tuple(
    int(raw) for raw in os.environ.get("BENCH_E20_PAIRS", "2,5,12").split(",")
)
#: Tunnels across the whole metro, split over however many pairs a level
#: has — total demand is level-invariant.
TOTAL_TUNNELS = int_env("BENCH_E20_TUNNELS", 20_000, minimum=1)


def _soak(endpoints_per_zone):
    relays, plan = build_metro_mesh(
        n_zones=N_ZONES,
        endpoints_per_zone=endpoints_per_zone,
        relays_per_zone=3,
        rng=DeterministicRNG(20),
        prefill_seconds=240.0,
        # Stream selector: the per-link labeled prefill the metro pins use.
        workers=1,
    )
    n_endpoints = N_ZONES * endpoints_per_zone
    n_pairs = n_endpoints * (n_endpoints - 1) // 2
    config = (
        KmsConfig(
            replenishment=ReplenishmentConfig(epoch_seconds=EPOCH_SECONDS),
            store_high_water_bits=4_096,
            store_low_water_bits=2_048,
            transport_key_bits=2_048,
        )
        .with_zones(plan)
        .with_workload(
            AggregateProfile.poisson(
                tunnels=max(TOTAL_TUNNELS // n_pairs, 1),
                mean_interval_seconds=3_600.0,
            )
        )
    )
    service = KeyManagementService(relays, config, rng=DeterministicRNG(3))
    started = time.perf_counter()
    report = service.serve(hours=HOURS)
    wall = time.perf_counter() - started
    return n_pairs, report, wall


def test_e20_metro_soak(benchmark, table):
    def experiment():
        return {level: _soak(level) for level in LEVELS}

    results = run_once(benchmark, experiment)

    rows = []
    for name, (n_pairs, report, wall) in results.items():
        rows.append(
            [
                name,
                n_pairs,
                report.demands,
                report.rekeys_completed,
                f"{report.keys_per_second:.4f}",
                f"{report.rekey_latency_p50_seconds:.2f}",
                f"{report.rekey_latency_p99_seconds:.2f}",
                report.trunk_keys_delivered,
                f"{report.scheduler_overhead_per_epoch_seconds * 1e3:.3f}",
                f"{wall:.2f}",
            ]
        )
    table(
        f"E20: {HOURS:g}h metro soak, {N_ZONES} zones, "
        f"epz swept over {','.join(map(str, LEVELS))}",
        [
            "epz",
            "pairs",
            "demands",
            "rekeys",
            "keys/s",
            "p50 s",
            "p99 s",
            "trunk keys",
            "sched ms/epoch",
            "wall s",
        ],
        rows,
    )

    for name, (_pairs, report, _wall) in results.items():
        assert report.completion_accounted, f"{name}: demands unaccounted"
        assert report.delivered_keys > 0, f"{name}: nothing delivered"
        assert report.zones == N_ZONES

    if REQUIRE_SUBLINEAR and len(LEVELS) > 1:
        small_pairs, small, _ = results[LEVELS[0]]
        big_pairs, big, _ = results[LEVELS[-1]]
        pair_growth = big_pairs / small_pairs
        overhead_growth = big.scheduler_overhead_per_epoch_seconds / max(
            small.scheduler_overhead_per_epoch_seconds, 1e-9
        )
        # The indexed scheduler must not pay full-sort cost per epoch: its
        # per-epoch overhead growth stays well under the pair-count growth.
        assert overhead_growth < 0.5 * pair_growth, (
            f"scheduler overhead grew {overhead_growth:.1f}x for a "
            f"{pair_growth:.1f}x pair-count increase — not sub-linear"
        )
