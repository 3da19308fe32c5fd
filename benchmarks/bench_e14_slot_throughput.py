"""E14 (hot path) — end-to-end slot throughput of the default link.

The slot→key path is the system's inner loop: optics Monte-Carlo, the
sift/sift-response transaction, Cascade, entropy estimation, privacy
amplification and Wegman-Carter authentication of the binary transcript.
PR 4 vectorized the announcement path (numpy run-length encoding, the binary
wire codec of :mod:`repro.core.wire`, array-native sift internals) and fused
the optics sampling passes; this benchmark sweeps batch sizes with and
without an eavesdropper attached and reports **slots per second** end to end.
The regression guard for this path's speed is E21 ``link_single`` against the
in-tree baseline (``benchmarks/e21/README.md``), not an absolute number here.

Assertions:

* **determinism** — two runs from the same seed produce the same sifted
  stream and bit-identical distilled pool digests;
* **the attack shows** — an intercept-resend eavesdropper raises the QBER
  without silencing the pipeline.

``BENCH_E14_SLOTS`` caps the largest batch for smoke runs.  With
``BENCH_JSON_DIR`` set the table lands in
``BENCH_bench_e14_slot_throughput.json`` for the perf-trajectory tooling.
"""

import hashlib
import time

from benchmarks.conftest import int_env, run_once
from repro.eve.intercept_resend import InterceptResendAttack
from repro.link.qkd_link import LinkParameters, QKDLink
from repro.util.rng import DeterministicRNG

MAX_SLOTS = int_env("BENCH_E14_SLOTS", 1_500_000, minimum=1)
SLOT_SWEEP = tuple(s for s in (500_000, 1_500_000) if s <= MAX_SLOTS) or (MAX_SLOTS,)
#: Timed repetitions per configuration; the fastest is reported.
REPS = int_env("BENCH_E14_REPS", 3, minimum=1)


def _run_best(slots, seed, attacked):
    """Best-of-REPS timing; the digests must agree across repetitions."""
    runs = [_run(slots, seed, attacked) for _ in range(max(REPS, 1))]
    assert len({r["sift_digest"] for r in runs}) == 1, "nondeterministic sift stream"
    assert len({r["pool_digest"] for r in runs}) == 1, "nondeterministic pool bits"
    return min(runs, key=lambda r: r["seconds"])


def _run(slots, seed, attacked):
    link = QKDLink(LinkParameters.paper_link(), DeterministicRNG(seed))
    if attacked:
        # A 25%-intercept eavesdropper: QBER rises but stays below the abort
        # threshold, so the whole distillation path still runs.
        link.attach_attack(InterceptResendAttack(intercept_fraction=0.25))
    started = time.perf_counter()
    report = link.run_slots(slots)
    elapsed = time.perf_counter() - started

    sift_digest = hashlib.sha256()
    for outcome in report.outcomes:
        sift_digest.update(str(outcome.sifted_bits).encode())
        sift_digest.update(str(outcome.qber).encode())
    pool_digest = hashlib.sha256()
    for block in link.engine.alice_pool.blocks:
        pool_digest.update(str(block.bits).encode())
    return {
        "slots": slots,
        "attacked": attacked,
        "seconds": elapsed,
        "slots_per_sec": slots / elapsed if elapsed else float("inf"),
        "sifted_bits": report.sifted_bits,
        "distilled_bits": report.distilled_bits,
        "qber": report.mean_qber,
        "sift_digest": sift_digest.hexdigest(),
        "pool_digest": pool_digest.hexdigest(),
    }


def test_e14_slot_throughput(benchmark, table):
    def experiment():
        runs = []
        for attacked in (False, True):
            for slots in SLOT_SWEEP:
                runs.append(_run_best(slots, seed=7, attacked=attacked))
        # Determinism probe: one more largest clean run from the same seed.
        runs.append(_run(SLOT_SWEEP[-1], seed=7, attacked=False))
        return runs

    runs = run_once(benchmark, experiment)
    *sweep, repeat = runs

    rows = [
        [
            run["slots"],
            "intercept-resend 25%" if run["attacked"] else "none",
            f"{run['seconds']:.3f}",
            f"{run['slots_per_sec'] / 1e6:.2f}M",
            run["sifted_bits"],
            run["distilled_bits"],
            f"{run['qber']:.3f}",
        ]
        for run in sweep
    ]
    table(
        "E14: end-to-end slot throughput on the default link",
        ["slots", "attack", "seconds", "slots/s", "sifted bits", "distilled bits", "QBER"],
        rows,
    )

    # Sanity: the link actually distills key on the clean runs, and the
    # attack shows up as elevated QBER without silencing the pipeline.
    clean_big = next(
        r for r in sweep if not r["attacked"] and r["slots"] == SLOT_SWEEP[-1]
    )
    assert clean_big["sifted_bits"] > 0
    if SLOT_SWEEP[-1] >= 1_000_000:
        # Smaller smoke batches flush a sub-viable partial block (the default
        # link sifts ~0.0017 bits/slot; a full 2048-bit block needs ~1.2M
        # slots), so distilled output is only asserted at full scale.
        assert clean_big["distilled_bits"] > 0
    attacked_runs = [r for r in sweep if r["attacked"]]
    assert all(r["qber"] > clean_big["qber"] for r in attacked_runs)

    # Determinism contract: same seed, same sifted stream, same pool bits.
    assert repeat["sift_digest"] == clean_big["sift_digest"]
    assert repeat["pool_digest"] == clean_big["pool_digest"]
    assert repeat["sifted_bits"] == clean_big["sifted_bits"]
