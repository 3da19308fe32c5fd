"""A3 (instrumentation) — where the distillation pipeline spends its time.

The stage-based engine (repro.pipeline) times every stage execution, so the
hot-path question the ROADMAP keeps asking — which stage do we optimise
next? — has a measured answer instead of a guess.  (First answer it gave:
Wegman-Carter authentication of the full transcript, not Cascade, dominates
the per-block budget: ~5700 ms per 2048-bit block.  The packed-word bit
kernel, the binary wire codec and then the position-table hash chain took
that stage to ~5 ms per block in this benchmark's own table — 8 blocks at 6 %
QBER, ``auth.wegman_carter`` ~40 ms total beside ``cascade.bicon`` ~100 ms —
so Cascade's bisection bookkeeping is now the larger share.)
This benchmark distills a batch of blocks with the default (Bennett)
defense and prints the cumulative per-stage wall-clock budget, plus the same
batch with ``defense="slutsky"`` to show that the other defense function
leaves the cost profile comparable.

``BENCH_A3_BLOCKS`` / ``BENCH_A3_BLOCK_BITS`` shrink the run for the CI
smoke job, which only asserts the telemetry shape, not absolute time.
"""


from benchmarks.conftest import int_env, run_once
from repro.core.engine import EngineParameters, QKDProtocolEngine
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

BLOCK_BITS = int_env("BENCH_A3_BLOCK_BITS", 2048, minimum=1)
ERROR_RATE = 0.06
N_BLOCKS = int_env("BENCH_A3_BLOCKS", 8, minimum=1)

def _noisy_pair(seed):
    rng = DeterministicRNG(seed)
    reference = BitString.random(BLOCK_BITS, rng)
    errors = rng.sample(range(BLOCK_BITS), int(round(ERROR_RATE * BLOCK_BITS)))
    noisy = reference.to_list()
    for index in errors:
        noisy[index] ^= 1
    return reference, BitString(noisy)


def _distill_batch(parameters):
    engine = QKDProtocolEngine(parameters, DeterministicRNG(7))
    for seed in range(N_BLOCKS):
        alice, bob = _noisy_pair(100 + seed)
        engine.distill_block(alice, bob, transmitted_pulses=500_000)
    return engine


def test_a3_per_stage_time_budget(benchmark, table):
    def experiment():
        default = _distill_batch(EngineParameters())
        slutsky = _distill_batch(EngineParameters(defense="slutsky"))
        return default, slutsky

    default, slutsky = run_once(benchmark, experiment)

    rows = []
    for engine, label in ((default, "default plan"), (slutsky, "slutsky plan")):
        telemetry = engine.pipeline.telemetry
        total = telemetry.total_seconds
        for timing in telemetry.summary():
            rows.append(
                [
                    label,
                    timing.stage,
                    timing.calls,
                    f"{timing.seconds * 1e3:8.2f}",
                    f"{timing.seconds / total:6.1%}" if total else "-",
                ]
            )
    table(
        f"A3: per-stage wall-clock over {N_BLOCKS} blocks of {BLOCK_BITS} bits",
        ["plan", "stage", "calls", "ms total", "share"],
        rows,
    )

    # The shape the refactor promises: telemetry covers every stage, both
    # defenses distill key, and the measured hot path is one of the two
    # transcript-heavy stages.  (Before the packed bit kernel, Wegman-Carter
    # transcript authentication dwarfed even Cascade at ~95% of block time;
    # after it, the two are within a small factor of each other — exactly
    # the kind of shift the telemetry exists to surface.)
    for engine in (default, slutsky):
        assert engine.pipeline.telemetry.blocks_processed == N_BLOCKS
        assert engine.statistics.blocks_distilled > 0
        dominant = engine.pipeline.telemetry.summary()[0]
        assert dominant.stage in ("auth.wegman_carter", "cascade.bicon")
