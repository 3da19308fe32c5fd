"""A1 (ablation) — design choices inside the Cascade variant.

There are two design choices in the error-correction stage that the paper
motivates but does not quantify:

* the adaptive contiguous-block first pass (the "subranges") in front of the
  LFSR-seeded random-subset rounds — without it every error must be located by
  bisecting a ~n/2-sized random subset, which costs ~log2(n) disclosed
  parities per error;
* the number of pseudo-random subsets announced per round (the paper uses 64).

This ablation measures the disclosure cost of each choice at the link's
operating error rate, so the numbers behind the default configuration are on
record.
"""

from benchmarks.conftest import run_once
from repro.core.cascade import CascadeParameters, CascadeProtocol
from repro.mathkit.entropy import binary_entropy
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

BLOCK_BITS = 2048
ERROR_RATE = 0.065


def _noisy_pair(seed):
    rng = DeterministicRNG(seed)
    reference = BitString.random(BLOCK_BITS, rng)
    errors = rng.sample(range(BLOCK_BITS), int(round(ERROR_RATE * BLOCK_BITS)))
    noisy = reference.to_list()
    for index in errors:
        noisy[index] ^= 1
    return reference, BitString(noisy)


def _run(parameters, seed=91):
    reference, noisy = _noisy_pair(seed)
    protocol = CascadeProtocol(parameters, DeterministicRNG(seed + 1))
    return protocol.reconcile(reference, noisy, error_rate_hint=ERROR_RATE)


def test_a1_block_first_pass_ablation(benchmark, table):
    def experiment():
        with_blocks = _run(CascadeParameters(block_first_pass=True))
        without_blocks = _run(CascadeParameters(block_first_pass=False, rounds=8))
        return with_blocks, without_blocks

    with_blocks, without_blocks = run_once(benchmark, experiment)
    shannon = BLOCK_BITS * binary_entropy(ERROR_RATE)
    table(
        f"A1: block first pass on/off (2048-bit block, {ERROR_RATE:.1%} errors, Shannon = {shannon:.0f} bits)",
        ["configuration", "corrected", "parities disclosed", "x Shannon", "bisections"],
        [
            [
                "block pass + subset rounds (default)",
                with_blocks.matches_reference,
                with_blocks.disclosed_parities,
                f"{with_blocks.disclosed_parities / shannon:.2f}",
                with_blocks.bisection_queries,
            ],
            [
                "subset rounds only",
                without_blocks.matches_reference,
                without_blocks.disclosed_parities,
                f"{without_blocks.disclosed_parities / shannon:.2f}",
                without_blocks.bisection_queries,
            ],
        ],
    )
    # Both configurations correct the block; the block first pass is what keeps
    # the disclosure near the Shannon limit.
    assert with_blocks.matches_reference and without_blocks.matches_reference
    assert with_blocks.disclosed_parities < without_blocks.disclosed_parities
    assert with_blocks.disclosed_parities < 2.0 * shannon


def test_a1_subsets_per_round_ablation(benchmark, table):
    def experiment():
        rows = []
        for subsets in (16, 32, 64, 128):
            result = _run(CascadeParameters(subsets_per_round=subsets), seed=92)
            rows.append((subsets, result))
        return rows

    rows = run_once(benchmark, experiment)
    table(
        "A1: subsets announced per round (paper default: 64)",
        ["subsets/round", "corrected", "parities disclosed", "rounds used"],
        [
            [subsets, result.matches_reference, result.disclosed_parities, result.rounds_used]
            for subsets, result in rows
        ],
    )
    # Correctness never depends on the subset count (the block pass plus the
    # cascade of parity updates finds the errors either way) ...
    assert all(result.matches_reference for _, result in rows)
    # ... but announcing more subsets per round costs more disclosed parities.
    disclosed = [result.disclosed_parities for _, result in rows]
    assert disclosed[0] < disclosed[-1]
