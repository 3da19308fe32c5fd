"""Scalar definition of :func:`repro.core.sifting.run_length_encode`.

The per-flag loop the vectorized encoder replaced, kept verbatim: alternating
(zeros-run, ones-run, ...) lengths starting with a zeros-run that may be
empty.  Obvious and slow, imported by no production code;
``tests/test_sifting.py`` holds the shipped encoder to it on randomized
inputs and real frames.
"""

from typing import List, Sequence


def run_length_encode_scalar(flags: Sequence[int]) -> List[int]:
    """Reference scalar run-length encoder (the differential-test oracle).

    This is the original per-flag loop; :func:`run_length_encode` must produce
    the identical runs list for every input.  Kept unoptimized on purpose.
    """
    runs: List[int] = []
    current_value = 0
    current_length = 0
    for flag in flags:
        flag = 1 if flag else 0
        if flag == current_value:
            current_length += 1
        else:
            runs.append(current_length)
            current_value = flag
            current_length = 1
    runs.append(current_length)
    return runs
