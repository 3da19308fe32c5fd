"""Mathematical substrate for the QKD protocol suite.

The protocol stages of the paper lean on a small amount of finite-field and
combinatorial machinery:

* **GF(2) linear algebra** — parity subsets in Cascade are linear functionals
  over GF(2); counting how many *independent* parities were disclosed bounds
  the information leaked to Eve.
* **GF(2^n) field arithmetic** — privacy amplification applies a linear hash
  "over the Galois Field GF[2^n]" parameterised by a sparse primitive
  polynomial, an n-bit multiplier and an m-bit additive polynomial (paper §5).
* **LFSRs** — Cascade's pseudo-random parity subsets are generated from a
  Linear-Feedback Shift Register identified by a 32-bit seed (paper §5).
* **Universal hashing (Toeplitz / polynomial)** — Wegman-Carter
  authentication and an alternative privacy-amplification construction.
* **Entropy helpers** — binary entropy and the statistics used by the Bennett
  and Slutsky defense functions.
"""

from repro.mathkit.gf2 import IncrementalGF2Rank
from repro.mathkit.gf2n import GF2nField, PRIMITIVE_POLYNOMIALS
from repro.mathkit.lfsr import LFSR, lfsr_subset_rows
from repro.mathkit.toeplitz import ToeplitzHash
from repro.mathkit.entropy import binary_entropy

__all__ = [
    "IncrementalGF2Rank",
    "GF2nField",
    "PRIMITIVE_POLYNOMIALS",
    "LFSR",
    "lfsr_subset_rows",
    "ToeplitzHash",
    "binary_entropy",
]
