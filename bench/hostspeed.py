"""The shared host's speed at the moment, from a fixed computation timed beside each call.

The machine the benchmark runs on is shared. Other jobs on the host slow
every instruction of this process by up to 2x, for seconds to minutes at
a time, and the process cannot see them: its CPU time grows with its
wall time. A fixed pure-Python computation of the same kind as the
program's work (a heap merge, tuples, dicts and sets, Fractions over a
41-bit denominator) slows by about the same factor while it lasts. So
the benchmark runs `probe()` between the calls of a round, and reports
the round's call times scaled by REFERENCE_S over the median probe:
seconds at the speed the host has when nothing else loads it. The median
over a round, and not the probes right beside one call, because the
host's speed also flickers within a second: two probes are too few to
tell what it was over a call of a few seconds. Calls that fill hundreds
of megabytes slow by less than the probe, so the correction overshoots
on them. The probe never calls codecert, so a change to the program
cannot change what it measures.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import reference

#: What probe() takes on a quiet host (Intel Xeon, Sapphire Rapids, 2 vCPUs,
#: Python 3.11.7): its fastest run in a typical 5-second window, over 3 minutes.
REFERENCE_S = 0.0071

_rng = random.Random("hostspeed")
_WEIGHTS = [_rng.randrange(1, 1 << 32) for _ in range(512)]
_TOTAL = sum(_WEIGHTS)
_PROBS = [Fraction(w, _TOTAL) for w in _WEIGHTS]


def probe() -> float:
    """Seconds one run of the fixed computation takes now."""
    t0 = time.perf_counter()
    lengths = reference.huffman_lengths(_WEIGHTS, 2)
    reference.compacted_depths(reference.canonical_code(lengths, 2))
    sum((p * l for p, l in zip(_PROBS, lengths)), Fraction(0))
    return time.perf_counter() - t0


def corrected(seconds: float, probes: list[float]) -> float:
    """`seconds`, measured among probes that took `probes` seconds, at quiet-host speed."""
    return seconds * REFERENCE_S / statistics.median(probes)
