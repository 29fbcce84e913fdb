"""The host's speed, measured by a fixed Python loop, and times scaled by it.

On a shared virtual machine the CPU runs the same code up to about 1.8 times
slower for minutes at a time, on both of its CPUs at once. A wall time taken
in such a spell says more about the neighbours than about mpqss. The
benchmark therefore times the reference loop next to every sample, in the
same process, and reports the sample in reference seconds:

    reference seconds = wall seconds * REFERENCE_LOOP_S / loop seconds

that is, the time the sample would have taken on a host that runs the loop
in ``REFERENCE_LOOP_S``. A change to mpqss moves the sample and not the loop,
so it moves the scaled time by the same share as the wall time.
"""

import time

# The loop's time on the baseline host (a 2-vCPU x86-64 virtual machine,
# Python 3.11.7) in its faster spells. Only ratios to it are reported, so its
# exact value sets the scale, not the comparison between commits.
REFERENCE_LOOP_S = 0.038


def reference_loop() -> float:
    """Wall time of one fixed pure-Python loop of a million steps."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i & 7
    return time.perf_counter() - start


def scaled(seconds: float, loop_s: float) -> float:
    """``seconds`` in reference seconds, given the loop time taken next to it."""
    return seconds * REFERENCE_LOOP_S / loop_s
