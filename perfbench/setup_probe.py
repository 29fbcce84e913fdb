"""Print the set-up time of one workload, measured in this fresh process.

Set-up is ``import mpqss`` plus the workload's ``build()``: the program
objects a user makes before the first call. The script prints the wall time
and the mean time of the reference loop (``speed.py``) run just before and
just after it. run.py starts this script several times per run and reports
the median scaled time as ``setup_s``.

    python3 perfbench/setup_probe.py bulk-run
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    sys.path.insert(0, str(SRC))
    import speed
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]]
    before = speed.reference_loop()
    start = time.perf_counter()
    import mpqss

    workload.build()
    elapsed = time.perf_counter() - start
    after = speed.reference_loop()
    if SRC not in Path(mpqss.__file__).resolve().parents:
        sys.exit(f"setup_probe: mpqss was imported from {mpqss.__file__}, not {SRC}")
    print(repr(elapsed), repr((before + after) / 2))


if __name__ == "__main__":
    main()
