"""Time one workload set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py <workload> <seed> <smoke 0|1>

``run.py`` starts this several times per run for ``setup_s``: the clock
starts before numpy and tokmoe are imported, so the import is part of the
set-up, as it is for every ``tokmoe`` command. It prints the set-up time
normalised to the reference host speed (see hostspeed.py), then the wall
time. The BLAS thread pin comes from the environment ``run.py`` passes down.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

# Slices timed right after the set-up, for its host-speed factor.
CALIBRATION_SLICES = 40

name, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
workloads.build(name, seed, smoke, workloads.Checks(), HERE)
wall = time.perf_counter() - start

import hostspeed  # noqa: E402

slices = [hostspeed.calibration_slice() for _ in range(CALIBRATION_SLICES)]
print(wall * hostspeed.speed_factor(slices), wall)
