#!/usr/bin/env python3
"""Fast-vs-direct cost comparison at n = 64, alpha = 0.5.

Sweeps the number of time steps and records history wall time and peak
history memory for both schemes, emitting CSV plus log-log SVG plots under
out/bench/.  The exponential-sum tolerance is held fixed across the sweep;
each run compresses that sum to its own N lag weights, so the fast scheme's
memory and per-step history cost grow only slowly with N (N_exp 28 to 33).
"""

import sys

from fracvisco.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", "--problem", "ex61", "--mesh", "quad",
                   "--alpha", "0.5", "--scheme", "both",
                   "--steps", "500,1000,2000,4000",
                   "--eps-rule", "fixed:1e-6",
                   "--out", "out/bench"]))
