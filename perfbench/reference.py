"""Fixed reference work, timed as its own process just before each CLI step.

The host's speed drifts by 10-20% over tens of seconds, and a drift that
spans a whole run moves its median.  Each step's wall time is therefore
also reported over the wall time of this process, run right before it on
the same machine.  Like a CLI step it starts an interpreter, imports numpy
and the scipy modules champagne uses, and does array and plain Python
work; it never imports champagne, so no change to the program changes it.
"""

import numpy as np
import scipy.integrate  # noqa: F401
import scipy.spatial  # noqa: F401

x = np.random.default_rng(0).random(400_000)
for _ in range(6):
    y = np.sqrt(np.hypot(x, 1.0 - x)) + np.sin(x) * np.cos(x)
    x = np.sort(np.cumsum(y) % 1.0)
total = 0
for i in range(600_000):
    total += i & 7
