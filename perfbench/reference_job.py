"""Fixed reference job that measures how fast the machine runs right now.

    python3 perfbench/reference_job.py

It does the same kinds of work as a ``consched`` request -- an interpreter
start, a NumPy import, a loop of small NumPy calls on a few hundred elements,
integer broadcasting over a (voters, tasks, slots) tensor and an interpreted
loop -- on fixed data and without importing ``consched``, so no change to the
program under test can alter it. ``run.py`` runs it between requests and
divides request times by it, which takes out the drift in machine speed that
other tenants of a shared host cause.
"""

import numpy as np

rng = np.random.default_rng(0)
rows = rng.integers(0, 1000, size=(300, 300), dtype=np.int64)
best = np.zeros(300, dtype=np.int64)
total = 0
for i in range(4000):
    cur = rows[i % 300] - best
    better = cur < 500
    best[better] += 1
    total += int(np.argmin(np.where(better, cur, 1 << 40)))

grid = rng.integers(0, 100, size=(400, 60, 60), dtype=np.int64)
for shift in range(3):
    total += int(np.maximum(grid - 50 + shift, 0).sum())

for i in range(400_000):
    total += i % 7
print(total)
