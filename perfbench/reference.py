"""Fixed reference jobs that measure how fast this CPU runs right now.

    python3 perfbench/reference.py KIND

prints the seconds KIND took, without interpreter start-up. Each job does
the same kind of work as one workload's hot path but none of osnmatch's
code, so a change to the package never changes it; the benchmark divides
each CLI run's wall time by the reference time measured just before and
after it on the same CPU, which cancels the drift in CPU speed that a
shared host shows over tens of seconds. Changing a job changes the unit
of the ``run_ref`` metric: never edit one.
"""

from __future__ import annotations

import json
import sys
import time
from datetime import datetime

import numpy as np


def python_dp() -> None:
    """Edit-distance dynamic programming in pure Python (string measures)."""

    def lev(a: str, b: str) -> int:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    for _ in range(500):
        lev("the quick brown fox jumps over", "a lazy dog sleeps under the tree")


def small_numpy() -> None:
    """Many tiny array operations (a small MLP's training steps)."""
    x, w = np.ones((32, 49)), np.ones((49, 50))
    for _ in range(25_000):
        np.maximum(x @ w, 0.0)


def large_numpy() -> None:
    """Matrix products and Adam-like updates on ~100k-element arrays."""
    rng = np.random.default_rng(0)
    x, w1, w2 = rng.random((32, 65)), rng.random((65, 300)), rng.random((300, 300))
    m, v = np.zeros_like(w2), np.zeros_like(w2)
    for _ in range(120):
        g = np.maximum(x @ w1, 0.0).T @ (np.maximum(x @ w1, 0.0) @ w2)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w2 = w2 - 1e-3 * m / (np.sqrt(v) + 1e-8)


def json_alloc() -> None:
    """JSON lines and timestamps parsed into many small objects (loading)."""
    rows = [
        json.dumps({"platform": "twitter", "user_id": f"tw{i:05d}",
                    "timestamp": "2022-01-03T10:00:00+00:00"}, sort_keys=True)
        for i in range(25_000)
    ]
    for line in rows:
        datetime.fromisoformat(json.loads(line)["timestamp"])


JOBS = {f.__name__: f for f in (python_dp, small_numpy, large_numpy, json_alloc)}


if __name__ == "__main__":
    job = JOBS[sys.argv[1]]
    start = time.perf_counter()
    job()
    print(time.perf_counter() - start)
