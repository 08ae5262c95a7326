"""Thread-pool map with a deterministic merge.

TORIC_THREADS opts in to a pool of that many workers; 0, unset or not a
number runs serially. The work is pure Python under one interpreter lock,
so a pool adds hand-offs rather than parallelism. Results are returned in
input order, so output never depends on the degree of parallelism.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    try:
        return max(int(os.environ.get("TORIC_THREADS", "0")), 1)
    except ValueError:
        return 1


def parallel_map(fn, items):
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
