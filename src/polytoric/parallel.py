"""Ordered map through which ``homology.face_set_complexes`` builds new
remainder complexes, one after another in the calling thread. The benchmark
harness reads ``worker_count`` and wraps ``parallel_map`` by name."""


def worker_count() -> int:
    return 1


def parallel_map(fn, items):
    return [fn(item) for item in items]
