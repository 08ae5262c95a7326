"""Spans and counters around polytoric's public functions, installed from
the benchmark's side.

`Tracer.install` replaces each listed function by a wrapper in every
``polytoric`` module that holds it (``homology.smith_normal_form`` as well as
``linalg.smith_normal_form``), and `Tracer.uninstall` puts the originals
back. A span records its name, parent span, thread, start and end; spans are
kept in flat arrays while the run lasts. Work in the program's worker threads
is parented to the `parallel_map` span that launched it.

Self time is the part of a span's interval not covered by its child spans.
Inside a `parallel_map` span the interpreter lock lets one worker run at a
time, so each instant is shared equally among the workers busy at that
instant; summed self time therefore never exceeds wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import threading
import time
from array import array
from collections import defaultdict
from math import comb, prod

# module -> public functions to wrap; "Class.method" wraps a method.
LAYERS = {
    "cli": ("load_polytope", "canonical_json"),
    "polytope": ("build_polytope", "face_lattice"),
    "ehrhart": ("dilate_count", "ehrhart_polynomial", "splitting_index"),
    "homology": (
        "face_cochain_complex",
        "restrict_cochain_complex",
        "simplicial_chain_complex",
        "IntegerChainComplex.__post_init__",
        "cohomology",
    ),
    "linalg": (
        "smith_normal_form",
        "rank_over_field",
        "rank_rational",
        "kernel_line",
        "det_sign",
        "coordinates_in_basis",
    ),
    "lp": ("dual_cone_rays", "lp_feasible", "cone_contains"),
    "sheaf": (
        "global_cohomology",
        "membership_oracle",
        "twist_face_set",
        "expected_contributors",
        "classification_crosscheck",
    ),
    "boundary": (
        "star",
        "closed_star",
        "link",
        "open_antistar",
        "closed_antistar",
        "closed_star_within",
        "nerve",
    ),
    "classify": ("classify", "definitional_check"),
    "verify": ("combinatorics_suite", "ehrhart_suite", "classify_suite", "cohomology_suite"),
    "parallel": ("parallel_map",),
}

# counters derived from argument and result sizes, not counted in the program
COMPUTED = (
    "polytope.facets",
    "polytope.faces",
    "polytope.hull_subsets",
    "polytope.join_pairs",
    "ehrhart.box_points",
    "linalg.smith_normal_form.entries",
    "linalg.rank_over_field.entries",
    "lp.dual_cone_rays.subsets",
    "sheaf.scan_points",
    "boundary.nerve.simplices",
    "parallel.workers",
)

# spans split by coefficient ring: name -> (ring argument index, its default, tags)
RING_SPLIT = {
    "homology.cohomology": (1, "Z", ("Z", "Q", "Zp")),
    "linalg.rank_over_field": (1, None, ("Q", "Zp")),
}


def _ring_tag(ring: str) -> str:
    return "Zp" if ring.startswith("Z/") else ring


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s"]
        out += [f"{name}.{tag}.self_s" for tag in RING_SPLIT.get(name, (0, 0, ()))[2]]
    out += list(COMPUTED)
    out += ["sheaf.classes_built", "sheaf.class_hit_ratio", "trace.overhead_ratio"]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.thread = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int) -> int:
        stack = self._stack()
        ident = threading.get_ident()
        with self._lock:
            sid = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.thread.append(self._threads.setdefault(ident, len(self._threads)))
            self.name.append(name_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counters[key] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        sid = self.open(self._name_id(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def count_max(self, key: str, value: int) -> None:
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self._name_id(name)
        split = RING_SPLIT.get(name)
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span_id = nid
            if split is not None:
                pos, default, _ = split
                ring = args[pos] if len(args) > pos else kwargs.get("ring", default)
                span_id = tracer._name_id(f"{name}#{_ring_tag(ring)}")
            sid = tracer.open(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_parallel_map(self, fn):
        tracer = self
        nid = self._name_id("parallel.parallel_map")
        worker_count = sys.modules["polytoric.parallel"].worker_count

        def parallel_map(work, items):
            items = list(items)
            tracer.count_max("parallel.workers", max(min(worker_count(), len(items)), 1))
            sid = tracer.open(nid)

            def in_worker(item):
                saved = getattr(tracer._local, "stack", None)
                tracer._local.stack = [sid]
                try:
                    return work(item)
                finally:
                    tracer._local.stack = saved

            try:
                return fn(in_worker, items)
            finally:
                tracer.close(sid)

        return functools.update_wrapper(parallel_map, fn)

    def install(self) -> None:
        """Patch every listed function in every loaded polytoric module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "polytoric"]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"polytoric.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(home, fn_name)
                if name == "parallel.parallel_map":
                    wrapper = self._wrap_parallel_map(original)
                else:
                    wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time, sharing worker-thread time under parallel_map."""
        n = len(self.start)
        start, end, parent, thread = self.start, self.end, self.parent, self.thread
        self_t = [end[i] - start[i] for i in range(n)]
        region = [-1] * n  # the parallel_map span a worker-thread span runs under
        regions: dict[int, list[int]] = defaultdict(list)
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            if thread[p] == thread[i]:
                self_t[p] -= end[i] - start[i]
                region[i] = region[p]
            else:
                region[i] = p
            if region[i] >= 0:
                regions[region[i]].append(i)
        for root, members in regions.items():
            self._share_region(root, members, self_t)
        return self_t

    def _share_region(self, root: int, members: list[int], self_t: list[float]) -> None:
        start, end, thread = self.start, self.end, self.thread
        events = []
        for i in members:
            events.append((start[i], 1, i))
            events.append((end[i], 0, i))
        events.sort()
        stacks: dict[int, list[int]] = defaultdict(list)
        credit = defaultdict(float)
        now = start[root]
        for t, opening, i in events:
            dt = t - now
            busy = [s[-1] for s in stacks.values() if s]
            if busy:
                for b in busy:
                    credit[b] += dt / len(busy)
            else:
                credit[root] += dt
            now = t
            if opening:
                stacks[thread[i]].append(i)
            else:
                stacks[thread[i]].pop()
        credit[root] += end[root] - now
        for i in members:
            self_t[i] = credit[i]
        self_t[root] = credit[root]

    def layer_metrics(self) -> tuple[dict[str, float], float]:
        """calls and self_s per wrapped function, ring splits and counters,
        plus the summed self time of all wrapped-function spans."""
        self_t = self.self_times()
        listed = set(span_names())
        calls: dict[str, int] = defaultdict(int)
        selfs: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            base, _, tag = self.names[self.name[i]].partition("#")
            calls[base] += 1
            selfs[base] += self_t[i]
            if tag:
                selfs[f"{base}.{tag}"] += self_t[i]
        out: dict[str, float] = {}
        for name in metric_names():
            if name.endswith(".calls"):
                out[name] = calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".self_s"):
                out[name] = selfs.get(name[: -len(".self_s")], 0.0)
            elif name in COMPUTED:
                out[name] = self.counters.get(name, 0)
        built = self._classes_built()
        points = out["sheaf.scan_points"]
        out["sheaf.classes_built"] = built
        out["sheaf.class_hit_ratio"] = 1 - built / points if points else 0.0
        return out, sum(v for k, v in selfs.items() if k in listed)

    def _classes_built(self) -> int:
        """restrict_cochain_complex calls with a global_cohomology ancestor."""
        restrict = self._name_ids.get("homology.restrict_cochain_complex")
        scan = self._name_ids.get("sheaf.global_cohomology")
        built = 0
        for i in range(len(self.start)):
            if scan is None or self.name[i] != restrict:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != scan:
                p = self.parent[p]
            built += p >= 0
        return built

    def write(self, path: str, labels: dict[int, str]) -> None:
        """Write every span as tab-separated text (gzip): id, parent, thread,
        name, start and end in microseconds from the first span, op label."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tthread\tname\tstart_us\tend_us\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.thread[i]}\t{self.names[self.name[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\t"
                    f"{labels.get(i, '')}\n"
                )


# ---------------------------------------------------------------------------
# computed counters: (tracer, args, result) -> None


def _count_build(tr, args, poly):
    tr.count("polytope.facets", len(poly.facets))
    tr.count("polytope.hull_subsets", comb(len(poly.vertices) + len(poly.discarded), poly.dim))


def _count_lattice(tr, args, lat):
    tr.count("polytope.faces", len(lat.faces))
    tr.count("polytope.join_pairs", len(lat.faces) ** 2)


def _count_dilate(tr, args, result):
    poly, k = args[0], args[1]
    tr.count("ehrhart.box_points", prod(abs(k) * (hi - lo) + 1 for lo, hi in poly.bounding_box()))


def _count_entries(key):
    def count(tr, args, result):
        tr.count(key, args[0].nrows * args[0].ncols)

    return count


def _count_dual_cone(tr, args, result):
    gens, dim = args[0], args[1]
    primitive = sys.modules["polytoric.linalg"].primitive_vector
    tr.count("lp.dual_cone_rays.subsets", comb(len({primitive(g) for g in gens if any(g)}), dim - 1))


def _count_scan(tr, args, g):
    sheaf = sys.modules["polytoric.sheaf"]
    tr.count("sheaf.scan_points", prod(hi - lo + 1 for lo, hi in g.scan_box) + sheaf.DISTANT_POINT_COUNT)


def _count_nerve(tr, args, nerve):
    tr.count("boundary.nerve.simplices", len(nerve.simplices))


_COUNTERS = {
    "polytope.build_polytope": _count_build,
    "polytope.face_lattice": _count_lattice,
    "ehrhart.dilate_count": _count_dilate,
    "linalg.smith_normal_form": _count_entries("linalg.smith_normal_form.entries"),
    "linalg.rank_over_field": _count_entries("linalg.rank_over_field.entries"),
    "lp.dual_cone_rays": _count_dual_cone,
    "sheaf.global_cohomology": _count_scan,
    "boundary.nerve": _count_nerve,
}
