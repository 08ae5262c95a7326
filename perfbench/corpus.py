"""Seeded inputs and op lists for the three benchmark workloads.

Every input a workload can use comes from a fixed catalogue built from a
constant internal seed: the named polytopes, and random base shapes each in
COPIES images under lattice motions that leave the work of every op
unchanged. A reference digest is therefore recorded for every op the
benchmark can ever run. The run's ``--seed`` picks one image of each base
shape and the order of the ops, so seeds give different inputs of equal work.

Inputs are written as polytope JSON files; the program under test receives
nothing but those files and its command line.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

WORKLOADS = ("cohomology", "verify", "geometry")
TWISTS = (-2, -1, 0, 1, 2)
RINGS = ("Z", "Q", "Zp:2")

CATALOGUE_SEED = "perfbench-catalogue-1"
COPIES = 4
# 4D point sets per point count: the 16-point ones are the 9th to 12th
# slowest `faces` ops, so op_tail_s falls inside a group of like ops
CLOUDS = {12: 2, 14: 2, 16: 4, 18: 4, 20: 2, 22: 1, 24: 1}
# times a light op is timed in one pass of a run's schedule
REPEATS = 2


def _unit(i: int, n: int) -> tuple[int, ...]:
    return tuple(int(i == j) for j in range(n))


NAMED = {
    "CUBE3": [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)],
    "OCTA": [tuple(s * c for c in _unit(i, 3)) for i in range(3) for s in (1, -1)],
    "ICOSA12": sorted(
        p for a in (1, -1) for b in (2, -2) for p in ((0, a, b), (a, b, 0), (b, 0, a))
    ),
    "PERMUTO3": sorted(p[:3] for p in permutations(range(4))),
    "SIMPLEX3": [(0, 0, 0)] + [_unit(i, 3) for i in range(3)],
    "SIMPLEX4": [(0, 0, 0, 0)] + [_unit(i, 4) for i in range(4)],
    # valid trapezoid on which `verify` reports a false facet-irredundancy FAIL
    "TRAPEZOID": [(0, 0), (1, 0), (2, 3), (-1, 3)],
}


# ---------------------------------------------------------------------------
# exact helpers (no polytoric code: generation must not run the program)


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def full_dimensional(points) -> bool:
    n = len(points[0])
    base = points[0]
    diffs = [tuple(p - q for p, q in zip(pt, base)) for pt in points[1:]]
    return any(_det(rows) != 0 for rows in combinations(diffs, n))


def hull_2d(points) -> list[tuple[int, int]]:
    """Vertices of the convex hull of integer points, counter-clockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    upper: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# catalogue


def _random_polygon(rng: random.Random, side: int = 3) -> list[tuple[int, int]]:
    """Hull of 4..7 random points whose bounding box is exactly [0, side]^2."""
    while True:
        pts = [(rng.randint(0, side), rng.randint(0, side)) for _ in range(rng.randint(4, 7))]
        hull = hull_2d(pts)
        box = [(min(c), max(c)) for c in zip(*hull)]
        if len(hull) >= 3 and box == [(0, side), (0, side)]:
            return sorted(hull)


def _random_solid(rng: random.Random, count: int) -> list[tuple[int, int, int]]:
    """`count` points of the cuboctahedron (x^2 + y^2 + z^2 = 2): every one
    of them is a vertex of their hull."""
    sphere = [p for p in product((-1, 0, 1), repeat=3) if sum(c * c for c in p) == 2]
    while True:
        pts = sorted(rng.sample(sphere, count))
        if full_dimensional(pts):
            return pts


def _random_cloud_4d(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    while True:
        pts = sorted({tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(count)})
        if len(pts) == count and full_dimensional(pts):
            return pts


def _box(sides) -> list[tuple[int, ...]]:
    return list(product(*((0, s) for s in sides)))


def _simplex(edge: int, n: int) -> list[tuple[int, ...]]:
    return [tuple(0 for _ in range(n))] + [tuple(edge * x for x in _unit(i, n)) for i in range(n)]


def _translations(n: int, reach: int):
    """Integer translations by vectors in [-reach, reach]^n. Hull, Ehrhart and
    sheaf scans do the same work on a translate: the scan boxes move along
    with the polytope, or do not depend on it (twist 0)."""
    for t in product(range(-reach, reach + 1), repeat=n):
        yield lambda v, t=t: tuple(a + b for a, b in zip(v, t))


def _square_symmetries(side: int):
    """The symmetries of [0, side]^2. They keep every box the verify suites
    scan, where a translate would not."""
    for swap, fx, fy in product((False, True), repeat=3):
        def apply(v, swap=swap, fx=fx, fy=fy):
            x, y = (v[1], v[0]) if swap else v
            return (side - x if fx else x, side - y if fy else y)

        yield apply


@dataclass(frozen=True)
class Polytope:
    name: str
    vertices: tuple[tuple[int, ...], ...]
    family: str  # named, polygon, solid, cloud4, simplex or box
    params: tuple = ()


def _copies(name: str, vertices, family: str, params, rng: random.Random, symmetries):
    """COPIES distinct images of a base shape (fewer if it has few)."""
    images: list[tuple] = []
    for _ in range(8 * COPIES):
        move = rng.choice(symmetries)
        image = tuple(sorted(move(v) for v in vertices))
        if image not in images:
            images.append(image)
        if len(images) == COPIES:
            break
    return [
        Polytope(f"{name}_{c}", images[c % len(images)], family, params) for c in range(COPIES)
    ]


def catalogue() -> dict[str, list[list[Polytope]]]:
    """Every seeded input any run can draw: pool -> base shape -> its copies."""
    rng = random.Random(CATALOGUE_SEED)
    square = list(_square_symmetries(3))
    shift = {n: list(_translations(n, 2)) for n in (2, 3)}
    pools: dict[str, list[list[Polytope]]] = {}
    pools["polygon"] = [
        _copies(f"POLY{i}", _random_polygon(rng), "polygon", (), rng, shift[2]) for i in range(4)
    ]
    pools["verify_polygon"] = [
        _copies(f"VPOLY{i}", _random_polygon(rng), "polygon", (), rng, square) for i in range(12)
    ]
    pools["solid"] = [
        _copies(f"SOLID{n}", _random_solid(rng, n), "solid", (), rng, shift[3]) for n in (6, 7, 8)
    ]
    pools["cloud4"] = [
        _copies(f"CLOUD{n}_{i}", _random_cloud_4d(rng, n), "cloud4", (n,), rng,
                list(_translations(4, 1)))
        for n, count in CLOUDS.items()
        for i in range(count)
    ]
    pools["closed_form"] = (
        [_copies(f"SIMPLEX2_{e}", _simplex(e, 2), "simplex", (e,), rng, shift[2])
         for e in (5, 7, 9, 11, 13, 15, 17, 20)]
        + [_copies(f"BOX2_{a}x{b}", _box((a, b)), "box", (a, b), rng, shift[2])
           for a, b in ((5, 5), (5, 10), (5, 20), (10, 10), (10, 15), (15, 15), (15, 20), (20, 20))]
        + [_copies(f"SIMPLEX3_{e}", _simplex(e, 3), "simplex", (e,), rng, shift[3])
           for e in (2, 3, 4)]
        + [_copies(f"BOX3_{a}x{b}x{c}", _box((a, b, c)), "box", (a, b, c), rng, shift[3])
           for a, b, c in ((1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 2), (1, 3, 3), (2, 2, 3), (2, 3, 3))]
    )
    return pools


def named(name: str) -> Polytope:
    return Polytope(name, tuple(tuple(v) for v in NAMED[name]), "named")


# the named polytopes and the catalogue pools each workload draws from
NAMED_FOR = {
    "cohomology": ("CUBE3", "OCTA", "ICOSA12", "PERMUTO3"),
    "verify": ("SIMPLEX3", "CUBE3", "OCTA", "SIMPLEX4", "TRAPEZOID"),
    "geometry": (),
}
POOLS_FOR = {
    "cohomology": ("polygon", "solid"),
    "verify": ("verify_polygon",),
    "geometry": ("cloud4", "closed_form", "polygon", "solid"),
}


# ---------------------------------------------------------------------------
# ops


@dataclass(frozen=True)
class Op:
    key: str  # stable name, also the reference-digest key
    command: str
    polytope: Polytope
    args: tuple[str, ...]

    def argv(self, input_dir: str) -> list[str]:
        path = os.path.join(input_dir, self.polytope.name + ".json")
        return [self.command, "--json", "--input", path, *self.args]


def ops_on(workload: str, p: Polytope) -> list[Op]:
    if workload == "cohomology":
        return [
            Op(f"cohomology {p.name} {k} {ring}", "cohomology", p, ("--twist", str(k), "--ring", ring))
            for k in TWISTS
            for ring in RINGS
        ]
    if workload == "verify":
        return [Op(f"verify {p.name}", "verify", p, ("--suite", "all"))]
    command = "faces" if p.family == "cloud4" else "ehrhart"
    return [Op(f"{command} {p.name}", command, p, ())]


def polytopes_for(workload: str, seed: int, pools=None) -> list[Polytope]:
    """The polytopes of one run: the named ones, and one seeded image of
    each base shape in the workload's pools."""
    if workload not in POOLS_FOR:
        raise ValueError(f"unknown workload {workload!r}")
    pools = pools if pools is not None else catalogue()
    rng = random.Random(f"{workload}:{seed}")
    chosen = [named(n) for n in NAMED_FOR[workload]]
    for pool in POOLS_FOR[workload]:
        chosen += [rng.choice(copies) for copies in pools[pool]]
    return chosen


def ops_for(workload: str, polytopes: list[Polytope], seed: int) -> list[Op]:
    """The fixed op list of one pass, in its seeded order."""
    ops = [op for p in polytopes for op in ops_on(workload, p)]
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops


def repeats(workload: str, op: Op) -> int:
    """How often `op` is timed in one pass of the schedule. Ops that take
    seconds at this commit are timed once; the lighter ones, among which
    the latency percentiles fall, REPEATS times."""
    p = op.polytope
    if workload == "cohomology":
        heavy = p.name in ("ICOSA12", "PERMUTO3")
    elif workload == "verify":
        heavy = p.family == "named" and p.name != "TRAPEZOID"
    else:
        heavy = p.family == "cloud4" and p.params[0] > 16
    return 1 if heavy else REPEATS


def schedule(workload: str, ops: list[Op], seed: int) -> list[Op]:
    """One pass of timed ops: each op `repeats` times, in a seeded order
    that spreads the repeats of an op over the whole pass."""
    timed = [op for op in ops for _ in range(repeats(workload, op))]
    random.Random(f"schedule:{workload}:{seed}").shuffle(timed)
    return timed


def all_ops(pools=None) -> list[Op]:
    """Every op any seed can produce, for recording reference digests."""
    pools = pools if pools is not None else catalogue()
    ops = []
    for workload, pool_names in POOLS_FOR.items():
        candidates = [named(n) for n in NAMED_FOR[workload]]
        candidates += [p for pool in pool_names for copies in pools[pool] for p in copies]
        ops += [op for p in candidates for op in ops_on(workload, p)]
    return ops


def input_text(p: Polytope) -> str:
    return json.dumps({"vertices": [list(v) for v in p.vertices]}, separators=(",", ":")) + "\n"


def write_inputs(polytopes, input_dir: str) -> None:
    os.makedirs(input_dir, exist_ok=True)
    for p in polytopes:
        with open(os.path.join(input_dir, p.name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(input_text(p))


def generate(workload: str, seed: int, input_dir: str) -> list[Op]:
    """Build the seeded inputs of one run, write them, and return its op list."""
    polytopes = polytopes_for(workload, seed)
    write_inputs(polytopes, input_dir)
    return ops_for(workload, polytopes, seed)
