"""Viewpoint and direction partitions of the boundary complex.

Three partitions of the proper faces: visible/invisible from an outside
point, front/back with respect to a point off the interior, and lower/upper
with respect to a nonzero direction. Each one is decided by one pass of
facet sign tests, ``LatticePolytope.holds`` at k = 1 (visibility, and
front/back strictly) or k = 0 strictly (lower/upper), which also tells
whether the point is in the domain; the sides are face-id bitmasks read off
``FaceLattice.faces_on``. The ray-based definitions are kept as a
cross-check oracle on the vertices and barycenter of each face, decided
exactly in integers in one pass per classification: one ray per vertex,
however many faces share it. ``sheaf`` matches the twist face sets for k in
{1, 0, -1} with these partitions, once per facet-sign class, and proves its
membership formula by a per-face certificate rather than by sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .boundary import FaceSubset, closure
from .linalg import scale_to_integers
from .polytope import FaceLattice

KINDS = ("visibility", "frontback", "lowerupper")


@dataclass(frozen=True)
class Classification:
    """One partition of the boundary complex.

    ``filter_side`` is the order-filter half (Inv / Front / Up),
    ``complex_side`` is the subcomplex half (Vis / Back / Low), and
    ``boundary`` is their interface: closure(filter) intersected with the
    complex side.
    """

    kind: str
    point: tuple
    filter_side: FaceSubset
    complex_side: FaceSubset
    boundary: FaceSubset


def _partition(lattice, kind, x, complex_facets: int) -> Classification:
    complex_side = FaceSubset(lattice, lattice.faces_on(complex_facets))
    filter_side = complex_side.complement()
    bd = closure(filter_side).intersection(complex_side)
    return Classification(kind, tuple(x), filter_side, complex_side, bd)


def classify_visibility(lattice: FaceLattice, x) -> Classification:
    """Visible faces lie in a facet whose inequality the viewpoint violates."""
    poly = lattice.polytope
    held = poly.holds(x)
    if held.bit_count() == len(poly.facets):
        raise ValueError("viewpoint inside polytope")
    return _partition(lattice, "visibility", x, ~held)


def classify_front_back(lattice: FaceLattice, x) -> Classification:
    """Back faces lie in a facet keeping the point on its positive side."""
    poly = lattice.polytope
    back = poly.holds(x, strict=True)
    if back.bit_count() == len(poly.facets):
        raise ValueError("point inside the interior")
    return _partition(lattice, "frontback", x, back)


def classify_lower_upper(lattice: FaceLattice, x) -> Classification:
    """Lower faces lie in a facet whose inward normal has positive pairing with x."""
    lower = lattice.polytope.holds(x, 0, strict=True)
    if all(c == 0 for c in x):
        raise ValueError("zero direction")
    return _partition(lattice, "lowerupper", x, lower)


def classify(lattice: FaceLattice, kind: str, x) -> Classification:
    if kind == "visibility":
        return classify_visibility(lattice, x)
    if kind == "frontback":
        return classify_front_back(lattice, x)
    if kind == "lowerupper":
        return classify_lower_upper(lattice, x)
    raise ValueError(f"unknown classification kind {kind!r}")


# ---------------------------------------------------------------------------
# ray-based cross-check


def _ray_meets(poly, pp, a, dd) -> bool:
    """Whether {lam > 0 : p + lam*d in P} is non-empty, decided exactly, for
    p = pp/a and d a positive multiple of dd.

    Each facet (n, c) bounds lam by -(<pp, n> + a*c) / <dd, n>, up to one
    common positive factor; the bounds are kept as (numerator, positive
    denominator) pairs and compared by cross-multiplying. The lower bound
    starts at 0 and is open there.
    """
    lo_num, lo_den, lo_open = 0, 1, True
    hi_num, hi_den = None, 1
    for f in poly.facets:
        nv = f.normal
        c = sum(map(mul, pp, nv)) + a * f.offset
        s = sum(map(mul, dd, nv))
        if s == 0:
            if c < 0:
                return False
            continue
        if s > 0:
            # lam >= -c/s
            if -c * lo_den > lo_num * s:
                lo_num, lo_den, lo_open = -c, s, False
        elif hi_num is None or c * hi_den < hi_num * -s:
            # lam <= c/(-s)
            hi_num, hi_den = c, -s
    if hi_num is None:
        return True
    if lo_num * hi_den < hi_num * lo_den:
        return True
    return lo_num * hi_den == hi_num * lo_den and not lo_open


def definitional_check(c: Classification) -> int:
    """Face-id mask of the proper faces whose ray verdict disagrees with their
    side in ``c``; 0 if the partition agrees with the ray definition. A
    visible / back / lower face must have no ray that re-enters P, any other
    face one. Rays start at a face's vertices and barycenter: a point inside a
    face G gets G's verdict (the facets tight there are G's), so it adds
    nothing beyond the verdicts of G's subfaces, each checked on its own.
    Each ray is decided exactly, in integers: one per vertex, and a
    barycenter's only for a face none of whose vertex rays re-enters.
    """
    lattice = c.complex_side.lattice
    poly = lattice.polytope
    xx, b = scale_to_integers(c.point)  # x = xx/b

    def meets(pp, a) -> bool:  # the ray from pp/a
        if c.kind == "lowerupper":
            return _ray_meets(poly, pp, a, tuple(-xi for xi in xx))
        # x - p (visibility) or p - x (frontback), times a*b > 0
        sign = 1 if c.kind == "visibility" else -1
        return _ray_meets(poly, pp, a, tuple(sign * (a * xi - b * pi) for xi, pi in zip(xx, pp)))

    hits = sum(1 << i for i, v in enumerate(poly.vertices) if meets(v, 1))
    hit_faces = 0
    for f in range(lattice.top_id):
        if lattice.vertex_masks[f] & hits:
            hit_faces |= 1 << f
        elif lattice.dims[f]:
            coords = lattice.vertex_coords(f)
            hit_faces |= meets(tuple(map(sum, zip(*coords))), len(coords)) << f
    # inconsistent: a complex-side face that is hit, a filter-side one that is not
    return lattice.proper_mask & ~(hit_faces ^ c.complex_side.mask)


# ---------------------------------------------------------------------------
# deterministic viewpoint sampling (shared by the verification suites)


def sample_viewpoints(poly, kind: str, count: int = 8, seed: int = 0) -> list[tuple]:
    """Deterministic rational sample points in the domain of a classification."""
    n = poly.dim
    rng = random.Random(f"{seed}:{kind}:{poly.vertices}")
    box = poly.bounding_box()
    out: list[tuple] = []
    seen = set()

    def push(x) -> None:
        if len(out) >= count or x in seen:
            return
        try:
            if kind == "visibility" and poly.contains(x):
                return
            if kind == "frontback" and poly.contains(x, strict=True):
                return
            if kind == "lowerupper" and all(c == 0 for c in x):
                return
        except ValueError:
            return
        seen.add(x)
        out.append(x)

    if kind == "lowerupper":
        for i in range(n):
            unit = tuple(Fraction(int(i == j)) for j in range(n))
            push(unit)
            push(tuple(-c for c in unit))
        push(tuple(Fraction(1) for _ in range(n)))
    else:
        for i in range(n):
            lo, hi = box[i]
            push(tuple(Fraction(hi + 2) if j == i else Fraction(lo) for j in range(n)))
            push(tuple(Fraction(lo - 2) if j == i else Fraction(hi) for j in range(n)))
        push(tuple(Fraction(hi + 1) for _, hi in box))
        if kind == "frontback":
            for v in poly.vertices[:2]:
                push(tuple(Fraction(c) for c in v))
    guard = 0
    while len(out) < count and guard < 1000:
        guard += 1
        cand = tuple(
            Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(n)
        )
        push(cand)
    if len(out) < count:
        raise RuntimeError("could not sample enough viewpoints")
    return out
