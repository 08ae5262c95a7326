"""Viewpoint and direction partitions of the boundary complex.

Three partitions of the proper faces: visible/invisible from an outside
point, front/back with respect to a point off the interior, and lower/upper
with respect to a nonzero direction. Each one is decided by exact facet sign
tests; the ray-based definitions are kept as a cross-check oracle on the
vertices and barycenter of each face, each ray decided exactly. ``sheaf``
matches the twist face sets for k in {1, 0, -1} with these partitions, once
per facet-sign class, and proves its membership formula by a per-face
certificate rather than by sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .boundary import FaceSubset, closure
from .linalg import dot, vec_sub
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


def _faces_meeting(lattice: FaceLattice, facet_ids: set[int]) -> frozenset[int]:
    """Proper faces contained in at least one of the given facets."""
    return frozenset(
        f.id
        for f in lattice.faces
        if f.id != lattice.top_id and f.facet_set & facet_ids
    )


def _partition(lattice, kind, x, complex_facets) -> Classification:
    complex_members = _faces_meeting(lattice, complex_facets)
    filter_members = lattice.proper_ids() - complex_members
    filter_side = FaceSubset(lattice, filter_members)
    complex_side = FaceSubset(lattice, complex_members)
    bd = closure(filter_side).intersection(complex_side)
    return Classification(kind, tuple(x), filter_side, complex_side, bd)


def classify_visibility(lattice: FaceLattice, x) -> Classification:
    """Visible faces lie in a facet whose inequality the viewpoint violates."""
    poly = lattice.polytope
    if poly.contains(x):
        raise ValueError("viewpoint inside polytope")
    visible = {i for i, f in enumerate(poly.facets) if f.value(x) < 0}
    return _partition(lattice, "visibility", x, visible)


def classify_front_back(lattice: FaceLattice, x) -> Classification:
    """Back faces lie in a facet keeping the point on its positive side."""
    poly = lattice.polytope
    if poly.contains(x, strict=True):
        raise ValueError("point inside the interior")
    back = {i for i, f in enumerate(poly.facets) if f.value(x) > 0}
    return _partition(lattice, "frontback", x, back)


def classify_lower_upper(lattice: FaceLattice, x) -> Classification:
    """Lower faces lie in a facet whose inward normal has positive pairing with x."""
    poly = lattice.polytope
    if all(c == 0 for c in x):
        raise ValueError("zero direction")
    lower = {i for i, f in enumerate(poly.facets) if dot(x, f.normal) > 0}
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


def _scaled(v) -> tuple[tuple[int, ...], int]:
    """Integer vector and positive factor a with v = vector / a."""
    a = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (a // x.denominator) for x in v), a


def _ray_parameter_interval(poly, p, d):
    """Whether {lam > 0 : p + lam*d in P} is non-empty, decided exactly.

    Each facet restricts lam to a rational half-line or interval; the
    intersection is tracked as a lower and an upper bound. The arithmetic is
    in integers: with p = P/a and d = D/b, facet (n, c) has value
    (<P, n> + a*c)/a at p and slope <D, n>/b along d, so every bound is the
    fraction -(<P, n> + a*c) / <D, n> times the same positive factor b/a.
    Bounds are kept as (numerator, positive denominator) pairs and compared
    by cross-multiplying; the lower bound starts at 0 and is open there.
    """
    pp, a = _scaled(p)
    dd, _ = _scaled(d)
    lo_num, lo_den, lo_open = 0, 1, True
    hi_num, hi_den = None, 1
    for f in poly.facets:
        nv = f.normal
        c = sum(x * y for x, y in zip(pp, nv)) + a * f.offset
        s = sum(x * y for x, y in zip(dd, nv))
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


def _sample_points(lattice, fid):
    """The vertices and the barycenter of a face."""
    pts = [tuple(Fraction(c) for c in v) for v in lattice.vertex_coords(fid)]
    pts.append(lattice.barycenter(fid))
    return pts


def definitional_check(lattice: FaceLattice, kind: str, x, fid: int) -> bool:
    """Consistency of the facet-sign classification with the ray definition.

    Rays start at the face's vertices and at its barycenter. A point in the
    relative interior of a face G gets the same ray verdict as G (the facets
    tight there are those of G), so points inside a face add nothing beyond
    the verdicts of its subfaces, each of which is checked on its own.
    Emptiness of each ray's rational parameter range is decided exactly: a
    face on the escaping side must never re-enter, and a face on the other
    side must exhibit a re-entry witness. The partition is computed once per
    (kind, x) and kept on the lattice.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown classification kind {kind!r}")
    cached = lattice._cache.setdefault("classifications", {})
    key = (kind, tuple(x))
    if key not in cached:
        cached[key] = classify(lattice, kind, x)
    cls = cached[key]
    poly = lattice.polytope
    on_complex_side = fid in cls.complex_side
    xq = tuple(Fraction(c) for c in x)
    hits = []
    for p in _sample_points(lattice, fid):
        if kind == "visibility":
            d = vec_sub(xq, p)
        elif kind == "frontback":
            d = vec_sub(p, xq)
        else:
            d = tuple(-c for c in xq)
        hits.append(_ray_parameter_interval(poly, p, d))
    if on_complex_side:
        # visible / back / lower: every ray must leave immediately
        return not any(hits)
    return any(hits)


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
