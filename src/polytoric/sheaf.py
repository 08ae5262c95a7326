"""Lattice-point graded pieces of twisted structure sheaves and their
cohomology on the toric variety of a polytope.

For a twist k and a lattice point x, the faces F with x in C_F + kF (barrier
cone translated by the dilated face) select a subcomplex of the face cochain
complex. Its cohomology is the x-graded piece of H^*(X; F(k)); summing over a
box of lattice points, whose outer shell is checked acyclic, gives the
global answer (``global_cohomology`` says what is checked and what is
sampled). The subcomplex depends only on the signs of the facet functionals
at x, so one complex is kept per facet-sign class, for every twist and
ring: the restriction to what free-pair coreduction leaves of the class's
face set, which has the same cohomology (``homology.face_set_complexes``,
the route verify's ball and sphere sets take too). On every input the tests
cover, an acyclic class leaves nothing, a point of kP one vertex and an
interior point of -kP the top face. Classes with one remainder share one
complex, and each distinct complex's cohomology over Z, Q and Z/p is
computed once, from its Smith forms (``homology.cohomology``). The tests
keep the full restriction as the oracle. The closed-form contributors and
the scan both read the odometer line kernel, ``ehrhart.line_values``: on
each line of the box every facet holds on one interval, whose end the scan
reads off the facet's value at the line's prefix, so it cuts the line at
those ends into at most F + 1 runs of one class (F facets), keyed by its
facet bitmask (bit j set iff facet j holds). The scan visits every line of
the box, since the shell check needs them all; the contributors sweep only
the lines of the projections of kP. The new classes of a scan are coreduced
in one bit-sliced batch, read straight off those bitmasks. Only runs of
non-trivial classes are expanded into points. ``class_points`` reads
the first point of each realized class off the cached runs; ``verify`` runs
its checks on those.

Every facet-sign question at a point, the signature of a class, the members
of a twist face set and the sides of the classifications, is one
``LatticePolytope.holds`` mask. Membership is decided two ways: by the facet
inequalities (the fast formula, ``twist_members``) and by an oracle on the
barrier-cone generators. ``membership_certificate`` proves the two equal for
every x and k with one comparison per face: the dual rays of C_F must be the
primitive normals of the facets through F, each tight at F's lex-min vertex.
The oracle's dual-cone rays come from the same double-description kernel as
the facets, run once per vertex cone; the tests compare formula and oracle
point by point and check both against Fourier-Motzkin feasibility
(``lp.cone_contains``), which shares no code with either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .classify import classify_front_back, classify_lower_upper, classify_visibility
from .ehrhart import check_plan, dilate_box, dilate_points, line_values, sign_groups
from .homology import CohomologyResult, IntegerChainComplex, cohomology, face_set_complexes
from .linalg import dot, primitive_vector, vec_neg, vec_sub
from .lp import dual_cone_rays
from .polytope import FaceLattice, iter_bits, union_over

MARGIN = 2  # scan box reach beyond kP; reports carry the box, so it is fixed
DISTANT_POINT_COUNT = 32
DISTANT_COORD_BOUND = 50


@dataclass(frozen=True)
class TwistFaceSet:
    """Faces F with x in C_F + kF as a face-id bitmask; holds the top face, upward closed."""

    k: int
    x: tuple[int, ...]
    mask: int

    @property
    def members(self) -> frozenset[int]:
        return frozenset(iter_bits(self.mask))


@dataclass(frozen=True)
class GlobalCohomology:
    """Sum of the graded pieces over a scan box.

    ``shell_certified`` records that every point on the box's outer shell was
    checked acyclic; see ``global_cohomology``.
    """

    k: int
    ring: str
    free: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    contributors: tuple[tuple[tuple[int, ...], int], ...]
    scan_box: tuple[tuple[int, int], ...]
    shell_certified: bool

    def free_rank(self, degree: int) -> int:
        return self.free[degree] if 0 <= degree < len(self.free) else 0

    def has_torsion(self) -> bool:
        return any(self.torsion)


def _barrier_cone_rays(lattice: FaceLattice, fid: int):
    # p - f = (p - v0) + (v0 - f), so C_F = C_v0 + lin(F - v0) with C_v0 =
    # cone(P - v0), and Dual(C_F) is the face of Dual(C_v0) that F - v0 cuts
    # out: the rays of the vertex cone orthogonal to every f - v0. Those pair
    # non-negatively with each such ray, so it suffices that the ray is
    # orthogonal to their sum. One double description per vertex v0, kept on
    # the lattice, serves all its faces; v0 is F's lex-min vertex.
    coords = lattice.vertex_coords(fid)
    v0 = coords[0]
    cones = lattice._cache.setdefault("vertex_cone_rays", {})
    if v0 not in cones:
        poly = lattice.polytope
        cones[v0] = dual_cone_rays([vec_sub(p, v0) for p in poly.vertices], poly.dim)
    total = [sum(c) - len(coords) * a for c, a in zip(zip(*coords), v0)]
    return tuple(r for r in cones[v0] if not dot(total, r))


def membership_oracle(lattice: FaceLattice, k: int, fid: int, x) -> bool:
    """Whether x lies in C_F + kF, via the generator description of C_F.

    C_F is the cone spanned by all vertex differences P - F, and kF + C_F
    equals k*v + C_F for any vertex v of F (F - F lies in C_F). Membership of
    x - k*v in the cone is decided by Farkas duality, through the cached
    extreme rays of the dual cone.
    """
    v0 = lattice.lex_min_vertex(fid)
    y = tuple(xi - k * vi for xi, vi in zip(x, v0))
    return all(dot(y, r) >= 0 for r in _barrier_cone_rays(lattice, fid))


def membership_certificate(lattice: FaceLattice) -> bool:
    """Whether the facet formula of ``twist_members`` equals ``membership_oracle``
    for all x and k.

    Per face F: the dual rays of C_F are exactly the primitive normals of the
    facets through F, one ray per facet, and each of those facets vanishes at
    the lex-min vertex v0. Then <x - k*v0, r> >= 0 is <x, n_i> + k*c_i >= 0
    scaled by 1/gcd(n_i), ray by ray. The top face has no facets and no rays.
    """
    facets = lattice.polytope.facets
    for fid, on in enumerate(lattice.facet_masks):
        rays = _barrier_cone_rays(lattice, fid)
        through = [facets[i] for i in iter_bits(on)]
        if len(rays) != len(through) or set(rays) != {primitive_vector(f.normal) for f in through}:
            return False
        v0 = lattice.lex_min_vertex(fid)
        if any(f.value(v0) != 0 for f in through):
            return False
    return True


def twist_members(lattice: FaceLattice, k: int, x) -> int:
    """Face-id bitmask of the faces F with x in C_F + kF, unchecked: F is kept
    iff every facet through it holds at x, <x, n_i> + k*c_i >= 0, which one
    ``LatticePolytope.holds`` pass answers for all faces. The top face is on
    no facet and is always kept."""
    held = lattice.polytope.holds(x, k)
    return sum(1 << f for f, m in enumerate(lattice.facet_masks) if not m & ~held)


def twist_face_set(lattice: FaceLattice, k: int, x) -> TwistFaceSet:
    members = twist_members(lattice, k, x)
    if union_over(lattice.above_masks, members) != members:
        raise RuntimeError(f"twist face set at {tuple(x)} is not upward closed")
    return TwistFaceSet(k, tuple(x), members)


def graded_cohomology(lattice: FaceLattice, k: int, x, ring: str = "Z") -> CohomologyResult:
    """Cohomology of the graded piece at x, read from its class's coreduced
    complex, which ``global_cohomology`` shares."""
    (complex_,) = _class_complexes(lattice, [lattice.polytope.holds(x, k)])
    return cohomology(complex_, ring)


# ---------------------------------------------------------------------------
# cross-checks against the face classifications


def classification_crosscheck(lattice: FaceLattice, k: int, x) -> bool:
    """Whether the twist face set matches its classification description.

    k = 1: proper members are the faces invisible from x (x outside P);
    k = 0: proper members are the upper faces for the direction -x (x != 0);
    k = -1: proper members are the front faces seen from -x (x outside the
    interior of -P). The facets of -P are (-n_i, c_i), so x -> -x maps the
    front faces of -P seen from x onto these, and -P is never built.
    """
    poly = lattice.polytope
    proper_members = twist_members(lattice, k, x) & lattice.proper_mask
    if k == 1:
        if poly.contains(x):
            raise ValueError("crosscheck for k=1 needs x outside P")
        return proper_members == classify_visibility(lattice, x).filter_side.mask
    if k == 0:
        if all(c == 0 for c in x):
            raise ValueError("crosscheck for k=0 needs x != 0")
        expected = classify_lower_upper(lattice, vec_neg(x)).filter_side.mask
        return proper_members == expected
    if k == -1:
        if poly.contains(vec_neg(x), strict=True):
            raise ValueError("crosscheck for k=-1 needs x outside the interior of -P")
        return proper_members == classify_front_back(lattice, vec_neg(x)).filter_side.mask
    raise ValueError("crosscheck is defined for k in {1, 0, -1}")


# ---------------------------------------------------------------------------
# global cohomology over a certified box


def scan_box(poly, k: int) -> tuple[tuple[int, int], ...]:
    """Bounding box of kP (unit box around 0 for k = 0), inflated by ``MARGIN``."""
    if k == 0:
        return tuple((-1 - MARGIN, 1 + MARGIN) for _ in range(poly.dim))
    return tuple((lo - MARGIN, hi + MARGIN) for lo, hi in dilate_box(poly, k))


def _class_face_set(lattice: FaceLattice, sig: int) -> int:
    """Face-id bitmask (bit f for face f) of the faces on no facet that fails
    in the class's signature, a ``holds`` mask; bit j of ~sig is set iff
    facet j fails."""
    return (1 << len(lattice)) - 1 & ~lattice.faces_on(~sig)


def _live_masks(lattice: FaceLattice, sigs: list[int]) -> list[int]:
    """Per face f, the bitmask of the classes c whose face set holds f: those
    where every facet through f holds in ``sigs[c]``. The signatures are
    transposed into one class bitmask per facet by slicing each facet's
    column out of one binary string, measured faster than bit loops."""
    width = len(lattice.polytope.facets)
    bits = "".join([format(sig, f"0{width}b") for sig in reversed(sigs)])
    held = [int(bits[width - 1 - j :: width] or "0", 2) for j in range(width)]
    live = [(1 << len(sigs)) - 1] * len(lattice)  # the top face is on no facet
    for f, on in enumerate(lattice.facet_masks):
        while on:
            low = on & -on
            live[f] &= held[low.bit_length() - 1]
            on ^= low
    return live


def _class_complexes(lattice: FaceLattice, sigs) -> list[IntegerChainComplex]:
    """Coreduced complex of each facet-sign class, kept once per lattice.

    Signature bit j says whether facet j holds; the class's face set (the
    faces whose facets all hold) depends on nothing else, so its complex is
    shared by every twist and ring. The new classes go through
    ``homology.face_set_complexes`` in one batch, read off ``_live_masks``;
    almost every class leaves nothing, and classes with one remainder share
    one complex and its Smith forms.
    """
    cache = lattice._cache.setdefault("sign_classes", {})
    todo = [sig for sig in sigs if sig not in cache]
    if todo:
        cache.update(zip(todo, face_set_complexes(lattice, _live_masks(lattice, todo), len(todo))))
    return [cache[sig] for sig in sigs]


def _distant_points(poly, k: int, box) -> list[tuple[int, ...]]:
    """``DISTANT_POINT_COUNT`` seeded points outside the box, drawn from the
    cube [-B, B]^n with B = ``DISTANT_COORD_BOUND``. A box that covers that
    cube leaves no point of it outside, so the cube then reaches B beyond the
    box on every side."""
    bound = DISTANT_COORD_BOUND
    if all(lo <= -bound and hi >= bound for lo, hi in box):
        bound += max(max(-lo, hi) for lo, hi in box)
    rng = random.Random(f"distant:{k}:{poly.vertices}")
    draw, width = rng.randrange, 2 * bound + 1  # randint(-bound, bound), with less call overhead
    distant = []
    while len(distant) < DISTANT_POINT_COUNT:
        x = tuple(draw(width) - bound for _ in range(poly.dim))
        if not all(lo <= xi <= hi for xi, (lo, hi) in zip(x, box)):
            distant.append(x)
    return distant


def _scan(lattice: FaceLattice, k: int):
    """Ring-free part of ``global_cohomology``, kept on the lattice per twist:
    the signature of each class, the runs ``(class id, prefix, first, last)``
    of one class each that tile ``scan_box(P, k)``, and the class id of every
    distant point. A line is cut where a facet span starts or ends, so its
    runs tile it in order and neighbours differ. Classes are numbered by
    first appearance, box before distant points.
    """
    cache = lattice._cache.setdefault("scans", {})
    if k in cache:
        return cache[k]
    poly = lattice.polytope
    box = scan_box(poly, k)
    lo, hi = box[-1]
    rows = [(f.normal, k * f.offset) for f in poly.facets]
    order, ups, downs = sign_groups(rows)
    bits = [1 << i for i in order]
    p = len(ups)
    q = p + len(downs)
    ups = list(zip(ups, bits))
    downs = list(zip(downs, bits[p:]))
    flats = bits[q:]
    classes: dict[int, int] = {}
    runs = []
    for prefix, values in line_values([rows[i] for i in order], box):
        sig = 0  # the facets that hold at lo
        cuts = {}  # the facet bits that switch on or off at each t > lo
        for v, (c, bit) in zip(values, ups):
            t = -(v // c)  # the first t that holds
            if t <= lo:
                sig |= bit
            elif t <= hi:
                cuts[t] = cuts.get(t, 0) ^ bit
        for v, (c, bit) in zip(values[p:q], downs):
            t = v // c + 1  # the first t that fails
            if t > lo:
                sig |= bit
                if t <= hi:
                    cuts[t] = cuts.get(t, 0) ^ bit
        for v, bit in zip(values[q:], flats):
            if v >= 0:
                sig |= bit
        first = lo
        for t in sorted(cuts):
            runs.append((classes.setdefault(sig, len(classes)), prefix, first, t - 1))
            sig ^= cuts[t]
            first = t
        runs.append((classes.setdefault(sig, len(classes)), prefix, first, hi))
    distant_ids = []
    for x in _distant_points(poly, k, box):
        distant_ids.append(classes.setdefault(poly.holds(x, k), len(classes)))
    cache[k] = (list(classes), runs, distant_ids)
    return cache[k]


def class_points(lattice: FaceLattice, k: int) -> list[tuple]:
    """(signature, first box point) of each class realized in the scan box, in
    scan order, read off the first run of each class in ``_scan``."""
    sigs, runs, _ = _scan(lattice, k)
    # walking backwards, the last run written for a class is its first
    first = {c: prefix + (t,) for c, prefix, t, _ in reversed(runs)}
    return [(sigs[c], first[c]) for c in range(len(first))]


def global_cohomology(lattice: FaceLattice, k: int, ring: str = "Z") -> GlobalCohomology:
    """Degreewise sum of the graded cohomology over all lattice points.

    The scan covers ``scan_box(P, k)``, the bounding box of kP inflated by
    ``MARGIN``, and every point in it is computed exactly. Checked: every
    point on the box's outermost shell is acyclic, else ``RuntimeError``.
    ``shell_certified`` (``shellCertified`` in reports) means this check
    passed; it is not a proof that nothing outside the box contributes.
    Sampled: a fixed set of ``DISTANT_POINT_COUNT`` pseudo-random points
    outside the box must be acyclic too, a spot check and not a proof. A box
    over ``ehrhart.check_plan``'s listing budget is refused before it is swept.
    The facet-sign runs of the box are computed once per twist and shared
    by every ring.
    """
    n = lattice.polytope.dim
    box = scan_box(lattice.polytope, k)
    check_plan(listed=[("scan", box)])
    sigs, runs, distant_ids = _scan(lattice, k)
    complexes = _class_complexes(lattice, sigs)
    # one cohomology per distinct complex; most classes share the empty one
    distinct = {id(c): c for c in complexes}
    computed = {key: cohomology(c, ring) for key, c in distinct.items()}
    results = [computed[id(c)] for c in complexes]

    free = [0] * (n + 1)
    torsion: list[list[int]] = [[] for _ in range(n + 1)]
    contributors = []
    trivial = [res.is_trivial() for res in results]
    lo, hi = box[-1]
    # only the runs of non-trivial classes are expanded into points
    for c, prefix, first, last in runs:
        if trivial[c]:
            continue
        if first == lo or last == hi or any(xi in b for xi, b in zip(prefix, box)):
            raise RuntimeError("scan shell is not acyclic")
        res = results[c]
        length = last - first + 1
        for d in range(n + 1):
            fr = res.free_rank(d)
            tor = res.torsion_at(d)
            if fr or tor:
                free[d] += fr * length
                torsion[d].extend(tor * length)
                contributors.extend((prefix + (t,), d) for t in range(first, last + 1))
    if not all(trivial[i] for i in distant_ids):
        raise RuntimeError("distant lattice point is not acyclic")
    return GlobalCohomology(
        k,
        ring,
        tuple(free),
        tuple(tuple(sorted(t)) for t in torsion),
        tuple(sorted(contributors)),
        box,
        True,
    )


def expected_contributors(lattice: FaceLattice, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Contributors the closed form predicts: kP points in degree 0 for k >= 0,
    interior points of kP in degree n for k < 0. A dilate box over
    ``ehrhart.check_plan``'s listing budget is refused before it is enumerated."""
    poly = lattice.polytope
    check_plan(listed=[("dilate", dilate_box(poly, k))])
    degree = 0 if k >= 0 else poly.dim
    return tuple(sorted((x, degree) for x in dilate_points(poly, k, k < 0)))
