"""Full-dimensional lattice polytopes: facet inequalities and the face lattice.

A polytope is built from its integer vertices; its facets are the extreme
rays of the dual of the cone over the homogenized points (1, p), computed by
the exact double description in ``lp.dual_cone_rays``. After the hull, no
linear algebra is needed: an input point is a vertex iff it is the only
input point on all of the facets through it, faces are the intersections
of facet vertex sets (int bitmasks of vertex ids), and each face is graded
as one more than the largest dimension below it. ``faces_on`` answers
"which faces lie on these facets" for ``sheaf`` and ``classify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .linalg import dot, rank_rational, vec_neg, vec_sub
from .lp import dual_cone_rays


@dataclass(frozen=True)
class Facet:
    """Inequality <x, normal> + offset >= 0 with a primitive inward normal."""

    normal: tuple[int, ...]
    offset: int

    def value(self, x: Sequence):
        return dot(x, self.normal) + self.offset


@dataclass(frozen=True)
class LatticePolytope:
    dim: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[Facet, ...]
    discarded: tuple[tuple[int, ...], ...] = ()

    def contains(self, x: Sequence, strict: bool = False) -> bool:
        """Membership test; strict means the topological interior."""
        if len(x) != self.dim:
            raise ValueError("point has wrong dimension")
        for f in self.facets:
            v = f.value(x)
            if v < 0 or (strict and v == 0):
                return False
        return True

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (min(v[i] for v in self.vertices), max(v[i] for v in self.vertices))
            for i in range(self.dim)
        )


def _check_integer_point(p: Sequence, dim: int | None) -> tuple[int, ...]:
    tp = tuple(p)
    if dim is not None and len(tp) != dim:
        raise ValueError("points of mixed dimension")
    out = []
    for x in tp:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"non-integral coordinate {x}")
            x = x.numerator
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"non-integer coordinate {x!r}")
        out.append(x)
    return tuple(out)


def build_polytope(points: Iterable[Sequence[int]]) -> LatticePolytope:
    """Convex hull of integer points; the hull must be full-dimensional.

    Input points that are not vertices of the hull are dropped and recorded
    in ``discarded``. Raises ValueError for degenerate input.
    """
    dedup: list[tuple[int, ...]] = []
    seen = set()
    dim = None
    for p in points:
        tp = _check_integer_point(p, dim)
        dim = len(tp)
        if tp not in seen:
            seen.add(tp)
            dedup.append(tp)
    if dim is None:
        raise ValueError("no points given")
    if dim == 0:
        raise ValueError("points need at least one coordinate")
    if len(dedup) < dim + 1:
        raise ValueError(f"need at least {dim + 1} distinct points in dimension {dim}")
    base = dedup[0]
    if rank_rational([vec_sub(p, base) for p in dedup[1:]]) < dim:
        raise ValueError("degenerate polytope: points do not affinely span the space")

    # facets are the rays (offset, normal) of the dual of the cone over {(1, p)}
    rays = dual_cone_rays([(1,) + p for p in dedup], dim + 1)
    facets = [Facet(nrm, off) for nrm, off in sorted((r[1:], r[0]) for r in rays)]
    # p is a vertex iff it is the only input point on all of the facets through it
    on = [sum(1 << i for i, q in enumerate(dedup) if f.value(q) == 0) for f in facets]
    vertices = []
    discarded = []
    for i, p in enumerate(dedup):
        common = (1 << len(dedup)) - 1
        for m in on:
            if m >> i & 1:
                common &= m
        (vertices if common == 1 << i else discarded).append(p)
    vertices.sort()
    discarded.sort()

    poly = LatticePolytope(dim, tuple(vertices), tuple(facets), tuple(discarded))
    _validate(poly)
    return poly


def _validate(poly: LatticePolytope) -> None:
    for f in poly.facets:
        values = [f.value(v) for v in poly.vertices]
        if any(v < 0 for v in values):
            raise ValueError("facet inequality violated by a vertex")
        if not any(v > 0 for v in values):
            raise ValueError("facet does not support the polytope properly")
        on = [v for v, val in zip(poly.vertices, values) if val == 0]
        if rank_rational([vec_sub(p, on[0]) for p in on[1:]]) != poly.dim - 1:
            raise ValueError("supporting hyperplane does not span a facet")


def negate_polytope(poly: LatticePolytope) -> LatticePolytope:
    """The reflection -P through the origin."""
    return build_polytope([vec_neg(v) for v in poly.vertices])


# ---------------------------------------------------------------------------
# face lattice


def mask_bits(mask: int) -> frozenset[int]:
    """The positions of the set bits of an int bitmask."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def transpose_bits(masks: Sequence[int], width: int) -> list[int]:
    """Bit i of out[j] is bit j of masks[i], for j < width; one step per set
    bit, so cheap on sparse masks."""
    out = [0] * width
    for i, mask in enumerate(masks):
        while mask:
            out[(mask & -mask).bit_length() - 1] |= 1 << i
            mask &= mask - 1
    return out


@dataclass(frozen=True)
class Face:
    id: int
    vertex_set: frozenset[int]
    facet_set: frozenset[int]
    dim: int


class FaceLattice:
    """All non-empty faces of a polytope, graded by dimension.

    Faces are the intersections of facet vertex sets, found as int bitmasks
    of vertex ids with no linear algebra. The face poset is graded, so a
    face's dimension is one more than the largest dimension strictly below
    it, and vertices have dimension 0 (Ziegler, *Lectures on Polytopes*,
    1995, Sec. 2.2). Faces are indexed in a fixed order (by dimension, then
    by vertex set), so face ids form a linear extension of the partial
    order. ``facet_masks[f]`` has bit j set iff facet j passes through face
    f. The join of two faces is the face whose facet set is the
    intersection of theirs; the top face has the empty facet set.
    """

    def __init__(self, polytope: LatticePolytope):
        self.polytope = polytope
        members = [
            sum(1 << i for i, v in enumerate(polytope.vertices) if f.value(v) == 0)
            for f in polytope.facets
        ]
        masks = {(1 << len(polytope.vertices)) - 1}
        frontier = {m for m in members if m}
        while frontier:
            masks |= frontier
            frontier = {vs & m for vs in frontier for m in members if vs & m} - masks

        by_size = sorted(masks, key=int.bit_count)
        below: dict[int, list[int]] = {}
        above: dict[int, list[int]] = {m: [] for m in masks}
        dims = {}
        for i, m in enumerate(by_size):
            below[m] = [s for s in by_size[:i] if s & m == s]
            dims[m] = 1 + max((dims[s] for s in below[m]), default=-1)
            below[m].append(m)
            for s in below[m]:
                above[s].append(m)
        order = sorted(masks, key=lambda m: (dims[m], sorted(mask_bits(m))))
        fid = {m: i for i, m in enumerate(order)}
        self.facet_masks = tuple(
            sum(1 << j for j, fm in enumerate(members) if m & fm == m) for m in order
        )
        self.faces = tuple(
            Face(i, mask_bits(m), mask_bits(fm), dims[m])
            for i, (m, fm) in enumerate(zip(order, self.facet_masks))
        )
        self.top_id = len(self.faces) - 1
        self._proper_ids = frozenset(range(self.top_id))
        self.facet_members = tuple(map(mask_bits, members))
        self._by_vertex_set = {f.vertex_set: f.id for f in self.faces}
        self._by_facet_set = {f.facet_set: f.id for f in self.faces}
        self._above = tuple(frozenset(map(fid.get, above[m])) for m in order)
        self._below = tuple(frozenset(map(fid.get, below[m])) for m in order)
        self._cache: dict = {}

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.faces)

    def face(self, fid: int) -> Face:
        if not 0 <= fid < len(self.faces):
            raise ValueError(f"no face with id {fid}")
        return self.faces[fid]

    def leq(self, a: int, b: int) -> bool:
        return b in self._above[a]

    def above(self, fid: int) -> frozenset[int]:
        return self._above[fid]

    def below(self, fid: int) -> frozenset[int]:
        return self._below[fid]

    def join(self, a: int, b: int) -> int:
        return self._by_facet_set[self.face(a).facet_set & self.face(b).facet_set]

    def proper_ids(self) -> frozenset[int]:
        return self._proper_ids

    @cached_property
    def _faces_on_facet(self) -> tuple[int, ...]:
        """Per facet, the face-id bitmask of the faces on it (``facet_masks`` transposed)."""
        return tuple(
            sum(1 << f for f, mask in enumerate(self.facet_masks) if mask >> j & 1)
            for j in range(len(self.polytope.facets))
        )

    def faces_on(self, facets: int) -> int:
        """Face-id bitmask (bit f for face f) of the faces on at least one facet
        of the facet bitmask (bit j for facet j); the top face is on none."""
        out = 0
        facets &= (1 << len(self._faces_on_facet)) - 1  # callers may pass ~mask
        while facets:
            out |= self._faces_on_facet[(facets & -facets).bit_length() - 1]
            facets &= facets - 1
        return out

    def faces_of_dim(self, d: int) -> tuple[int, ...]:
        return tuple(f.id for f in self.faces if f.dim == d)

    def face_by_vertices(self, vs: frozenset[int]) -> int | None:
        return self._by_vertex_set.get(frozenset(vs))

    def vertex_coords(self, fid: int) -> tuple[tuple[int, ...], ...]:
        verts = self.polytope.vertices
        return tuple(sorted(verts[i] for i in self.face(fid).vertex_set))

    def lex_min_vertex(self, fid: int) -> tuple[int, ...]:
        return self.vertex_coords(fid)[0]

    def face_label(self, fid: int) -> str:
        f = self.face(fid)
        if fid == self.top_id:
            return "P"
        coords = self.vertex_coords(fid)
        if f.dim == 0:
            return f"vertex {coords[0]}"
        pts = ", ".join(str(c) for c in coords)
        return f"{f.dim}-face {{{pts}}}"


def face_lattice(polytope: LatticePolytope) -> FaceLattice:
    return FaceLattice(polytope)


def join(lattice: FaceLattice, a: int, b: int) -> int:
    """Smallest face containing both given faces."""
    return lattice.join(a, b)
