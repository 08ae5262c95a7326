"""Full-dimensional lattice polytopes: facet inequalities and the face lattice.

A polytope is built from its integer vertices; its facets are the extreme
rays of the dual of the cone over the homogenized points (1, p), computed by
the exact double description in ``lp.dual_cone_rays``. One pass of facet
values over the input points gives the vertices (the points alone on all of
the facets through them), the checks of ``_validate`` and the incidence, per
facet the int bitmask of the vertex ids on it, which the face lattice is
read off with no linear algebra. ``faces_on`` answers "which faces lie on
these facets" for ``sheaf`` and ``classify``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, mul, or_
from typing import Iterable, Iterator, Sequence

from .linalg import dot, rank_rational, vec_sub
from .lp import dual_cone_rays


@dataclass(frozen=True)
class Facet:
    """Inequality <x, normal> + offset >= 0 with a primitive inward normal."""

    normal: tuple[int, ...]
    offset: int

    def value(self, x: Sequence):
        return dot(x, self.normal) + self.offset


def _zero_masks(values: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Per row of facet values, the bitmask of the positions where it is 0."""
    return tuple(sum(1 << i for i, v in enumerate(row) if not v) for row in values)


@dataclass(frozen=True)
class LatticePolytope:
    dim: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[Facet, ...]
    discarded: tuple[tuple[int, ...], ...] = ()
    # bit i of incidence[j] says facet j passes through vertex i; the hull
    # passes it in from its values pass, any other construction computes it
    incidence: tuple[int, ...] = field(init=False, compare=False, repr=False)
    hull_incidence: InitVar[tuple[int, ...] | None] = None
    # results computed from the polytope alone, such as the Ehrhart table
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self, hull_incidence):
        if hull_incidence is None:
            hull_incidence = _zero_masks([[f.value(v) for v in self.vertices] for f in self.facets])
        object.__setattr__(self, "incidence", hull_incidence)

    def holds(self, x: Sequence, k: int = 1, strict: bool = False) -> int:
        """Bitmask of the facets whose twisted inequality holds at x: bit i is
        set iff <x, n_i> + k*c_i >= 0 (> 0 if strict). Every facet-sign
        question of ``classify`` and ``sheaf`` is read off it."""
        if len(x) != self.dim:
            raise ValueError("point has wrong dimension")
        mask = 0
        for i, f in enumerate(self.facets):
            v = sum(map(mul, x, f.normal)) + k * f.offset
            if v > 0 or (v == 0 and not strict):
                mask |= 1 << i
        return mask

    def contains(self, x: Sequence, strict: bool = False) -> bool:
        """Membership test; strict means the topological interior."""
        return self.holds(x, 1, strict).bit_count() == len(self.facets)

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
    seen = set()
    dim = None
    for p in points:
        tp = _check_integer_point(p, dim)
        dim = len(tp)
        seen.add(tp)
    if dim is None:
        raise ValueError("no points given")
    if dim == 0:
        raise ValueError("points need at least one coordinate")
    if len(seen) < dim + 1:
        raise ValueError(f"need at least {dim + 1} distinct points in dimension {dim}")
    dedup = sorted(seen)

    # facets are the rays (offset, normal) of the dual of the cone over {(1, p)}
    try:
        rays = dual_cone_rays([(1,) + p for p in dedup], dim + 1)
    except ValueError:
        raise ValueError("degenerate polytope: points do not affinely span the space") from None
    facets = tuple(Facet(nrm, off) for nrm, off in sorted((r[1:], r[0]) for r in rays))
    values = [[sum(map(mul, q, f.normal)) + f.offset for q in dedup] for f in facets]
    on = _zero_masks(values)
    # p is a vertex iff it is the only input point on all of the facets through it
    keep = [
        i for i in range(len(dedup)) if reduce(and_, (m for m in on if m >> i & 1), -1) == 1 << i
    ]
    if len(keep) < len(dedup):
        values = [[row[i] for i in keep] for row in values]
        on = _zero_masks(values)
    kept = set(keep)
    discarded = tuple(p for i, p in enumerate(dedup) if i not in kept)
    poly = LatticePolytope(dim, tuple(dedup[i] for i in keep), facets, discarded, on)
    _validate(poly, values)
    return poly


def _validate(poly: LatticePolytope, values: Sequence[Sequence[int]]) -> None:
    """Exact checks of the hull from ``values[j][i]``, facet j at vertex i."""
    for row, on in zip(values, poly.incidence):
        if min(row) < 0:
            raise ValueError("facet inequality violated by a vertex")
        if max(row) <= 0:
            raise ValueError("facet does not support the polytope properly")
        pts = [poly.vertices[i] for i in iter_bits(on)]
        if rank_rational([vec_sub(p, pts[0]) for p in pts[1:]]) != poly.dim - 1:
            raise ValueError("supporting hyperplane does not span a facet")


# ---------------------------------------------------------------------------
# face lattice


def iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a non-negative int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_over(masks: Sequence[int], ids: int) -> int:
    """The OR of ``masks[i]`` over the set bits i of ``ids``."""
    return reduce(or_, map(masks.__getitem__, iter_bits(ids)), 0)


def transpose_bits(masks: Sequence[int], width: int) -> list[int]:
    """Bit i of out[j] is bit j of masks[i], for j < width; one step per set
    bit, so cheap on sparse masks."""
    out = [0] * width
    for i, mask in enumerate(masks):
        while mask:
            out[(mask & -mask).bit_length() - 1] |= 1 << i
            mask &= mask - 1
    return out


def _lex_key(mask: int) -> str:
    """Sorts masks as their sorted bit lists: character i is bit i flipped, so
    the least bit that only one mask has decides, and a prefix comes first."""
    return format(mask ^ ((1 << mask.bit_length()) - 1), f"0{mask.bit_length()}b")[::-1]


@dataclass(frozen=True)
class Face:
    id: int
    vertex_set: frozenset[int]
    facet_set: frozenset[int]
    dim: int


class FaceLattice:
    """All non-empty faces of a polytope, graded by dimension.

    Built top-down from the vertex-facet incidence (Kaibel-Pfetsch, *Comput.
    Geom.* 23, 2002): the facets of a face H are the maximal non-empty H & m
    over the facet vertex masks m, and lie on the facets through H and the m
    that cut them out. Face ids are sorted by dimension, then by sorted
    vertex ids, a linear extension of the face order. Per face id the
    lattice keeps ints: ``vertex_masks``, ``facet_masks`` (bit j iff facet j
    passes through the face), ``dims``, ``covers`` (the ids of its facets,
    ascending) and ``below_masks`` (the face-id bitmask of its faces, itself
    included), so ``leq`` and ``join`` are mask operations. ``above_masks``
    (the faces containing it, itself and the top face included) and the
    ``faces`` view are built on first use; ``proper_mask`` holds every face
    but the top one.
    """

    def __init__(self, polytope: LatticePolytope):
        self.polytope = polytope
        top = (1 << len(polytope.vertices)) - 1
        facets_of = {top: 0}  # vertex mask -> facet mask
        covers_of: dict[int, list[int]] = {}  # vertex mask -> its facets' vertex masks
        levels = [[top]]
        while levels[-1]:
            below: dict[int, None] = {}
            for h in levels[-1]:
                parts: dict[int, int] = {}  # H & m -> the facets through it
                # a vertex (one bit) covers nothing
                for j, m in enumerate(polytope.incidence if h & (h - 1) else ()):
                    part = h & m
                    if part and part != h:
                        parts[part] = parts.get(part, facets_of[h]) | 1 << j
                covers_of[h] = []
                for part in sorted(parts, key=int.bit_count, reverse=True):
                    if all(part & s != part for s in covers_of[h]):
                        covers_of[h].append(part)
                        facets_of[part] = parts[part]
                below.update(dict.fromkeys(covers_of[h]))
            levels.append(list(below))
        levels.pop()
        levels.reverse()  # by dimension
        order = [m for level in levels for m in sorted(level, key=_lex_key)]
        fid = {m: i for i, m in enumerate(order)}
        self.vertex_masks = tuple(order)
        self.facet_masks = tuple(map(facets_of.get, order))
        self.dims = tuple(d for d, level in enumerate(levels) for _ in level)
        self.covers = tuple(tuple(sorted(map(fid.get, covers_of[m]))) for m in order)
        below_masks: list[int] = []
        for f, covers in enumerate(self.covers):
            below_masks.append(reduce(or_, map(below_masks.__getitem__, covers), 1 << f))
        self.below_masks = tuple(below_masks)
        self.top_id = len(order) - 1
        self.proper_mask = (1 << self.top_id) - 1
        self._by_vertex_mask = fid
        self._by_facet_mask = dict(zip(self.facet_masks, range(len(order))))
        self._cache: dict = {}

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.dims)

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        masks = zip(self.vertex_masks, self.facet_masks, self.dims)
        return tuple(
            Face(f, frozenset(iter_bits(v)), frozenset(iter_bits(m)), d)
            for f, (v, m, d) in enumerate(masks)
        )

    def check_id(self, fid: int) -> None:
        if not 0 <= fid < len(self.dims):
            raise ValueError(f"no face with id {fid}")

    def face(self, fid: int) -> Face:
        self.check_id(fid)
        return self.faces[fid]

    def leq(self, a: int, b: int) -> bool:
        return self.below_masks[b] >> a & 1 == 1

    @cached_property
    def above_masks(self) -> tuple[int, ...]:
        """Per face, the face-id bitmask of the faces containing it: ``below_masks`` transposed."""
        return tuple(transpose_bits(self.below_masks, len(self.dims)))

    def join(self, a: int, b: int) -> int:
        return self._by_facet_mask[self.facet_masks[a] & self.facet_masks[b]]

    @cached_property
    def _faces_on_facet(self) -> tuple[int, ...]:
        """Per facet, the face-id bitmask of the faces on it (``facet_masks`` transposed)."""
        return tuple(transpose_bits(self.facet_masks, len(self.polytope.facets)))

    def faces_on(self, facets: int) -> int:
        """Face-id bitmask (bit f for face f) of the faces on at least one facet
        of the facet bitmask (bit j for facet j); the top face is on none."""
        facets &= (1 << len(self._faces_on_facet)) - 1  # callers may pass ~mask
        return union_over(self._faces_on_facet, facets)

    def faces_of_dim(self, d: int) -> tuple[int, ...]:
        return tuple(f for f, e in enumerate(self.dims) if e == d)

    def face_by_vertices(self, vertices: int) -> int | None:
        """The id of the face with the given vertex bitmask (bit i for vertex i), if any."""
        return self._by_vertex_mask.get(vertices)

    def vertex_coords(self, fid: int) -> tuple[tuple[int, ...], ...]:
        verts = self.polytope.vertices
        return tuple(sorted(verts[i] for i in iter_bits(self.vertex_masks[fid])))

    def lex_min_vertex(self, fid: int) -> tuple[int, ...]:
        return self.vertex_coords(fid)[0]

    def face_label(self, fid: int) -> str:
        self.check_id(fid)
        if fid == self.top_id:
            return "P"
        dim = self.dims[fid]
        coords = self.vertex_coords(fid)
        if dim == 0:
            return f"vertex {coords[0]}"
        pts = ", ".join(str(c) for c in coords)
        return f"{dim}-face {{{pts}}}"


def face_lattice(polytope: LatticePolytope) -> FaceLattice:
    return FaceLattice(polytope)
