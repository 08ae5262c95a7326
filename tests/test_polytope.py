import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

import polytoric.lp as lp_module
import polytoric.polytope as polytope_module
from polytoric import build_polytope, face_lattice
from polytoric.linalg import (
    _eliminate,
    dot,
    kernel_line,
    primitive_vector,
    rank_rational,
    vec_neg,
    vec_sub,
)
from polytoric.lp import dual_cone_rays
from polytoric.polytope import Facet, FaceLattice, LatticePolytope
from conftest import CORPUS_VERTICES, face_id, face_ids

PENTAGON = [[0, 0], [2, 0], [3, 2], [1, 3], [-1, 2]]
OCTA = [[s * (i == j) for j in range(3)] for i in range(3) for s in (1, -1)]


def facet_set(poly):
    return {(f.normal, f.offset) for f in poly.facets}


def test_seg_facets(corpus):
    assert facet_set(corpus["SEG"]) == {((1,), 0), ((-1,), 1)}


def test_tri_facets(corpus):
    assert facet_set(corpus["TRI"]) == {
        ((1, 0), 0),
        ((0, 1), 0),
        ((-1, -1), 1),
    }


def test_sq_facets(corpus):
    assert facet_set(corpus["SQ"]) == {
        ((1, 0), 0),
        ((0, 1), 0),
        ((-1, 0), 1),
        ((0, -1), 1),
    }


def _brute_force_facets(points, n):
    """Reference oracle: supporting hyperplanes through every n-subset of the points."""
    found = set()
    for subset in combinations(points, n):
        normal = kernel_line([vec_sub(q, subset[0]) for q in subset[1:]], n)
        for inward in (normal, vec_neg(normal)) if normal else ():
            offset = -dot(subset[0], inward)
            if all(dot(p, inward) + offset >= 0 for p in points):
                found.add((inward, offset))
    return sorted(found)


def test_facets_match_brute_force_hull():
    rng = random.Random(21)
    permuto3 = sorted({p[:3] for p in permutations((0, 1, 2, 3))})
    clouds = [(permuto3, None)]
    for n in (1, 2, 3, 4):
        for _ in range(15):
            pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 6))]
            # a repeated point q, made the midpoint of p and 2q - p
            p, q = pts[0], pts[-1]
            clouds.append((pts + [q, tuple(2 * b - a for a, b in zip(p, q))], q if p != q else None))
    built = {1: 0, 2: 0, 3: 0, 4: 0}
    for pts, midpoint in clouds:
        n = len(pts[0])
        try:
            poly = build_polytope(pts)
        except ValueError:
            continue
        built[n] += 1
        facets = [(f.normal, f.offset) for f in poly.facets]
        assert facets == _brute_force_facets(sorted(set(pts)), n), pts
        assert midpoint is None or midpoint in poly.discarded
    assert min(built.values()) >= 5, built


def test_degenerate_input_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        build_polytope([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(ValueError):
        build_polytope([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        build_polytope([[0, 0], [1, Fraction(1, 2)], [0, 1]])


def test_zero_dimensional_input_rejected():
    with pytest.raises(ValueError, match="points need at least one coordinate"):
        build_polytope([[]])
    with pytest.raises(ValueError, match="points need at least one coordinate"):
        build_polytope([[], []])


def test_boolean_coordinates_rejected():
    # JSON true/false must not pass as the coordinates 1/0
    with pytest.raises(ValueError, match="non-integer coordinate"):
        build_polytope([[0, 0], [True, 0], [0, 1]])
    with pytest.raises(ValueError, match="non-integer coordinate"):
        build_polytope([[0, 0], [1, 0], [False, 1]])


def test_non_vertices_discarded():
    poly = build_polytope([[0, 0], [2, 0], [0, 2], [1, 0], [1, 1]])
    assert poly.vertices == ((0, 0), (0, 2), (2, 0))
    assert poly.discarded == ((1, 0), (1, 1))


def test_face_counts(lattices):
    assert len(lattices["SEG"].faces) == 3
    assert len(lattices["SQ"].faces) == 9
    assert len(lattices["CUBE"].faces) == 27
    by_dim = [len(lattices["CUBE"].faces_of_dim(d)) for d in range(4)]
    assert by_dim == [8, 12, 6, 1]


def test_join_examples(sq):
    v00 = face_id(sq, (0, 0))
    v11 = face_id(sq, (1, 1))
    bottom = face_id(sq, (0, 0), (1, 0))
    assert sq.join(v00, v11) == sq.top_id
    assert sq.join(v00, v00) == v00
    assert sq.join(v00, bottom) == bottom


def test_join_is_minimal_containing_face(lattices):
    for lat in lattices.values():
        for f in lat.faces:
            for g in lat.faces:
                j = lat.join(f.id, g.id)
                union = f.vertex_set | g.vertex_set
                assert union <= lat.face(j).vertex_set
                for h in lat.faces:
                    if union <= h.vertex_set:
                        assert lat.leq(j, h.id)


def test_join_semilattice_laws(lattices):
    for name in ("SEG", "TRI", "SQ", "CUBE"):
        lat = lattices[name]
        ids = [f.id for f in lat.faces]
        for a in ids:
            assert lat.join(a, a) == a
            for b in ids:
                assert lat.join(a, b) == lat.join(b, a)
                for c in ids:
                    assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))


def test_contains(sq):
    poly = sq.polytope
    assert poly.contains((Fraction(1, 2), Fraction(1, 2)), strict=True)
    assert not poly.contains((0, 0), strict=True)
    assert poly.contains((0, 0))
    assert not poly.contains((2, 0))


def facet_holds(poly, x, k, strict):
    """The ``holds`` mask from ``Facet.value``, one facet at a time: the
    value of facet i on kP at x is value(x) + (k - 1) * c_i."""
    values = [f.value(x) + (k - 1) * f.offset for f in poly.facets]
    return sum(1 << i for i, v in enumerate(values) if v > 0 or (v == 0 and not strict))


def test_holds_matches_the_per_facet_values():
    # seeded points: integer and rational ones in a box around kP, and points
    # on the facet hyperplanes of kP, k*v for a vertex v and k times a
    # facet's centroid, for k = -3..3 and both strict settings
    rng = random.Random(26)
    shapes = [CORPUS_VERTICES["CUBE"], CORPUS_VERTICES["TRI2"], PENTAGON, OCTA]
    on_hyperplanes = 0
    for vertices in shapes:
        poly = build_polytope(vertices)
        n = poly.dim
        centroids = []
        for on in poly.incidence:
            tight = [poly.vertices[i] for i in range(len(poly.vertices)) if on >> i & 1]
            centroids.append(tuple(Fraction(sum(c), len(tight)) for c in zip(*tight)))
        for k in range(-3, 4):
            points = [tuple(k * c for c in v) for v in poly.vertices]
            points += [tuple(k * c for c in g) for g in centroids]
            for _ in range(40):
                points.append(tuple(rng.randint(-5, 5) for _ in range(n)))
                points.append(
                    tuple(Fraction(rng.randint(-15, 15), rng.randint(1, 4)) for _ in range(n))
                )
            for x in points:
                for strict in (False, True):
                    assert poly.holds(x, k, strict) == facet_holds(poly, x, k, strict), (x, k)
                on_hyperplanes += facet_holds(poly, x, k, False) != facet_holds(poly, x, k, True)
            assert poly.holds(points[0], k) == poly.holds(points[0], k=k, strict=False)
    assert on_hyperplanes > 100


def test_holds_defaults_to_p_and_refuses_a_wrong_dimension(sq):
    poly = sq.polytope
    assert poly.holds((0, 0)) == poly.holds((0, 0), 1) == (1 << len(poly.facets)) - 1
    assert poly.holds((0, 0), strict=True) == facet_holds(poly, (0, 0), 1, True)
    for x in ((1,), (1, 2, 3), ()):
        with pytest.raises(ValueError, match="^point has wrong dimension$"):
            poly.holds(x)
        with pytest.raises(ValueError, match="^point has wrong dimension$"):
            poly.contains(x)


def test_grading_and_galois(lattices):
    for lat in lattices.values():
        n = lat.polytope.dim
        top = lat.face(lat.top_id)
        assert top.dim == n and top.facet_set == frozenset()
        on = [face_ids(m) for m in lat.polytope.incidence]  # the vertices on each facet
        for f in lat.faces:
            # facet closure of the vertex set gives the face back
            vs = frozenset(
                i
                for i in range(len(lat.polytope.vertices))
                if all(i in on[c] for c in f.facet_set)
            )
            assert vs == f.vertex_set
            fs = frozenset(j for j, fm in enumerate(on) if f.vertex_set <= fm)
            assert fs == f.facet_set
        # every vertex face lies on at least n facets
        for fid in lat.faces_of_dim(0):
            assert len(lat.face(fid).facet_set) >= n


def test_euler_relation(lattices):
    for lat in lattices.values():
        n = lat.polytope.dim
        total = sum((-1) ** lat.face(f).dim for f in range(lat.top_id))
        assert total == 1 + (-1) ** (n - 1)


def test_facet_irredundancy(lattices):
    for lat in lattices.values():
        poly = lat.polytope
        hi = max(h for _, h in poly.bounding_box())
        box = [range(-3, hi + 4) for _ in range(poly.dim)]
        full = {
            x for x in product(*box) if all(f.value(x) >= 0 for f in poly.facets)
        }
        for skip in range(len(poly.facets)):
            relaxed = {
                x
                for x in product(*box)
                if all(f.value(x) >= 0 for i, f in enumerate(poly.facets) if i != skip)
            }
            assert relaxed > full


def test_hasse_pairs_are_covers(cube):
    covers = [
        (a, b)
        for a in range(len(cube))
        for b in face_ids(cube.above_masks[a]) - {a}
        if not any(c not in (a, b) and cube.leq(c, b) for c in face_ids(cube.above_masks[a]))
    ]
    for a, b in covers:
        fa, fb = cube.face(a), cube.face(b)
        assert fa.dim + 1 == fb.dim
        assert fa.vertex_set < fb.vertex_set
    # cube has 8*3 vertex-edge + 12*2 edge-facet + 6 facet-top covers
    assert len(covers) == 24 + 24 + 6


# the 5D cross-polytope of radius 2, its centre and an edge midpoint
CROSS5 = [
    tuple(s * 2 * int(i == j) for j in range(5)) for i in range(5) for s in (1, -1)
] + [(0, 0, 0, 0, 0), (1, 1, 0, 0, 0)]


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _bottom_up_lattice(poly):
    """Reference lattice: the facet vertex masks closed under non-empty
    intersection, each face graded as one more than the largest dimension
    below it (O(faces^2)), in the order by dimension, then sorted vertex
    ids. Per face: (vertex mask, dim, facet mask, covers, below mask)."""
    members = [
        sum(1 << i for i, v in enumerate(poly.vertices) if f.value(v) == 0) for f in poly.facets
    ]
    masks = {(1 << len(poly.vertices)) - 1}
    frontier = {m for m in members if m}
    while frontier:
        masks |= frontier
        frontier = {vs & m for vs in frontier for m in members if vs & m} - masks
    by_size = sorted(masks, key=int.bit_count)
    below, dims = {}, {}
    for i, m in enumerate(by_size):
        below[m] = [s for s in by_size[:i] if s & m == s]
        dims[m] = 1 + max((dims[s] for s in below[m]), default=-1)
    order = sorted(masks, key=lambda m: (dims[m], _bits(m)))
    fid = {m: i for i, m in enumerate(order)}
    return [
        (
            m,
            dims[m],
            sum(1 << j for j, fm in enumerate(members) if m & fm == m),
            tuple(sorted(fid[s] for s in below[m] if dims[s] == dims[m] - 1)),
            sum(1 << fid[s] for s in below[m]) | 1 << fid[m],
        )
        for m in order
    ]


def _assert_matches_rank_route(points, lat):
    """Reference: the vertex test and grading by rank over Q, the order by
    vertex-set containment, and the bottom-up lattice."""
    poly = lat.polytope
    dedup = set(map(tuple, points))
    assert sorted(poly.vertices + poly.discarded) == sorted(dedup)
    for p in dedup:
        active = [f.normal for f in poly.facets if f.value(p) == 0]
        assert (p in poly.vertices) == (rank_rational(active) == poly.dim), p
    for f in lat.faces:
        pts = [poly.vertices[i] for i in sorted(f.vertex_set)]
        assert f.dim == rank_rational([vec_sub(p, pts[0]) for p in pts[1:]])
        assert lat.facet_masks[f.id] == sum(1 << j for j in f.facet_set)
        above = face_ids(lat.above_masks[f.id])
        assert above == frozenset(g.id for g in lat.faces if f.vertex_set <= g.vertex_set)
        below = face_ids(lat.below_masks[f.id])
        assert below == frozenset(g.id for g in lat.faces if g.vertex_set <= f.vertex_set)
    keys = [(f.dim, sorted(f.vertex_set)) for f in lat.faces]
    assert keys == sorted(keys)
    # the faces are the vertex set and the non-empty intersections of facets
    vertex_sets = {f.vertex_set for f in lat.faces}
    assert vertex_sets >= {face_ids(m) for m in poly.incidence if m}
    assert all(a & b in vertex_sets for a in vertex_sets for b in vertex_sets if a & b)
    # face order, dims, facet masks, covers and below masks of the top-down walk
    masks, dims, facet_masks, covers, below = zip(*_bottom_up_lattice(poly))
    assert lat.vertex_masks == masks
    assert lat.dims == dims
    assert lat.facet_masks == facet_masks
    assert lat.covers == covers
    assert lat.below_masks == below


def _clouds_with_non_vertices(count, dims=(1, 2, 3, 4), seed=12):
    """Seeded clouds, cycling through the dimensions, scaled by 2(n + 1), each
    with a repeated point, the barycenter of n + 1 affinely independent
    vertices (an interior point) and the midpoint of an edge."""
    rng = random.Random(seed)
    clouds = []
    while len(clouds) < count:
        n = dims[len(clouds) % len(dims)]
        s = 2 * (n + 1)
        pts = [tuple(s * rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 7))]
        try:
            lat = face_lattice(build_polytope(pts))
        except ValueError:
            continue
        verts = lat.polytope.vertices
        basis = [verts[0]]
        for v in verts[1:]:
            if rank_rational([vec_sub(w, basis[0]) for w in basis[1:] + [v]]) == len(basis):
                basis.append(v)
        centre = tuple(sum(c) // (n + 1) for c in zip(*basis))
        a, b = (verts[i] for i in sorted(lat.face(rng.choice(lat.faces_of_dim(1))).vertex_set))
        midpoint = tuple((x + y) // 2 for x, y in zip(a, b))
        clouds.append((pts + [pts[0], centre, midpoint], (centre, midpoint)))
    return clouds


def test_lattice_matches_rank_route(lattices):
    for lat in lattices.values():
        _assert_matches_rank_route(lat.polytope.vertices, lat)
    clouds = _clouds_with_non_vertices(44) + _clouds_with_non_vertices(6, dims=(5,), seed=5)
    assert {len(pts[0]) for pts, _ in clouds} == {1, 2, 3, 4, 5}
    for pts, non_vertices in clouds:
        poly = build_polytope(pts)
        assert set(non_vertices) <= set(poly.discarded), pts
        _assert_matches_rank_route(pts, face_lattice(poly))
    lat = face_lattice(build_polytope(CROSS5))
    assert lat.polytope.discarded == ((0, 0, 0, 0, 0), (1, 1, 0, 0, 0))
    assert [len(lat.faces_of_dim(d)) for d in range(6)] == [10, 40, 80, 80, 32, 1]
    _assert_matches_rank_route(CROSS5, lat)


def test_facet_tight_on_no_vertex_adds_no_face(corpus, sq):
    poly = corpus["SQ"]
    extra = LatticePolytope(poly.dim, poly.vertices, poly.facets + (Facet((1, 1), 5),))
    lat = FaceLattice(extra)
    assert lat.faces == sq.faces
    assert lat.above_masks == sq.above_masks
    assert lat.below_masks == sq.below_masks
    assert extra.incidence == poly.incidence + (0,)


def test_incidence_follows_the_facets_of_a_replaced_polytope(corpus, sq):
    # the hull passes its incidence in; a copy with other facets computes its own
    poly = corpus["SQ"]
    on = [sum(1 << i for i, v in enumerate(poly.vertices) if f.value(v) == 0) for f in poly.facets]
    assert poly.incidence == tuple(on)
    moved = replace(poly, facets=poly.facets[1:] + poly.facets[:1])
    assert moved.incidence == poly.incidence[1:] + poly.incidence[:1]
    assert FaceLattice(moved).polytope.incidence == tuple(on[1:] + on[:1])


def test_lattice_and_vertex_test_use_no_rank(lattices, monkeypatch):
    calls = []

    def counting_rank(vectors):
        calls.append(len(vectors))
        return rank_rational(vectors)

    monkeypatch.setattr(polytope_module, "rank_rational", counting_rank)
    # one rank per facet in _validate, none per point; the double description
    # decides full-dimensionality with its own elimination
    poly = build_polytope(CROSS5)
    assert len(calls) == len(poly.facets)

    def refuse(vectors):
        raise AssertionError("the face lattice took a rank")

    monkeypatch.setattr(polytope_module, "rank_rational", refuse)
    for lat in lattices.values():
        assert FaceLattice(lat.polytope).faces == lat.faces


def test_vertices_deterministic_order():
    p1 = build_polytope([[1, 1], [0, 0], [0, 1], [1, 0]])
    p2 = build_polytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert p1.vertices == p2.vertices
    assert p1.facets == p2.facets


def test_proper_mask_is_every_face_but_the_top(lattices):
    for lat in lattices.values():
        assert face_ids(lat.proper_mask) == frozenset(range(lat.top_id))
        assert lat.above_masks is lat.above_masks  # built once


def _greedy_basis(gens, dim):
    """Reference: the first generators, in order, that raise the rank."""
    basis = []
    for g in gens:
        if len(basis) < dim and rank_rational(basis + [g]) > len(basis):
            basis.append(g)
    return basis


def _seeded_generators(rng, dim):
    """Generators of R^dim or of less: random rows, repeats and combinations."""
    gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, dim + 4))]
    if rng.random() < 0.5:
        a, b = rng.choice(gens), rng.choice(gens)
        gens.append(tuple(2 * x - y for x, y in zip(a, b)))
    return gens


def test_double_description_basis_is_the_greedy_rank_basis(monkeypatch):
    # the basis the first rays come from is the pivot columns of one
    # elimination: the first generators, in sorted order, that raise the
    # rank one rank_rational call at a time
    bases = []

    def spy(rows, ncols, p=None, reduced=False):
        if reduced:  # [B | I]
            bases.append([tuple(row[: ncols // 2]) for row in rows])
        return _eliminate(rows, ncols, p, reduced)

    monkeypatch.setattr(lp_module, "_eliminate", spy)
    rng = random.Random(8)
    spanning = 0
    for _ in range(300):
        dim = rng.randint(1, 5)
        gens = _seeded_generators(rng, dim)
        expected = _greedy_basis(sorted({primitive_vector(g) for g in gens if any(g)}), dim)
        bases.clear()
        if len(expected) < dim:
            with pytest.raises(ValueError):
                dual_cone_rays(gens, dim)
            assert not bases
        else:
            dual_cone_rays(gens, dim)
            assert bases == [expected], gens
            spanning += 1
    assert 100 < spanning < 300


def _kernel_line_rays(basis):
    """Reference for the inverse-matrix rays: ray j spans the kernel of the
    other basis rows, oriented positive on row j."""
    dim = len(basis)
    rays = []
    for j, g in enumerate(basis):
        r = kernel_line(basis[:j] + basis[j + 1:], dim)
        rays.append(r if dot(g, r) > 0 else vec_neg(r))
    return rays


def test_inverse_matrix_rays_are_the_kernel_line_rays():
    # on a basis alone the double description returns its first rays
    rng = random.Random(31)
    negative_pivot = 0
    checked = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    while min(checked.values()) < 20:
        dim = rng.randint(1, 5)
        basis = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim)]
        basis = sorted({primitive_vector(b) for b in basis if any(b)})
        if len(basis) < dim or rank_rational(basis) < dim:
            continue
        unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        rows = _eliminate([b + e for b, e in zip(basis, unit)], 2 * dim, reduced=True)[0]
        negative_pivot += any(row[i] < 0 for i, row in enumerate(rows))
        assert dual_cone_rays(basis, dim) == tuple(sorted(_kernel_line_rays(basis))), basis
        checked[dim] += 1
    assert negative_pivot > 10


def test_face_label_builds_no_face_view():
    lat = face_lattice(build_polytope([[0, 0], [2, 0], [0, 2]]))
    labels = [lat.face_label(f) for f in range(len(lat))]
    assert "faces" not in vars(lat)
    assert labels == [
        "vertex (0, 0)", "vertex (0, 2)", "vertex (2, 0)",
        "1-face {(0, 0), (0, 2)}", "1-face {(0, 0), (2, 0)}", "1-face {(0, 2), (2, 0)}", "P",
    ]
    with pytest.raises(ValueError):
        lat.face_label(len(lat))


def test_holds_refuses_a_coordinate_that_is_not_an_int_or_a_fraction():
    # a float is never decided in floating point, nor is any other number type
    from decimal import Decimal

    tri = build_polytope([[0, 0], [1, 0], [0, 1]])
    for x in ((0.1, 0.2), (0, 1.0), (Decimal(1), 0), ("0", 0), (Fraction(1, 2), 0.5)):
        with pytest.raises(ValueError, match="must be ints or Fractions$"):
            tri.holds(x)
        with pytest.raises(ValueError, match="must be ints or Fractions$"):
            tri.contains(x)


def test_a_rational_point_is_decided_as_its_integer_multiple():
    # x = y/b holds at twist k iff y holds at twist k*b, for b > 0
    rng = random.Random(33)
    for vertices in (CORPUS_VERTICES["CUBE"], PENTAGON, OCTA):
        poly = build_polytope(vertices)
        for _ in range(60):
            b = rng.randint(1, 7)
            y = tuple(rng.randint(-12, 12) for _ in range(poly.dim))
            x = tuple(Fraction(c, b) for c in y)
            for k in (-2, 0, 1, 3):
                for strict in (False, True):
                    assert poly.holds(x, k, strict) == poly.holds(y, k * b, strict), (x, k)
        # mixed int and Fraction coordinates, and a Fraction that is an integer
        zero = (0,) * (poly.dim - 1)
        assert poly.holds((Fraction(2), *zero)) == poly.holds((2, *zero))


def test_bounding_box_is_computed_once(corpus):
    for poly in [*corpus.values(), build_polytope(PENTAGON), build_polytope(OCTA)]:
        box = poly.bounding_box()
        assert box is poly.bounding_box()
        assert box == tuple(
            (min(v[i] for v in poly.vertices), max(v[i] for v in poly.vertices))
            for i in range(poly.dim)
        )
