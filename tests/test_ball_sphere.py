"""Ball and sphere verdicts on the face cochain complex against the nerves.

``verify`` decides the ball and sphere homology of the classification sides
and of the boundary complex on the face cochain complex, restricted to a
face set and coreduced. The nerves (barycentric subdivisions) answer the same
questions by simplicial homology; the two routes must give equal verdicts,
set by set, on the named shapes, the 4-cube, the 4-simplex, a segment and
seeded 1-4D polytopes. Broken partitions whose sides are not balls must fail
on both routes.
"""

import random
from dataclasses import replace

from polytoric import boundary as bd
from polytoric import build_polytope, face_lattice
from polytoric import classify as cl
from polytoric import verify as vf
from conftest import CORPUS_VERTICES, has_sphere_homology, is_reduced_acyclic
from test_extended import EXTENDED

SHAPES = {
    **CORPUS_VERTICES,
    **EXTENDED,
    "TRAPEZOID": [[0, 0], [1, 0], [2, 3], [-1, 3]],
    "SIMPLEX4": [[0] * 4] + [[int(i == j) for j in range(4)] for i in range(4)],
    "CUBE4": [[a, b, c, d] for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)],
}


def _seeded_lattices(count=16, seed=11):
    """Seeded full-dimensional polytopes, dimensions 1 to 4 in turn."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 1 + len(out) % 4
        span = 3 if n < 4 else 1
        size = n + 2 + rng.randint(0, 3)
        points = [[rng.randint(-span, span) for _ in range(n)] for _ in range(size)]
        try:
            out.append(face_lattice(build_polytope(points)))
        except ValueError:
            continue  # not full-dimensional; draw again
    return out


def _nerve_verdicts(c):
    """The four ball/sphere verdicts of a classification, from its nerves."""
    n = c.filter_side.lattice.polytope.dim
    return (
        is_reduced_acyclic(bd.nerve(c.complex_side)),
        is_reduced_acyclic(bd.nerve(bd.closure(c.filter_side))),
        is_reduced_acyclic(bd.nerve(c.filter_side)),
        n < 2 or has_sphere_homology(bd.nerve(c.boundary), n - 2),
    )


def _cellular_verdicts(c):
    """The same four verdicts from the face cochain complex, one set each."""
    n = c.filter_side.lattice.polytope.dim
    return (
        vf.face_set_cohomology(c.complex_side) == [(0,)],
        vf.face_set_cohomology(bd.closure(c.filter_side)) == [(0,)],
        vf.face_set_cohomology(c.filter_side) == [(n - 1,)],
        n < 2 or vf.face_set_cohomology(c.boundary) == [(0, n - 2)],
    )


def _lattices():
    named = {name: face_lattice(build_polytope(v)) for name, v in SHAPES.items()}
    return [*named.items(), *((f"seeded {i}", lat) for i, lat in enumerate(_seeded_lattices()))]


def test_cellular_verdicts_equal_nerve_verdicts():
    lattices = _lattices()
    assert {lat.polytope.dim for _, lat in lattices} == {1, 2, 3, 4}
    checked = 0
    for name, lat in lattices:
        n = lat.polytope.dim
        sphere = has_sphere_homology(bd.nerve(bd.boundary_complex(lat)), n - 1)
        assert sphere and vf.face_set_cohomology(bd.boundary_complex(lat)) == [(0, n - 1)], name
        for kind in cl.KINDS:
            for x in cl.sample_viewpoints(lat.polytope, kind, count=vf.VIEWPOINTS, seed=0):
                c = cl.classify(lat, kind, x)
                nerve = _nerve_verdicts(c)
                assert _cellular_verdicts(c) == nerve, (name, kind, x)
                assert all(nerve), (name, kind, x)
                assert vf.partition_checks(c) == (True, True), (name, kind, x)
                checked += 1
    assert checked > 300


def _broken(lat, complex_facets):
    """A hand-built partition whose complex side is the faces on the given
    facets (a bitmask), with the filter side its complement."""
    complex_side = bd.FaceSubset(lat, lat.faces_on(complex_facets))
    filter_side = complex_side.complement()
    boundary = bd.closure(filter_side).intersection(complex_side)
    return cl.Classification("visibility", (), filter_side, complex_side, boundary)


def _opposite_facets(lat):
    """Facet bitmask of two opposite facets of the unit cube: x = 0 and x = 1."""
    facets = lat.polytope.facets
    return sum(1 << i for i, f in enumerate(facets) if f.normal[1:] == (0, 0))


def test_two_opposite_cube_facets_fail_on_both_routes():
    # the complex side is two disjoint squares, the closure of the filter
    # side a closed cylinder, the filter side the open belt between the
    # squares and the boundary two circles: no side is a ball
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))
    c = _broken(cube, _opposite_facets(cube))
    assert len(c.complex_side) == 18 and len(c.boundary) == 16
    nerve = _nerve_verdicts(c)
    assert _cellular_verdicts(c) == nerve == (False, False, False, False)
    assert vf.partition_checks(c) == (True, False)


def test_a_broken_partition_fails_the_classify_suite(monkeypatch):
    # the verify report names the failed check when the classification of
    # one viewpoint is replaced by the broken one
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))
    x = cl.sample_viewpoints(cube.polytope, "lowerupper", count=vf.VIEWPOINTS, seed=0)[0]
    broken = replace(_broken(cube, _opposite_facets(cube)), kind="lowerupper", point=x)
    classify = cl.classify

    def one_broken(lat, kind, y):
        return broken if (kind, y) == ("lowerupper", x) else classify(lat, kind, y)

    monkeypatch.setattr(cl, "classify", one_broken)
    failed = [r.name for r in vf.classify_suite(cube, seed=0) if not r.passed]
    assert "lowerupper: ball/sphere homology of nerves" in failed
    assert "lowerupper: partition structure" not in failed


def test_a_set_that_is_no_partition_fails_both_checks():
    # a complex side that is not closed: one edge of the square without its vertices
    sq = face_lattice(build_polytope(CORPUS_VERTICES["SQ"]))
    edge = sq.faces_of_dim(1)[0]
    side = bd.FaceSubset(sq, 1 << edge)
    rest = side.complement()
    c = cl.Classification("visibility", (), rest, side, bd.closure(rest).intersection(side))
    assert vf.partition_checks(c) == (False, False)


def test_boundary_sphere_of_a_segment_is_two_points():
    seg = face_lattice(build_polytope([[0], [1]]))
    assert vf.face_set_cohomology(bd.boundary_complex(seg)) == [(0, 0)]
    checks = {r.name: r.passed for r in vf.combinatorics_suite(seg)}
    assert checks["boundary nerve has sphere homology"]


def _moved_top_face(c):
    """``c`` with the highest face of its complex side moved to the filter
    side. That face is maximal in the complex side, so the sides stay a
    subcomplex and an order filter, but the complex side loses one cell of
    top dimension and with it its Euler characteristic 1."""
    lat = c.filter_side.lattice
    top = c.complex_side.mask.bit_length() - 1
    cplx = bd.FaceSubset(lat, c.complex_side.mask & ~(1 << top))
    filt = cplx.complement()
    boundary = bd.closure(filt).intersection(cplx)
    return replace(c, filter_side=filt, complex_side=cplx, boundary=boundary)


def test_one_batch_gives_each_classification_its_own_verdict():
    checked = 0
    for name, lat in _lattices():
        cs = [
            cl.classify(lat, kind, x)
            for kind in cl.KINDS
            for x in cl.sample_viewpoints(lat.polytope, kind, count=vf.VIEWPOINTS, seed=0)
        ]
        verdicts = vf.batch_partition_checks(cs)
        assert verdicts == [vf.partition_checks(c) for c in cs] == [(True, True)] * len(cs), name
        for i in range(0, len(cs), 5):
            moved = vf.batch_partition_checks(cs[:i] + [_moved_top_face(cs[i])] + cs[i + 1 :])
            assert moved[i] != (True, True), (name, i)
            assert moved[:i] + moved[i + 1 :] == verdicts[:i] + verdicts[i + 1 :], (name, i)
            checked += 1
    assert checked > 60
    assert vf.batch_partition_checks([]) == []


def test_the_classify_suite_makes_one_ball_sphere_batch(monkeypatch):
    cube = face_lattice(build_polytope(SHAPES["CUBE4"]))
    batches = []
    original = vf.hm.face_set_complexes
    monkeypatch.setattr(vf.hm, "face_set_complexes", lambda *a: batches.append(a) or original(*a))
    assert all(r.passed for r in vf.classify_suite(cube, seed=0))
    # four sets (complex side, closure of the filter, filter, boundary) per classification
    assert [count for _, _, count in batches] == [4 * len(cl.KINDS) * vf.VIEWPOINTS]
