import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from polytoric import boundary as bd
from polytoric import build_polytope, face_lattice
from polytoric import classify as cl
from polytoric.linalg import dot, scale_to_integers
from polytoric.lp import lp_feasible
from conftest import CORPUS_VERTICES, face_id, has_sphere_homology, is_reduced_acyclic

LAMBDA_GRID = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(8))
PENTAGON = [[0, 0], [2, 0], [3, 2], [1, 3], [-1, 2]]
TRAPEZOID = [[0, 0], [1, 0], [2, 3], [-1, 3]]


def labels(lattice, subset):
    return {lattice.face_label(i) for i in subset.members}


def test_visibility_square_far_corner(sq):
    c = cl.classify_visibility(sq, (2, 2))
    assert labels(sq, c.complex_side) == {
        "1-face {(1, 0), (1, 1)}",
        "1-face {(0, 1), (1, 1)}",
        "vertex (1, 0)",
        "vertex (1, 1)",
        "vertex (0, 1)",
    }
    assert labels(sq, c.filter_side) == {
        "1-face {(0, 0), (1, 0)}",
        "1-face {(0, 0), (0, 1)}",
        "vertex (0, 0)",
    }


def test_visibility_square_below(sq):
    c = cl.classify_visibility(sq, (Fraction(1, 2), -3))
    assert labels(sq, c.complex_side) == {
        "1-face {(0, 0), (1, 0)}",
        "vertex (0, 0)",
        "vertex (1, 0)",
    }


def test_visibility_segment(seg):
    c = cl.classify_visibility(seg, (5,))
    assert labels(seg, c.complex_side) == {"vertex (1,)"}
    assert labels(seg, c.filter_side) == {"vertex (0,)"}


def test_visibility_rejects_inside(sq):
    with pytest.raises(ValueError, match="inside"):
        cl.classify_visibility(sq, (0, 0))
    with pytest.raises(ValueError):
        cl.classify_visibility(sq, (Fraction(1, 2), Fraction(1, 2)))


def test_front_back_square_below(sq):
    c = cl.classify_front_back(sq, (Fraction(1, 2), -1))
    assert labels(sq, c.filter_side) == {"1-face {(0, 0), (1, 0)}"}
    assert len(c.complex_side.members) == 7


def test_front_back_at_a_vertex(sq):
    # boundary viewpoints are allowed; facets through x are not back facets
    c = cl.classify_front_back(sq, (0, 0))
    assert labels(sq, c.complex_side) == {
        "1-face {(0, 1), (1, 1)}",
        "1-face {(1, 0), (1, 1)}",
        "vertex (1, 0)",
        "vertex (1, 1)",
        "vertex (0, 1)",
    }
    assert labels(sq, c.filter_side) == {
        "1-face {(0, 0), (1, 0)}",
        "1-face {(0, 0), (0, 1)}",
        "vertex (0, 0)",
    }


def test_front_back_segment(seg):
    c = cl.classify_front_back(seg, (-2,))
    assert labels(seg, c.complex_side) == {"vertex (1,)"}
    assert labels(seg, c.filter_side) == {"vertex (0,)"}


def test_front_back_rejects_interior(sq):
    with pytest.raises(ValueError):
        cl.classify_front_back(sq, (Fraction(1, 2), Fraction(1, 2)))


def test_lower_upper_square(sq):
    c = cl.classify_lower_upper(sq, (0, 1))
    assert labels(sq, c.complex_side) == {
        "1-face {(0, 0), (1, 0)}",
        "vertex (0, 0)",
        "vertex (1, 0)",
    }
    c = cl.classify_lower_upper(sq, (1, 1))
    assert labels(sq, c.complex_side) == {
        "1-face {(0, 0), (1, 0)}",
        "1-face {(0, 0), (0, 1)}",
        "vertex (0, 0)",
        "vertex (1, 0)",
        "vertex (0, 1)",
    }
    assert labels(sq, c.filter_side) == {
        "1-face {(0, 1), (1, 1)}",
        "1-face {(1, 0), (1, 1)}",
        "vertex (1, 1)",
    }


def test_lower_upper_segment(seg):
    c = cl.classify_lower_upper(seg, (1,))
    assert labels(seg, c.complex_side) == {"vertex (0,)"}
    assert labels(seg, c.filter_side) == {"vertex (1,)"}
    with pytest.raises(ValueError, match="zero"):
        cl.classify_lower_upper(seg, (0,))


def test_partition_structure_everywhere(lattices):
    for lat in lattices.values():
        poly = lat.polytope
        for kind in cl.KINDS:
            for x in cl.sample_viewpoints(poly, kind, count=8, seed=1):
                c = cl.classify(lat, kind, x)
                assert c.filter_side.members, (kind, x)
                assert c.complex_side.members, (kind, x)
                assert not c.filter_side.members & c.complex_side.members
                assert c.filter_side.mask | c.complex_side.mask == lat.proper_mask
                assert bd.is_order_filter(c.filter_side)
                assert bd.is_subcomplex(c.complex_side)
                assert (
                    c.boundary.members
                    == bd.closure(c.filter_side).members & c.complex_side.members
                )


def test_facet_membership_is_the_sign_test(lattices):
    for lat in lattices.values():
        poly = lat.polytope
        for x in cl.sample_viewpoints(poly, "visibility", count=6, seed=2):
            c = cl.classify_visibility(lat, x)
            for on, f in zip(poly.incidence, poly.facets):
                fid = lat.face_by_vertices(on)
                assert (fid in c.filter_side.members) == (f.value(x) >= 0)


def test_points_on_facet_hyperplanes_keep_their_sides():
    # the sides from the facet values, one facet at a time: visible facets
    # have value < 0, back facets value > 0, lower facets <x, n> > 0; a value
    # of 0 puts the facet on the filter side of every kind
    shapes = [CORPUS_VERTICES["CUBE"], CORPUS_VERTICES["TRI2"], PENTAGON, TRAPEZOID]
    checked = Counter()
    for vertices in shapes:
        lat = face_lattice(build_polytope(vertices))
        poly = lat.polytope
        for on in poly.incidence:
            tight = [v for i, v in enumerate(poly.vertices) if on >> i & 1]
            for v in tight:
                for w in tight:
                    # v and 2v - w lie on the facet's hyperplane, w - v is parallel to it
                    for kind, x in (
                        ("frontback", v),
                        ("visibility", tuple(2 * a - b for a, b in zip(v, w))),
                        ("frontback", tuple(Fraction(3 * a - b, 2) for a, b in zip(v, w))),
                        ("lowerupper", tuple(b - a for a, b in zip(v, w))),
                    ):
                        if kind == "visibility" and poly.contains(x):
                            continue
                        if kind == "lowerupper" and not any(x):
                            continue
                        values = [f.value(x) for f in poly.facets]
                        if kind == "visibility":
                            side = [value < 0 for value in values]
                        elif kind == "frontback":
                            side = [value > 0 for value in values]
                        else:
                            side = [dot(x, f.normal) > 0 for f in poly.facets]
                        expected = lat.faces_on(sum(1 << i for i, s in enumerate(side) if s))
                        assert cl.classify(lat, kind, x).complex_side.mask == expected, (kind, x)
                        checked[kind] += 1
    assert min(checked.values()) > 20, checked


def test_ball_and_sphere_homology_shadows(lattices):
    for lat in lattices.values():
        n = lat.polytope.dim
        for kind in cl.KINDS:
            for x in cl.sample_viewpoints(lat.polytope, kind, count=3, seed=3):
                c = cl.classify(lat, kind, x)
                # order filters and both ball-like sides are acyclic
                assert is_reduced_acyclic(bd.nerve(c.filter_side))
                assert is_reduced_acyclic(bd.nerve(c.complex_side))
                assert is_reduced_acyclic(bd.nerve(bd.closure(c.filter_side)))
                if n >= 2:
                    assert has_sphere_homology(bd.nerve(c.boundary), n - 2)
                else:
                    assert not c.boundary.members


def test_definitional_check_examples(sq, seg):
    right = face_id(sq, (1, 0), (1, 1))
    bottom = face_id(sq, (0, 0), (1, 0))
    c = cl.classify(sq, "visibility", (2, 2))
    assert right in c.complex_side and bottom in c.filter_side
    assert cl.definitional_check(c) == 0
    v0 = face_id(seg, (0,))
    c = cl.classify(seg, "lowerupper", (1,))
    assert v0 in c.complex_side
    assert cl.definitional_check(c) == 0


def test_definitional_check_everywhere(lattices):
    for name in ("SEG", "TRI", "SQ", "CUBE"):
        lat = lattices[name]
        for kind in cl.KINDS:
            for x in cl.sample_viewpoints(lat.polytope, kind, count=3, seed=4):
                assert cl.definitional_check(cl.classify(lat, kind, x)) == 0, (name, kind, x)


def test_definitional_check_detects_misclassification(sq):
    # a visible face must fail the check run against the invisible criterion:
    # swap roles by testing a face against the wrong viewpoint side
    right = face_id(sq, (1, 0), (1, 1))
    c = cl.classify_visibility(sq, (2, 2))
    assert right in c.complex_side.members
    # ray from the right edge towards (-2, 0) re-enters: the edge is NOT
    # visible from there, so the consistency check for (2,2) must not be
    # blindly true for other viewpoints
    c2 = cl.classify_visibility(sq, (-2, Fraction(1, 2)))
    assert right in c2.filter_side.members
    assert not cl.definitional_check(c2) >> right & 1


def test_definitional_check_fails_when_one_face_changes_sides():
    # with only vertices and barycenters drawn, a partition with any one face
    # moved to the other side fails the check at that face and nowhere else
    moved = Counter()
    for name in ("SEG", "TRI", "SQ", "CUBE", "TRI2"):
        lat = face_lattice(build_polytope(CORPUS_VERTICES[name]))
        for kind in cl.KINDS:
            for x in cl.sample_viewpoints(lat.polytope, kind, count=3, seed=5):
                c = cl.classify(lat, kind, x)
                for fid in range(lat.top_id):
                    flip = 1 << fid
                    broken = replace(
                        c,
                        filter_side=bd.FaceSubset(lat, c.filter_side.mask ^ flip),
                        complex_side=bd.FaceSubset(lat, c.complex_side.mask ^ flip),
                    )
                    assert cl.definitional_check(broken) == flip, (name, kind, x, fid)
                    moved[kind, fid in c.complex_side] += 1
    assert len(moved) == 2 * len(cl.KINDS), moved


def ray_meets(poly, p, d):
    """``classify._ray_meets`` on rational p and d, scaled to integers."""
    return cl._ray_meets(poly, *scale_to_integers(p), scale_to_integers(d)[0])


def fm_ray_meets(poly, p, d):
    """Whether p + lam*d lies in P for some lam > 0, by Fourier-Motzkin."""
    system = [((dot(d, f.normal),), -f.value(p), ">=") for f in poly.facets]
    system.append(((1,), 0, ">"))
    return lp_feasible(system, 1)


def test_ray_parameter_interval_matches_grid_and_exact_oracles(lattices):
    # rays from the points definitional_check draws (vertices, barycenter),
    # from two seeded convex combinations per face and from points just
    # outside P, in seeded rational directions
    rng = random.Random(17)
    drawn = Counter()
    for lat in lattices.values():
        poly = lat.polytope
        n = poly.dim
        for fid in range(lat.top_id):
            coords = lat.vertex_coords(fid)
            starts = [tuple(map(Fraction, v)) for v in coords]
            starts.append(tuple(Fraction(sum(c), len(coords)) for c in zip(*coords)))
            for _ in range(2):
                w = [rng.randint(1, 6) for _ in coords]
                starts.append(
                    tuple(Fraction(sum(a * v[i] for a, v in zip(w, coords)), sum(w)) for i in range(n))
                )
            starts += [tuple(c + Fraction(rng.randint(-2, 2), 3) for c in p) for p in starts]
            for p in starts:
                for _ in range(4):
                    d = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n))
                    if not any(d):
                        continue
                    hit = ray_meets(poly, p, d)
                    assert hit == fm_ray_meets(poly, p, d), (p, d)
                    if any(
                        poly.contains(tuple(pi + lam * di for pi, di in zip(p, d)))
                        for lam in LAMBDA_GRID
                    ):
                        assert hit, (p, d)
                        drawn["grid witness"] += 1
                    on_boundary = poly.contains(p) and not poly.contains(p, strict=True)
                    if on_boundary:
                        drawn["re-enters" if hit else "leaves at once"] += 1
                    if any(dot(d, f.normal) == 0 for f in poly.facets):
                        outside = any(f.value(p) < 0 for f in poly.facets if dot(d, f.normal) == 0)
                        drawn["parallel, outside" if outside else "parallel"] += 1
    assert set(drawn) == {
        "grid witness", "re-enters", "leaves at once", "parallel", "parallel, outside"
    }, drawn


def _fraction_rays(lattice, kind, x, fid):
    """Ray verdicts from the vertices and barycenter of a face, in Fractions,
    by Fourier-Motzkin."""
    coords = lattice.vertex_coords(fid)
    starts = [tuple(map(Fraction, v)) for v in coords]
    starts.append(tuple(Fraction(sum(c), len(coords)) for c in zip(*coords)))
    xq = tuple(map(Fraction, x))
    out = {}
    for p in starts:
        if kind == "visibility":
            d = tuple(a - b for a, b in zip(xq, p))
        elif kind == "frontback":
            d = tuple(b - a for a, b in zip(xq, p))
        else:
            d = tuple(-a for a in xq)
        out[p] = fm_ray_meets(lattice.polytope, p, d)
    return out


def test_integer_ray_verdicts_match_fraction_oracle():
    # a partition with every face on the complex side (every ray must leave
    # at once) fails exactly at the faces with a ray that re-enters, and one
    # with every face on the filter side exactly at the others
    drawn = Counter()
    for name in ("SEG", "TRI", "SQ", "CUBE", "TRI2"):
        lat = face_lattice(build_polytope(CORPUS_VERTICES[name]))
        everything = bd.FaceSubset(lat, lat.proper_mask)
        for kind in cl.KINDS:
            for x in cl.sample_viewpoints(lat.polytope, kind, count=4, seed=0):
                c = cl.classify(lat, kind, x)
                hit = 0
                for fid in range(lat.top_id):
                    rays = _fraction_rays(lat, kind, x, fid)
                    hit |= any(rays.values()) << fid
                    drawn.update((kind, h) for h in rays.values())
                all_complex = replace(c, complex_side=everything)
                all_filter = replace(c, complex_side=everything.complement())
                assert cl.definitional_check(all_complex) == hit, (name, kind, x)
                assert cl.definitional_check(all_filter) == lat.proper_mask & ~hit, (name, kind, x)
                # the partition itself: visible / back / lower faces are the missed ones
                assert c.complex_side.mask == lat.proper_mask & ~hit, (name, kind, x)
                assert cl.definitional_check(c) == 0, (name, kind, x)
    # rays that re-enter and rays that leave at once, for every kind
    assert set(drawn) == {(kind, hit) for kind in cl.KINDS for hit in (True, False)}, drawn


def test_definitional_check_classifies_once_per_viewpoint(monkeypatch):
    # the check reads the partition it is given and classifies nothing itself
    lat = face_lattice(build_polytope(CORPUS_VERTICES["SQ"]))
    calls = []
    original = cl.classify
    monkeypatch.setattr(cl, "classify", lambda *a: calls.append(a[1:]) or original(*a))
    for kind in cl.KINDS:
        for x in cl.sample_viewpoints(lat.polytope, kind, count=2, seed=0):
            c = cl.classify(lat, kind, x)
            assert cl.definitional_check(c) == 0
            assert cl.definitional_check(c) == 0
    assert len(calls) == len(set(calls)) == 6
