import random
from collections import Counter
from dataclasses import replace
from itertools import permutations, product
from math import prod

import pytest

from polytoric import ehrhart as eh
from polytoric import homology as hm
from polytoric import build_polytope, face_lattice
from polytoric import sheaf as sh
from polytoric import verify as vf
from polytoric.linalg import primitive_vector, vec_neg, vec_sub
from polytoric.polytope import Facet, FaceLattice, LatticePolytope
from polytoric.lp import cone_contains, dual_cone_rays
from conftest import (
    CORPUS_VERTICES,
    dilate_box,
    face_id,
    face_ids,
    face_mask,
    graded_piece,
    minus_p_crosscheck,
    negate_polytope,
    negated_lattice,
)
from test_ehrhart import dilate_contains
from test_extended import EXTENDED


def fm_membership(lattice, k, fid, x):
    """x in C_F + kF by Fourier-Motzkin feasibility on the generators P - F
    of C_F, translated by k times the lex-min vertex of F."""
    poly = lattice.polytope
    gens = {vec_sub(p, f) for p in poly.vertices for f in lattice.vertex_coords(fid)}
    gens.discard(tuple(0 for _ in range(poly.dim)))
    v0 = lattice.lex_min_vertex(fid)
    return cone_contains(tuple(sorted(gens)), tuple(xi - k * vi for xi, vi in zip(x, v0)))


def member(lattice, k, fid, x):
    """The facet formula for one face: bit fid of ``twist_members``."""
    return bool(sh.twist_members(lattice, k, x) >> fid & 1)


def facet_formula(lattice, k, fid, x):
    """x in C_F + kF face by face: every facet through F holds at x,
    <x, n_i> + k*c_i >= 0, each from ``Facet.value``; the top face is on no
    facet. The per-face reference for the one mask of ``twist_members``."""
    facets = lattice.polytope.facets
    return all(
        facets[i].value(x) + (k - 1) * facets[i].offset >= 0
        for i in range(len(facets))
        if lattice.facet_masks[fid] >> i & 1
    )


def test_twist_membership_top_face_always(sq):
    for k in (-3, -1, 0, 2):
        for x in ((0, 0), (5, -7), (-2, 3)):
            assert member(sq, k, sq.top_id, x)


def test_twist_membership_square_corner(sq):
    v11 = face_id(sq, (1, 1))
    assert member(sq, 1, v11, (1, 1))
    assert not member(sq, 1, v11, (2, 1))
    assert member(sq, -1, v11, (-1, -1))
    assert not member(sq, -1, v11, (0, -1))


def test_membership_oracle_segment(seg):
    v0 = face_id(seg, (0,))
    assert sh.membership_oracle(seg, 0, v0, (3,))
    assert not sh.membership_oracle(seg, 0, v0, (-1,))
    assert fm_membership(seg, 0, v0, (3,))
    assert not fm_membership(seg, 0, v0, (-1,))


@pytest.mark.parametrize("name", ["SEG", "TRI", "SQ", "CUBE"])
def test_formula_equals_oracle_on_declared_grid(lattices, name):
    lat = lattices[name]
    n = lat.polytope.dim
    for k in range(-2, 3):
        for x in product(range(-3, 5), repeat=n):
            members = sh.twist_members(lat, k, x)
            for f in lat.faces:
                assert bool(members >> f.id & 1) == sh.membership_oracle(
                    lat, k, f.id, x
                ), (name, k, x, f.id)


@pytest.mark.parametrize("name", ["SEG", "TRI", "SQ"])
def test_formula_equals_fm_route_on_declared_grid(lattices, name):
    # the facets and the ray oracle share the double-description kernel;
    # the Fourier-Motzkin route shares nothing with the formula
    lat = lattices[name]
    for k in range(-2, 3):
        for x in product(range(-3, 5), repeat=lat.polytope.dim):
            members = sh.twist_members(lat, k, x)
            for f in lat.faces:
                assert bool(members >> f.id & 1) == fm_membership(
                    lat, k, f.id, x
                ), (name, k, x, f.id)


def test_membership_certificate_holds_on_corpus(lattices):
    for name, lat in lattices.items():
        assert sh.membership_certificate(lat), name


def test_barrier_cone_rays_from_v_plus_f_generators_equal_all_differences(lattices):
    # cone(P - F) is cone(P - v0) + lin(F - v0), so its dual rays are those of
    # the vertex cone at v0 orthogonal to F - v0; the double description over
    # all |V|·|F| differences p - f is the reference
    shapes = {name: lat.polytope for name, lat in lattices.items()}
    shapes.update((name, build_polytope(v)) for name, v in EXTENDED.items())
    for name, poly in shapes.items():
        lat = face_lattice(poly)
        for fid in range(len(lat)):
            diffs = [vec_sub(p, f) for p in poly.vertices for f in lat.vertex_coords(fid)]
            assert sh._barrier_cone_rays(lat, fid) == dual_cone_rays(diffs, poly.dim), (name, fid)


def test_membership_certificate_runs_one_double_description_per_vertex(monkeypatch):
    lat = face_lattice(build_polytope(list(product((0, 1), repeat=5))))
    calls = []
    original = sh.dual_cone_rays

    def counted(gens, dim):
        calls.append(dim)
        return original(gens, dim)

    monkeypatch.setattr(sh, "dual_cone_rays", counted)
    assert sh.membership_certificate(lat)
    assert len(lat) == 243 and 0 < len(calls) <= len(lat.polytope.vertices) == 32


@pytest.mark.parametrize("name", ["TRI", "SQ", "CUBE", "TRI2"])
def test_membership_certificate_rejects_a_face_missing_a_facet(corpus, name):
    # the rays of C_F stay those of the vertex cone; one facet dropped from
    # one face's facet set leaves a ray with no facet normal to match it
    poly = corpus[name]
    for fid in range(len(FaceLattice(poly)) - 1):
        lat = FaceLattice(poly)
        on = lat.facet_masks[fid]
        masks = list(lat.facet_masks)
        masks[fid] = on & (on - 1)
        lat.facet_masks = tuple(masks)
        assert not sh.membership_certificate(lat), (name, fid)


def test_scan_box_is_the_dilate_box_with_its_margin(lattices):
    for name, lat in lattices.items():
        poly = lat.polytope
        for k in range(-4, 5):
            expected = (
                dilate_box(poly, k, sh.MARGIN)
                if k
                else tuple((-1 - sh.MARGIN, 1 + sh.MARGIN) for _ in range(poly.dim))
            )
            assert sh.scan_box(poly, k) == expected, (name, k)
            # the bounding box of the dilated vertices k*v
            coords = list(zip(*([k * c for c in v] for v in poly.vertices)))
            assert eh.dilate_box(poly, k) == tuple(zip(map(min, coords), map(max, coords)))


def corrupted(poly, i, facet):
    """A lattice of poly whose polytope carries a wrong facet i; the faces,
    their facet sets and the barrier cones stay those of poly."""
    lat = FaceLattice(poly)
    facets = list(poly.facets)
    facets[i] = facet
    lat.polytope = replace(poly, facets=tuple(facets))
    return lat


def grid_mismatch(lat):
    n = lat.polytope.dim
    return any(
        bool(members >> f.id & 1) != sh.membership_oracle(lat, k, f.id, x)
        for k in range(-2, 3)
        for x in product(range(-3, 5), repeat=n)
        for members in (sh.twist_members(lat, k, x),)
        for f in lat.faces
    )


@pytest.mark.parametrize("name", ["TRI", "SQ", "CUBE", "TRI2"])
def test_membership_certificate_rejects_a_shifted_offset(corpus, name):
    poly = corpus[name]
    for i, f in enumerate(poly.facets):
        for shift in (1, -1):
            lat = corrupted(poly, i, Facet(f.normal, f.offset + shift))
            assert not sh.membership_certificate(lat), (name, i, shift)
            assert grid_mismatch(lat), (name, i, shift)


@pytest.mark.parametrize("name", ["TRI", "SQ", "CUBE", "TRI2"])
def test_membership_certificate_rejects_a_perturbed_normal(corpus, name):
    poly = corpus[name]
    for i, f in enumerate(poly.facets):
        # add 1 to the first coordinate that turns the normal's direction
        for j in range(poly.dim):
            normal = tuple(c + (j == t) for t, c in enumerate(f.normal))
            if primitive_vector(normal) != f.normal:
                break
        # the outward normal of the same hyperplane is tight wherever the
        # inward one is; only the ray comparison sees it
        for facet in (Facet(normal, f.offset), Facet(vec_neg(f.normal), -f.offset)):
            lat = corrupted(poly, i, facet)
            assert not sh.membership_certificate(lat), (name, i, facet)
            assert grid_mismatch(lat), (name, i, facet)


def test_membership_certificate_rejects_a_wrong_ray_count(sq, monkeypatch):
    # the primitive normals, but one of them listed twice for one face
    original = sh._barrier_cone_rays
    vertex = face_id(sq, (0, 0))
    monkeypatch.setattr(
        sh,
        "_barrier_cone_rays",
        lambda lat, fid: original(lat, fid) * (2 if fid == vertex else 1),
    )
    assert not sh.membership_certificate(sq)


def test_oracle_fm_route_agrees_on_small_sample(tri):
    for k in (-1, 0, 1):
        for x in product(range(-2, 3), repeat=2):
            for f in tri.faces:
                assert sh.membership_oracle(tri, k, f.id, x) == fm_membership(tri, k, f.id, x)


def test_graded_piece_full_and_top_only(sq, seg):
    # a graded piece is the full restriction; its class complex, which the
    # cohomology reads, is coreduced to one cell
    g = graded_piece(sq, 1, (0, 0))
    assert g.base.members == frozenset(f.id for f in sq.faces)
    assert [len(layer) for layer in g.complex.basis_labels] == [4, 4, 1]
    (rest,) = sh._class_complexes(sq, [sq.polytope.holds((0, 0), 1)])
    assert [len(layer) for layer in rest.basis_labels] == [1, 0, 0]

    g = graded_piece(seg, -2, (-1,))
    assert g.base.members == {seg.top_id}
    assert [len(layer) for layer in g.complex.basis_labels] == [0, 1]
    (rest,) = sh._class_complexes(seg, [seg.polytope.holds((-1,), -2)])
    assert rest.basis_labels == ((), (seg.top_id,))


def test_graded_piece_k0_distant_point(sq):
    # faces whose facets all have <x, normal> >= 0 for x = (5, 0): the top
    # face plus the upper-face set for direction (-5, 0)
    ts = sh.twist_face_set(sq, 0, (5, 0))
    proper = {sq.face_label(i) for i in ts.members - {sq.top_id}}
    assert proper == {
        "1-face {(0, 0), (0, 1)}",
        "1-face {(0, 0), (1, 0)}",
        "1-face {(0, 1), (1, 1)}",
        "vertex (0, 0)",
        "vertex (0, 1)",
    }


def test_graded_cohomology_examples(sq, seg):
    res = sh.graded_cohomology(seg, -2, (-1,))
    assert res.free_rank(1) == 1 and res.free_rank(0) == 0 and not res.has_torsion()

    res = sh.graded_cohomology(sq, 1, (0, 0))
    assert res.free_rank(0) == 1 and res.free_rank(1) == 0 and res.free_rank(2) == 0

    res = sh.graded_cohomology(sq, -1, (0, 0))
    assert res.is_trivial()


def test_upward_closedness(lattices):
    for name in ("SEG", "TRI", "SQ", "CUBE"):
        lat = lattices[name]
        n = lat.polytope.dim
        for k in (-2, 0, 1):
            for x in product(range(-2, 4), repeat=n):
                ts = sh.twist_face_set(lat, k, x)
                for fid in ts.members:
                    assert face_ids(lat.above_masks[fid]) <= ts.members


def test_crosscheck_examples(sq):
    assert sh.classification_crosscheck(sq, 1, (2, 2))
    assert sh.classification_crosscheck(sq, 0, (5, 0))
    assert sh.classification_crosscheck(sq, -1, (0, 0))


def test_crosscheck_domains(sq):
    from fractions import Fraction

    with pytest.raises(ValueError):
        sh.classification_crosscheck(sq, 1, (0, 0))  # inside P
    with pytest.raises(ValueError):
        sh.classification_crosscheck(sq, 0, (0, 0))  # zero direction
    half = Fraction(-1, 2)
    with pytest.raises(ValueError):
        sh.classification_crosscheck(sq, -1, (half, half))  # interior of -P
    with pytest.raises(ValueError):
        sh.classification_crosscheck(sq, 2, (3, 3))


def test_crosscheck_over_scan_boxes(lattices):
    for name in ("SEG", "TRI", "SQ", "CUBE"):
        lat = lattices[name]
        poly = lat.polytope
        neg = negate_polytope(poly)
        for k in (1, 0, -1):
            box = sh.scan_box(poly, k)
            for x in product(*(range(lo, hi + 1) for lo, hi in box)):
                if k == 1 and poly.contains(x):
                    continue
                if k == 0 and all(c == 0 for c in x):
                    continue
                if k == -1 and neg.contains(x, strict=True):
                    continue
                assert sh.classification_crosscheck(lat, k, x), (name, k, x)


@pytest.mark.parametrize("name", ["SQ", "TRI", "CUBE"])
def test_crosscheck_verdict_depends_only_on_the_signature(lattices, name, monkeypatch):
    # verify checks one point per facet-sign class; the per-point verdicts
    # must be constant on each class for that to equal the per-point check
    lat = lattices[name]
    poly = lat.polytope
    neg = negate_polytope(poly)
    per_point = []
    classes = {}
    for k in (1, 0, -1):
        by_class = classes[k] = {}
        for x in product(*(range(lo, hi + 1) for lo, hi in sh.scan_box(poly, k))):
            if k == 1 and poly.contains(x):
                continue
            if k == 0 and all(c == 0 for c in x):
                continue
            if k == -1 and neg.contains(x, strict=True):
                continue
            verdict = sh.classification_crosscheck(lat, k, x)
            per_point.append(verdict)
            first = by_class.setdefault(poly.holds(x, k), verdict)
            assert verdict == first, (name, k, x)
    calls = {k: [] for k in classes}
    original = sh.classification_crosscheck

    def record(lattice, k, x):
        calls[k].append(poly.holds(x, k))
        return original(lattice, k, x)

    monkeypatch.setattr(sh, "classification_crosscheck", record)
    by_name = {r.name: r.passed for r in vf.cohomology_suite(lat)}
    assert by_name["twist face sets match the classifications for k in {1,0,-1}"] == all(
        per_point
    )
    # one call per realized class, and every class is called
    for k, sigs in calls.items():
        assert sorted(sigs) == sorted(classes[k]), (name, k)


MINUS_P_SHAPES = {
    "CUBE3": CORPUS_VERTICES["CUBE"],
    "OCTA": EXTENDED["OCTA"],
    "PENTAGON": [[0, 0], [2, 0], [3, 2], [1, 3], [-1, 2]],
    "TRAPEZOID": [[0, 0], [1, 0], [2, 3], [-1, 3]],
    "PERMUTO3": [list(p[:3]) for p in permutations(range(4))],
}


def k_minus1_points(lat):
    """The first point of each k = -1 scan class with x outside int(-P), the
    points verify's cross-check runs on."""
    poly = lat.polytope
    return [x for _, x in sh.class_points(lat, -1) if not poly.contains(vec_neg(x), strict=True)]


@pytest.mark.parametrize("name", MINUS_P_SHAPES)
def test_k_minus1_crosscheck_equals_the_minus_p_route(name):
    # P at -x answers what -P answers at x
    lat = face_lattice(build_polytope(MINUS_P_SHAPES[name]))
    negated = negated_lattice(lat)
    points = k_minus1_points(lat)
    assert len(points) > 5, name
    for x in points:
        assert sh.classification_crosscheck(lat, -1, x) is True, (name, x)
        assert minus_p_crosscheck(lat, x, negated) is True, (name, x)


@pytest.mark.parametrize("name", MINUS_P_SHAPES)
def test_both_k_minus1_routes_fail_on_a_flipped_facet_bit(name, monkeypatch):
    # one facet's bit of the k = -1 holds mask flipped: that facet's own face
    # joins or leaves the twist members, so both routes must fail everywhere
    lat = face_lattice(build_polytope(MINUS_P_SHAPES[name]))
    negated = negated_lattice(lat)
    points = k_minus1_points(lat)
    original = LatticePolytope.holds
    for j in range(len(lat.polytope.facets)):

        def flipped(self, x, k=1, strict=False):
            held = original(self, x, k, strict)
            return held ^ 1 << j if k == -1 else held

        monkeypatch.setattr(LatticePolytope, "holds", flipped)
        for x in points:
            assert sh.classification_crosscheck(lat, -1, x) is False, (name, j, x)
            assert minus_p_crosscheck(lat, x, negated) is False, (name, j, x)


def test_per_class_crosscheck_detects_a_wrong_classification(monkeypatch):
    # lower faces for +x in place of -x: wrong on every k = 0 class
    lat = face_lattice(build_polytope(CORPUS_VERTICES["SQ"]))
    original = sh.classify_lower_upper
    monkeypatch.setattr(sh, "classify_lower_upper", lambda lat, x: original(lat, vec_neg(x)))
    by_name = {r.name: r.passed for r in vf.cohomology_suite(lat)}
    assert by_name["twist face sets match the classifications for k in {1,0,-1}"] is False


def test_signature_dedup_check_detects_a_wrong_class_face_set(monkeypatch):
    lat = face_lattice(build_polytope(CORPUS_VERTICES["SQ"]))  # a cold cache
    name = "equal facet-sign vectors give equal twist face sets"
    assert {r.name: r.passed for r in vf.cohomology_suite(lat)}[name] is True
    # every class complex is cached now; a wrong signature-to-face-set map
    # (the lowest face id's bit dropped) must be caught by the check alone
    original = sh._class_face_set

    def wrong(lattice, sig):
        members = original(lattice, sig)
        return members & (members - 1)

    monkeypatch.setattr(sh, "_class_face_set", wrong)
    by_name = {r.name: r.passed for r in vf.cohomology_suite(lat)}
    assert by_name[name] is False
    assert all(passed for check, passed in by_name.items() if check != name)


def test_twist_members_equals_the_per_face_membership_formula(lattices):
    # the one facet mask per point against the facet formula face by face
    for name, lat in lattices.items():
        n = lat.polytope.dim
        for k in (-2, -1, 0, 1, 2):
            for x in product(range(-3, 4), repeat=n):
                expected = face_mask(
                    f for f in range(len(lat)) if facet_formula(lat, k, f, x)
                )
                assert sh.twist_members(lat, k, x) == expected, (name, k, x)


def test_dedup_check_detects_twist_members_dropping_a_face(monkeypatch):
    # twist_members with the lowest face id of every set left out: the sets
    # stay upward closed, and the dedup check must notice (the cross-check
    # reads twist_members too)
    lat = face_lattice(build_polytope(CORPUS_VERTICES["SQ"]))
    name = "equal facet-sign vectors give equal twist face sets"
    original = sh.twist_members

    def dropped(lattice, k, x):
        members = original(lattice, k, x)
        return members & (members - 1)

    monkeypatch.setattr(sh, "twist_members", dropped)
    by_name = {r.name: r.passed for r in vf.cohomology_suite(lat)}
    assert by_name[name] is False
    assert by_name["twist face sets are upward closed"] is True


def test_dedup_check_detects_a_point_filed_under_the_wrong_class(monkeypatch):
    # the scan's first point of each k = 1 class handed over with the next
    # class's signature: the per-class comparison must notice
    lat = face_lattice(build_polytope(CORPUS_VERTICES["SQ"]))
    original = sh.class_points

    def shifted(lattice, k):
        reps = original(lattice, k)
        if k != 1:
            return reps
        sigs = [sig for sig, _ in reps]
        return [(sig, x) for sig, (_, x) in zip(sigs[1:] + sigs[:1], reps)]

    monkeypatch.setattr(sh, "class_points", shifted)
    by_name = {r.name: r.passed for r in vf.cohomology_suite(lat)}
    assert by_name["equal facet-sign vectors give equal twist face sets"] is False


@pytest.mark.parametrize("shape", ["corpus", "extended"])
def test_twist_face_set_is_constant_on_each_k1_scan_class(lattices, shape):
    # the per-class dedup check in verify decides the per-point statement
    # only because of this: one face set per class of the k = 1 scan box
    if shape == "extended":
        lattices = {name: face_lattice(build_polytope(v)) for name, v in EXTENDED.items()}
    for name, lat in lattices.items():
        sigs, runs, _ = sh._scan(lat, 1)
        by_class = {}
        for i, prefix, first, last in runs:
            for t in range(first, last + 1):
                members = sh.twist_face_set(lat, 1, prefix + (t,)).members
                assert by_class.setdefault(i, members) == members, (name, prefix, t)
        assert sorted(by_class) == list(range(len(by_class)))
        for i, members in by_class.items():
            assert members == face_ids(sh._class_face_set(lat, sigs[i])), (name, i)
        assert [sig for sig, _ in sh.class_points(lat, 1)] == sigs[: len(by_class)]


@pytest.mark.parametrize("name", ["SQ", "CUBE", "TRI2"])
def test_cohomology_suite_runs_one_twist_face_set_per_k1_class(name, monkeypatch):
    lat = face_lattice(build_polytope(CORPUS_VERTICES[name]))  # a cold cache
    poly = lat.polytope
    box = sh.scan_box(poly, 1)
    realized = {poly.holds(x, 1) for x in product(*(range(lo, hi + 1) for lo, hi in box))}
    twists = []
    crosschecks = []
    # verify reads twist face sets through the non-raising twist_members
    original_twist = sh.twist_members
    original_cross = sh.classification_crosscheck

    def twist(lattice, k, x):
        twists.append((k, poly.holds(x, k)))
        return original_twist(lattice, k, x)

    def cross(lattice, k, x):
        crosschecks.append((k, poly.holds(x, k)))
        return original_cross(lattice, k, x)

    monkeypatch.setattr(sh, "twist_members", twist)
    monkeypatch.setattr(sh, "classification_crosscheck", cross)
    assert all(r.passed for r in vf.cohomology_suite(lat))
    # every cross-check makes one call of its own; the rest are the dedup
    # and upward-closure checks, once per realized k = 1 class
    rest = Counter(twists)
    rest.subtract(crosschecks)
    assert +rest == Counter((1, sig) for sig in realized), name
    assert len(twists) == len(realized) + len(crosschecks)


def test_expected_contributors_over_budget_is_refused_before_enumeration(sq, monkeypatch):
    # SQ at k = -3 spans the 4 x 4 dilate box [-3, 0]^2
    monkeypatch.setattr(eh, "MAX_SCAN_POINTS", 16)
    interior = ((-2, -2), (-2, -1), (-1, -2), (-1, -1))
    assert sh.expected_contributors(sq, -3) == tuple((x, 2) for x in interior)
    monkeypatch.setattr(eh, "MAX_SCAN_POINTS", 15)

    def no_enumeration(*args):
        raise AssertionError("dilate box enumerated despite the budget")

    monkeypatch.setattr(sh, "dilate_points", no_enumeration)
    with pytest.raises(ValueError, match="16 points"):
        sh.expected_contributors(sq, -3)


def test_global_cohomology_examples(sq, tri, seg):
    g = sh.global_cohomology(sq, -2, "Z")
    assert g.free == (0, 0, 1)
    assert g.contributors == (((-1, -1), 2),)
    assert not g.has_torsion() and g.shell_certified

    g = sh.global_cohomology(tri, 1, "Z")
    assert g.free == (3, 0, 0)

    g = sh.global_cohomology(seg, -1, "Z")
    assert g.free == (0, 0) and g.contributors == ()


@pytest.mark.parametrize("tight", ["last axis", "head axes"])
@pytest.mark.parametrize("name", ["SQ", "CUBE"])
@pytest.mark.parametrize("k", [1, 2])
def test_shell_check_refuses_a_box_tight_on_one_side(name, k, tight, monkeypatch):
    # kP touches every side of its bounding box; a scan box that is that tight
    # box on some axes puts contributors on the shell, which must be refused
    original = sh.scan_box

    def box(poly, k):
        wide, bare = original(poly, k), dilate_box(poly, k, 0)
        return wide[:-1] + bare[-1:] if tight == "last axis" else bare[:-1] + wide[-1:]

    monkeypatch.setattr(sh, "scan_box", box)
    lat = face_lattice(build_polytope(CORPUS_VERTICES[name]))  # a cold scan cache
    with pytest.raises(RuntimeError, match="^scan shell is not acyclic$"):
        sh.global_cohomology(lat, k, "Z")


def test_scan_box_over_budget_is_refused_before_enumeration(sq, monkeypatch):
    # SQ at k = 1 scans the 6 x 6 box [-2, 3]^2
    sweeps = []
    original = sh.line_values
    monkeypatch.setattr(sh, "line_values", lambda *a: sweeps.append(a) or original(*a))
    monkeypatch.setattr(eh, "MAX_SCAN_POINTS", 36)
    cold = face_lattice(build_polytope(CORPUS_VERTICES["SQ"]))
    assert sh.global_cohomology(cold, 1, "Z").free == (4, 0, 0)
    assert len(sweeps) == 1  # the wrapper sees the scan of an accepted box
    monkeypatch.setattr(eh, "MAX_SCAN_POINTS", 35)
    sq = face_lattice(build_polytope(CORPUS_VERTICES["SQ"]))  # a cold scan cache

    def no_enumeration(*args):
        raise AssertionError("box enumerated despite the budget")

    monkeypatch.setattr(sh, "line_values", no_enumeration)
    monkeypatch.setattr(LatticePolytope, "holds", no_enumeration)
    with pytest.raises(ValueError, match="36 points"):
        sh.global_cohomology(sq, 1, "Z")


def test_class_complexes_are_shared_by_rings_and_twists(monkeypatch):
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))  # a cold cache
    built = []
    original = hm.restrict_cochain_complex
    monkeypatch.setattr(hm, "restrict_cochain_complex", lambda *a: built.append(a) or original(*a))
    sh.global_cohomology(cube, 1, "Z")
    # one restriction per distinct coreduced remainder, shared by its classes
    classes = cube._cache["sign_classes"]
    distinct = {id(c) for c in classes.values()}
    assert [keep for _, keep in built] == list(cube._cache["remainders"])
    assert len(built) == len(distinct) > 1
    assert len(classes) > len(distinct)
    built.clear()
    for ring in ("Q", "Z/2", "Z/3"):
        sh.global_cohomology(cube, 1, ring)
    # k = 2 meets no facet-sign class that k = 1 did not
    sh.global_cohomology(cube, 2, "Z")
    assert built == []


def test_rings_at_one_twist_share_one_signature_sweep(monkeypatch):
    calls = []
    original = sh.line_values
    monkeypatch.setattr(sh, "line_values", lambda *a: calls.append(a) or original(*a))
    warm = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))
    sh.global_cohomology(warm, -2, "Z")
    assert len(calls) == 1
    for ring in ("Q", "Z/2", "Z/3"):
        calls.clear()
        got = sh.global_cohomology(warm, -2, ring)
        assert calls == [], ring
        cold = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))
        assert got == sh.global_cohomology(cold, -2, ring), ring
    # another twist is another sweep
    calls.clear()
    sh.global_cohomology(warm, 2, "Z")
    assert len(calls) == 1


def test_graded_pieces_reuse_the_scan_class_complexes(monkeypatch):
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))  # a cold cache
    poly = cube.polytope
    for k in (-1, 1):
        sh.global_cohomology(cube, k, "Z")
    cached = dict(cube._cache["sign_classes"])
    built = []
    original = hm.restrict_cochain_complex
    monkeypatch.setattr(hm, "restrict_cochain_complex", lambda *a: built.append(a) or original(*a))
    pieces = set()
    for k in (-1, 1):
        for x in product(*(range(lo, hi + 1) for lo, hi in sh.scan_box(poly, k))):
            sig = poly.holds(x, k)
            res = sh.graded_cohomology(cube, k, x, "Z")
            assert res == hm.cohomology(cached[sig], "Z"), (k, x)
            # the full restriction, built on every call
            piece = graded_piece(cube, k, x)
            pieces.add(sig)
            kept = {f for layer in piece.complex.basis_labels for f in layer}
            assert kept == piece.base.members, (k, x)
            assert hm.cohomology(piece.complex, "Z") == res, (k, x)
    # graded_cohomology built nothing: it read the scan's class complexes
    assert cube._cache["sign_classes"] == cached
    points = sum(prod(hi - lo + 1 for lo, hi in sh.scan_box(poly, k)) for k in (-1, 1))
    assert len(built) == points and pieces <= set(cached)


def test_global_matches_ehrhart_closed_form(lattices):
    for name, lat in lattices.items():
        poly = lat.polytope
        n = poly.dim
        ehr = eh.ehrhart_polynomial(poly)
        for k in range(-3, 4):
            expect_rank = abs(ehr.value_at_integer(k))
            expect_deg = 0 if k >= 0 else n
            for ring in ("Z", "Q", "Z/2", "Z/3"):
                g = sh.global_cohomology(lat, k, ring)
                assert not g.has_torsion(), (name, k, ring)
                assert g.free_rank(expect_deg) == expect_rank, (name, k, ring)
                for d in range(n + 1):
                    if d != expect_deg:
                        assert g.free_rank(d) == 0, (name, k, ring, d)


# the cyclic permutations of (0, +-1, +-2), an icosahedron with 20 facets
ICOSA12 = sorted({p for a in (1, -1) for b in (2, -2) for p in ((0, a, b), (a, b, 0), (b, 0, a))})


@pytest.mark.parametrize("k, degree, rank", [(10, 0, 29241), (-10, 3, 26839)])
def test_icosa12_at_large_twists(k, degree, rank):
    # a scan box of 45^3 points, read as facet-sign runs; every contributor decoded
    lat = face_lattice(build_polytope(ICOSA12))
    assert abs(eh.ehrhart_polynomial(lat.polytope).value_at_integer(k)) == rank
    g = sh.global_cohomology(lat, k, "Z")
    assert g.free == tuple(rank if d == degree else 0 for d in range(4))
    assert not g.has_torsion()
    assert g.contributors == sh.expected_contributors(lat, k)


def test_contributors_are_dilate_points(lattices):
    for name, lat in lattices.items():
        for k in range(-3, 4):
            g = sh.global_cohomology(lat, k, "Z")
            assert g.contributors == sh.expected_contributors(lat, k), (name, k)
            for x, d in g.contributors:
                if k >= 0:
                    assert d == 0 and dilate_contains(lat.polytope, k, x)
                else:
                    assert d == lat.polytope.dim
                    assert dilate_contains(lat.polytope, k, x, strict=True)


def test_sign_vector_dedup_soundness(sq):
    poly = sq.polytope
    seen = {}
    for x in product(range(-3, 5), repeat=2):
        sig = tuple(
            0 if v == 0 else (1 if v > 0 else -1)
            for v in (f.value(x) for f in poly.facets)
        )
        members = sh.twist_face_set(sq, 1, x).members
        res = sh.graded_cohomology(sq, 1, x, "Z")
        if sig in seen:
            assert seen[sig] == (members, res.free)
        else:
            seen[sig] = (members, res.free)


def test_quotient_by_graded_piece_is_ball_cohomology(sq, cube):
    # the faces outside U(x) carry the cellular cochain complex of a ball:
    # one free generator in degree 0, nothing else (when any face is outside)
    for lat in (sq, cube):
        n = lat.polytope.dim
        box = dilate_box(lat.polytope, -1, 1)
        ambient = hm.face_cochain_complex(lat)
        for x in product(*(range(lo, hi + 1) for lo, hi in box)):
            members = sh.twist_face_set(lat, -1, x).members
            rest = frozenset(f.id for f in lat.faces) - members
            if not rest:
                continue
            quotient = hm.restrict_cochain_complex(ambient, face_mask(rest))
            res = hm.cohomology(quotient, "Z")
            if members == {lat.top_id}:
                # interior point: the quotient is the full boundary complex,
                # cohomology of the (n-1)-sphere
                assert res.free_rank(0) == 1 and res.free_rank(n - 1) == 1
            else:
                assert res.free_rank(0) == 1 and not res.has_torsion()
                assert all(res.free_rank(d) == 0 for d in range(1, n + 1))


def _rejection_draw(poly, k, box, bound=sh.DISTANT_COORD_BOUND):
    """Distant points drawn with ``randint``: rejection from [-bound, bound]^n,
    by default the cube B = DISTANT_COORD_BOUND that has not grown."""
    rng = random.Random(f"distant:{k}:{poly.vertices}")
    out = []
    while len(out) < sh.DISTANT_POINT_COUNT:
        x = tuple(rng.randint(-bound, bound) for _ in range(poly.dim))
        if not all(lo <= xi <= hi for xi, (lo, hi) in zip(x, box)):
            out.append(x)
    return out


def test_distant_points_unchanged_while_the_box_leaves_room(lattices):
    for name, lat in lattices.items():
        poly = lat.polytope
        for k in (-3, 0, 2, 20):
            box = sh.scan_box(poly, k)
            assert sh._distant_points(poly, k, box) == _rejection_draw(poly, k, box), (name, k)
    # a box that covers [-B, B] on one axis only still leaves room
    sq = lattices["SQ"].polytope
    box = ((-60, 60), (-1, 1))
    assert sh._distant_points(sq, 1, box) == _rejection_draw(sq, 1, box)


def test_distant_points_and_classes_match_the_randint_oracle(lattices):
    # randrange(2B + 1) - B draws what randint(-B, B) draws, and the scan's
    # facet rows file each distant point under the class its holds mask names
    seg = face_lattice(build_polytope([[-1], [1]]))
    cases = [(lat, k) for lat in lattices.values() for k in range(-3, 4)] + [(seg, 60)]
    for lat, k in cases:
        poly = lat.polytope
        box = sh.scan_box(poly, k)
        bound = sh.DISTANT_COORD_BOUND
        if all(lo <= -bound and hi >= bound for lo, hi in box):  # the box covers the cube
            bound += max(max(-lo, hi) for lo, hi in box)
        distant = sh._distant_points(poly, k, box)
        assert distant == _rejection_draw(poly, k, box, bound), (poly.vertices, k)
        sigs, _, ids = sh._scan(lat, k)
        assert [sigs[c] for c in ids] == [poly.holds(x, k) for x in distant]
    assert bound == sh.DISTANT_COORD_BOUND + 62  # the segment's box [-62, 62] covers the cube


def test_scan_box_covering_the_distant_cube_does_not_hang():
    # the segment [-1, 1] at k = 60 scans [-62, 62], which covers [-50, 50];
    # the distant points then come from a cube reaching 50 beyond the box
    seg = face_lattice(build_polytope([[-1], [1]]))
    g = sh.global_cohomology(seg, 60, "Z")
    assert g.scan_box == ((-62, 62),)
    assert g.free == (121, 0)
    assert g.contributors == tuple(((x,), 0) for x in range(-60, 61))
    distant = sh._distant_points(seg.polytope, 60, g.scan_box)
    assert len(distant) == sh.DISTANT_POINT_COUNT
    assert all(62 < abs(x) <= 112 for (x,) in distant)
    # the same on the square with vertices (+-1, +-1), whose box at k = 48
    # is exactly [-50, 50]^2
    sq = face_lattice(build_polytope([[1, 1], [1, -1], [-1, 1], [-1, -1]]))
    box = sh.scan_box(sq.polytope, 48)
    assert box == ((-50, 50), (-50, 50))
    assert all(max(map(abs, x)) > 50 for x in sh._distant_points(sq.polytope, 48, box))
