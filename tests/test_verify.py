import pytest

import polytoric.polytope as polytope_module
from polytoric import boundary as bd
from polytoric import build_polytope, face_lattice
from polytoric import classify as cl
from polytoric import ehrhart as eh
from polytoric import homology as hm
from polytoric import sheaf as sh
from polytoric import verify as vf
from polytoric.polytope import Facet, FaceLattice, LatticePolytope
from conftest import CORPUS_VERTICES, coreduce_masks, face_id


def test_all_suites_pass_on_small_corpus(lattices):
    for name in ("SEG", "TRI", "SQ2"):
        results = vf.run_suite(lattices[name], "all", seed=0)
        failed = [r.name for r in results if not r.passed]
        assert not failed, (name, failed)


def test_verify_builds_no_face_view():
    # every suite reads the lattice's int masks, so the Face view stays unbuilt
    lat = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))
    assert all(r.passed for r in vf.run_suite(lat, "all"))
    assert "faces" not in vars(lat)


def test_all_suites_refuse_tri5_before_any_sweep(monkeypatch):
    # the triangle of legs 10^5: the Ehrhart suite's reciprocity budget is
    # read before the combinatorics suite counts its irredundancy box
    lat = face_lattice(build_polytope([[0, 0], [100000, 0], [0, 100000]]))
    sweeps = []
    original = eh.line_spans

    def counting(*args):
        sweeps.append(args)
        return original(*args)

    monkeypatch.setattr(eh, "line_spans", counting)
    monkeypatch.setattr(sh, "line_spans", counting)
    with pytest.raises(ValueError, match="reciprocity up to 4 scans more than the 100000000"):
        vf.run_suite(lat, "all")
    assert sweeps == []


def test_ball_sphere_sets_and_sign_classes_share_one_complex_per_remainder(monkeypatch):
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))  # a cold cache
    built = []
    original = hm.restrict_cochain_complex
    monkeypatch.setattr(
        hm, "restrict_cochain_complex", lambda cx, keep: built.append(keep) or original(cx, keep)
    )
    assert all(r.passed for r in vf.run_suite(cube, "all"))
    remainders = cube._cache["remainders"]
    assert len(built) == len(set(built)) and set(built) == set(remainders)
    # the classify suite's ball and sphere sets, coreduced again by hand
    sets = []
    for kind in cl.KINDS:
        for x in cl.sample_viewpoints(cube.polytope, kind, vf.VIEWPOINTS, 0):
            c = cl.classify(cube, kind, x)
            sets += [c.complex_side, bd.closure(c.filter_side), c.filter_side, c.boundary]
    rests = coreduce_masks(hm.face_cochain_complex(cube), [s.mask for s in sets])
    assert set(rests) <= set(remainders)
    classes = {id(c) for c in cube._cache["sign_classes"].values()}
    assert classes <= {id(c) for c in remainders.values()}
    assert classes & {id(remainders[r]) for r in rests}


def test_unknown_suite_rejected(seg):
    with pytest.raises(ValueError):
        vf.run_suite(seg, "everything")


def test_corrupted_facet_list_fails_irredundancy(corpus):
    # negative control: a redundant inequality sneaks into the facet list
    sq = corpus["SQ"]
    corrupted = LatticePolytope(
        sq.dim, sq.vertices, sq.facets + (Facet((1, 1), 5),), sq.discarded
    )
    lat = FaceLattice(corrupted)
    results = vf.combinatorics_suite(lat)
    by_name = {r.name: r.passed for r in results}
    assert by_name["facet irredundancy"] is False


def test_one_wrong_join_value_fails_semilattice_check(corpus):
    # negative control: an upper bound that is not the least one, for one pair
    lat = FaceLattice(corpus["SQ"])
    a, b = face_id(lat, (0, 0)), face_id(lat, (1, 0))
    assert lat.join(a, b) != lat.top_id
    right = lat.join
    lat.join = lambda x, y: lat.top_id if (x, y) == (a, b) else right(x, y)
    by_name = {r.name: r.passed for r in vf.combinatorics_suite(lat)}
    assert by_name["join is a semilattice operation"] is False


def test_one_wrong_join_in_a_star_fails_join_formula_check(corpus):
    # negative control: join(g, a) = P for one g in star(a) moves g from the
    # star of a to its open antistar on the join route
    lat = FaceLattice(corpus["CUBE"])
    a, g = face_id(lat, (0, 0, 0)), face_id(lat, (0, 0, 0), (1, 0, 0))
    assert lat.join(g, a) == g
    right = lat.join
    lat.join = lambda x, y: lat.top_id if (x, y) == (g, a) else right(x, y)
    by_name = {r.name: r.passed for r in vf.combinatorics_suite(lat)}
    assert by_name["star/link/antistar: definitional = combinatorial"] is False


def test_closed_star_within_dropping_a_face_fails_star_in_link_check(corpus, monkeypatch):
    lat = FaceLattice(corpus["CUBE"])
    right = bd.closed_star_within

    def drops_one(subset, fid):
        mask = right(subset, fid).mask
        return bd.FaceSubset(lat, mask & (mask - 1))

    monkeypatch.setattr(bd, "closed_star_within", drops_one)
    by_name = {r.name: r.passed for r in vf.combinatorics_suite(lat)}
    assert by_name["closed star inside a link via joins"] is False
    assert by_name["star/link/antistar: definitional = combinatorial"] is True


def test_link_off_by_one_face_fails_link_difference_check(corpus, monkeypatch):
    lat = FaceLattice(corpus["CUBE"])
    a = face_id(lat, (0, 0, 0))
    right = bd.link

    def off_by_one(lattice, fid):
        lk = right(lattice, fid)
        return bd.FaceSubset(lattice, lk.mask | 1 << a) if fid == a else lk

    monkeypatch.setattr(bd, "link", off_by_one)
    by_name = {r.name: r.passed for r in vf.combinatorics_suite(lat)}
    assert by_name["link = closed star minus star = closed antistar minus antistar"] is False
    assert by_name["star/link/antistar: definitional = combinatorial"] is False


def test_cohomology_suite_builds_minus_p_once(monkeypatch):
    lat = face_lattice(build_polytope(CORPUS_VERTICES["SQ"]))  # a cold cache
    builds = []
    original = polytope_module.build_polytope

    def build(points):
        builds.append(points)
        return original(points)

    monkeypatch.setattr(polytope_module, "build_polytope", build)
    assert all(r.passed for r in vf.cohomology_suite(lat))
    assert len(builds) == 1


def test_results_are_deterministic(tri):
    a = vf.run_suite(tri, "classify", seed=3)
    b = vf.run_suite(tri, "classify", seed=3)
    assert a == b


def test_classify_suite_classifies_each_viewpoint_once(monkeypatch):
    # and decides the ray definition once per viewpoint, on that classification
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))
    calls, checked = [], []
    original, check = cl.classify, cl.definitional_check

    def classify(lat, kind, x):
        calls.append((kind, tuple(x)))
        return original(lat, kind, x)

    monkeypatch.setattr(cl, "classify", classify)
    monkeypatch.setattr(cl, "definitional_check", lambda c: checked.append(c) or check(c))
    assert all(r.passed for r in vf.classify_suite(cube, seed=0))
    distinct = {
        (kind, tuple(x))
        for kind in cl.KINDS
        for x in cl.sample_viewpoints(cube.polytope, kind, count=4, seed=0)
    }
    assert len(distinct) == 12
    assert sorted(calls) == sorted(distinct)
    assert [(c.kind, c.point) for c in checked] == calls


def test_verify_keeps_no_classification_on_the_lattice():
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))
    assert all(r.passed for r in vf.run_suite(cube, "all"))
    assert not {"classifications", "ray_verdicts"} & set(cube._cache)
