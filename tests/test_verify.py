import pytest

from polytoric import build_polytope, face_lattice
from polytoric import classify as cl
from polytoric import verify as vf
from polytoric.polytope import Facet, FaceLattice, LatticePolytope
from conftest import CORPUS_VERTICES, face_id


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


def test_results_are_deterministic(tri):
    a = vf.run_suite(tri, "classify", seed=3)
    b = vf.run_suite(tri, "classify", seed=3)
    assert a == b


def test_classify_suite_classifies_each_viewpoint_once(monkeypatch):
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))  # a cold cache
    calls = []
    original = cl.classify

    def classify(lat, kind, x):
        calls.append((kind, tuple(x)))
        return original(lat, kind, x)

    monkeypatch.setattr(cl, "classify", classify)
    assert all(r.passed for r in vf.classify_suite(cube, seed=0))
    distinct = {
        (kind, tuple(x))
        for kind in cl.KINDS
        for x in cl.sample_viewpoints(cube.polytope, kind, count=4, seed=0)
    }
    assert len(distinct) == 12
    assert sorted(calls) == sorted(distinct)
