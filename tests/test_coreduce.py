"""Bit-sliced free-pair coreduction against the full restriction.

``homology.coreduce`` must leave each set of a batch a remainder whose
restricted complex has the cohomology of the whole set over Z (torsion
included), Q, Z/2 and Z/3, and the same remainder alone, in the batch and in
the reversed batch. The facet-sign classes of the corpus, the extended
shapes and seeded random 1-4D polytopes cover the face complexes, and the
closed stars and classification sides cover face sets that are closed under
going down; scaled nerves and hand-made complexes cover entries that are not
units, where no pair may be taken. ``sheaf._live_masks`` must give each
class its face set.
"""

import random

import pytest

from polytoric import boundary as bd
from polytoric import build_polytope, face_lattice
from polytoric import classify as cl
from polytoric import homology as hm
from polytoric import sheaf as sh
from polytoric import verify as vf
from polytoric.linalg import IntMatrix
from polytoric.polytope import Facet, FaceLattice, LatticePolytope
from conftest import CORPUS_VERTICES, coreduce_masks, face_ids, twist_signatures
from test_extended import EXTENDED
from test_homology import _projective_plane_nerve

RINGS = ("Z", "Q", "Z/2", "Z/3")
TWISTS = range(-3, 4)


def _random_polytopes(count=40, seed=7):
    """Seeded full-dimensional polytopes of dimension 1 to 4 with small
    coordinates, so the scan boxes at |k| <= 3 stay small."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 1 + len(out) % 4
        span = 3 if n < 4 else 1
        size = n + 1 + rng.randint(0, 4)
        points = [[rng.randint(0, span) for _ in range(n)] for _ in range(size)]
        try:
            out.append(face_lattice(build_polytope(points)))
        except ValueError:
            continue  # not full-dimensional; draw again
    return out


def _signatures(lat):
    """Signature of every facet-sign class the records of k in -3..3 meet."""
    sigs = set()
    for k in TWISTS:
        sigs.update(twist_signatures(lat, k))
    return sorted(sigs)


def _classes(lat):
    """Face set of every facet-sign class the records of k in -3..3 meet."""
    sets = {face_ids(sh._class_face_set(lat, sig)) for sig in _signatures(lat)}
    return sorted(sets, key=sorted)


def _coreduce_batch(ambient, sets, label):
    """Coreduce sets of labels in one batch and compare each set's two
    restrictions; each remainder must also be the set's remainder alone and
    in the reversed batch. Returns the labels left of each set."""
    cells = [x for layer in ambient.basis_labels for x in layer]
    masks = [sum(1 << i for i, x in enumerate(cells) if x in keep) for keep in sets]
    rests = coreduce_masks(ambient, masks)
    assert coreduce_masks(ambient, masks[::-1]) == rests[::-1], label
    for mask, rest in zip(masks, rests):
        assert rest & ~mask == 0, label
        assert coreduce_masks(ambient, [mask]) == [rest], (label, mask)
        full = hm.restrict_cochain_complex(ambient, mask)
        reduced = hm.restrict_cochain_complex(ambient, rest)
        for ring in RINGS:
            assert hm.cohomology(reduced, ring) == hm.cohomology(full, ring), (label, mask, ring)
    return [frozenset(x for i, x in enumerate(cells) if rest >> i & 1) for rest in rests]


def _assert_same_cohomology(ambient, keep, label):
    """``_coreduce_batch`` on one set of labels; returns the labels left."""
    (rest,) = _coreduce_batch(ambient, [keep], label)
    return rest


@pytest.fixture(scope="module")
def named_lattices():
    shapes = {**CORPUS_VERTICES, **EXTENDED}
    return {name: face_lattice(build_polytope(v)) for name, v in shapes.items()}


def test_face_set_mask_is_the_definitional_face_set(named_lattices):
    # the faces F with every facet through F holding, {F : facets(F) <= held}
    lattices = [*named_lattices.values(), *_random_polytopes()]
    checked = 0
    for lat in lattices:
        for sig in _signatures(lat):
            held = {i for i in range(len(lat.polytope.facets)) if sig >> i & 1}
            expected = frozenset(f.id for f in lat.faces if f.facet_set <= held)
            got = face_ids(sh._class_face_set(lat, sig))
            assert got == expected, (lat.polytope.vertices, sig)
            checked += 1
    assert checked > 1000


def test_faces_on_is_the_faces_meeting_the_facets(named_lattices):
    # faces_on(S) is {f : facets(f) meets S}, for random facet bitmasks S
    # and their complements;
    # the square with an extra facet tight on no vertex has no face on it
    sq = named_lattices["SQ"].polytope
    extra = FaceLattice(LatticePolytope(2, sq.vertices, sq.facets + (Facet((1, 1), 5),)))
    assert extra.faces_on(1 << len(sq.facets)) == 0
    lattices = [extra, *named_lattices.values(), *_random_polytopes()]
    rng = random.Random(5)
    checked = 0
    for lat in lattices:
        count = len(lat.polytope.facets)
        masks = [0, (1 << count) - 1, *(1 << j for j in range(count))]
        masks += [rng.getrandbits(count) for _ in range(20)]
        for mask in masks:
            chosen = {j for j in range(count) if mask >> j & 1}
            expected = frozenset(f.id for f in lat.faces if f.facet_set & chosen)
            assert face_ids(lat.faces_on(mask)) == expected, (lat.polytope.vertices, mask)
            # a negative mask, as ``~sig``, selects the facets outside it
            others = frozenset(f.id for f in lat.faces if f.facet_set - chosen)
            assert face_ids(lat.faces_on(~mask)) == others, (lat.polytope.vertices, ~mask)
            checked += 1
    assert checked > 1000


def test_live_masks_are_the_class_face_sets(named_lattices):
    # bit c of live[f] is set iff face f is in the face set of class c; the
    # square with an extra facet tight on no vertex gets every signature
    sq = named_lattices["SQ"].polytope
    extra = FaceLattice(LatticePolytope(2, sq.vertices, sq.facets + (Facet((1, 1), 5),)))
    lattices = [extra, *named_lattices.values(), *_random_polytopes()]
    checked = 0
    for lat in lattices:
        count = len(lat.polytope.facets)
        sigs = list(range(1 << count)) if lat is extra else _signatures(lat)
        live = sh._live_masks(lat, sigs)
        assert len(live) == len(lat.faces) and live[lat.top_id] == (1 << len(sigs)) - 1
        for c, sig in enumerate(sigs):
            faces = sh._class_face_set(lat, sig)
            assert sum((m >> c & 1) << f for f, m in enumerate(live)) == faces, (lat, sig)
            checked += 1
        assert sh._live_masks(lat, []) == [0] * len(lat.faces)
        assert sh._class_complexes(lat, []) == []
    assert checked > 1000


def test_class_remainders_match_full_restriction_on_named_shapes(named_lattices):
    for name, lat in named_lattices.items():
        _coreduce_batch(hm.face_cochain_complex(lat), _classes(lat), name)


def test_class_remainders_match_full_restriction_on_random_polytopes():
    lattices = _random_polytopes()
    assert {lat.polytope.dim for lat in lattices} == {1, 2, 3, 4}
    checked = 0
    for i, lat in enumerate(lattices):
        classes = _classes(lat)
        _coreduce_batch(hm.face_cochain_complex(lat), classes, (i, lat.polytope.vertices))
        checked += len(classes)
    assert checked > 1000


def test_corpus_remainders_have_at_most_one_cell(named_lattices):
    # the fast path: an acyclic class leaves nothing, a kP point leaves one
    # vertex, an interior point of -kP leaves the top face
    seen = set()
    for name, lat in named_lattices.items():
        classes = _classes(lat)
        rests = _coreduce_batch(hm.face_cochain_complex(lat), classes, name)
        for keep, rest in zip(classes, rests):
            assert len(rest) <= 1, (name, sorted(keep), sorted(rest))
            if rest:
                (cell,) = rest
                assert cell == lat.top_id or lat.face(cell).dim == 0, (name, cell)
                seen.add("top" if cell == lat.top_id else "vertex")
    assert seen == {"top", "vertex"}


def test_class_complexes_are_coreduced_and_share_the_empty_one():
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))  # a cold cache
    for k in TWISTS:
        sh.global_cohomology(cube, k, "Z")
    classes = cube._cache["sign_classes"]
    empty = [c for c in classes.values() if not any(c.basis_labels)]
    assert len(empty) > len(classes) // 2
    assert all(c is empty[0] for c in empty)
    assert all(sum(map(len, c.basis_labels)) <= 1 for c in classes.values())


def test_global_cohomology_reads_each_distinct_complex_once(monkeypatch):
    # 2P's classes share two complexes: the empty one, trivial over every
    # ring and never read, and the one vertex of the points of 2P
    cube = face_lattice(build_polytope(CORPUS_VERTICES["CUBE"]))  # a cold cache
    seen = []
    original = sh.cohomology
    monkeypatch.setattr(sh, "cohomology", lambda c, ring: seen.append(c) or original(c, ring))
    g = sh.global_cohomology(cube, 2, "Q")
    assert g.free == (27, 0, 0, 0)
    complexes = {id(c): c for c in sh._class_complexes(cube, twist_signatures(cube, 2))}
    with_a_cell = [c for c in complexes.values() if any(c.basis_labels)]
    assert len(complexes) == 2
    assert len(seen) == len({id(c) for c in seen}) == len(with_a_cell) == 1
    assert seen[0] is with_a_cell[0]


def test_cohomology_suite_never_reads_a_complex_without_a_cell(monkeypatch):
    # a complex without a cell is trivial over every ring, so no twist or
    # ring of the suite may hand one to ``homology.cohomology``
    seen = []
    original = sh.cohomology
    monkeypatch.setattr(sh, "cohomology", lambda c, ring: seen.append(c) or original(c, ring))
    for name, vertices in CORPUS_VERTICES.items():
        lat = face_lattice(build_polytope(vertices))  # a cold cache
        seen.clear()
        assert all(r.passed for r in vf.cohomology_suite(lat)), name
        assert seen, name
        assert all(any(c.basis_labels) for c in seen), name


def _is_convex(lat, ids):
    """Every face between two faces of ``ids`` is in ``ids``."""
    above, below = lat.above_masks, lat.below_masks
    return all(face_ids(above[x] & below[z]) <= ids for x in ids for z in ids if lat.leq(x, z))


def test_convex_face_sets_keep_their_cohomology_and_stay_convex(named_lattices):
    # closed stars, classification sides and closures of filter sides are
    # upward or downward closed; the remainder of each must stay convex
    units = [[int(i == j) for j in range(4)] for i in range(4)]
    shapes = {name: named_lattices[name] for name in ("CUBE", "OCTA")}
    shapes["SIMPLEX4"] = face_lattice(build_polytope([[0] * 4] + units))
    checked = 0
    for name, lat in shapes.items():
        ambient = hm.face_cochain_complex(lat)
        sets = [bd.closed_star(lat, f).members for f in range(lat.top_id)]
        for kind in cl.KINDS:
            for x in cl.sample_viewpoints(lat.polytope, kind, count=4, seed=0):
                c = cl.classify(lat, kind, x)
                sets += [c.complex_side.members, c.filter_side.members]
                sets.append(bd.closure(c.filter_side).members)
        for keep, rest in zip(sets, _coreduce_batch(ambient, sets, name)):
            assert _is_convex(lat, keep), (name, sorted(keep))
            assert _is_convex(lat, rest), (name, sorted(keep), sorted(rest))
            checked += 1
    assert checked > 150


# ---------------------------------------------------------------------------
# entries that are not units


def _complex(layers, maps):
    """Complex from label layers and dense integer maps (rows = next degree)."""
    mats = tuple(IntMatrix.from_rows(m, len(layers[i])) for i, m in enumerate(maps))
    return hm.IntegerChainComplex(0, tuple(map(tuple, layers)), mats)


def test_no_pair_along_a_non_unit_entry():
    # d(a) = 2b: H^1 = Z/2, so neither cell may go
    times_two = _complex([["a"], ["b"]], [[[2]]])
    keep = frozenset("ab")
    assert _assert_same_cohomology(times_two, keep, "times two") == keep
    assert hm.cohomology(times_two, "Z").torsion_at(1) == (2,)
    # d(a) = 2b, d(c) = b: c is paired with b, and a is left as H^0 = Z
    mixed = _complex([["a", "c"], ["b"]], [[[2, 1]]])
    assert _assert_same_cohomology(mixed, frozenset("abc"), "mixed") == {"a"}


def test_no_pair_with_a_cell_of_two_live_cofaces():
    # the boundary of a triangle: each vertex has two live edges and each
    # edge two live vertices, so no pair is free and H^0 = H^1 = Z survive
    circle = hm.simplicial_chain_complex(
        bd.NerveComplex((0, 1, 2), ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)))
    )
    cells = frozenset(x for layer in circle.basis_labels for x in layer)
    assert _assert_same_cohomology(circle, cells, "S1") == cells
    # without vertex 2 each edge at 2 has one live vertex: two pairs go and
    # one edge is left, the one H^1 class of the cochains vanishing at 2
    rest = _assert_same_cohomology(circle, cells - {(2,)}, "S1 minus a vertex")
    assert [len(x) for x in rest] == [2]


def _scaled(m, f):
    return IntMatrix(m.nrows, m.ncols, tuple(tuple((c, f * v) for c, v in r) for r in m.rows))


def test_scaled_nerves_and_the_projective_plane():
    # multiplying a whole coboundary by m keeps d∘d = 0 and makes every entry
    # of that map a non-unit when |m| > 1
    rng = random.Random(3)
    nerves = [_projective_plane_nerve()]
    for vertices in (CORPUS_VERTICES["CUBE"], EXTENDED["OCTA"], EXTENDED["PYRAMID"]):
        nerves.append(bd.nerve(bd.boundary_complex(face_lattice(build_polytope(vertices)))))
    torsion = set()
    for i, nerve in enumerate(nerves):
        for reduced in (False, True):
            base = hm.simplicial_chain_complex(nerve, reduced=reduced)
            keep = frozenset(x for layer in base.basis_labels for x in layer)
            for trial in range(4):
                factors = [rng.choice((1, -1, 2, 3, -6)) if trial else 1 for _ in base.maps]
                maps = tuple(_scaled(m, f) for m, f in zip(base.maps, factors))
                scaled = hm.IntegerChainComplex(base.start_degree, base.basis_labels, maps)
                _assert_same_cohomology(scaled, keep, (i, reduced, factors))
                torsion.update(t for tor in hm.cohomology(scaled, "Z").torsion for t in tor)
    assert {2, 3} <= torsion
