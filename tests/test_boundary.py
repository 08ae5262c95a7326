import random
from itertools import product

import pytest

from polytoric import boundary as bd
from polytoric import build_polytope, face_lattice
from conftest import CORPUS_VERTICES, face_id, face_ids
from test_extended import EXTENDED


def labels(lattice, ids):
    return {lattice.face_label(i) for i in ids}


def test_boundary_complex_sizes(lattices):
    assert len(bd.boundary_complex(lattices["SEG"])) == 2
    assert len(bd.boundary_complex(lattices["SQ"])) == 8
    assert len(bd.boundary_complex(lattices["CUBE"])) == 26


def test_closure_of_an_edge(sq):
    top_edge = face_id(sq, (0, 1), (1, 1))
    closed = bd.closure(bd.FaceSubset(sq, 1 << top_edge))
    assert closed.members == {top_edge, face_id(sq, (0, 1)), face_id(sq, (1, 1))}


def test_closure_fixes_subcomplexes_and_empty(sq):
    sub = bd.closure(bd.FaceSubset(sq, 1 << face_id(sq, (0, 0), (1, 0))))
    assert bd.closure(sub).members == sub.members
    assert bd.closure(bd.FaceSubset(sq, 0)).members == frozenset()


def test_order_filter_examples(sq):
    bottom = face_id(sq, (0, 0), (1, 0))
    assert bd.is_order_filter(bd.FaceSubset(sq, 1 << bottom))
    assert not bd.is_order_filter(bd.FaceSubset(sq, 1 << face_id(sq, (0, 0))))
    assert bd.is_order_filter(bd.boundary_complex(sq))


def test_star_link_antistar_square_vertex(sq):
    v00 = face_id(sq, (0, 0))
    bottom = face_id(sq, (0, 0), (1, 0))
    left = face_id(sq, (0, 0), (0, 1))
    v10 = face_id(sq, (1, 0))
    v01 = face_id(sq, (0, 1))
    v11 = face_id(sq, (1, 1))
    top = face_id(sq, (0, 1), (1, 1))
    right = face_id(sq, (1, 0), (1, 1))

    assert bd.star(sq, v00).members == {v00, bottom, left}
    assert bd.closed_star(sq, v00).members == {v00, bottom, left, v10, v01}
    assert bd.link(sq, v00).members == {v10, v01}
    assert bd.open_antistar(sq, v00).members == {top, right, v11}
    assert bd.closed_antistar(sq, v00).members == {top, right, v11, v10, v01}


def test_star_link_square_edge(sq):
    bottom = face_id(sq, (0, 0), (1, 0))
    assert bd.star(sq, bottom).members == {bottom}
    assert bd.link(sq, bottom).members == {face_id(sq, (0, 0)), face_id(sq, (1, 0))}


def test_star_link_segment(seg):
    v0 = face_id(seg, (0,))
    v1 = face_id(seg, (1,))
    assert bd.star(seg, v0).members == {v0}
    assert bd.link(seg, v0).members == frozenset()
    assert bd.open_antistar(seg, v0).members == {v1}


def test_top_face_rejected(sq):
    with pytest.raises(ValueError):
        bd.star(sq, sq.top_id)
    with pytest.raises(ValueError):
        bd.link(sq, 999)
    with pytest.raises(ValueError):
        bd.closed_star_within(bd.boundary_complex(sq), -1)


def join_formulas(lat, a):
    """The five star-type operators of face a read off ``joins_with``."""
    by_join = bd.joins_with(lat, a)
    antistar = by_join[lat.top_id]
    star = sum(m & 1 << h for h, m in enumerate(by_join))
    return {
        bd.star: star,
        bd.closed_star: lat.proper_mask & ~antistar,
        bd.open_antistar: antistar,
        bd.closed_antistar: bd.closure(bd.FaceSubset(lat, antistar)).mask,
        bd.link: lat.proper_mask & ~antistar & ~star,
    }


def test_operators_match_join_formulas(lattices):
    for lat in lattices.values():
        for a in range(lat.top_id):
            for op, mask in join_formulas(lat, a).items():
                assert op(lat, a).mask == mask, (
                    lat.polytope.vertices, lat.face_label(a), op.__name__
                )


def test_joins_with_calls_join_once_per_proper_face(cube):
    lat = face_lattice(cube.polytope)
    calls = []
    right = lat.join
    lat.join = lambda g, a: calls.append((g, a)) or right(g, a)
    a = face_id(lat, (0, 0, 0), (1, 0, 0))
    by_join = bd.joins_with(lat, a)
    assert calls == [(g, a) for g in range(lat.top_id)]
    for h, mask in enumerate(by_join):
        assert mask == sum(1 << g for g in range(lat.top_id) if right(g, a) == h)
    with pytest.raises(ValueError):
        bd.joins_with(lat, lat.top_id)


def test_operators_take_no_route_argument(sq):
    for op in (bd.star, bd.closed_star, bd.open_antistar, bd.closed_antistar, bd.link):
        with pytest.raises(TypeError):
            op(sq, 0, "combinatorial")


def test_closed_antistar_is_closure_of_open(lattices):
    for lat in lattices.values():
        for a in range(lat.top_id):
            assert (
                bd.closed_antistar(lat, a).members
                == bd.closure(bd.open_antistar(lat, a)).members
            )


def test_link_as_differences(lattices):
    for lat in lattices.values():
        for a in range(lat.top_id):
            lk = bd.link(lat, a).members
            assert lk == bd.closed_star(lat, a).members - bd.star(lat, a).members
            assert lk == bd.closed_antistar(lat, a).members - bd.open_antistar(lat, a).members


def test_closed_star_within_link(lattices):
    # for A < B, the closed star of A inside link(B) is cut out by joins
    for lat in lattices.values():
        for a in range(lat.top_id):
            for b in bd.star(lat, a).members - {a}:
                lk_b = bd.link(lat, b)
                assert a in lk_b.members
                expected = frozenset(
                    f for f in lk_b.members if not lat.leq(b, lat.join(f, a))
                )
                assert bd.closed_star_within(lk_b, a).members == expected


def test_filters_and_subcomplexes(lattices):
    for lat in lattices.values():
        for a in range(lat.top_id):
            assert bd.is_order_filter(bd.star(lat, a))
            assert bd.is_order_filter(bd.open_antistar(lat, a))
            assert bd.is_subcomplex(bd.closed_star(lat, a))
            assert bd.is_subcomplex(bd.closed_antistar(lat, a))
            assert bd.is_subcomplex(bd.link(lat, a))


def test_nerve_of_boundary_square(sq):
    n = bd.nerve(bd.boundary_complex(sq))
    assert len(n.vertices) == 8
    assert n.f_vector() == (8, 8)  # the 8-cycle
    for s in n.simplices:
        assert list(s) == sorted(s)
        for i in range(len(s)):
            sub = s[:i] + s[i + 1 :]
            if sub:
                assert sub in n.simplices


def test_nerve_of_segment_and_singleton(seg, sq):
    n = bd.nerve(bd.boundary_complex(seg))
    assert n.f_vector() == (2,)
    single = bd.nerve(bd.FaceSubset(sq, 1 << face_id(sq, (0, 0))))
    assert single.f_vector() == (1,)
    with pytest.raises(ValueError):
        bd.nerve(bd.FaceSubset(sq, 0))


# ---------------------------------------------------------------------------
# an oracle from vertex sets: F <= G iff the vertices of F are vertices of G


def _oracle_shapes():
    shapes = {name: face_lattice(build_polytope(v)) for name, v in CORPUS_VERTICES.items()}
    shapes.update((name, face_lattice(build_polytope(v))) for name, v in EXTENDED.items())
    units = [[int(i == j) for j in range(4)] for i in range(4)]
    shapes["SIMPLEX4"] = face_lattice(build_polytope([[0] * 4] + units))
    shapes["CUBE4"] = face_lattice(build_polytope(list(product((0, 1), repeat=4))))
    rng = random.Random(20)
    for i in range(20):  # seeded hulls in dimensions 1 to 4
        n = 1 + i % 4
        while f"seeded {i}" not in shapes:
            count = rng.randint(n + 1, n + 5)
            try:
                pts = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(count)]
                shapes[f"seeded {i}"] = face_lattice(build_polytope(pts))
            except ValueError:  # not full-dimensional
                pass
    return shapes


class VertexSetOracle:
    """The boundary operators on frozensets of face ids, with the face order
    read off vertex-set containment alone."""

    def __init__(self, lat):
        verts = [face_ids(m) for m in lat.vertex_masks]
        self.proper = frozenset(range(lat.top_id))
        self.below = [frozenset(f for f in self.proper if verts[f] <= v) for v in verts]
        self.above = [frozenset(g for g in self.proper if v <= verts[g]) for v in verts]

    def closure(self, ids):
        return frozenset().union(*(self.below[g] for g in ids))

    def star(self, a):
        return self.above[a]

    def closed_star(self, a):
        return self.closure(self.star(a))

    def link(self, a):
        return self.closed_star(a) - self.star(a)

    def open_antistar(self, a):
        return self.proper - self.closed_star(a)

    def closed_antistar(self, a):
        return self.proper - self.star(a)

    def is_order_filter(self, ids):
        return all(g in ids for f in ids for g in self.star(f))

    def is_subcomplex(self, ids):
        return self.closure(ids) == ids

    def closed_star_within(self, ids, a):
        return ids & self.closure(ids & self.above[a])


def test_mask_operators_match_the_vertex_set_oracle():
    rng = random.Random(7)
    ops = ("star", "closed_star", "link", "open_antistar", "closed_antistar")
    shapes = _oracle_shapes()
    assert {lat.polytope.dim for lat in shapes.values()} == {1, 2, 3, 4}
    for name, lat in shapes.items():
        oracle = VertexSetOracle(lat)
        subsets = [bd.FaceSubset(lat, rng.getrandbits(lat.top_id)) for _ in range(4)]
        for a in range(lat.top_id):
            for op in ops:
                subset = getattr(bd, op)(lat, a)
                assert subset.members == getattr(oracle, op)(a), (name, op, a)
                subsets.append(subset)
            lk = bd.link(lat, a)
            for b in range(lat.top_id):
                within = bd.closed_star_within(lk, b).members
                assert within == oracle.closed_star_within(lk.members, b), (name, a, b)
        for subset in subsets:
            ids = subset.members
            assert bd.closure(subset).members == oracle.closure(ids), (name, sorted(ids))
            assert bd.is_order_filter(subset) == oracle.is_order_filter(ids), (name, sorted(ids))
            assert bd.is_subcomplex(subset) == oracle.is_subcomplex(ids), (name, sorted(ids))
        for subset in subsets[:4]:
            for b in range(lat.top_id):
                within = bd.closed_star_within(subset, b).members
                assert within == oracle.closed_star_within(subset.members, b), (name, b)


def test_face_subset_rejects_masks_beyond_the_proper_faces(sq):
    bd.FaceSubset(sq, sq.proper_mask)
    for mask in (-1, -(1 << 3), 1 << sq.top_id, 1 << len(sq), 1 << (len(sq) + 5)):
        with pytest.raises(ValueError, match="not proper faces"):
            bd.FaceSubset(sq, mask)
