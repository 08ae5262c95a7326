"""Reference oracles for the sparse coboundary pipeline and the stepped scan.

Each fast path is compared with the dense or per-point route it replaced:
the sparse product with a dense triple loop, the sparse restriction with a
dense submatrix copy, the face cochain complex with one built from the full
F x F order relation, each incidence sign with the determinant of solved
rational coordinates, the simplicial coboundaries with dense rows, and the
line-stepped class ids of ``sheaf._scan`` with one ``_signature`` per point.
Inputs are the test corpus and seeded random 2-4D polytopes.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from polytoric import boundary as bd
from polytoric import build_polytope, face_lattice
from polytoric import homology as hm
from polytoric import sheaf as sh
from polytoric.linalg import IntMatrix, coordinates_in_basis, det_sign, vec_sub

from test_extended import EXTENDED


def _random_lattices(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        span = 2 if n < 4 else 1
        count = n + 2 + rng.randint(0, 3)
        pts = {tuple(rng.randint(-span, span) for _ in range(n)) for _ in range(count)}
        try:
            out.append(face_lattice(build_polytope(sorted(pts))))
        except ValueError:
            continue  # not full-dimensional
    return out


@pytest.fixture(scope="module")
def shapes(lattices):
    """Corpus, extended and random polytopes; SQ and CUBE have facets whose
    normal's last coordinate is 0, and the random ones mix all signs."""
    out = dict(lattices)
    out.update({name: face_lattice(build_polytope(v)) for name, v in EXTENDED.items()})
    out.update({f"random {i}": lat for i, lat in enumerate(_random_lattices(8, 8))})
    return out


def _dense_product(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]) if b else 0))
        for i in range(len(a))
    )


def _assert_sparse_layout(m):
    assert len(m.rows) == m.nrows
    for row in m.rows:
        cols = [c for c, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= c < m.ncols for c in cols)
        assert all(v != 0 and type(v) is int for _, v in row)


def _random_dense(rng, nrows, ncols, density):
    return [
        [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_sparse_product_matches_dense_product():
    rng = random.Random(41)
    for _ in range(300):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        density = rng.random()
        a, b = _random_dense(rng, n, k, density), _random_dense(rng, k, m, density)
        got = IntMatrix.from_rows(a).mul(IntMatrix.from_rows(b))
        _assert_sparse_layout(got)
        assert (got.nrows, got.ncols) == (n, m)
        assert got.entries == _dense_product(a, b)
        assert got.is_zero() == all(x == 0 for row in got.entries for x in row)


def _leq_face_complex(lattice):
    """The face cochain complex as built before rows came from ``below``: one
    dense row per face, one ``leq`` test per pair of faces."""
    orientations = hm.orient_faces(lattice)
    labels = tuple(lattice.faces_of_dim(d) for d in range(lattice.polytope.dim + 1))
    return [
        tuple(
            tuple(
                hm.incidence(lattice, fid, gid, orientations) if lattice.leq(fid, gid) else 0
                for fid in labels[d]
            )
            for gid in labels[d + 1]
        )
        for d in range(len(labels) - 1)
    ]


def _dense_restriction(complex_, keep):
    dense = []
    for i, m in enumerate(complex_.maps):
        src = [j for j, x in enumerate(complex_.basis_labels[i]) if x in keep]
        dst = [j for j, x in enumerate(complex_.basis_labels[i + 1]) if x in keep]
        dense.append(tuple(tuple(m.entries[r][c] for c in src) for r in dst))
    return dense


def _upward_closed_sets(lattice, rng, count):
    """The face sets of the scan's classes, seeded random upward closures and
    the whole lattice."""
    poly = lattice.polytope
    sets = {frozenset(range(len(lattice.faces)))}
    for k in (-1, 2):
        sigs = sh._scan(lattice, k, sh.scan_box(poly, k, 1))[0]
        sets.update(sh._face_set_from_signature(lattice, sig) for sig in sigs)
    for _ in range(count):
        seeds = rng.sample(range(len(lattice.faces)), rng.randint(1, 3))
        sets.add(frozenset().union(*(lattice.above(f) for f in seeds)))
    return sorted(sets, key=sorted)


def _barycenter(lattice, fid):
    coords = lattice.vertex_coords(fid)
    return tuple(Fraction(sum(c), len(coords)) for c in zip(*coords))


def _solved_incidence(lattice, fid, gid):
    """Sign of det C with [basis(F) | w] = basis(G) C, each column of C
    solved for in rational arithmetic, w the Fraction barycenter difference."""
    orientations = hm.orient_faces(lattice)
    w = vec_sub(_barycenter(lattice, gid), _barycenter(lattice, fid))
    columns = [coordinates_in_basis(orientations[gid], u) for u in (*orientations[fid], w)]
    assert None not in columns
    return det_sign([list(row) for row in zip(*columns)])


def test_incidence_matches_solved_coordinates(shapes):
    covers = 0
    for name, lat in shapes.items():
        for g in lat.faces:
            for fid in lat.below(g.id):
                if lat.face(fid).dim + 1 == g.dim:
                    covers += 1
                    want = _solved_incidence(lat, fid, g.id)
                    assert hm.incidence(lat, fid, g.id) == want, (name, fid, g.id)
    assert covers > 500


def test_face_complex_matches_leq_built_complex(shapes):
    for name, lat in shapes.items():
        c = hm.face_cochain_complex(lat)
        for m in c.maps:
            _assert_sparse_layout(m)
        assert [m.entries for m in c.maps] == _leq_face_complex(lat), name


def test_sparse_restriction_matches_dense_restriction(shapes):
    rng = random.Random(43)
    for name, lat in shapes.items():
        ambient = hm.face_cochain_complex(lat)
        for keep in _upward_closed_sets(lat, rng, 6):
            sub = hm.restrict_cochain_complex(ambient, keep)
            assert sub.basis_labels == tuple(
                tuple(x for x in layer if x in keep) for layer in ambient.basis_labels
            )
            for m in sub.maps:
                _assert_sparse_layout(m)
            want = _dense_restriction(ambient, keep)
            assert [m.entries for m in sub.maps] == want, (name, sorted(keep))


def test_simplicial_rows_match_dense_rows(shapes):
    for name in ("SQ", "CUBE", "OCTA", "random 0", "random 1"):
        nerve = bd.nerve(bd.boundary_complex(shapes[name]))
        c = hm.simplicial_chain_complex(nerve, reduced=True)
        layers = [nerve.simplices_of_dim(k) for k in range(nerve.top_dim() + 1)]
        assert c.maps[0].entries == tuple((1,) for _ in layers[0])
        for k, m in enumerate(c.maps[1:]):
            _assert_sparse_layout(m)
            dense = tuple(
                tuple(
                    (-1) ** tau.index(next(v for v in tau if v not in sigma))
                    if len(sigma) == k + 1 and set(sigma) < set(tau)
                    else 0
                    for sigma in layers[k]
                )
                for tau in layers[k + 1]
            )
            assert m.entries == dense, (name, k)


def test_stepped_scan_matches_per_point_signatures(shapes):
    # the class id of every box point must name the signature of that point
    zero_last = 0
    for name, lat in shapes.items():
        poly = lat.polytope
        zero_last += sum(f.normal[-1] == 0 for f in poly.facets)
        for k in range(-3, 4):
            box = sh.scan_box(poly, k, 1)
            sigs, box_ids, distant_ids = sh._scan(lat, k, box)
            points = list(product(*(range(lo, hi + 1) for lo, hi in box)))
            assert len(box_ids) == len(points), (name, k)
            for x, i in zip(points, box_ids):
                assert sigs[i] == sh._signature(poly, k, x), (name, k, x)
            distant = sh._distant_points(poly, k, box)
            assert [sigs[i] for i in distant_ids] == [sh._signature(poly, k, x) for x in distant]
            assert len(set(sigs)) == len(sigs)
    assert zero_last >= 10
