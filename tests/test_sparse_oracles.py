"""Reference oracles for the sparse coboundary pipeline and the run scan.

Each fast path is compared with the dense or per-point route it replaced:
the sparse product with a dense triple loop, the sparse restriction with a
dense submatrix copy, the simplicial coboundaries with dense rows, and the
facet-sign runs of ``sheaf._scan`` with one ``LatticePolytope.holds`` per point.
The face cochain complex, whose signs come from the face lattice alone, is
compared with one built from the full F x F order relation and geometric
incidence signs (the determinant route: an integer basis of each face's
direction space and two determinant signs per covering pair). The two must
agree up to a +-1 change of basis per face, and each geometric sign must
equal the determinant of solved rational coordinates. Inputs are the test
corpus and seeded random 1-4D polytopes.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from polytoric import boundary as bd
from polytoric import build_polytope, face_lattice
from polytoric import homology as hm
from polytoric import sheaf as sh
from polytoric.linalg import (
    IntMatrix,
    _eliminate,
    coordinates_in_basis,
    det_sign,
    rank_rational,
    smith_normal_form,
    vec_sub,
)

from conftest import coreduce_masks, face_id, face_ids, face_mask
from test_extended import EXTENDED


def _random_lattices(seed, count, dims=(2, 4)):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*dims)
        span = 2 if n < 4 else 1
        npts = n + 2 + rng.randint(0, 3)
        pts = {tuple(rng.randint(-span, span) for _ in range(n)) for _ in range(npts)}
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
    sets = {frozenset(range(len(lattice.faces)))}
    for k in (-1, 2):
        sigs = sh._scan(lattice, k)[0]
        sets.update(face_ids(sh._class_face_set(lattice, sig)) for sig in sigs)
    for _ in range(count):
        seeds = rng.sample(range(len(lattice.faces)), rng.randint(1, 3))
        sets.add(frozenset().union(*(face_ids(lattice.above_masks[f]) for f in seeds)))
    return sorted(sets, key=sorted)


# ---------------------------------------------------------------------------
# the determinant route: geometric incidence signs


def integer_row_basis(vectors):
    """Integer basis of the row space over Q: the nonzero echelon rows of
    ``_eliminate``."""
    if not vectors:
        return ()
    rows, pivots, _ = _eliminate(vectors, len(vectors[0]))
    return tuple(tuple(row) for row in rows[: len(pivots)])


def orient_faces(lattice):
    """An integer basis of each face's direction space: the echelon rows of
    the difference vectors from the face's lexicographically least vertex.
    Vertices get the empty basis."""
    out = {}
    for f in lattice.faces:
        coords = lattice.vertex_coords(f.id)
        out[f.id] = integer_row_basis([vec_sub(v, coords[0]) for v in coords[1:]])
        assert len(out[f.id]) == f.dim
    return out


def incidence(lattice, fid, gid, orientations=None):
    """Geometric incidence number of a covering pair F < G.

    Sign of det C, where C expresses [basis(F) | w] in basis(G) and w is the
    barycenter difference pointing from F into G, scaled by the positive
    factor |F|*|G| (vertex counts) to an integer vector. For any choice L of
    dim G coordinates, L[basis(F) | w] = L basis(G) C. L is the leading
    coordinate of each row of G's echelon basis, which makes L basis(G)
    invertible, so the sign is the product of two determinant signs.
    """
    f, g = lattice.face(fid), lattice.face(gid)
    if not (lattice.leq(fid, gid) and g.dim == f.dim + 1):
        raise ValueError(f"faces {fid}, {gid} are not a covering pair")
    if orientations is None:
        orientations = orient_faces(lattice)
    fv, gv = lattice.vertex_coords(fid), lattice.vertex_coords(gid)
    w = tuple(
        len(fv) * sum(col_g) - len(gv) * sum(col_f) for col_f, col_g in zip(zip(*fv), zip(*gv))
    )
    target_basis = orientations[gid]
    lead = [next(i for i, x in enumerate(b) if x) for b in target_basis]
    sign = det_sign([[u[c] for c in lead] for u in (*orientations[fid], w)])
    sign *= det_sign([[b[c] for c in lead] for b in target_basis])
    assert sign != 0
    return sign


def _barycenter(lattice, fid):
    coords = lattice.vertex_coords(fid)
    return tuple(Fraction(sum(c), len(coords)) for c in zip(*coords))


def _solved_incidence(lattice, fid, gid, orientations):
    """Sign of det C with [basis(F) | w] = basis(G) C, each column of C
    solved for in rational arithmetic, w the Fraction barycenter difference."""
    w = vec_sub(_barycenter(lattice, gid), _barycenter(lattice, fid))
    columns = [coordinates_in_basis(orientations[gid], u) for u in (*orientations[fid], w)]
    assert None not in columns
    return det_sign([list(row) for row in zip(*columns)])


def _leq_face_complex(lattice):
    """The face cochain complex with geometric signs and one dense row per
    face, from one ``leq`` test per pair of faces."""
    orientations = orient_faces(lattice)
    labels = tuple(lattice.faces_of_dim(d) for d in range(lattice.polytope.dim + 1))
    return [
        tuple(
            tuple(
                incidence(lattice, fid, gid, orientations) if lattice.leq(fid, gid) else 0
                for fid in labels[d]
            )
            for gid in labels[d + 1]
        )
        for d in range(len(labels) - 1)
    ]


def _sign_change(complex_, dense):
    """The +-1 per face with complex entry [G:F] == eps[G] * dense[G][F] *
    eps[F] for every pair of faces in consecutive degrees. eps is 1 on each
    vertex and fixed on each higher face by its first covering pair; every
    entry is then checked, zeros included."""
    labels = complex_.basis_labels
    eps = dict.fromkeys(labels[0], 1)
    for d, (m, old) in enumerate(zip(complex_.maps, dense)):
        for gid, row, old_row in zip(labels[d + 1], m.entries, old):
            c = next(j for j, x in enumerate(old_row) if x)
            eps[gid] = row[c] * old_row[c] * eps[labels[d][c]]
            want = tuple(eps[gid] * x * eps[fid] for fid, x in zip(labels[d], old_row))
            assert row == want, (d, gid)
    return eps


def test_integer_row_basis_spans_the_row_space():
    rng = random.Random(31)
    for _ in range(200):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-6, 6))) for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and rng.random() < 0.4:
            rows[0] = [2 * x - y for x, y in zip(rows[1], rows[-1])]
        basis = integer_row_basis(rows)
        assert all(isinstance(x, int) for row in basis for x in row)
        assert len(basis) == rank_rational(rows)
        # same space: adding the input rows to the basis raises no rank
        assert rank_rational(list(basis) + rows) == len(basis)
    assert integer_row_basis([(0, 0)]) == ()
    assert integer_row_basis([]) == ()


def test_orientation_bases(sq, seg):
    orients = orient_faces(seg)
    for fid in seg.faces_of_dim(0):
        assert orients[fid] == ()
    assert orients[seg.top_id] == ((1,),)

    orients = orient_faces(sq)
    bottom = face_id(sq, (0, 0), (1, 0))
    assert orients[bottom] == ((1, 0),)
    assert orients[sq.top_id] == ((1, 0), (0, 1))


def test_incidence_segment_signs(seg):
    v0 = face_id(seg, (0,))
    v1 = face_id(seg, (1,))
    s0 = incidence(seg, v0, seg.top_id)
    s1 = incidence(seg, v1, seg.top_id)
    assert {s0, s1} == {1, -1}
    assert s0 == 1  # w = +1/2 in the basis (1,)


def test_incidence_square_example(sq):
    v00 = face_id(sq, (0, 0))
    bottom = face_id(sq, (0, 0), (1, 0))
    assert incidence(sq, v00, bottom) == 1


def test_incidence_rejects_non_covers(sq):
    v00 = face_id(sq, (0, 0))
    v11 = face_id(sq, (1, 1))
    with pytest.raises(ValueError):
        incidence(sq, v00, v11)
    with pytest.raises(ValueError):
        incidence(sq, v00, sq.top_id)


def test_incidence_matches_solved_coordinates(shapes):
    covers = 0
    for name, lat in shapes.items():
        orientations = orient_faces(lat)
        for g in lat.faces:
            for fid in face_ids(lat.below_masks[g.id]):
                if lat.face(fid).dim + 1 == g.dim:
                    covers += 1
                    want = _solved_incidence(lat, fid, g.id, orientations)
                    assert incidence(lat, fid, g.id, orientations) == want, (name, fid, g.id)
    assert covers > 500


def test_face_complex_matches_leq_built_complex(shapes):
    # the lattice-only signs equal the geometric ones up to a +-1 change of
    # basis per face, so every Smith form is the same
    cloud = random.Random(1)
    rand4 = [tuple(cloud.randint(-5, 5) for _ in range(4)) for _ in range(12)]
    corpus = dict(shapes)
    corpus.update({f"random 1-4D {i}": lat for i, lat in enumerate(_random_lattices(9, 24, (1, 4)))})
    corpus["segment"] = face_lattice(build_polytope([[-2], [3]]))
    corpus["4D cloud"] = face_lattice(build_polytope(rand4))
    dims = set()
    for name, lat in corpus.items():
        c = hm.face_cochain_complex(lat)
        for m in c.maps:
            _assert_sparse_layout(m)
        dense = _leq_face_complex(lat)
        eps = _sign_change(c, dense)
        assert set(eps) == set(range(len(lat.faces))) and set(eps.values()) <= {1, -1}, name
        old_forms = [smith_normal_form(IntMatrix.from_rows(m)) for m in dense]
        assert [smith_normal_form(m) for m in c.maps] == old_forms, name
        dims.add(lat.polytope.dim)
    assert dims == {1, 2, 3, 4} and len(corpus["4D cloud"].faces) > 150


# ---------------------------------------------------------------------------
# restrictions, nerves and the scan


def test_sparse_restriction_matches_dense_restriction(shapes):
    rng = random.Random(43)
    for name, lat in shapes.items():
        ambient = hm.face_cochain_complex(lat)
        for keep in _upward_closed_sets(lat, rng, 6):
            sub = hm.restrict_cochain_complex(ambient, face_mask(keep))
            assert sub.basis_labels == tuple(
                tuple(x for x in layer if x in keep) for layer in ambient.basis_labels
            )
            for m in sub.maps:
                _assert_sparse_layout(m)
            want = _dense_restriction(ambient, keep)
            assert [m.entries for m in sub.maps] == want, (name, sorted(keep))


def _label_restriction(complex_, keep):
    """Restriction to a set of labels: the route the cell-bitmask
    ``restrict_cochain_complex`` replaced, kept as its oracle."""
    index = []
    for layer in complex_.basis_labels:
        pos = {}
        for j, x in enumerate(layer):
            if x in keep:
                pos[j] = len(pos)
        index.append(pos)
    labels = tuple(
        tuple(layer[j] for j in pos) for layer, pos in zip(complex_.basis_labels, index)
    )
    maps = []
    for i, m in enumerate(complex_.maps):
        src = index[i]
        rows = tuple(tuple((src[c], v) for c, v in m.rows[r] if c in src) for r in index[i + 1])
        maps.append(IntMatrix(len(rows), len(src), rows))
    return hm.IntegerChainComplex(complex_.start_degree, labels, tuple(maps))


def test_mask_restriction_matches_label_restriction(shapes):
    # every class face set of the scans at k in -2..2 and its coreduced
    # remainder, restricted by cell bitmask and by face-id labels
    checked = set()
    for name, lat in shapes.items():
        ambient = hm.face_cochain_complex(lat)
        for k in range(-2, 3):
            for sig in sh._scan(lat, k)[0]:
                mask = sh._class_face_set(lat, sig)
                for keep in (mask, *coreduce_masks(ambient, [mask])):
                    got = hm.restrict_cochain_complex(ambient, keep)
                    want = _label_restriction(ambient, face_ids(keep))
                    assert got.basis_labels == want.basis_labels, (name, k, keep)
                    assert [m.rows for m in got.maps] == [m.rows for m in want.maps]
                    assert [m.ncols for m in got.maps] == [m.ncols for m in want.maps]
                    for ring in ("Z", "Q", "Z/2"):
                        assert hm.cohomology(got, ring) == hm.cohomology(want, ring)
                    checked.add((name, keep))
    assert len(checked) > 500


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


def test_scan_runs_match_per_point_signatures(shapes):
    # the runs tile the box in order, at most F + 1 to a line with neighbours
    # of different classes, and every point of a run has the run's signature
    zero_last = 0
    for name, lat in shapes.items():
        poly = lat.polytope
        zero_last += sum(f.normal[-1] == 0 for f in poly.facets)
        for k in range(-3, 4):
            box = sh.scan_box(poly, k)
            sigs, runs, distant_ids = sh._scan(lat, k)
            points = [p + (t,) for _, p, first, last in runs for t in range(first, last + 1)]
            assert points == list(product(*(range(lo, hi + 1) for lo, hi in box))), (name, k)
            lines = {}
            for c, prefix, first, last in runs:
                assert first <= last, (name, k, prefix)
                lines.setdefault(prefix, []).append(c)
            for prefix, ids in lines.items():
                assert len(ids) <= len(poly.facets) + 1, (name, k, prefix)
                assert all(a != b for a, b in zip(ids, ids[1:])), (name, k, prefix)
            ids = [c for c, _, first, last in runs for _ in range(first, last + 1)]
            for x, c in zip(points, ids):
                assert sigs[c] == poly.holds(x, k), (name, k, x)
            distant = sh._distant_points(poly, k, box)
            assert [sigs[i] for i in distant_ids] == [poly.holds(x, k) for x in distant]
            # classes are numbered by first appearance, box before distant
            assert list(dict.fromkeys(ids + distant_ids)) == list(range(len(sigs)))
            assert len(set(sigs)) == len(sigs)
    assert zero_last >= 10
